"""
kernel.py - spectral mixture-of-Gaussians covariance and stabilized Cholesky.

The covariance between two timestamps t, s is

    k(t, s) = sum_j amp_j * exp(-0.5 * bw_j * (t - s)^2)

with amp_j > 0, bw_j > 0. Parameters live in log space everywhere so
positivity never has to be enforced by the optimizer.

The package factors only small matrices, m x m for m informative
timestamps (10 by default), so beyond numpy's Cholesky factorization it
needs one more operation: L^{-1} b for a lower-triangular factor L. It
runs as column-oriented forward substitution in numpy, the algorithm of
LAPACK's triangular solve. Every caller whitens with it: the objective and
predict take W = L^{-1} for the factor of K_SS, and fit_posterior takes
L^{-1} [K_SS + jI, rhs] for the factor of its Lam, so nothing substitutes
with L^T.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, NumericalError, SingularMatrixError, ValidationError

__all__ = [
    "KernelParams",
    "class_kernel",
    "kernel_matrix",
    "kernel_matrix_components",
    "component_sum",
    "CholeskyFactor",
    "chol_jittered",
]

JITTER_GROWTH = 10.0
MAX_JITTER_STEPS = 7  # base * 10**p for p in 0..6

log = logging.getLogger("motioncode.kernel")


@dataclass(frozen=True)
class KernelParams:
    """Log-space parameters of one class's covariance, each shape (J,)."""

    log_amplitudes: np.ndarray
    log_bandwidths: np.ndarray

    def __post_init__(self):
        la = np.atleast_1d(np.asarray(self.log_amplitudes, dtype=float))
        lb = np.atleast_1d(np.asarray(self.log_bandwidths, dtype=float))
        if la.ndim != 1 or la.shape != lb.shape or la.size < 1:
            raise ValidationError(
                f"kernel parameters must be equal-length 1-d arrays, got shapes "
                f"{la.shape} and {lb.shape}"
            )
        with np.errstate(over="ignore"):
            ok = (
                np.all(np.isfinite(la))
                and np.all(np.isfinite(lb))
                and np.all(np.isfinite(np.exp(la)))
                and np.all(np.isfinite(np.exp(lb)))
            )
        if not ok:
            raise ValidationError("kernel log-parameters must exponentiate to finite values")
        la = la.copy()
        lb = lb.copy()
        la.setflags(write=False)
        lb.setflags(write=False)
        object.__setattr__(self, "log_amplitudes", la)
        object.__setattr__(self, "log_bandwidths", lb)

    @property
    def n_components(self) -> int:
        return self.log_amplitudes.size

    @property
    def amplitudes(self) -> np.ndarray:
        return np.exp(self.log_amplitudes)

    @property
    def bandwidths(self) -> np.ndarray:
        return np.exp(self.log_bandwidths)


def class_kernel(model: ModelParams, k: int) -> KernelParams:
    """Class k's covariance, read from a model's (L, J) parameter rows."""
    return KernelParams(model.log_amplitudes[k], model.log_bandwidths[k])


def _sqdist(t, s) -> np.ndarray:
    t = np.asarray(t, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    d = t[:, None] - s[None, :]
    d *= d
    return d


def kernel_matrix_components(params: KernelParams, t, s=None):
    """Per-component covariance slices, shape (J, len(t), len(s)).

    The full matrix is the sum over axis 0. Keeping components around makes
    log-parameter gradients cheap:
        d K / d log_amp_j = component_j
        d K / d log_bw_j  = -0.5 * bw_j * r2 * component_j
    so the squared distances are returned alongside.
    """
    if s is None:
        s = t
    r2 = _sqdist(t, s)
    amp = params.amplitudes
    bw = params.bandwidths
    comps = np.empty((params.n_components,) + r2.shape)
    # built in place: over thousands of points every temporary is a buffer
    # of its own that the allocator maps and page-faults afresh
    for j in range(params.n_components):
        np.multiply(r2, -0.5 * bw[j], out=comps[j])
        np.exp(comps[j], out=comps[j])
        comps[j] *= amp[j]
    return comps, r2


def component_sum(comps: np.ndarray) -> np.ndarray:
    """The matrix that (J, ...) kernel components sum to. One component is
    returned as it is, uncopied: a sum over one slice is that slice."""
    return comps[0] if comps.shape[0] == 1 else comps.sum(axis=0)


def kernel_matrix(params: KernelParams, t, s=None) -> np.ndarray:
    """Cross-covariance matrix K[a, b] = k(t[a], s[b]); s defaults to t."""
    return component_sum(kernel_matrix_components(params, t, s)[0])


def _forward_substitute(lower: np.ndarray, b) -> np.ndarray:
    """L^{-1} b for a lower-triangular L and a vector or matrix b.

    Column-oriented forward substitution, as LAPACK's trsm runs it: step k
    divides row k by the pivot L[k, k], then subtracts L[i, k] times row k
    from every later row i. Every column of b takes the same operations
    whatever the other columns hold. One Python step per row, so it suits
    the m x m factors it is used on.
    """
    b = np.asarray(b, dtype=float)
    x = b.reshape(b.shape[0], -1).copy()
    for k in range(lower.shape[0]):
        x[k] /= lower[k, k]
        x[k + 1:] -= np.multiply.outer(lower[k + 1:, k], x[k])
    return x.reshape(b.shape)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor L of (A + jitter_used * I), and L^{-1} b."""

    lower: np.ndarray
    jitter_used: float

    def half_solve(self, b) -> np.ndarray:
        """L^{-1} b for a vector or matrix b, by numpy forward substitution
        (_forward_substitute); it whitens A + jI to L^{-1} (A + jI) L^{-T} = I."""
        return _forward_substitute(self.lower, b)


def chol_jittered(a: np.ndarray, base_jitter: float) -> CholeskyFactor:
    """Cholesky of (a + j*I), escalating j from base_jitter by powers of ten.

    The jitter is always added, even when the plain factorization would
    succeed, so results are reproducible regardless of conditioning. After
    MAX_JITTER_STEPS failures a SingularMatrixError reports the smallest
    eigenvalue estimate. A matrix with NaN or infinite entries raises
    NumericalError; LAPACK would otherwise return a NaN factor. A factor
    that needed more than base_jitter logs one INFO line on
    motioncode.kernel with the jitter used and the matrix size.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"need a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"matrix of size {a.shape[0]} has non-finite entries")
    if not base_jitter > 0:
        raise ValidationError(f"base jitter must be positive, got {base_jitter}")
    n = a.shape[0]
    eye = np.eye(n)
    jitter = float(base_jitter)
    for _ in range(MAX_JITTER_STEPS):
        try:
            lower = np.linalg.cholesky(a + jitter * eye)
            if jitter > base_jitter:
                log.info("jitter raised to %g to factor a matrix of size %d", jitter, n)
            return CholeskyFactor(lower=lower, jitter_used=jitter)
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
    min_eig = float(np.linalg.eigvalsh(a)[0])
    raise SingularMatrixError(
        f"matrix of size {n} stayed non positive definite up to jitter "
        f"{jitter / JITTER_GROWTH:g} (smallest eigenvalue ~ {min_eig:.3e})"
    )
