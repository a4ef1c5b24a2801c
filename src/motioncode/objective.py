"""
objective.py - training objective for jointly fitted collection models.

Each labeled collection gets a sparse process model anchored at m inducing
("most informative") timestamps. The per-collection evidence bound is the
tightest lower bound on the collection log-likelihood over all variational
distributions at those timestamps; the variational distribution is maximized
out analytically, leaving a closed form. With B series in the collection and
noise scale sigma, the effective noise variance is c = B * sigma**2 and the
bound decomposes over series:

    bound = sum_i [ log N(y_i | 0, c*I + Q_i) - (tr K_i - tr Q_i) / (2c) ]
    Q_i   = C_i^T K_SS^{-1} C_i,   C_i = K(S, T_i)

Every series term is evaluated through an m x m inner system, so one pass
costs O(m^2 * N) time for N total points, never O(N^2).

Series are not visited one at a time. Each collection is packed once into
blocks of similar-length series, zero-padded to a common width of about
BLOCK_COLUMNS points (core.series_blocks). A block costs one kernel build,
one whitening product with the inverse of the K_SS Cholesky factor, one
stacked Cholesky of the per-series inner systems c*I + V_i V_i^T and
batched contractions for the gradients. Padded points are zeroed after
whitening, so they add nothing.

The training loss sums the negated bounds over classes and adds a ridge
penalty on the per-class codes:

    loss = -sum_k bound_k + lam * sum_k ||z_k||^2

where class k's inducing timestamps are sigmoid(code_map @ z_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Collection,
    Dataset,
    ModelParams,
    NumericalError,
    ValidationError,
    code_to_timestamps,
)
from .kernel import KernelParams, chol_jittered, kernel_matrix_components

__all__ = [
    "BoundGrads",
    "ModelGrads",
    "informative_timestamps",
    "lmax_bound",
    "lmax_bound_and_grads",
    "total_loss",
    "loss_gradient",
]

LOG_2PI = float(np.log(2.0 * np.pi))


def informative_timestamps(code_map, code) -> np.ndarray:
    """Inducing timestamps of one class: sigmoid(code_map @ code), in (0, 1)."""
    return code_to_timestamps(code_map, code)


@dataclass(frozen=True)
class BoundGrads:
    """One collection's bound value and its parameter gradients.

    d_log_amplitudes : (J,)
    d_log_bandwidths : (J,)
    d_timestamps     : (m,)  derivative w.r.t. the inducing timestamps
    """

    value: float
    d_log_amplitudes: np.ndarray
    d_log_bandwidths: np.ndarray
    d_timestamps: np.ndarray


@dataclass(frozen=True)
class ModelGrads:
    """Training-loss gradients, shapes mirroring ModelParams."""

    d_log_amplitudes: np.ndarray  # (L, J)
    d_log_bandwidths: np.ndarray  # (L, J)
    d_codes: np.ndarray  # (L, d)
    d_code_map: np.ndarray  # (m, d)


def _check_inducing(s) -> np.ndarray:
    s = np.asarray(s, dtype=float).ravel()
    if s.size < 1 or not np.all(np.isfinite(s)):
        raise ValidationError("inducing timestamps must be a non-empty finite array")
    if s.min() < 0.0 or s.max() > 1.0:
        raise ValidationError(
            f"inducing timestamps must lie in [0, 1], got range [{s.min()}, {s.max()}]"
        )
    return s


def _block_terms(kp: KernelParams, s, whiten, block, c, want_grads):
    """One series block's share of the bound, and of its gradients when
    asked: (value, None) or (value, (p_dot, d_log_amp, d_log_bw, d_timestamps)),
    where p_dot is the block's unsymmetrized adjoint of K_SS and whiten is
    the inverse of its lower Cholesky factor.

    The kernel is built with one column per padded point, series after
    series, which keeps its inner loops long; after whitening the work runs
    on rows, so series i's V_i^T is one contiguous (width, m) slab. Padded
    points are zeroed after whitening, so they drop out of every sum.
    """
    m = s.size
    g, width = block.times.shape
    n_b = block.n_points
    t_flat = block.times.ravel()
    y = block.values[:, :, None]  # (G, width, 1)
    diag = np.arange(m)
    c_comps, d_b = kernel_matrix_components(kp, s, t_flat)  # (J, m, G*width)
    v_rows = c_comps.sum(axis=0).T @ whiten.T  # V^T, one row per point
    if n_b < g * width:
        v_rows *= block.mask.reshape(-1, 1)
    vt = v_rows.reshape(g, width, m)  # V_i^T of every series i
    e = vt.transpose(0, 2, 1) @ vt
    e[:, diag, diag] += c  # min eigenvalue >= c, no jitter needed
    try:
        l_e = np.linalg.cholesky(e)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "inner inducing-point system lost positive definiteness"
        ) from exc
    l_inv = np.linalg.inv(l_e)
    w = y.transpose(0, 2, 1) @ vt  # (V_i y_i)^T, (G, 1, m)
    half = w @ l_inv.transpose(0, 2, 1)
    quad = (float(np.vdot(y, y)) - float(np.vdot(half, half))) / c
    logdet = (n_b - g * m) * np.log(c) + 2.0 * float(np.sum(np.log(l_e[:, diag, diag])))
    log_lik = -0.5 * (n_b * LOG_2PI + logdet + quad)
    trace_gap = n_b * float(np.sum(kp.amplitudes)) - float(np.vdot(v_rows, v_rows))
    value = log_lik - trace_gap / (2.0 * c)
    if not want_grads:
        return value, None

    # adjoint of each series covariance block is rank m+1; contract it
    # without ever forming an n x n matrix. Transposed, series i's
    # cross-covariance adjoint is
    #   V_i^T E_i^{-1} (V_i W_i^T) / c + r_i (r_i^T W_i^T)
    # with W_i = L^{-T} V_i and r_i = (y_i - V_i^T E_i^{-1} V_i y_i) / c
    e_inv = l_inv.transpose(0, 2, 1) @ l_inv
    resid = (y - vt @ (w @ e_inv).transpose(0, 2, 1)) / c
    w_rows = v_rows @ whiten  # W^T
    wt = w_rows.reshape(g, width, m)
    cdot = vt @ (e_inv @ (vt.transpose(0, 2, 1) @ wt))
    cdot /= c
    cdot += resid @ (resid.transpose(0, 2, 1) @ wt)
    cdot = cdot.reshape(-1, m)
    p_dot = -0.5 * (cdot.T @ w_rows)
    # release the whitened rows before the cross differences are allocated,
    # which keeps the block's peak working set at six row arrays
    del v_rows, vt, w_rows, wt
    amps = kp.amplitudes
    bws = kp.bandwidths
    cdot = np.ascontiguousarray(cdot.T)  # back to columns, like c_comps
    diff_cross = s[:, None] - t_flat[None, :]
    d_la = np.empty(kp.n_components)
    d_lb = np.empty(kp.n_components)
    d_s = np.zeros(m)
    for j in range(kp.n_components):
        d_la[j] = float(np.vdot(cdot, c_comps[j])) - n_b * amps[j] / (2.0 * c)
        d_lb[j] = -0.5 * bws[j] * float(np.einsum("ap,ap,ap->", cdot, d_b, c_comps[j]))
        d_s -= bws[j] * np.einsum("ap,ap,ap->a", cdot, c_comps[j], diff_cross)
    return value, (p_dot, d_la, d_lb, d_s)


def _bound_core(kp: KernelParams, s, blocks, c, jitter, want_grads):
    """Shared evaluation path: sums _block_terms over a collection's blocks.

    Returns (value, None) or (value, (d_log_amp, d_log_bw, d_timestamps)).
    """
    m = s.size
    p_comps, d_ss = kernel_matrix_components(kp, s)
    factor = chol_jittered(p_comps.sum(axis=0), jitter)
    # whitening through the explicit m x m inverse factor is one matrix
    # product per block; a triangular solve per block cost ten times more
    whiten = factor.half_solve(np.eye(m))
    n_comp = kp.n_components
    value = 0.0
    grads = (np.zeros((m, m)), np.zeros(n_comp), np.zeros(n_comp), np.zeros(m))
    for block in blocks:
        block_value, block_grads = _block_terms(kp, s, whiten, block, c, want_grads)
        value += block_value
        if want_grads:
            for total, part in zip(grads, block_grads):
                total += part

    if not np.isfinite(value):
        raise NumericalError("collection bound evaluated to a non-finite value")
    if not want_grads:
        return value, None

    p_dot, d_la, d_lb, d_s = grads
    p_dot = 0.5 * (p_dot + p_dot.T)
    bws = kp.bandwidths
    diff_ss = s[:, None] - s[None, :]
    g_ss = np.zeros((m, m))
    for j in range(n_comp):
        d_la[j] += float(np.sum(p_dot * p_comps[j]))
        d_lb[j] += -0.5 * bws[j] * float(np.sum(p_dot * d_ss * p_comps[j]))
        g_ss -= bws[j] * diff_ss * p_comps[j]
    d_s += 2.0 * np.sum(p_dot * g_ss, axis=1)
    return value, (d_la, d_lb, d_s)


def lmax_bound(kernel_params: KernelParams, inducing, collection: Collection,
               sigma: float, jitter: float = 1e-6) -> float:
    """Evidence lower bound of one collection at the given inducing timestamps.

    c = (number of series) * sigma**2 is the effective per-point noise
    variance. Cost is O(m^2 * N) for N total observations.
    """
    s = _check_inducing(inducing)
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    c = collection.size * sigma * sigma
    value, _ = _bound_core(kernel_params, s, collection.blocks, c, jitter,
                           want_grads=False)
    return value


def lmax_bound_and_grads(kernel_params: KernelParams, inducing, collection: Collection,
                         sigma: float, jitter: float = 1e-6) -> BoundGrads:
    """Bound value plus analytic gradients w.r.t. log-kernel parameters and
    the inducing timestamps. Same O(m^2 * N) cost as the value alone."""
    s = _check_inducing(inducing)
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    c = collection.size * sigma * sigma
    value, grads = _bound_core(kernel_params, s, collection.blocks, c, jitter,
                               want_grads=True)
    d_la, d_lb, d_s = grads
    return BoundGrads(
        value=value,
        d_log_amplitudes=d_la,
        d_log_bandwidths=d_lb,
        d_timestamps=d_s,
    )


def _check_match(params: ModelParams, dataset: Dataset):
    if params.n_classes != dataset.n_classes:
        raise ValidationError(
            f"model has {params.n_classes} classes but dataset has {dataset.n_classes}"
        )


def _class_term(params: ModelParams, dataset: Dataset, k: int, want_grads: bool):
    h = params.hyper
    kp = KernelParams(params.log_amplitudes[k], params.log_bandwidths[k])
    z_k = params.codes[k]
    s_k = code_to_timestamps(params.code_map, z_k)
    collection = dataset.collections[k]
    c = collection.size * h.sigma * h.sigma
    value, grads = _bound_core(kp, s_k, collection.blocks, c, h.jitter, want_grads)
    penalty = h.lam * float(z_k @ z_k)
    if not want_grads:
        return -value + penalty, None
    d_la, d_lb, d_s = grads
    gate = d_s * s_k * (1.0 - s_k)  # chain through the sigmoid
    d_code = -(params.code_map.T @ gate) + 2.0 * h.lam * z_k
    d_map = -np.outer(gate, z_k)
    return -value + penalty, (-d_la, -d_lb, d_code, d_map)


def _class_terms(params: ModelParams, dataset: Dataset, want_grads: bool):
    """Every class's (loss term, grads), in class order."""
    _check_match(params, dataset)
    return [_class_term(params, dataset, k, want_grads)
            for k in range(dataset.n_classes)]


def total_loss(params: ModelParams, dataset: Dataset) -> float:
    """Training loss: sum of negated collection bounds plus the code penalty."""
    terms = _class_terms(params, dataset, want_grads=False)
    return float(sum(t for t, _ in terms))


def loss_gradient(params: ModelParams, dataset: Dataset):
    """Training loss and its gradients w.r.t. every learnable parameter.

    Returns (loss, ModelGrads). The reduction always runs in class order.
    """
    terms = _class_terms(params, dataset, want_grads=True)

    L, J = params.log_amplitudes.shape
    d = params.hyper.d
    m = params.hyper.m
    d_la = np.zeros((L, J))
    d_lb = np.zeros((L, J))
    d_codes = np.zeros((L, d))
    d_map = np.zeros((m, d))
    loss = 0.0
    for k, (term, grads) in enumerate(terms):
        loss += term
        d_la[k], d_lb[k], d_codes[k] = grads[0], grads[1], grads[2]
        d_map += grads[3]
    return float(loss), ModelGrads(
        d_log_amplitudes=d_la,
        d_log_bandwidths=d_lb,
        d_codes=d_codes,
        d_code_map=d_map,
    )
