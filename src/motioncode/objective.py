"""
objective.py - training objective for jointly fitted collection models.

Each labeled collection gets a sparse process model anchored at m inducing
("most informative") timestamps. The per-collection evidence bound is the
tightest lower bound on the collection log-likelihood over all variational
distributions at those timestamps; the variational distribution is maximized
out analytically, leaving a closed form. With B series in the collection and
noise scale sigma, the effective noise variance is c = B * sigma**2, from
core.effective_noise, and the bound decomposes over series:

    bound = sum_i [ log N(y_i | 0, c*I + Q_i) - (tr K_i - tr Q_i) / (2c) ]
    Q_i   = C_i^T K_SS^{-1} C_i,   C_i = K(S, T_i)

Every series term is evaluated through an m x m inner system, so one pass
costs O(m^2 * N) time for N total points, never O(N^2).

Series are not visited one at a time. Each collection is packed once into
blocks of similar-length series, zero-padded to a common width of about
BLOCK_COLUMNS points (core.series_blocks). A block costs one kernel build,
one whitening product with the inverse of the K_SS Cholesky factor and one
stacked Cholesky of the per-series bordered systems

    A_i = [[E_i, V_i y_i], [y_i^T V_i^T, y_i^T y_i + c]],   E_i = c*I + V_i V_i^T.

Each A_i is the Gram matrix of [V_i^T, y_i] plus c*I, so positive definite;
its pivots give log|E_i| and the series' quadratic form, and the value forms
no inverse. Padded points are zeroed after whitening, so they add nothing.

The gradient is taken from a value pass: the pass keeps each block's kernel
components, whitened rows and bordered stack, plus the collection's K_SS
components and whitening factor, and the gradient reads them instead of
building them again. It adds one stacked Cholesky of
[[E_i, I], [I, (2/c) I]], positive definite because E_i >= c*I, which
yields E_i^{-1} (see _block_grads), and batched contractions. Training keeps
the pass of each trial point, so an accepted point's kernel, whitening and
bordered factor are computed once.

The training loss sums the negated bounds over classes and adds a ridge
penalty on the per-class codes:

    loss = -sum_k bound_k + lam * sum_k ||z_k||^2

where class k's inducing timestamps are sigmoid(code_map @ z_k). Each class
term is one value pass, the one lmax_bound makes for the dense oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Collection,
    Dataset,
    Hyperparams,
    ModelParams,
    NumericalError,
    ValidationError,
    effective_noise,
)
from .kernel import KernelParams, chol_jittered, class_kernel, kernel_matrix_components

__all__ = [
    "ModelGrads",
    "lmax_bound",
    "total_loss",
    "loss_gradient",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ModelGrads:
    """Training-loss gradients, shapes mirroring ModelParams."""

    d_log_amplitudes: np.ndarray  # (L, J)
    d_log_bandwidths: np.ndarray  # (L, J)
    d_codes: np.ndarray  # (L, d)
    d_code_map: np.ndarray  # (m, d)


def _cholesky(a):
    """Stacked lower Cholesky factors of a, whose every matrix is positive
    definite by construction; a LAPACK failure means rounding broke that."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "inner inducing-point system lost positive definiteness"
        ) from exc


def _block_value(kp: KernelParams, s, whiten, block, c):
    """One series block's share of the bound, and the arrays its gradient
    reads: (value, [c_comps, v_rows, a]), where whiten is the inverse of
    K_SS's lower Cholesky factor.

    The kernel is built with one column per padded point, series after
    series, which keeps its inner loops long; after whitening the work runs
    on rows, so series i's V_i^T is one contiguous (width, m) slab. Padded
    points are zeroed after whitening, so they drop out of every sum.

    The value needs log|E_i| and w_i E_i^{-1} w_i^T, with E_i = c*I + V_i V_i^T
    and w_i = (V_i y_i)^T. Both come from one stacked Cholesky of

        A_i = [[E_i, w_i^T], [w_i, y_i^T y_i + c]] = X_i^T X_i + c*I,
        X_i = [V_i^T, y_i],

    positive definite because X_i^T X_i is positive semidefinite. Its first
    m pivots are those of E_i, and its last, delta_i, has
    delta_i^2 - c = y_i^T y_i - w_i E_i^{-1} w_i^T, the series' quadratic
    form times c. The border's "+ c" keeps delta_i^2 >= c > 0 even for an
    all-zero series. Gradients are taken from this pass (_block_grads), so
    the value is computed the same way whether or not they are wanted.
    """
    m = s.size
    g, width = block.times.shape
    n_b = block.n_points
    y = block.values[:, :, None]  # (G, width, 1)
    c_comps, _ = kernel_matrix_components(kp, s, block.times.ravel())  # (J, m, G*width)
    v_rows = c_comps.sum(axis=0).T @ whiten.T  # V^T, one row per point
    if n_b < g * width:
        v_rows *= block.mask.reshape(-1, 1)
    vt = v_rows.reshape(g, width, m)  # V_i^T of every series i
    xt = np.concatenate((vt, y), axis=2)  # X_i = [V_i^T, y_i]
    a = xt.transpose(0, 2, 1) @ xt + c * np.eye(m + 1)  # min eigenvalue >= c
    l_a = _cholesky(a)
    pivots = np.diagonal(l_a, axis1=1, axis2=2)
    quad = float(np.sum(pivots[:, m] * pivots[:, m] - c)) / c
    logdet = (n_b - g * m) * np.log(c) + 2.0 * float(np.sum(np.log(pivots[:, :m])))
    log_lik = -0.5 * (n_b * LOG_2PI + logdet + quad)
    trace_gap = n_b * float(np.sum(kp.amplitudes)) - float(np.vdot(v_rows, v_rows))
    return log_lik - trace_gap / (2.0 * c), [c_comps, v_rows, a]


def _block_grads(kp: KernelParams, s, whiten, block, c, kept):
    """One block's share of the gradients, from the arrays its value pass
    kept: (p_dot, d_log_amp, d_log_bw, d_timestamps), where p_dot is the
    block's unsymmetrized adjoint of K_SS. kept is emptied on entry, so each
    array is freed as soon as this function is done with it.

    The gradients need E_i^{-1} = L_e^{-T} L_e^{-1}, where E_i = L_e L_e^T.
    L_e^{-T} is the lower-left block of the Cholesky factor of
    [[E_i, I], [I, (2/c) I]], which is positive definite: its Schur
    complement (2/c) I - E_i^{-1} is at least I/c, because E_i >= c*I.
    This 2m system is the only factorization the gradient adds.
    """
    c_comps, v_rows, a = kept
    kept.clear()
    m = s.size
    g, width = block.times.shape
    n_b = block.n_points
    t_flat = block.times.ravel()
    y = block.values[:, :, None]  # (G, width, 1)
    vt = v_rows.reshape(g, width, m)  # V_i^T of every series i
    w = a[:, m:, :m]  # (V_i y_i)^T, (G, 1, m)
    # adjoint of each series covariance block is rank m+1; contract it
    # without ever forming an n x n matrix. Transposed, series i's
    # cross-covariance adjoint is
    #   V_i^T E_i^{-1} (V_i W_i^T) / c + r_i (r_i^T W_i^T)
    # with W_i = L^{-T} V_i and r_i = (y_i - V_i^T E_i^{-1} V_i y_i) / c
    eye = np.eye(m)
    paired = np.empty((g, 2 * m, 2 * m))
    paired[:, :m, :m] = a[:, :m, :m]
    paired[:, m:, :m] = paired[:, :m, m:] = eye
    paired[:, m:, m:] = (2.0 / c) * eye
    l_inv_t = _cholesky(paired)[:, m:, :m]  # L_e^{-T}
    e_inv = l_inv_t @ l_inv_t.transpose(0, 2, 1)
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
    d_b = diff_cross * diff_cross  # the squared distances the kernel was built from
    d_la = np.empty(kp.n_components)
    d_lb = np.empty(kp.n_components)
    d_s = np.zeros(m)
    for j in range(kp.n_components):
        d_la[j] = float(np.vdot(cdot, c_comps[j])) - n_b * amps[j] / (2.0 * c)
        d_lb[j] = -0.5 * bws[j] * float(np.einsum("ap,ap,ap->", cdot, d_b, c_comps[j]))
        d_s -= bws[j] * np.einsum("ap,ap,ap->a", cdot, c_comps[j], diff_cross)
    return p_dot, d_la, d_lb, d_s


@dataclass
class _BoundPass:
    """One collection's value pass: the bound, and what its gradient reads.

    blocks holds one [c_comps, v_rows, a] list per block of the collection,
    in block order, when the pass was kept; _bound_gradient empties it."""

    value: float
    kp: KernelParams
    s: np.ndarray
    c: float
    collection: Collection
    p_comps: np.ndarray  # K_SS components, (J, m, m)
    d_ss: np.ndarray  # squared inducing distances, (m, m)
    whiten: np.ndarray  # inverse of K_SS's lower Cholesky factor
    blocks: list


def _bound_pass(kp: KernelParams, inducing, collection: Collection, sigma: float,
                jitter: float, keep: bool) -> _BoundPass:
    """The bound's value pass over one collection; with keep=True it keeps
    every block's arrays for _bound_gradient."""
    s = np.asarray(inducing, dtype=float).ravel()
    if s.size < 1 or not np.all(np.isfinite(s)):
        raise ValidationError("inducing timestamps must be a non-empty finite array")
    if s.min() < 0.0 or s.max() > 1.0:
        raise ValidationError(
            f"inducing timestamps must lie in [0, 1], got range [{s.min()}, {s.max()}]"
        )
    c = effective_noise(collection.size, sigma)
    m = s.size
    p_comps, d_ss = kernel_matrix_components(kp, s)
    factor = chol_jittered(p_comps.sum(axis=0), jitter)
    # whitening through the explicit m x m inverse factor is one matrix
    # product per block; a triangular solve per block cost ten times more
    whiten = factor.half_solve(np.eye(m))
    value = 0.0
    kept = []
    for block in collection.blocks:
        block_value, arrays = _block_value(kp, s, whiten, block, c)
        value += block_value
        if keep:
            kept.append(arrays)
    if not np.isfinite(value):
        raise NumericalError("collection bound evaluated to a non-finite value")
    return _BoundPass(value, kp, s, c, collection, p_comps, d_ss, whiten, kept)


def _bound_gradient(bp: _BoundPass):
    """Gradients of a kept pass's bound: (d_log_amplitudes,
    d_log_bandwidths, d_timestamps). Builds no kernel matrix and factors no
    K_SS; consumes the pass's block arrays as it goes."""
    if len(bp.blocks) != len(bp.collection.blocks):
        raise ValueError("the value pass was not kept, or its gradient was already taken")
    kp, s = bp.kp, bp.s
    m = s.size
    n_comp = kp.n_components
    sums = (np.zeros((m, m)), np.zeros(n_comp), np.zeros(n_comp), np.zeros(m))
    for block, kept in zip(bp.collection.blocks, bp.blocks):
        for total, part in zip(sums, _block_grads(kp, s, bp.whiten, block, bp.c, kept)):
            total += part
    bp.blocks.clear()

    p_dot, d_la, d_lb, d_s = sums
    p_dot = 0.5 * (p_dot + p_dot.T)
    bws = kp.bandwidths
    diff_ss = s[:, None] - s[None, :]
    g_ss = np.zeros((m, m))
    for j in range(n_comp):
        d_la[j] += float(np.sum(p_dot * bp.p_comps[j]))
        d_lb[j] += -0.5 * bws[j] * float(np.sum(p_dot * bp.d_ss * bp.p_comps[j]))
        g_ss -= bws[j] * diff_ss * bp.p_comps[j]
    d_s += 2.0 * np.sum(p_dot * g_ss, axis=1)
    return d_la, d_lb, d_s


def lmax_bound(kp: KernelParams, inducing, collection: Collection,
               sigma: float, jitter: float = Hyperparams.jitter, grads: bool = False):
    """Evidence lower bound of one collection at the given inducing timestamps.

    c = effective_noise(number of series, sigma) is the effective per-point
    noise variance. Cost is O(m^2 * N) for N total observations, with or without
    gradients. Returns the value, or with grads=True the pair
    (value, (d_log_amplitudes, d_log_bandwidths, d_timestamps)): analytic
    gradients w.r.t. the log-kernel parameters, each (J,), and the inducing
    timestamps, (m,). With grads=True this is the value pass followed by
    the gradient taken from that pass.
    """
    bp = _bound_pass(kp, inducing, collection, sigma, jitter, keep=grads)
    if not grads:
        return bp.value
    return bp.value, _bound_gradient(bp)


def _class_pass(params: ModelParams, dataset: Dataset, k: int, keep: bool) -> _BoundPass:
    h = params.hyper
    return _bound_pass(class_kernel(params, k), params.inducing_timestamps(k),
                       dataset.collections[k], h.sigma, h.jitter, keep)


def _penalty(params: ModelParams, k: int) -> float:
    z_k = params.codes[k]
    return params.hyper.lam * float(z_k @ z_k)


def total_loss(params: ModelParams, dataset: Dataset, keep: bool = False):
    """Training loss: sum of negated collection bounds plus the code penalty.

    With keep=True returns (loss, passes): one value pass per class, in class
    order, holding what loss_gradient needs to take the gradient at these
    same params without building any kernel matrix again.
    """
    params.check_classes(dataset)
    passes = [_class_pass(params, dataset, k, keep) for k in range(dataset.n_classes)]
    loss = float(sum(-bp.value + _penalty(params, k) for k, bp in enumerate(passes)))
    return (loss, passes) if keep else loss


def loss_gradient(params: ModelParams, dataset: Dataset, passes=None):
    """Training loss and its gradients w.r.t. every learnable parameter.

    Returns (loss, ModelGrads). The reduction always runs in class order.
    passes, when given, are the value passes that total_loss(params, dataset,
    keep=True) returned at these same params; the gradient is then taken
    from them, and consumes them. Without them each class's pass is built
    here, just before its gradient.
    """
    params.check_classes(dataset)
    if passes is not None and len(passes) != dataset.n_classes:
        raise ValueError(f"need one value pass per class, got {len(passes)}")
    L, J = params.log_amplitudes.shape
    d = params.hyper.d
    m = params.hyper.m
    d_la = np.zeros((L, J))
    d_lb = np.zeros((L, J))
    d_codes = np.zeros((L, d))
    d_map = np.zeros((m, d))
    loss = 0.0
    for k in range(L):
        if passes is None:
            bp = _class_pass(params, dataset, k, keep=True)
        else:
            bp = passes[k]
            s_k = params.inducing_timestamps(k)
            if not (bp.collection is dataset.collections[k] and np.array_equal(bp.s, s_k)
                    and np.array_equal(bp.kp.log_amplitudes, params.log_amplitudes[k])
                    and np.array_equal(bp.kp.log_bandwidths, params.log_bandwidths[k])):
                raise ValueError(f"class {k}'s value pass was built at other params")
        d_la_k, d_lb_k, d_s = _bound_gradient(bp)
        z_k = params.codes[k]
        gate = d_s * bp.s * (1.0 - bp.s)  # chain through the sigmoid
        loss += -bp.value + _penalty(params, k)
        d_la[k], d_lb[k] = -d_la_k, -d_lb_k
        d_codes[k] = -(params.code_map.T @ gate) + 2.0 * params.hyper.lam * z_k
        d_map += -np.outer(gate, z_k)
    return float(loss), ModelGrads(
        d_log_amplitudes=d_la,
        d_log_bandwidths=d_lb,
        d_codes=d_codes,
        d_code_map=d_map,
    )
