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
BLOCK_COLUMNS points (core.series_blocks). A block has one design matrix
X = [V^T, y], one row per padded point, with V = W C whitened through
W = L^{-1}, the inverse of K_SS's lower Cholesky factor (_design). A value
pass's per-point work is the block's kernel build, the whitening product
and the Gram matrices X_i^T X_i of its series; one stacked Cholesky of

    A_i = X_i^T X_i + c*I = [[E_i, w_i^T], [w_i, y_i^T y_i + c]],
    E_i = c*I + D_i,   D_i = V_i V_i^T,   w_i = (V_i y_i)^T,

positive definite, gives log|E_i| and the series' quadratic form from its
pivots, and the value forms no inverse. Padded columns are zeroed on the
kernel, so they add nothing.

The gradient is taken from the parameters alone; a value pass keeps
nothing for it. It builds each block's X and Gram matrices through the
same _design and _grams, so its E_i and w_i are the value pass's bit for
bit, and forms the adjoint of each series' cross-covariance in m-space, as
an (m+1) x m matrix H_i (see _block_grads). Its per-point work past the
value pass's is Z = X H, V Z for K_SS's adjoint, and one product and three
reductions per kernel component. H_i takes L^{-1} before the per-point
product, and 1/c comes only after the reductions: where the kernel
collapses (amplitudes near 1e-100), dividing first pushes X H into the
subnormal range, which runs several times slower. Training takes a gradient
only at the start point and at accepted trials, where a line search needs
one.

The class posterior (inference.fit_posterior) reads the same design: the
K_SS factor of _start_pass and each block's X^T X, from _design's X. Padded
rows of X are zero, so X^T X sums the block's series' Gram matrices.

The training loss sums the negated bounds over classes and adds a ridge
penalty on the per-class codes:

    loss = -sum_k bound_k + lam * sum_k ||z_k||^2

where class k's inducing timestamps are sigmoid(code_map @ z_k). A value
pass over a collection is a stream of block values (_block_values), which
starts the pass when its first value is asked for. lmax_bound, the entry
point of the dense oracles, sums one stream; total_loss sums the classes'
streams in class order.

A line search only asks whether a trial's loss clears its Armijo ceiling,
and every series has a floor. With A the sum of the amplitudes and
t = tr Q_i, the eigenvalues of Q_i are >= 0 and sum to t, so
log|c*I + Q_i| >= n_i log c + log(1 + t/c) and the quadratic form is at
least y_i^T y_i / (c + t). The series' negated value is then at least

    [n_i log(2*pi*c) + log(1 + t/c) + y_i^T y_i / (c + t)] / 2 + (n_i A - t) / (2c)

which decreases in t, and t <= tr K_i = n_i A, since Q_i is a Nystrom
approximation of K_i. Its value at t = n_i A is the series' floor, and a
block's floor sums its series' floors; each series' n_i and y_i^T y_i are
summed once per collection (core.Collection.block_series). Given a
ceiling, total_loss reads the block values in one loop and keeps a lower
bound on the loss: the penalties, the negated values of the blocks read so
far and the floors of the rest. It checks the bound before the first block
and after each block. Once the bound passes the ceiling by more than
MARGIN_RTOL times the magnitude of its terms, the trial is proven to fail:
the loop returns the bound and asks for no further value, so no later
block, and no later class's K_SS factor, is computed. A loop that is not
stopped sums the same values in the same order, so it returns the same
float as one without a ceiling.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .core import (
    Collection,
    Dataset,
    Hyperparams,
    ModelParams,
    NumericalError,
    check_inducing,
    effective_noise,
    learned_arrays,
    learned_size,
)
from .kernel import (KernelParams, chol_jittered, class_kernel, component_sum, half_solve,
                     kernel_matrix_components)

__all__ = [
    "lmax_bound",
    "total_loss",
    "loss_gradient",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# A pass stops once its lower bound on the loss exceeds the ceiling by this
# much times the magnitude of the bound's terms. The margin covers rounding.
# A pass that runs to the end sums the same block values as the one that
# stopped, so the bound differs from that loss only in the order of its
# additions, which errs by a few eps (2.2e-16) per term times the terms'
# magnitudes, and in a block not yet evaluated coming out below its floor.
# A block value is formed from terms no larger than n_b (log 2*pi + |log c|)
# / 2, n_b sum(amplitudes) / c and y^T y / c; the BLAS and LAPACK work that
# forms it errs by a multiple of (m + 1) eps times those. 1e-6 is about 5e9
# eps, which leaves a factor above 1e4 for the conditioning of K_SS's
# whitening at m up to several hundred, while rejected trials overshoot
# their ceilings by percents.
MARGIN_RTOL = 1e-6

log = logging.getLogger("motioncode.objective")


def _cholesky(a):
    """Stacked lower Cholesky factors of a, whose every matrix is positive
    definite by construction; a LAPACK failure means rounding broke that."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "inner inducing-point system lost positive definiteness"
        ) from exc


def _design(kp: KernelParams, s, whiten, block):
    """A block's kernel and design matrix: (comps, r2, x).

    comps, (J, m, P), are the kernel components at the block's P padded
    points, zeroed on padded columns, and r2 the squared distances they were
    built from. x = [V^T, y], (P, m+1), where V^T = C^T W^T is whitened by
    whiten = W = L^{-1} straight into x's first m columns; series i's X_i
    is one contiguous (width, m+1) slab, and padded rows are zero. The
    kernel, whitening and Gram stack (_grams) are a pass's per-point
    products; the gradient adds Z = X H.
    """
    m = s.size
    g, width = block.times.shape
    comps, r2 = kernel_matrix_components(kp, s, block.times.ravel())
    if block.n_points < block.times.size:
        comps *= block.mask.ravel()
    x = np.empty((g * width, m + 1))
    np.matmul(component_sum(comps).T, whiten.T, out=x[:, :m])
    x[:, m] = block.values.ravel()
    return comps, r2, x


def _grams(x, g):
    """The stack of each series' X_i^T X_i = [[D_i, w_i^T], [w_i, y_i^T y_i]]
    from the design matrix x of a block of g series."""
    xt = x.reshape(g, -1, x.shape[1])
    return xt.transpose(0, 2, 1) @ xt


def _block_value(kp: KernelParams, s, whiten, block, c) -> float:
    """One series block's share of the bound.

    The value needs log|E_i| and w_i E_i^{-1} w_i^T. Both come from one
    stacked Cholesky of A_i = X_i^T X_i + c*I, positive definite because
    X_i^T X_i is positive semidefinite. Its first m pivots are those of
    E_i, and its last, delta_i, has
    delta_i^2 - c = y_i^T y_i - w_i E_i^{-1} w_i^T, the series' quadratic
    form times c. The border's "+ c" keeps delta_i^2 >= c > 0 even for an
    all-zero series. c goes onto the diagonal of the Gram stack in place,
    after tr Q_i = tr D_i is read from it.
    """
    m = s.size
    g = block.times.shape[0]
    n_b = block.n_points
    a = _grams(_design(kp, s, whiten, block)[2], g)
    diagonals = a.reshape(g, -1)[:, ::m + 2]  # a view of every A_i's diagonal
    trace_q = float(diagonals[:, :m].sum())
    diagonals += c
    pivots = _cholesky(a).reshape(g, -1)[:, ::m + 2]
    delta = pivots[:, m]
    quad = (float(delta @ delta) - g * c) / c
    logdet = (n_b - g * m) * math.log(c) + 2.0 * float(np.log(pivots[:, :m]).sum())
    log_lik = -0.5 * (n_b * LOG_2PI + logdet + quad)
    trace_gap = n_b * float(kp.amplitudes.sum()) - trace_q
    return log_lik - trace_gap / (2.0 * c)


def _paired_template(m, c):
    """[[c*I, I], [I, (2/c) I]]: every (2m, 2m) system _block_grads factors
    before its D_i is added to the top-left block."""
    eye = np.eye(m)
    return np.block([[c * eye, eye], [eye, (2.0 / c) * eye]])


def _block_grads(kp: KernelParams, s, whiten, block, template):
    """One block's share of the gradients, times c: (vz, d_log_amp,
    d_log_bw, d_timestamps), where vz = sum_i (V_i Z_i)^T.

    Series i's term moves with C_i through Q_i, whose adjoint is
    G_i = (a a^T - S^{-1}) / 2 + I / (2c), with S = c*I + Q_i and
    a = S^{-1} y_i. By Woodbury G_i = a a^T / 2 + V_i^T E_i^{-1} V_i / (2c)
    and V_i a = beta_i = E_i^{-1} w_i^T, so C_i's adjoint, transposed, is
    2 G_i V_i^T W = X_i H_i / c with

        H_i = [[D_i E_i^{-1} - beta_i beta_i^T], [beta_i^T]] W.

    Z = X H is the one per-point product past the value pass's. H takes W
    before it and 1/c waits until after the reductions (_bound_gradient),
    which keeps X H out of the subnormal range where the kernel collapses.
    E_i^{-1} = L_e^{-T} L_e^{-1}, and L_e^{-T} is the lower-left block of
    the Cholesky factor of [[E_i, I], [I, (2/c) I]] (template plus D_i),
    positive definite because its Schur complement (2/c) I - E_i^{-1} is at
    least I/c. That 2m system is the gradient's only factorization. Each
    kernel component enters through hc = Z^T * C_j, formed in place on
    comps: d C / d log amp_j = C_j, d C / d log bw_j = -bw_j r2 C_j / 2
    and d C[a, p] / d s_a = -bw_j (s_a - t_p) C_j[a, p].
    """
    m = s.size
    g, width = block.times.shape
    comps, r2, x = _design(kp, s, whiten, block)
    gram = _grams(x, g)
    paired = np.empty((g, 2 * m, 2 * m))
    paired[:] = template
    paired[:, :m, :m] += gram[:, :m, :m]
    l_inv_t = _cholesky(paired)[:, m:, :m]  # L_e^{-T}
    e_inv = l_inv_t @ l_inv_t.transpose(0, 2, 1)
    # freed before H and Z exist, a lower per-block peak keeps the heap
    # from being trimmed and faulted in again block after block
    del paired, l_inv_t
    h = gram[:, :, :m] @ e_inv  # [[D_i E_i^{-1}], [beta_i^T]]
    h[:, :m] -= h[:, m:].transpose(0, 2, 1) * h[:, m:]
    h = (h.reshape(-1, m) @ whiten).reshape(g, m + 1, m)
    zt = np.empty((m, g * width))  # Z^T, in comps' column layout
    np.matmul(h.transpose(0, 2, 1), x.reshape(g, width, m + 1).transpose(0, 2, 1),
              out=zt.reshape(m, g, width).transpose(1, 0, 2))
    t = block.times.ravel()
    bws = kp.bandwidths
    d_la = np.empty(kp.n_components)
    d_lb = np.empty(kp.n_components)
    d_s = np.zeros(m)
    for j in range(kp.n_components):
        hc = comps[j]
        hc *= zt
        row_sums = np.sum(hc, axis=1)
        d_la[j] = float(row_sums.sum())
        d_lb[j] = -0.5 * bws[j] * float(np.vdot(hc, r2))
        d_s -= bws[j] * (s * row_sums - hc @ t)
    return zt @ x[:, :m], d_la, d_lb, d_s


def _floors(counts, y_sq, amp_sum: float, c: float):
    """Lower bounds on the negated values of series of counts points whose
    squared values sum to y_sq, under a kernel whose amplitudes sum to
    amp_sum, with effective noise c (see the module docstring)."""
    n_amp = counts * amp_sum  # n_i A, the most tr Q_i can be
    return 0.5 * (counts * np.log(2.0 * np.pi * c) + np.log1p(n_amp / c) + y_sq / (c + n_amp))


def _scale(n_points: int, y_sq: float, amp_sum: float, c: float) -> float:
    """Magnitude of the terms that make up the negated value of n_points
    whose squared values sum to y_sq, under a kernel whose amplitudes sum
    to amp_sum (see MARGIN_RTOL)."""
    return 0.5 * n_points * (LOG_2PI + abs(float(np.log(c)))) + (n_points * amp_sum + y_sq) / c


def _start_pass(kp: KernelParams, inducing, collection: Collection, sigma: float,
                jitter: float):
    """What every pass over a collection starts from: (s, c, p_comps, d_ss,
    lower, whiten), the checked inducing timestamps, the effective noise,
    K_SS's (J, m, m) components, the squared inducing distances, the lower
    Cholesky factor L of K_SS + jitter * I (jitter escalated as needed) and
    its inverse W = L^{-1}."""
    s = check_inducing(inducing)
    c = effective_noise(collection.size, sigma)
    p_comps, d_ss = kernel_matrix_components(kp, s)
    factor = chol_jittered(component_sum(p_comps), jitter)
    # whitening through the explicit m x m inverse factor is one matrix
    # product per block; a triangular solve per block cost ten times more
    return s, c, p_comps, d_ss, factor.lower, half_solve(factor.lower, np.eye(s.size))


def _block_values(kp: KernelParams, inducing, collection: Collection, sigma: float,
                  jitter: float):
    """The bound's value over one collection as a stream: each block's
    share, in the order of collection.blocks. The pass starts (_start_pass)
    when the first value is asked for."""
    s, c, _, _, _, whiten = _start_pass(kp, inducing, collection, sigma, jitter)
    for block in collection.blocks:
        yield _block_value(kp, s, whiten, block, c)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NumericalError("collection bound evaluated to a non-finite value")
    return value


def _bound_gradient(kp: KernelParams, inducing, collection: Collection, sigma: float,
                    jitter: float):
    """Gradients of the bound over one collection: (d_log_amplitudes,
    d_log_bandwidths, d_timestamps). The blocks' shares are divided by c
    once summed; K_SS's adjoint is then -W^T (sum_i V_i Z_i) / (2c)."""
    s, c, p_comps, d_ss, _, whiten = _start_pass(kp, inducing, collection, sigma, jitter)
    m = s.size
    n_comp = kp.n_components
    sums = (np.zeros((m, m)), np.zeros(n_comp), np.zeros(n_comp), np.zeros(m))
    template = _paired_template(m, c)
    for block in collection.blocks:
        parts = _block_grads(kp, s, whiten, block, template)
        for total, part in zip(sums, parts):
            total += part

    vz, d_la, d_lb, d_s = (total / c for total in sums)
    p_dot = -0.5 * (vz @ whiten)
    p_dot = 0.5 * (p_dot + p_dot.T)
    amps, bws = kp.amplitudes, kp.bandwidths
    n = collection.n_points()
    diff_ss = s[:, None] - s[None, :]
    g_ss = np.zeros((m, m))
    for j in range(n_comp):
        d_la[j] += float(np.sum(p_dot * p_comps[j])) - n * amps[j] / (2.0 * c)
        d_lb[j] += -0.5 * bws[j] * float(np.sum(p_dot * d_ss * p_comps[j]))
        g_ss -= bws[j] * diff_ss * p_comps[j]
    d_s += 2.0 * np.sum(p_dot * g_ss, axis=1)
    return d_la, d_lb, d_s


def lmax_bound(kp: KernelParams, inducing, collection: Collection,
               sigma: float, jitter: float = Hyperparams.jitter) -> float:
    """Evidence lower bound of one collection at the given inducing
    timestamps, with c = effective_noise(number of series, sigma) the
    effective per-point noise variance. Cost is O(m^2 * N) for N total
    observations.
    """
    value = 0.0
    for block_value in _block_values(kp, inducing, collection, sigma, jitter):
        value += block_value
    return _finite(value)


def _class_bound(params: ModelParams, dataset: Dataset, k: int):
    """Class k's arguments to _block_values and _bound_gradient: (kernel,
    inducing timestamps, collection, sigma, jitter)."""
    h = params.hyper
    return (class_kernel(params, k), params.inducing_timestamps(k),
            dataset.collections[k], h.sigma, h.jitter)


def _penalty(params: ModelParams, k: int) -> float:
    z_k = params.codes[k]
    return params.hyper.lam * float(z_k @ z_k)


def _stopped(bound: float, evaluated: int, n_blocks: int, ceiling: float) -> float:
    """Log a trial stopped after evaluated of n_blocks blocks; returns its bound."""
    log.debug("trial stopped after %d of %d blocks: loss at least %.17g, ceiling %.17g",
              evaluated, n_blocks, bound, ceiling)
    return bound


def total_loss(params: ModelParams, dataset: Dataset, ceiling: float | None = None) -> float:
    """Training loss: sum of negated collection bounds plus the code penalty.

    With a ceiling, the evaluation stops as soon as a lower bound proves the
    loss above the ceiling (see the module docstring) and returns that
    bound, which is above the ceiling. Otherwise it returns the loss it
    returns without one, bit for bit. Each stop logs one DEBUG line on
    motioncode.objective.
    """
    params.check_classes(dataset)
    n = dataset.n_classes
    penalties = [_penalty(params, k) for k in range(n)]
    if ceiling is None:
        return float(sum(-lmax_bound(*_class_bound(params, dataset, k)) + penalties[k]
                         for k in range(n)))
    # the lower bound on the loss is known + unseen: known sums the
    # penalties and the negated values of the blocks evaluated so far, and
    # unseen the floors of the rest, which floors holds in evaluation
    # order; scale is the magnitude of every term (see MARGIN_RTOL)
    known = sum(penalties)
    scale = sum(abs(p) for p in penalties)
    floors = []
    for k, col in enumerate(dataset.collections):
        c = effective_noise(col.size, params.hyper.sigma)
        amp_sum = float(np.sum(np.exp(params.log_amplitudes[k])))
        counts, y_sq, starts = col.block_series
        floors.append(np.add.reduceat(_floors(counts, y_sq, amp_sum, c), starts))
        scale += _scale(int(counts.sum()), float(y_sq.sum()), amp_sum, c)
    floors = np.concatenate(floors)
    unseen = float(floors.sum())
    if known + unseen > ceiling + MARGIN_RTOL * scale:
        return _stopped(known + unseen, 0, floors.size, ceiling)
    evaluated = 0
    values = []
    for k in range(n):
        value = 0.0
        for block_value in _block_values(*_class_bound(params, dataset, k)):
            value += block_value
            known -= block_value
            unseen -= float(floors[evaluated])
            scale += abs(block_value)
            evaluated += 1
            if known + unseen > ceiling + MARGIN_RTOL * scale:
                return _stopped(known + unseen, evaluated, floors.size, ceiling)
        values.append(_finite(value))
    return float(sum(-value + penalties[k] for k, value in enumerate(values)))


def loss_gradient(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Gradient of total_loss w.r.t. every learnable parameter, one flat
    vector in the layout of core.learned_arrays, taken from the parameters
    and the dataset alone. The reduction always runs in class order."""
    params.check_classes(dataset)
    L = params.n_classes
    grad = np.zeros(learned_size(L, params.hyper))
    d_la, d_lb, d_codes, d_map = learned_arrays(grad, L, params.hyper)
    for k in range(L):
        kp, s, collection, sigma, jitter = _class_bound(params, dataset, k)
        d_la_k, d_lb_k, d_s = _bound_gradient(kp, s, collection, sigma, jitter)
        z_k = params.codes[k]
        gate = d_s * s * (1.0 - s)  # chain through the sigmoid
        d_la[k], d_lb[k] = -d_la_k, -d_lb_k
        d_codes[k] = -(params.code_map.T @ gate) + 2.0 * params.hyper.lam * z_k
        d_map += -np.outer(gate, z_k)
    return grad
