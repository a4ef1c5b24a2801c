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
nothing for it. It builds each block's X and Gram matrices through the same
_design, so its E_i and w_i are the value pass's bit for bit, and forms the
adjoint of each series' cross-covariance in m-space, as an (m+1) x m matrix
H_i (see _block_grads). Its per-point work past _design's is Z = X H, V Z
for K_SS's adjoint, and one product and three reductions per kernel
component. H_i takes L^{-1} before the per-point product, and 1/c comes
only after the reductions: where the kernel collapses (amplitudes near
1e-100), dividing first pushes X H into the subnormal range, which runs
several times slower. Training takes a gradient only at the start point
and at accepted trials, where a line search needs one.

The training loss sums the negated bounds over classes and adds a ridge
penalty on the per-class codes:

    loss = -sum_k bound_k + lam * sum_k ||z_k||^2

where class k's inducing timestamps are sigmoid(code_map @ z_k). Each class
term is one value pass, the one lmax_bound makes for the dense oracles.

A line search only asks whether a trial's loss clears its Armijo ceiling,
and every block has a floor: its negated value is at least
n_b * log(2*pi*c) / 2 for its n_b points, because log|c*I + Q_i| >= n_i log c,
the quadratic form is >= 0 and so is the trace gap. Given a ceiling,
total_loss keeps a lower bound on the loss while it evaluates: the
penalties, the negated values of the blocks evaluated so far and the floors
of the rest. Once that bound passes the ceiling by more than MARGIN_RTOL
times the magnitude of its terms, the trial is proven to fail; the pass
stops, keeps nothing and returns the bound. A pass that is not stopped
sums the same values in the same order, so it returns the same float as
one without a ceiling.
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
from .kernel import (KernelParams, chol_jittered, class_kernel, component_sum,
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
    """A block's kernel, design matrix and Gram stack: (comps, r2, x, gram).

    comps, (J, m, P), are the kernel components at the block's P padded
    points, zeroed on padded columns, and r2 the squared distances they were
    built from. x = [V^T, y], (P, m+1), where V^T = C^T W^T is whitened by
    whiten = W = L^{-1} straight into x's first m columns; series i's X_i
    is one contiguous (width, m+1) slab. gram stacks each series'
    X_i^T X_i = [[D_i, w_i^T], [w_i, y_i^T y_i]]. The kernel, whitening and
    Gram are a pass's per-point products; the gradient adds Z = X H.
    """
    m = s.size
    g, width = block.times.shape
    comps, r2 = kernel_matrix_components(kp, s, block.times.ravel())
    if block.n_points < block.times.size:
        comps *= block.mask.ravel()
    x = np.empty((g * width, m + 1))
    np.matmul(component_sum(comps).T, whiten.T, out=x[:, :m])
    x[:, m] = block.values.ravel()
    xt = x.reshape(g, width, m + 1)
    return comps, r2, x, xt.transpose(0, 2, 1) @ xt


def _block_value(kp: KernelParams, s, whiten, block, c) -> float:
    """One series block's share of the bound.

    The value needs log|E_i| and w_i E_i^{-1} w_i^T. Both come from one
    stacked Cholesky of A_i = X_i^T X_i + c*I, positive definite because
    X_i^T X_i is positive semidefinite. Its first m pivots are those of
    E_i, and its last, delta_i, has
    delta_i^2 - c = y_i^T y_i - w_i E_i^{-1} w_i^T, the series' quadratic
    form times c. The border's "+ c" keeps delta_i^2 >= c > 0 even for an
    all-zero series. c goes onto the diagonal of _design's Gram stack in
    place, after tr Q_i = tr D_i is read from it, so the pass makes no
    per-point product beyond _design's.
    """
    m = s.size
    g = block.times.shape[0]
    n_b = block.n_points
    _, _, _, a = _design(kp, s, whiten, block)
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

    Z = X H is the one per-point product past _design's. H takes W before
    it and 1/c waits until after the reductions (_bound_gradient), which
    keeps X H out of the subnormal range where the kernel collapses.
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
    comps, r2, x, gram = _design(kp, s, whiten, block)
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


class _ProvenAbove(Exception):
    """Raised with (bound, blocks evaluated) once a trial's loss is proven
    above its ceiling."""


class _Cap:
    """A trial's Armijo ceiling and the running lower bound on its loss:
    known sums the penalties and the negated values of the blocks evaluated
    so far, unseen the floors of the other blocks, and scale the magnitude
    of every term (see MARGIN_RTOL)."""

    def __init__(self, ceiling: float, params: ModelParams, dataset: Dataset, penalties):
        self.ceiling = ceiling
        self.known = sum(penalties)
        self.unseen = 0.0
        self.scale = sum(abs(p) for p in penalties)
        self.evaluated = 0
        for k, col in enumerate(dataset.collections):
            c = effective_noise(col.size, params.hyper.sigma)
            n = sum(block.n_points for block in col.blocks)
            y_sq = sum(float(np.vdot(block.values, block.values)) for block in col.blocks)
            amp_sum = float(np.sum(np.exp(params.log_amplitudes[k])))
            self.unseen += _floor(n, c)
            self.scale += _scale(n, y_sq, amp_sum, c)
        self.check()

    def add(self, block_value: float, floor: float):
        """Count one evaluated block; raises _ProvenAbove once the loss is
        proven above the ceiling."""
        self.known -= block_value
        self.unseen -= floor
        self.scale += abs(block_value)
        self.evaluated += 1
        self.check()

    def check(self):
        bound = self.known + self.unseen
        if bound > self.ceiling + MARGIN_RTOL * self.scale:
            raise _ProvenAbove(bound, self.evaluated)


def _floor(n_points: int, c: float) -> float:
    """Lower bound on the negated value of any n_points of a collection with
    effective noise c."""
    return 0.5 * n_points * float(np.log(2.0 * np.pi * c))


def _scale(n_points: int, y_sq: float, amp_sum: float, c: float) -> float:
    """Magnitude of the terms that make up the negated value of n_points
    whose squared values sum to y_sq, under a kernel whose amplitudes sum
    to amp_sum (see MARGIN_RTOL)."""
    return 0.5 * n_points * (LOG_2PI + abs(float(np.log(c)))) + (n_points * amp_sum + y_sq) / c


def _start_pass(kp: KernelParams, inducing, collection: Collection, sigma: float,
                jitter: float):
    """What every pass over a collection starts from: (s, c, p_comps, d_ss,
    whiten), the checked inducing timestamps, the effective noise, K_SS's
    (J, m, m) components, the squared inducing distances and the inverse
    of K_SS's lower Cholesky factor."""
    s = check_inducing(inducing)
    c = effective_noise(collection.size, sigma)
    p_comps, d_ss = kernel_matrix_components(kp, s)
    factor = chol_jittered(component_sum(p_comps), jitter)
    # whitening through the explicit m x m inverse factor is one matrix
    # product per block; a triangular solve per block cost ten times more
    return s, c, p_comps, d_ss, factor.half_solve(np.eye(s.size))


def _bound_pass(kp: KernelParams, inducing, collection: Collection, sigma: float,
                jitter: float, cap: _Cap | None = None) -> float:
    """The bound's value over one collection. With a cap, each evaluated
    block is counted in it, and the pass raises _ProvenAbove as soon as the
    cap's bound passes its ceiling."""
    s, c, _, _, whiten = _start_pass(kp, inducing, collection, sigma, jitter)
    value = 0.0
    for block in collection.blocks:
        block_value = _block_value(kp, s, whiten, block, c)
        value += block_value
        if cap is not None:
            cap.add(block_value, _floor(block.n_points, c))
    if not np.isfinite(value):
        raise NumericalError("collection bound evaluated to a non-finite value")
    return value


def _bound_gradient(kp: KernelParams, inducing, collection: Collection, sigma: float,
                    jitter: float):
    """Gradients of the bound over one collection: (d_log_amplitudes,
    d_log_bandwidths, d_timestamps). The blocks' shares are divided by c
    once summed; K_SS's adjoint is then -W^T (sum_i V_i Z_i) / (2c)."""
    s, c, p_comps, d_ss, whiten = _start_pass(kp, inducing, collection, sigma, jitter)
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
    return _bound_pass(kp, inducing, collection, sigma, jitter)


def _class_bound(params: ModelParams, dataset: Dataset, k: int):
    """Class k's arguments to _bound_pass and _bound_gradient: (kernel,
    inducing timestamps, collection, sigma, jitter)."""
    h = params.hyper
    return (class_kernel(params, k), params.inducing_timestamps(k),
            dataset.collections[k], h.sigma, h.jitter)


def _penalty(params: ModelParams, k: int) -> float:
    z_k = params.codes[k]
    return params.hyper.lam * float(z_k @ z_k)


def total_loss(params: ModelParams, dataset: Dataset, ceiling: float | None = None) -> float:
    """Training loss: sum of negated collection bounds plus the code penalty.

    With a ceiling, the evaluation stops as soon as a lower bound proves the
    loss above the ceiling (see the module docstring) and returns that
    bound, which is above the ceiling. Otherwise it returns the loss it
    returns without one, bit for bit. Each stop logs one DEBUG line on
    motioncode.objective.
    """
    params.check_classes(dataset)
    penalties = [_penalty(params, k) for k in range(dataset.n_classes)]
    try:
        cap = None if ceiling is None else _Cap(ceiling, params, dataset, penalties)
        values = [_bound_pass(*_class_bound(params, dataset, k), cap)
                  for k in range(dataset.n_classes)]
    except _ProvenAbove as stop:
        bound, evaluated = stop.args
        log.debug("trial stopped after %d of %d blocks: loss at least %.17g, ceiling %.17g",
                  evaluated, sum(len(col.blocks) for col in dataset.collections), bound, ceiling)
        return bound
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
