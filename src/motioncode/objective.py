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

The gradient is taken from the parameters alone; a value pass keeps
nothing for it. It starts as the value pass does, with K_SS's components
and the inverse of its Cholesky factor (_start_pass), and builds each
block's kernel, whitened rows and bordered stack A through the same
helpers (_block_rows, _bordered), so its A_i are the value pass's bit for
bit. It adds one stacked Cholesky of [[E_i, I], [I, (2/c) I]], positive
definite because E_i >= c*I, which yields E_i^{-1} (see _block_grads), and
batched contractions; it does not factor A_i. Training takes a gradient
only at the start point and at accepted trials, where a line search needs
one.

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


def _block_rows(kp: KernelParams, s, whiten, block):
    """A block's kernel against the inducing timestamps and its whitened
    rows: (c_comps, r2, v_rows), the (J, m, G*width) kernel components, the
    (m, G*width) squared distances they were built from and V^T, one row
    per padded point, where whiten is the inverse of K_SS's lower Cholesky
    factor.

    The kernel is built with one column per padded point, series after
    series, which keeps its inner loops long; after whitening the work runs
    on rows, so series i's V_i^T is one contiguous (width, m) slab. Padded
    points are zeroed after whitening, so they drop out of every sum. The
    value pass and the gradient both call this, so the gradient's rows are
    the value's, bit for bit.
    """
    c_comps, r2 = kernel_matrix_components(kp, s, block.times.ravel())
    v_rows = component_sum(c_comps).T @ whiten.T
    if block.n_points < block.times.size:
        v_rows *= block.mask.reshape(-1, 1)
    return c_comps, r2, v_rows


def _bordered(vt, y, c):
    """The (G, m+1, m+1) stack of bordered systems A_i = X_i^T X_i + c*I,
    X_i = [V_i^T, y_i], from a block's whitened rows vt, (G, width, m), and
    values y, (G, width, 1); its smallest eigenvalue is at least c."""
    xt = np.concatenate((vt, y), axis=2)
    return xt.transpose(0, 2, 1) @ xt + c * np.eye(vt.shape[2] + 1)


def _block_value(kp: KernelParams, s, whiten, block, c) -> float:
    """One series block's share of the bound.

    The value needs log|E_i| and w_i E_i^{-1} w_i^T, with E_i = c*I + V_i V_i^T
    and w_i = (V_i y_i)^T. Both come from one stacked Cholesky of

        A_i = [[E_i, w_i^T], [w_i, y_i^T y_i + c]] = X_i^T X_i + c*I,
        X_i = [V_i^T, y_i],

    positive definite because X_i^T X_i is positive semidefinite. Its first
    m pivots are those of E_i, and its last, delta_i, has
    delta_i^2 - c = y_i^T y_i - w_i E_i^{-1} w_i^T, the series' quadratic
    form times c. The border's "+ c" keeps delta_i^2 >= c > 0 even for an
    all-zero series.
    """
    m = s.size
    g, width = block.times.shape
    n_b = block.n_points
    _, _, v_rows = _block_rows(kp, s, whiten, block)
    l_a = _cholesky(_bordered(v_rows.reshape(g, width, m), block.values[:, :, None], c))
    pivots = np.diagonal(l_a, axis1=1, axis2=2)
    quad = float(np.sum(pivots[:, m] * pivots[:, m] - c)) / c
    logdet = (n_b - g * m) * np.log(c) + 2.0 * float(np.sum(np.log(pivots[:, :m])))
    log_lik = -0.5 * (n_b * LOG_2PI + logdet + quad)
    trace_gap = n_b * float(np.sum(kp.amplitudes)) - float(np.vdot(v_rows, v_rows))
    return log_lik - trace_gap / (2.0 * c)


def _paired_template(m, c):
    """[[0, I], [I, (2/c) I]], the constant blocks of every (2m, 2m) system
    _block_grads factors."""
    eye = np.eye(m)
    return np.block([[np.zeros((m, m)), eye], [eye, (2.0 / c) * eye]])


def _block_grads(kp: KernelParams, s, whiten, block, c, template):
    """One block's share of the gradients: (p_dot, d_log_amp, d_log_bw,
    d_timestamps), where p_dot is the block's unsymmetrized adjoint of K_SS.

    The block's kernel components, whitened rows and bordered stack A come
    from _block_rows and _bordered, as in the value pass, so E_i and w_i
    are the value pass's bit for bit.

    The gradients need E_i^{-1} = L_e^{-T} L_e^{-1}, where E_i = L_e L_e^T.
    L_e^{-T} is the lower-left block of the Cholesky factor of
    [[E_i, I], [I, (2/c) I]], which is positive definite: its Schur
    complement (2/c) I - E_i^{-1} is at least I/c, because E_i >= c*I.
    This 2m system is the only factorization the gradient adds; template is
    _paired_template(m, c), copied into every series' system before its E_i
    is written.
    """
    m = s.size
    g, width = block.times.shape
    n_b = block.n_points
    y = block.values[:, :, None]  # (G, width, 1)
    c_comps, d_b, v_rows = _block_rows(kp, s, whiten, block)
    vt = v_rows.reshape(g, width, m)  # V_i^T of every series i
    a = _bordered(vt, y, c)
    w = a[:, m:, :m]  # (V_i y_i)^T, (G, 1, m)
    # adjoint of each series covariance block is rank m+1; contract it
    # without ever forming an n x n matrix. Transposed, series i's
    # cross-covariance adjoint is
    #   V_i^T E_i^{-1} (V_i W_i^T) / c + r_i (r_i^T W_i^T)
    # with W_i = L^{-T} V_i and r_i = (y_i - V_i^T E_i^{-1} V_i y_i) / c
    paired = np.empty((g, 2 * m, 2 * m))
    paired[:] = template
    paired[:, :m, :m] = a[:, :m, :m]
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
    # release the whitened rows before the cross differences are allocated
    del v_rows, vt, w_rows, wt
    amps = kp.amplitudes
    bws = kp.bandwidths
    cdot = np.ascontiguousarray(cdot.T)  # back to columns, like c_comps
    diff_cross = s[:, None] - block.times.ravel()[None, :]
    d_la = np.empty(kp.n_components)
    d_lb = np.empty(kp.n_components)
    d_s = np.zeros(m)
    for j in range(kp.n_components):
        d_la[j] = float(np.vdot(cdot, c_comps[j])) - n_b * amps[j] / (2.0 * c)
        d_lb[j] = -0.5 * bws[j] * float(np.einsum("ap,ap,ap->", cdot, d_b, c_comps[j]))
        d_s -= bws[j] * np.einsum("ap,ap,ap->a", cdot, c_comps[j], diff_cross)
    return p_dot, d_la, d_lb, d_s


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
    d_log_bandwidths, d_timestamps)."""
    s, c, p_comps, d_ss, whiten = _start_pass(kp, inducing, collection, sigma, jitter)
    m = s.size
    n_comp = kp.n_components
    sums = (np.zeros((m, m)), np.zeros(n_comp), np.zeros(n_comp), np.zeros(m))
    template = _paired_template(m, c)
    for block in collection.blocks:
        parts = _block_grads(kp, s, whiten, block, c, template)
        for total, part in zip(sums, parts):
            total += part

    p_dot, d_la, d_lb, d_s = sums
    p_dot = 0.5 * (p_dot + p_dot.T)
    bws = kp.bandwidths
    diff_ss = s[:, None] - s[None, :]
    g_ss = np.zeros((m, m))
    for j in range(n_comp):
        d_la[j] += float(np.sum(p_dot * p_comps[j]))
        d_lb[j] += -0.5 * bws[j] * float(np.sum(p_dot * d_ss * p_comps[j]))
        g_ss -= bws[j] * diff_ss * p_comps[j]
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
    the gradient pass.
    """
    value = _bound_pass(kp, inducing, collection, sigma, jitter)
    if not grads:
        return value
    return value, _bound_gradient(kp, inducing, collection, sigma, jitter)


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
