"""Blocked evaluation: series packed into zero-padded blocks must give the
same bound, gradients and posterior as the dense per-series oracles."""

import math

import numpy as np
import pytest

from motioncode import objective
from motioncode.bench import (
    FD_DENOM_FLOOR,
    FD_REL_TOL,
    FD_STEP,
    ORACLE_TOL,
    dense_bound,
    dense_posterior,
)
from motioncode.core import (BLOCK_COLUMNS, Collection, TimeSeries, effective_noise,
                             series_blocks)
from motioncode.inference import fit_posterior
from motioncode.kernel import KernelParams, kernel_matrix, kernel_matrix_components
from motioncode.objective import lmax_bound

SIGMA = 0.5
JITTER = 1e-10

# (name, series lengths, m, J)
CASES = [
    ("equal-lengths", [9] * 80, 4, 1),
    ("distinct-lengths", list(range(40, 0, -1)), 4, 2),
    ("one-longer-than-a-block", [3, 8, 5] * 17 + [BLOCK_COLUMNS + 88], 5, 1),
    ("one-point-series", [1, 1, 6, 1, 4], 3, 1),
    ("fewer-points-than-inducing", [2, 4, 3, 1, 2, 4], 5, 2),
    ("three-components", [7, 12, 30, 19, 25, 7, 16], 4, 3),
]


def bound_gradient(kp, s, col):
    """The collection bound's gradients, (d_log_amplitudes,
    d_log_bandwidths, d_timestamps), from the pass loss_gradient runs."""
    return objective._bound_gradient(kp, s, col, SIGMA, JITTER)


def make_case(lengths, m, j, seed):
    rng = np.random.default_rng(seed)
    kp = KernelParams(rng.uniform(-0.5, 0.5, j), np.log(rng.uniform(40.0, 150.0, j)))
    for _ in range(500):
        s = np.sort(rng.uniform(0.08, 0.92, m))
        if (m == 1 or np.diff(s).min() > 0.12) and np.linalg.eigvalsh(
                kernel_matrix(kp, s)).min() > 0.05:
            break
    else:
        raise AssertionError("no well-conditioned inducing set found")
    grid = np.linspace(0.02, 0.98, 2000)
    series = []
    for n in lengths:
        t = np.sort(rng.choice(grid, size=n, replace=False))
        series.append(TimeSeries(t, np.sin(2 * np.pi * t) + rng.normal(0.0, 0.5, n)))
    return kp, s, Collection(0, tuple(series))


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocks_cover_every_point_once(name, lengths, m, j):
    _, _, col = make_case(lengths, m, j, seed=1)
    blocks = col.blocks
    widths = [b.times.shape[1] for b in blocks]
    assert widths == sorted(widths, reverse=True)
    rows = []
    for b in blocks:
        g, width = b.times.shape
        counts = b.mask.sum(axis=1)
        # a block takes one more series while its padded size is below
        # BLOCK_COLUMNS, and closes once it is not (or the series run out)
        assert (g - 1) * width < BLOCK_COLUMNS
        assert g * width >= BLOCK_COLUMNS or b is blocks[-1]
        assert b.n_points == counts.sum()
        assert counts.max() == width
        assert np.all(b.times[~b.mask] == 0.0) and np.all(b.values[~b.mask] == 0.0)
        rows += [(b.times[i, :n], b.values[i, :n]) for i, n in enumerate(counts)]
    # longest first; the stable sort keeps equal-length series in input order
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    assert len(rows) == len(order)
    for (t, y), i in zip(rows, order):
        assert np.array_equal(t, col.series[i].timestamps)
        assert np.array_equal(y, col.series[i].values)
    assert len(list(series_blocks(col.series))) == len(blocks)


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocked_bound_matches_dense_oracle(name, lengths, m, j):
    kp, s, col = make_case(lengths, m, j, seed=2)
    got = lmax_bound(kp, s, col, SIGMA, jitter=JITTER)
    want = dense_bound(kp, s, col, SIGMA, JITTER)
    assert abs(got - want) <= ORACLE_TOL


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocked_gradients_match_finite_differences(name, lengths, m, j):
    kp, s, col = make_case(lengths, m, j, seed=3)
    grads = bound_gradient(kp, s, col)
    la, lb = np.array(kp.log_amplitudes), np.array(kp.log_bandwidths)
    x0 = np.concatenate([la, lb, s])
    analytic = np.concatenate(grads)

    def bound_at(x):
        return lmax_bound(KernelParams(x[:j], x[j:2 * j]), x[2 * j:], col, SIGMA,
                          jitter=JITTER)

    for idx in range(x0.size):
        up, dn = x0.copy(), x0.copy()
        up[idx] += FD_STEP
        dn[idx] -= FD_STEP
        fd = (bound_at(up) - bound_at(dn)) / (2.0 * FD_STEP)
        rel = abs(analytic[idx] - fd) / max(abs(fd), FD_DENOM_FLOOR)
        assert rel <= FD_REL_TOL, (idx, analytic[idx], fd)


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocked_posterior_matches_dense_oracle(name, lengths, m, j):
    kp, s, col = make_case(lengths, m, j, seed=4)
    post = fit_posterior(col, kp, s, SIGMA, jitter=JITTER)
    mean, cov = dense_posterior(kp, s, col, SIGMA, JITTER)
    assert np.max(np.abs(post.mean - mean)) <= ORACLE_TOL
    assert np.max(np.abs(post.covariance - cov)) <= ORACLE_TOL


def zero_series_case():
    kp, s, col = make_case([9] * 20 + [5, 1], 4, 1, seed=5)
    series = list(col.series)
    for i in (3, 20, 21):  # one of many, one shorter, one single point
        series[i] = TimeSeries(series[i].timestamps, np.zeros(len(series[i])))
    return kp, s, Collection(0, tuple(series))


def collapsed_case(coincident):
    # the state short-many training reaches after its first step: kernel
    # entries near 1e-100, and with coincident=True every inducing
    # timestamp at 0.5
    _, s, col = make_case(list(range(12, 2, -1)) * 8, 5, 1, seed=6)
    kp = KernelParams(np.array([-231.5]), np.array([np.log(60.0)]))
    if coincident:
        s = np.full(s.size, 0.5)
    return kp, s, col


EDGE_CASES = {
    "zero-valued-series": zero_series_case,
    "collapsed-amplitude": lambda: collapsed_case(False),
    "collapsed-coincident-inducing": lambda: collapsed_case(True),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_bordered_system_edge_cases(name):
    kp, s, col = EDGE_CASES[name]()
    value = lmax_bound(kp, s, col, SIGMA, jitter=JITTER)
    grads = bound_gradient(kp, s, col)
    assert np.isfinite(value)
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert abs(value - dense_bound(kp, s, col, SIGMA, JITTER)) <= ORACLE_TOL
    j = kp.n_components
    x0 = np.concatenate([kp.log_amplitudes, kp.log_bandwidths, s])
    for idx, analytic in enumerate(np.concatenate(grads)):
        bounds = []
        for step in (FD_STEP, -FD_STEP):
            x = x0.copy()
            x[idx] += step
            bounds.append(lmax_bound(KernelParams(x[:j], x[j:2 * j]), x[2 * j:], col,
                                     SIGMA, jitter=JITTER))
        fd = (bounds[0] - bounds[1]) / (2.0 * FD_STEP)
        assert abs(analytic - fd) / max(abs(fd), FD_DENOM_FLOOR) <= FD_REL_TOL, (idx, fd)


def all_cases():
    """Every CASES and EDGE_CASES input, by name: (kp, s, collection)."""
    cases = {name: (lambda c=(lengths, m, j): make_case(*c, seed=2))
             for name, lengths, m, j in CASES}
    return {**cases, **EDGE_CASES}


def dense_gradient(kp, inducing, collection, sigma, jitter):
    """Gradients of the collection bound through full n_i x n_i matrices and
    explicit inverses: (d_log_amplitudes, d_log_bandwidths, d_timestamps).

    Series i's bound depends on Q_i = C_i^T Kt^{-1} C_i, with C_i = K(S, T_i)
    and Kt = K_SS + jitter * I, through G_Q = (alpha alpha^T - Sigma^{-1}) / 2
    + I / (2c), Sigma = c*I + Q_i and alpha = Sigma^{-1} y_i. A parameter
    moving C_i by dC and Kt by dK moves Q_i by
    dC^T Kt^{-1} C_i + C_i^T Kt^{-1} dC - C_i^T Kt^{-1} dK Kt^{-1} C_i and
    the bound by tr(G_Q dQ) - d(tr K_ii) / (2c); the kernel derivatives are
    those in kernel_matrix_components' docstring.
    """
    s = np.asarray(inducing, dtype=float)
    m, j = s.size, kp.n_components
    c = effective_noise(collection.size, sigma)
    amps, bws = kp.amplitudes, kp.bandwidths
    p_comps, d_ss = kernel_matrix_components(kp, s)
    k_inv = np.linalg.inv(p_comps.sum(axis=0) + jitter * np.eye(m))
    diff_ss = s[:, None] - s[None, :]
    d_la, d_lb, d_s = np.zeros(j), np.zeros(j), np.zeros(m)
    for ts in collection.series:
        n = len(ts)
        c_comps, d_cross = kernel_matrix_components(kp, s, ts.timestamps)
        cross = c_comps.sum(axis=0)
        a = k_inv @ cross
        sigma_inv = np.linalg.inv(c * np.eye(n) + cross.T @ a)
        alpha = sigma_inv @ ts.values
        g_q = 0.5 * (np.outer(alpha, alpha) - sigma_inv) + np.eye(n) / (2.0 * c)

        def moved(d_cross_k, d_k):
            d_q = d_cross_k.T @ a + a.T @ d_cross_k - a.T @ d_k @ a
            return float(np.sum(g_q * d_q))

        diff_cross = s[:, None] - ts.timestamps[None, :]
        for q in range(j):
            d_la[q] += moved(c_comps[q], p_comps[q]) - n * amps[q] / (2.0 * c)
            d_lb[q] += moved(-0.5 * bws[q] * d_cross * c_comps[q],
                             -0.5 * bws[q] * d_ss * p_comps[q])
        for b in range(m):
            d_cross_k = np.zeros((m, n))
            d_k = np.zeros((m, m))
            for q in range(j):
                d_cross_k[b] -= bws[q] * diff_cross[b] * c_comps[q, b]
                d_k[b] -= bws[q] * diff_ss[b] * p_comps[q, b]
            d_k[:, b] = d_k[b]
            d_s[b] += moved(d_cross_k, d_k)
    return d_la, d_lb, d_s


@pytest.mark.parametrize("name", list(all_cases()))
def test_blocked_gradients_match_dense_oracle(name):
    kp, s, col = all_cases()[name]()
    grads = bound_gradient(kp, s, col)
    for got, want in zip(grads, dense_gradient(kp, s, col, SIGMA, JITTER)):
        assert np.all(np.abs(got - want) <= ORACLE_TOL * np.maximum(1.0, np.abs(want))), \
            (got, want)


@pytest.mark.parametrize("name", list(all_cases()))
def test_blocked_bound_forms_no_inverse(forbid_inverse, name):
    kp, s, col = all_cases()[name]()
    value = lmax_bound(kp, s, col, SIGMA, jitter=JITTER)
    grads = bound_gradient(kp, s, col)
    forbid_inverse()
    assert lmax_bound(kp, s, col, SIGMA, jitter=JITTER) == value
    for got, want in zip(bound_gradient(kp, s, col), grads):
        assert np.array_equal(got, want)


# (name, series lengths): many short series, a few long ones (some a block
# or more each), and a mix of both
LINEAR_CASES = [
    ("many-short", [8, 9, 10, 11, 12] * 200),
    ("few-long", [1500, 700, 512, 300, 90]),
    ("mixed", list(range(2, 60)) * 6 + [600, 520, 130, 47]),
]


@pytest.mark.parametrize("name,lengths", LINEAR_CASES, ids=[c[0] for c in LINEAR_CASES])
def test_bound_cost_is_linear_in_points(monkeypatch, name, lengths):
    """Counts, not seconds: one lmax_bound call builds m * m kernel entries
    for K_SS and m per padded column, so does one gradient pass, and the packing
    pads at most BLOCK_COLUMNS * ln(longest / shortest) columns in all. (Block b pads
    at most (G_b - 1)(w_b - w_{b+1}) < BLOCK_COLUMNS (1 - w_{b+1} / w_b)
    columns, and the terms sum to below BLOCK_COLUMNS * ln(w_1 / w_last).)"""
    kp, s, col = make_case(lengths, 4, 1, seed=3)
    entries = []
    build = objective.kernel_matrix_components

    def counted(*args, **kwargs):
        comps, r2 = build(*args, **kwargs)
        entries.append(r2.size)
        return comps, r2
    monkeypatch.setattr(objective, "kernel_matrix_components", counted)
    lmax_bound(kp, s, col, SIGMA, JITTER)
    m = s.size
    padded = sum(b.times.size for b in col.blocks)
    assert sum(entries) == m * m + m * padded
    # the gradient pass builds K_SS and each block's kernel once more
    entries.clear()
    bound_gradient(kp, s, col)
    assert sum(entries) == m * m + m * padded
    n = col.n_points()
    assert n <= padded <= n + BLOCK_COLUMNS * math.log(max(lengths) / min(lengths))
