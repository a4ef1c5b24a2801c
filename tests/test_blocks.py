"""Blocked evaluation: series packed into zero-padded blocks must give the
same bound, gradients and posterior as the dense per-series oracles."""

import math

import numpy as np
import pytest

from motioncode import bench, inference, objective
from motioncode.bench import FD_REL_TOL, ORACLE_TOL, dense_bound, dense_gradient, dense_posterior
from motioncode.core import BLOCK_COLUMNS, Collection, TimeSeries, series_blocks
from motioncode.inference import fit_posterior
from motioncode.kernel import KernelParams
from motioncode.objective import MARGIN_RTOL, lmax_bound

SIGMA = 0.5
JITTER = 1e-10

# (name, series lengths, m, J); equal-lengths fills two blocks at any width
CASES = [
    ("equal-lengths", [9] * (80 * BLOCK_COLUMNS // 512), 4, 1),
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


def assert_gradients_match_finite_differences(kp, s, col):
    """The bound's gradients against central differences of the bound in
    x = [log amplitudes, log bandwidths, inducing timestamps]."""
    j = kp.n_components

    def bound_at(x):
        return lmax_bound(KernelParams(x[:j], x[j:2 * j]), x[2 * j:], col, SIGMA,
                          jitter=JITTER)

    x0 = np.concatenate([kp.log_amplitudes, kp.log_bandwidths, s])
    analytic = np.concatenate(bound_gradient(kp, s, col))
    errors = bench._fd_rel_errors(bound_at, x0, analytic)
    assert np.all(errors <= FD_REL_TOL), (errors, analytic)


def make_case(lengths, m, j, seed):
    rng = np.random.default_rng(seed)
    kp = bench._sharp_params(rng, j)
    s = bench._spread_inducing(rng, kp, m)
    series = []
    for n in lengths:
        t = bench._spaced(rng, n, grid=2000)
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
    assert_gradients_match_finite_differences(*make_case(lengths, m, j, seed=3))


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
    assert_gradients_match_finite_differences(kp, s, col)


def all_cases():
    """Every CASES and EDGE_CASES input, by name: (kp, s, collection)."""
    cases = {name: (lambda c=(lengths, m, j): make_case(*c, seed=2))
             for name, lengths, m, j in CASES}
    return {**cases, **EDGE_CASES}


@pytest.mark.parametrize("name", list(all_cases()))
def test_blocked_gradients_match_dense_oracle(name):
    kp, s, col = all_cases()[name]()
    grads = bound_gradient(kp, s, col)
    for got, want in zip(grads, dense_gradient(kp, s, col, SIGMA, JITTER)):
        assert np.all(np.abs(got - want) <= ORACLE_TOL * np.maximum(1.0, np.abs(want))), \
            (got, want)


@pytest.mark.parametrize("name", list(all_cases()))
def test_blocked_posterior_matches_dense_oracle(name):
    kp, s, col = all_cases()[name]()
    post = fit_posterior(col, kp, s, SIGMA, jitter=JITTER)
    mean, cov = dense_posterior(kp, s, col, SIGMA, JITTER)
    assert np.max(np.abs(post.mean - mean)) <= ORACLE_TOL
    assert np.max(np.abs(post.covariance - cov)) <= ORACLE_TOL


@pytest.mark.parametrize("name", list(all_cases()))
def test_blocked_bound_forms_no_inverse(forbid_inverse, name):
    kp, s, col = all_cases()[name]()
    value = lmax_bound(kp, s, col, SIGMA, jitter=JITTER)
    grads = bound_gradient(kp, s, col)
    forbid_inverse()
    assert lmax_bound(kp, s, col, SIGMA, jitter=JITTER) == value
    for got, want in zip(bound_gradient(kp, s, col), grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", list(all_cases()))
def test_every_block_clears_its_series_floors(name):
    """Each block's negated value is at least the sum of its series' floors,
    the bound a stopped line-search trial counts for the blocks it skips, to
    within the margin a stopped trial allows."""
    kp, s, col = all_cases()[name]()
    s, c, _, _, _, whiten = objective._start_pass(kp, s, col, SIGMA, JITTER)
    amp_sum = float(np.sum(kp.amplitudes))
    counts, y_sq, starts = col.block_series
    floors = np.add.reduceat(objective._floors(counts, y_sq, amp_sum, c), starts)
    assert floors.size == len(col.blocks)
    for block, floor in zip(col.blocks, floors):
        value = objective._block_value(kp, s, whiten, block, c)
        y_sq_b = float(np.vdot(block.values, block.values))
        margin = MARGIN_RTOL * objective._scale(block.n_points, y_sq_b, amp_sum, c)
        assert -value >= floor - margin


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
    for K_SS and m per padded column, so do one gradient pass and one
    posterior fit, and the packing pads at most BLOCK_COLUMNS *
    ln(longest / shortest) columns in all. (Block b pads at most
    (G_b - 1)(w_b - w_{b+1}) < BLOCK_COLUMNS (1 - w_{b+1} / w_b) columns,
    and the terms sum to below BLOCK_COLUMNS * ln(w_1 / w_last).)"""
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
    # the fit reads the bound's design: the same builds, and K_SS is the one
    # matrix it factors with jitter, all through the objective
    entries.clear()
    factored = []
    chol = objective.chol_jittered
    monkeypatch.setattr(objective, "chol_jittered",
                        lambda a, jitter: factored.append(a.shape) or chol(a, jitter))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the fit must build and factor through the objective")
    for attr in ("kernel_matrix", "chol_jittered"):
        monkeypatch.setattr(inference, attr, forbidden)
    fit_posterior(col, kp, s, SIGMA, JITTER)
    assert sum(entries) == m * m + m * padded
    assert factored == [(m, m)]
    n = col.n_points()
    assert n <= padded <= n + BLOCK_COLUMNS * math.log(max(lengths) / min(lengths))
