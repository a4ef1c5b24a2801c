"""Blocked evaluation: series packed into zero-padded blocks must give the
same bound, gradients and posterior as the dense per-series oracles."""

import numpy as np
import pytest

from motioncode.bench import (
    FD_DENOM_FLOOR,
    FD_REL_TOL,
    FD_STEP,
    ORACLE_TOL,
    dense_bound,
    dense_posterior,
)
from motioncode.core import BLOCK_COLUMNS, Collection, TimeSeries, series_blocks
from motioncode.inference import fit_posterior
from motioncode.kernel import KernelParams, kernel_matrix
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
    assert lmax_bound(kp, s, col, SIGMA, jitter=JITTER, grads=True)[0] == got


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocked_gradients_match_finite_differences(name, lengths, m, j):
    kp, s, col = make_case(lengths, m, j, seed=3)
    _, grads = lmax_bound(kp, s, col, SIGMA, jitter=JITTER, grads=True)
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


@pytest.mark.parametrize("name,lengths,m,j", CASES, ids=[c[0] for c in CASES])
def test_blocked_bound_forms_no_inverse(forbid_inverse, name, lengths, m, j):
    kp, s, col = make_case(lengths, m, j, seed=2)
    value = lmax_bound(kp, s, col, SIGMA, jitter=JITTER)
    with_grads = lmax_bound(kp, s, col, SIGMA, jitter=JITTER, grads=True)
    forbid_inverse()
    assert lmax_bound(kp, s, col, SIGMA, jitter=JITTER) == value
    got_value, got_grads = lmax_bound(kp, s, col, SIGMA, jitter=JITTER, grads=True)
    assert got_value == with_grads[0]
    for got, want in zip(got_grads, with_grads[1]):
        assert np.array_equal(got, want)


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
    value, grads = lmax_bound(kp, s, col, SIGMA, jitter=JITTER, grads=True)
    assert np.isfinite(value)
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert lmax_bound(kp, s, col, SIGMA, jitter=JITTER) == value
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
