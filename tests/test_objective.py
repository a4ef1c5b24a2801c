import dataclasses
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motioncode import objective
from motioncode.core import (
    LEARNED_FIELDS,
    Collection,
    Dataset,
    Hyperparams,
    ModelParams,
    MotionCodeError,
    NumericalError,
    TimeSeries,
    ValidationError,
    code_to_timestamps,
    effective_noise,
    learned_arrays,
)
from motioncode.kernel import KernelParams, kernel_matrix
from motioncode.objective import MARGIN_RTOL, lmax_bound, loss_gradient, total_loss

LOG_2PI = np.log(2.0 * np.pi)


def spaced(rng, n, lo=0.0, hi=1.0, grid=400):
    """Strictly increasing timestamps with a guaranteed minimum gap."""
    pts = np.linspace(lo, hi, grid)
    return np.sort(rng.choice(pts, size=n, replace=False))


def make_collection(rng, label=0, n_series=2, n_lo=4, n_hi=8):
    series = []
    for _ in range(n_series):
        n = int(rng.integers(n_lo, n_hi + 1))
        t = spaced(rng, n)
        y = rng.normal(size=n)
        series.append(TimeSeries(t, y))
    return Collection(label, tuple(series))


def well_conditioned_inducing(rng, kp, m, min_eig=0.05):
    for _ in range(200):
        s = np.sort(rng.uniform(0.05, 0.95, m))
        if m == 1 or np.diff(s).min() > 0.12:
            k_ss = kernel_matrix(kp, s)
            if np.linalg.eigvalsh(k_ss).min() > min_eig:
                return s
    raise AssertionError("could not draw a well-conditioned inducing set")


def sharp_params(rng, j):
    # large bandwidths keep inducing covariance matrices well conditioned
    return KernelParams(
        rng.uniform(-0.5, 0.5, j),
        rng.uniform(np.log(40.0), np.log(150.0), j),
    )


def dense_bound(kp, s, collection, sigma):
    """Direct O(N^3) evaluation of the collection bound, no jitter anywhere."""
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kp, s)
    k_inv = np.linalg.inv(k_ss)
    total = 0.0
    for ts in collection.series:
        t, y = ts.timestamps, ts.values
        n = t.size
        cross = kernel_matrix(kp, s, t)
        q = cross.T @ k_inv @ cross
        mat = c * np.eye(n) + q
        sign, logdet = np.linalg.slogdet(mat)
        assert sign > 0
        quad = float(y @ np.linalg.solve(mat, y))
        log_lik = -0.5 * (n * LOG_2PI + logdet + quad)
        gap = np.trace(kernel_matrix(kp, t)) - np.trace(q)
        total += log_lik - gap / (2.0 * c)
    return total


def test_bound_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for trial in range(12):
        j = int(rng.integers(1, 3))
        kp = sharp_params(rng, j)
        m = int(rng.integers(2, 5))
        s = well_conditioned_inducing(rng, kp, m)
        col = make_collection(rng, n_series=int(rng.integers(1, 4)))
        got = lmax_bound(kp, s, col, sigma=0.5, jitter=1e-12)
        want = dense_bound(kp, s, col, sigma=0.5)
        assert got == pytest.approx(want, abs=1e-8)


def test_bound_collapses_to_exact_marginal():
    # one series, inducing set equal to its timestamps: the bound is the
    # exact process marginal likelihood and the trace gap vanishes
    rng = np.random.default_rng(1)
    kp = KernelParams(np.array([0.2]), np.array([np.log(20.0)]))
    t = spaced(rng, 9)
    y = rng.normal(size=9)
    col = Collection(0, (TimeSeries(t, y),))
    sigma = 0.5
    got = lmax_bound(kp, t, col, sigma=sigma, jitter=1e-12)
    cov = kernel_matrix(kp, t) + sigma**2 * np.eye(9)
    sign, logdet = np.linalg.slogdet(cov)
    exact = -0.5 * (9 * LOG_2PI + logdet + float(y @ np.linalg.solve(cov, y)))
    assert got == pytest.approx(exact, abs=1e-8)


def test_bound_monotone_in_inducing_set():
    # growing the inducing set can only tighten the bound
    rng = np.random.default_rng(5)
    for trial in range(6):
        kp = sharp_params(rng, 1)
        col = make_collection(rng, n_series=2, n_lo=6, n_hi=10)
        s = well_conditioned_inducing(rng, kp, 3)
        extra = float(rng.uniform(0.05, 0.95))
        s_big = np.sort(np.append(s, extra))
        small = lmax_bound(kp, s, col, sigma=0.4, jitter=1e-12)
        big = lmax_bound(kp, s_big, col, sigma=0.4, jitter=1e-12)
        assert big - small >= -1e-8


def test_bound_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    h = 1e-6
    for trial in range(4):
        j = int(rng.integers(1, 3))
        kp = sharp_params(rng, j)
        m = int(rng.integers(2, 5))
        s = well_conditioned_inducing(rng, kp, m)
        col = make_collection(rng, n_series=2)
        d_la, d_lb, d_s = objective._bound_gradient(kp, s, col, 0.5, 1e-10)

        def val(kp2, s2):
            return lmax_bound(kp2, s2, col, sigma=0.5, jitter=1e-10)

        for idx in range(j):
            la = np.array(kp.log_amplitudes)
            la[idx] += h
            up = val(KernelParams(la, kp.log_bandwidths), s)
            la[idx] -= 2 * h
            dn = val(KernelParams(la, kp.log_bandwidths), s)
            fd = (up - dn) / (2 * h)
            assert d_la[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

            lb = np.array(kp.log_bandwidths)
            lb[idx] += h
            up = val(KernelParams(kp.log_amplitudes, lb), s)
            lb[idx] -= 2 * h
            dn = val(KernelParams(kp.log_amplitudes, lb), s)
            fd = (up - dn) / (2 * h)
            assert d_lb[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

        for a in range(m):
            sp = s.copy()
            sp[a] += h
            up = val(kp, sp)
            sp[a] -= 2 * h
            dn = val(kp, sp)
            fd = (up - dn) / (2 * h)
            assert d_s[a] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def small_model_and_data(seed=0, L=2, m=3, d=2, j=1):
    rng = np.random.default_rng(seed)
    cols = tuple(make_collection(rng, label=k, n_series=2) for k in range(L))
    ds = Dataset(cols, (0.0, 1.0))
    h = Hyperparams(m=m, d=d, j=j, lam=0.7, sigma=0.5, jitter=1e-10)
    params = ModelParams(
        log_amplitudes=rng.uniform(-0.3, 0.3, (L, j)),
        log_bandwidths=rng.uniform(np.log(30.0), np.log(80.0), (L, j)),
        codes=rng.normal(size=(L, d)) * 0.5 + 1.0,
        code_map=rng.uniform(0.1, 0.9, (m, d)),
        hyper=h,
    )
    return params, ds


def test_total_loss_is_sum_of_parts():
    params, ds = small_model_and_data(seed=3)
    h = params.hyper
    expected = 0.0
    for k in range(ds.n_classes):
        kp = KernelParams(params.log_amplitudes[k], params.log_bandwidths[k])
        s = code_to_timestamps(params.code_map, params.codes[k])
        expected -= lmax_bound(kp, s, ds.collections[k], h.sigma, h.jitter)
        expected += h.lam * float(params.codes[k] @ params.codes[k])
    assert total_loss(params, ds) == pytest.approx(expected, rel=1e-12)


def test_loss_gradient_matches_finite_differences():
    params, ds = small_model_and_data(seed=7, L=2, m=3, d=2, j=2)
    grad = loss_gradient(params, ds)
    h = 1e-6

    def fd_field(field, analytic):
        base = getattr(params, field)
        flat_grad = analytic.ravel()
        for i in range(base.size):
            arr = np.array(base)
            arr.flat[i] += h
            up = total_loss(dataclasses.replace(params, **{field: arr}), ds)
            arr.flat[i] -= 2 * h
            dn = total_loss(dataclasses.replace(params, **{field: arr}), ds)
            fd = (up - dn) / (2 * h)
            assert flat_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (field, i)

    for field, analytic in zip(LEARNED_FIELDS, learned_arrays(grad, params.n_classes,
                                                              params.hyper)):
        fd_field(field, analytic)


def test_input_validation():
    params, ds = small_model_and_data(seed=2)
    kp = KernelParams(np.zeros(1), np.zeros(1))
    col = ds.collections[0]
    with pytest.raises(ValidationError):
        lmax_bound(kp, [0.2, 1.4], col, sigma=0.5)  # timestamp out of range
    for endpoint in ([0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(ValidationError):
            lmax_bound(kp, endpoint, col, sigma=0.5)  # (0, 1) is open, as in fit_posterior
    with pytest.raises(ValidationError):
        lmax_bound(kp, [0.2, 0.4], col, sigma=0.0)
    one_class = Dataset((ds.collections[0],), (0.0, 1.0))
    with pytest.raises(ValidationError):
        total_loss(params, one_class)  # class count mismatch


def test_informative_timestamps_shape():
    cm = np.linspace(0.1, 0.9, 5)[:, None] @ np.ones((1, 2))
    s = code_to_timestamps(cm, np.ones(2))
    assert s.shape == (5,)
    assert np.all((s > 0) & (s < 1))


def test_training_loss_forms_no_inverse(forbid_inverse):
    params, ds = small_model_and_data(seed=5)
    loss = total_loss(params, ds)
    grads = loss_gradient(params, ds)
    forbid_inverse()
    assert total_loss(params, ds) == loss
    got_grads = loss_gradient(params, ds)
    for got, want in zip(*(learned_arrays(g, params.n_classes, params.hyper)
                           for g in (got_grads, grads))):
        assert np.array_equal(got, want)


@st.composite
def floor_cases(draw):
    """A kernel, inducing timestamps, a collection and its noise scale, over
    wide ranges: collapsed amplitudes (log near -200) and effective noise c
    below 1/(2 pi), where a block's floor is negative."""
    j = draw(st.integers(1, 2))
    amp = st.one_of(st.floats(-205.0, -195.0), st.floats(-5.0, 5.0))
    kp = KernelParams(np.array(draw(st.lists(amp, min_size=j, max_size=j))),
                      np.array(draw(st.lists(st.floats(-3.0, 9.0), min_size=j, max_size=j))))
    grid = st.lists(st.integers(1, 199), min_size=1, max_size=40, unique=True)
    s = np.sort(np.array(draw(grid.map(lambda v: v[:6])), dtype=float)) / 200.0
    y_scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 10.0]))
    series = []
    for i in range(draw(st.integers(1, 5))):
        t = np.sort(np.array(draw(grid), dtype=float)) / 200.0
        y = y_scale * np.random.default_rng(i).normal(size=t.size)
        series.append(TimeSeries(t, y))
    sigma = draw(st.floats(1e-3, 2.0))
    jitter = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    return kp, s, Collection(0, tuple(series)), sigma, jitter


@settings(max_examples=80, deadline=None)
@given(floor_cases())
def test_every_block_value_clears_its_floor(case):
    kp, s, col, sigma, jitter = case
    c = effective_noise(col.size, sigma)
    seen = []

    def recording(kp_, s_, whiten, block, c_):
        value = real_block_value(kp_, s_, whiten, block, c_)
        seen.append((block, value))
        return value

    real_block_value = objective._block_value
    with mock.patch.object(objective, "_block_value", recording):
        try:
            lmax_bound(kp, s, col, sigma, jitter)
        except MotionCodeError:
            pass
    amp_sum = float(np.sum(kp.amplitudes))
    for block, value in seen:
        n_b = block.n_points
        floor = 0.5 * n_b * np.log(2.0 * np.pi * c)
        assert objective._floor(n_b, c) == floor
        y_sq = float(np.vdot(block.values, block.values))
        margin = MARGIN_RTOL * objective._scale(n_b, y_sq, amp_sum, c)
        assert -value >= floor - margin


def blocky_model_and_data(seed=0, L=3):
    """A model over L classes of 60 series each, in several blocks per class."""
    rng = np.random.default_rng(seed)
    cols = tuple(make_collection(rng, label=k, n_series=60, n_lo=20, n_hi=30)
                 for k in range(L))
    h = Hyperparams(m=4, d=2, j=1, lam=0.7, sigma=0.3)
    params = ModelParams(
        log_amplitudes=rng.uniform(-0.3, 0.3, (L, 1)),
        log_bandwidths=rng.uniform(np.log(30.0), np.log(80.0), (L, 1)),
        codes=rng.normal(size=(L, 2)) * 0.5 + 1.0,
        code_map=rng.uniform(0.1, 0.9, (4, 2)),
        hyper=h,
    )
    return params, Dataset(cols, (0.0, 1.0))


def test_ceiling_at_or_above_the_loss_changes_nothing():
    params, ds = blocky_model_and_data()
    assert all(len(col.blocks) >= 3 for col in ds.collections)
    loss = total_loss(params, ds)
    for ceiling in (loss, np.nextafter(loss, np.inf), loss + 1.0, np.inf):
        assert total_loss(params, ds, ceiling=ceiling) == loss


def test_ceiling_below_the_loss_returns_more_than_it(monkeypatch, caplog):
    params, ds = blocky_model_and_data(seed=1)
    loss = total_loss(params, ds)
    n_blocks = sum(len(col.blocks) for col in ds.collections)
    floor = sum(objective._floor(col.n_points(), effective_noise(col.size, params.hyper.sigma))
                for col in ds.collections) + sum(params.hyper.lam * float(z @ z)
                                                 for z in params.codes)
    assert floor < loss
    calls = []
    real = objective._block_value

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(objective, "_block_value", counted)
    evaluated = []
    for ceiling in (-np.inf, floor - 1.0, 0.5 * (floor + loss), np.nextafter(loss, -np.inf)):
        del calls[:]
        with caplog.at_level(logging.DEBUG, logger="motioncode.objective"):
            caplog.clear()
            got = total_loss(params, ds, ceiling=ceiling)
        assert got > ceiling
        evaluated.append(len(calls))
        if evaluated[-1] < n_blocks:
            first = caplog.records[0]
            assert len(caplog.records) == 1 and first.levelno == logging.DEBUG
            assert first.args == (evaluated[-1], n_blocks, got, ceiling)
        else:
            assert got == loss
            assert caplog.records == []
    # no block is needed to prove the loss above -inf or below the floors;
    # halfway between the floors and the loss some blocks are skipped
    assert evaluated[:2] == [0, 0]
    assert 0 < evaluated[2] < n_blocks


@pytest.mark.parametrize("fault", ["nan", "-inf", "inf", "raise"])
@pytest.mark.parametrize("at", [0, 4])
def test_failing_trial_is_still_rejected(monkeypatch, fault, at):
    params, ds = blocky_model_and_data(seed=2)
    loss = total_loss(params, ds)
    real = objective._block_value
    calls = []

    def faulty(*args):
        calls.append(None)
        value = real(*args)
        if len(calls) - 1 == at:
            if fault == "raise":
                raise NumericalError("inner inducing-point system lost positive definiteness")
            value = float(fault)
        return value

    monkeypatch.setattr(objective, "_block_value", faulty)
    try:
        got = total_loss(params, ds, ceiling=loss)
    except MotionCodeError:
        return
    assert not (np.isfinite(got) and got <= loss)
