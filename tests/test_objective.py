import dataclasses
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motioncode import bench, objective
from motioncode.core import (
    BLOCK_COLUMNS,
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
    series_blocks,
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


def test_bound_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for trial in range(12):
        j = int(rng.integers(1, 3))
        kp = sharp_params(rng, j)
        m = int(rng.integers(2, 5))
        s = well_conditioned_inducing(rng, kp, m)
        col = make_collection(rng, n_series=int(rng.integers(1, 4)))
        got = lmax_bound(kp, s, col, sigma=0.5, jitter=1e-12)
        want = bench.dense_bound(kp, s, col, 0.5, 0.0)
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


def series_floor(n, y_sq, amp_sum, c):
    """The lower bound on one series' negated value (objective's module
    docstring): its value at tr Q_i = n_i A, the largest trace."""
    return 0.5 * (n * np.log(2.0 * np.pi * c) + np.log(1.0 + n * amp_sum / c)
                  + y_sq / (c + n * amp_sum))


def block_series_floors(block, amp_sum, c):
    """The floor of each series in a block, spelled out from its points."""
    return np.array([series_floor(int(keep.sum()), float(row[keep] @ row[keep]), amp_sum, c)
                     for row, keep in zip(block.values, block.mask)])


@settings(max_examples=80, deadline=None)
@given(floor_cases())
def test_every_block_value_clears_its_floor(case):
    """Each series alone, in a block of its own, and each block of the
    collection clear the sum of their series' floors, to within the margin a
    stopped pass allows."""
    kp, s, col, sigma, jitter = case
    amp_sum = float(np.sum(kp.amplitudes))
    try:
        s, c, _, _, _, whiten = objective._start_pass(kp, s, col, sigma, jitter)
    except MotionCodeError:
        return
    counts, y_sq, starts = col.block_series
    floors = objective._floors(counts, y_sq, amp_sum, c)
    spelled = np.concatenate([block_series_floors(block, amp_sum, c) for block in col.blocks])
    assert floors == pytest.approx(spelled, rel=1e-12, abs=1e-300)
    units = [(block, np.add.reduceat(floors, starts)[b]) for b, block in enumerate(col.blocks)]
    for ts in col.series:
        y_sq_i = float(ts.values @ ts.values)
        units.append((next(series_blocks([ts])), series_floor(len(ts), y_sq_i, amp_sum, c)))
    for block, floor in units:
        try:
            value = objective._block_value(kp, s, whiten, block, c)
        except MotionCodeError:
            continue
        y_sq_b = float(np.vdot(block.values, block.values))
        margin = MARGIN_RTOL * objective._scale(block.n_points, y_sq_b, amp_sum, c)
        assert -value >= floor - margin


def blocky_model_and_data(seed=0, L=3):
    """A model over L classes of series of 20-30 points, at least three blocks
    per class: a full block pads to fewer than BLOCK_COLUMNS + 30 columns,
    and 60 * BLOCK_COLUMNS / 512 series of at least 20 points are more than
    two of them."""
    rng = np.random.default_rng(seed)
    cols = tuple(make_collection(rng, label=k, n_series=60 * BLOCK_COLUMNS // 512,
                                 n_lo=20, n_hi=30)
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


def blocky_floors(params, ds):
    """Each block's floor, in the order a loss evaluates the blocks, and the
    sum of the code penalties."""
    floors = []
    for k, col in enumerate(ds.collections):
        c = effective_noise(col.size, params.hyper.sigma)
        amp_sum = float(np.sum(np.exp(params.log_amplitudes[k])))
        floors.extend(block_series_floors(block, amp_sum, c).sum() for block in col.blocks)
    return np.array(floors), sum(params.hyper.lam * float(z @ z) for z in params.codes)


def test_ceiling_below_the_loss_returns_more_than_it(monkeypatch, caplog):
    params, ds = blocky_model_and_data(seed=1)
    loss = total_loss(params, ds)
    n_blocks = sum(len(col.blocks) for col in ds.collections)
    floors, penalties = blocky_floors(params, ds)
    floor = float(floors.sum()) + penalties
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


def test_series_floors_stop_a_trial_before_the_point_count_floor_does(monkeypatch):
    """A ceiling just below the loss, between the two floors' lower bounds
    once all blocks but the last are known: the per-series floors prove the
    trial failed without the last block, while the floor
    n_b * log(2*pi*c) / 2 could not prove it before every block is known."""
    params, ds = blocky_model_and_data(seed=1)
    values = []
    real = objective._block_value

    def recording(*args):
        values.append(real(*args))
        return values[-1]

    monkeypatch.setattr(objective, "_block_value", recording)
    loss = total_loss(params, ds)
    floors, penalties = blocky_floors(params, ds)
    sizes = [block.n_points for col in ds.collections for block in col.blocks]
    noises = [effective_noise(col.size, params.hyper.sigma)
              for col in ds.collections for _ in col.blocks]
    point_floors = 0.5 * np.array(sizes) * np.log(2.0 * np.pi * np.array(noises))
    assert np.all(floors > point_floors)
    negated = -np.array(values)
    ceiling = loss - 0.5 * ((negated[-1] - floors[-1]) + (negated[-1] - point_floors[-1]))

    def first_proof(block_floors):
        """The fewest blocks after which the known values and the floors of
        the rest pass the ceiling, with no rounding margin."""
        return next(k for k in range(negated.size + 1)
                    if penalties + negated[:k].sum() + block_floors[k:].sum() > ceiling)

    del values[:]
    assert total_loss(params, ds, ceiling=ceiling) > ceiling
    assert first_proof(point_floors) == negated.size
    assert first_proof(floors) <= len(values) < negated.size


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


@pytest.mark.parametrize("fault", ["nan", "inf", "-inf"])
def test_non_finite_block_value_makes_the_bound_raise(monkeypatch, fault):
    """A non-finite value in class 0's first block raises from lmax_bound
    and from total_loss, with or without a ceiling. A ceiling does not stop
    a -inf block first: its negation is +inf, which also makes the margin
    term of the stop test infinite."""
    params, ds = blocky_model_and_data(seed=2)
    loss = total_loss(params, ds)
    h = params.hyper
    kp = KernelParams(params.log_amplitudes[0], params.log_bandwidths[0])
    s = code_to_timestamps(params.code_map, params.codes[0])
    real = objective._block_value
    calls = []

    def faulty(*args):
        calls.append(None)
        return float(fault) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(objective, "_block_value", faulty)
    for evaluate in (lambda: lmax_bound(kp, s, ds.collections[0], h.sigma, h.jitter),
                     lambda: total_loss(params, ds),
                     lambda: total_loss(params, ds, ceiling=loss)):
        del calls[:]
        with pytest.raises(NumericalError,
                           match="collection bound evaluated to a non-finite value"):
            evaluate()
