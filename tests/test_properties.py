import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from motioncode.core import (
    Collection,
    Dataset,
    Hyperparams,
    TimeSeries,
    code_to_timestamps,
)
from motioncode.core import SplitError
from motioncode.dataio import (RaggedRecord, dataset_from_records, forecast_split,
                              to_original_units)
from motioncode.kernel import KernelParams, chol_jittered, half_solve, kernel_matrix
from motioncode.optimizer import init_params, pack_params, unpack_params

# bounded float strategies: the invariants below are algebraic, and wild
# magnitudes only test float overflow, not the algebra
logs = st.floats(-2.0, 2.0, allow_nan=False)
small_floats = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def kernel_params(draw, max_components=3):
    j = draw(st.integers(1, max_components))
    amps = draw(st.lists(logs, min_size=j, max_size=j))
    bws = draw(st.lists(logs, min_size=j, max_size=j))
    return KernelParams(np.array(amps), np.array(bws))


@st.composite
def timestamps(draw, max_points=12):
    n = draw(st.integers(1, max_points))
    # distinct grid picks keep the matrix comfortably full-rank
    idx = draw(st.lists(st.integers(0, 199), min_size=n, max_size=n,
                        unique=True))
    return np.sort(np.array(idx, dtype=float)) / 199.0


@settings(max_examples=60, deadline=None)
@given(kernel_params(), timestamps())
def test_kernel_matrix_symmetric_psd(kp, t):
    k = kernel_matrix(kp, t)
    assert np.allclose(k, k.T, atol=1e-12)
    assert float(np.linalg.eigvalsh(k)[0]) >= -1e-8
    # the diagonal is the total amplitude everywhere
    assert np.allclose(np.diag(k), np.sum(kp.amplitudes), rtol=1e-12)


@st.composite
def near_coincident_timestamps(draw, max_points=8):
    """2 to max_points timestamps at most 3e-6 apart: with the bandwidths
    of kernel_params, cond(K_SS) >= 1e10."""
    n = draw(st.integers(2, max_points))
    gaps = draw(st.lists(st.floats(1e-8, 3e-6), min_size=n - 1, max_size=n - 1))
    return draw(st.floats(0.1, 0.9)) + np.concatenate(([0.0], np.cumsum(gaps)))


# well-spaced timestamps at jitters 1e-10 to 1e-4, or an ill-conditioned
# K_SS at jitters 1e-12 to 1e-6
factor_inputs = st.one_of(
    st.tuples(timestamps(), st.floats(1e-10, 1e-4)),
    st.tuples(near_coincident_timestamps(), st.floats(1e-12, 1e-6)),
)


@settings(max_examples=40, deadline=None)
@given(kernel_params(), factor_inputs, st.sampled_from([(), (1,), (3,)]))
def test_jittered_factor_solves(kp, inputs, rhs_columns):
    t, jitter = inputs
    k = kernel_matrix(kp, t)
    if t.size > 1 and float(np.diff(t).max()) <= 3e-6:
        assert float(np.linalg.cond(k)) >= 1e10
    factor = chol_jittered(k, jitter)
    rng = np.random.default_rng(0)
    b = rng.normal(size=(t.size,) + rhs_columns)
    x = half_solve(factor.lower, b)
    assert x.shape == b.shape
    # componentwise backward errors, which hold at any conditioning, each
    # with a factor 2 of room for the rounding of the residual itself: the
    # factor's, |A + jI - L L^T| <= (n + 1) eps |L| |L^T| (Higham, Thm
    # 10.3), and the substitution's, |b - L x| <= n eps |L| |x| (Thm 8.5)
    eps = np.finfo(float).eps
    lower = factor.lower
    a = k + factor.jitter_used * np.eye(t.size)
    assert np.all(np.abs(a - lower @ lower.T)
                  <= 2 * (t.size + 1) * eps * (np.abs(lower) @ np.abs(lower.T)))
    resid = np.abs(b - lower @ x)
    assert np.all(resid <= 2 * t.size * eps * (np.abs(lower) @ np.abs(x)))


@st.composite
def code_and_map(draw, max_dim=6, max_rows=8):
    d = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_rows))
    code = draw(st.lists(small_floats, min_size=d, max_size=d))
    flat = draw(st.lists(small_floats, min_size=m * d, max_size=m * d))
    return np.array(flat).reshape(m, d), np.array(code)


@settings(max_examples=60, deadline=None)
@given(code_and_map())
def test_decoded_timestamps_stay_inside_unit_interval(pair):
    code_map, code = pair
    # logits reach +-15000 here, far past sigmoid saturation
    s = code_to_timestamps(code_map, code)
    assert s.shape == (code_map.shape[0],)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert np.all(np.isfinite(s))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 4))
def test_pack_unpack_round_trip(n_classes, j, m, d):
    h = Hyperparams(m=m, d=d, j=j)
    params = init_params(n_classes, h)
    x = pack_params(params)
    perturbed = x + np.linspace(-1.0, 1.0, x.size)
    back = pack_params(unpack_params(perturbed, params))
    assert np.array_equal(back, perturbed)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.floats(0.05, 0.95))
def test_forecast_split_is_a_partition(n, fraction):
    t = np.linspace(0.0, 1.0, n)
    ds = Dataset(
        (
            Collection(0, (TimeSeries(t, np.sin(t)),)),
            Collection(1, (TimeSeries(t, np.cos(t)),)),
        ),
        (0.0, 1.0),
    )
    try:
        train, test = forecast_split(ds, fraction)
    except SplitError:
        # too few points on one side; refusing the split is the contract
        return
    for k in range(2):
        a = train.collections[k].series[0]
        b = test.collections[k].series[0]
        rebuilt = np.concatenate([a.timestamps, b.timestamps])
        assert np.array_equal(rebuilt, t)
        assert len(a) + len(b) == n


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2,
                max_size=9, unique=True),
       st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
def test_value_round_trip_through_normalization(values, shift, other):
    t = np.linspace(0.0, 7.0, len(values))
    records = [
        RaggedRecord(0, t, np.asarray(values) + shift),
        RaggedRecord(1, t, np.full(len(values), other)),
    ]
    ds = dataset_from_records(records)
    _, raw, _ = to_original_units(ds, y=ds.collections[0].series[0].values)
    want = np.asarray(values) + shift
    scale = max(1.0, float(np.abs(want).max()))
    assert np.allclose(raw, want, atol=1e-12 * scale)
