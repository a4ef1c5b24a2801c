import numpy as np
import pytest

from motioncode.core import (
    Collection,
    Dataset,
    Hyperparams,
    ModelParams,
    Prediction,
    TimeSeries,
    ValidationError,
    code_to_timestamps,
)
from motioncode.dataio import RaggedRecord, dataset_from_records, to_original_units


def make_series(n=5, lo=0.0, hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(t) <= 0):
        t = np.sort(rng.uniform(lo, hi, n))
    return TimeSeries(t, rng.normal(size=n))


def test_timeseries_basic():
    ts = TimeSeries([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    assert len(ts) == 3
    assert ts.timestamps.dtype == float
    with pytest.raises(ValueError):
        ts.values[0] = 9.0  # read-only


def test_timeseries_rejects_bad_input():
    with pytest.raises(ValidationError):
        TimeSeries([0.2, 0.1], [1.0, 2.0])  # not increasing
    with pytest.raises(ValidationError):
        TimeSeries([0.1, 0.1], [1.0, 2.0])  # duplicate time
    with pytest.raises(ValidationError):
        TimeSeries([-0.1, 0.5], [1.0, 2.0])  # below range
    with pytest.raises(ValidationError):
        TimeSeries([0.5, 1.1], [1.0, 2.0])  # above range
    with pytest.raises(ValidationError):
        TimeSeries([0.1, 0.5], [1.0])  # length mismatch
    with pytest.raises(ValidationError):
        TimeSeries([], [])  # empty
    with pytest.raises(ValidationError):
        TimeSeries([0.1, np.nan], [1.0, 2.0])


def test_single_point_series_allowed():
    ts = TimeSeries([0.9], [1.5])
    assert len(ts) == 1


def test_collection_counts():
    c = Collection(0, (make_series(4, seed=1), make_series(6, seed=2)))
    assert c.size == 2
    assert c.n_points() == 10
    with pytest.raises(ValidationError):
        Collection(0, ())
    with pytest.raises(ValidationError):
        Collection(-1, (make_series(),))


def test_dataset_label_contiguity():
    c0 = Collection(0, (make_series(seed=1),))
    c1 = Collection(1, (make_series(seed=2),))
    ds = Dataset((c0, c1), (0.0, 10.0))
    assert ds.n_classes == 2
    assert ds.class_labels == (0, 1)
    with pytest.raises(ValidationError):
        Dataset((c1,), (0.0, 10.0))  # labels must start at 0
    with pytest.raises(ValidationError):
        Dataset((c0, c0), (0.0, 10.0))  # duplicate label 0
    with pytest.raises(ValidationError):
        Dataset((c0, c1), (5.0, 5.0))  # degenerate time scale


def test_dataset_value_round_trip():
    c0 = Collection(0, (make_series(seed=3),))
    ds = Dataset((c0,), (0.0, 1.0), value_center=2.0, value_scale=3.0)
    _, raw, _ = to_original_units(ds, y=[0.0, 1.0])
    assert np.allclose(raw, [2.0, 5.0])


@pytest.mark.parametrize("scales", [
    {"time_scale": (0.0, np.inf)},
    {"time_scale": (np.nan, 1.0)},
    {"time_scale": (0.0, 1.0), "value_center": np.inf},
    {"time_scale": (0.0, 1.0), "value_scale": np.inf},
    {"time_scale": (0.0, 1.0), "value_scale": 0.0},
])
def test_dataset_and_model_share_the_scales_check(scales):
    # a non-finite scale would reach save_model, which cannot write it
    with pytest.raises(ValidationError):
        Dataset((Collection(0, (make_series(),)),), **scales)
    with pytest.raises(ValidationError):
        ModelParams(np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 2)),
                    np.ones((4, 2)), Hyperparams(m=4, d=2, j=1), **scales)


def test_hyperparams_validation():
    h = Hyperparams()
    assert (h.m, h.d, h.j) == (10, 2, 1)
    assert h.lam == 1.0 and h.sigma == 0.1 and h.max_iters == 10
    assert h.epsilon == 1e-5 and h.jitter == 1e-6
    Hyperparams(max_iters=0)  # zero iterations is a valid request
    with pytest.raises(ValidationError):
        Hyperparams(m=0)
    with pytest.raises(ValidationError):
        Hyperparams(sigma=0.0)
    with pytest.raises(ValidationError):
        Hyperparams(lam=-1.0)
    with pytest.raises(ValidationError):
        Hyperparams(max_iters=-1)


@pytest.mark.parametrize("field", ["sigma", "lam", "epsilon", "jitter"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_hyperparams_must_be_finite(field, value):
    # an infinite sigma and lambda once gave a model that classified at chance
    with pytest.raises(ValidationError, match="must be finite"):
        Hyperparams(**{field: value})


def test_code_to_timestamps_open_interval():
    # saturated logits must stay strictly inside (0, 1)
    cm = np.array([[50.0], [-50.0], [0.0]])
    s = code_to_timestamps(cm, np.array([1.0]))
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[2] == pytest.approx(0.5)
    # extreme saturation
    s2 = code_to_timestamps(np.array([[1e4], [-1e4]]), np.array([1.0]))
    assert np.all(s2 > 0.0) and np.all(s2 < 1.0)


def test_code_to_timestamps_matches_sigmoid():
    rng = np.random.default_rng(7)
    cm = rng.normal(size=(6, 3))
    z = rng.normal(size=3)
    s = code_to_timestamps(cm, z)
    expected = 1.0 / (1.0 + np.exp(-(cm @ z)))
    assert np.allclose(s, expected, rtol=0, atol=1e-15)


def valid_model(L=2, m=4, d=2, j=1):
    h = Hyperparams(m=m, d=d, j=j)
    return ModelParams(
        log_amplitudes=np.zeros((L, j)),
        log_bandwidths=np.zeros((L, j)),
        codes=np.ones((L, d)),
        code_map=np.linspace(0.1, 0.9, m)[:, None] * np.ones((m, d)),
        hyper=h,
    )


def test_modelparams_shapes_checked():
    mp = valid_model()
    assert mp.n_classes == 2
    s = mp.inducing_timestamps(0)
    assert s.shape == (4,)
    assert np.all((s > 0) & (s < 1))
    with pytest.raises(ValidationError):
        ModelParams(
            log_amplitudes=np.zeros((2, 2)),  # J mismatch with hyper
            log_bandwidths=np.zeros((2, 2)),
            codes=np.ones((2, 2)),
            code_map=np.ones((4, 2)),
            hyper=Hyperparams(m=4, d=2, j=1),
        )
    with pytest.raises(ValidationError):
        ModelParams(
            log_amplitudes=np.full((2, 1), 1e4),  # exp overflows
            log_bandwidths=np.zeros((2, 1)),
            codes=np.ones((2, 2)),
            code_map=np.ones((4, 2)),
            hyper=Hyperparams(m=4, d=2, j=1),
        )


def test_modelparams_class_index():
    h = Hyperparams(m=2, d=1, j=1)
    mp = ModelParams(
        log_amplitudes=np.zeros((2, 1)),
        log_bandwidths=np.zeros((2, 1)),
        codes=np.ones((2, 1)),
        code_map=np.ones((2, 1)),
        hyper=h,
        class_labels=(3, 7),
    )
    assert mp.class_index(7) == 1
    from motioncode.core import InputError

    with pytest.raises(InputError):
        mp.class_index(5)


def test_prediction_variance_nonnegative():
    Prediction([0.1, 0.2], [1.0, 2.0], [0.0, 0.5])
    with pytest.raises(ValidationError):
        Prediction([0.1, 0.2], [1.0, 2.0], [-0.1, 0.5])


def test_normalize_timestamps():
    """Loading maps raw times onto [0, 1] through a supplied time scale and
    rejects times outside it, or a degenerate scale."""

    def load(raw_times, time_scale, **values):
        records = [RaggedRecord(0, raw_times, np.arange(len(raw_times), dtype=float))]
        return dataset_from_records(records, time_scale=time_scale, **values)

    ds = load([0.0, 5.0, 10.0], (0.0, 10.0))
    assert np.allclose(ds.collections[0].series[0].timestamps, [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match="outside the time scale"):
        load([-1.0, 5.0], (0.0, 10.0))
    with pytest.raises(ValidationError, match="outside the time scale"):
        load([5.0, 11.0], (0.0, 10.0))
    with pytest.raises(ValidationError, match="degenerate"):
        load([1.0, 3.0], (2.0, 2.0))
    # a supplied half of the value pair is kept and only the other computed:
    # the values 0, 1, 2 have mean 1 and standard deviation sqrt(2/3)
    ds = load([0.0, 5.0, 10.0], (0.0, 10.0), value_center=4.0)
    assert (ds.value_center, ds.value_scale) == (4.0, np.std([0.0, 1.0, 2.0]))
    ds = load([0.0, 5.0, 10.0], (0.0, 10.0), value_scale=2.0)
    assert (ds.value_center, ds.value_scale) == (1.0, 2.0)
    assert np.array_equal(ds.collections[0].series[0].values, [-0.5, 0.0, 0.5])
