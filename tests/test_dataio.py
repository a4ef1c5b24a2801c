import dataclasses
import hashlib
import json

import numpy as np
import pytest

from motioncode.core import (
    Collection,
    Dataset,
    Hyperparams,
    InputError,
    ParseError,
    Scales,
    SplitError,
    TimeSeries,
    ValidationError,
    VariationalPosterior,
    VersionError,
)
from motioncode.dataio import (
    RaggedRecord,
    dataset_from_records,
    file_digest,
    forecast_split,
    inject_noise,
    load_dataset,
    load_model,
    load_queries,
    parse_ragged,
    save_model,
    to_original_units,
    write_ragged,
)
from motioncode.inference import class_posteriors, predict
from motioncode.kernel import class_kernel
from motioncode.optimizer import init_params


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_ragged_basic(tmp_path):
    p = tmp_path / "data.jsonl"
    write_lines(p, [
        json.dumps({"label": 0, "t": [10.0, 20.0, 30.0], "y": [1.0, 2.0, 3.0]}),
        json.dumps({"label": 1, "t": [10.0, 30.0], "y": [4.0, 0.0]}),
    ])
    ds = load_dataset(p)
    assert ds.n_classes == 2
    assert ds.time_scale == (10.0, 30.0)
    assert ds.class_labels == (0, 1)
    # endpoints map to 0 and 1
    assert np.allclose(ds.collections[1].series[0].timestamps, [0.0, 1.0])
    assert np.allclose(ds.collections[0].series[0].timestamps, [0.0, 0.5, 1.0])
    # values were centered globally
    all_values = np.concatenate(
        [s.values for c in ds.collections for s in c.series]
    )
    assert np.mean(all_values) == pytest.approx(0.0, abs=1e-12)
    assert np.std(all_values) == pytest.approx(1.0, rel=1e-12)
    _, raw, _ = to_original_units(ds, y=ds.collections[0].series[0].values)
    assert np.allclose(raw, [1.0, 2.0, 3.0])


def test_load_ragged_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.jsonl"
    write_lines(p, [
        json.dumps({"label": 0, "t": [0, 1], "y": [1, 2]}),
        "{not json",
    ])
    with pytest.raises(ParseError) as err:
        parse_ragged(p)
    assert ":2:" in str(err.value)

    write_lines(p, [
        json.dumps({"label": 0, "t": [0, 1], "y": [1, 2]}),
        json.dumps({"label": 1, "t": [3, 2], "y": [1, 2]}),
    ])
    with pytest.raises(ValidationError) as err:
        parse_ragged(p)
    assert ":2:" in str(err.value) and "increasing" in str(err.value)

    write_lines(p, [json.dumps({"label": 0, "t": [0, 1]})])
    with pytest.raises(ParseError) as err:
        parse_ragged(p)
    assert "missing field 'y'" in str(err.value)

    write_lines(p, [json.dumps({"label": "a", "t": [0, 1], "y": [1, 2]})])
    with pytest.raises(ParseError):
        parse_ragged(p)

    # booleans, strings, nulls and nested arrays are not numbers, and an
    # integer too large for a float is not a usable one
    for bad in (True, "2", None, [1], 10**400):
        for key in ("t", "y"):
            row = {"label": 0, "t": [0, 1, 2], "y": [1, 2, 3]}
            row[key] = row[key][:1] + [bad] + row[key][2:]
            write_lines(p, [json.dumps(row)])
            with pytest.raises(ParseError) as err:
                parse_ragged(p)
            assert ":1:" in str(err.value) and "numeric array" in str(err.value)

    # NaN parses as a number but is not a finite value
    write_lines(p, [json.dumps({"label": 0, "t": [0, 1], "y": [1, float("nan")]})])
    with pytest.raises(ValidationError) as err:
        parse_ragged(p)
    assert ":1:" in str(err.value) and "finite" in str(err.value)


def test_load_ragged_needs_two_labels(tmp_path):
    p = tmp_path / "one.jsonl"
    write_lines(p, [
        json.dumps({"label": 4, "t": [0, 1], "y": [1, 2]}),
        json.dumps({"label": 4, "t": [0, 2], "y": [1, 2]}),
    ])
    with pytest.raises(ValidationError) as err:
        load_dataset(p)
    assert "at least 2" in str(err.value)


def test_missing_file():
    with pytest.raises(InputError) as err:
        load_dataset("/nonexistent/path/data.jsonl")
    assert "/nonexistent/path/data.jsonl" in str(err.value)


def test_label_remapping(tmp_path):
    p = tmp_path / "remap.jsonl"
    write_lines(p, [
        json.dumps({"label": 7, "t": [0, 1], "y": [1, 2]}),
        json.dumps({"label": 3, "t": [0, 1], "y": [3, 4]}),
    ])
    ds = load_dataset(p)
    assert ds.class_labels == (3, 7)  # ascending original labels
    assert ds.collections[0].label == 0 and ds.collections[1].label == 1


def test_write_ragged_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = []
    for label in (0, 1, 5):
        for _ in range(3):
            n = int(rng.integers(3, 9))
            t = np.sort(rng.uniform(-5, 40, n))
            while np.any(np.diff(t) <= 0):
                t = np.sort(rng.uniform(-5, 40, n))
            records.append(RaggedRecord(label, t, rng.normal(2.0, 3.0, n)))
    p = tmp_path / "round.jsonl"
    write_ragged(records, p)
    # the file holds the records as they are, in input order, bit for bit
    read = parse_ragged(p)
    assert read.labels == tuple(r.label for r in records)
    for want, got in zip(records, read):
        assert np.array_equal(want.t, got.t) and np.array_equal(want.y, got.y)
    # Records write the same file
    again = tmp_path / "again.jsonl"
    write_ragged(read, again)
    assert again.read_bytes() == p.read_bytes()
    ds, back = dataset_from_records(records), load_dataset(p)
    assert back.class_labels == ds.class_labels
    assert back.time_scale == pytest.approx(ds.time_scale, rel=1e-14)
    for c1, c2 in zip(ds.collections, back.collections):
        for s1, s2 in zip(c1.series, c2.series):
            assert np.allclose(s1.timestamps, s2.timestamps, atol=1e-12)
            assert np.allclose(s1.values, s2.values, atol=1e-12)


def test_load_ucr_style(tmp_path):
    p = tmp_path / "grid.tsv"
    write_lines(p, ["1\t0.0\t0.5\t1.0", "3\t2.0\t2.5\t3.0"])
    ds = load_dataset(p, "ucr")
    assert ds.class_labels == (1, 3)
    assert np.allclose(ds.collections[0].series[0].timestamps, [0, 0.5, 1.0])
    # comma flavor, N = 2 degenerate grid
    p2 = tmp_path / "grid.csv"
    write_lines(p2, ["1,0.0,0.5", "2,1.0,2.0"])
    ds2 = load_dataset(p2, "ucr")
    assert np.allclose(ds2.collections[0].series[0].timestamps, [0.0, 1.0])


def test_load_ucr_needs_two_labels(tmp_path):
    p = tmp_path / "one.csv"
    write_lines(p, ["2,0.0,0.5,1.0", "2,1.0,2.0,1.5"])
    with pytest.raises(ValidationError) as err:
        load_dataset(p, "ucr")
    assert "at least 2" in str(err.value)


def test_load_dataset_rejects_unknown_format(tmp_path):
    p = tmp_path / "grid.tsv"
    write_lines(p, ["1\t0.0\t0.5", "3\t2.0\t2.5"])
    with pytest.raises(InputError) as err:
        load_dataset(p, "bogus")
    assert "unknown data format 'bogus'" in str(err.value)


def test_load_ucr_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    write_lines(p, ["1,0.0,0.5,1.0", "2,1.0,2.0"])
    with pytest.raises(ParseError) as err:
        load_dataset(p, "ucr")
    assert ":2:" in str(err.value)


def test_inject_noise_statistics(tmp_path):
    rng = np.random.default_rng(1)
    records = []
    for label in (0, 1):
        for _ in range(25):
            t = np.linspace(0, 1, 220)
            records.append(RaggedRecord(label, t, rng.uniform(-2.0, 2.0, 220)))
    ds = dataset_from_records(records, Scales((0.0, 1.0)))
    peak = max(float(np.max(np.abs(s.values))) for c in ds.collections for s in c.series)
    noisy = inject_noise(ds, 0.3, seed=5)
    diffs = np.concatenate([
        s2.values - s1.values
        for c1, c2 in zip(ds.collections, noisy.collections)
        for s1, s2 in zip(c1.series, c2.series)
    ])
    assert diffs.size >= 10_000
    want = 0.3 * peak
    assert abs(np.std(diffs) - want) < 0.05 * want
    # timestamps untouched, determinism, zero level
    assert np.array_equal(
        ds.collections[0].series[0].timestamps,
        noisy.collections[0].series[0].timestamps,
    )
    again = inject_noise(ds, 0.3, seed=5)
    assert all(
        np.array_equal(a.values, b.values)
        for c1, c2 in zip(noisy.collections, again.collections)
        for a, b in zip(c1.series, c2.series)
    )
    same = inject_noise(ds, 0.0, seed=9)
    assert same is ds


def test_inject_noise_per_series():
    t = np.linspace(0, 1, 500)
    big = TimeSeries(t, np.full(500, 10.0))
    small = TimeSeries(t, np.full(500, 0.1))
    ds = Dataset(
        (Collection(0, (big,)), Collection(1, (small,))),
        (0.0, 1.0),
    )
    noisy = inject_noise(ds, 0.3, seed=2, per_series=True)
    d_big = np.std(noisy.collections[0].series[0].values - 10.0)
    d_small = np.std(noisy.collections[1].series[0].values - 0.1)
    assert abs(d_big - 3.0) < 0.4
    assert abs(d_small - 0.03) < 0.004


def reference_noise(dataset, level, seed, per_series):
    """One draw and one validating TimeSeries per series, in series order."""
    rng = np.random.default_rng(seed)
    peak = max(float(np.max(np.abs(s.values))) for c in dataset.collections for s in c.series)
    out = []
    for col in dataset.collections:
        for s in col.series:
            std = level * (float(np.max(np.abs(s.values))) if per_series else peak)
            noisy = s.values + rng.normal(0.0, std, s.values.size) if std > 0 else s.values
            out.append(TimeSeries(s.timestamps, noisy))
    return out


@pytest.mark.parametrize("per_series", [False, True])
def test_inject_noise_matches_per_series_draws(per_series):
    rng = np.random.default_rng(11)
    series = [TimeSeries(np.linspace(0.0, 1.0, n), rng.normal(0.0, 2.0, n))
              for n in (7, 2, 30, 5, 12, 3)]
    zero = TimeSeries(np.linspace(0.0, 1.0, 9), np.zeros(9))
    ds = Dataset((Collection(0, (series[0], zero, series[1])), Collection(1, (series[2],)),
                  Collection(2, tuple(series[3:]))), (0.0, 1.0))
    noisy = inject_noise(ds, 0.2, seed=3, per_series=per_series)
    assert [c.size for c in noisy.collections] == [c.size for c in ds.collections]
    got = [s for c in noisy.collections for s in c.series]
    for g, w in zip(got, reference_noise(ds, 0.2, 3, per_series), strict=True):
        assert g.timestamps.tobytes() == w.timestamps.tobytes()
        assert g.values.tobytes() == w.values.tobytes()
        assert not g.values.flags.writeable


def test_inject_noise_rejects_values_it_overflows():
    t = np.linspace(0.0, 1.0, 100)
    ds = Dataset((Collection(0, (TimeSeries(t, np.full(100, 1e308)),)),
                  Collection(1, (TimeSeries(t, np.zeros(100)),))), (0.0, 1.0))
    with pytest.raises(ValidationError) as err:
        inject_noise(ds, 1.0, seed=0)
    assert str(err.value) == "timestamps and values must be finite"


@pytest.mark.parametrize("level, message", [
    (float("nan"), "noise level must be finite, got nan"),
    (float("inf"), "noise level must be finite, got inf"),
    (float("-inf"), "noise level must be finite, got -inf"),
    (-0.5, "noise level must be >= 0, got -0.5"),
])
def test_inject_noise_rejects_bad_levels(level, message):
    t = np.linspace(0.0, 1.0, 5)
    ds = Dataset((Collection(0, (TimeSeries(t, np.arange(5.0)),)),
                  Collection(1, (TimeSeries(t, np.ones(5)),))), (0.0, 1.0))
    with pytest.raises(ValidationError) as err:
        inject_noise(ds, level, seed=0)
    assert str(err.value) == message


def test_inject_noise_rejects_a_negative_seed():
    # numpy would raise its own ValueError from inside the draw
    t = np.linspace(0.0, 1.0, 5)
    ds = Dataset((Collection(0, (TimeSeries(t, np.arange(5.0)),)),
                  Collection(1, (TimeSeries(t, np.ones(5)),))), (0.0, 1.0))
    with pytest.raises(ValidationError) as err:
        inject_noise(ds, 0.1, seed=-1)
    assert str(err.value) == "noise seed must be a non-negative integer, got -1"


def test_forecast_split_counts():
    t = np.linspace(0, 1, 10)
    ds = Dataset(
        (
            Collection(0, (TimeSeries(t, np.arange(10.0)),)),
            Collection(1, (TimeSeries(t[:4], np.arange(4.0)),)),
        ),
        (0.0, 1.0),
    )
    train, test = forecast_split(ds, 0.5)
    assert len(train.collections[0].series[0]) == 5
    assert len(test.collections[0].series[0]) == 5
    assert len(train.collections[1].series[0]) == 2
    assert len(test.collections[1].series[0]) == 2
    ds10 = Dataset((Collection(0, (TimeSeries(t, np.arange(10.0)),)),
                    Collection(1, (TimeSeries(t, -np.arange(10.0)),))),
                   (0.0, 1.0))
    train, test = forecast_split(ds10, 0.8)
    assert len(train.collections[0].series[0]) == 8
    assert len(test.collections[0].series[0]) == 2
    # partition in order
    reassembled = np.concatenate([
        train.collections[0].series[0].timestamps,
        test.collections[0].series[0].timestamps,
    ])
    assert np.array_equal(reassembled, t)
    assert train.time_scale == test.time_scale == ds.time_scale


def test_forecast_split_errors():
    t = np.linspace(0, 1, 3)
    ds = Dataset(
        (
            Collection(0, (TimeSeries(t, np.zeros(3)),)),
            Collection(1, (TimeSeries(t, np.ones(3)),)),
        ),
        (0.0, 1.0),
    )
    with pytest.raises(SplitError):
        forecast_split(ds, 0.9)  # 3 points -> 3 train, 0 test
    with pytest.raises(SplitError):
        forecast_split(ds, 0.3)  # 3 points -> 1 train
    with pytest.raises(ValidationError):
        forecast_split(ds, 1.0)


def test_model_round_trip(tmp_path):
    h = Hyperparams(m=4, d=3, j=2, lam=0.25, sigma=0.17, max_iters=7,
                    epsilon=3e-6, jitter=2e-7)
    rng = np.random.default_rng(3)
    params = init_params(2, h)
    params = dataclasses.replace(
        params,
        log_amplitudes=rng.normal(size=(2, 2)),
        log_bandwidths=rng.normal(size=(2, 2)),
        codes=rng.normal(size=(2, 3)),
        code_map=rng.normal(size=(4, 3)),
        time_scale=(3.0, 97.5),
        value_center=rng.normal(),
        value_scale=float(rng.uniform(0.5, 2.0)),
        class_labels=(2, 9),
        data_digest="abc123",
    )
    p = tmp_path / "model.json"
    save_model(params, p)
    back = load_model(p)
    assert np.array_equal(back.log_amplitudes, params.log_amplitudes)
    assert np.array_equal(back.log_bandwidths, params.log_bandwidths)
    assert np.array_equal(back.codes, params.codes)
    assert np.array_equal(back.code_map, params.code_map)
    assert back.hyper == params.hyper
    assert back.time_scale == params.time_scale
    assert back.value_center == params.value_center
    assert back.value_scale == params.value_scale
    assert back.class_labels == params.class_labels
    assert back.data_digest == "abc123"
    # derived inducing timestamps round-trip bit-exactly too
    for k in range(2):
        assert np.array_equal(
            back.inducing_timestamps(k), params.inducing_timestamps(k)
        )


def test_model_round_trip_of_default_init(tmp_path):
    params = init_params(2, Hyperparams())
    p = tmp_path / "m.json"
    save_model(params, p)
    back = load_model(p)
    assert np.array_equal(back.code_map, params.code_map)
    assert back.hyper == params.hyper


def test_model_version_check(tmp_path):
    params = init_params(2, Hyperparams())
    p = tmp_path / "m.json"
    save_model(params, p)
    doc = json.loads(p.read_text())
    doc["format_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(VersionError) as err:
        load_model(p)
    assert "99" in str(err.value)


def test_model_file_that_cannot_be_read_or_is_no_object(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError) as err:
        load_model(missing)
    assert str(err.value).startswith(f"cannot read model file {missing}: ")
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value) == f"{p}: model file must hold a JSON object"


def test_model_corrupt_field_names_path(tmp_path):
    params = init_params(2, Hyperparams())
    p = tmp_path / "m.json"
    save_model(params, p)
    doc = json.loads(p.read_text())
    doc["hyper"]["sigma"] = "oops"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value).startswith(f"{p}: ") and "hyper.sigma" in str(err.value)

    doc = json.loads((tmp_path / "m.json").read_text())
    save_model(params, p)
    doc = json.loads(p.read_text())
    doc["codes"][1][0] = None
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value).startswith(f"{p}: ") and "codes[1][0]" in str(err.value)

    # rows of unequal length would otherwise escape as numpy's ValueError
    save_model(params, p)
    doc = json.loads(p.read_text())
    doc["code_map"][1] = [0.5]
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert "code_map" in str(err.value) and "unequal length" in str(err.value)

    # json.load accepts Infinity, but the scales must be finite
    save_model(params, p)
    p.write_text(p.read_text().replace('"value_scale": 1.0', '"value_scale": Infinity'))
    with pytest.raises(ValidationError) as err:
        load_model(p)
    assert str(p) in str(err.value) and "value_scale" in str(err.value)

    save_model(params, p)
    doc = json.loads(p.read_text())
    del doc["log_bandwidths"]
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value).startswith(f"{p}: ") and "log_bandwidths" in str(err.value)

    p.write_text("{broken")
    with pytest.raises(ParseError):
        load_model(p)


# a missing entry and a string for every Hyperparams field, and a float for
# every integer field
HYPER_CORRUPTIONS = [
    (f.name, bad)
    for f in dataclasses.fields(Hyperparams)
    for bad in (None, "oops") + ((2.5,) if type(f.default) is int else ())
]


@pytest.mark.parametrize("name, bad", HYPER_CORRUPTIONS)
def test_model_hyper_field_checked(tmp_path, name, bad):
    p = tmp_path / "m.json"
    save_model(init_params(2, Hyperparams()), p)
    doc = json.loads(p.read_text())
    if bad is None:
        del doc["hyper"][name]
        message = f"model file missing field hyper.{name}"
    else:
        doc["hyper"][name] = bad
        kind = "an integer" if type(getattr(Hyperparams(), name)) is int else "a number"
        message = f"model file field hyper.{name} must be {kind}, got {bad!r}"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value) == f"{p}: {message}"


def model_with_posteriors(m=4):
    """An untrained two-class model carrying the posteriors fitted on a
    small dataset, as train stores them."""
    rng = np.random.default_rng(5)
    records = [RaggedRecord(label, np.sort(rng.uniform(0.0, 10.0, 6)), rng.normal(size=6))
               for label in (0, 1) for _ in range(3)]
    ds = dataset_from_records(records)
    params = dataclasses.replace(init_params(2, Hyperparams(m=m)), time_scale=ds.time_scale,
                                 value_center=ds.value_center, value_scale=ds.value_scale,
                                 codes=rng.normal(size=(2, 2)))
    return dataclasses.replace(params, data_digest="0123abcd" * 8, data_format="ucr",
                               posteriors=class_posteriors(params, ds))


def test_model_round_trip_with_stored_posteriors(tmp_path):
    params = model_with_posteriors()
    p = tmp_path / "m.json"
    save_model(params, p)
    assert json.loads(p.read_text())["format_version"] == 2
    back = load_model(p)
    assert back.data_digest == "0123abcd" * 8 and back.data_format == "ucr"
    assert len(back.posteriors) == 2
    for post, stored in zip(params.posteriors, back.posteriors):
        assert np.array_equal(stored.inducing, post.inducing)
        assert np.array_equal(stored.mean, post.mean)
        assert np.array_equal(stored.covariance, post.covariance)
        assert stored.jitter == post.jitter
    # the loaded posteriors predict bit for bit what the fitted ones do
    query = np.linspace(0.0, 1.25, 40)
    for k, (post, stored) in enumerate(zip(params.posteriors, back.posteriors)):
        fitted = predict(post, class_kernel(params, k), query)
        loaded = predict(stored, class_kernel(back, k), query)
        assert np.array_equal(loaded.mean, fitted.mean)
        assert np.array_equal(loaded.variance, fitted.variance)
    # a model without posteriors is still written, and read, as version 1
    save_model(dataclasses.replace(params, posteriors=()), p)
    assert json.loads(p.read_text())["format_version"] == 1
    assert load_model(p).posteriors == ()


@pytest.mark.parametrize("version", [1, 2])
def test_model_file_with_a_hyper_seed_loads(tmp_path, version):
    # files written while Hyperparams had a seed field store hyper.seed
    params = model_with_posteriors()
    if version == 1:
        params = dataclasses.replace(params, posteriors=())
    p = tmp_path / "m.json"
    save_model(params, p)
    doc = json.loads(p.read_text())
    assert doc["format_version"] == version and "seed" not in doc["hyper"]
    doc["hyper"]["seed"] = 11
    p.write_text(json.dumps(doc))
    back = load_model(p)
    assert back.hyper == params.hyper
    assert len(back.posteriors) == len(params.posteriors)


_DROP = object()


def _set(doc, path, value):
    node = doc
    for part in path[:-1]:
        node = node[part]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value

# (path into the model file, bad value or _DROP, the exact ParseError message)
STORED_CORRUPTIONS = [
    (["posteriors"], _DROP,
     "model file field posteriors must be a list of 2 entries, one per class"),
    (["posteriors"], [{"mean": [0.0] * 4, "covariance": [[0.0] * 4] * 4}],
     "model file field posteriors must be a list of 2 entries, one per class"),
    (["posteriors", 1], 3.0, "model file field posteriors.1 has the wrong shape"),
    (["posteriors", 0, "mean"], _DROP, "model file missing field posteriors.0.mean"),
    (["posteriors", 0, "mean"], [0.0] * 3,
     "model file field posteriors.0.mean has shape (3,), expected (4,)"),
    (["posteriors", 0, "mean"], "oops", "model file field posteriors.0.mean must be a list "
                                        "of numbers"),
    (["posteriors", 0, "mean", 2], "x",
     "model file field posteriors.0.mean[2] must be a number, got 'x'"),
    (["posteriors", 0, "mean", 1], float("nan"),
     "model file field posteriors.0.mean must be finite"),
    (["posteriors", 1, "covariance"], [[0.0] * 4] * 3,
     "model file field posteriors.1.covariance has shape (3, 4), expected (4, 4)"),
    (["posteriors", 1, "covariance"], [0.0] * 4,
     "model file field posteriors.1.covariance must be a list of rows"),
    (["posteriors", 1, "covariance", 2, 0], None,
     "model file field posteriors.1.covariance[2][0] must be a number, got None"),
    (["posteriors", 1, "covariance", 3, 3], float("inf"),
     "model file field posteriors.1.covariance must be finite"),
    (["data_digest"], None, "model file field data_digest must be a string, got None"),
    (["data_digest"], 12345, "model file field data_digest must be a string, got 12345"),
    (["data_digest"], "0123ABCD" * 8, "model file field data_digest must be 64 lowercase "
                                      f"hex digits, got {'0123ABCD' * 8!r}"),
    (["data_digest"], "0123abcd", "model file field data_digest must be 64 lowercase "
                                  "hex digits, got '0123abcd'"),
    (["data_format"], _DROP, "model file missing field data_format"),
    (["data_format"], "csv",
     "model file field data_format must be one of ('ragged', 'ucr'), got 'csv'"),
    # JSON integers too large for a float once escaped as OverflowError;
    # named, so that the test ids do not spell out 400 digits
    *(pytest.param(path, bad, f"model file field {where} must be a number, got an "
                   "integer too large for a float", id=f"{where}-too-large-for-a-float")
      for path, bad, where in ((["value_center"], 10**400, "value_center"),
                               (["codes", 1, 0], -10**400, "codes[1][0]"),
                               (["hyper", "sigma"], 10**400, "hyper.sigma"),
                               (["posteriors", 0, "mean", 2], 10**400,
                                "posteriors.0.mean[2]"))),
]


@pytest.mark.parametrize("path, bad, message", STORED_CORRUPTIONS)
def test_model_stored_field_checked(tmp_path, path, bad, message):
    p = tmp_path / "m.json"
    save_model(model_with_posteriors(), p)
    doc = json.loads(p.read_text())
    _set(doc, path, bad)
    p.write_text(json.dumps(doc))  # json writes NaN and Infinity, and json.load accepts them
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value) == f"{p}: {message}"


def test_model_refuses_posteriors_a_file_cannot_hold():
    # a model file stores neither a posterior's inducing timestamps nor its
    # jitter: the first case below once saved, and loaded back at the
    # class's own timestamps and jitter 1e-6, predicting -0.0860 where it
    # had predicted 0.0718 at t = 0.3
    params = model_with_posteriors(m=3)
    fitted = params.posteriors
    moved = [VariationalPosterior([0.2, 0.5, 0.8], fitted[0].mean, fitted[0].covariance,
                                  1e-3),
             dataclasses.replace(fitted[0], jitter=1e-3),
             dataclasses.replace(fitted[0], inducing=np.nextafter(fitted[0].inducing, 1.0))]
    for first in moved:
        with pytest.raises(ValidationError, match="^stored posterior 0 was not fitted"):
            dataclasses.replace(params, posteriors=(first, fitted[1]))


def test_model_file_holds_numpy_hyperparams_as_python_numbers(tmp_path):
    # save_model writes the fields as Hyperparams stored them
    hyper = Hyperparams(m=np.int64(3), max_iters=np.int32(4), sigma=np.float32(0.5))
    p = tmp_path / "m.json"
    save_model(init_params(2, hyper), p)
    assert load_model(p).hyper == hyper


# (changes to the model, changes to its first posterior, the exact
# ValidationError message: the ParseError load_model would raise)
UNSAVABLE = [
    ({"data_digest": None}, {}, "model file field data_digest must be a string, got None"),
    ({"data_digest": "0123abcd"}, {}, "model file field data_digest must be 64 lowercase "
                                      "hex digits, got '0123abcd'"),
    ({"data_format": None}, {}, "model file field data_format must be a string, got None"),
    ({"data_format": "csv"}, {},
     "model file field data_format must be one of ('ragged', 'ucr'), got 'csv'"),
    ({}, {"mean": np.full(4, np.nan)}, "model file field posteriors.0.mean must be finite"),
    ({}, {"covariance": np.eye(3)},
     "model file field posteriors.0.covariance has shape (3, 3), expected (4, 4)"),
]


@pytest.mark.parametrize("changes, post_changes, message", UNSAVABLE)
def test_save_model_refuses_what_load_model_rejects(tmp_path, changes, post_changes, message):
    params = model_with_posteriors()
    first = dataclasses.replace(params.posteriors[0], **post_changes)
    params = dataclasses.replace(params, posteriors=(first,) + params.posteriors[1:], **changes)
    p = tmp_path / "m.json"
    with pytest.raises(ValidationError) as err:
        save_model(params, p)
    assert str(err.value) == message
    assert not p.exists()


def _nan_sigma():
    hyper = Hyperparams()
    object.__setattr__(hyper, "sigma", float("nan"))
    return hyper


# (a field save_model writes, an invalid value, the exact ValidationError
# message); format_version follows from the posteriors, and the version 2
# fields are covered above
UNSAVABLE_FIELDS = [
    ("hyper", _nan_sigma(), "sigma must be finite, got nan"),
    ("time_scale", (0.0, np.inf), "degenerate or non-finite time range [0.0, inf]"),
    ("value_center", np.nan, "value_center must be finite, got nan"),
    ("value_scale", 0.0, "value_scale must be positive and finite, got 0.0"),
    ("class_labels", (1, 1), "class_labels must hold one distinct label per class"),
    ("log_amplitudes", np.full((2, 1), np.nan),
     "log_amplitudes must exponentiate to finite positive values"),
    ("log_bandwidths", np.full((2, 1), np.inf),
     "log_bandwidths must exponentiate to finite positive values"),
    ("codes", np.full((2, 2), np.nan), "codes and code_map must be finite"),
    ("code_map", np.full((10, 2), np.inf), "codes and code_map must be finite"),
    ("data_digest", 12345, "model file field data_digest must be a string or null"),
]


@pytest.mark.parametrize("name, bad, message", UNSAVABLE_FIELDS,
                         ids=[case[0] for case in UNSAVABLE_FIELDS])
def test_save_model_refuses_an_invalid_field(tmp_path, name, bad, message):
    params = init_params(2, Hyperparams())
    # ModelParams checks every field but data_digest itself; set the value
    # past those checks so that save_model's own check is what refuses it
    object.__setattr__(params, name, bad)
    p = tmp_path / "m.json"
    with pytest.raises(ValidationError) as err:
        save_model(params, p)
    assert str(err.value) == message
    assert not p.exists()


def test_model_with_non_finite_hyperparams_fails_to_load(tmp_path):
    p = tmp_path / "m.json"
    save_model(init_params(2, Hyperparams()), p)
    doc = json.loads(p.read_text())
    doc["hyper"]["sigma"] = doc["hyper"]["lam"] = float("inf")
    p.write_text(json.dumps(doc))  # json writes Infinity, and json.load accepts it
    with pytest.raises(ValidationError) as err:
        load_model(p)
    assert str(err.value) == f"{p}: sigma must be finite, got inf"


def test_load_queries_maps_into_model_coordinates(tmp_path):
    params = init_params(2, Hyperparams())
    params = dataclasses.replace(
        params, time_scale=(0.0, 100.0), value_center=5.0, value_scale=2.0,
        class_labels=(3, 8),
    )
    p = tmp_path / "q.jsonl"
    write_lines(p, [
        json.dumps({"label": 8, "t": [0.0, 50.0, 100.0], "y": [5.0, 7.0, 9.0]}),
        json.dumps({"label": 3, "t": [110.0, 120.0], "y": [5.0, 5.0]}),
    ])
    classes, qs = load_queries(p, params, horizon=1.25)
    assert classes == [1, 0]
    assert np.allclose(qs[0].timestamps, [0.0, 0.5, 1.0])
    assert np.allclose(qs[0].values, [0.0, 1.0, 2.0])
    assert np.allclose(qs[1].timestamps, [1.1, 1.2])
    # the same file fails under the classification horizon, as a dataset
    # load through the model's scales does
    with pytest.raises(ValidationError) as err:
        load_queries(p, params, horizon=1.0)
    assert str(err.value) == (
        f"{p}: timestamp 120.0 maps to 1.2, outside the time scale "
        "[0.0, 100.0] (normalized range [0, 1.0])"
    )
    with pytest.raises(ValidationError, match="outside the time scale"):
        dataset_from_records(parse_ragged(p), params)
    # unknown label
    write_lines(p, [json.dumps({"label": 4, "t": [0.0, 1.0], "y": [0, 0]})])
    with pytest.raises(InputError):
        load_queries(p, params)


def test_file_digest_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"hello world")
    d1 = file_digest(p)
    assert d1 == file_digest(p)
    p.write_bytes(b"hello world!")
    assert file_digest(p) != d1
    assert d1 == hashlib.sha256(b"hello world").hexdigest()
    with pytest.raises(InputError, match="cannot read data file"):
        file_digest(tmp_path / "missing.jsonl")
