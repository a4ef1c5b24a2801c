"""The loader reads a file into flat arrays and checks and maps them in whole
passes. These tests hold it to a per-series reference written out here, to
the exact error of every kind of malformed line, and to a cost that does
not grow per series."""

import dataclasses
import json
import math
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motioncode import dataio
from motioncode.core import (Hyperparams, InputError, ParseError, SplitError,
                             TimeSeries, ValidationError)
from motioncode.dataio import (RaggedRecord, dataset_from_records, forecast_split,
                               load_dataset, load_queries)
from motioncode.optimizer import init_params

# ---------------------------------------------------------------------------
# a per-series reference


def reference_dataset(rows):
    """(time_scale, center, scale, {label: [(times, values), ...]}) computed
    one series at a time, the way the loader's results are defined."""
    t0 = min(min(t) for _, t, _ in rows)
    t1 = max(max(t) for _, t, _ in rows)
    all_values = np.concatenate([np.array(y, dtype=float) for _, _, y in rows])
    center = float(np.mean(all_values))
    std = float(np.std(all_values))
    scale = std if std > 0 else 1.0
    by_label = {}
    for label, t, y in rows:
        times = (np.array(t, dtype=float) - t0) / (t1 - t0)
        values = (np.array(y, dtype=float) - center) / scale
        by_label.setdefault(label, []).append((times, values))
    return (float(t0), float(t1)), center, scale, by_label


def reference_split(series, fraction):
    """Per-series ceil(fraction * n) cut; the SplitError message or halves."""
    train, test = [], []
    for k, (label, pairs) in enumerate(series):
        for idx, (t, y) in enumerate(pairs):
            n = t.size
            n_train = math.ceil(fraction * n - 1e-9)
            if n_train < 2 or n - n_train < 1:
                return (f"collection {k} series {idx}: {n} points split "
                        f"{n_train}/{n - n_train}; need at least 2 train and 1 test")
            train.append((t[:n_train], y[:n_train]))
            test.append((t[n_train:], y[n_train:]))
    return train, test


def reference_queries(rows, model, horizon, path):
    """Per-series map through the model's scales; an error message or the
    (class index, times, values) of every series."""
    t0, t1 = model.time_scale
    out = []
    for label, t, y in rows:
        t = np.array(t, dtype=float)
        times = (t - t0) / (t1 - t0)
        if times[0] < 0.0 or times[-1] > horizon:
            i = 0 if times[0] < 0.0 else -1
            return (f"{path}: timestamp {t[i]} maps to {times[i]:.4g}, outside the "
                    f"time scale [{t0}, {t1}] (normalized range [0, {horizon}])")
        if label not in model.class_labels:
            return f"label {label} is not one of the model's classes {model.class_labels}"
        values = (np.array(y, dtype=float) - model.value_center) / model.value_scale
        out.append((model.class_labels.index(label), times, values))
    return out


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def ragged_files(draw):
    """Rows of (label, t, y) with ints and floats mixed, plus the file text
    with blank lines between them. At least two distinct labels."""
    n_rows = draw(st.integers(2, 7))
    labels = draw(st.lists(st.sampled_from([7, 0, 3]), min_size=n_rows, max_size=n_rows))
    if len(set(labels)) < 2:
        labels[0] = 5
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = int(rng.integers(-100, 100))
    rows = []
    for label in labels:
        n = draw(st.integers(2, 600))
        # integer gaps of at least 1 stay increasing when an element gains .5
        t = (origin + np.cumsum(rng.integers(1, 4, n))).tolist()
        t = [v + 0.5 if half else v for v, half in zip(t, rng.random(n) < 0.5)]
        y = [int(v) if as_int else float(v) for v, as_int in
             zip(rng.normal(0.0, 20.0, n), rng.random(n) < 0.3)]
        rows.append((label, t, y))
    lines = []
    for label, t, y in rows:
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(json.dumps({"label": label, "t": t, "y": y}))
    return rows, "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(ragged_files(), st.sampled_from([0.8, 1.0, 1.1]), st.booleans())
def test_flat_loader_matches_per_series_reference(drawn, stretch, drop_label):
    rows, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

        ds = load_dataset(path)
        time_scale, center, scale, by_label = reference_dataset(rows)
        assert ds.time_scale == time_scale
        assert (ds.value_center, ds.value_scale) == (center, scale)
        assert ds.class_labels == tuple(sorted(by_label))
        expected = [(label, by_label[label]) for label in sorted(by_label)]
        for col, (_, pairs) in zip(ds.collections, expected):
            assert len(col.series) == len(pairs)
            for ts, (t, y) in zip(col.series, pairs):
                assert same_bytes(ts.timestamps, t) and same_bytes(ts.values, y)
                assert not ts.timestamps.flags.writeable

        want = reference_split(expected, 0.8)
        if isinstance(want, str):
            with pytest.raises(SplitError) as err:
                forecast_split(ds, 0.8)
            assert str(err.value) == want
        else:
            train, test = forecast_split(ds, 0.8)
            got = [(ts.timestamps, ts.values)
                   for side in (train, test) for col in side.collections for ts in col.series]
            for (gt, gy), (t, y) in zip(got, want[0] + want[1]):
                assert same_bytes(gt, t) and same_bytes(gy, y)
            assert len(got) == len(want[0]) + len(want[1])

        labels = tuple(sorted(by_label))[int(drop_label):]
        t0, t1 = time_scale
        model = dataclasses.replace(
            init_params(len(labels), Hyperparams()),
            time_scale=(t0, t0 + stretch * (t1 - t0)), value_center=center,
            value_scale=scale, class_labels=labels,
        )
        for horizon in (1.0, 1.25):
            want = reference_queries(rows, model, horizon, path)
            if isinstance(want, str):
                with pytest.raises(InputError) as err:
                    load_queries(path, model, horizon=horizon)
                assert str(err.value) == want
                continue
            got = load_queries(path, model, horizon=horizon)
            assert len(got) == len(want)
            for q, (k, t, y) in zip(got, want):
                assert q.class_index == k
                assert same_bytes(q.times, t) and same_bytes(q.values, y)


# ---------------------------------------------------------------------------
# malformed files: the exact error, path and line


GOOD = json.dumps({"label": 0, "t": [0, 1, 2], "y": [1, 2, 3]})
GOOD_1 = json.dumps({"label": 1, "t": [0.5, 1.5], "y": [1.5, -2]})
BIG = 10**400


def ragged(**fields):
    return json.dumps(fields)


NOT_NUMERIC = "ParseError", "field '{}' must be a numeric array"
TOO_BIG = "ParseError", "field '{}' must be a numeric array of floats"

# (name, format, lines, error type, line, message)
MALFORMED = [
    # one fault of every kind, ragged
    ("json", "ragged", [GOOD, "{not json", GOOD_1], "ParseError", 2,
     "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("extra-data", "ragged", [GOOD, GOOD_1 + " x"], "ParseError", 2, "invalid JSON (Extra data)"),
    ("not-object", "ragged", [GOOD, "[1, 2]"], "ParseError", 2, "record must be a JSON object"),
    ("missing-t", "ragged", [GOOD, ragged(label=1, y=[1, 2])], "ParseError", 2,
     "missing field 't'"),
    ("label-type", "ragged", [GOOD, ragged(label=True, t=[0, 1], y=[1, 2])], "ParseError", 2,
     "label must be an integer, got True"),
    ("t-not-list", "ragged", [GOOD, ragged(label=1, t=5, y=[1, 2])], "ParseError", 2,
     "field 't' must be a numeric array"),
    ("y-not-list", "ragged", [GOOD, ragged(label=1, t=[0, 1], y={"a": 1})], "ParseError", 2,
     "field 'y' must be a numeric array"),
    ("t-bool", "ragged", [GOOD, GOOD_1, ragged(label=1, t=[0, True, 2], y=[1, 2, 3])],
     "ParseError", 3, "field 't' must be a numeric array"),
    ("y-null", "ragged", [GOOD, ragged(label=1, t=[0, 1, 2], y=[1, None, 3])],
     "ParseError", 2, "field 'y' must be a numeric array"),
    ("t-overflow", "ragged", [GOOD, '{"label": 1, "t": [0, %d], "y": [1, 2]}' % BIG],
     "ParseError", 2, "field 't' must be a numeric array of floats"),
    ("y-overflow", "ragged", [GOOD, '{"label": 1, "t": [0, 1], "y": [%d, 2]}' % -BIG],
     "ParseError", 2, "field 'y' must be a numeric array of floats"),
    ("lengths", "ragged", [GOOD, ragged(label=1, t=[0, 1, 2], y=[1, 2])], "ValidationError", 2,
     "record arrays must be equal-length 1-d, got (3,) and (2,)"),
    ("one-point", "ragged", [GOOD, ragged(label=1, t=[0], y=[1])], "ValidationError", 2,
     "record needs at least two points"),
    ("no-points", "ragged", [ragged(label=1, t=[], y=[]), GOOD], "ValidationError", 1,
     "record needs at least two points"),
    ("t-nan", "ragged", [GOOD, '{"label": 1, "t": [0, NaN], "y": [1, 2]}'], "ValidationError",
     2, "record values must be finite"),
    ("y-infinity", "ragged", [GOOD, '{"label": 1, "t": [0, 1], "y": [1, -Infinity]}'],
     "ValidationError", 2, "record values must be finite"),
    ("not-increasing", "ragged", [GOOD, ragged(label=1, t=[0, 2, 2], y=[1, 2, 3])],
     "ValidationError", 2, "record timestamps must be strictly increasing"),
    ("negative-label", "ragged", [GOOD, ragged(label=-3, t=[0, 1], y=[1, 2])],
     "ValidationError", 2, "record label must be a non-negative integer, got -3"),
    ("empty-file", "ragged", ["", "  "], "ParseError", None, "file contains no records"),
    # a fault on the first element of a later record names that record
    ("nan-first-element", "ragged", [GOOD, GOOD_1, '{"label": 1, "t": [NaN, 1], "y": [1, 2]}'],
     "ValidationError", 3, "record values must be finite"),
    ("decrease-at-start", "ragged", [GOOD, GOOD_1, ragged(label=1, t=[2, 1], y=[1, 2])],
     "ValidationError", 3, "record timestamps must be strictly increasing"),
    ("bad-after-empty", "ragged", [GOOD, ragged(label=1, t=[], y=[]), GOOD_1],
     "ValidationError", 2, "record needs at least two points"),
    # two faults on different lines: the lower line wins, whatever the kinds
    ("nan-then-json", "ragged", [GOOD, '{"label": 1, "t": [0, NaN], "y": [1, 2]}', "",
                                 GOOD_1, "{not json"],
     "ValidationError", 2, "record values must be finite"),
    ("json-then-nan", "ragged", [GOOD, "{not json", GOOD_1,
                                 '{"label": 1, "t": [0, NaN], "y": [1, 2]}'],
     "ParseError", 2, "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("label-then-nan", "ragged", [GOOD, ragged(label=-1, t=[0, 1], y=[1, 2]),
                                  '{"label": 1, "t": [0, NaN], "y": [1, 2]}'],
     "ValidationError", 2, "record label must be a non-negative integer, got -1"),
    ("decrease-then-type", "ragged", [GOOD, ragged(label=1, t=[1, 0], y=[1, 2]),
                                      ragged(label=1, t=[0, "1"], y=[1, 2])],
     "ValidationError", 2, "record timestamps must be strictly increasing"),
    ("overflow-then-short", "ragged", [GOOD, '{"label": 1, "t": [0, %d], "y": [1, 2]}' % BIG,
                                       ragged(label=1, t=[0], y=[1])],
     "ParseError", 2, "field 't' must be a numeric array of floats"),
    # two faults on one line: the line's first check wins
    ("t-bool-y-not-list", "ragged", [GOOD, ragged(label=1, t=[0, False], y=3)],
     "ParseError", 2, "field 't' must be a numeric array"),
    ("t-overflow-y-not-list", "ragged", [GOOD, '{"label": 1, "t": [0, %d], "y": 3}' % BIG],
     "ParseError", 2, "field 't' must be a numeric array of floats"),
    ("t-overflow-y-str", "ragged", [GOOD, '{"label": 1, "t": [0, %d], "y": [1, "x"]}' % BIG],
     "ParseError", 2, "field 't' must be a numeric array of floats"),
    ("t-overflow-t-str", "ragged", [GOOD, '{"label": 1, "t": [%d, "x"], "y": [1, 2]}' % BIG],
     "ParseError", 2, "field 't' must be a numeric array"),
    ("lengths-one-point", "ragged", [GOOD, ragged(label=1, t=[0], y=[1, 2])],
     "ValidationError", 2, "record arrays must be equal-length 1-d, got (1,) and (2,)"),
    ("one-point-nan", "ragged", [GOOD, '{"label": 1, "t": [NaN], "y": [1]}'],
     "ValidationError", 2, "record needs at least two points"),
    ("nan-decrease", "ragged", [GOOD, '{"label": 1, "t": [0, 2, 1], "y": [NaN, 2, 3]}'],
     "ValidationError", 2, "record values must be finite"),
    ("decrease-negative", "ragged", [GOOD, ragged(label=-1, t=[0, 2, 1], y=[1, 2, 3])],
     "ValidationError", 2, "record timestamps must be strictly increasing"),
    # a line's shape is checked after its elements, and a numeric fault on an
    # earlier line still wins over a badly shaped line
    ("t-overflow-one-point", "ragged", [GOOD, '{"label": 1, "t": [0, %d], "y": [1]}' % BIG],
     "ParseError", 2, "field 't' must be a numeric array of floats"),
    ("y-bool-one-point", "ragged", [GOOD, '{"label": 1, "t": [0], "y": [true]}'],
     "ParseError", 2, "field 'y' must be a numeric array"),
    ("nan-then-lengths", "ragged", [GOOD, '{"label": 1, "t": [0, NaN], "y": [1, 2]}',
                                    ragged(label=1, t=[0, 1, 2], y=[1, 2])],
     "ValidationError", 2, "record values must be finite"),
    ("lengths-then-nan", "ragged", [GOOD, ragged(label=1, t=[0, 1, 2], y=[1, 2]),
                                    '{"label": 1, "t": [0, NaN], "y": [1, 2]}'],
     "ValidationError", 2, "record arrays must be equal-length 1-d, got (3,) and (2,)"),
    # one fault of every kind, UCR
    ("ucr-few", "ucr", ["1,0.0,0.5", "1,0.5"], "ParseError", 2,
     "row needs a label plus at least two values"),
    ("ucr-label", "ucr", ["1,0.0,0.5", "x,0.1,0.2"], "ParseError", 2,
     "label field 'x' is not numeric"),
    ("ucr-label-fraction", "ucr", ["1,0.0,0.5", "1.5,0.1,0.2"], "ParseError", 2,
     "label '1.5' is not an integer"),
    ("ucr-value", "ucr", ["1,0.0,0.5", "2,0.1,zz"], "ParseError", 2,
     "bad value field: could not convert string to float: 'zz'"),
    ("ucr-width", "ucr", ["1\t0.0\t0.5\t1.0", "2\t0.1\t0.2"], "ParseError", 2,
     "row has 2 values but earlier rows have 3 (uneven data belongs in the ragged format)"),
    ("ucr-infinite", "ucr", ["1,0.0,0.5", "2,1e400,0.2"], "ValidationError", 2,
     "record values must be finite"),
    ("ucr-negative-label", "ucr", ["1,0.0,0.5", "-2,0.1,0.2"], "ValidationError", 2,
     "record label must be a non-negative integer, got -2"),
    # UCR, two faults on different lines and on one line
    ("ucr-nan-then-width", "ucr", ["1,0.0,0.5,1.0", "2,nan,0.2,0.3", "1,0.1,0.2,0.3", "2,1,2"],
     "ValidationError", 2, "record values must be finite"),
    ("ucr-negative-then-value", "ucr", ["1,0.0,0.5", "-2,0.1,0.2", "2,zz,0.2"],
     "ValidationError", 2, "record label must be a non-negative integer, got -2"),
    ("ucr-negative-nan", "ucr", ["1,0.0,0.5", "-2,nan,0.2"], "ValidationError", 2,
     "record values must be finite"),
]


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("name, fmt, lines, kind, line, message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_file_errors(tmp_path, monkeypatch, chunk, name, fmt, lines, kind,
                               line, message):
    # small chunks put record boundaries and faults on chunk boundaries
    if chunk:
        monkeypatch.setattr(dataio, "CHUNK_POINTS", chunk)
    path = tmp_path / ("data.jsonl" if fmt == "ragged" else "data.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises((ParseError, ValidationError)) as err:
        load_dataset(path, fmt)
    assert type(err.value).__name__ == kind
    where = f"{path}:{line}" if line else f"{path}"
    assert str(err.value) == f"{where}: {message}"


def test_int_fields_load_to_the_floats_numpy_makes(tmp_path):
    """Ints near and past 2**53 and 2**63 round as np.array(..., dtype=float)
    rounds them."""
    y = [2**53 + 1, 0.5, 2**63 + 1, 3, -(2**63) - 1, 10**300, -7, 1.25, 2**53 + 3]
    t = list(range(len(y)))
    path = tmp_path / "ints.jsonl"
    path.write_text(ragged(label=0, t=t, y=y) + "\n" + ragged(label=1, t=t, y=y[::-1]) + "\n",
                    encoding="utf-8")
    records = dataio.parse_ragged(path)
    assert same_bytes(records.t, np.array(t + t, dtype=float))
    assert same_bytes(records.y, np.array(y + y[::-1], dtype=float))


NAN_RECORD = RaggedRecord(1, np.array([0.0, np.nan]), np.array([1.0, 2.0]))
UNEVEN_RECORD = RaggedRecord(1, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("records, message", [
    ([NAN_RECORD, UNEVEN_RECORD], "record values must be finite"),
    ([UNEVEN_RECORD, NAN_RECORD], "record arrays must be equal-length 1-d, got (3,) and (2,)"),
], ids=["nan-then-lengths", "lengths-then-nan"])
def test_hand_built_records_report_the_first_bad_record(records, message):
    good = RaggedRecord(0, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError) as err:
        dataset_from_records([good, *records])
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# records that pass every rule but break one once mapped: the map can
# overflow, or round two times into one


def query_model(value_scale):
    """A two-class model over raw times [0, 2], values centered at 0."""
    return dataclasses.replace(init_params(2, Hyperparams()), time_scale=(0.0, 2.0),
                               value_center=0.0, value_scale=value_scale,
                               class_labels=(0, 1))


OUT_OF_RANGE = "timestamp 3.0 maps to 1.5, outside the time scale [0.0, 2.0] (normalized range [0, 1.0])"
HUGE_Y = ragged(label=1, t=[0, 1], y=[1e10, 2])

# (name, lines, value_scale of the queries' model or None to load a dataset, message)
MAPPED = [
    ("span-overflows", [ragged(label=0, t=[-1e308, 0], y=[1, 2]),
                        ragged(label=1, t=[0, 1e308], y=[3, 4])],
     None, "timestamps must be strictly increasing"),
    ("times-round-together", [ragged(label=0, t=[-1e20, 0], y=[1, 2]),
                              ragged(label=1, t=[0, 1, 2], y=[3, 4, 5])],
     None, "timestamps must be strictly increasing"),
    ("value-overflows", [GOOD, HUGE_Y], 1e-300, "timestamps and values must be finite"),
    # the first bad record wins, and on one record the range check comes first
    ("overflow-then-range", [HUGE_Y, ragged(label=0, t=[0, 3], y=[1, 2])], 1e-300,
     "timestamps and values must be finite"),
    ("range-then-overflow", [ragged(label=0, t=[0, 3], y=[1, 2]), HUGE_Y], 1e-300,
     OUT_OF_RANGE),
    ("range-and-overflow", [ragged(label=1, t=[0, 3], y=[1e10, 2])], 1e-300, OUT_OF_RANGE),
    ("overflow-then-label", [HUGE_Y, ragged(label=4, t=[0, 1], y=[1, 2])], 1e-300,
     "timestamps and values must be finite"),
]


@pytest.mark.parametrize("name, lines, value_scale, message", MAPPED,
                         ids=[case[0] for case in MAPPED])
def test_mapping_faults(tmp_path, name, lines, value_scale, message):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        if value_scale is None:
            load_dataset(path)
        else:
            load_queries(path, query_model(value_scale))
    assert str(err.value) == f"{path}: {message}"


def test_unknown_label_before_a_mapping_fault(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(ragged(label=4, t=[0, 1], y=[1, 2]) + "\n" + HUGE_Y + "\n",
                    encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_queries(path, query_model(1e-300))
    assert str(err.value) == "label 4 is not one of the model's classes (0, 1)"


# ---------------------------------------------------------------------------
# cost: counted, not timed


def write_series_file(path, n_series):
    rng = np.random.default_rng(n_series)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_series):
            n = int(rng.integers(8, 13))
            t = np.cumsum(rng.uniform(0.5, 1.5, n))
            handle.write(json.dumps({"label": i % 2, "t": t.tolist(),
                                     "y": rng.normal(size=n).tolist()}) + "\n")


def test_flat_load_cost_does_not_grow_per_series(tmp_path, monkeypatch):
    """Loading builds no validating TimeSeries or RaggedRecord, and makes as
    many numpy reductions for 2000 series as for 10."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("isfinite", "diff", "flatnonzero", "searchsorted", "argmin", "argmax",
                 "mean", "std"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    monkeypatch.setattr(TimeSeries, "__post_init__",
                        counted("TimeSeries", TimeSeries.__post_init__))
    monkeypatch.setattr(dataio, "RaggedRecord", counted("RaggedRecord", dataio.RaggedRecord))

    seen = {}
    for n_series in (10, 2000):
        path = tmp_path / f"data{n_series}.jsonl"
        write_series_file(path, n_series)
        counts.clear()
        ds = load_dataset(path)
        forecast_split(ds, 0.8)
        model = dataclasses.replace(init_params(2, Hyperparams()), time_scale=ds.time_scale)
        assert len(load_queries(path, model)) == n_series
        assert sum(len(c.series) for c in ds.collections) == n_series
        seen[n_series] = dict(counts)
    assert seen[10] == seen[2000]
    assert seen[2000].get("TimeSeries", 0) == 0
    assert seen[2000].get("RaggedRecord", 0) == 0
    assert seen[2000]["isfinite"] >= 2  # the counters see the flat pass
