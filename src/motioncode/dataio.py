"""
dataio.py - dataset file formats, the map into model coordinates, noise
injection, splits, and model persistence.

Ragged dataset format (one JSON object per line, UTF-8):

    {"label": 0, "t": [10.0, 11.5, 14.0], "y": [0.2, -0.1, 0.4]}

Timestamps are in original units and strictly increasing per record; every
record needs at least two points. Loading computes one shared time scale
(min t, max t over the whole file), maps every timestamp into [0, 1], and
centers values globally: subtract the dataset mean, divide by the dataset
standard deviation. to_model_coordinates is that map and to_original_units
its inverse; this module is the only place either is written out.

Files are read into flat form (Records): every timestamp of the file in one
array, every value in another, and the offsets where each record starts.
Per line the parsers only decode the line and check its structure; each
numeric rule (element types, float overflow, finite values, two points per
record, strictly increasing times) then runs once over the flat arrays, and
the map into model coordinates is one pass over them too, which checks that
the mapped times and values are still finite and increasing. A loaded series
is a read-only view into the mapped arrays. An error names the file and
the line of the first bad record, as a line-by-line check would.

Test files for classify and forecast go through the same map, with the
scales stored in the model. Forecast queries may reach normalized time
FORECAST_HORIZON (1.25); any other timestamp outside [0, 1] raises a
ValidationError naming the file, so the CLI exits with code 1.

UCR-style format: one series per line, delimiter-separated (tab or comma),
first field the integer label, remaining fields equal-length values on the
implicit grid i/(N-1).

Model files are a single JSON object with format_version 1; floats use
Python repr, which round-trips bit-exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    Collection,
    Dataset,
    Hyperparams,
    InputError,
    ModelParams,
    ParseError,
    Scales,
    SplitError,
    TimeSeries,
    ValidationError,
    VersionError,
)

__all__ = [
    "RaggedRecord",
    "Records",
    "QueryRecord",
    "MODEL_FORMAT_VERSION",
    "parse_ragged",
    "parse_ucr_style",
    "parse_records",
    "in_file",
    "to_model_coordinates",
    "to_original_units",
    "model_series",
    "dataset_from_records",
    "load_dataset",
    "load_queries",
    "write_ragged",
    "inject_noise",
    "forecast_split",
    "save_model",
    "load_model",
    "file_digest",
]

MODEL_FORMAT_VERSION = 1

# parsed numbers are turned from Python lists into float arrays this many
# at a time, so the lists held at once stay small whatever the file size
CHUNK_POINTS = 1 << 14

_NUMERIC = {int, float}


class RaggedRecord(NamedTuple):
    """One labeled series in original units. Nothing is checked here:
    dataset_from_records checks a list of them in one flat pass."""

    label: int
    t: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Records:
    """Checked records in flat form. Record i has label labels[i], the
    timestamps t[offsets[i]:offsets[i + 1]] and the values y at the same
    positions, all in original units. Iterating yields RaggedRecord views."""

    labels: tuple[int, ...]
    t: np.ndarray
    y: np.ndarray
    offsets: np.ndarray

    def __iter__(self):
        bounds = self.offsets.tolist()
        for label, a, b in zip(self.labels, bounds, bounds[1:]):
            yield RaggedRecord(label, self.t[a:b], self.y[a:b])


@dataclass(frozen=True)
class QueryRecord:
    """One test series mapped into a model's coordinate system.

    class_index is the model-internal class id; times are normalized (and
    may exceed 1 for forecast queries); values are centered.
    """

    class_index: int
    times: np.ndarray
    values: np.ndarray


@contextlib.contextmanager
def in_file(path):
    """Prefix the path of the file being read to any ValidationError raised
    in the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _offsets(lengths) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _joined(parts) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0)


def _record_of(offsets, element) -> int:
    """The record holding the flat array's element; empty records hold none."""
    return int(np.searchsorted(offsets, element, side="right")) - 1


def _first_stall(t, offsets):
    """The first element of t whose next one is not larger, not counting
    the step from one record into the next, or None."""
    stalled = t[1:] <= t[:-1]
    starts = offsets[1:-1]
    stalled[starts[(starts > 0) & (starts < t.size)] - 1] = False
    return int(np.argmax(stalled)) if stalled.any() else None


def _floats(values):
    """values as a float array, or None when one of them is not an int or
    float or is an int too large for a float."""
    if not set(map(type, values)) <= _NUMERIC:
        return None
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return None


def _field_fault(key, seq):
    """The ParseError of one record's field, or None when _floats takes it."""
    if not set(map(type, seq)) <= _NUMERIC:
        return ParseError(f"field '{key}' must be a numeric array")
    if _floats(seq) is None:
        return ParseError(f"field '{key}' must be a numeric array of floats")
    return None


def _element_fault(t_values, y_values, t_lengths, y_lengths):
    """(record, ParseError) of the first buffered record whose t or y holds
    an element _floats rejects; t is checked before y, as on one line."""
    t_end = y_end = 0
    for r, (nt, ny) in enumerate(zip(t_lengths, y_lengths)):
        t_end, y_end = t_end + nt, y_end + ny
        fault = (_field_fault("t", t_values[t_end - nt:t_end])
                 or _field_fault("y", y_values[y_end - ny:y_end]))
        if fault:
            return r, fault
    raise AssertionError("no buffered record holds a rejected element")


def _record_fault(labels, t, y, t_offsets, y_offsets):
    """(record, ValidationError) of the first record that breaks a record
    rule, or None. Each rule runs once over the flat arrays; a record that
    breaks several reports the first in this order: equal lengths, two
    points, finite values, increasing times, a non-negative label."""
    t_len, y_len = np.diff(t_offsets), np.diff(y_offsets)
    found = []
    bad = np.flatnonzero(t_len != y_len)
    if bad.size:
        r = int(bad[0])
        found.append((r, 0, f"record arrays must be equal-length 1-d, got "
                            f"({t_len[r]},) and ({y_len[r]},)"))
    bad = np.flatnonzero(t_len < 2)
    if bad.size:
        found.append((int(bad[0]), 1, "record needs at least two points"))
    for values, offsets in ((t, t_offsets), (y, y_offsets)):
        finite = np.isfinite(values)
        if not finite.all():
            found.append((_record_of(offsets, np.argmin(finite)), 2,
                          "record values must be finite"))
    stall = _first_stall(t, t_offsets)
    if stall is not None:
        found.append((_record_of(t_offsets, stall), 3,
                      "record timestamps must be strictly increasing"))
    if labels and min(labels) < 0:
        r = next(i for i, label in enumerate(labels) if label < 0)
        found.append((r, 4, f"record label must be a non-negative integer, "
                            f"got {labels[r]}"))
    if not found:
        return None
    r, _, message = min(found)
    return r, ValidationError(message)


def _read_records(path, parse_line) -> Records:
    """Read a data file into Records, one record per non-blank line.

    parse_line(text) returns the line's (label, t, y), t and y lists of
    numbers, or raises ParseError. Their numbers go into flat buffers,
    converted to float arrays CHUNK_POINTS at a time, and every numeric rule
    then runs once over the whole file. Errors get the path and the line of
    the first bad record: reading stops at a line that does not parse, and
    a rule that an earlier line breaks wins over that line's error.
    """
    labels, lines, t_lengths, y_lengths = [], [], [], []
    t_buf, y_buf, t_parts, y_parts = [], [], [], []
    flushed = 0  # records already converted
    fault = None  # (record, error) of the first bad record found so far

    def flush():
        # on an element fault only the records before it are kept
        nonlocal flushed
        t, y = _floats(t_buf), _floats(y_buf)
        fault = None
        if t is None or y is None:
            r, exc = _element_fault(t_buf, y_buf, t_lengths[flushed:], y_lengths[flushed:])
            fault = (flushed + r, exc)
            t = np.array(t_buf[:sum(t_lengths[flushed:flushed + r])], dtype=float)
            y = np.array(y_buf[:sum(y_lengths[flushed:flushed + r])], dtype=float)
        t_parts.append(t)
        y_parts.append(y)
        t_buf.clear()
        y_buf.clear()
        flushed = len(t_lengths)
        return fault

    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    with handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            lines.append(line_no)
            try:
                label, t, y = parse_line(stripped)
            except ParseError as exc:
                fault = (len(labels), exc)
                break
            labels.append(label)
            t_lengths.append(len(t))
            y_lengths.append(len(y))
            t_buf += t
            y_buf += y
            if len(t_buf) >= CHUNK_POINTS:
                fault = flush()
                if fault:
                    break
    # records still in the buffers come before any line that failed to parse
    if t_buf or y_buf:
        fault = flush() or fault
    n = fault[0] if fault else len(labels)
    t, y = _joined(t_parts), _joined(y_parts)
    t_offsets = _offsets(t_lengths[:n])
    fault = _record_fault(labels[:n], t, y, t_offsets, _offsets(y_lengths[:n])) or fault
    if fault:
        r, exc = fault
        raise type(exc)(f"{path}:{lines[r]}: {exc}") from None
    if not labels:
        raise ParseError(f"{path}: file contains no records")
    return Records(tuple(labels), t, y, t_offsets)


def _ragged_line(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})") from None
    if type(obj) is not dict:
        raise ParseError("record must be a JSON object")
    try:
        label, t, y = obj["label"], obj["t"], obj["y"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
    # json.loads builds plain ints, and type(True) is bool, so booleans
    # fail this check as they should
    if type(label) is not int:
        raise ParseError(f"label must be an integer, got {label!r}")
    if type(t) is not list:
        raise ParseError("field 't' must be a numeric array")
    if type(y) is not list:
        # t's own fault comes first on its line
        raise _field_fault("t", t) or ParseError("field 'y' must be a numeric array")
    return label, t, y


def parse_ragged(path) -> Records:
    """Read ragged records from a JSON-lines file, one object per line."""
    return _read_records(path, _ragged_line)


def parse_ucr_style(path) -> Records:
    """Read grid-sampled records: label first, then equal-length values."""
    width = grid = None

    def ucr_line(text):
        nonlocal width, grid
        fields = text.split("\t") if "\t" in text else text.split(",")
        if len(fields) < 3:
            raise ParseError("row needs a label plus at least two values")
        try:
            raw_label = float(fields[0])
        except ValueError:
            raise ParseError(f"label field {fields[0]!r} is not numeric") from None
        if not raw_label.is_integer():
            raise ParseError(f"label {fields[0]!r} is not an integer")
        try:
            values = list(map(float, fields[1:]))
        except ValueError as exc:
            raise ParseError(f"bad value field: {exc}") from None
        n = len(values)
        if width is None:
            width, grid = n, np.linspace(0.0, 1.0, n).tolist()
        elif n != width:
            raise ParseError(
                f"row has {n} values but earlier rows have {width} "
                "(uneven data belongs in the ragged format)"
            )
        return int(raw_label), grid, values

    return _read_records(path, ucr_line)


def parse_records(path, fmt: str) -> Records:
    """Read a data file's records; fmt is 'ragged' or 'ucr'."""
    if fmt == "ragged":
        return parse_ragged(path)
    if fmt == "ucr":
        return parse_ucr_style(path)
    raise InputError(f"unknown data format {fmt!r} (expected 'ragged' or 'ucr')")


def _flat(records) -> Records:
    """Records as they are, or a list of RaggedRecords concatenated into
    Records and checked by the same rules as a file."""
    if isinstance(records, Records):
        return records
    labels, ts, ys = [], [], []
    for r in records:
        t, y = np.asarray(r.t, dtype=float), np.asarray(r.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1:
            raise ValidationError(
                f"record arrays must be equal-length 1-d, got {t.shape} and {y.shape}"
            )
        if r.label != int(r.label):
            raise ValidationError(
                f"record label must be a non-negative integer, got {r.label}")
        labels.append(int(r.label))
        ts.append(t)
        ys.append(y)
    t, y = _joined(ts), _joined(ys)
    t_offsets = _offsets([a.size for a in ts])
    fault = _record_fault(labels, t, y, t_offsets, _offsets([a.size for a in ys]))
    if fault:
        raise fault[1]
    return Records(tuple(labels), t, y, t_offsets)


def to_model_coordinates(scales, t, y, horizon: float = 1.0, offsets=None):
    """Map raw timestamps t and values y into model coordinates through the
    map of a Scales, Dataset or ModelParams; returns (times, values).

    t and y may hold several series back to back, series i at
    offsets[i]:offsets[i + 1] (one series when offsets is None), each with
    increasing times. Every time must land in [0, horizon]: 1.0 for
    datasets and classify queries, FORECAST_HORIZON for forecast queries.
    The map can overflow or round two times into one, so the mapped times
    and values must also be finite, and the times strictly increasing. The
    first series that breaks a rule is reported, for the first rule it
    breaks in that order.
    """
    t0, t1 = scales.time_scale
    # an overflow here is reported below as a broken rule
    with np.errstate(over="ignore", invalid="ignore"):
        times = (t - t0) / (t1 - t0)
        values = (y - scales.value_center) / scales.value_scale
    if offsets is None:
        offsets = np.array([0, times.size])
    starts, ends = offsets[:-1], offsets[1:] - 1
    low, high = times[starts] < 0.0, times[ends] > horizon
    found = []
    outside = np.flatnonzero(low | high)
    if outside.size:
        r = int(outside[0])
        i = starts[r] if low[r] else ends[r]
        found.append((r, 0, f"timestamp {t[i]} maps to {times[i]:.4g}, outside the time "
                            f"scale [{t0}, {t1}] (normalized range [0, {horizon}])"))
    finite = np.isfinite(times) & np.isfinite(values)
    if not finite.all():
        found.append((_record_of(offsets, np.argmin(finite)), 1,
                      "timestamps and values must be finite"))
    stall = _first_stall(times, offsets)
    if stall is not None:
        found.append((_record_of(offsets, stall), 2,
                      "timestamps must be strictly increasing"))
    if found:
        raise ValidationError(min(found)[2])
    return times, values


def to_original_units(scales, t=(), y=(), var=()):
    """The inverse of to_model_coordinates: (times, values, variances) in
    original units for the timestamps t, values y and variances var, any of
    which may be left out."""
    t0, t1 = scales.time_scale
    center, scale = scales.value_center, scales.value_scale
    return (
        t0 + np.asarray(t, dtype=float) * (t1 - t0),
        center + scale * np.asarray(y, dtype=float),
        scale * scale * np.asarray(var, dtype=float),
    )


def _mapped(scales, records: Records, horizon=1.0):
    """Every record mapped into model coordinates by one
    to_model_coordinates call: [(times, values) read-only views]."""
    times, values = to_model_coordinates(scales, records.t, records.y, horizon,
                                         records.offsets)
    times.setflags(write=False)
    values.setflags(write=False)
    bounds = records.offsets.tolist()
    return [(times[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]


def model_series(scales, records) -> list[TimeSeries]:
    """Records (or a list of RaggedRecords) mapped into the model
    coordinates of a Scales, Dataset or ModelParams, one TimeSeries view per
    record in input order."""
    return [TimeSeries.view(t, y) for t, y in _mapped(scales, _flat(records))]


def dataset_from_records(records, time_scale=None, value_center=None,
                         value_scale=None) -> Dataset:
    """Assemble a Dataset from Records or a list of RaggedRecords, mapping
    every record into model coordinates.

    Each scale not supplied is computed from the records: the time range
    over every record, and the mean and standard deviation of every value
    (a standard deviation of 0 becomes 1). Supply all three to bring test
    data into a trained model's coordinates.
    """
    records = _flat(records)
    if not records.labels:
        raise ValidationError("no records to assemble")
    if time_scale is None:
        time_scale = (float(records.t.min()), float(records.t.max()))
    if value_center is None or value_scale is None:
        # values near the float limit overflow here; Scales rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            if value_center is None:
                value_center = float(np.mean(records.y))
            if value_scale is None:
                std = float(np.std(records.y))
                value_scale = std if std > 0 else 1.0
    scales = Scales(time_scale, value_center, value_scale)
    by_label = {}
    for label, (t, y) in zip(records.labels, _mapped(scales, records)):
        by_label.setdefault(label, []).append(TimeSeries.view(t, y))
    labels = sorted(by_label)
    collections = tuple(
        Collection(idx, tuple(by_label[lbl])) for idx, lbl in enumerate(labels)
    )
    return Dataset(collections, scales.time_scale, scales.value_center,
                   scales.value_scale, tuple(labels))


def load_dataset(path, fmt: str = "ragged") -> Dataset:
    """Load a dataset file in either format. Needs at least two distinct labels."""
    records = parse_records(path, fmt)
    with in_file(path):
        ds = dataset_from_records(records)
    if ds.n_classes < 2:
        raise ValidationError(
            f"{path}: dataset has {ds.n_classes} label(s); at least 2 are needed"
        )
    return ds


def load_queries(path, model: ModelParams, fmt: str = "ragged",
                 horizon: float = 1.0) -> list[QueryRecord]:
    """Load test records into a trained model's coordinate system with
    to_model_coordinates, and map their labels to model class indices.
    The first record with a timestamp out of range or a label the model
    does not know is reported; a record with both, for its timestamp."""
    records = parse_records(path, fmt)
    index = {label: k for k, label in enumerate(model.class_labels)}
    unknown = next((r for r, label in enumerate(records.labels) if label not in index),
                   None)
    with in_file(path):
        if unknown is not None:
            # a timestamp out of range up to that record is reported first
            stop = records.offsets[unknown + 1]
            to_model_coordinates(model, records.t[:stop], records.y[:stop], horizon,
                                 records.offsets[:unknown + 2])
            model.class_index(records.labels[unknown])
        mapped = _mapped(model, records, horizon)
    return [QueryRecord(index[label], t, y)
            for label, (t, y) in zip(records.labels, mapped)]


def write_ragged(dataset: Dataset, path):
    """Write a dataset back to the ragged format in original units."""
    with open(path, "w", encoding="utf-8") as handle:
        for col in dataset.collections:
            label = dataset.class_labels[col.label]
            for ts in col.series:
                t_raw, y_raw, _ = to_original_units(dataset, ts.timestamps, ts.values)
                obj = {"label": int(label), "t": list(t_raw), "y": list(y_raw)}
                handle.write(json.dumps(obj) + "\n")


def inject_noise(dataset: Dataset, level: float, seed: int,
                 per_series: bool = False) -> Dataset:
    """Add Gaussian noise with std = level * max |value| to every value.

    The maximum is taken over the whole dataset (pre-noise); per_series
    scopes it to each series instead. level 0 returns the dataset as is.
    Deterministic for a fixed seed.
    """
    if level < 0:
        raise ValidationError(f"noise level must be >= 0, got {level}")
    if level == 0:
        return dataset
    rng = np.random.default_rng(seed)
    if not per_series:
        peak = max(
            float(np.max(np.abs(ts.values)))
            for col in dataset.collections
            for ts in col.series
        )
        global_std = level * peak
    collections = []
    for col in dataset.collections:
        series = []
        for ts in col.series:
            std = level * float(np.max(np.abs(ts.values))) if per_series else global_std
            noisy = ts.values + rng.normal(0.0, std, ts.values.size) if std > 0 else ts.values
            series.append(TimeSeries(ts.timestamps, noisy))
        collections.append(Collection(col.label, tuple(series)))
    return replace(dataset, collections=tuple(collections))


def forecast_split(dataset: Dataset, fraction: float):
    """Split every series in time: first ceil(fraction * N) points train,
    the rest test. Both sides share the dataset's scales, so test times sit
    beyond the train region on the same axis. Each side of a series is a
    view of it."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"split fraction must be in (0, 1), got {fraction}")
    train_cols, test_cols = [], []
    for col in dataset.collections:
        train_series, test_series = [], []
        for idx, ts in enumerate(col.series):
            n = len(ts)
            # tiny slack keeps float roundoff in fraction * n from bumping ceil
            n_train = math.ceil(fraction * n - 1e-9)
            n_test = n - n_train
            if n_train < 2 or n_test < 1:
                raise SplitError(
                    f"collection {col.label} series {idx}: {n} points split "
                    f"{n_train}/{n_test}; need at least 2 train and 1 test"
                )
            train_series.append(TimeSeries.view(ts.timestamps[:n_train], ts.values[:n_train]))
            test_series.append(TimeSeries.view(ts.timestamps[n_train:], ts.values[n_train:]))
        train_cols.append(Collection(col.label, tuple(train_series)))
        test_cols.append(Collection(col.label, tuple(test_series)))
    return (replace(dataset, collections=tuple(train_cols)),
            replace(dataset, collections=tuple(test_cols)))


def _matrix(a) -> list:
    return [[float(v) for v in row] for row in np.asarray(a, dtype=float)]


def save_model(params: ModelParams, path):
    """Persist a model as a single JSON object; floats round-trip bit-exactly."""
    h = params.hyper
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyper": {
            "m": int(h.m), "d": int(h.d), "j": int(h.j), "lam": float(h.lam),
            "sigma": float(h.sigma), "max_iters": int(h.max_iters),
            "epsilon": float(h.epsilon), "jitter": float(h.jitter),
            "seed": int(h.seed),
        },
        "time_scale": [float(params.time_scale[0]), float(params.time_scale[1])],
        "value_center": float(params.value_center),
        "value_scale": float(params.value_scale),
        "class_labels": list(params.class_labels),
        "log_amplitudes": _matrix(params.log_amplitudes),
        "log_bandwidths": _matrix(params.log_bandwidths),
        "codes": _matrix(params.codes),
        "code_map": _matrix(params.code_map),
        "data_digest": params.data_digest,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, allow_nan=False, indent=1)
        handle.write("\n")


def _field(doc, path_parts, kind):
    node = doc
    trail = []
    for part in path_parts:
        trail.append(str(part))
        if isinstance(part, int):
            if not isinstance(node, list) or part >= len(node):
                raise ParseError(f"model file missing field {'.'.join(trail)}")
            node = node[part]
        elif isinstance(node, dict):
            if part not in node:
                raise ParseError(f"model file missing field {'.'.join(trail)}")
            node = node[part]
        else:
            raise ParseError(f"model file field {'.'.join(trail[:-1])} has the wrong shape")
    where = ".".join(str(p) for p in path_parts)
    if kind == "int":
        if isinstance(node, bool) or not isinstance(node, int):
            raise ParseError(f"model file field {where} must be an integer, got {node!r}")
        return node
    if kind == "float":
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            raise ParseError(f"model file field {where} must be a number, got {node!r}")
        return float(node)
    if kind == "matrix":
        if not isinstance(node, list) or not all(isinstance(row, list) for row in node):
            raise ParseError(f"model file field {where} must be a list of rows")
        if len({len(row) for row in node}) > 1:
            raise ParseError(f"model file field {where} has rows of unequal length")
        for i, row in enumerate(node):
            for jj, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(
                        f"model file field {where}[{i}][{jj}] must be a number, got {v!r}"
                    )
        return np.array(node, dtype=float)
    if kind == "intlist":
        if not isinstance(node, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in node
        ):
            raise ParseError(f"model file field {where} must be a list of integers")
        return node
    raise AssertionError(kind)


def load_model(path) -> ModelParams:
    """Load a model file, checking the format version and every field."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model file must hold a JSON object")
    version = _field(doc, ["format_version"], "int")
    if version != MODEL_FORMAT_VERSION:
        raise VersionError(
            f"{path}: format_version {version} is not supported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    with in_file(path):
        hyper = Hyperparams(
            m=_field(doc, ["hyper", "m"], "int"),
            d=_field(doc, ["hyper", "d"], "int"),
            j=_field(doc, ["hyper", "j"], "int"),
            lam=_field(doc, ["hyper", "lam"], "float"),
            sigma=_field(doc, ["hyper", "sigma"], "float"),
            max_iters=_field(doc, ["hyper", "max_iters"], "int"),
            epsilon=_field(doc, ["hyper", "epsilon"], "float"),
            jitter=_field(doc, ["hyper", "jitter"], "float"),
            seed=_field(doc, ["hyper", "seed"], "int"),
        )
    digest = doc.get("data_digest")
    if digest is not None and not isinstance(digest, str):
        raise ParseError("model file field data_digest must be a string or null")
    with in_file(path):
        return ModelParams(
            log_amplitudes=_field(doc, ["log_amplitudes"], "matrix"),
            log_bandwidths=_field(doc, ["log_bandwidths"], "matrix"),
            codes=_field(doc, ["codes"], "matrix"),
            code_map=_field(doc, ["code_map"], "matrix"),
            hyper=hyper,
            time_scale=[_field(doc, ["time_scale", i], "float") for i in (0, 1)],
            value_center=_field(doc, ["value_center"], "float"),
            value_scale=_field(doc, ["value_scale"], "float"),
            class_labels=tuple(_field(doc, ["class_labels"], "intlist")),
            data_digest=digest,
        )


def file_digest(path) -> str:
    """Short content digest used to tie a model file to its training data."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
