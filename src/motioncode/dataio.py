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
Each line is checked for its own shape as it is read: the fields are lists
of numbers, no int too large for a float, t and y of equal length, at least
two points. The rules that need the numbers (finite values, strictly
increasing times, non-negative labels) then run once over the flat arrays,
and the map into model coordinates is one pass over them too, which checks
that the mapped times and values are still finite and increasing. A loaded
series is a read-only view into the mapped arrays. An error names the file
and the line of the first bad record, as a line-by-line check would.

Test files for classify and forecast go through the same map, with the
scales stored in the model. Forecast queries may reach normalized time
FORECAST_HORIZON (1.25); any other timestamp outside [0, 1] raises a
ValidationError naming the file, so the CLI exits with code 1.

UCR-style format: one series per line, delimiter-separated (tab or comma),
first field the integer label, remaining fields equal-length values on the
implicit grid i/(N-1).

Model files are a single JSON object; floats use Python repr, which
round-trips bit-exactly. format_version 1 holds the hyperparameters, the
scales, the class labels, the learned arrays and an optional data_digest.
format_version 2, which train writes, adds what classify and timestamps
serve from:

    data_digest : the training file's SHA-256, 64 hex digits (file_digest)
    data_format : the format it was read in, 'ragged' or 'ucr'
    posteriors  : per class {"mean": m numbers, "covariance": m rows of m},
                  the class posterior fitted on that file as loaded

A model without stored posteriors is written as version 1, and both
versions load. A version 2 load builds each core.VariationalPosterior
from the class's inducing timestamps, the stored mean and covariance and
the model's jitter, and factors nothing: predict factors K_SS itself.
The hyper object holds one entry per Hyperparams field; entries it holds
beyond those, such as the seed older files stored, are ignored.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
from array import array
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .core import (
    LEARNED_FIELDS,
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
    VariationalPosterior,
    VersionError,
)

__all__ = [
    "RaggedRecord",
    "Records",
    "MODEL_FORMAT_VERSION",
    "DATA_FORMATS",
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

# the newest model file version, the one written when posteriors are stored
MODEL_FORMAT_VERSION = 2
DATA_FORMATS = ("ragged", "ucr")
_SHA256 = re.compile(r"[0-9a-f]{64}")

_FLOAT, _NUMERIC = frozenset({float}), frozenset({int, float})


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


@contextlib.contextmanager
def in_file(path):
    """Prefix the path of the file being read to any InputError raised in
    the block: every input error raised there is about that file."""
    try:
        yield
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _offsets(lengths) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _record_of(offsets, element) -> int:
    """The record holding the flat array's element."""
    return int(np.searchsorted(offsets, element, side="right")) - 1


def _first_stall(t, offsets):
    """The first element of t whose next one is not larger, not counting
    the step from one record into the next, or None. No record is empty."""
    stalled = t[1:] <= t[:-1]
    stalled[offsets[1:-1] - 1] = False
    return int(np.argmax(stalled)) if stalled.any() else None


def _float_list(key, seq):
    """A JSON field as a list of floats, or a ParseError when it is not a
    list of ints and floats or holds an int too large for a float."""
    if type(seq) is list:
        if _FLOAT.issuperset(map(type, seq)):
            return seq
        if _NUMERIC.issuperset(map(type, seq)):
            try:
                # float(int) rounds as np.array(..., dtype=float) does
                return list(map(float, seq))
            except OverflowError:
                raise ParseError(f"field '{key}' must be a numeric array of floats") from None
    raise ParseError(f"field '{key}' must be a numeric array")


def _shape_fault(record, t, y):
    """(record, ValidationError) when t and y differ in length or hold
    fewer than two points, else None; lengths are checked first."""
    if len(t) != len(y):
        return record, ValidationError(f"record arrays must be equal-length 1-d, "
                                       f"got ({len(t)},) and ({len(y)},)")
    if len(t) < 2:
        return record, ValidationError("record needs at least two points")
    return None


def _record_fault(labels, t, y, offsets):
    """(record, ValidationError) of the first record that breaks a numeric
    rule, or None. Each rule runs once over the flat arrays; a record that
    breaks several reports the first in this order: finite values,
    increasing times, a non-negative label."""
    found = []
    finite = np.isfinite(t) & np.isfinite(y)
    if not finite.all():
        found.append((_record_of(offsets, np.argmin(finite)), 0,
                      "record values must be finite"))
    stall = _first_stall(t, offsets)
    if stall is not None:
        found.append((_record_of(offsets, stall), 1,
                      "record timestamps must be strictly increasing"))
    if labels and min(labels) < 0:
        r = next(i for i, label in enumerate(labels) if label < 0)
        found.append((r, 2, f"record label must be a non-negative integer, "
                            f"got {labels[r]}"))
    if not found:
        return None
    r, _, message = min(found)
    return r, ValidationError(message)


def _read_records(path, parse_line) -> Records:
    """Read a data file into Records, one record per non-blank line.

    parse_line(text) returns the line's (label, t, y), t and y lists of
    floats, or raises ParseError. Each line's shape (equal lengths, then at
    least two points) is checked as it is read, and reading stops at the
    first line that fails to parse or is badly shaped. The numbers of the
    lines before it go into two growable float buffers, t and y, which the
    returned arrays view without a copy, and the numeric rules (finite
    values, increasing times, non-negative labels) then run once over them.
    Errors get the path and the line of the first bad record, so a numeric
    fault on an earlier line wins over the line that stopped the read.
    """
    labels, lines, lengths = [], [], []
    t_buf, y_buf = array("d"), array("d")
    fault = None  # (record, error) of the line that stopped the read

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
            fault = _shape_fault(len(labels), t, y)
            if fault:
                break
            labels.append(label)
            lengths.append(len(t))
            t_buf.fromlist(t)
            y_buf.fromlist(y)
    t, y, offsets = np.frombuffer(t_buf), np.frombuffer(y_buf), _offsets(lengths)
    fault = _record_fault(labels, t, y, offsets) or fault
    if fault:
        r, exc = fault
        raise type(exc)(f"{path}:{lines[r]}: {exc}") from None
    if not labels:
        raise ParseError(f"{path}: file contains no records")
    return Records(tuple(labels), t, y, offsets)


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
    return label, _float_list("t", t), _float_list("y", y)


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
    raise InputError(f"unknown data format {fmt!r} (expected one of {DATA_FORMATS})")


def _flat(records) -> Records:
    """Records as they are, or a list of RaggedRecords concatenated into
    Records and checked by the same rules as a file."""
    if isinstance(records, Records):
        return records
    labels, ts, ys = [], [], []
    fault = None  # as in _read_records, only the records before it are kept
    for r in records:
        t, y = np.asarray(r.t, dtype=float), np.asarray(r.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1:
            raise ValidationError(
                f"record arrays must be equal-length 1-d, got {t.shape} and {y.shape}"
            )
        if r.label != int(r.label):
            raise ValidationError(
                f"record label must be a non-negative integer, got {r.label}")
        fault = fault or _shape_fault(len(ts), t, y)
        if not fault:
            labels.append(int(r.label))
            ts.append(t)
            ys.append(y)
    t, y = np.concatenate([np.empty(0), *ts]), np.concatenate([np.empty(0), *ys])
    offsets = _offsets([a.size for a in ts])
    fault = _record_fault(labels, t, y, offsets) or fault
    if fault:
        raise fault[1]
    return Records(tuple(labels), t, y, offsets)


def to_model_coordinates(scales, t, y, offsets, horizon: float = 1.0):
    """Map raw timestamps t and values y into model coordinates through the
    map of a Scales, Dataset or ModelParams; returns (times, values).

    t and y hold series back to back, series i at offsets[i]:offsets[i + 1],
    each with increasing times. Every time must land in [0, horizon]: 1.0 for
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
    times, values = to_model_coordinates(scales, records.t, records.y, records.offsets,
                                         horizon)
    times.setflags(write=False)
    values.setflags(write=False)
    bounds = records.offsets.tolist()
    return [(times[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]


def model_series(scales, records) -> list[TimeSeries]:
    """Records (or a list of RaggedRecords) mapped into the model
    coordinates of a Scales, Dataset or ModelParams, one TimeSeries view per
    record in input order."""
    return [TimeSeries.view(t, y) for t, y in _mapped(scales, _flat(records))]


def dataset_from_records(records, scales=None) -> Dataset:
    """Assemble a Dataset from Records or a list of RaggedRecords, mapping
    every record into model coordinates through the map of scales, a
    Scales, Dataset or ModelParams: pass a trained model to bring data into
    its coordinates. Without scales the map is computed from the records:
    the time range over every record, and the mean and standard deviation
    of every value (a standard deviation of 0 becomes 1).
    """
    records = _flat(records)
    if not records.labels:
        raise ValidationError("no records to assemble")
    if scales is None:
        # values near the float limit overflow here; Scales rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            center, std = float(np.mean(records.y)), float(np.std(records.y))
        scales = Scales((float(records.t.min()), float(records.t.max())), center,
                        std if std > 0 else 1.0)
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
                 horizon: float = 1.0) -> tuple[list[int], list[TimeSeries]]:
    """Load test records into a trained model's coordinate system with
    to_model_coordinates. Returns (classes, series) in file order: each
    record's model class index, and its read-only TimeSeries view, whose
    normalized times may reach horizon.
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
            to_model_coordinates(model, records.t[:stop], records.y[:stop],
                                 records.offsets[:unknown + 2], horizon)
            model.class_index(records.labels[unknown])
        mapped = _mapped(model, records, horizon)
    return ([index[label] for label in records.labels],
            [TimeSeries.view(t, y) for t, y in mapped])


def write_ragged(records, path):
    """Write Records, or a list of RaggedRecords, to the ragged format as
    they are: labels, timestamps and values in original units, in input
    order. They are checked by the rules a loaded file meets."""
    with open(path, "w", encoding="utf-8") as handle:
        for label, t, y in _flat(records):
            obj = {"label": label, "t": t.tolist(), "y": y.tolist()}
            handle.write(json.dumps(obj) + "\n")


def inject_noise(dataset: Dataset, level: float, seed: int,
                 per_series: bool = False) -> Dataset:
    """Add Gaussian noise with std = level * max |value| to every value.

    The maximum is taken over the whole dataset (pre-noise); per_series
    scopes it to each series instead. level must be finite and >= 0; level
    0 returns the dataset as is. Deterministic for a fixed seed >= 0.
    """
    if not math.isfinite(level):
        raise ValidationError(f"noise level must be finite, got {level}")
    if level < 0:
        raise ValidationError(f"noise level must be >= 0, got {level}")
    if seed < 0:
        raise ValidationError(f"noise seed must be a non-negative integer, got {seed}")
    if level == 0:
        return dataset
    series = [ts for col in dataset.collections for ts in col.series]
    lengths = [len(ts) for ts in series]
    offsets = _offsets(lengths)
    values = np.concatenate([ts.values for ts in series])
    peaks = np.abs(values)
    if per_series:
        scale = np.repeat(level * np.maximum.reduceat(peaks, offsets[:-1]), lengths)
    else:
        scale = np.full(values.size, level * float(peaks.max()))
    # one draw for every value of a series with std > 0, in series order: the
    # same numbers as one draw per series, and a series with std 0 keeps its
    # values untouched
    drawn = scale > 0
    with np.errstate(over="ignore"):  # an overflow is reported just below
        values[drawn] += np.random.default_rng(seed).normal(0.0, scale[drawn])
    if not np.isfinite(values).all():
        raise ValidationError("timestamps and values must be finite")
    values.setflags(write=False)
    bounds = offsets.tolist()
    views = iter([TimeSeries.view(ts.timestamps, values[a:b])
                  for ts, a, b in zip(series, bounds, bounds[1:])])
    collections = tuple(Collection(col.label, tuple(next(views) for _ in col.series))
                        for col in dataset.collections)
    return replace(dataset, collections=collections)


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
    """Persist a model as a single JSON object; floats round-trip bit-exactly.
    A model with stored posteriors is written as format_version 2, one
    without as version 1. A model that load_model would reject raises
    ValidationError before the file is opened."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION if params.posteriors else 1,
        "hyper": {f.name: getattr(params.hyper, f.name) for f in fields(Hyperparams)},
        "time_scale": [float(params.time_scale[0]), float(params.time_scale[1])],
        "value_center": float(params.value_center),
        "value_scale": float(params.value_scale),
        "class_labels": list(params.class_labels),
        **{name: _matrix(getattr(params, name)) for name in LEARNED_FIELDS},
        "data_digest": params.data_digest,
    }
    if params.posteriors:
        doc["data_format"] = params.data_format
        doc["posteriors"] = [{"mean": [float(v) for v in post.mean],
                              "covariance": _matrix(post.covariance)}
                             for post in params.posteriors]
    try:
        _model_from_doc(doc)
    except ParseError as exc:
        raise ValidationError(str(exc)) from None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, allow_nan=False, indent=1)
        handle.write("\n")


def _number(node, where, *index) -> float:
    """A model-file number as a float, or a ParseError naming its field (and
    index) when it is not an int or float or is an int too large for one."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            # float(int) rounds as np.array(..., dtype=float) does
            return float(node)
        except OverflowError:
            got = "an integer too large for a float"
    else:
        got = repr(node)
    where += "".join(f"[{i}]" for i in index)
    raise ParseError(f"model file field {where} must be a number, got {got}")


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
        return _number(node, where)
    if kind == "matrix":
        if not isinstance(node, list) or not all(isinstance(row, list) for row in node):
            raise ParseError(f"model file field {where} must be a list of rows")
        if len({len(row) for row in node}) > 1:
            raise ParseError(f"model file field {where} has rows of unequal length")
        return np.array([[_number(v, where, i, jj) for jj, v in enumerate(row)]
                         for i, row in enumerate(node)], dtype=float)
    if kind == "vector":
        if not isinstance(node, list):
            raise ParseError(f"model file field {where} must be a list of numbers")
        return np.array([_number(v, where, i) for i, v in enumerate(node)], dtype=float)
    if kind == "str":
        if not isinstance(node, str):
            raise ParseError(f"model file field {where} must be a string, got {node!r}")
        return node
    if kind == "intlist":
        if not isinstance(node, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in node
        ):
            raise ParseError(f"model file field {where} must be a list of integers")
        return node
    raise AssertionError(kind)


def _stored_source(doc):
    """A version 2 file's (data_digest, data_format), checked."""
    digest = _field(doc, ["data_digest"], "str")
    if not _SHA256.fullmatch(digest):
        raise ParseError("model file field data_digest must be 64 lowercase hex "
                         f"digits, got {digest!r}")
    data_format = _field(doc, ["data_format"], "str")
    if data_format not in DATA_FORMATS:
        raise ParseError(f"model file field data_format must be one of "
                         f"{DATA_FORMATS}, got {data_format!r}")
    return digest, data_format


def _stored_moments(doc, n_classes, m):
    """Each class's stored (mean, covariance), checked like every field."""
    entries = doc.get("posteriors")
    if not isinstance(entries, list) or len(entries) != n_classes:
        raise ParseError(f"model file field posteriors must be a list of {n_classes} "
                         "entries, one per class")
    out = []
    for k in range(n_classes):
        moments = []
        for name, kind, shape in (("mean", "vector", (m,)),
                                  ("covariance", "matrix", (m, m))):
            a = _field(doc, ["posteriors", k, name], kind)
            if a.shape != shape:
                raise ParseError(f"model file field posteriors.{k}.{name} has shape "
                                 f"{a.shape}, expected {shape}")
            if not np.isfinite(a).all():
                raise ParseError(f"model file field posteriors.{k}.{name} must be finite")
            moments.append(a)
        out.append(moments)
    return out


def load_model(path) -> ModelParams:
    """Load a model file of either version, checking every field."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model file must hold a JSON object")
    with in_file(path):
        return _model_from_doc(doc)


def _model_from_doc(doc) -> ModelParams:
    """The model a model file's JSON object holds, every field checked."""
    version = _field(doc, ["format_version"], "int")
    if version not in (1, MODEL_FORMAT_VERSION):
        raise VersionError(f"format_version {version} is not supported "
                           f"(this build reads versions 1 and {MODEL_FORMAT_VERSION})")
    hyper = Hyperparams(**{
        f.name: _field(doc, ["hyper", f.name], type(f.default).__name__)
        for f in fields(Hyperparams)
    })
    data_format = None
    if version == 1:
        digest = doc.get("data_digest")
        if digest is not None and not isinstance(digest, str):
            raise ParseError("model file field data_digest must be a string or null")
    else:
        digest, data_format = _stored_source(doc)
    model = ModelParams(
        **{name: _field(doc, [name], "matrix") for name in LEARNED_FIELDS},
        hyper=hyper,
        time_scale=[_field(doc, ["time_scale", i], "float") for i in (0, 1)],
        value_center=_field(doc, ["value_center"], "float"),
        value_scale=_field(doc, ["value_scale"], "float"),
        class_labels=tuple(_field(doc, ["class_labels"], "intlist")),
        data_digest=digest,
        data_format=data_format,
    )
    if version == 1:
        return model
    moments = _stored_moments(doc, model.n_classes, hyper.m)
    return replace(model, posteriors=[
        VariationalPosterior(model.inducing_timestamps(k), mean, cov, hyper.jitter)
        for k, (mean, cov) in enumerate(moments)])


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes, which ties a model file to its
    training data."""
    h = hashlib.sha256()
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    with handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
