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
    "QueryRecord",
    "MODEL_FORMAT_VERSION",
    "parse_ragged",
    "parse_ucr_style",
    "parse_records",
    "in_file",
    "to_model_coordinates",
    "to_original_units",
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


@dataclass(frozen=True)
class RaggedRecord:
    """One labeled series in original units."""

    label: int
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValidationError(
                f"record arrays must be equal-length 1-d, got {t.shape} and {y.shape}"
            )
        if t.size < 2:
            raise ValidationError("record needs at least two points")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValidationError("record values must be finite")
        if (t[1:] <= t[:-1]).any():
            raise ValidationError("record timestamps must be strictly increasing")
        if self.label < 0 or self.label != int(self.label):
            raise ValidationError(f"record label must be a non-negative integer, got {self.label}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)


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


def _read_records(path, parse_line) -> list[RaggedRecord]:
    """One RaggedRecord per non-blank line of a data file. parse_line(text)
    returns the line's (label, t, y) or raises ParseError; that error and
    the record's ValidationError get the path and line number."""
    records = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    with handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(RaggedRecord(*parse_line(stripped)))
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path}:{line_no}: {exc}") from None
    if not records:
        raise ParseError(f"{path}: file contains no records")
    return records


def _ragged_line(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object")
    for key in ("label", "t", "y"):
        if key not in obj:
            raise ParseError(f"missing field '{key}'")
    label = obj["label"]
    if isinstance(label, bool) or not isinstance(label, int):
        raise ParseError(f"label must be an integer, got {label!r}")
    arrays = []
    for key in ("t", "y"):
        seq = obj[key]
        # json.loads builds plain ints and floats, and type(True) is bool,
        # so booleans fail this check as they should
        if not isinstance(seq, list) or not set(map(type, seq)) <= {int, float}:
            raise ParseError(f"field '{key}' must be a numeric array")
        try:
            arrays.append(np.array(seq, dtype=float))
        except OverflowError:
            raise ParseError(f"field '{key}' must be a numeric array of floats") from None
    return label, *arrays


def parse_ragged(path) -> list[RaggedRecord]:
    """Read ragged records from a JSON-lines file, one object per line."""
    return _read_records(path, _ragged_line)


def parse_ucr_style(path) -> list[RaggedRecord]:
    """Read grid-sampled records: label first, then equal-length values."""
    width = None

    def ucr_line(text):
        nonlocal width
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
            values = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"bad value field: {exc}") from None
        n = len(values)
        if width is None:
            width = n
        elif n != width:
            raise ParseError(
                f"row has {n} values but earlier rows have {width} "
                "(uneven data belongs in the ragged format)"
            )
        return int(raw_label), np.linspace(0.0, 1.0, n), values

    return _read_records(path, ucr_line)


def parse_records(path, fmt: str) -> list[RaggedRecord]:
    """Read a data file's records; fmt is 'ragged' or 'ucr'."""
    if fmt == "ragged":
        return parse_ragged(path)
    if fmt == "ucr":
        return parse_ucr_style(path)
    raise InputError(f"unknown data format {fmt!r} (expected 'ragged' or 'ucr')")


def to_model_coordinates(scales, t, y, horizon: float = 1.0):
    """Map raw timestamps t and values y into model coordinates through the
    map of a Scales, Dataset or ModelParams; returns (times, values).
    Times must land in [0, horizon]: 1.0 for datasets and classify queries,
    FORECAST_HORIZON for forecast queries."""
    t0, t1 = scales.time_scale
    times = (t - t0) / (t1 - t0)
    if times[0] < 0.0 or times[-1] > horizon:
        i = 0 if times[0] < 0.0 else -1
        raise ValidationError(
            f"timestamp {t[i]} maps to {times[i]:.4g}, outside the time scale "
            f"[{t0}, {t1}] (normalized range [0, {horizon}])"
        )
    return times, (y - scales.value_center) / scales.value_scale


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


def dataset_from_records(records, time_scale=None, value_center=None,
                         value_scale=None) -> Dataset:
    """Assemble a Dataset, mapping every record into model coordinates.

    Each scale not supplied is computed from the records: the time range
    over every record, and the mean and standard deviation of every value
    (a standard deviation of 0 becomes 1). Supply all three to bring test
    data into a trained model's coordinates.
    """
    if not records:
        raise ValidationError("no records to assemble")
    if time_scale is None:
        time_scale = (min(float(r.t.min()) for r in records),
                      max(float(r.t.max()) for r in records))
    if value_center is None or value_scale is None:
        all_values = np.concatenate([r.y for r in records])
        # values near the float limit overflow here; Scales rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            if value_center is None:
                value_center = float(np.mean(all_values))
            if value_scale is None:
                std = float(np.std(all_values))
                value_scale = std if std > 0 else 1.0
    scales = Scales(time_scale, value_center, value_scale)
    by_label = {}
    for r in records:
        series = TimeSeries(*to_model_coordinates(scales, r.t, r.y))
        by_label.setdefault(r.label, []).append(series)
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
    to_model_coordinates, and map their labels to model class indices."""
    records = parse_records(path, fmt)
    out = []
    with in_file(path):
        for r in records:
            times, values = to_model_coordinates(model, r.t, r.y, horizon)
            out.append(QueryRecord(model.class_index(r.label), times, values))
    return out


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
    beyond the train region on the same axis."""
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
            train_series.append(TimeSeries(ts.timestamps[:n_train], ts.values[:n_train]))
            test_series.append(TimeSeries(ts.timestamps[n_train:], ts.values[n_train:]))
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
