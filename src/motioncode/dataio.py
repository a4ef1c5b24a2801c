"""
dataio.py - dataset file formats, normalization, noise injection, splits,
and model persistence.

Ragged dataset format (one JSON object per line, UTF-8):

    {"label": 0, "t": [10.0, 11.5, 14.0], "y": [0.2, -0.1, 0.4]}

Timestamps are in original units and strictly increasing per record; every
record needs at least two points. Loading computes one shared time scale
(min t, max t over the whole file), maps every timestamp into [0, 1], and
centers values globally: subtract the dataset mean, divide by the dataset
standard deviation. The recorded (center, scale) invert predictions back
to original units.

UCR-style format: one series per line, delimiter-separated (tab or comma),
first field the integer label, remaining fields equal-length values on the
implicit grid i/(N-1).

Model files are a single JSON object with format_version 1; floats use
Python repr, which round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Collection,
    Dataset,
    Hyperparams,
    InputError,
    ModelParams,
    ParseError,
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


def _located(exc_cls, path, line_no, message):
    return exc_cls(f"{path}:{line_no}: {message}")


def _record_from_json(obj, path, line_no) -> RaggedRecord:
    if not isinstance(obj, dict):
        raise _located(ParseError, path, line_no, "record must be a JSON object")
    for key in ("label", "t", "y"):
        if key not in obj:
            raise _located(ParseError, path, line_no, f"missing field '{key}'")
    label = obj["label"]
    if isinstance(label, bool) or not isinstance(label, int):
        raise _located(ParseError, path, line_no, f"label must be an integer, got {label!r}")
    for key in ("t", "y"):
        seq = obj[key]
        # json.loads builds plain ints and floats, and type(True) is bool,
        # so booleans fail this check as they should
        if not isinstance(seq, list) or not set(map(type, seq)) <= {int, float}:
            raise _located(ParseError, path, line_no, f"field '{key}' must be a numeric array")
    try:
        return RaggedRecord(label=label, t=obj["t"], y=obj["y"])
    except ValidationError as exc:
        raise _located(ValidationError, path, line_no, str(exc)) from None


def parse_ragged(path) -> list[RaggedRecord]:
    """Read ragged records from a JSON-lines file, one object per line."""
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
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise _located(ParseError, path, line_no, f"invalid JSON ({exc.msg})") from None
            records.append(_record_from_json(obj, path, line_no))
    if not records:
        raise ParseError(f"{path}: file contains no records")
    return records


def _split_delimited(line: str):
    return line.split("\t") if "\t" in line else line.split(",")


def parse_ucr_style(path) -> list[RaggedRecord]:
    """Read grid-sampled records: label first, then equal-length values."""
    records = []
    width = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    with handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = _split_delimited(stripped)
            if len(fields) < 3:
                raise _located(
                    ParseError, path, line_no,
                    "row needs a label plus at least two values",
                )
            try:
                raw_label = float(fields[0])
            except ValueError:
                raise _located(
                    ParseError, path, line_no, f"label field {fields[0]!r} is not numeric"
                ) from None
            if not raw_label.is_integer():
                raise _located(
                    ParseError, path, line_no, f"label {fields[0]!r} is not an integer"
                )
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError as exc:
                raise _located(ParseError, path, line_no, f"bad value field: {exc}") from None
            n = len(values)
            if width is None:
                width = n
            elif n != width:
                raise _located(
                    ParseError, path, line_no,
                    f"row has {n} values but earlier rows have {width} "
                    "(uneven data belongs in the ragged format)",
                )
            grid = np.linspace(0.0, 1.0, n)
            try:
                records.append(RaggedRecord(label=int(raw_label), t=grid, y=values))
            except ValidationError as exc:
                raise _located(ValidationError, path, line_no, str(exc)) from None
    if not records:
        raise ParseError(f"{path}: file contains no records")
    return records


def parse_records(path, fmt: str) -> list[RaggedRecord]:
    """Read a data file's records; fmt is 'ragged' or 'ucr'."""
    if fmt == "ragged":
        return parse_ragged(path)
    if fmt == "ucr":
        return parse_ucr_style(path)
    raise InputError(f"unknown data format {fmt!r} (expected 'ragged' or 'ucr')")


def dataset_from_records(records, time_scale=None, value_center=None,
                         value_scale=None) -> Dataset:
    """Assemble a Dataset, normalizing timestamps and centering values.

    Normalization metadata is computed from the records unless supplied
    (supply it to bring test data into a trained model's coordinates).
    """
    if not records:
        raise ValidationError("no records to assemble")
    if time_scale is None:
        time_scale = (min(float(r.t.min()) for r in records),
                      max(float(r.t.max()) for r in records))
    if not time_scale[0] < time_scale[1]:
        raise ValidationError(
            f"degenerate time range [{time_scale[0]}, {time_scale[1]}]"
        )
    if value_center is None or value_scale is None:
        all_values = np.concatenate([r.y for r in records])
        value_center = float(np.mean(all_values))
        std = float(np.std(all_values))
        value_scale = std if std > 0 else 1.0

    span = time_scale[1] - time_scale[0]
    by_label = {}
    for r in records:
        t = (r.t - time_scale[0]) / span
        if t[0] < 0.0 or t[-1] > 1.0:
            bad = r.t[0] if t[0] < 0.0 else r.t[-1]
            raise ValidationError(
                f"timestamp {bad} falls outside the time scale "
                f"[{time_scale[0]}, {time_scale[1]}]"
            )
        y = (r.y - value_center) / value_scale
        by_label.setdefault(r.label, []).append(TimeSeries(t, y))
    labels = sorted(by_label)
    collections = tuple(
        Collection(idx, tuple(by_label[lbl])) for idx, lbl in enumerate(labels)
    )
    return Dataset(
        collections=collections,
        time_scale=time_scale,
        value_center=value_center,
        value_scale=value_scale,
        class_labels=tuple(labels),
    )


def load_dataset(path, fmt: str = "ragged") -> Dataset:
    """Load a dataset file in either format. Needs at least two distinct labels."""
    ds = dataset_from_records(parse_records(path, fmt))
    if ds.n_classes < 2:
        raise ValidationError(
            f"{path}: dataset has {ds.n_classes} label(s); at least 2 are needed"
        )
    return ds


def load_queries(path, model: ModelParams, fmt: str = "ragged",
                 horizon: float = 1.0) -> list[QueryRecord]:
    """Load test records into a trained model's coordinate system.

    Timestamps are normalized with the model's stored time scale and must
    land in [0, horizon]; values are centered with the model's stored
    statistics; labels are mapped to model class indices.
    """
    records = parse_records(path, fmt)
    t0, t1 = model.time_scale
    span = t1 - t0
    out = []
    for r in records:
        t = (r.t - t0) / span
        if t[0] < 0.0 or t[-1] > horizon:
            bad = r.t[0] if t[0] < 0.0 else r.t[-1]
            raise InputError(
                f"{path}: timestamp {bad} maps to {((bad - t0) / span):.4g}, outside "
                f"the usable range [0, {horizon}] of the model's time scale"
            )
        y = (r.y - model.value_center) / model.value_scale
        out.append(QueryRecord(class_index=model.class_index(r.label), times=t, values=y))
    return out


def write_ragged(dataset: Dataset, path):
    """Write a dataset back to the ragged format in original units."""
    t0, t1 = dataset.time_scale
    span = t1 - t0
    with open(path, "w", encoding="utf-8") as handle:
        for col in dataset.collections:
            label = dataset.class_labels[col.label]
            for ts in col.series:
                t_raw = ts.timestamps * span + t0
                y_raw = dataset.to_original_values(ts.values)
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
    return Dataset(
        collections=tuple(collections),
        time_scale=dataset.time_scale,
        value_center=dataset.value_center,
        value_scale=dataset.value_scale,
        class_labels=dataset.class_labels,
    )


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
    meta = dict(
        time_scale=dataset.time_scale,
        value_center=dataset.value_center,
        value_scale=dataset.value_scale,
        class_labels=dataset.class_labels,
    )
    return (
        Dataset(collections=tuple(train_cols), **meta),
        Dataset(collections=tuple(test_cols), **meta),
    )


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
    return ModelParams(
        log_amplitudes=_field(doc, ["log_amplitudes"], "matrix"),
        log_bandwidths=_field(doc, ["log_bandwidths"], "matrix"),
        codes=_field(doc, ["codes"], "matrix"),
        code_map=_field(doc, ["code_map"], "matrix"),
        hyper=hyper,
        time_scale=(
            _field(doc, ["time_scale", 0], "float"),
            _field(doc, ["time_scale", 1], "float"),
        ),
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
