"""
core.py - shared domain types for the motioncode package.

Conventions used throughout:
    * timestamps are unitless, normalized to [0, 1] at load time
    * values are centered/scaled dataset-wide at load time
    * every container is immutable after construction and safe to share
      across threads
    * a loaded series is a read-only view into the flat arrays its file
      was read into (see dataio), so a dataset holds each point once

Shapes (single source of truth)
-------------------------------
    log_amplitudes : (L, J)   per-class kernel log-amplitudes
    log_bandwidths : (L, J)   per-class kernel log-bandwidths
    codes          : (L, d)   per-class signature vectors
    code_map       : (m, d)   shared map from codes to timestamp logits

These are the LEARNED_FIELDS, in this order; learned_arrays lays them out in
the one flat vector that parameters and gradients share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "MotionCodeError",
    "InputError",
    "ParseError",
    "ValidationError",
    "SplitError",
    "VersionError",
    "NumericalError",
    "SingularMatrixError",
    "TimeSeries",
    "Collection",
    "SeriesBlock",
    "BLOCK_COLUMNS",
    "series_blocks",
    "Scales",
    "Dataset",
    "Hyperparams",
    "ModelParams",
    "LEARNED_FIELDS",
    "learned_size",
    "learned_arrays",
    "Prediction",
    "VariationalPosterior",
    "code_to_timestamps",
    "check_inducing",
    "effective_noise",
]


class MotionCodeError(Exception):
    """Base class for every error raised by this package."""


class InputError(MotionCodeError):
    """Bad user input: files, flags, out-of-range values. CLI exit code 1."""


class ParseError(InputError):
    """Malformed file content; message carries path/line context."""


class ValidationError(InputError):
    """A domain invariant was violated by the supplied data."""


class SplitError(InputError):
    """A train/test split left some series too short to use."""


class VersionError(InputError):
    """Model file format version is not supported."""


class NumericalError(MotionCodeError):
    """Numerical failure (non-finite result, broken factorization). CLI exit code 2."""


class SingularMatrixError(NumericalError):
    """A matrix stayed non positive definite at every jitter level."""


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeSeries:
    """One realization of a stochastic process: (timestamps, values).

    timestamps : (N,) strictly increasing, inside [0, 1]
    values     : (N,) signal values, same length

    Single-point series are permitted only so that forecast splits can
    hold a lone future observation; file loaders require N >= 2.

    The constructor copies and checks its arrays. The loaders check a whole
    file's arrays at once and build each series with view() instead.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _readonly(self.timestamps)
        y = _readonly(self.values)
        if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
            raise ValidationError(
                f"timestamps and values must be equal-length 1-d arrays, "
                f"got shapes {t.shape} and {y.shape}"
            )
        if t.size < 1:
            raise ValidationError("a time series needs at least one point")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValidationError("timestamps and values must be finite")
        if (t[1:] <= t[:-1]).any():
            raise ValidationError("timestamps must be strictly increasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValidationError(
                f"normalized timestamps must lie in [0, 1], got range "
                f"[{t[0]}, {t[-1]}]"
            )
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", y)

    @classmethod
    def view(cls, timestamps, values) -> TimeSeries:
        """A series over arrays that already meet every rule above: equal
        length, read-only floats, finite, strictly increasing times in
        [0, 1]. Nothing is copied or checked, so a slice of a loaded file
        stays a view."""
        ts = object.__new__(cls)
        object.__setattr__(ts, "timestamps", timestamps)
        object.__setattr__(ts, "values", values)
        return ts

    def __len__(self) -> int:
        return self.timestamps.size


@dataclass(frozen=True)
class Collection:
    """All series sharing one label, i.e. one underlying process."""

    label: int
    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        if self.label < 0 or self.label != int(self.label):
            raise ValidationError(f"label must be a non-negative integer, got {self.label}")
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise ValidationError(f"collection {self.label} has no series")

    @property
    def size(self) -> int:
        return len(self.series)

    def n_points(self) -> int:
        return sum(len(s) for s in self.series)

    @cached_property
    def blocks(self) -> tuple[SeriesBlock, ...]:
        """The series packed by series_blocks, packed once and kept:
        training evaluates the bound dozens of times, and packing on every
        evaluation made it about 1.3x slower on collections of 120-1000
        short series."""
        return tuple(series_blocks(self.series))

    @cached_property
    def block_series(self):
        """(counts, y_sq, starts): each series' point count and sum of
        squared values, in the order the blocks hold them, and the index of
        each block's first series. A line search's floors read them on every
        trial (objective.total_loss), so they are summed once and kept."""
        counts = np.concatenate([block.mask.sum(axis=1) for block in self.blocks])
        y_sq = np.concatenate([np.einsum("ij,ij->i", block.values, block.values)
                               for block in self.blocks])
        starts = np.cumsum([0] + [block.times.shape[0] for block in self.blocks[:-1]])
        return counts, y_sq, starts


# series are evaluated in zero-padded blocks of about this many columns, and
# predictions in chunks of this many query points. A block pays some 40
# numpy and LAPACK calls whatever its width, so wider blocks spread that cost
# over more points: at m = 10, training on 8 classes of 120 series of 24-48
# points took 0.85-0.87x the time at 1024 as at 512, and 1536 gained little
# more (0.84x, and slower on series of 8-12 points). A block's temporaries
# grow with its width times m; once they outgrow what glibc keeps between
# blocks, it trims the heap after each block and faults it back in. At 2048
# columns training then took 14-22k minor faults per run and ran slower than
# at 512. Whether it trims depends on what the process's heap held before as
# well: at m = 20 a run after earlier trainings in one process faulted at
# 1024 columns, while a run in a fresh process took some 50 faults at every
# width from 512 to 1024 and was fastest at 1024
BLOCK_COLUMNS = 1024


@dataclass(frozen=True)
class SeriesBlock:
    """Series of similar length stacked and zero-padded to a common width.

    times, values : (G, width), 0 past the end of each series
    mask          : (G, width), True on observed points
    n_points      : number of observed points in the block
    """

    times: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    n_points: int


def series_blocks(series):
    """Pack series into blocks of about BLOCK_COLUMNS padded columns,
    yielding one SeriesBlock at a time.

    Series are sorted longest first (ties keep their order), so a block's
    width is the length of its first series. A block takes the next series
    while its padded size, G * width, is still below BLOCK_COLUMNS: it
    passes BLOCK_COLUMNS by less than one series, and a series of
    BLOCK_COLUMNS points or more gets a block of its own.
    """
    lengths = [len(ts) for ts in series]
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    start = 0
    while start < len(order):
        width = lengths[order[start]]
        stop = start + 1
        while stop < len(order) and (stop - start) * width < BLOCK_COLUMNS:
            stop += 1
        members = [series[i] for i in order[start:stop]]
        counts = np.array([len(ts) for ts in members])
        mask = np.arange(width) < counts[:, None]
        times = np.zeros(mask.shape)
        values = np.zeros(mask.shape)
        times[mask] = np.concatenate([ts.timestamps for ts in members])
        values[mask] = np.concatenate([ts.values for ts in members])
        for a in (times, values, mask):
            a.setflags(write=False)
        yield SeriesBlock(times, values, mask, int(counts.sum()))
        start = stop


@dataclass(frozen=True)
class Scales:
    """The map between data units and model coordinates: raw time t_min
    maps to 0 and t_max to 1, and a raw value y to
    (y - value_center) / value_scale. dataio.to_model_coordinates and
    dataio.to_original_units apply it, reading these three fields from a
    Scales, Dataset or ModelParams; both of those build a Scales to check
    their own fields."""

    time_scale: tuple[float, float]
    value_center: float = 0.0
    value_scale: float = 1.0

    def __post_init__(self):
        t0, t1 = float(self.time_scale[0]), float(self.time_scale[1])
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValidationError(f"degenerate or non-finite time range [{t0}, {t1}]")
        if not math.isfinite(self.value_center):
            raise ValidationError(f"value_center must be finite, got {self.value_center}")
        if not 0.0 < self.value_scale < math.inf:
            raise ValidationError(
                f"value_scale must be positive and finite, got {self.value_scale}"
            )
        object.__setattr__(self, "time_scale", (t0, t1))


def _class_labels(labels, n_classes) -> tuple[int, ...]:
    """The original label of each class index, 0..n-1 when none are given."""
    labels = tuple(int(v) for v in labels) if labels else tuple(range(n_classes))
    if len(labels) != n_classes or len(set(labels)) != n_classes:
        raise ValidationError("class_labels must hold one distinct label per class")
    return labels


@dataclass(frozen=True)
class Dataset:
    """Labeled collections plus the normalization metadata recorded at load.

    collections  : labels contiguous 0..L-1, sorted
    time_scale, value_center, value_scale : the Scales the series were
                   mapped through at load
    class_labels : original file labels, index -> label (identity by default)

    Classification datasets need L >= 2; the single-collection case is
    allowed here because per-class objective evaluation uses it.
    """

    collections: tuple[Collection, ...]
    time_scale: tuple[float, float]
    value_center: float = 0.0
    value_scale: float = 1.0
    class_labels: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "collections", tuple(self.collections))
        scales = Scales(self.time_scale, self.value_center, self.value_scale)
        object.__setattr__(self, "time_scale", scales.time_scale)
        if not self.collections:
            raise ValidationError("dataset has no collections")
        labels = [c.label for c in self.collections]
        if labels != list(range(len(labels))):
            raise ValidationError(
                f"collection labels must be contiguous 0..L-1 in order, got {labels}"
            )
        object.__setattr__(self, "class_labels", _class_labels(self.class_labels, len(labels)))

    @property
    def n_classes(self) -> int:
        return len(self.collections)

    def n_points(self) -> int:
        return sum(c.n_points() for c in self.collections)


@dataclass(frozen=True)
class Hyperparams:
    """The model's hyperparameters. train sets each field from the flag
    whose dest it names, and a model file's hyper object stores them all.

    m         : number of informative timestamps per class
    d         : dimension of the per-class code vectors
    j         : number of kernel components (CLI flag --J)
    lam       : ridge weight on the code vectors (CLI flag --lambda)
    sigma     : observation noise scale on centered values
    max_iters : optimizer iteration cap (0 = keep the initialization)
    epsilon   : stop when the loss decrease over one iteration falls below this
    jitter    : base diagonal stabilizer for kernel matrix factorizations
    """

    m: int = 10
    d: int = 2
    j: int = 1
    lam: float = 1.0
    sigma: float = 0.1
    max_iters: int = 10
    epsilon: float = 1e-5
    jitter: float = 1e-6

    def __post_init__(self):
        # each field holds the type of its default; a bool is neither
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            wanted = numbers.Integral if kind is int else numbers.Real
            if isinstance(value, bool) or not isinstance(value, wanted):
                noun = "an integer" if kind is int else "a real number"
                raise ValidationError(f"{f.name} must be {noun}, got {value!r}")
            try:
                object.__setattr__(self, f.name, kind(value))
            except OverflowError:
                raise ValidationError(f"{f.name} must be finite, got a number too "
                                      "large for a float") from None
        if self.m < 1 or self.d < 1 or self.j < 1:
            raise ValidationError("m, d and J must all be >= 1")
        for name, value in (("sigma", self.sigma), ("lambda", self.lam),
                            ("epsilon", self.epsilon), ("jitter", self.jitter)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not (self.sigma > 0 and self.jitter > 0 and self.epsilon > 0):
            raise ValidationError("sigma, jitter and epsilon must be positive")
        if self.lam < 0:
            raise ValidationError("lambda must be non-negative")
        if self.max_iters < 0:
            raise ValidationError("max-iters must be >= 0")


def effective_noise(n_series: int, sigma: float) -> float:
    """c, the per-point noise variance of a collection of n_series series at
    noise scale sigma, which must be positive. Every module reads c here."""
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return n_series * sigma * sigma


def code_to_timestamps(code_map, code) -> np.ndarray:
    """Map one code vector to its m timestamps: sigmoid(code_map @ code).

    The output is clamped into the open interval (0, 1): saturated logits
    would otherwise round to exactly 0.0 or 1.0 in float64 and produce
    duplicate inducing timestamps.
    """
    u = np.asarray(code_map, dtype=float) @ np.asarray(code, dtype=float)
    # numerically stable sigmoid for large |u|
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    tiny = np.finfo(float).tiny
    return np.clip(out, tiny, 1.0 - np.finfo(float).epsneg)


def check_inducing(inducing) -> np.ndarray:
    """Inducing timestamps as a flat float array. Raises ValidationError
    unless they are non-empty, finite and strictly inside (0, 1), where
    code_to_timestamps puts them."""
    s = np.asarray(inducing, dtype=float).ravel()
    if s.size < 1 or not np.all(np.isfinite(s)):
        raise ValidationError("inducing timestamps must be a non-empty finite array")
    if s.min() <= 0.0 or s.max() >= 1.0:
        raise ValidationError(
            f"inducing timestamps must lie strictly inside (0, 1), got range "
            f"[{s.min()}, {s.max()}]"
        )
    return s


# the learned arrays of a ModelParams, in the order of the flat layout
LEARNED_FIELDS = ("log_amplitudes", "log_bandwidths", "codes", "code_map")


def learned_size(n_classes: int, hyper: Hyperparams) -> int:
    """Length of the flat vector that learned_arrays lays out."""
    return n_classes * (2 * hyper.j + hyper.d) + hyper.m * hyper.d


def learned_arrays(flat, n_classes: int, hyper: Hyperparams):
    """The four learned arrays, in LEARNED_FIELDS order, as views of a flat
    vector of learned_size(n_classes, hyper) floats: per class
    [log_amp_1..J, log_bw_1..J], then the codes class by class, then the
    code map row by row. A float array is not copied, so writing into a
    view writes into flat."""
    flat = np.asarray(flat, dtype=float)
    size = learned_size(n_classes, hyper)
    if flat.shape != (size,):
        raise ValueError(f"flat vector must have shape ({size},), got {flat.shape}")
    j, d = hyper.j, hyper.d
    logs, codes, code_map = np.split(flat, [n_classes * 2 * j, n_classes * (2 * j + d)])
    logs = logs.reshape(n_classes, 2 * j)
    return logs[:, :j], logs[:, j:], codes.reshape(n_classes, d), code_map.reshape(hyper.m, d)


@dataclass(frozen=True)
class ModelParams:
    """Everything learned by training, plus the metadata needed at inference.

    log_amplitudes : (L, J)
    log_bandwidths : (L, J)
    codes          : (L, d)
    code_map       : (m, d)

    Kernel parameters are stored in log space so that amplitudes and
    bandwidths stay positive by construction.

    data_digest : SHA-256 hex digest of the training file (dataio.file_digest;
                  version 1 model files may hold its first 16 digits)
    data_format : that file's format, 'ragged' or 'ucr'
    posteriors  : one VariationalPosterior per class, fitted at
                  these parameters on the training file as loaded, before
                  any split; () when none were stored.
                  Each must hold its class's inducing timestamps and
                  hyper.jitter exactly: a model file stores neither, and
                  load_model rebuilds them from the codes and hyper
    """

    log_amplitudes: np.ndarray
    log_bandwidths: np.ndarray
    codes: np.ndarray
    code_map: np.ndarray
    hyper: Hyperparams
    time_scale: tuple[float, float] = (0.0, 1.0)
    value_center: float = 0.0
    value_scale: float = 1.0
    class_labels: tuple[int, ...] = ()
    data_digest: str | None = None
    data_format: str | None = None
    posteriors: tuple = ()

    def __post_init__(self):
        for name in LEARNED_FIELDS:
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        la, lb, z, cm = (getattr(self, name) for name in LEARNED_FIELDS)
        h = self.hyper
        if la.ndim != 2 or la.shape != lb.shape:
            raise ValidationError(
                f"log_amplitudes/log_bandwidths must both be (L, J), got {la.shape} and {lb.shape}"
            )
        L = la.shape[0]
        if la.shape[1] != h.j:
            raise ValidationError(f"kernel parameters have {la.shape[1]} components, hyper says {h.j}")
        if z.shape != (L, h.d):
            raise ValidationError(f"codes must be ({L}, {h.d}), got {z.shape}")
        if cm.shape != (h.m, h.d):
            raise ValidationError(f"code_map must be ({h.m}, {h.d}), got {cm.shape}")
        for name, arr in (("log_amplitudes", la), ("log_bandwidths", lb)):
            with np.errstate(over="ignore"):
                ok = np.all(np.isfinite(arr)) and np.all(np.isfinite(np.exp(arr)))
            if not ok:
                raise ValidationError(f"{name} must exponentiate to finite positive values")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(cm))):
            raise ValidationError("codes and code_map must be finite")
        scales = Scales(self.time_scale, self.value_center, self.value_scale)
        object.__setattr__(self, "time_scale", scales.time_scale)
        object.__setattr__(self, "class_labels", _class_labels(self.class_labels, L))
        object.__setattr__(self, "posteriors", tuple(self.posteriors))
        if self.posteriors and len(self.posteriors) != L:
            raise ValidationError(
                f"model has {L} classes but {len(self.posteriors)} stored posteriors"
            )
        for k, post in enumerate(self.posteriors):
            if not np.array_equal(post.inducing, self.inducing_timestamps(k)) \
                    or post.jitter != h.jitter:
                raise ValidationError(f"stored posterior {k} was not fitted at class {k}'s "
                                      f"inducing timestamps and jitter {h.jitter}")

    @property
    def n_classes(self) -> int:
        return self.log_amplitudes.shape[0]

    def check_classes(self, dataset: Dataset):
        """Raise ValidationError unless dataset has one collection per class."""
        if self.n_classes != dataset.n_classes:
            raise ValidationError(
                f"model has {self.n_classes} classes but dataset has {dataset.n_classes}"
            )

    def inducing_timestamps(self, k: int) -> np.ndarray:
        """The m informative timestamps of class k, entries strictly in (0, 1)."""
        return code_to_timestamps(self.code_map, self.codes[k])

    def class_index(self, original_label: int) -> int:
        try:
            return self.class_labels.index(int(original_label))
        except ValueError:
            raise InputError(
                f"label {original_label} is not one of the model's classes {self.class_labels}"
            ) from None


@dataclass(frozen=True)
class Prediction:
    """Predictive mean and per-point variance at the query timestamps."""

    timestamps: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        t = _readonly(self.timestamps)
        mu = _readonly(self.mean)
        var = _readonly(self.variance)
        if not (t.shape == mu.shape == var.shape and t.ndim == 1):
            raise ValidationError(
                f"timestamps, mean and variance must share one 1-d shape, "
                f"got {t.shape}, {mu.shape}, {var.shape}"
            )
        if np.any(var < 0):
            raise ValidationError("variance entries must be >= 0 after clipping")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "variance", var)


@dataclass(frozen=True)
class VariationalPosterior:
    """Best Gaussian over a class's process values at its inducing
    timestamps. A model file stores its mean and covariance; the inducing
    timestamps and the jitter follow from the model's codes and hyper.

    inducing   : (m,) the inducing timestamps
    mean       : (m,)
    covariance : (m, m) symmetric, eigenvalues >= -1e-8
    jitter     : base diagonal stabilizer of K_SS's factorization, in the
                 fit and in every prediction (inference.predict)
    """

    inducing: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    jitter: float

    def __post_init__(self):
        for name in ("inducing", "mean", "covariance"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
