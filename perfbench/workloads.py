"""Workload definitions for the motioncode benchmark.

Each workload is a seeded generator that writes ragged JSONL files plus the
fixed sequence of CLI commands that runs over them. The program under test
sees only the files.

Why these workloads:

* ``short-many``: many short series. The objective's per-series Python loop
  dominates, so batching the collapsed bound must show here.
* ``many-class``: eight classes, the only workload on the class thread pool
  (``--threads 2``), and the one where inference dominates serving because
  ``forecast`` refits the class posterior for every series.

A third workload, ``long-few`` (2 classes x 10 series of thousands of
points, the case batching should leave unchanged), was dropped: on a shared
2-vCPU host whose speed flips between a fast and a ~1.6x slower state every
few seconds, the run medians of its sub-second forecast and classify
commands spread by 0.2-0.37 between runs, beyond the largest usable bound.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

# series of thousands of points need a generator without a rejection loop
GAP_LOW, GAP_HIGH = 0.25, 1.75
NOISE_STD = 0.1
SPLIT_FRACTION = 0.8


def uneven_times(rng, n):
    """n strictly increasing timestamps on [0, 1], both endpoints pinned.

    The gaps are drawn from the bounded range [GAP_LOW, GAP_HIGH], summed and
    rescaled, so no draw is ever rejected and the smallest gap is at least
    GAP_LOW / (GAP_HIGH * (n - 1)).
    """
    if n < 2:
        raise ValueError(f"need at least two timestamps, got {n}")
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(GAP_LOW, GAP_HIGH, n - 1))))
    t /= t[-1]
    t[0], t[-1] = 0.0, 1.0
    return t


def _sine(freq, phase):
    return lambda t: np.sin(2.0 * np.pi * freq * t + phase)


def _ramp(t):
    return t


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple  # one clean signal per class, label = position
    train_per_class: int
    test_per_class: int
    points: tuple  # (low, high) points per series, inclusive
    train_args: tuple  # extra flags for `train`
    forecast_on: str  # which file `forecast --split-fraction` splits

    def sizes(self, scale):
        """Series counts and point range at a size scale (1.0 is the real
        workload; the self-test runs it tiny)."""
        per_train = max(2, round(self.train_per_class * scale))
        per_test = max(1, round(self.test_per_class * scale))
        low = max(5, round(self.points[0] * scale))
        high = max(low, round(self.points[1] * scale))
        return per_train, per_test, (low, high)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-many", (_sine(1.0, 0.0), _ramp), 1000, 100, (8, 12), (),
                 forecast_on="test"),
        Workload("many-class",
                 tuple(_sine(1.0 + 0.5 * k, math.pi * k / 4.0) for k in range(8)),
                 120, 50, (30, 60),
                 ("--split-fraction", str(SPLIT_FRACTION), "--threads", "2"),
                 forecast_on="train"),
    )
}


def _write_series(handle, rng, label, shape, n):
    t = uneven_times(rng, n)
    y = shape(t) + rng.normal(0.0, NOISE_STD, n)
    handle.write(json.dumps({"label": label, "t": t.tolist(), "y": y.tolist()}))
    handle.write("\n")
    return n


def generate(workload: Workload, seed: int, out_dir, scale=1.0):
    """Write train.jsonl and test.jsonl for one seed; the same seed writes the
    same bytes. Series are generated one at a time, so set-up memory stays
    small. Returns the counts the correctness checks need."""
    per_train, per_test, (low, high) = workload.sizes(scale)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    counts = {}
    for part, per_class in (("train", per_train), ("test", per_test)):
        series = points = test_points = 0
        with open(os.path.join(out_dir, f"{part}.jsonl"), "w", encoding="utf-8") as handle:
            for label, shape in enumerate(workload.shapes):
                for _ in range(per_class):
                    n = _write_series(handle, rng, label, shape,
                                      int(rng.integers(low, high + 1)))
                    series += 1
                    points += n
                    test_points += n - math.ceil(SPLIT_FRACTION * n - 1e-9)
        counts[part] = {"series": series, "points": points,
                        "forecast_points": test_points}
    return counts


def commands(workload: Workload, data_dir):
    """The fixed command sequence of one workload, as cli.main argv lists."""
    train = os.path.join(data_dir, "train.jsonl")
    test = os.path.join(data_dir, "test.jsonl")
    model = os.path.join(data_dir, "model.json")
    forecast_data = train if workload.forecast_on == "train" else test
    return [
        ["train", "--data", train, "--out", model, *workload.train_args],
        ["forecast", "--model", model, "--data", forecast_data,
         "--split-fraction", str(SPLIT_FRACTION)],
        ["classify", "--model", model, "--train-data", train, "--data", test],
        ["timestamps", "--model", model, "--data", train],
    ]
