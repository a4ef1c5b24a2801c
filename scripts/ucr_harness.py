#!/usr/bin/env python3
"""Reproduction harness for UCR-archive style benchmarks.

Point --data-dir at a directory containing UCR datasets in the standard
layout (NAME_TRAIN.tsv / NAME_TEST.tsv pairs, tab or comma separated, label
first). For each dataset the harness injects Gaussian noise at a chosen
level (std = level * max |value| over train and test combined), trains a
model with the package defaults, classifies the noisy test split, and
prints per-dataset accuracy. A dataset that fails to load or train is
reported with its error, the remaining pairs still run, and the exit code
is 1.

Published accuracy tables for this protocol are not embedded here; supply
them yourself with --reference, a CSV of "name,expected_percent" rows, and
the harness reports the delta per dataset and flags any outside the
tolerance. Noise seeds in published runs are rarely stated, so expect a
spread of a few percentage points.

Example:
    python3 scripts/ucr_harness.py --data-dir ~/UCRArchive --noise 0.3 \
        --reference expected.csv --out report.json
"""

import argparse
import csv
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np

from motioncode.core import Hyperparams, MotionCodeError
from motioncode.dataio import RaggedRecord, dataset_from_records, model_series, parse_records
from motioncode.inference import class_posteriors, classify_many
from motioncode.optimizer import train_model


def find_datasets(data_dir):
    """Yield (name, train_path, test_path) for every complete pair."""
    root = Path(data_dir)
    pairs = []
    for train_path in sorted(root.rglob("*_TRAIN*")):
        if train_path.suffix not in (".tsv", ".txt", ".csv"):
            continue
        test_path = train_path.with_name(
            train_path.name.replace("_TRAIN", "_TEST")
        )
        if test_path.exists():
            name = train_path.name.split("_TRAIN")[0]
            pairs.append((name, train_path, test_path))
    return pairs


def add_noise(records, level, rng):
    """Noise std is level times the peak |value| over all the records."""
    if level <= 0:
        return records
    peak = max(float(np.max(np.abs(r.y))) for r in records)
    std = level * peak
    return [
        RaggedRecord(r.label, r.t, r.y + rng.normal(0.0, std, r.y.size))
        for r in records
    ]


def run_dataset(name, train_path, test_path, noise, seed, hyper):
    # crc32 keeps the stream name-dependent but stable across processes
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    train_recs = list(parse_records(train_path, "ucr"))
    test_recs = list(parse_records(test_path, "ucr"))
    split = len(train_recs)
    noisy = add_noise(train_recs + test_recs, noise, rng)
    train_recs, test_recs = noisy[:split], noisy[split:]

    train_ds = dataset_from_records(train_recs)
    model, info = train_model(train_ds, hyper)

    series = model_series(model, test_recs)
    truth = [model.class_index(r.label) for r in test_recs]
    results = classify_many(model, class_posteriors(model, train_ds), series)
    hits = sum(1 for (pred, _), want in zip(results, truth) if pred == want)
    return {
        "name": name,
        "n_train": len(train_recs),
        "n_test": len(test_recs),
        "classes": len(model.class_labels),
        "final_loss": float(info.loss),
        "accuracy_percent": 100.0 * hits / len(truth),
    }


def load_reference(path):
    expected = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if len(row) >= 2 and row[0].strip() and not row[0].startswith("#"):
                expected[row[0].strip()] = float(row[1])
    return expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True,
                        help="directory holding NAME_TRAIN/NAME_TEST pairs")
    parser.add_argument("--noise", type=float, default=0.3,
                        help="injected noise level (fraction of peak value)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=Hyperparams().max_iters)
    parser.add_argument("--reference", default=None,
                        help="CSV of name,expected_percent rows to compare against")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="acceptable |delta| in percentage points")
    parser.add_argument("--out", default=None, help="write results as JSON")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.noise) and args.noise >= 0):
        parser.error(f"--noise must be a finite level >= 0, got {args.noise}")
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.max_iters < 0:
        parser.error(f"--max-iters must be a non-negative integer, got {args.max_iters}")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        parser.error(f"--tolerance must be finite and >= 0, got {args.tolerance}")

    pairs = find_datasets(args.data_dir)
    if not pairs:
        print(f"no NAME_TRAIN/NAME_TEST pairs found under {args.data_dir}",
              file=sys.stderr)
        return 1
    expected = load_reference(args.reference) if args.reference else {}
    hyper = Hyperparams(max_iters=args.max_iters)

    rows = []
    any_out_of_band = any_failed = False
    for name, train_path, test_path in pairs:
        try:
            row = run_dataset(name, train_path, test_path, args.noise, args.seed,
                              hyper)
        except MotionCodeError as exc:
            # one bad pair is reported and the rest still run
            print(f"{name:30s} FAILED: {exc}")
            rows.append({"name": name, "error": str(exc)})
            any_failed = True
            continue
        line = (f"{row['name']:30s} acc {row['accuracy_percent']:6.2f}%"
                f"  ({row['n_train']} train / {row['n_test']} test,"
                f" {row['classes']} classes)")
        if row["name"] in expected:
            delta = row["accuracy_percent"] - expected[row["name"]]
            row["expected_percent"] = expected[row["name"]]
            row["delta"] = delta
            row["within_tolerance"] = abs(delta) <= args.tolerance
            line += f"  expected {expected[row['name']]:6.2f}%  delta {delta:+.2f}"
            if not row["within_tolerance"]:
                line += "  OUT OF BAND"
                any_out_of_band = True
        print(line)
        rows.append(row)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"noise": args.noise, "seed": args.seed,
                       "tolerance": args.tolerance, "datasets": rows},
                      handle, indent=1)
            handle.write("\n")
    return 1 if any_out_of_band or any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
