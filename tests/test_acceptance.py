"""Acceptance gate: one test per headline criterion, each printing a single
PASS/FAIL line with the measured numbers next to the required tolerance.

The lines are buffered in ACCEPTANCE_LINES and replayed by conftest.py in
the terminal summary, so they survive output capture. Every check
re-derives its reference values through dense linear algebra or synthetic
data with known structure; nothing here reads stored expected outputs.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from motioncode import bench
from motioncode.cli import main

HARNESS = Path(__file__).resolve().parent.parent / "scripts" / "ucr_harness.py"

# one line per criterion; conftest.py replays these after the test listing
ACCEPTANCE_LINES = []


def _emit(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def report_line(name, payload, elapsed, budget):
    status = "PASS" if payload["passed"] else "FAIL"
    detail = ", ".join(
        f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in payload.items()
        if k not in ("name", "passed") and isinstance(v, (int, float))
    )
    _emit(f"ACCEPTANCE {status}: {name} ({detail}) [{elapsed:.2f}s / {budget:g}s]")


def run_check(fn, budget):
    start = time.perf_counter()
    payload = fn(0)
    elapsed = time.perf_counter() - start
    report_line(payload["name"], payload, elapsed, budget)
    assert payload["passed"], payload
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    return payload


def test_bound_collapse_oracle():
    # 20 single-series instances with the inducing set equal to the data
    # grid: the bound must equal the exact log marginal within 1e-8 and the
    # trace penalty must vanish to the same tolerance
    run_check(bench.check_bound_collapse, budget=1.0)


def test_woodbury_vs_dense_bound():
    # 50 instances, low-rank evaluation against dense covariance assembly
    run_check(bench.check_woodbury_bound, budget=2.0)


def test_posterior_oracle():
    # 50 instances: posterior mean/covariance and predictive mean/variance
    # against explicit-inverse formulas, 1e-8 absolute
    run_check(bench.check_posterior_oracle, budget=2.0)


def test_gradient_finite_difference_suite():
    # every packed coordinate on 20 instances spanning 2-3 classes, 1-2
    # kernel components, 2 or 5 inducing points; central differences at
    # h=1e-5, 1e-4 relative tolerance, and each class's bound gradient
    # against the dense oracle at 1e-8
    run_check(bench.check_gradients, budget=30.0)


def test_monotone_refinement():
    # adding an inducing timestamp never lowers the bound (10 pinned
    # instances, -1e-8 slack)
    run_check(bench.check_monotone_refinement, budget=5.0)


def test_synthetic_classification_benchmark():
    # sine vs ramp, noise level 0.3, 10 train / 20 test series per class,
    # default hyperparameters; mean accuracy over 5 data seeds >= 0.90
    run_check(bench.check_classification, budget=60.0)


def test_synthetic_forecasting_benchmark():
    # sine class, 0.8 time split: the model must beat the last-seen
    # baseline RMSE on at least 4 of 5 data seeds
    run_check(bench.check_forecasting, budget=60.0)


def test_training_time_scaling():
    # doubling the total point count (fixed m and iteration budget) may
    # grow wall-clock training time by at most 2.6x
    payload = bench.measure_scaling(0)
    report_line(payload["name"], payload, payload["seconds_small"] + payload["seconds_large"], 60.0)
    assert payload["passed"], payload


def test_bench_command_determinism(tmp_path, capsys):
    # the bench command's stored report and fixtures are byte-identical
    # across runs with the same seed. Its exit code also carries the
    # wall-clock scaling gate, which test_training_time_scaling holds
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--out", str(out_a), "--seed", "7"]) in (0, 1)
    assert main(["bench", "--out", str(out_b), "--seed", "7"]) in (0, 1)
    capsys.readouterr()
    bytes_a = (out_a / "report.json").read_bytes()
    bytes_b = (out_b / "report.json").read_bytes()
    identical = bytes_a == bytes_b
    fixtures_match = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("classification_train.jsonl", "classification_test.jsonl",
                     "forecast.jsonl")
    )
    status = "PASS" if identical and fixtures_match else "FAIL"
    _emit(f"ACCEPTANCE {status}: bench-determinism (report_bytes={len(bytes_a)}, "
          f"identical={identical}, fixtures_match={fixtures_match})")
    assert identical and fixtures_match
    assert json.loads(bytes_a)["all_passed"] is True


def test_ucr_reproduction_harness_available():
    # the dataset-dependent criterion: without user-supplied UCR files the
    # most this suite can verify is that the documented harness runs
    proc = subprocess.run(
        [sys.executable, str(HARNESS), "--help"],
        capture_output=True, text=True, timeout=60,
    )
    ok = proc.returncode == 0 and "--reference" in proc.stdout
    status = "PASS" if ok else "FAIL"
    _emit(f"ACCEPTANCE {status}: ucr-harness-runnable (dataset-dependent "
          f"accuracy comparison skipped: no UCR files supplied)")
    assert ok, proc.stderr
    pytest.skip("UCR reproduction needs user-supplied archive files; "
                "harness verified runnable")
