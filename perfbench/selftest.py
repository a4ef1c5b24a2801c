"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import self_times  # noqa: E402
from workloads import WORKLOADS, uneven_times  # noqa: E402

SEED = 3
SCALE = "0.02"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    # a budget this small runs exactly one repetition
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.01", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] == 4 * (1 + trace)
    spec = _spec()["end_to_end" if trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if trace == 0:
        assert all(result["metrics"][name]["value"] != 0 for name in want)


def test_generator_builds_long_strictly_increasing_series():
    t = uneven_times(np.random.default_rng(SEED), 12000)
    assert t.shape == (12000,)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_sum_to_traced_total(workload):
    out = _run(workload, 1)
    assert out.returncode == 0, out.stderr
    run_dir = os.path.join(ROOT, ".perfbench-work", f"{workload}-seed{SEED}-trace1")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    with open(os.path.join(run_dir, "spans.jsonl"), encoding="utf-8") as handle:
        spans = [tuple(json.loads(line)) for line in handle]
    root = next(s for s in spans if s[1] == "harness.sequence")
    selfs = self_times(spans)
    on_root_thread = sum(selfs[s[0]] for s in spans if s[5] == root[5])
    assert root[3] - root[2] == pytest.approx(metrics["traced_total_s"], abs=1e-12)
    tolerance = max(abs(metrics["trace_overhead_s"]), 1e-9)
    assert abs(on_root_thread - metrics["traced_total_s"]) <= tolerance


def test_fails_without_the_package_sources():
    bare = os.path.join(ROOT, ".perfbench-work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = _run("short-many", 0, cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)
