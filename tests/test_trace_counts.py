"""The benchmark's traced counts, pinned. Every --trace 1 count is
deterministic: how many times training evaluates the loss and its gradient,
builds kernel matrices and factors them, fits and predicts, and parses data.
This runs perfbench/run.py at the self-test's tiny size on each workload
and compares every count metric with tests/trace_counts.json. A change that
moves a count regenerates that file and says why; time is not gated."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "trace_counts.json").read_text(encoding="utf-8"))
ARGS = ["--trace", "1", "--scale", "0.02", "--seed", "3", "--seconds", "0.01"]


@pytest.mark.parametrize("workload", sorted(PINNED["counts"]))
def test_traced_counts_match_the_pinned_counts(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, *ARGS],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    counts = {name: metric["value"] for name, metric in result["metrics"].items()
              if metric["unit"] == "count"}
    assert counts == PINNED["counts"][workload]
