"""The benchmark's traced run (perfbench/run.py --trace 1) replaces the
module attributes listed in perfbench/tracing.py's PATCH_POINTS. A renamed
or deleted attribute would crash only that run, so these tests check every
patch point against the package. They read the benchmark's files and
change nothing there."""

import json
from pathlib import Path

from motioncode import dataio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Execute one benchmark module from its source, writing no bytecode."""
    path = PERFBENCH / name
    namespace = {"__file__": str(path), "__name__": f"perfbench_{path.stem}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_every_patch_point_resolves():
    modules = _load("run.py")["import_package"]()
    points = _load("tracing.py")["PATCH_POINTS"]
    assert points
    missing = [(mod, attr) for mod, attr, _, _ in points
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []


def test_load_dataset_reaches_patched_parse_ragged(tmp_path, monkeypatch):
    # the benchmark divides the parsed point count by this span's time, so
    # load_dataset must look parse_ragged up on the module at call time
    p = tmp_path / "data.jsonl"
    p.write_text("".join(
        json.dumps({"label": label, "t": [0.0, 1.0], "y": [1.0, 2.0]}) + "\n"
        for label in (0, 1)
    ))
    original = dataio.parse_ragged
    calls = []

    def traced(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(dataio, "parse_ragged", traced)
    ds = dataio.load_dataset(p)
    assert calls == [p]
    assert ds.n_classes == 2
