import json
import runpy
from pathlib import Path

import numpy as np

HARNESS = Path(__file__).resolve().parent.parent / "scripts" / "ucr_harness.py"


def write_ucr(path, rows):
    path.write_text("".join("\t".join(str(v) for v in row) + "\n" for row in rows))


def test_harness_reports_a_bad_pair_and_runs_the_rest(tmp_path, capsys):
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 12)

    def rows(n):
        return [[label, *(np.sin(2 * np.pi * grid) * (1 - 2 * label)
                          + rng.normal(0.0, 0.1, grid.size)).round(6)]
                for label in (1, 2) for _ in range(n)]

    write_ucr(tmp_path / "Good_TRAIN.tsv", rows(4))
    write_ucr(tmp_path / "Good_TEST.tsv", rows(3))
    # sorts first, and its test file has a row of the wrong width
    write_ucr(tmp_path / "Bad_TRAIN.tsv", rows(4))
    write_ucr(tmp_path / "Bad_TEST.tsv", rows(3)[:-1] + [[2, 0.5, 0.25]])
    out = tmp_path / "report.json"

    main = runpy.run_path(str(HARNESS), run_name="ucr_harness")["main"]
    code = main(["--data-dir", str(tmp_path), "--max-iters", "2", "--noise", "0.1",
                 "--out", str(out)])
    assert code == 1
    datasets = json.loads(out.read_text())["datasets"]
    assert [row["name"] for row in datasets] == ["Bad", "Good"]
    bad, good = datasets
    assert bad == {"name": "Bad", "error": (
        f"{tmp_path / 'Bad_TEST.tsv'}:6: row has 2 values but earlier rows have 12 "
        "(uneven data belongs in the ragged format)")}
    assert "error" not in good and 0.0 <= good["accuracy_percent"] <= 100.0
    printed = capsys.readouterr().out
    assert "Bad" in printed and "FAILED" in printed and "Good" in printed
