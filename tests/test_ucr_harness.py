import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from motioncode.dataio import RaggedRecord

HARNESS = Path(__file__).resolve().parent.parent / "scripts" / "ucr_harness.py"


def write_ucr(path, rows):
    path.write_text("".join("\t".join(str(v) for v in row) + "\n" for row in rows))


def two_class_rows(rng, n):
    grid = np.linspace(0.0, 1.0, 12)
    return [[label, *(np.sin(2 * np.pi * grid) * (1 - 2 * label)
                      + rng.normal(0.0, 0.1, grid.size)).round(6)]
            for label in (1, 2) for _ in range(n)]


def test_harness_reports_a_bad_pair_and_runs_the_rest(tmp_path, capsys):
    rng = np.random.default_rng(0)
    write_ucr(tmp_path / "Good_TRAIN.tsv", two_class_rows(rng, 4))
    write_ucr(tmp_path / "Good_TEST.tsv", two_class_rows(rng, 3))
    # sorts first, and its test file has a row of the wrong width
    write_ucr(tmp_path / "Bad_TRAIN.tsv", two_class_rows(rng, 4))
    write_ucr(tmp_path / "Bad_TEST.tsv", two_class_rows(rng, 3)[:-1] + [[2, 0.5, 0.25]])
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


@pytest.mark.parametrize("flags", [["--noise", "-0.3"], ["--noise", "nan"], ["--noise", "inf"],
                                   ["--seed", "-1"], ["--max-iters", "-1"],
                                   ["--tolerance", "nan"], ["--tolerance", "-1"]],
                         ids=lambda f: " ".join(f))
def test_harness_rejects_a_bad_noise_level_or_seed_before_any_dataset(tmp_path, capsys,
                                                                       flags):
    rng = np.random.default_rng(1)
    write_ucr(tmp_path / "Good_TRAIN.tsv", two_class_rows(rng, 4))
    write_ucr(tmp_path / "Good_TEST.tsv", two_class_rows(rng, 3))
    main = runpy.run_path(str(HARNESS), run_name="ucr_harness")["main"]
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", str(tmp_path), "--max-iters", "2", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flags[0] in captured.err


def test_add_noise_scales_by_the_peak_over_every_record_passed():
    add_noise = runpy.run_path(str(HARNESS), run_name="ucr_harness")["add_noise"]
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 1.0, 220)
    # train values stay within 2; one test series peaks at -5, so the noise
    # std is 0.3 * 5 only if the peak is taken over train and test together
    train = [RaggedRecord(label, t, rng.uniform(-2.0, 2.0, t.size))
             for label in (0, 1) for _ in range(25)]
    spike = np.zeros(t.size)
    spike[110] = -5.0
    test = [RaggedRecord(1, t, spike),
            *(RaggedRecord(label, t, rng.uniform(-2.0, 2.0, t.size)) for label in (0, 1))]
    records = train + test
    assert add_noise(records, 0.0, np.random.default_rng(9)) is records
    noisy = add_noise(records, 0.3, np.random.default_rng(5))
    assert [r.label for r in noisy] == [r.label for r in records]
    assert all(a.t is b.t for a, b in zip(noisy, records, strict=True))
    again = add_noise(records, 0.3, np.random.default_rng(5))
    assert all(np.array_equal(a.y, b.y) for a, b in zip(noisy, again, strict=True))
    diffs = np.concatenate([a.y - b.y for a, b in zip(noisy, records)])
    assert diffs.size >= 10_000
    # the sample std of 11,660 normal draws spreads by about 0.65%, so 5% is
    # over 7 of its standard deviations
    want = 0.3 * 5.0
    assert abs(np.std(diffs) - want) < 0.05 * want
