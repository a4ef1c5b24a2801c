import argparse
import dataclasses
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from motioncode import bench
from motioncode.cli import _build_parser, main
from motioncode.core import Hyperparams, TimeSeries, code_to_timestamps
from motioncode.dataio import load_dataset, load_model
from motioncode.inference import class_posteriors, classify_many, forecast
from motioncode.kernel import chol_jittered, class_kernel, kernel_matrix

REPORT_KEYS = {"command", "hyperparams", "wall_clock_seconds", "payload"}
HYPER_KEYS = {"m", "d", "J", "lambda", "sigma", "max_iters", "epsilon", "jitter"}
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = None
    if out.out.strip():
        assert out.out.count("\n") == 1 and out.out.endswith("\n")  # one line
        report = json.loads(out.out)
    return code, report, out.err


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.fixture
def two_constants(tmp_path):
    """Two well-separated constant classes: values 0 and 5."""
    rows = []
    t = list(np.linspace(0.0, 10.0, 12))
    for label, value in ((0, 0.0), (1, 5.0)):
        for _ in range(3):
            rows.append({"label": label, "t": t, "y": [value] * 12})
    path = tmp_path / "constants.jsonl"
    write_jsonl(path, rows)
    return path


@pytest.fixture
def shared_constant(tmp_path):
    """Both classes are the same constant, so the centered data is exactly
    zero and every prediction is exact."""
    rows = []
    t = list(np.linspace(0.0, 10.0, 21))
    for label in (0, 1):
        for _ in range(2):
            rows.append({"label": label, "t": t, "y": [5.0] * 21})
    path = tmp_path / "flat.jsonl"
    write_jsonl(path, rows)
    return path


@pytest.fixture
def ramp_and_constant(tmp_path):
    """A deterministic ramp y = t on an integer grid plus a constant class;
    the last-seen forecast error is then closed-form."""
    rows = []
    t = list(np.arange(21.0))
    for _ in range(2):
        rows.append({"label": 0, "t": t, "y": t})
        rows.append({"label": 1, "t": t, "y": [30.0] * 21})
    path = tmp_path / "ramp.jsonl"
    write_jsonl(path, rows)
    return path


def test_train_report_schema(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    code, report, _ = run(capsys, [
        "train", "--data", str(two_constants), "--max-iters", "2",
        "--out", str(model_path),
    ])
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert set(report["hyperparams"]) == HYPER_KEYS | {"threads"}
    payload = report["payload"]
    assert set(payload) == {
        "loss", "iterations", "stop_reason", "model_path", "classes",
        "data_digest", "class_fit", "data",
    }
    assert payload["data"] == {"split_fraction": None}
    assert math.isfinite(payload["loss"])
    assert payload["classes"] == [0, 1]
    assert model_path.exists()
    model = load_model(model_path)
    assert model.data_digest == payload["data_digest"]
    # 3 series per class at the default sigma 0.1, so c = 0.03
    assert [set(row) for row in payload["class_fit"]] == [
        {"label", "amplitude_over_noise", "min_inducing_gap", "jitter_used"}] * 2
    for k, row in enumerate(payload["class_fit"]):
        s = np.sort(model.inducing_timestamps(k))
        assert row["label"] == k
        assert row["amplitude_over_noise"] == pytest.approx(
            np.exp(model.log_amplitudes[k, 0]) / 0.03, rel=1e-12)
        assert row["min_inducing_gap"] == np.diff(s).min() > 0.0
        # K_SS factors at the base jitter: nothing escalated
        assert row["jitter_used"] == model.hyper.jitter == 1e-6


def test_train_report_records_the_split(tmp_path, two_constants, capsys):
    for flags, data in (([], {"split_fraction": None}),
                        (["--split-fraction", "0.5"], {"split_fraction": 0.5})):
        code, report, _ = run(capsys, [
            "train", "--data", str(two_constants), "--max-iters", "2",
            "--out", str(tmp_path / "model.json"), *flags,
        ])
        assert code == 0
        assert report["payload"]["data"] == data


def test_train_class_fit_single_inducing_timestamp(tmp_path, two_constants, capsys):
    code, report, _ = run(capsys, [
        "train", "--data", str(two_constants), "--max-iters", "0", "-m", "1",
        "-J", "2", "--sigma", "0.5", "--out", str(tmp_path / "model.json"),
    ])
    assert code == 0
    # unit amplitudes at the start point: (1 + 1) / (3 * 0.5**2)
    assert report["payload"]["class_fit"] == [
        {"label": label, "amplitude_over_noise": 2.0 / 0.75, "min_inducing_gap": None,
         "jitter_used": 1e-6}
        for label in (0, 1)]


def test_train_class_fit_reports_an_escalated_jitter(tmp_path, two_constants, capsys):
    # ten initial timestamps 0.023 apart: K_SS's smallest eigenvalue rounds
    # to about -4e-13, so a base jitter of 1e-16 must escalate
    model_path = tmp_path / "model.json"
    code, report, _ = run(capsys, [
        "train", "--data", str(two_constants), "--max-iters", "0", "--jitter", "1e-16",
        "--out", str(model_path),
    ])
    assert code == 0
    model = load_model(model_path)
    for k, row in enumerate(report["payload"]["class_fit"]):
        factor = chol_jittered(kernel_matrix(class_kernel(model, k),
                                             model.inducing_timestamps(k)), 1e-16)
        assert row["jitter_used"] == factor.jitter_used > 1e-16


def test_train_zero_iterations(tmp_path, two_constants, capsys):
    model_path = tmp_path / "init.json"
    code, report, _ = run(capsys, [
        "train", "--data", str(two_constants), "--max-iters", "0",
        "--out", str(model_path),
    ])
    assert code == 0
    assert report["payload"]["iterations"] == 0
    assert report["payload"]["stop_reason"] == "max-iters"
    model = load_model(model_path)
    assert np.array_equal(model.codes, np.ones((2, 2)))


def test_train_rejects_non_finite_scales(tmp_path, capsys):
    # values of +-1e308 give an infinite standard deviation, which no model
    # file can hold
    data = tmp_path / "huge.jsonl"
    write_jsonl(data, [{"label": label, "t": [0.0, 1.0], "y": [1e308, -1e308]}
                       for label in (0, 1)])
    model_path = tmp_path / "model.json"
    code, report, err = run(capsys, ["train", "--data", str(data),
                                     "--out", str(model_path)])
    assert code == 1 and report is None
    assert err == f"error: {data}: value_scale must be positive and finite, got inf\n"
    assert not model_path.exists()


def test_train_names_the_failure_at_the_starting_point(tmp_path, two_constants, capsys):
    # no jitter the escalation reaches from 1e-300 makes the start point's
    # K_SS positive definite, so the first evaluation fails, and the user
    # sees the factorization's own error
    model_path = tmp_path / "model.json"
    code, report, err = run(capsys, ["train", "--data", str(two_constants), "--jitter",
                                     "1e-300", "--out", str(model_path)])
    assert code == 2 and report is None
    assert err.startswith("numerical failure: matrix of size 10 stayed non positive "
                          "definite up to jitter 1e-294 (smallest eigenvalue ~ ")
    assert not model_path.exists()


def test_train_flag_defaults_are_the_hyperparams_defaults():
    args = _build_parser().parse_args(["train", "--data", "x"])
    defaults = Hyperparams()
    for f in dataclasses.fields(Hyperparams):
        value = getattr(args, f.name)
        assert value == getattr(defaults, f.name) and type(value) is type(f.default), f.name


def test_readme_training_flag_table_matches_the_train_parser():
    train = next(a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["train"]
    options = {a.dest: a.option_strings for a in train._actions}
    lines = README.read_text(encoding="utf-8").splitlines()
    table = lines[lines.index("### Training flags") + 1:]
    table = table[:next(i for i, line in enumerate(table) if line.startswith("#"))]
    rows = [line.split("|")[1].strip() for line in table if line.startswith("| `")]
    listed = {flag.strip("`") for row in rows for flag in row.split(", ")}
    assert listed <= {o for strings in options.values() for o in strings}
    unlisted = {dest for dest, strings in options.items() if not listed & set(strings)}
    assert unlisted <= {"help", "data", "format", "out"}


def test_out_of_range_timestamps_exit_1(tmp_path, two_constants, capsys):
    # test files go through the model's time scale, 0..10 here: classify
    # allows normalized times up to 1 and forecast up to 1.25
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(model_path)]) == 0
    late = tmp_path / "late.jsonl"
    write_jsonl(late, [{"label": label, "t": [11.0, 13.0], "y": [0.0, 0.0]}
                       for label in (0, 1)])
    for argv in (["classify", "--train-data", str(two_constants)],
                 ["forecast", "--train-data", str(two_constants)],
                 ["forecast", "--split-fraction", "0.5"],
                 ["timestamps"]):
        code, _, err = run(capsys, argv + ["--model", str(model_path),
                                           "--data", str(late)])
        assert code == 1
        assert err.startswith(f"error: {late}: timestamp 13.0 maps to 1.3, "
                              "outside the time scale [0.0, 10.0]")


def test_unknown_query_label_names_the_file(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(model_path)]) == 0
    queries = tmp_path / "queries.jsonl"
    write_jsonl(queries, [{"label": label, "t": [1.0, 2.0], "y": [0.0, 0.0]}
                          for label in (0, 17)])
    for argv in (["classify"],
                 ["classify", "--train-data", str(two_constants)],
                 ["forecast", "--train-data", str(two_constants)]):
        capsys.readouterr()
        code, report, err = run(capsys, argv + ["--model", str(model_path),
                                                "--data", str(queries)])
        assert code == 1 and report is None
        assert err == f"error: {queries}: label 17 is not one of the model's classes (0, 1)\n"


def test_missing_data_file(capsys):
    code, _, err = run(capsys, ["train", "--data", "/no/such/file.jsonl"])
    assert code == 1
    assert "/no/such/file.jsonl" in err


def test_bad_flag_exits_1(capsys):
    assert main(["train", "--data", "x", "--bogus"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
@pytest.mark.parametrize("argv", [
    ["classify", "--model", "m.json", "--train-data", "a.jsonl", "--data", "b.jsonl"],
    ["forecast", "--model", "m.json", "--data", "b.jsonl", "--split-fraction", "0.8"],
    ["timestamps", "--model", "m.json", "--data", "b.jsonl"],
], ids=["classify", "forecast", "timestamps"])
def test_serving_commands_reject_seed_and_threads(capsys, argv, flag):
    """The serving commands draw no random numbers and run on one thread."""
    code, report, err = run(capsys, argv + [flag, "0"])
    assert code == 1
    assert report is None
    usage, message = err.splitlines()
    assert usage.startswith("usage: motioncode ")
    assert message == f"motioncode: error: unrecognized arguments: {flag} 0"


@pytest.mark.parametrize("flags", [["--noise", "0.1"], ["--seed", "0"], ["--per-series-noise"]],
                         ids=lambda f: " ".join(f))
def test_train_rejects_the_removed_noise_flags(tmp_path, two_constants, capsys, flags):
    """Noisy experiments add noise with scripts/ucr_harness.py --noise."""
    model_path = tmp_path / "model.json"
    code, report, err = run(capsys, ["train", "--data", str(two_constants),
                                     "--out", str(model_path), *flags])
    assert code == 1 and report is None
    assert err.splitlines()[-1] == ("motioncode: error: unrecognized arguments: "
                                    + " ".join(flags))
    assert not model_path.exists()


def test_classify_constants_accuracy(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "report.json"
    code, report, _ = run(capsys, [
        "classify", "--model", str(model_path),
        "--train-data", str(two_constants), "--data", str(two_constants),
        "--out", str(out_path),
    ])
    assert code == 0
    payload = report["payload"]
    assert set(payload) == {"accuracy", "n_series", "class_order", "series"}
    assert payload["accuracy"] == 1.0
    assert payload["n_series"] == 6
    assert payload["class_order"] == [0, 1]
    row = payload["series"][0]
    assert set(row) == {"true_label", "predicted_label", "distances"}
    assert len(row["distances"]) == 2
    # --out wrote the same report
    assert json.loads(out_path.read_text())["payload"] == payload


def test_every_report_is_one_json_line_that_out_holds_byte_for_byte(tmp_path, two_constants,
                                                                    capsys):
    model_path = str(tmp_path / "model.json")
    data = str(two_constants)
    serving = {
        "classify": ["--train-data", data, "--data", data],
        "forecast": ["--data", data, "--split-fraction", "0.5"],
        "timestamps": ["--data", data],
    }
    assert main(["train", "--data", data, "--max-iters", "2", "--out", model_path]) == 0
    printed = {"train": capsys.readouterr().out}
    for command, flags in serving.items():
        out_path = tmp_path / f"{command}.json"
        assert main([command, "--model", model_path, *flags, "--out", str(out_path)]) == 0
        printed[command] = capsys.readouterr().out
        assert out_path.read_bytes() == printed[command].encode("utf-8")
    for command, text in printed.items():
        line, end = text.split("\n")
        assert end == "" and json.loads(line)["command"] == command


def test_classify_prototype_series(tmp_path, two_constants, capsys):
    """A series equal to a class's predicted mean lands on that class with
    distance exactly zero."""
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    model = load_model(model_path)
    train = load_dataset(two_constants)
    t = np.linspace(0.1, 0.9, 15)
    posteriors = class_posteriors(model, train)
    proto = forecast(model, posteriors, 1, t)
    label, dists = classify_many(model, posteriors, [TimeSeries(t, proto.mean)])[0]
    assert label == 1
    assert dists[1] == 0.0
    assert dists[0] > 1.0


def test_forecast_ramp_closed_form(tmp_path, ramp_and_constant, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(ramp_and_constant),
                 "--split-fraction", "0.5", "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "forecast", "--model", str(model_path),
        "--data", str(ramp_and_constant), "--split-fraction", "0.5",
    ])
    assert code == 0
    payload = report["payload"]
    assert set(payload) == {"split_fraction", "classes"}
    by_label = {c["label"]: c for c in payload["classes"]}
    # 21 points split 0.5: 11 train (t = 0..10), 10 test (t = 11..20);
    # repeating the last train value 10 gives errors 1..10
    want = math.sqrt(sum(k * k for k in range(1, 11)) / 10.0)
    assert by_label[0]["last_seen_rmse"] == pytest.approx(want, rel=1e-12)
    assert by_label[1]["last_seen_rmse"] == pytest.approx(0.0, abs=1e-9)
    for c in payload["classes"]:
        assert c["rmse"] >= 0.0
        assert set(c) == {"label", "rmse", "last_seen_rmse", "n_points", "points"}
        # the summary is recomputable from the per-point dump
        sq = [
            (a - p) ** 2
            for row in c["points"]
            for a, p in zip(row["actual"], row["predicted"])
        ]
        assert math.sqrt(sum(sq) / len(sq)) == pytest.approx(c["rmse"], abs=1e-10)
        assert sum(len(r["actual"]) for r in c["points"]) == c["n_points"]


def test_forecast_constant_exact(tmp_path, shared_constant, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(shared_constant),
                 "--split-fraction", "0.5", "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "forecast", "--model", str(model_path),
        "--data", str(shared_constant), "--split-fraction", "0.5",
    ])
    assert code == 0
    for c in report["payload"]["classes"]:
        assert c["rmse"] < 1e-6
        assert c["last_seen_rmse"] < 1e-6


def test_forecast_separate_files(tmp_path, capsys):
    t_train = list(np.arange(17.0))  # 0..16
    t_test = [17.0, 18.0, 19.0, 20.0]  # up to 20/16 = 1.25 of the range
    train_rows, test_rows = [], []
    for _ in range(2):
        train_rows.append({"label": 0, "t": t_train, "y": t_train})
        train_rows.append({"label": 1, "t": t_train, "y": [30.0] * 17})
        test_rows.append({"label": 0, "t": t_test, "y": t_test})
        test_rows.append({"label": 1, "t": t_test, "y": [30.0] * 4})
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    write_jsonl(train_path, train_rows)
    write_jsonl(test_path, test_rows)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(train_path), "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "forecast", "--model", str(model_path),
        "--train-data", str(train_path), "--data", str(test_path),
    ])
    assert code == 0
    by_label = {c["label"]: c for c in report["payload"]["classes"]}
    # last train value 16, test values 17..20
    want = math.sqrt((1 + 4 + 9 + 16) / 4.0)
    assert by_label[0]["last_seen_rmse"] == pytest.approx(want, rel=1e-12)

    # an unpairable test file is rejected
    write_jsonl(test_path, test_rows[:1])
    code, _, err = run(capsys, [
        "forecast", "--model", str(model_path),
        "--train-data", str(train_path), "--data", str(test_path),
    ])
    assert code == 1
    assert "paired" in err


def test_forecast_flag_validation(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, [
        "forecast", "--model", str(model_path), "--data", str(two_constants),
    ])
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, [
        "forecast", "--model", str(model_path), "--data", str(two_constants),
        "--train-data", str(two_constants), "--split-fraction", "0.5",
    ])
    assert code == 1 and "exactly one" in err


def test_timestamps_untrained_identical(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "timestamps", "--model", str(model_path), "--data", str(two_constants),
    ])
    assert code == 0
    classes = report["payload"]["classes"]
    assert set(classes[0]) == {
        "label", "timestamps_normalized", "timestamps", "mean", "variance",
    }
    # symmetric initialization: every class gets the same timestamps
    assert classes[0]["timestamps_normalized"] == classes[1]["timestamps_normalized"]
    assert all(v >= 0.0 for c in classes for v in c["variance"])
    # original-unit timestamps live on the data's own axis
    assert min(classes[0]["timestamps"]) > 0.0
    assert max(classes[0]["timestamps"]) < 10.0


def test_timestamps_sorted_permutation(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "3",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "timestamps", "--model", str(model_path), "--data", str(two_constants),
    ])
    assert code == 0
    model = load_model(model_path)
    for k, c in enumerate(report["payload"]["classes"]):
        raw = code_to_timestamps(model.code_map, model.codes[k])
        got = np.asarray(c["timestamps_normalized"])
        assert np.array_equal(got, np.sort(raw))
        assert np.all(np.diff(got) >= 0)


def test_timestamps_m1(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "-m", "1", "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "timestamps", "--model", str(model_path), "--data", str(two_constants),
    ])
    assert code == 0
    # init: the single map row is (0.5, 0.5) and every code is all-ones
    want = 1.0 / (1.0 + math.exp(-1.0))
    for c in report["payload"]["classes"]:
        assert c["timestamps_normalized"] == pytest.approx([want], rel=1e-12)


def test_ucr_round_trip(tmp_path, capsys):
    lines = []
    for _ in range(3):
        lines.append("1\t" + "\t".join(str(v) for v in np.linspace(0, 1, 8)))
        lines.append("2\t" + "\t".join(str(5 - v) for v in np.linspace(0, 1, 8)))
    data = tmp_path / "data.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--format", "ucr",
                 "-m", "3", "--max-iters", "2", "--out", str(model_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, [
        "classify", "--model", str(model_path), "--format", "ucr",
        "--train-data", str(data), "--data", str(data),
    ])
    assert code == 0
    assert report["payload"]["accuracy"] == 1.0
    assert report["payload"]["class_order"] == [1, 2]


def test_bench_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, report, _ = run(capsys, ["bench", "--out", str(out_dir), "--seed", "0"])
    payload = report["payload"]
    passed = {c["name"]: c["passed"] for c in payload["checks"]}
    assert set(passed) == {
        "bound-collapse", "woodbury-dense-bound", "posterior-oracle",
        "gradient-finite-difference", "monotone-refinement",
        "classification-benchmark", "forecasting-benchmark",
        "training-scaling",
    }
    # the wall-clock scaling check is held in test_training_time_scaling;
    # here it only has to reach the exit code
    assert all(ok for name, ok in passed.items() if name != "training-scaling")
    assert (out_dir / "report.json").exists()
    assert (out_dir / "timing.json").exists()
    for name in ("classification_train", "classification_test", "forecast"):
        assert (out_dir / f"{name}.jsonl").exists()
    stored = json.loads((out_dir / "report.json").read_text())
    assert stored["all_passed"] is True
    # the stored report carries no wall-clock fields
    assert "wall_clock_seconds" not in json.dumps(stored)
    timing = json.loads((out_dir / "timing.json").read_text())
    assert code == (0 if timing["passed"] else 1)
    assert payload["all_passed"] is timing["passed"]


def test_bench_exit_code_carries_the_scaling_gate(tmp_path, capsys, monkeypatch):
    failed = {"name": "training-scaling", "ratio": 3.0, "limit": 2.6, "passed": False}
    monkeypatch.setattr(bench, "measure_scaling", lambda seed: failed)
    code, report, _ = run(capsys, ["bench", "--out", str(tmp_path), "--seed", "0"])
    assert code == 1
    assert report["payload"]["all_passed"] is False
    assert json.loads((tmp_path / "report.json").read_text())["all_passed"] is True


def test_classify_rejects_non_finite_hyperparams(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "1",
                 "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["hyper"]["sigma"] = doc["hyper"]["lam"] = float("inf")
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, report, err = run(capsys, [
        "classify", "--model", str(model_path),
        "--train-data", str(two_constants), "--data", str(two_constants),
    ])
    assert code == 1 and report is None
    assert err == f"error: {model_path}: sigma must be finite, got inf\n"


def test_timestamps_rejects_model_numbers_too_large_for_a_float(tmp_path, two_constants,
                                                               capsys):
    # JSON integers too large for a float once escaped as OverflowError
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "1",
                 "--out", str(model_path)]) == 0
    saved = model_path.read_text()
    edits = [("value_center", lambda doc: doc.__setitem__("value_center", 10**400)),
             ("codes[1][0]", lambda doc: doc["codes"][1].__setitem__(0, -10**400)),
             ("hyper.sigma", lambda doc: doc["hyper"].__setitem__("sigma", 10**400))]
    for where, edit in edits:
        doc = json.loads(saved)
        edit(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, report, err = run(capsys, ["timestamps", "--model", str(model_path)])
        assert code == 1 and report is None
        assert err == (f"error: {model_path}: model file field {where} must be a number, "
                       "got an integer too large for a float\n")


def test_train_rejects_times_the_map_overflows(tmp_path, capsys):
    # each record is finite and increasing, but t1 - t0 overflows to inf
    path = tmp_path / "span.jsonl"
    write_jsonl(path, [{"label": 0, "t": [-1e308, 0], "y": [1, 2]},
                       {"label": 1, "t": [0, 1e308], "y": [3, 4]}])
    code, report, err = run(capsys, ["train", "--data", str(path),
                                     "--out", str(tmp_path / "m.json")])
    assert code == 1 and report is None
    assert err == f"error: {path}: timestamps must be strictly increasing\n"


@pytest.mark.parametrize("command", [["classify"], ["forecast"]])
def test_queries_rejects_values_the_map_overflows(tmp_path, two_constants, capsys, command):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "1",
                 "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["value_scale"] = 1e-300
    model_path.write_text(json.dumps(doc))
    # three series per class, as in training; 1e10 / 1e-300 overflows to inf
    queries = tmp_path / "queries.jsonl"
    write_jsonl(queries, [{"label": 0, "t": [5.0, 10.0], "y": [0.0, 1e10]}]
                + [{"label": label, "t": [5.0, 10.0], "y": [value, value]}
                   for label, value, n in ((0, 0.0, 2), (1, 5.0, 3)) for _ in range(n)])
    capsys.readouterr()
    code, report, err = run(capsys, command + [
        "--model", str(model_path), "--train-data", str(two_constants),
        "--data", str(queries),
    ])
    assert code == 1 and report is None
    assert err == f"error: {queries}: timestamps and values must be finite\n"


def test_bench_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    code, _, err = run(capsys, ["bench", "--out", str(blocker)])
    assert code == 1
    assert "blocker" in err


def test_log_env_controls_verbosity(tmp_path, two_constants, capsys, monkeypatch):
    monkeypatch.setenv("MOTIONCODE_LOG", "DEBUG")
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert logging.getLogger("motioncode").level == logging.DEBUG
    monkeypatch.setenv("MOTIONCODE_LOG", "nonsense")
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert logging.getLogger("motioncode").level == logging.WARNING


# ---------------------------------------------------------------------------
# serving from the posteriors stored in the model file


@pytest.fixture(scope="module")
def bench_fixtures(tmp_path_factory):
    return bench.write_fixtures(tmp_path_factory.mktemp("fixtures"), 0)


def write_v1(model_path, out_path):
    """The model as a version 1 file, which stores no posteriors."""
    doc = json.loads(model_path.read_text())
    doc["format_version"] = 1
    doc["data_digest"] = doc["data_digest"][:16]
    del doc["data_format"], doc["posteriors"]
    out_path.write_text(json.dumps(doc))
    return out_path


def serving_payloads(capsys, model_path, train_path, test_path):
    """The classify and timestamps payloads as JSON text; the training file
    is passed when train_path is not None."""
    given = train_path is not None
    out = {}
    for argv in (["classify", "--data", str(test_path)]
                 + (["--train-data", str(train_path)] if given else []),
                 ["timestamps"] + (["--data", str(train_path)] if given else [])):
        code, report, err = run(capsys, argv + ["--model", str(model_path)])
        assert code == 0, err
        out[argv[0]] = json.dumps(report["payload"])
    return out


@pytest.mark.parametrize("flags", [
    [], ["--split-fraction", "0.8"],
], ids=["default", "split"])
def test_stored_posteriors_serve_the_refit_payloads(tmp_path, capsys, bench_fixtures, flags):
    train = bench_fixtures["classification_train"]
    test = bench_fixtures["classification_test"]
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(train), "--out", str(model_path), *flags]) == 0
    capsys.readouterr()
    stored = serving_payloads(capsys, model_path, None, test)
    matched = serving_payloads(capsys, model_path, train, test)
    refit = serving_payloads(capsys, write_v1(model_path, tmp_path / "v1.json"), train, test)
    assert stored == matched == refit


def test_v1_model_refits_and_needs_the_training_file(tmp_path, two_constants, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    v1 = write_v1(model_path, tmp_path / "v1.json")
    assert load_model(v1).posteriors == ()
    assert (serving_payloads(capsys, v1, two_constants, two_constants)
            == serving_payloads(capsys, model_path, None, two_constants))
    for argv, flag in ((["classify", "--data", str(two_constants)], "--train-data"),
                       (["timestamps"], "--data")):
        code, report, err = run(capsys, argv + ["--model", str(v1)])
        assert code == 1 and report is None
        assert err == (f"error: {v1} stores no class posteriors; pass {flag} "
                       "with the data the model was trained on\n")


def test_training_file_must_hold_the_models_classes(tmp_path, two_constants, capsys):
    # classify reads a training file whose digest differs, to refit from it,
    # and forecast always reads its training file
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "0",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in two_constants.read_text().splitlines()]
    for command, train_rows, labels in (
            ("classify", [r for r in rows if r["label"] == 0], "(0,)"),
            ("forecast", rows + [dict(rows[0], label=5)], "(0, 1, 5)")):
        train = tmp_path / f"{command}-train.jsonl"
        write_jsonl(train, train_rows)
        code, report, err = run(capsys, [command, "--model", str(model_path),
                                         "--train-data", str(train),
                                         "--data", str(two_constants)])
        assert code == 1 and report is None
        assert err == (f"error: {train}: class labels {labels} do not match the "
                       "model's classes (0, 1)\n")


def test_serving_logs_which_posteriors_it_used(tmp_path, two_constants, capsys, caplog):
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(two_constants), "--max-iters", "2",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    v1 = write_v1(model_path, tmp_path / "v1.json")
    rows = [json.loads(line) for line in two_constants.read_text().splitlines()]
    rows[3]["y"][0] = 5.5
    edited = tmp_path / "edited.jsonl"
    write_jsonl(edited, rows)
    stored = f"serving the class posteriors stored in {model_path}"
    refit = "refitting the class posteriors from {}: {}"
    cases = [
        (model_path, None, stored),
        (model_path, two_constants, stored),
        (v1, two_constants, refit.format(two_constants, "the model file stores none")),
        (model_path, edited, refit.format(edited, f"{edited} is not the file they were "
                                                  "fitted on (its digest differs)")),
    ]
    caplog.set_level(logging.INFO, logger="motioncode.cli")
    payloads = []
    for path, train_path, message in cases:
        caplog.clear()
        payloads.append(serving_payloads(capsys, path, train_path, two_constants))
        assert [r.getMessage() for r in caplog.records if r.name == "motioncode.cli"] == [
            message, message]
    # the payload bytes do not depend on the path taken; a different
    # training file gives different posteriors
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[3]["classify"] != payloads[0]["classify"]


def test_serving_refits_when_the_format_differs(tmp_path, capsys, caplog):
    lines = []
    for _ in range(3):
        lines.append("1\t" + "\t".join(str(v) for v in np.linspace(0, 1, 8)))
        lines.append("2\t" + "\t".join(str(5 - v) for v in np.linspace(0, 1, 8)))
    data = tmp_path / "data.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--format", "ucr", "-m", "3",
                 "--max-iters", "2", "--out", str(model_path)]) == 0
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="motioncode.cli")
    caplog.clear()
    # the same bytes read as ragged records: the refit parses them, and fails
    code, report, err = run(capsys, ["timestamps", "--model", str(model_path),
                                     "--data", str(data), "--format", "ragged"])
    assert code == 1 and report is None
    assert err.startswith(f"error: {data}:1: invalid JSON")
    assert [r.getMessage() for r in caplog.records if r.name == "motioncode.cli"] == [
        f"refitting the class posteriors from {data}: they were fitted on ucr data, "
        "not ragged"]
