"""End-to-end and per-layer benchmark of the motioncode CLI.

    python3 perfbench/run.py --workload short-many --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. Each run

1. writes the workload's JSONL files from the seed (set-up, repeated before
   every repetition and reported as the median ``setup_s``);
2. runs the workload's command sequence (train, forecast, classify,
   timestamps) through ``motioncode.cli.main`` in-process, with stdout
   captured, as many times as fit in ``--seconds``;
3. checks every command's output (see ``check_sequence``);
4. prints one JSON object as the last line of stdout.

With ``--trace 0`` the metrics are end-to-end medians over the repetitions,
measured with tracing off. With ``--trace 1`` each repetition runs the
sequence once untraced and once traced (see ``tracing.py``) and the metrics
are per-layer: call counts, busy seconds and self seconds from the traced
runs; serving throughput and the tracing overhead from the untraced ones.
Spans, machine facts and metrics are written under ``.perfbench-work/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# the largest --threads any workload passes; BLAS threads are capped so that
# this many class workers times BLAS threads never exceeds the CPU count
CLI_THREADS = 2
LOSS_RTOL = 1e-8
RMSE_RTOL = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "ratio"),
    ("forecast_rmse_ratio", "ratio"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    ("objective.total_loss.calls", "count"),
    ("objective.total_loss.s", "s"),
    ("objective.loss_gradient.calls", "count"),
    ("objective.loss_gradient.s", "s"),
    ("objective.loss.us_per_point", "us"),
    ("objective.grad.us_per_point", "us"),
    ("objective.self_s", "s"),
    ("kernel.matrix.calls", "count"),
    ("kernel.matrix.s", "s"),
    ("kernel.matrix.entries", "count"),
    ("kernel.chol.calls", "count"),
    ("kernel.chol.s", "s"),
    ("kernel.chol.jitter_escalations", "count"),
    ("optimizer.iterations", "count"),
    ("optimizer.loss_calls", "count"),
    ("optimizer.grad_calls", "count"),
    ("optimizer.self_s", "s"),
    ("optimizer.accept_ratio", "ratio"),
    ("inference.fit_posterior.calls", "count"),
    ("inference.fit_posterior.s", "s"),
    ("inference.predict.calls", "count"),
    ("inference.predict.s", "s"),
    ("inference.fit_reuse_ratio", "ratio"),
    ("inference.self_s", "s"),
    ("dataio.parse_records.calls", "count"),
    ("dataio.parse_records.s", "s"),
    ("dataio.parse_records.points", "count"),
    ("dataio.points_per_s", "1/s"),
    ("dataio.model_io.s", "s"),
    ("dataio.self_s", "s"),
    ("bench.self_s", "s"),  # motioncode.bench builds the CLI's forecast rows
    ("cli.train.self_s", "s"),
    ("cli.classify.self_s", "s"),
    ("cli.forecast.self_s", "s"),
    ("cli.timestamps.self_s", "s"),
    ("harness.self_s", "s"),
    # serving throughput, measured on the untraced repetitions; kept out of
    # the end-to-end metrics because a host whose speed flips between two
    # states makes the run medians of these sub-second commands jump by up
    # to 0.35 between runs, beyond the largest bound the benchmark can set
    ("cli.classify.series_per_s", "1/s"),
    ("cli.forecast.series_per_s", "1/s"),
    ("traced_total_s", "s"),
    ("trace_overhead_s", "s"),
)

# counts must repeat exactly between traced repetitions
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def cap_blas_threads():
    """Set the BLAS thread count before numpy loads. Returns (nproc, blas)."""
    nproc = len(os.sched_getaffinity(0))
    blas = max(1, nproc // CLI_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc, blas


def import_package():
    """Import motioncode from the checkout's src/; raise if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "motioncode", "cli.py")):
        raise FileNotFoundError(f"no motioncode sources under {SRC}")
    sys.path.insert(0, SRC)
    import motioncode
    from motioncode import bench, cli, dataio, inference, objective, optimizer
    if os.path.dirname(os.path.dirname(os.path.abspath(motioncode.__file__))) != SRC:
        raise ImportError(f"motioncode was imported from {motioncode.__file__}, not {SRC}")
    return {"bench": bench, "cli": cli, "dataio": dataio, "inference": inference,
            "objective": objective, "optimizer": optimizer}


def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc, blas):
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas_info = deps.get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_info.get('name', '?')} {blas_info.get('version', '?')}",
        "blas_threads_set": blas,
        "blas_threads_reported": _openblas_threads(),
    }


# ---------------------------------------------------------------------------
# running and checking one command sequence


def run_sequence(mods, cmds, tracer=None):
    """Run the commands through cli.main. Returns the per-command results,
    the sequence's wall time and, when traced, the root span's id."""
    results = []
    patch = tracer.patched(mods) if tracer else contextlib.nullcontext()
    root = tracer.span("harness.sequence") if tracer else contextlib.nullcontext()
    with patch, root as root_id:
        start = time.perf_counter()
        for argv in cmds:
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = mods["cli"].main(list(argv))
                except Exception:  # a crash is one failed command, not the run's end
                    code = None
                    err.write(traceback.format_exc())
            results.append({"command": argv[0], "code": code,
                            "seconds": time.perf_counter() - began,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
        total = time.perf_counter() - start
    return results, total, root_id


def _agree(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _pooled_rmse_ratio(classes):
    sq_model = sum(c["rmse"] ** 2 * c["n_points"] for c in classes)
    sq_last = sum(c["last_seen_rmse"] ** 2 * c["n_points"] for c in classes)
    return (sq_model / sq_last) ** 0.5


def _check_train(payload, ctx):
    with open(payload["model_path"], "rb") as handle:
        model_bytes = handle.read()
    if model_bytes == ctx.get("checked_model"):
        return  # byte-identical to a model whose loss was already recomputed
    mods = ctx["mods"]
    model = mods["dataio"].load_model(payload["model_path"])
    ctx["model"] = model
    recomputed = mods["objective"].total_loss(model, ctx["train_ds"])
    if not _agree(payload["loss"], recomputed, LOSS_RTOL):
        raise AssertionError(f"reported loss {payload['loss']!r} but the saved "
                             f"model recomputes to {recomputed!r}")
    ctx["checked_model"] = model_bytes


def _check_forecast(payload, ctx):
    import numpy as np
    ctx["forecast_series"] = sum(len(c["points"]) for c in payload["classes"])
    ctx["forecast_rmse_ratio"] = _pooled_rmse_ratio(payload["classes"])
    labels = [c["label"] for c in payload["classes"]]
    if labels != list(ctx["model"].class_labels):
        raise AssertionError(f"forecast classes {labels} != model classes")
    n_points = sum(c["n_points"] for c in payload["classes"])
    if n_points != ctx["forecast_points"]:
        raise AssertionError(f"forecast covers {n_points} points, expected "
                             f"{ctx['forecast_points']}")
    for c in payload["classes"]:
        actual = np.concatenate([r["actual"] for r in c["points"]])
        predicted = np.concatenate([r["predicted"] for r in c["points"]])
        rmse = float(np.sqrt(np.mean((actual - predicted) ** 2)))
        if not (np.isfinite(rmse) and _agree(rmse, c["rmse"], RMSE_RTOL)):
            raise AssertionError(f"class {c['label']}: reported RMSE {c['rmse']!r}, "
                                 f"points give {rmse!r}")


def _check_classify(payload, ctx):
    ctx["accuracy"] = payload["accuracy"]
    rows = payload["series"]
    order = payload["class_order"]
    if len(rows) != ctx["test_series"] or payload["n_series"] != len(rows):
        raise AssertionError(f"classified {len(rows)} series, expected {ctx['test_series']}")
    for row in rows:
        dists = row["distances"]
        if len(dists) != len(order) or row["predicted_label"] != order[dists.index(min(dists))]:
            raise AssertionError(f"predicted label {row['predicted_label']} is not "
                                 f"the nearest class of {dists}")
    hits = sum(r["true_label"] == r["predicted_label"] for r in rows)
    if payload["accuracy"] != hits / len(rows):
        raise AssertionError(f"reported accuracy {payload['accuracy']} != {hits}/{len(rows)}")


def _check_timestamps(payload, ctx):
    model = ctx["model"]
    t0, t1 = model.time_scale
    if [c["label"] for c in payload["classes"]] != list(model.class_labels):
        raise AssertionError("timestamps report does not list every class")
    for c in payload["classes"]:
        ts = c["timestamps"]
        if len(ts) != model.hyper.m or not all(t0 <= t <= t1 for t in ts):
            raise AssertionError(f"class {c['label']}: timestamps {ts} outside the time scale")
        if min(c["variance"]) < 0.0:
            raise AssertionError(f"class {c['label']}: negative predictive variance")


CHECKS = {"train": _check_train, "forecast": _check_forecast,
          "classify": _check_classify, "timestamps": _check_timestamps}


def check_sequence(results, ctx):
    """Check every command of one repetition. Returns failure messages; each
    failed command contributes one. The checks:

    * the command exits 0 and prints one JSON report for that command;
    * train's reported loss equals objective.total_loss recomputed from the
      saved model on the same (split) training data, within LOSS_RTOL (a
      model file byte-identical to one already checked is not recomputed;
      the payload check below keeps its reported loss identical too);
    * forecast covers every class and every held-back point, and each
      class's RMSE matches its own points;
    * classify labels every test series with its nearest class and reports
      the accuracy its rows give;
    * timestamps lists m in-range timestamps per class with variances >= 0;
    * each report's payload is identical to the first repetition's.
    """
    failures = []
    for res in results:
        name = res["command"]
        try:
            if res["code"] != 0:
                raise AssertionError(f"exit code {res['code']}: {res['stderr'][-2000:]}")
            report = json.loads(res["stdout"])
            if report.get("command") != name:
                raise AssertionError(f"report is for {report.get('command')!r}")
            payload = report["payload"]
            CHECKS[name](payload, ctx)
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            first = ctx["digests"].setdefault(name, digest)
            if digest != first:
                raise AssertionError("payload differs from the first repetition's")
        except Exception as exc:  # any malformed report is a failed command
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return float(statistics.median(values))


def _seconds(reps, name):
    return [r["seconds"] for rep in reps for r in rep["results"] if r["command"] == name]


def end_to_end_metrics(reps, setup_times, ctx, attempted, failed):
    return {
        "setup_s": _median(setup_times),
        "total_s": _median([rep["total"] for rep in reps]),
        "train_s": _median(_seconds(reps, "train")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": ctx["accuracy"],
        "forecast_rmse_ratio": ctx["forecast_rmse_ratio"],
        "success_rate": (attempted - failed) / attempted,
    }


def layer_values(summary, ctx):
    """Per-layer values of one traced repetition."""
    calls, secs, count, selfs = (summary[k] for k in ("calls", "s", "count", "self_s"))

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.startswith(layer + "."))

    n_train = ctx["train_points"]
    loss_calls = c("objective.total_loss")
    grad_calls = c("objective.loss_gradient")
    iterations = count.get("optimizer.minimize", 0)
    fits = c("inference.fit_posterior")
    points = count.get("dataio.parse_records", 0)
    return {
        "objective.total_loss.calls": loss_calls,
        "objective.total_loss.s": s("objective.total_loss"),
        "objective.loss_gradient.calls": grad_calls,
        "objective.loss_gradient.s": s("objective.loss_gradient"),
        "objective.loss.us_per_point": 1e6 * s("objective.total_loss") / (loss_calls * n_train),
        "objective.grad.us_per_point": 1e6 * s("objective.loss_gradient") / (grad_calls * n_train),
        "objective.self_s": layer_self("objective"),
        "kernel.matrix.calls": c("kernel.matrix"),
        "kernel.matrix.s": s("kernel.matrix"),
        "kernel.matrix.entries": count.get("kernel.matrix", 0),
        "kernel.chol.calls": c("kernel.chol"),
        "kernel.chol.s": s("kernel.chol"),
        "kernel.chol.jitter_escalations": count.get("kernel.chol", 0),
        "optimizer.iterations": iterations,
        "optimizer.loss_calls": loss_calls,
        "optimizer.grad_calls": grad_calls,
        "optimizer.self_s": layer_self("optimizer"),
        "optimizer.accept_ratio": iterations / loss_calls,
        "inference.fit_posterior.calls": fits,
        "inference.fit_posterior.s": s("inference.fit_posterior"),
        "inference.predict.calls": c("inference.predict"),
        "inference.predict.s": s("inference.predict"),
        "inference.fit_reuse_ratio": ctx["n_classes"] / fits,
        "inference.self_s": layer_self("inference"),
        "dataio.parse_records.calls": c("dataio.parse_records"),
        "dataio.parse_records.s": s("dataio.parse_records"),
        "dataio.parse_records.points": points,
        "dataio.points_per_s": points / s("dataio.parse_records"),
        "dataio.model_io.s": s("dataio.load_model") + s("dataio.save_model"),
        "dataio.self_s": layer_self("dataio"),
        "bench.self_s": layer_self("bench"),
        "cli.train.self_s": selfs.get("cli.train", 0.0),
        "cli.classify.self_s": selfs.get("cli.classify", 0.0),
        "cli.forecast.self_s": selfs.get("cli.forecast", 0.0),
        "cli.timestamps.self_s": selfs.get("cli.timestamps", 0.0),
        "harness.self_s": layer_self("harness"),
        "traced_total_s": summary["root_s"],
    }


def per_layer_metrics(traced, untraced, ctx):
    """Medians over the traced repetitions (serving throughput and the
    untraced total over the untraced ones), plus a failure message for each
    count that did not repeat exactly."""
    values = {name: _median([t[name] for t in traced]) for name in traced[0]}
    values["trace_overhead_s"] = (values["traced_total_s"]
                                  - _median([rep["total"] for rep in untraced]))
    values["cli.classify.series_per_s"] = _median(
        [ctx["test_series"] / s for s in _seconds(untraced, "classify")])
    values["cli.forecast.series_per_s"] = _median(
        [ctx["forecast_series"] / s for s in _seconds(untraced, "forecast")])
    failures = [f"trace: {name} differs between repetitions"
                for name in EXACT_COUNTS if len({t[name] for t in traced}) != 1]
    return values, failures


def _result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    })


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; at least one repetition runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor; below 1 only for the self-test")
    return parser.parse_args(argv)


def run(args, nproc, blas):
    """Set up, measure and check one workload; returns the result line and
    the run's record (machine facts, metrics, failures)."""
    from tracing import Tracer, summarize
    from workloads import SPLIT_FRACTION, WORKLOADS, commands, generate

    mods = import_package()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    data_dir = os.path.join(run_dir, "data")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(data_dir)

    setup_times = []

    def set_up():
        began = time.perf_counter()
        counts = generate(workload, args.seed, data_dir, args.scale)
        setup_times.append(time.perf_counter() - began)
        return counts

    counts = set_up()
    cmds = commands(workload, data_dir)
    train_ds = mods["dataio"].load_dataset(os.path.join(data_dir, "train.jsonl"))
    if "--split-fraction" in workload.train_args:
        train_ds = mods["dataio"].forecast_split(train_ds, SPLIT_FRACTION)[0]
    ctx = {
        "mods": mods, "train_ds": train_ds, "train_points": train_ds.n_points(),
        "n_classes": train_ds.n_classes, "test_series": counts["test"]["series"],
        "forecast_points": counts[workload.forecast_on]["forecast_points"],
        "digests": {},
    }

    # each round sets up again (the host's speed drifts over seconds, so
    # set-up samples are spread over the run), then runs the sequence
    # untraced and, with --trace 1, traced too; rounds continue while
    # another one is expected to fit in the budget
    def checked(results, total=None):
        # keep only timings, so captured reports do not add to peak RSS
        return {"results": [{"command": r["command"], "seconds": r["seconds"]}
                            for r in results],
                "total": total, "failures": check_sequence(results, ctx)}

    reps, traced = [], []
    rounds = 0
    began = time.perf_counter()
    while True:
        if rounds:
            set_up()
        results, total, _ = run_sequence(mods, cmds)
        reps.append(checked(results, total))
        if args.trace:
            tracer = Tracer()
            results, _, root_id = run_sequence(mods, cmds, tracer)
            reps.append(checked(results))
            traced.append(layer_values(summarize(tracer.spans, root_id), ctx))
        rounds += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / rounds > args.seconds:
            break

    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(len(rep["results"]) for rep in reps)
    if args.trace:
        values, count_failures = per_layer_metrics(
            traced, [r for r in reps if r["total"] is not None], ctx)
        failures += count_failures
        units = PER_LAYER
        tracer.dump(os.path.join(run_dir, "spans.jsonl"))
    else:
        missing = [k for k in ("accuracy", "forecast_rmse_ratio") if k not in ctx]
        if missing:
            raise RuntimeError(f"no repetition reported {missing}: {failures[:4]}")
        values = end_to_end_metrics(reps, setup_times, ctx, attempted, len(failures))
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "repetitions": rounds,
        "machine": machine_facts(nproc, blas), "metrics": values,
        "setup_seconds": setup_times,
        "command_seconds": [{r["command"]: r["seconds"] for r in rep["results"]}
                            for rep in reps],
        "failures": failures,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    shutil.rmtree(data_dir)
    failed = len(failures)
    return _result_line(failed == 0, attempted, failed, values, units), record


def main(argv=None):
    nproc, blas = cap_blas_threads()
    args = parse_args(argv)
    # bind the package's log handler to the real stderr before any command
    # runs with stderr captured
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        line, record = run(args, nproc, blas)
    except (FileNotFoundError, ImportError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(f"repetitions: {record['repetitions']}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
