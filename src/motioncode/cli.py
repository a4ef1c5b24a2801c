"""
cli.py - command-line surface: train, classify, forecast, timestamps, bench.

Every command prints one JSON report to stdout as a single line (and the
same bytes to --out when given) with stable field names: command,
hyperparams, wall_clock_seconds, payload.
Exit codes: 0 success, 1 input or benchmark failure, 2 numerical failure.
Log verbosity comes from the MOTIONCODE_LOG environment variable (DEBUG,
INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import bench
from .core import (Hyperparams, InputError, ModelParams, MotionCodeError, NumericalError,
                   effective_noise)
from .dataio import (
    DATA_FORMATS,
    dataset_from_records,
    file_digest,
    forecast_split,
    in_file,
    load_dataset,
    load_model,
    load_queries,
    parse_records,
    save_model,
    to_original_units,
)
from .inference import FORECAST_HORIZON, class_posteriors, classify_many, forecast
from .kernel import chol_jittered, class_kernel, kernel_matrix
from .optimizer import train_model

__all__ = ["main"]

log = logging.getLogger("motioncode.cli")


def _configure_logging():
    name = os.environ.get("MOTIONCODE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("motioncode").setLevel(level)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; this artifact reserves 2 for
    numerical failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# accepted so that existing command lines keep working; classes are
# evaluated in turn on the calling thread whatever its value
THREADS_HELP = "ignored; kept for compatibility"
REPORT_OUT_HELP = "also write the JSON report to this path"
TRAINING_FILE_HELP = ("the collections the model was trained on; omit to use the "
                      "class posteriors stored in the model file")


def _add_io_flags(sub, required=True, data_help="input dataset path"):
    sub.add_argument("--data", required=required, help=data_help)
    sub.add_argument("--format", choices=DATA_FORMATS, default="ragged",
                     help="input file format")


def _build_parser():
    parser = _Parser(prog="motioncode",
                     description="collection-level sparse process models "
                                 "for labeled time series")
    subs = parser.add_subparsers(dest="command", required=True)

    defaults = Hyperparams()  # each field is the train flag of the same dest
    tr = subs.add_parser("train", help="fit a model")
    _add_io_flags(tr)
    tr.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    tr.add_argument("-m", "--m", type=int, default=defaults.m, dest="m",
                    help="number of informative timestamps per class")
    tr.add_argument("-d", "--d", type=int, default=defaults.d, dest="d",
                    help="code vector dimension")
    tr.add_argument("-J", "--J", type=int, default=defaults.j, dest="j",
                    help="kernel mixture components")
    tr.add_argument("--lambda", type=float, default=defaults.lam, dest="lam",
                    help="code norm penalty weight")
    tr.add_argument("--sigma", type=float, default=defaults.sigma,
                    help="observation noise standard deviation")
    tr.add_argument("--max-iters", type=int, default=defaults.max_iters,
                    help="optimizer iteration budget")
    tr.add_argument("--epsilon", type=float, default=defaults.epsilon,
                    help="stop once the loss decrease falls below this")
    tr.add_argument("--jitter", type=float, default=defaults.jitter,
                    help="base diagonal stabilizer for factorizations")
    tr.add_argument("--split-fraction", type=float, default=None,
                    help="train on only the first fraction of every series")
    tr.add_argument("--out", default="model.json", help="model output path")
    tr.set_defaults(handler=cmd_train)

    cl = subs.add_parser("classify", help="label series with a trained model")
    cl.add_argument("--model", required=True, help="trained model path")
    cl.add_argument("--train-data", default=None, help=TRAINING_FILE_HELP)
    _add_io_flags(cl)
    cl.add_argument("--out", default=None, help=REPORT_OUT_HELP)
    cl.set_defaults(handler=cmd_classify)

    fc = subs.add_parser("forecast", help="predict future values per class")
    fc.add_argument("--model", required=True)
    fc.add_argument("--train-data", default=None,
                    help="training collections; omit with --split-fraction")
    fc.add_argument("--split-fraction", type=float, default=None,
                    help="split --data in time instead of reading separate files")
    _add_io_flags(fc)
    fc.add_argument("--out", default=None, help=REPORT_OUT_HELP)
    fc.set_defaults(handler=cmd_forecast)

    ts = subs.add_parser("timestamps",
                         help="per-class informative timestamps and the "
                              "predicted signal there")
    ts.add_argument("--model", required=True)
    _add_io_flags(ts, required=False, data_help=TRAINING_FILE_HELP)
    ts.add_argument("--out", default=None, help=REPORT_OUT_HELP)
    ts.set_defaults(handler=cmd_timestamps)

    be = subs.add_parser("bench",
                         help="generate fixtures and run the full check suite")
    be.add_argument("--out", default="bench-out", help="output directory")
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(handler=cmd_bench)

    return parser


def _hyper_dict(h: Hyperparams, threads=None):
    out = {
        "m": int(h.m), "d": int(h.d), "J": int(h.j), "lambda": float(h.lam),
        "sigma": float(h.sigma), "max_iters": int(h.max_iters),
        "epsilon": float(h.epsilon), "jitter": float(h.jitter),
    }
    if threads is not None:
        out["threads"] = int(threads)
    return out


def _emit(command, hyper, payload, started, out_path):
    report = {
        "command": command,
        "hyperparams": hyper,
        "wall_clock_seconds": time.perf_counter() - started,
        "payload": payload,
    }
    text = json.dumps(report)  # one line; with indent, json runs its Python encoder
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return report


def _load_in_model_coordinates(path, fmt, model: ModelParams):
    """Load collections pinned to a model's coordinate system; the file must
    contain exactly the model's classes."""
    records = parse_records(path, fmt)
    with in_file(path):
        ds = dataset_from_records(records, model)
    if ds.class_labels != model.class_labels:
        raise InputError(
            f"{path}: class labels {ds.class_labels} do not match the "
            f"model's classes {model.class_labels}"
        )
    return ds


def _serving_posteriors(args, model: ModelParams, path, flag):
    """The class posteriors classify and timestamps serve from: the ones
    stored in the model file when path is omitted, or when path holds the
    bytes they were fitted on, read in the same format; otherwise refitted
    from path. Logs which, and why."""
    reason = None
    if path is None:
        if not model.posteriors:
            raise InputError(f"{args.model} stores no class posteriors; pass {flag} "
                             "with the data the model was trained on")
    elif not model.posteriors:
        reason = "the model file stores none"
    elif args.format != model.data_format:
        reason = f"they were fitted on {model.data_format} data, not {args.format}"
    elif file_digest(path) != model.data_digest:
        reason = f"{path} is not the file they were fitted on (its digest differs)"
    if reason is None:
        log.info("serving the class posteriors stored in %s", args.model)
        return model.posteriors
    log.info("refitting the class posteriors from %s: %s", path, reason)
    return class_posteriors(model, _load_in_model_coordinates(path, args.format, model))


def _class_fit(model: ModelParams, dataset):
    """Per class: its summed kernel amplitude over the effective noise c of
    its training collection, the smallest gap between its sorted
    normalized inducing timestamps (None when m = 1), and the jitter
    chol_jittered needs to factor its K_SS. A collapsed fit shows as a tiny
    ratio, coincident timestamps or a jitter above hyper.jitter."""
    hyper = model.hyper
    rows = []
    for k, collection in enumerate(dataset.collections):
        kp, s = class_kernel(model, k), model.inducing_timestamps(k)
        rows.append({
            "label": int(model.class_labels[k]),
            "amplitude_over_noise": float(np.sum(kp.amplitudes))
            / effective_noise(collection.size, hyper.sigma),
            "min_inducing_gap": float(np.diff(np.sort(s)).min()) if s.size > 1 else None,
            "jitter_used": chol_jittered(kernel_matrix(kp, s), hyper.jitter).jitter_used,
        })
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    started = time.perf_counter()
    hyper = Hyperparams(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(Hyperparams)})
    loaded = dataset = load_dataset(args.data, args.format)
    log.info("loaded %d classes, %d series from %s", dataset.n_classes,
             sum(len(c.series) for c in dataset.collections), args.data)
    if args.split_fraction is not None:
        dataset, _ = forecast_split(dataset, args.split_fraction)
        log.info("kept the first %.0f%% of every series", 100 * args.split_fraction)
    model, info = train_model(dataset, hyper)
    # the posteriors classify and timestamps serve: fitted on the file as
    # loaded, which is what they would refit from that file
    model = dataclasses.replace(model, data_digest=file_digest(args.data),
                                data_format=args.format,
                                posteriors=class_posteriors(model, loaded))
    save_model(model, args.out)
    log.info("model written to %s", args.out)
    payload = {
        "loss": float(info.loss),
        "iterations": int(info.iterations),
        "stop_reason": info.stop_reason,
        "model_path": str(args.out),
        "classes": [int(label) for label in model.class_labels],
        "data_digest": model.data_digest,
        "class_fit": _class_fit(model, dataset),
        "data": {"split_fraction": args.split_fraction},
    }
    _emit("train", _hyper_dict(hyper, args.threads), payload, started, None)
    return 0


def cmd_classify(args):
    started = time.perf_counter()
    model = load_model(args.model)
    posteriors = _serving_posteriors(args, model, args.train_data, "--train-data")
    classes, series = load_queries(args.data, model, args.format, horizon=1.0)
    results = classify_many(model, posteriors, series)
    rows = []
    hits = 0
    for k, (pred, dists) in zip(classes, results):
        hits += int(pred == k)
        rows.append({
            "true_label": int(model.class_labels[k]),
            "predicted_label": int(model.class_labels[pred]),
            "distances": [float(x) for x in dists],
        })
    payload = {
        "accuracy": hits / len(rows),
        "n_series": len(rows),
        "class_order": [int(x) for x in model.class_labels],
        "series": rows,
    }
    _emit("classify", _hyper_dict(model.hyper), payload, started, args.out)
    return 0


def cmd_forecast(args):
    started = time.perf_counter()
    model = load_model(args.model)
    if (args.split_fraction is None) == (args.train_data is None):
        raise InputError(
            "forecast needs exactly one of --train-data or --split-fraction"
        )
    if args.split_fraction is not None:
        full = _load_in_model_coordinates(args.data, args.format, model)
        train_ds, test_ds = forecast_split(full, args.split_fraction)
        queries = [col.series for col in test_ds.collections]
    else:
        train_ds = _load_in_model_coordinates(args.train_data, args.format, model)
        query_classes, query_series = load_queries(args.data, model, args.format,
                                                   horizon=FORECAST_HORIZON)
        queries = [[ts for c, ts in zip(query_classes, query_series) if c == k]
                   for k in range(model.n_classes)]
    posteriors = class_posteriors(model, train_ds)
    classes = []
    for k, class_queries in enumerate(queries):
        entry = bench.class_forecast_errors(model, posteriors, k,
                                            train_ds.collections[k].series,
                                            class_queries)
        if entry is not None:
            classes.append(entry)
    payload = {"split_fraction": args.split_fraction, "classes": classes}
    _emit("forecast", _hyper_dict(model.hyper), payload, started, args.out)
    return 0


def cmd_timestamps(args):
    started = time.perf_counter()
    model = load_model(args.model)
    posteriors = _serving_posteriors(args, model, args.data, "--data")
    classes = []
    for k in range(model.n_classes):
        s = np.sort(model.inducing_timestamps(k))
        pred = forecast(model, posteriors, k, s)
        times, mean, variance = to_original_units(model, s, pred.mean, pred.variance)
        classes.append({
            "label": int(model.class_labels[k]),
            "timestamps_normalized": [float(x) for x in s],
            "timestamps": [float(x) for x in times],
            "mean": [float(x) for x in mean],
            "variance": [float(x) for x in variance],
        })
    payload = {"classes": classes}
    _emit("timestamps", _hyper_dict(model.hyper), payload, started, args.out)
    return 0


def cmd_bench(args):
    started = time.perf_counter()
    fixtures = bench.write_fixtures(args.out, args.seed)
    log.info("fixtures written to %s", args.out)
    report = bench.run_checks(args.seed)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "wb") as handle:
        handle.write(bench.report_to_bytes(report))
    scaling = bench.measure_scaling(args.seed)
    timing_path = os.path.join(args.out, "timing.json")
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump(scaling, handle, indent=1)
        handle.write("\n")
    ok = report["all_passed"] and scaling["passed"]
    payload = {
        "out_dir": str(args.out),
        "fixtures": {name: str(path) for name, path in fixtures.items()},
        "report_path": report_path,
        "timing_path": timing_path,
        "checks": [
            {"name": c["name"], "passed": c["passed"]} for c in report["checks"]
        ] + [{"name": scaling["name"], "passed": scaling["passed"]}],
        "all_passed": bool(ok),
    }
    hyper = _hyper_dict(Hyperparams())
    _emit("bench", hyper, payload, started, None)
    return 0 if ok else 1


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except MotionCodeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
