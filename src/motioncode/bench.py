"""
bench.py - synthetic fixtures, dense reference computations, and the check
suite behind the bench command.

The oracle checks re-derive every quantity with plain dense linear algebra
(full covariance matrices, explicit inverses or LU solves, no Cholesky
factor) and compare against the low-rank production path. The benchmark
checks train real models on generated two-class data (a unit-amplitude
sine versus a linear ramp) and score classification accuracy and forecast
error against a last-seen baseline. class_forecast_errors also builds each
class's entry of the forecast command.

Every check returns a plain dict of JSON-safe values so reports serialize
byte-identically for a fixed seed. Wall-clock measurements live in a
separate payload (measure_scaling) and never enter the deterministic
report.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from .core import (Collection, Dataset, Hyperparams, InputError, TimeSeries,
                   code_to_timestamps, effective_noise)
from .dataio import (RaggedRecord, dataset_from_records, forecast_split, model_series,
                     to_original_units, write_ragged)
from .inference import class_posteriors, classify_many, fit_posterior, forecast, predict
from .kernel import KernelParams, kernel_matrix
from .objective import lmax_bound, loss_gradient, total_loss
from .optimizer import init_params, pack_params, train_model, unpack_params

__all__ = [
    "ORACLE_TOL",
    "check_bound_collapse",
    "check_woodbury_bound",
    "check_posterior_oracle",
    "check_gradients",
    "check_monotone_refinement",
    "check_classification",
    "check_forecasting",
    "measure_scaling",
    "run_checks",
    "report_to_bytes",
    "write_fixtures",
    "class_forecast_errors",
    "dense_bound",
    "dense_posterior",
    "dense_predict",
]

LOG_2PI = float(np.log(2.0 * np.pi))

ORACLE_TOL = 1e-8
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
# relative-error denominators are floored: a coordinate whose finite
# difference sits at the noise floor (~1e-8 for losses of this scale) is
# held to 1e-4 * 0.01 = 1e-6 absolute instead of dividing by ~0
FD_DENOM_FLOOR = 1e-2
MONOTONE_TOL = -1e-8
ACCURACY_TARGET = 0.90
FORECAST_WINS_NEEDED = 4
BENCH_SEEDS = 5
SCALING_RATIO_LIMIT = 2.6
MIN_GAP = 1e-4

# the monotone-refinement instances are pinned, independent of --seed
MONOTONE_SEED = 20240817


# ---------------------------------------------------------------------------
# random instances for the oracle checks
#
# Conditioning rules of thumb: timestamps come from a coarse grid so no two
# points coincide, bandwidths stay in [40, 150] so kernel rows decorrelate,
# inducing sets keep a minimum gap, and sigma stays >= 0.4. This keeps the
# dense and low-rank paths within a few ulps of each other so the 1e-8
# comparisons test algebra, not conditioning.


def _spaced(rng, n, lo=0.02, hi=0.98, grid=400):
    pts = np.linspace(lo, hi, grid)
    idx = np.sort(rng.choice(grid, size=n, replace=False))
    return pts[idx]


def _sharp_params(rng, j):
    log_amps = rng.uniform(-0.5, 0.5, j)
    log_bws = np.log(rng.uniform(40.0, 150.0, j))
    return KernelParams(log_amps, log_bws)


def _spread_inducing(rng, kp, m, min_gap=0.12, min_eig=0.05):
    for _ in range(500):
        s = np.sort(rng.uniform(0.08, 0.92, m))
        if m > 1 and float(np.min(np.diff(s))) < min_gap:
            continue
        if float(np.linalg.eigvalsh(kernel_matrix(kp, s))[0]) > min_eig:
            return s
    raise RuntimeError("failed to draw a well-conditioned inducing set")


def _collapse_grid(rng, kp, n, min_eig=1e-6):
    # the collapse check reuses the data grid as the inducing set, so the
    # grid needs its own conditioning guard: a smallest eigenvalue well
    # above the base jitter keeps the factorization from escalating, which
    # keeps the trace penalty at the n * jitter scale the tolerance assumes
    for _ in range(500):
        t = _spaced(rng, n)
        if float(np.linalg.eigvalsh(kernel_matrix(kp, t))[0]) > min_eig:
            return t
    raise RuntimeError("failed to draw a well-conditioned collapse grid")


def _random_collection(rng, label, n_series, max_points, min_points=4):
    series = []
    for _ in range(n_series):
        n = int(rng.integers(min_points, max_points + 1))
        t = _spaced(rng, n)
        series.append(TimeSeries(t, rng.normal(0.0, 1.0, n)))
    return Collection(label, tuple(series))


# ---------------------------------------------------------------------------
# dense reference computations


def dense_bound(kp, inducing, collection, sigma, jitter):
    """Collection bound via full matrices and explicit inverses."""
    s = np.asarray(inducing, dtype=float)
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kp, s) + jitter * np.eye(s.size)
    k_ss_inv = np.linalg.inv(k_ss)
    total = 0.0
    for ts in collection.series:
        n = len(ts)
        cross = kernel_matrix(kp, s, ts.timestamps)
        q = cross.T @ k_ss_inv @ cross
        cov = c * np.eye(n) + q
        _, logdet = np.linalg.slogdet(cov)
        y = ts.values
        total += -0.5 * (n * LOG_2PI + logdet + y @ np.linalg.inv(cov) @ y)
        k_tt = kernel_matrix(kp, ts.timestamps)
        total -= (np.trace(k_tt) - np.trace(q)) / (2.0 * c)
    return float(total)


def _dense_trace_term(kp, inducing, collection, sigma, jitter):
    s = np.asarray(inducing, dtype=float)
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kp, s) + jitter * np.eye(s.size)
    k_ss_inv = np.linalg.inv(k_ss)
    gap = 0.0
    for ts in collection.series:
        cross = kernel_matrix(kp, s, ts.timestamps)
        gap += np.trace(kernel_matrix(kp, ts.timestamps))
        gap -= np.trace(cross.T @ k_ss_inv @ cross)
    return float(gap / (2.0 * c))


def _exact_log_marginal(kp, ts, sigma):
    """log N(y | 0, sigma^2 I + K_TT), no approximation anywhere."""
    n = len(ts)
    cov = sigma * sigma * np.eye(n) + kernel_matrix(kp, ts.timestamps)
    _, logdet = np.linalg.slogdet(cov)
    y = ts.values
    return float(-0.5 * (n * LOG_2PI + logdet + y @ np.linalg.inv(cov) @ y))


def dense_posterior(kp, inducing, collection, sigma, jitter):
    """Posterior mean and covariance over the inducing values, dense path."""
    s = np.asarray(inducing, dtype=float)
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kp, s)
    lam = k_ss.copy()
    rhs = np.zeros(s.size)
    for ts in collection.series:
        cross = kernel_matrix(kp, s, ts.timestamps)
        lam += (cross @ cross.T) / c
        rhs += cross @ ts.values
    # K_SS + jitter I, the matrix dense_predict solves with
    kt = k_ss + jitter * np.eye(s.size)
    lam = 0.5 * (lam + lam.T) + jitter * np.eye(s.size)
    lam_inv = np.linalg.inv(lam)
    mean = (kt @ lam_inv @ rhs) / c
    cov = kt @ lam_inv @ kt
    return mean, 0.5 * (cov + cov.T)


def dense_predict(kp, inducing, mean, cov, query, jitter):
    """Predictive mean/variance at query points from a dense posterior."""
    s = np.asarray(inducing, dtype=float)
    t = np.asarray(query, dtype=float)
    k_ts = kernel_matrix(kp, t, s)
    # K_SS^{-1} K_ST by an LU solve, independent of production's Cholesky
    u = np.linalg.solve(kernel_matrix(kp, s) + jitter * np.eye(s.size), k_ts.T)
    out_mean = u.T @ mean
    prior = float(np.sum(kp.amplitudes))
    var = prior - np.sum(k_ts.T * u, axis=0) + np.sum(u * (cov @ u), axis=0)
    return out_mean, var


# ---------------------------------------------------------------------------
# oracle checks


def check_bound_collapse(seed=0):
    """With one series and the inducing set equal to its timestamps, the
    bound must reproduce the exact dense log marginal likelihood and the
    trace penalty must vanish."""
    rng = np.random.default_rng([seed, 101])
    # the exact marginal has no jitter, so the jitter here lands directly in
    # the comparison as roughly jitter * |alpha|^2 / 2; 1e-12 on a guarded
    # grid keeps that two orders below the tolerance at every seed
    jitter = 1e-12
    worst = 0.0
    worst_trace = 0.0
    for _ in range(20):
        kp = _sharp_params(rng, int(rng.integers(1, 3)))
        n = int(rng.integers(4, 11))
        t = _collapse_grid(rng, kp, n)
        ts = TimeSeries(t, rng.normal(0.0, 1.0, n))
        col = Collection(0, (ts,))
        sigma = float(rng.uniform(0.4, 0.7))
        got = lmax_bound(kp, t, col, sigma, jitter=jitter)
        exact = _exact_log_marginal(kp, ts, sigma)
        worst = max(worst, abs(got - exact))
        worst_trace = max(worst_trace, abs(_dense_trace_term(kp, t, col, sigma, jitter)))
    return {
        "name": "bound-collapse",
        "instances": 20,
        "max_abs_error": float(worst),
        "max_trace_term": float(worst_trace),
        "tolerance": ORACLE_TOL,
        "passed": bool(worst <= ORACLE_TOL and worst_trace <= ORACLE_TOL),
    }


def check_woodbury_bound(seed=0):
    """The low-rank bound evaluation must match a dense build of the
    low-rank-plus-diagonal covariance."""
    rng = np.random.default_rng([seed, 202])
    jitter = 1e-10
    worst = 0.0
    for _ in range(50):
        kp = _sharp_params(rng, int(rng.integers(1, 3)))
        m = int(rng.integers(1, 5))
        s = _spread_inducing(rng, kp, m)
        col = _random_collection(rng, 0, int(rng.integers(1, 4)), 8)
        sigma = float(rng.uniform(0.4, 0.7))
        got = lmax_bound(kp, s, col, sigma, jitter=jitter)
        want = dense_bound(kp, s, col, sigma, jitter)
        worst = max(worst, abs(got - want))
    return {
        "name": "woodbury-dense-bound",
        "instances": 50,
        "max_abs_error": float(worst),
        "tolerance": ORACLE_TOL,
        "passed": bool(worst <= ORACLE_TOL),
    }


def check_posterior_oracle(seed=0):
    """fit_posterior and predict against their dense counterparts."""
    rng = np.random.default_rng([seed, 303])
    jitter = 1e-12
    worst = 0.0
    for _ in range(50):
        kp = _sharp_params(rng, int(rng.integers(1, 3)))
        m = int(rng.integers(1, 5))
        s = _spread_inducing(rng, kp, m)
        col = _random_collection(rng, 0, int(rng.integers(1, 4)), 8)
        sigma = float(rng.uniform(0.4, 0.7))
        post = fit_posterior(col, kp, s, sigma, jitter=jitter)
        mean_ref, cov_ref = dense_posterior(kp, s, col, sigma, jitter)
        worst = max(worst, float(np.max(np.abs(post.mean - mean_ref))))
        worst = max(worst, float(np.max(np.abs(post.covariance - cov_ref))))
        query = np.sort(rng.uniform(0.0, 1.2, int(rng.integers(3, 13))))
        pred = predict(post, kp, query)
        mean_q, var_q = dense_predict(kp, s, mean_ref, cov_ref, query, jitter)
        worst = max(worst, float(np.max(np.abs(pred.mean - mean_q))))
        worst = max(worst, float(np.max(np.abs(pred.variance - np.clip(var_q, 0.0, None)))))
    return {
        "name": "posterior-oracle",
        "instances": 50,
        "max_abs_error": float(worst),
        "tolerance": ORACLE_TOL,
        "passed": bool(worst <= ORACLE_TOL),
    }


def _gradient_instance(rng, n_classes, j, m, d):
    """A small model/dataset pair whose induced timestamps are spread out
    enough that the loss stays smooth around the evaluation point."""
    h = Hyperparams(m=m, d=d, j=j, sigma=float(rng.uniform(0.4, 0.6)), max_iters=1)
    template = init_params(n_classes, h)
    for _ in range(500):
        codes = rng.normal(0.0, 1.0, (n_classes, d))
        code_map = rng.normal(0.0, 0.8, (m, d))
        spreads = [code_to_timestamps(code_map, z) for z in codes]
        gap_ok = all(
            s.size == 1 or float(np.min(np.diff(np.sort(s)))) > 0.03
            for s in spreads
        )
        if gap_ok:
            break
    else:
        raise RuntimeError("failed to draw spread-out codes")
    params = dataclasses.replace(
        template,
        log_amplitudes=rng.uniform(-0.5, 0.5, (n_classes, j)),
        log_bandwidths=np.log(rng.uniform(40.0, 150.0, (n_classes, j))),
        codes=codes,
        code_map=code_map,
    )
    cols = tuple(
        _random_collection(rng, k, int(rng.integers(1, 4)), 8, min_points=5)
        for k in range(n_classes)
    )
    return params, Dataset(cols, (0.0, 1.0))


def check_gradients(seed=0):
    """Every packed coordinate of the analytic gradient against central
    finite differences."""
    rng = np.random.default_rng([seed, 404])
    combos = [(L, j, m) for L in (2, 3) for j in (1, 2) for m in (2, 5)]
    worst = 0.0
    for i in range(20):
        n_classes, j, m = combos[i % len(combos)]
        d = 2 + (i % 2)
        params, dataset = _gradient_instance(rng, n_classes, j, m, d)
        analytic = loss_gradient(params, dataset)
        x0 = pack_params(params)
        for idx in range(x0.size):
            xp = x0.copy()
            xp[idx] += FD_STEP
            xm = x0.copy()
            xm[idx] -= FD_STEP
            fd = (total_loss(unpack_params(xp, params), dataset)
                  - total_loss(unpack_params(xm, params), dataset)) / (2.0 * FD_STEP)
            rel = abs(analytic[idx] - fd) / max(abs(fd), FD_DENOM_FLOOR)
            worst = max(worst, rel)
    return {
        "name": "gradient-finite-difference",
        "instances": 20,
        "step": FD_STEP,
        "max_rel_error": float(worst),
        "tolerance": FD_REL_TOL,
        "passed": bool(worst <= FD_REL_TOL),
    }


def check_monotone_refinement(seed=0):
    """Adding an inducing timestamp never lowers the bound (up to roundoff).
    Instances are pinned so the check is identical under every --seed."""
    del seed
    rng = np.random.default_rng(MONOTONE_SEED)
    jitter = 1e-10
    worst_gain = np.inf
    for _ in range(10):
        kp = _sharp_params(rng, int(rng.integers(1, 3)))
        s = _spread_inducing(rng, kp, 3)
        col = _random_collection(rng, 0, int(rng.integers(1, 4)), 10)
        sigma = float(rng.uniform(0.4, 0.7))
        base = lmax_bound(kp, s, col, sigma, jitter=jitter)
        gaps = np.diff(s)
        widest = int(np.argmax(gaps))
        extra = 0.5 * (s[widest] + s[widest + 1])
        refined = lmax_bound(kp, np.sort(np.append(s, extra)), col, sigma,
                             jitter=jitter)
        worst_gain = min(worst_gain, refined - base)
    return {
        "name": "monotone-refinement",
        "instances": 10,
        "min_gain": float(worst_gain),
        "tolerance": MONOTONE_TOL,
        "passed": bool(worst_gain >= MONOTONE_TOL),
    }


# ---------------------------------------------------------------------------
# synthetic two-class data: sine with amplitude 1 versus a linear ramp 0 -> 1


def _uneven_times(rng, n):
    """n sorted uniforms on [0, 1], endpoints pinned so every series spans
    the full window, conditioned on every gap being at least MIN_GAP. Those
    gaps are MIN_GAP plus the gaps of plain sorted uniforms times the slack,
    so no draw is rejected."""
    slack = 1.0 - (n - 1) * MIN_GAP
    if slack <= 0.0:
        raise ValueError(f"{n} timestamps on [0, 1] cannot keep gaps of {MIN_GAP}")
    u = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    t = np.arange(n) * MIN_GAP + slack * u
    t[-1] = 1.0
    return t


def _two_class_records(rng, per_class, noise_level):
    """Raw-unit records for both classes with noise added at std
    noise_level * max |clean value| over the whole draw."""
    clean = []
    for _ in range(per_class):
        n = int(rng.integers(40, 61))
        t = _uneven_times(rng, n)
        clean.append((0, t, np.sin(2.0 * np.pi * t)))
    for _ in range(per_class):
        n = int(rng.integers(40, 61))
        t = _uneven_times(rng, n)
        clean.append((1, t, t.copy()))
    peak = max(float(np.max(np.abs(v))) for _, _, v in clean)
    std = noise_level * peak
    return [
        RaggedRecord(label, t, v + rng.normal(0.0, std, v.size))
        for label, t, v in clean
    ]


def _classification_records(seed):
    """The classification benchmark's raw records for one seed:
    (train, test) with 10 and 20 series per class."""
    rng = np.random.default_rng([seed, 606])
    records = _two_class_records(rng, 30, 0.3)
    by_label = {0: [], 1: []}
    for rec in records:
        by_label[rec.label].append(rec)
    return (by_label[0][:10] + by_label[1][:10],
            by_label[0][10:] + by_label[1][10:])


def check_classification(seed=0):
    """Accuracy on 20 noisy test series per class, mapped into the
    coordinates of a 10-series-per-class training dataset, averaged over
    BENCH_SEEDS draws. The labels 0 and 1 are also the class indices."""
    accuracies = []
    hyper = Hyperparams()
    for i in range(BENCH_SEEDS):
        train_recs, test_recs = _classification_records(seed + i)
        train = dataset_from_records(train_recs)
        model, _ = train_model(train, hyper)
        results = classify_many(model, class_posteriors(model, train),
                                model_series(train, test_recs))
        hits = sum(1 for (pred, _), rec in zip(results, test_recs) if pred == rec.label)
        accuracies.append(hits / len(test_recs))
    mean_acc = float(np.mean(accuracies))
    return {
        "name": "classification-benchmark",
        "seeds": BENCH_SEEDS,
        "per_seed_accuracy": [float(a) for a in accuracies],
        "mean_accuracy": mean_acc,
        "threshold": ACCURACY_TARGET,
        "passed": bool(mean_acc >= ACCURACY_TARGET),
    }


def _forecasting_records(seed):
    """The forecasting benchmark's raw two-class records for one seed, unsplit."""
    return _two_class_records(np.random.default_rng([seed, 707]), 10, 0.1)


def class_forecast_errors(model, posteriors, k, train_series, queries):
    """Class k's entry of the forecast command, predicted from the class
    posteriors of class_posteriors; None when there are no queries.

    queries is a sequence of TimeSeries in model coordinates, whose times
    may reach FORECAST_HORIZON, paired by position with class k's training
    series train_series. The entry holds the class's original label, the
    model's and the last-seen baseline's RMSE over every query point, the
    point count, and as points one dict per query with its timestamps,
    actual values, model predictions and last-seen value, all de-centered
    back to the data's units.
    """
    if not queries:
        return None
    if len(queries) != len(train_series):
        raise InputError(
            f"class {model.class_labels[k]}: {len(queries)} test series cannot "
            f"be paired with {len(train_series)} training series"
        )
    # one prediction and one map back over every query's points, split
    # back by length
    query_times = np.concatenate([q.timestamps for q in queries])
    pred = forecast(model, posteriors, k, query_times)
    times, actual, _ = to_original_units(
        model, query_times, np.concatenate([q.values for q in queries]))
    _, predicted, _ = to_original_units(model, y=pred.mean)
    _, last_seen, _ = to_original_units(model, y=[tr.values[-1] for tr in train_series])
    lengths = [len(q) for q in queries]
    per_query = zip(*(np.split(a, np.cumsum(lengths[:-1]))
                      for a in (times, actual, predicted)), last_seen)
    return {
        "label": int(model.class_labels[k]),
        "rmse": float(np.sqrt(np.mean((actual - predicted) ** 2))),
        "last_seen_rmse": float(np.sqrt(np.mean(
            (actual - np.repeat(last_seen, lengths)) ** 2))),
        "n_points": int(actual.size),
        "points": [
            {
                "series": idx,
                "timestamps": t.tolist(),
                "actual": y.tolist(),
                "predicted": mean.tolist(),
                "last_seen": float(last),
            }
            for idx, (t, y, mean, last) in enumerate(per_query)
        ],
    }


def check_forecasting(seed=0):
    """Sine-class forecast RMSE against the last-seen baseline across
    BENCH_SEEDS draws; the model must win on most of them."""
    hyper = Hyperparams()
    model_rmse, last_rmse = [], []
    for i in range(BENCH_SEEDS):
        train, test = forecast_split(dataset_from_records(_forecasting_records(seed + i)), 0.8)
        model, _ = train_model(train, hyper)
        posteriors = class_posteriors(model, train)
        entry = class_forecast_errors(model, posteriors, 0, train.collections[0].series,
                                      test.collections[0].series)
        model_rmse.append(entry["rmse"])
        last_rmse.append(entry["last_seen_rmse"])
    wins = sum(1 for rm, rl in zip(model_rmse, last_rmse) if rm <= rl)
    return {
        "name": "forecasting-benchmark",
        "seeds": BENCH_SEEDS,
        "model_rmse": model_rmse,
        "last_seen_rmse": last_rmse,
        "wins": int(wins),
        "wins_needed": FORECAST_WINS_NEEDED,
        "passed": bool(wins >= FORECAST_WINS_NEEDED),
    }


# ---------------------------------------------------------------------------
# wall-clock scaling (kept out of the deterministic report)


def _scaling_dataset(seed, points_per_series):
    rng = np.random.default_rng([seed, 808, points_per_series])
    records = []
    for label, shape in ((0, lambda t: np.sin(2.0 * np.pi * t)), (1, lambda t: t)):
        for _ in range(10):
            t = _uneven_times(rng, points_per_series)
            records.append(RaggedRecord(label, t, shape(t) + rng.normal(0.0, 0.1, t.size)))
    return dataset_from_records(records)


def measure_scaling(seed=0):
    """Training time at ~2000 versus ~4000 total points, fixed m and
    iteration budget. Reports the wall-clock ratio; the bound computation
    is linear in the point count so the ratio should sit near 2."""
    hyper = Hyperparams(epsilon=1e-15)
    # warm up allocators and caches on a small problem first
    train_model(_scaling_dataset(seed, 20), Hyperparams())

    def best_of_two(points):
        ds = _scaling_dataset(seed, points)
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            train_model(ds, hyper)
            elapsed.append(time.perf_counter() - start)
        return min(elapsed)

    small = best_of_two(100)
    large = best_of_two(200)
    ratio = large / small
    return {
        "name": "training-scaling",
        "points_small": 2000,
        "points_large": 4000,
        "seconds_small": float(small),
        "seconds_large": float(large),
        "ratio": float(ratio),
        "limit": SCALING_RATIO_LIMIT,
        "passed": bool(ratio <= SCALING_RATIO_LIMIT),
    }


# ---------------------------------------------------------------------------
# the full suite


def run_checks(seed=0):
    """All deterministic checks. Same seed in, same dict out, bit for bit."""
    checks = [
        check_bound_collapse(seed),
        check_woodbury_bound(seed),
        check_posterior_oracle(seed),
        check_gradients(seed),
        check_monotone_refinement(seed),
        check_classification(seed),
        check_forecasting(seed),
    ]
    return {
        "format_version": 1,
        "seed": int(seed),
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
    }


def report_to_bytes(report) -> bytes:
    return (json.dumps(report, indent=1, sort_keys=True) + "\n").encode("utf-8")


def write_fixtures(out_dir, seed=0):
    """Write the benchmark's records for one seed as ragged files, as they
    were drawn, for use with the other commands. Returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_recs, test_recs = _classification_records(seed)
    records = {
        "classification_train": train_recs,
        "classification_test": test_recs,
        "forecast": _forecasting_records(seed),
    }
    paths = {name: out / f"{name}.jsonl" for name in records}
    for name, recs in records.items():
        write_ragged(recs, paths[name])
    return paths
