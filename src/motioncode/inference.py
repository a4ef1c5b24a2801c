"""
inference.py - posterior over the inducing values, prediction, forecasting,
and nearest-prototype classification.

For one collection with B series and effective noise c = B * sigma**2
(core.effective_noise), the best Gaussian over the process values at the m
inducing timestamps has

    Lam  = K_SS + (1/c) * sum_i C_i C_i^T        (C_i = K(S, T_i))
    mean = (1/c) * K_SS Lam^{-1} sum_i C_i y_i
    cov  = K_SS Lam^{-1} K_SS

The sums over series run over the same zero-padded blocks the objective
uses (Collection.blocks): one cross-covariance build per block, with the
padded points masked out.

Predictions at query timestamps T marginalize the signal through the
inducing values:

    p      = K_TS K_SS^{-1} mean
    var[t] = k(t,t) - q(t,t) + [K_TS K_SS^{-1} cov K_SS^{-1} K_ST](t,t)

A posterior holds just what a model file stores for a class
(core.VariationalPosterior): the inducing timestamps, mean, cov and the
jitter. Each predict call factors K_SS itself from those, so a load
factors nothing, and a posterior loaded from a model file (dataio), whose
four fields equal the saved ones bit for bit, predicts bit-identically to
the fitted one. The call then whitens once: with L that lower Cholesky
factor and W = L^{-1}, formed explicitly as in the objective, it takes
mean_w = W mean and cov_w = W cov W^T. With V = K_TS W^T,

    p      = V mean_w
    var[t] = k(t,t) - [V V^T](t,t) + [V cov_w V^T](t,t)

Queries are evaluated in chunks of BLOCK_COLUMNS points, the same size as
the blocks above: one cross-covariance build and one product with the
(m, 2m) matrix [W^T, W^T cov_w] per chunk, then row sums, with no
triangular solve, so a query of any length costs a bounded working set.
Serving concatenates every series it predicts for one class and makes a
single predict call.

Classification assigns a series to the class whose predicted mean curve is
closest in Euclidean distance (ties go to the smallest class index).
"""

from __future__ import annotations

import numpy as np

from .core import (
    BLOCK_COLUMNS,
    Collection,
    Dataset,
    Hyperparams,
    InputError,
    ModelParams,
    NumericalError,
    Prediction,
    ValidationError,
    VariationalPosterior,
    check_inducing,
    effective_noise,
)
from .kernel import KernelParams, chol_jittered, class_kernel, kernel_matrix

__all__ = [
    "fit_posterior",
    "predict",
    "forecast",
    "class_posteriors",
    "classify_many",
    "FORECAST_HORIZON",
    "VARIANCE_SLACK",
]

# queries past the training range are allowed up to this normalized time
FORECAST_HORIZON = 1.25
# predictive variances this far below zero are treated as roundoff
VARIANCE_SLACK = -1e-8


def fit_posterior(collection: Collection, kparams: KernelParams, inducing,
                  sigma: float, jitter: float = Hyperparams.jitter) -> VariationalPosterior:
    """Compute the optimal posterior for one collection.

    inducing timestamps must lie strictly inside (0, 1). All solves go
    through Cholesky factors; nothing is ever inverted explicitly.
    """
    s = check_inducing(inducing)
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kparams, s)
    lam = k_ss.copy()
    rhs = np.zeros(s.size)
    for block in collection.blocks:
        cross = kernel_matrix(kparams, s, block.times.ravel())
        cross *= block.mask.ravel()  # padded columns must not enter the sums
        lam += (cross @ cross.T) / c
        rhs += cross @ block.values.ravel()
    lam = 0.5 * (lam + lam.T)
    # one solve for [rhs, K_SS]: each column is substituted on its own
    solved = chol_jittered(lam, jitter).solve(np.column_stack((rhs, k_ss)))

    mean = (k_ss @ solved[:, 0]) / c
    cov = k_ss @ solved[:, 1:]
    cov = 0.5 * (cov + cov.T)
    return VariationalPosterior(s, mean, cov, jitter)


def predict(posterior: VariationalPosterior, kparams: KernelParams,
            query) -> Prediction:
    """Predictive mean and per-point variance at arbitrary query timestamps.

    Queries may exceed 1 (forecasting); far from all data the mean reverts
    to 0 and the variance to the kernel's diagonal. Variances are clipped
    to 0 from below once they clear the VARIANCE_SLACK roundoff check.
    The query is evaluated in chunks of BLOCK_COLUMNS points, each one
    kernel build and one product with [W^T, W^T cov_w] (module docstring).
    """
    t = np.asarray(query, dtype=float).ravel()
    if t.size < 1 or not np.all(np.isfinite(t)):
        raise ValidationError("query timestamps must be a non-empty finite array")
    m = posterior.inducing.size
    # whiten once per call through the explicit inverse factor, as the
    # objective does: each chunk is then one product and no solve
    k_ss = kernel_matrix(kparams, posterior.inducing)
    whiten = chol_jittered(k_ss, posterior.jitter).half_solve(np.eye(m))
    mean_w = whiten @ posterior.mean
    cov_w = whiten @ posterior.covariance @ whiten.T
    proj = np.hstack((whiten.T, whiten.T @ cov_w))  # [W^T, W^T cov_w], (m, 2m)
    prior_diag = float(np.sum(kparams.amplitudes))
    mean = np.empty(t.size)
    var = np.empty(t.size)
    for start in range(0, t.size, BLOCK_COLUMNS):
        chunk = slice(start, start + BLOCK_COLUMNS)
        k_ts = kernel_matrix(kparams, t[chunk], posterior.inducing)  # (n_c, m)
        rows = k_ts @ proj
        v = rows[:, :m]  # V = K_TS W^T
        mean[chunk] = v @ mean_w
        var[chunk] = (prior_diag - np.einsum("ij,ij->i", v, v)
                      + np.einsum("ij,ij->i", rows[:, m:], v))
    low = float(var.min())
    if low < VARIANCE_SLACK:
        raise NumericalError(
            f"predictive variance fell below the roundoff tolerance: {low:.3e}"
        )
    np.clip(var, 0.0, None, out=var)
    return Prediction(timestamps=t, mean=mean, variance=var)


def _check_class(model: ModelParams, k: int):
    if not (isinstance(k, (int, np.integer)) and 0 <= k < model.n_classes):
        raise InputError(
            f"class index {k} is out of range for a model with "
            f"{model.n_classes} classes"
        )


def class_posteriors(model: ModelParams, dataset: Dataset):
    """Fit every class's posterior from its training collection."""
    model.check_classes(dataset)
    h = model.hyper
    return tuple(
        fit_posterior(
            dataset.collections[k], class_kernel(model, k),
            model.inducing_timestamps(k), h.sigma, h.jitter,
        )
        for k in range(model.n_classes)
    )


def forecast(model: ModelParams, posteriors, k: int, query) -> Prediction:
    """One prediction for class k's whole collection at the query timestamps.

    posteriors are the per-class fits from class_posteriors, so a caller
    that forecasts many series fits each class once. k is the internal
    class index (0..L-1). Queries may run past the training range up to
    normalized time FORECAST_HORIZON.
    """
    _check_class(model, k)
    t = np.asarray(query, dtype=float).ravel()
    if t.size and np.all(np.isfinite(t)) and float(t.max()) > FORECAST_HORIZON:
        raise InputError(
            f"forecast queries are limited to normalized time {FORECAST_HORIZON}, "
            f"got {float(t.max())}"
        )
    return predict(posteriors[k], class_kernel(model, k), t)


def classify_many(model: ModelParams, posteriors, series_list):
    """Classify a batch of series against the class posteriors, one per
    class, from class_posteriors or a model file.

    Every class predicts the whole batch in one call, over the series'
    concatenated timestamps. Returns a list of (class index, distance
    vector) pairs in input order; each class index is the argmin of its
    distances, ties going to the smallest index.
    """
    if len(posteriors) != model.n_classes:
        raise ValidationError(
            f"model has {model.n_classes} classes but {len(posteriors)} posteriors were given"
        )
    series_list = list(series_list)
    if not series_list:
        return []
    times = np.concatenate([s.timestamps for s in series_list])
    values = np.concatenate([s.values for s in series_list])
    starts = np.cumsum([0] + [len(s) for s in series_list[:-1]])
    dists = np.empty((len(series_list), len(posteriors)))
    for k, post in enumerate(posteriors):
        pred = predict(post, class_kernel(model, k), times)
        dists[:, k] = np.add.reduceat((values - pred.mean) ** 2, starts)
    np.sqrt(dists, out=dists)
    return [(int(np.argmin(d)), d) for d in dists]
