"""
optimizer.py - limited-memory BFGS training loop.

The training loss is minimized over one flat vector of the learned arrays,
in the layout of core.learned_arrays, which objective.loss_gradient returns
gradients in too.

Line search is backtracking with the sufficient-decrease (Armijo) test only;
curvature pairs that would break positive definiteness of the implicit
Hessian approximation are skipped rather than repaired.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (LEARNED_FIELDS, Dataset, Hyperparams, ModelParams, MotionCodeError,
                   NumericalError, learned_arrays, learned_size)
from .objective import loss_gradient, total_loss

__all__ = [
    "HISTORY_CAPACITY",
    "MinimizeResult",
    "minimize",
    "init_params",
    "pack_params",
    "unpack_params",
    "train_model",
]

HISTORY_CAPACITY = 10
ARMIJO_C1 = 1e-4
INITIAL_STEP = 1.0
BACKTRACK = 0.5
MAX_HALVINGS = 30
CURVATURE_MIN = 1e-12
GRAD_TOL = 1e-10

log = logging.getLogger("motioncode.optimizer")

STOP_MAX_ITERS = "max-iters"
STOP_SMALL_DECREASE = "small-decrease"
STOP_SMALL_GRADIENT = "small-gradient"
STOP_LINE_SEARCH = "line-search-failure"


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    loss: float
    iterations: int
    stop_reason: str


def _direction(grad: np.ndarray, history) -> np.ndarray:
    """Two-loop recursion; with empty history this is exactly -grad."""
    q = -grad
    if not history:
        return q
    alphas = []
    for s, y in reversed(history):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q = q - a * y
    s_last, y_last = history[-1]
    gamma = float(s_last @ y_last) / float(y_last @ y_last)
    q = gamma * q
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q = q + (a - b) * s
    return q


def minimize(fun, x0, max_iters: int, epsilon: float) -> MinimizeResult:
    """Minimize a loss starting at x0; fun(x, ceiling) returns (loss, gradient).

    Stops when the iteration count reaches max_iters, when one accepted
    iteration decreases the loss by less than epsilon, or when the gradient
    max-norm falls below GRAD_TOL. A line search that finds no acceptable
    point after MAX_HALVINGS halvings stops at the current point with
    stop_reason "line-search-failure" instead of raising. Loss never
    increases across accepted iterations.

    fun runs once at x0, with ceiling None, and once per line-search trial,
    with the trial's Armijo ceiling: the trial is accepted when its loss is
    finite and at most the ceiling. Once fun can prove a trial's loss is
    above the ceiling it may return any value above the ceiling instead of
    the loss, and None for the gradient. Otherwise it returns the gradient
    at x, which minimize uses only at x0 and at accepted trials.

    Each accepted iteration logs one DEBUG line on motioncode.optimizer:
    the loss and its decrease, the gradient max-norm, the step, the
    line-search halvings, and the loss evaluations and gradients used so
    far.
    """
    x = np.asarray(x0, dtype=float).copy()
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    loss, grad = fun(x, None)
    loss = float(loss)
    if not np.isfinite(loss):
        raise NumericalError(f"loss at the starting point is not finite ({loss})")
    if max_iters == 0:
        return MinimizeResult(x=x, loss=loss, iterations=0, stop_reason=STOP_MAX_ITERS)

    grad = np.asarray(grad, dtype=float)
    loss_calls = 1
    # (step, gradient-difference) pairs, newest last; every stored pair
    # satisfies step @ grad_diff > CURVATURE_MIN
    history = deque(maxlen=HISTORY_CAPACITY)
    iteration = 0
    stop_reason = STOP_MAX_ITERS
    while iteration < max_iters:
        p = _direction(grad, history)
        slope = float(grad @ p)
        if slope > 0.0:  # not a descent direction; fall back to steepest descent
            p = -grad
            slope = float(grad @ p)

        step = INITIAL_STEP
        for halvings in range(MAX_HALVINGS + 1):
            trial = x + step * p
            ceiling = loss + ARMIJO_C1 * step * slope
            f_trial, g_new = fun(trial, ceiling)
            f_trial = float(f_trial)
            loss_calls += 1
            if np.isfinite(f_trial) and f_trial <= ceiling:
                break
            step *= BACKTRACK
        else:
            stop_reason = STOP_LINE_SEARCH
            break

        g_new = np.asarray(g_new, dtype=float)
        decrease = loss - f_trial
        s = trial - x
        y = g_new - grad
        x, loss, grad = trial, f_trial, g_new
        iteration += 1
        grad_norm = float(np.max(np.abs(grad)))
        log.debug("iteration %d: loss %.17g decrease %.6g grad max-norm %.6g "
                  "step %.6g halvings %d evaluations %d loss, %d gradient",
                  iteration, loss, decrease, grad_norm, step, halvings,
                  loss_calls, iteration + 1)
        if decrease < epsilon:
            stop_reason = STOP_SMALL_DECREASE
            break
        if grad_norm < GRAD_TOL:
            stop_reason = STOP_SMALL_GRADIENT
            break
        if float(s @ y) > CURVATURE_MIN:
            history.append((s, y))
        else:
            # the pair would break positive definiteness; besides skipping
            # it, drop the stale memory so the next direction restarts from
            # steepest descent instead of looping on a frozen approximation
            history.clear()

    return MinimizeResult(x=x, loss=loss, iterations=iteration, stop_reason=stop_reason)


def init_params(n_classes: int, hyper: Hyperparams) -> ModelParams:
    """Deterministic starting point: unit kernel parameters (logs at zero),
    all-ones codes, and a code map whose every column runs arithmetically
    from 0.1 to 0.9 (midpoint 0.5 when m = 1)."""
    if n_classes < 1:
        raise ValueError(f"need at least one class, got {n_classes}")
    if hyper.m == 1:
        column = np.array([0.5])
    else:
        column = np.linspace(0.1, 0.9, hyper.m)
    return ModelParams(
        log_amplitudes=np.zeros((n_classes, hyper.j)),
        log_bandwidths=np.zeros((n_classes, hyper.j)),
        codes=np.ones((n_classes, hyper.d)),
        code_map=np.tile(column[:, None], (1, hyper.d)),
        hyper=hyper,
    )


def pack_params(params: ModelParams) -> np.ndarray:
    """Flatten the learned arrays in the layout of core.learned_arrays."""
    x = np.empty(learned_size(params.n_classes, params.hyper))
    for view, name in zip(learned_arrays(x, params.n_classes, params.hyper), LEARNED_FIELDS):
        view[...] = getattr(params, name)
    return x


def unpack_params(x: np.ndarray, params: ModelParams) -> ModelParams:
    """Rebuild a ModelParams from a flat vector, taking every non-learned
    field (hyper, scales, labels) from the template."""
    arrays = learned_arrays(x, params.n_classes, params.hyper)
    return dataclasses.replace(params, **dict(zip(LEARNED_FIELDS, arrays)))


def train_model(dataset: Dataset, hyper: Hyperparams):
    """Fit one model to the dataset: init_params, then minimize the loss.

    Returns (ModelParams, MinimizeResult): the fitted model, and the
    minimizer's final flat vector, loss, iteration count and stop reason.
    Evaluation failures at wild trial points surface as an infinite loss so
    the line search backtracks past them; a failure at the starting point
    still raises.

    Each evaluation passes minimize's Armijo ceiling on to total_loss,
    which stops a trial's evaluation as soon as it proves the trial fails.
    An evaluation that runs to the end takes its gradient from the value
    passes it just built, so no kernel matrix is built twice.
    """
    # the model keeps the dataset's scales and labels to map later inputs
    start = dataclasses.replace(
        init_params(dataset.n_classes, hyper), time_scale=dataset.time_scale,
        value_center=dataset.value_center, value_scale=dataset.value_scale,
        class_labels=dataset.class_labels)

    def fun(x, ceiling):
        try:
            params = unpack_params(x, start)
            loss, passes = total_loss(params, dataset, keep=True, ceiling=ceiling)
        except MotionCodeError:
            return np.inf, None
        if passes is None:
            return loss, None
        return loss, loss_gradient(params, dataset, passes)[1]

    result = minimize(fun, pack_params(start), hyper.max_iters, hyper.epsilon)
    return unpack_params(result.x, start), result
