import logging

import numpy as np
import pytest

from motioncode import objective, optimizer
from motioncode.core import Dataset, Collection, Hyperparams, NumericalError, TimeSeries
from motioncode.objective import total_loss, loss_gradient
from motioncode.optimizer import (
    ARMIJO_C1,
    BACKTRACK,
    MAX_HALVINGS,
    MinimizeResult,
    init_params,
    minimize,
    pack_params,
    train_model,
    unpack_params,
)


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    return np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])


def fused(f, g):
    """minimize's fun from a loss f(x) and its gradient g(x)."""
    return lambda x, ceiling: (f(x), g(x))


def test_quadratic_converges():
    a = np.array([3.0, -2.0])
    res = minimize(
        fused(lambda x: float((x - a) @ (x - a)), lambda x: 2.0 * (x - a)),
        np.zeros(2),
        max_iters=50,
        epsilon=1e-14,
    )
    assert np.linalg.norm(res.x - a) < 1e-8
    assert res.iterations <= 10
    assert res.stop_reason in ("small-gradient", "small-decrease")


def test_constant_function_stops_small_decrease():
    res = minimize(
        fused(lambda x: 5.0, np.zeros_like),
        np.array([1.0, 2.0]),
        max_iters=100,
        epsilon=1e-5,
    )
    assert res.iterations == 1
    assert res.stop_reason == "small-decrease"
    assert res.loss == 5.0
    assert np.array_equal(res.x, [1.0, 2.0])


def test_rosenbrock_converges():
    res = minimize(fused(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]),
                   max_iters=200, epsilon=1e-14)
    assert np.linalg.norm(res.x - 1.0) < 1e-4
    assert res.iterations <= 200


def test_zero_max_iters_returns_start():
    res = minimize(fused(lambda x: float(x @ x), lambda x: 2.0 * x), np.array([1.0]), 0, 1e-5)
    assert res.iterations == 0
    assert res.stop_reason == "max-iters"
    assert res.x[0] == 1.0


def test_max_iters_cap():
    a = np.array([100.0])
    res = minimize(
        fused(lambda x: float(abs(x[0] - a[0])), lambda x: np.sign(x - a)),
        np.zeros(1),
        max_iters=3,
        epsilon=1e-14,
    )
    # |x - 100| cannot finish in 3 unit-ish steps
    assert res.iterations == 3
    assert res.stop_reason == "max-iters"


def test_monotone_loss_trajectory():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(6, 6))
    a = b @ b.T + 0.5 * np.eye(6)
    rhs = rng.normal(size=6)
    losses = []

    def f(x):
        v = float(0.5 * x @ a @ x - rhs @ x)
        losses.append(v)
        return v

    fun = fused(f, lambda x: a @ x - rhs)
    minimize(fun, np.zeros(6), 60, 1e-15)
    # losses includes rejected trials; check accepted sequence via re-eval
    res = minimize(fun, np.zeros(6), 60, 1e-15)
    assert res.loss <= f(np.zeros(6))


def test_line_search_failure_returns_current_point():
    # the supplied gradient lies about the slope at the minimum of |x|, so
    # every trial step increases f and all halvings are exhausted
    res = minimize(fused(lambda x: float(np.abs(x[0])), lambda x: np.array([-2.0])),
                   np.zeros(1), 10, 1e-10)
    assert res.stop_reason == "line-search-failure"
    assert res.x[0] == 0.0
    assert res.loss == 0.0


def test_infinite_start_raises():
    with pytest.raises(NumericalError):
        minimize(lambda x, ceiling: (np.inf, None), np.zeros(1), 5, 1e-5)


def test_nonfinite_trial_is_backtracked():
    # f blows up past |x| > 0.6 but has its minimum at 0.5
    def fun(x, ceiling):
        if abs(x[0]) > 0.6:
            return np.inf, None
        return float((x[0] - 0.5) ** 2), 2.0 * (x - 0.5)

    res = minimize(fun, np.array([0.0]), 50, 1e-14)
    assert abs(res.x[0] - 0.5) < 1e-6


def test_determinism():
    a = np.array([1.0, -4.0, 2.5])

    def run():
        return minimize(
            fused(lambda x: float((x - a) @ (x - a) + 0.1 * np.sum(x**4)),
                  lambda x: 2.0 * (x - a) + 0.4 * x**3),
            np.zeros(3),
            30,
            1e-12,
        )

    r1, r2 = run(), run()
    assert np.array_equal(r1.x, r2.x)
    assert r1.loss == r2.loss
    assert r1.iterations == r2.iterations


def test_init_params_layout():
    h = Hyperparams(m=3, d=2, j=1)
    p = init_params(2, h)
    assert np.array_equal(p.code_map, [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    assert np.array_equal(p.codes, np.ones((2, 2)))
    assert np.array_equal(p.log_amplitudes, np.zeros((2, 1)))
    assert np.array_equal(p.log_bandwidths, np.zeros((2, 1)))
    p1 = init_params(2, Hyperparams(m=1, d=2, j=1))
    assert np.array_equal(p1.code_map, [[0.5, 0.5]])


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(4)
    h = Hyperparams(m=4, d=3, j=2)
    p = init_params(3, h)
    import dataclasses

    p = dataclasses.replace(
        p,
        log_amplitudes=rng.normal(size=(3, 2)) * 0.1,
        log_bandwidths=rng.normal(size=(3, 2)) * 0.1,
        codes=rng.normal(size=(3, 3)),
        code_map=rng.normal(size=(4, 3)),
    )
    x = pack_params(p)
    assert x.shape == (3 * 4 + 3 * 3 + 4 * 3,)
    q = unpack_params(x, p)
    assert np.array_equal(q.log_amplitudes, p.log_amplitudes)
    assert np.array_equal(q.log_bandwidths, p.log_bandwidths)
    assert np.array_equal(q.codes, p.codes)
    assert np.array_equal(q.code_map, p.code_map)
    # packing order: class-major kernel logs first ([amps..., bws...] per class)
    assert x[0] == p.log_amplitudes[0, 0]
    assert x[2] == p.log_bandwidths[0, 0]
    assert x[3 * 4] == p.codes[0, 0]
    assert x[3 * 4 + 3 * 3] == p.code_map[0, 0]
    with pytest.raises(ValueError):
        unpack_params(x[:-1], p)


def tiny_dataset(seed=0):
    rng = np.random.default_rng(seed)
    cols = []
    for k in range(2):
        series = []
        for _ in range(3):
            n = int(rng.integers(8, 14))
            t = np.sort(rng.choice(np.linspace(0, 1, 200), size=n, replace=False))
            y = np.sin(2 * np.pi * t + k * np.pi / 2) + rng.normal(0, 0.2, n)
            series.append(TimeSeries(t, y))
        cols.append(Collection(k, tuple(series)))
    return Dataset(tuple(cols), (0.0, 1.0))


def test_train_model_decreases_loss():
    ds = tiny_dataset()
    h = Hyperparams(m=4, d=2, j=1, max_iters=8, sigma=0.3)
    fitted, info = train_model(ds, h)
    start_loss = total_loss(init_params(2, h), ds)
    assert info.loss <= start_loss
    assert info.stop_reason in (
        "max-iters", "small-decrease", "small-gradient", "line-search-failure",
    )
    assert 0 <= info.iterations <= 8
    assert fitted.time_scale == ds.time_scale
    assert fitted.class_labels == ds.class_labels


def test_train_model_zero_iters_keeps_init():
    ds = tiny_dataset(1)
    h = Hyperparams(m=3, d=2, j=1, max_iters=0)
    fitted, info = train_model(ds, h)
    assert info.iterations == 0
    assert info.stop_reason == "max-iters"
    ref = init_params(2, h)
    assert np.array_equal(fitted.codes, ref.codes)
    assert np.array_equal(fitted.code_map, ref.code_map)


def test_train_model_deterministic():
    ds = tiny_dataset(2)
    h = Hyperparams(m=3, d=2, j=1, max_iters=5, sigma=0.3)
    f1, i1 = train_model(ds, h)
    f2, i2 = train_model(ds, h)
    assert np.array_equal(f1.codes, f2.codes)
    assert np.array_equal(f1.code_map, f2.code_map)
    assert i1.loss == i2.loss


COUNT_PROBLEMS = {
    "quadratic": (lambda x: float((x - 3.0) @ (x - 3.0)), lambda x: 2.0 * (x - 3.0),
                  np.zeros(2), 1e-14),
    "rosenbrock": (rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), 1e-14),
    # the gradient claims descent where |x| grows, so every trial fails
    "line-search-failure": (lambda x: float(np.abs(x[0])), lambda x: np.array([-2.0]),
                            np.zeros(1), 1e-10),
}


@pytest.mark.parametrize("name", sorted(COUNT_PROBLEMS))
@pytest.mark.parametrize("max_iters", [0, 1, 3, 200])
def test_evaluation_counts(name, max_iters):
    f, g, x0, epsilon = COUNT_PROBLEMS[name]
    calls = []  # (point, ceiling) of every fun call, in call order

    def fun(x, ceiling):
        calls.append((x.copy(), ceiling))
        value = f(x)
        # a gradient only where minimize may use one: at x0 and at a trial
        # that passes its Armijo test
        accepted = ceiling is None or value <= ceiling
        return value, (g(x) if accepted else None)

    res = minimize(fun, x0, max_iters, epsilon)
    # the first call is at x0 with no ceiling, also when max_iters is 0;
    # then each line search makes its trials, one call each, up to the
    # first that passes; a failed search makes MAX_HALVINGS + 1 trials
    assert calls[0][1] is None and np.array_equal(calls[0][0], x0)
    if max_iters == 0:
        assert len(calls) == 1
        return
    searches, point, trials = [], x0, []
    for x, ceiling in calls[1:]:
        assert ceiling is not None
        trials.append(x)
        if f(x) <= ceiling:
            searches.append((point, trials))
            point, trials = x, []
    assert len(searches) == res.iterations
    assert np.array_equal(res.x, point)
    if res.stop_reason == "line-search-failure":
        assert len(trials) == MAX_HALVINGS + 1
        searches.append((point, trials))
    else:
        assert trials == []
    # the k-th trial of a search sits BACKTRACK**k of the first step away
    # from the search's starting point, so no call is a repeat
    for start, trials in searches:
        assert 1 <= len(trials) <= MAX_HALVINGS + 1
        first = trials[0] - start
        assert np.any(first != 0)
        for k, trial in enumerate(trials):
            assert np.allclose(trial - start, BACKTRACK ** k * first, rtol=1e-9,
                               atol=1e-14 * (1.0 + np.max(np.abs(start))))
    assert len(calls) == 1 + sum(len(trials) for _, trials in searches)
    if name == "line-search-failure":
        assert res.iterations == 0 and len(calls) == 1 + MAX_HALVINGS + 1
    elif name == "rosenbrock" and max_iters == 200:
        assert any(len(trials) > 1 for _, trials in searches)


def test_loss_fn_gets_each_trials_armijo_ceiling():
    seen = []  # (point, ceiling) of every call

    def fun(x, ceiling):
        seen.append((x.copy(), ceiling))
        return rosenbrock(x), rosenbrock_grad(x)

    res = minimize(fun, np.array([-1.2, 1.0]), 40, 1e-14)
    assert seen[0][1] is None
    start, loss, halvings, rejected = seen[0][0], rosenbrock(seen[0][0]), 0, 0
    for x, ceiling in seen[1:]:
        if halvings == 0:  # the first trial of a search takes the full step
            slope = float(rosenbrock_grad(start) @ (x - start))
        assert ceiling == pytest.approx(loss + ARMIJO_C1 * BACKTRACK ** halvings * slope,
                                        rel=1e-12, abs=1e-12 * abs(loss))
        if rosenbrock(x) <= ceiling:
            start, loss, halvings = x, rosenbrock(x), 0
        else:
            halvings += 1
            rejected += 1
    assert rejected > 0 and loss == res.loss

    # a fun that gives up on a trial it knows fails, with no gradient,
    # changes nothing
    def shortcut(x, ceiling):
        value = rosenbrock(x)
        if ceiling is not None and value > ceiling:
            return ceiling + 1.0, None
        return value, rosenbrock_grad(x)

    short = minimize(shortcut, np.array([-1.2, 1.0]), 40, 1e-14)
    assert short.x.tobytes() == res.x.tobytes() and short.loss == res.loss
    assert (short.iterations, short.stop_reason) == (res.iterations, res.stop_reason)


def fresh_gradient(x, template, ds):
    return loss_gradient(unpack_params(x, template), ds)[1]


def reference_minimize(ds, template, h):
    """minimize over the plain loss, every trial evaluated in full and a
    fresh gradient at every point. Returns the result and its call count."""
    calls = []

    def fun(x, ceiling):
        calls.append(x)
        params = unpack_params(x, template)
        return total_loss(params, ds), loss_gradient(params, ds)[1]

    return minimize(fun, pack_params(template), h.max_iters, h.epsilon), len(calls)


def counted(monkeypatch, module, name, record):
    """Replace module.name by a wrapper that calls record() first."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record()
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_train_model_takes_gradients_from_the_accepted_pass(monkeypatch):
    ds = tiny_dataset(3)
    h = Hyperparams(m=4, d=2, j=1, max_iters=8, sigma=0.3)
    template = init_params(2, h)
    ref, ref_calls = reference_minimize(ds, template, h)
    assert ref.iterations >= 2

    events = []  # call names in order, from the optimizer's and objective's view
    for module, name, tag in ((optimizer, "total_loss", "loss"),
                              (optimizer, "loss_gradient", "grad"),
                              (objective, "kernel_matrix_components", "kernel"),
                              (objective, "chol_jittered", "chol")):
        counted(monkeypatch, module, name, lambda tag=tag: events.append(tag))

    evaluations = []  # (point, gradient or None, events during the call)
    real_minimize = optimizer.minimize

    def recording_minimize(fun, x0, max_iters, epsilon):
        def recorded(x, ceiling):
            first = len(events)
            loss, grad = fun(x, ceiling)
            evaluations.append((x.copy(), grad, events[first:]))
            return loss, grad
        return real_minimize(recorded, x0, max_iters, epsilon)

    monkeypatch.setattr(optimizer, "minimize", recording_minimize)
    _, res = train_model(ds, h)

    assert np.array_equal(res.x, ref.x)
    assert res.loss == ref.loss
    assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)
    assert len(evaluations) == ref_calls
    completed = [(x, grad, seen) for x, grad, seen in evaluations if grad is not None]
    # only the start and the accepted trials run to the end
    assert len(completed) == ref.iterations + 1
    per_pass = sum(1 + len(col.blocks) for col in ds.collections)
    for x, grad, seen in completed:
        # every gradient is the one a fresh pass at its point gives
        assert np.array_equal(grad, fresh_gradient(x, template, ds))
        # taken from the evaluation's own value pass: its kernels, one per
        # class and per block, and its K_SS factors are built once
        assert seen.index("grad") == len(seen) - 1 and seen.count("loss") == 1
        assert seen.count("kernel") == per_pass and seen.count("chol") == ds.n_classes
    for x, grad, seen in evaluations:
        if grad is None:
            assert seen.count("loss") == 1 and "grad" not in seen


def multi_class_dataset(seed=0, n_classes=3, n_series=6):
    rng = np.random.default_rng(seed)
    cols = []
    for k in range(n_classes):
        series = []
        for _ in range(n_series):
            n = int(rng.integers(8, 14))
            t = np.sort(rng.choice(np.linspace(0, 1, 400), size=n, replace=False))
            y = np.sin(2 * np.pi * (1.0 + 0.5 * k) * t + k) + rng.normal(0, 0.1, n)
            series.append(TimeSeries(t, y))
        cols.append(Collection(k, tuple(series)))
    return Dataset(tuple(cols), (0.0, 1.0))


def test_trials_cut_short_leave_training_unchanged(monkeypatch):
    ds = multi_class_dataset()
    h = Hyperparams(m=5, d=2, j=1, max_iters=10, sigma=0.1)
    template = init_params(ds.n_classes, h)
    # ignores the ceiling: every trial runs in full
    ref, ref_calls = reference_minimize(ds, template, h)

    events = []
    for module, name, tag in ((optimizer, "total_loss", "loss"),
                              (optimizer, "loss_gradient", "grad"),
                              (objective, "_block_value", "block")):
        counted(monkeypatch, module, name, lambda tag=tag: events.append(tag))
    _, res = train_model(ds, h)

    n_blocks = sum(len(col.blocks) for col in ds.collections)
    assert events.count("block") < events.count("loss") * n_blocks  # some trial was cut short
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.loss == ref.loss
    assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)
    # a gradient for the start and for each accepted trial only
    assert (events.count("loss"), events.count("grad")) == (ref_calls, ref.iterations + 1)


def test_minimize_logs_each_iteration(caplog):
    calls = []

    def fun(x, ceiling):
        calls.append(x)
        return rosenbrock(x), rosenbrock_grad(x)

    with caplog.at_level(logging.DEBUG, logger="motioncode.optimizer"):
        res = minimize(fun, np.array([-1.2, 1.0]), 40, 1e-14)
    records = [r for r in caplog.records if r.name == "motioncode.optimizer"]
    assert len(records) == res.iterations == 40
    assert all(r.levelno == logging.DEBUG for r in records)
    previous = None
    for n, record in enumerate(records, start=1):
        iteration, loss, decrease, grad_norm, step, halvings, n_loss, n_grad = record.args
        # the gradients used: the start's and one per accepted trial
        assert iteration == n and n_grad == n + 1
        assert step == BACKTRACK ** halvings
        assert grad_norm > 0.0 and decrease > 0.0
        if previous is not None:
            assert decrease == previous - loss
        previous = loss
        assert record.getMessage().startswith(f"iteration {n}: loss ")
    assert loss == res.loss
    assert n_loss == len(calls)
    assert any(r.args[5] > 0 for r in records)
