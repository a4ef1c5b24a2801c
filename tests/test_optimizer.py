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


def test_quadratic_converges():
    a = np.array([3.0, -2.0])
    res = minimize(
        lambda x, ceiling: float((x - a) @ (x - a)),
        lambda x: 2.0 * (x - a),
        np.zeros(2),
        max_iters=50,
        epsilon=1e-14,
    )
    assert np.linalg.norm(res.x - a) < 1e-8
    assert res.iterations <= 10
    assert res.stop_reason in ("small-gradient", "small-decrease")


def test_constant_function_stops_small_decrease():
    res = minimize(
        lambda x, ceiling: 5.0,
        lambda x: np.zeros_like(x),
        np.array([1.0, 2.0]),
        max_iters=100,
        epsilon=1e-5,
    )
    assert res.iterations == 1
    assert res.stop_reason == "small-decrease"
    assert res.loss == 5.0
    assert np.array_equal(res.x, [1.0, 2.0])


def test_rosenbrock_converges():
    def f(x, ceiling):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def g(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    res = minimize(f, g, np.array([-1.2, 1.0]), max_iters=200, epsilon=1e-14)
    assert np.linalg.norm(res.x - 1.0) < 1e-4
    assert res.iterations <= 200


def test_zero_max_iters_returns_start():
    res = minimize(
        lambda x, ceiling: float(x @ x), lambda x: 2.0 * x, np.array([1.0]), 0, 1e-5
    )
    assert res.iterations == 0
    assert res.stop_reason == "max-iters"
    assert res.x[0] == 1.0


def test_max_iters_cap():
    a = np.array([100.0])
    res = minimize(
        lambda x, ceiling: float(abs(x[0] - a[0])),
        lambda x: np.sign(x - a),
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

    def f(x, ceiling=None):
        v = float(0.5 * x @ a @ x - rhs @ x)
        losses.append(v)
        return v

    minimize(f, lambda x: a @ x - rhs, np.zeros(6), 60, 1e-15)
    # losses includes rejected trials; check accepted sequence via re-eval
    res = minimize(f, lambda x: a @ x - rhs, np.zeros(6), 60, 1e-15)
    assert res.loss <= f(np.zeros(6))


def test_line_search_failure_returns_current_point():
    # the supplied gradient lies about the slope at the minimum of |x|, so
    # every trial step increases f and all halvings are exhausted
    def f(x, ceiling):
        return float(np.abs(x[0]))

    def g(x):
        return np.array([-2.0])  # claims descent to the right; f grows there

    res = minimize(f, g, np.zeros(1), 10, 1e-10)
    assert res.stop_reason == "line-search-failure"
    assert res.x[0] == 0.0
    assert res.loss == 0.0


def test_infinite_start_raises():
    with pytest.raises(NumericalError):
        minimize(lambda x, ceiling: np.inf, lambda x: x, np.zeros(1), 5, 1e-5)


def test_nonfinite_trial_is_backtracked():
    # f blows up past |x| > 0.6 but has its minimum at 0.5
    def f(x, ceiling):
        if abs(x[0]) > 0.6:
            return np.inf
        return float((x[0] - 0.5) ** 2)

    res = minimize(f, lambda x: 2.0 * (x - 0.5), np.array([0.0]), 50, 1e-14)
    assert abs(res.x[0] - 0.5) < 1e-6


def test_determinism():
    a = np.array([1.0, -4.0, 2.5])

    def run():
        return minimize(
            lambda x, ceiling: float((x - a) @ (x - a) + 0.1 * np.sum(x**4)),
            lambda x: 2.0 * (x - a) + 0.4 * x**3,
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



def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    return np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])


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
    calls = []  # ("l" for loss or "g" for gradient, point), in call order

    def loss_fn(x, ceiling):
        calls.append(("l", x.copy()))
        return f(x)

    def grad_fn(x):
        calls.append(("g", x.copy()))
        return g(x)

    res = minimize(loss_fn, grad_fn, x0, max_iters, epsilon)
    kinds = [kind for kind, _ in calls]
    if max_iters == 0:
        assert kinds == ["l"]
        return
    # a loss and a gradient at the start, both at x0; then each line search
    # makes its trials, one loss each, and one gradient follows at the
    # accepted trial; a failed search makes MAX_HALVINGS + 1 trials
    assert kinds[:2] == ["l", "g"]
    assert np.array_equal(calls[0][1], x0) and np.array_equal(calls[1][1], x0)
    searches, point, trials = [], x0, []
    for kind, x in calls[2:]:
        if kind == "l":
            trials.append(x)
            continue
        assert trials and np.array_equal(x, trials[-1])
        searches.append((point, trials))
        point, trials = x, []
    assert len(searches) == res.iterations
    if res.stop_reason == "line-search-failure":
        assert len(trials) == MAX_HALVINGS + 1
        searches.append((point, trials))
    else:
        assert trials == []
    # the k-th trial of a search sits BACKTRACK**k of the first step away
    # from the search's starting point, so no loss call is a repeat
    for start, trials in searches:
        assert 1 <= len(trials) <= MAX_HALVINGS + 1
        first = trials[0] - start
        assert np.any(first != 0)
        for k, trial in enumerate(trials):
            assert np.allclose(trial - start, BACKTRACK ** k * first, rtol=1e-9,
                               atol=1e-14 * (1.0 + np.max(np.abs(start))))
    assert kinds.count("g") == res.iterations + 1
    assert kinds.count("l") == 1 + sum(len(trials) for _, trials in searches)
    if name == "line-search-failure":
        assert res.iterations == 0 and len(kinds) == 2 + MAX_HALVINGS + 1
    elif name == "rosenbrock" and max_iters == 200:
        assert any(len(trials) > 1 for _, trials in searches)


def test_loss_fn_gets_each_trials_armijo_ceiling():
    seen = []  # (point, ceiling) of every loss call

    def f(x, ceiling):
        seen.append((x.copy(), ceiling))
        return rosenbrock(x)

    res = minimize(f, rosenbrock_grad, np.array([-1.2, 1.0]), 40, 1e-14)
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

    # a loss that gives up on a trial it knows fails changes nothing
    def shortcut(x, ceiling):
        value = rosenbrock(x)
        return ceiling + 1.0 if ceiling is not None and value > ceiling else value

    short = minimize(shortcut, rosenbrock_grad, np.array([-1.2, 1.0]), 40, 1e-14)
    assert short.x.tobytes() == res.x.tobytes() and short.loss == res.loss
    assert (short.iterations, short.stop_reason) == (res.iterations, res.stop_reason)


def fresh_gradient(x, template, ds):
    return loss_gradient(unpack_params(x, template), ds)[1]


def test_train_model_takes_gradients_from_the_accepted_pass(monkeypatch):
    ds = tiny_dataset(3)
    h = Hyperparams(m=4, d=2, j=1, max_iters=8, sigma=0.3)
    template = init_params(2, h)
    ref_calls = {"loss": 0, "grad": 0}

    def ref_loss(x, ceiling):
        ref_calls["loss"] += 1
        return total_loss(unpack_params(x, template), ds)

    def ref_grad(x):
        ref_calls["grad"] += 1
        return fresh_gradient(x, template, ds)

    ref = minimize(ref_loss, ref_grad, pack_params(template), h.max_iters, h.epsilon)
    assert ref.iterations >= 2

    events = []  # call names in order, from the optimizer's and objective's view

    def counted(module, name, tag):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(tag)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(optimizer, "total_loss", "loss")
    counted(optimizer, "loss_gradient", "grad")
    counted(objective, "kernel_matrix_components", "kernel")
    counted(objective, "chol_jittered", "chol")

    probes = []
    real_minimize = optimizer.minimize

    def probing_minimize(loss_fn, grad_fn, x0, max_iters, epsilon):
        # a gradient away from the last trial, then one with no trial since:
        # both must build their own passes and still give the fresh gradient
        loss_fn(x0, None)
        for x in (x0 + 0.01, x0):
            start = len(events)
            probes.append((x, grad_fn(x), events[start:].count("kernel")))
        del events[:]
        return real_minimize(loss_fn, grad_fn, x0, max_iters, epsilon)

    monkeypatch.setattr(optimizer, "minimize", probing_minimize)
    _, res = train_model(ds, h)

    assert np.array_equal(res.x, ref.x)
    assert res.loss == ref.loss
    assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)
    assert events.count("loss") == ref_calls["loss"]
    assert events.count("grad") == ref_calls["grad"]
    # every gradient minimize asked for was taken from the pass its loss
    # call had just built: it builds no kernel matrix and factors no K_SS,
    # so only the loss calls do, each one per class and per block
    for segment in " ".join(events).split("loss")[1:]:
        _, _, after = segment.partition("grad")
        assert "grad" not in after and "kernel" not in after and "chol" not in after
    per_loss = sum(1 + len(col.blocks) for col in ds.collections)
    assert events.count("kernel") == per_loss * ref_calls["loss"]
    assert events.count("chol") == ds.n_classes * ref_calls["loss"]
    for x, got, kernels in probes:
        assert kernels > 0
        assert np.array_equal(got, fresh_gradient(x, template, ds))


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
    ref_calls = {"loss": 0, "grad": 0}

    def ref_loss(x, ceiling):  # ignores the ceiling: every trial runs in full
        ref_calls["loss"] += 1
        return total_loss(unpack_params(x, template), ds)

    def ref_grad(x):
        ref_calls["grad"] += 1
        return fresh_gradient(x, template, ds)

    ref = minimize(ref_loss, ref_grad, pack_params(template), h.max_iters, h.epsilon)

    calls = {"loss": 0, "grad": 0, "block": 0}

    def counted(module, name, tag):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[tag] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(optimizer, "total_loss", "loss")
    counted(optimizer, "loss_gradient", "grad")
    counted(objective, "_block_value", "block")
    _, res = train_model(ds, h)

    n_blocks = sum(len(col.blocks) for col in ds.collections)
    assert calls["block"] < calls["loss"] * n_blocks  # some trial was cut short
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.loss == ref.loss
    assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)
    assert (calls["loss"], calls["grad"]) == (ref_calls["loss"], ref_calls["grad"])


def test_minimize_logs_each_iteration(caplog):
    calls = {"loss": 0, "grad": 0}

    def f(x, ceiling):
        calls["loss"] += 1
        return rosenbrock(x)

    def g(x):
        calls["grad"] += 1
        return rosenbrock_grad(x)

    with caplog.at_level(logging.DEBUG, logger="motioncode.optimizer"):
        res = minimize(f, g, np.array([-1.2, 1.0]), 40, 1e-14)
    records = [r for r in caplog.records if r.name == "motioncode.optimizer"]
    assert len(records) == res.iterations == 40
    assert all(r.levelno == logging.DEBUG for r in records)
    previous = None
    for n, record in enumerate(records, start=1):
        iteration, loss, decrease, grad_norm, step, halvings, n_loss, n_grad = record.args
        assert iteration == n and n_grad == n + 1
        assert step == BACKTRACK ** halvings
        assert grad_norm > 0.0 and decrease > 0.0
        if previous is not None:
            assert decrease == previous - loss
        previous = loss
        assert record.getMessage().startswith(f"iteration {n}: loss ")
    assert loss == res.loss
    assert (n_loss, n_grad) == (calls["loss"], calls["grad"])
    assert any(r.args[5] > 0 for r in records)
