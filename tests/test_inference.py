import dataclasses

import numpy as np
import pytest

from motioncode import bench
from motioncode.core import (
    BLOCK_COLUMNS,
    Collection,
    Dataset,
    Hyperparams,
    InputError,
    ModelParams,
    NumericalError,
    TimeSeries,
    ValidationError,
    VariationalPosterior,
    effective_noise,
)
from motioncode.dataio import forecast_split
from motioncode.inference import (
    classify_many,
    class_posteriors,
    fit_posterior,
    forecast,
    predict,
)
from motioncode.kernel import KernelParams, chol_jittered, kernel_matrix
from motioncode.optimizer import init_params, train_model


def spaced(rng, n, lo=0.02, hi=0.98, grid=400):
    pts = np.linspace(lo, hi, grid)
    return np.sort(rng.choice(pts, size=n, replace=False))


def sharp_params(rng, j=1):
    return KernelParams(
        rng.uniform(-0.5, 0.5, j),
        rng.uniform(np.log(40.0), np.log(150.0), j),
    )


def good_inducing(rng, kp, m):
    for _ in range(200):
        s = np.sort(rng.uniform(0.05, 0.95, m))
        if m == 1 or np.diff(s).min() > 0.12:
            if np.linalg.eigvalsh(kernel_matrix(kp, s)).min() > 0.05:
                return s
    raise AssertionError("no well-conditioned inducing set found")


def rand_collection(rng, label=0, n_series=2, n_lo=4, n_hi=8):
    series = []
    for _ in range(n_series):
        n = int(rng.integers(n_lo, n_hi + 1))
        series.append(TimeSeries(spaced(rng, n), rng.normal(size=n)))
    return Collection(label, tuple(series))


def dense_posterior(kp, s, collection, sigma):
    """Oracle with explicit matrix inversion, no jitter."""
    c = effective_noise(collection.size, sigma)
    k_ss = kernel_matrix(kp, s)
    lam = k_ss.copy()
    rhs = np.zeros(s.size)
    for ts in collection.series:
        cross = kernel_matrix(kp, s, ts.timestamps)
        lam = lam + cross @ cross.T / c
        rhs = rhs + cross @ ts.values
    sig = np.linalg.inv(lam)
    mean = k_ss @ sig @ rhs / c
    cov = k_ss @ sig @ k_ss
    return mean, cov


def dense_predict(kp, s, mean, cov, query):
    k_ts = kernel_matrix(kp, query, s)
    proj = np.linalg.solve(kernel_matrix(kp, s), k_ts.T).T  # K_TS K_SS^{-1}
    p = proj @ mean
    var = (
        np.sum(kp.amplitudes)
        - np.sum(proj * k_ts, axis=1)
        + np.sum(proj @ cov * proj, axis=1)
    )
    return p, var


def test_posterior_matches_dense_oracle(forbid_inverse):
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(10):
        kp = sharp_params(rng, int(rng.integers(1, 3)))
        m = int(rng.integers(2, 5))
        s = good_inducing(rng, kp, m)
        col = rand_collection(rng, n_series=int(rng.integers(1, 4)))
        cases.append((kp, s, col, dense_posterior(kp, s, col, 0.5)))
    forbid_inverse()
    for kp, s, col, (mean, cov) in cases:
        post = fit_posterior(col, kp, s, sigma=0.5, jitter=1e-12)
        assert np.allclose(post.mean, mean, atol=1e-8)
        assert np.allclose(post.covariance, cov, atol=1e-8)
        assert np.allclose(post.covariance, post.covariance.T, atol=1e-10)
        assert np.linalg.eigvalsh(post.covariance).min() >= -1e-8


def test_predict_matches_dense_oracle(forbid_inverse):
    rng = np.random.default_rng(22)
    cases = []
    for trial in range(10):
        kp = sharp_params(rng)
        s = good_inducing(rng, kp, 3)
        col = rand_collection(rng)
        post = fit_posterior(col, kp, s, sigma=0.5, jitter=1e-12)
        q = np.sort(rng.uniform(0, 1.2, 7))
        cases.append((kp, post, q, dense_predict(kp, s, post.mean, post.covariance, q)))
    forbid_inverse()
    for kp, post, q, (p, var) in cases:
        pred = predict(post, kp, q)
        assert np.allclose(pred.mean, p, atol=1e-8)
        assert np.allclose(pred.variance, np.clip(var, 0, None), atol=1e-8)


def test_posterior_collapse_single_series():
    # B = 1 and inducing set equal to the data timestamps: the predictive
    # mean at those timestamps is the classic smoother K (K + s2 I)^{-1} y
    rng = np.random.default_rng(23)
    kp = KernelParams(np.array([0.1]), np.array([np.log(60.0)]))
    t = spaced(rng, 8)
    y = rng.normal(size=8)
    col = Collection(0, (TimeSeries(t, y),))
    sigma = 0.5
    post = fit_posterior(col, kp, t, sigma=sigma, jitter=1e-12)
    pred = predict(post, kp, t)
    k = kernel_matrix(kp, t)
    want = k @ np.linalg.solve(k + sigma**2 * np.eye(8), y)
    assert np.allclose(pred.mean, want, atol=1e-8)


def test_predict_is_the_dense_sgpr_at_the_jittered_inducing_covariance():
    # the objective and predict work with Kt = K_SS + jitter I, so the
    # posterior must be the maximizer for Kt too: two inducing timestamps
    # 1e-5 apart make the jitter visible in the predictions
    rng = np.random.default_rng(25)
    kp = KernelParams(np.array([0.0]), np.array([np.log(50.0)]))
    s = np.array([0.2, 0.5, 0.5 + 1e-5, 0.8])
    col = rand_collection(rng, n_series=3, n_lo=12, n_hi=12)
    sigma, jitter = 0.3, 1e-6
    c = effective_noise(col.size, sigma)
    kt = kernel_matrix(kp, s) + jitter * np.eye(s.size)
    lam, rhs = kt.copy(), np.zeros(s.size)
    for ts in col.series:
        cross = kernel_matrix(kp, s, ts.timestamps)
        lam += cross @ cross.T / c
        rhs += cross @ ts.values
    q = np.linspace(0.0, 1.2, 25)
    k_st = kernel_matrix(kp, s, q)
    mean = k_st.T @ np.linalg.solve(lam, rhs) / c
    var = (1.0 - np.sum(k_st * np.linalg.solve(kt, k_st), axis=0)
           + np.sum(k_st * np.linalg.solve(lam, k_st), axis=0))
    pred = predict(fit_posterior(col, kp, s, sigma, jitter), kp, q)
    assert np.allclose(pred.mean, mean, rtol=0, atol=1e-8)
    assert np.allclose(pred.variance, var, rtol=0, atol=1e-8)


def test_interpolation_limit():
    rng = np.random.default_rng(24)
    kp = KernelParams(np.array([0.0]), np.array([np.log(50.0)]))
    t = spaced(rng, 7)
    y = rng.normal(size=7)
    col = Collection(0, (TimeSeries(t, y),))
    post = fit_posterior(col, kp, t, sigma=1e-4, jitter=1e-12)
    pred = predict(post, kp, t)
    scale = np.max(np.abs(y))
    assert np.max(np.abs(pred.mean - y)) < 1e-2 * scale


def test_zero_data_gives_zero_mean():
    rng = np.random.default_rng(25)
    kp = sharp_params(rng)
    s = good_inducing(rng, kp, 3)
    t = spaced(rng, 6)
    col0 = Collection(0, (TimeSeries(t, np.zeros(6)),))
    post0 = fit_posterior(col0, kp, s, sigma=0.3)
    assert np.array_equal(post0.mean, np.zeros(3))
    # covariance ignores the observed values entirely
    col1 = Collection(0, (TimeSeries(t, rng.normal(size=6)),))
    post1 = fit_posterior(col1, kp, s, sigma=0.3)
    assert np.array_equal(post0.covariance, post1.covariance)
    # zero mean propagates to zero prediction anywhere
    pred = predict(post0, kp, [0.1, 0.7, 1.2])
    assert np.array_equal(pred.mean, np.zeros(3))


def test_predict_at_inducing_points():
    rng = np.random.default_rng(26)
    kp = sharp_params(rng)
    s = good_inducing(rng, kp, 4)
    col = rand_collection(rng, n_series=3)
    post = fit_posterior(col, kp, s, sigma=0.4, jitter=1e-12)
    pred = predict(post, kp, s)
    assert np.allclose(pred.mean, post.mean, atol=1e-8)
    assert np.allclose(pred.variance, np.diag(post.covariance), atol=1e-8)


def test_posterior_contraction():
    rng = np.random.default_rng(27)
    kp = KernelParams(np.array([0.0]), np.array([np.log(40.0)]))
    t = spaced(rng, 9)
    y = rng.normal(size=9)
    col = Collection(0, (TimeSeries(t, y),))
    errs = []
    for sigma in (1.0, 0.1, 0.01):
        post = fit_posterior(col, kp, t, sigma=sigma, jitter=1e-12)
        pred = predict(post, kp, t)
        errs.append(np.linalg.norm(pred.mean - y))
    assert errs[0] >= errs[1] >= errs[2]


def test_fit_posterior_validation():
    rng = np.random.default_rng(28)
    kp = sharp_params(rng)
    col = rand_collection(rng)
    with pytest.raises(ValidationError):
        fit_posterior(col, kp, [0.0, 0.5], sigma=0.3)  # endpoint not allowed
    with pytest.raises(ValidationError):
        fit_posterior(col, kp, [0.5, 1.0], sigma=0.3)
    with pytest.raises(ValidationError):
        fit_posterior(col, kp, [0.2, 0.5], sigma=0.0)


@pytest.mark.parametrize("sigma", [1e-160, 1e-200])
def test_fit_posterior_refuses_an_underflowed_noise(sigma):
    # c = B * sigma**2 is subnormal or zero, so the sums over c overflow;
    # the fit must say so rather than factor an infinite matrix
    rng = np.random.default_rng(29)
    kp = sharp_params(rng)
    col = rand_collection(rng)
    with np.errstate(over="ignore", divide="ignore"), pytest.raises(NumericalError):
        fit_posterior(col, kp, good_inducing(rng, kp, 2), sigma=sigma)


def constant_model_and_data(values=(0.0, 10.0), n=12, n_series=2):
    rng = np.random.default_rng(30)
    cols = []
    for k, v in enumerate(values):
        series = []
        for _ in range(n_series):
            t = spaced(rng, n)
            series.append(TimeSeries(t, np.full(n, float(v))))
        cols.append(Collection(k, tuple(series)))
    ds = Dataset(tuple(cols), (0.0, 1.0))
    h = Hyperparams(m=5, d=2, j=1, sigma=0.1, max_iters=0)
    from motioncode.optimizer import init_params

    model = init_params(len(values), h)
    return model, ds


def test_classify_separated_constants():
    model, ds = constant_model_and_data()
    rng = np.random.default_rng(31)
    t = spaced(rng, 10)
    label, dist = classify_many(model, class_posteriors(model, ds),
                                [TimeSeries(t, np.full(10, 0.2))])[0]
    assert label == 0
    assert dist[0] < dist[1]
    assert dist.shape == (2,)
    # distance to the matching prototype is near 0.2 * sqrt(n)
    assert dist[0] == pytest.approx(0.2 * np.sqrt(10), rel=0.5)


def test_classify_tie_breaks_to_smallest_index():
    # bit-identical collections and identical per-class parameters give
    # equal distances, so the reported label must be class 0
    rng = np.random.default_rng(32)
    series = tuple(TimeSeries(spaced(rng, 10), np.full(10, 3.0)) for _ in range(2))
    ds = Dataset(
        (Collection(0, series), Collection(1, series)), (0.0, 1.0)
    )
    from motioncode.optimizer import init_params

    model = init_params(2, Hyperparams(m=5, d=2, j=1, sigma=0.1))
    t = spaced(rng, 8)
    label, dist = classify_many(model, class_posteriors(model, ds),
                                [TimeSeries(t, np.full(8, 1.0))])[0]
    assert dist[0] == dist[1]
    assert label == 0


def test_classify_many_matches_single():
    model, ds = constant_model_and_data()
    rng = np.random.default_rng(33)
    tests = [
        TimeSeries(spaced(rng, 9), rng.normal(5.0, 1.0, 9)) for _ in range(4)
    ]
    posteriors = class_posteriors(model, ds)
    batch = classify_many(model, posteriors, tests)
    for series, (label, dist) in zip(tests, batch):
        l2, d2 = classify_many(model, posteriors, [series])[0]
        assert label == l2
        assert np.array_equal(dist, d2)


def test_forecast_zero_class():
    rng = np.random.default_rng(34)
    t = spaced(rng, 15)
    col = Collection(0, (TimeSeries(t, np.zeros(15)),))
    ds = Dataset((col,), (0.0, 1.0))
    h = Hyperparams(m=4, d=2, j=1, sigma=0.1, max_iters=0)
    from motioncode.optimizer import init_params

    model = init_params(1, h)
    pred = forecast(model, class_posteriors(model, ds), 0, [0.3, 0.9, 1.2])
    assert np.max(np.abs(pred.mean)) < 1e-6


def test_forecast_uses_only_its_class():
    model, ds = constant_model_and_data()
    q = [0.2, 0.5, 0.9]
    base = forecast(model, class_posteriors(model, ds), 0, q)
    # perturb class 1's values; class 0's forecast must not move a bit
    rng = np.random.default_rng(35)
    new_series = tuple(
        TimeSeries(ts.timestamps, ts.values + rng.normal(size=len(ts)))
        for ts in ds.collections[1].series
    )
    ds2 = Dataset(
        (ds.collections[0], Collection(1, new_series)), ds.time_scale
    )
    again = forecast(model, class_posteriors(model, ds2), 0, q)
    assert np.array_equal(base.mean, again.mean)
    assert np.array_equal(base.variance, again.variance)


def test_forecast_input_errors():
    model, ds = constant_model_and_data()
    with pytest.raises(InputError):
        forecast(model, class_posteriors(model, ds), 5, [0.5])  # unknown class
    with pytest.raises(InputError):
        forecast(model, class_posteriors(model, ds), 0, [1.3])  # beyond the forecast horizon


def test_classify_many_needs_one_posterior_per_class():
    model, ds = constant_model_and_data()
    series = TimeSeries(np.array([0.2, 0.6]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError) as err:
        classify_many(model, class_posteriors(model, ds)[:1], [series])
    assert str(err.value) == "model has 2 classes but 1 posteriors were given"


def test_predict_refuses_a_negative_variance():
    # a covariance of -10 I takes 10 off the variance at the inducing points
    posterior = VariationalPosterior(np.array([0.3, 0.7]), np.zeros(2), -10.0 * np.eye(2), 1e-6)
    kp = KernelParams(np.zeros(1), np.zeros(1))
    with pytest.raises(NumericalError) as err:
        predict(posterior, kp, [0.3, 0.7])
    assert str(err.value) == "predictive variance fell below the roundoff tolerance: -1.000e+01"


def test_forecast_trained_sine_in_range():
    rng = np.random.default_rng(36)
    t = spaced(rng, 30)
    col = Collection(0, (TimeSeries(t, np.sin(2 * np.pi * t)),))
    ds = Dataset((col,), (0.0, 1.0))
    h = Hyperparams(m=10, d=2, j=1, sigma=0.1, max_iters=50, epsilon=1e-8)
    model, info = train_model(ds, h)
    q = np.linspace(0.1, 0.9, 17)
    pred = forecast(model, class_posteriors(model, ds), 0, q)
    assert np.max(np.abs(pred.mean - np.sin(2 * np.pi * q))) < 0.1


def test_classify_scale_mapping():
    # scaling data by rho > 0 maps exactly onto scaled kernel amplitudes and
    # scaled noise; the predicted label is unchanged and distances scale by rho
    rng = np.random.default_rng(37)
    cols = []
    for k in range(2):
        series = [
            TimeSeries(spaced(rng, 10), np.sin(2 * np.pi * spaced(rng, 10) + k))
            for _ in range(2)
        ]
        cols.append(Collection(k, tuple(series)))
    ds = Dataset(tuple(cols), (0.0, 1.0))
    h = Hyperparams(m=4, d=2, j=1, sigma=0.3, jitter=1e-12)
    from motioncode.optimizer import init_params

    model = init_params(2, h)
    model = dataclasses.replace(
        model,
        log_bandwidths=np.full((2, 1), np.log(30.0)),
        codes=rng.normal(size=(2, 2)),
    )
    t = spaced(rng, 9)
    series = TimeSeries(t, rng.normal(size=9))

    rho = 3.7
    scaled_cols = tuple(
        Collection(c.label, tuple(TimeSeries(s.timestamps, s.values * rho) for s in c.series))
        for c in ds.collections
    )
    ds_scaled = Dataset(scaled_cols, ds.time_scale)
    # the stabilizer jitter scales with the covariance, like everything else
    model_scaled = dataclasses.replace(
        model,
        log_amplitudes=model.log_amplitudes + 2.0 * np.log(rho),
        hyper=dataclasses.replace(h, sigma=h.sigma * rho, jitter=h.jitter * rho**2),
    )
    label, dist = classify_many(model, class_posteriors(model, ds), [series])[0]
    label2, dist2 = classify_many(
        model_scaled, class_posteriors(model_scaled, ds_scaled),
        [TimeSeries(t, series.values * rho)]
    )[0]
    assert label == label2
    assert np.allclose(dist2, rho * dist, rtol=1e-6)


# ---------------------------------------------------------------------------
# chunked prediction and batched serving


def mixed_model_and_data(lengths, seed):
    """An untrained two-class model with a sharper kernel, and a dataset
    whose class-k series have the given lengths, up to 2 * BLOCK_COLUMNS
    points each."""
    rng = np.random.default_rng(seed)
    cols = []
    for k in range(2):
        series = []
        for n in lengths:
            t = spaced(rng, n, grid=4 * BLOCK_COLUMNS)
            series.append(TimeSeries(t, np.sin(2 * np.pi * t + k) + rng.normal(0.0, 0.2, n)))
        cols.append(Collection(k, tuple(series)))
    ds = Dataset(tuple(cols), (0.0, 1.0))
    model = dataclasses.replace(
        init_params(2, Hyperparams(m=6, d=2, j=1, sigma=0.3)),
        log_bandwidths=np.full((2, 1), np.log(30.0)),
        codes=rng.normal(size=(2, 2)),
    )
    return model, ds


def test_predict_chunks_match_dense_oracle():
    # three chunks, the last one partial; queries unsorted and past 1
    rng = np.random.default_rng(40)
    kp = sharp_params(rng, 2)
    s = good_inducing(rng, kp, 4)
    col = rand_collection(rng, n_series=3)
    post = fit_posterior(col, kp, s, sigma=0.5, jitter=1e-12)
    q = rng.uniform(0.0, 1.2, 2 * BLOCK_COLUMNS + 276)
    pred = predict(post, kp, q)
    p, var = dense_predict(kp, s, post.mean, post.covariance, q)
    assert np.array_equal(pred.timestamps, q)
    assert np.allclose(pred.mean, p, atol=1e-8)
    assert np.allclose(pred.variance, np.clip(var, 0, None), atol=1e-8)

    # the state training collapses to: ten inducing timestamps within a few
    # ulps of 0.5, so K_SS + jitter*I has condition number ~1e13 times the
    # amplitude and the whitening factor entries ~1e6
    s = 0.5 + np.arange(-5, 5) * np.spacing(0.5)
    col = rand_collection(rng, n_series=5, n_lo=8, n_hi=12)
    for amplitude in (1e-4, 1e-2, 1e-1, 1.0):
        kp = KernelParams(np.array([np.log(amplitude)]), np.array([0.44]))
        assert chol_jittered(kernel_matrix(kp, s), 1e-12).jitter_used == 1e-12
        post = fit_posterior(col, kp, s, sigma=0.1, jitter=1e-12)
        pred = predict(post, kp, q)
        p, var = bench.dense_predict(kp, s, post.mean, post.covariance, q, jitter=1e-12)
        assert np.allclose(pred.mean, p, atol=1e-8), amplitude
        assert np.allclose(pred.variance, np.clip(var, 0, None), atol=1e-8), amplitude


def test_classify_many_distances_over_mixed_lengths():
    model, ds = mixed_model_and_data([12, 30, 7], seed=41)
    rng = np.random.default_rng(42)
    lengths = [1, 9, BLOCK_COLUMNS + 88, 2, 40, 1, 300]
    tests = [TimeSeries(spaced(rng, n, grid=2000), rng.normal(size=n))
             for n in lengths]
    posteriors = class_posteriors(model, ds)
    batch = classify_many(model, posteriors, tests)
    assert len(batch) == len(tests)
    for series, (label, dist) in zip(tests, batch):
        want = np.array([
            np.linalg.norm(series.values - predict(
                post, KernelParams(model.log_amplitudes[k], model.log_bandwidths[k]),
                series.timestamps).mean)
            for k, post in enumerate(posteriors)
        ])
        assert np.allclose(dist, want, rtol=1e-12, atol=0.0)
        assert label == int(np.argmin(dist))
    assert classify_many(model, posteriors, []) == []


def forecast_row_case(seed):
    model, ds = mixed_model_and_data([5, 20, 2 * BLOCK_COLUMNS, 3, 60], seed)
    train, test = forecast_split(ds, 0.6)
    return model, train, test, class_posteriors(model, train)


def assert_rows_match_per_series(model, posteriors, k, rows, queries, train_series):
    center, scale = model.value_center, model.value_scale
    assert len(rows) == len(queries)
    for idx, (row, q, tr) in enumerate(zip(rows, queries, train_series)):
        mean = forecast(model, posteriors, k, q.timestamps).mean
        assert row["series"] == idx
        assert np.array_equal(row["actual"], center + scale * q.values)
        assert np.allclose(row["predicted"], center + scale * mean,
                           rtol=1e-12, atol=1e-12)
        assert row["last_seen"] == float(center + scale * tr.values[-1])


def test_bench_forecast_rows_match_per_series_forecast():
    model, train, test, posteriors = forecast_row_case(43)
    for k in range(2):
        queries = test.collections[k].series
        entry = bench.class_forecast_errors(model, posteriors, k,
                                            train.collections[k].series, queries)
        rows = entry["points"]
        assert_rows_match_per_series(model, posteriors, k, rows, queries,
                                     train.collections[k].series)
        # the RMSEs are the ones of the rows' per-row squared errors, concatenated
        actual = [np.asarray(row["actual"]) for row in rows]
        sq_model = np.concatenate([(a - np.asarray(row["predicted"])) ** 2
                                   for a, row in zip(actual, rows)])
        sq_last = np.concatenate([(a - row["last_seen"]) ** 2
                                  for a, row in zip(actual, rows)])
        assert entry["label"] == model.class_labels[k]
        assert entry["rmse"] == float(np.sqrt(np.mean(sq_model)))
        assert entry["last_seen_rmse"] == float(np.sqrt(np.mean(sq_last)))
        assert entry["n_points"] == sq_model.size == sum(len(q) for q in queries)


def test_cli_forecast_rows_match_per_series_forecast():
    model, train, test, posteriors = forecast_row_case(44)
    rng = np.random.default_rng(45)
    # queries run past the training range, up to the forecast horizon
    records = [
        (k, TimeSeries.view(np.sort(rng.uniform(0.0, 1.25, n)), rng.normal(size=n)))
        for k in range(2) for n in (4, 1, BLOCK_COLUMNS + 10, 7, 30)
    ]
    for k in range(2):
        queries = [q for c, q in records if c == k]
        entry = bench.class_forecast_errors(model, posteriors, k,
                                            train.collections[k].series, queries)
        assert_rows_match_per_series(model, posteriors, k, entry["points"], queries,
                                     train.collections[k].series)
    # no queries for a class gives no entry; a count that cannot be paired
    # with the class's training series is an input error
    assert bench.class_forecast_errors(model, posteriors, 0,
                                       train.collections[0].series, []) is None
    with pytest.raises(InputError, match="cannot be paired"):
        bench.class_forecast_errors(model, posteriors, 0,
                                    train.collections[0].series, queries[:2])
