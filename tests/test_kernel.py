import logging

import numpy as np
import pytest

from motioncode.core import NumericalError, SingularMatrixError, ValidationError
from motioncode.kernel import (
    KernelParams,
    chol_jittered,
    half_solve,
    kernel_matrix,
    kernel_matrix_components,
)


def params(amps, bws):
    return KernelParams(np.log(amps), np.log(bws))


def entry(amps, bws, t, s):
    """Closed-form k(t, s) = sum_j amp_j exp(-0.5 bw_j (t - s)^2)."""
    return sum(a * np.exp(-0.5 * b * (t - s) ** 2) for a, b in zip(amps, bws))


def test_kernel_eval_single_component():
    p = params([2.0], [4.0])
    # k(t, s) = 2 exp(-0.5 * 4 * (t-s)^2)
    assert kernel_matrix(p, [0.3], [0.3])[0, 0] == pytest.approx(2.0)
    assert kernel_matrix(p, [0.0], [1.0])[0, 0] == pytest.approx(2.0 * np.exp(-2.0))


def test_kernel_eval_sums_components():
    p = params([1.0, 3.0], [1.0, 10.0])
    r2 = 0.25
    expected = np.exp(-0.5 * r2) + 3.0 * np.exp(-5.0 * r2)
    assert kernel_matrix(p, [0.0], [0.5])[0, 0] == pytest.approx(expected)


def test_kernel_matrix_matches_eval():
    rng = np.random.default_rng(0)
    amps, bws = [0.7, 1.3], [2.0, 30.0]
    p = params(amps, bws)
    t = np.sort(rng.uniform(0, 1, 6))
    s = np.sort(rng.uniform(0, 1, 4))
    K = kernel_matrix(p, t, s)
    assert K.shape == (6, 4)
    for a in range(6):
        for b in range(4):
            assert K[a, b] == pytest.approx(entry(amps, bws, t[a], s[b]))


def test_kernel_matrix_symmetric_and_decaying():
    p = params([1.0], [5.0])
    t = np.linspace(0, 1, 8)
    K = kernel_matrix(p, t)
    assert np.allclose(K, K.T)
    # covariance decays with distance for a single component
    row = K[0]
    assert np.all(np.diff(row) < 0)
    assert np.all(np.diag(K) == pytest.approx(1.0))


def test_kernel_matrix_psd():
    rng = np.random.default_rng(3)
    for trial in range(10):
        j = rng.integers(1, 4)
        p = KernelParams(rng.normal(size=j), rng.normal(size=j))
        t = np.sort(rng.uniform(0, 1, 12))
        K = kernel_matrix(p, t)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-9 * max(1.0, eigs.max())


def test_components_sum_and_gradients():
    rng = np.random.default_rng(5)
    p = params([0.5, 2.0], [1.0, 8.0])
    t = np.sort(rng.uniform(0, 1, 7))
    comps, r2 = kernel_matrix_components(p, t)
    assert comps.shape == (2, 7, 7)
    assert np.allclose(comps.sum(axis=0), kernel_matrix(p, t))
    # finite-difference check of the log-parameter derivative identities
    h = 1e-6
    for j in range(2):
        la = p.log_amplitudes.copy()
        la[j] += h
        Kp = kernel_matrix(KernelParams(la, p.log_bandwidths), t)
        la[j] -= 2 * h
        Km = kernel_matrix(KernelParams(la, p.log_bandwidths), t)
        fd = (Kp - Km) / (2 * h)
        assert np.allclose(fd, comps[j], atol=1e-6)
        lb = p.log_bandwidths.copy()
        lb[j] += h
        Kp = kernel_matrix(KernelParams(p.log_amplitudes, lb), t)
        lb[j] -= 2 * h
        Km = kernel_matrix(KernelParams(p.log_amplitudes, lb), t)
        fd = (Kp - Km) / (2 * h)
        analytic = -0.5 * p.bandwidths[j] * r2 * comps[j]
        assert np.allclose(fd, analytic, atol=1e-6)


def test_kernel_diag_total():
    # r2 = 0 on the diagonal, so the trace of an n-point self-covariance
    # is n * sum_j amp_j
    p = params([1.5, 0.5], [3.0, 9.0])
    t = np.linspace(0, 1, 11)
    assert np.trace(kernel_matrix(p, t)) == pytest.approx(11 * 2.0)


def test_kernel_params_validation():
    with pytest.raises(ValidationError):
        KernelParams(np.zeros(2), np.zeros(3))
    with pytest.raises(ValidationError):
        KernelParams(np.array([np.inf]), np.zeros(1))
    with pytest.raises(ValidationError):
        KernelParams(np.array([1e4]), np.zeros(1))  # exp overflow


def test_chol_jittered_always_adds_base():
    a = np.eye(3)
    f = chol_jittered(a, 1e-6)
    assert f.jitter_used == 1e-6
    recon = f.lower @ f.lower.T
    assert np.allclose(recon, a + 1e-6 * np.eye(3), rtol=0, atol=1e-14)


def test_chol_jittered_escalates():
    # rank-1 matrix: fails at tiny jitter only if indefinite; make one
    # slightly indefinite so escalation is needed
    a = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-9]])
    f = chol_jittered(a, 1e-12)
    assert f.jitter_used > 1e-12
    recon = f.lower @ f.lower.T
    target = a + f.jitter_used * np.eye(2)
    rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
    assert rel <= 1e-10


def test_chol_jittered_logs_only_escalations(caplog):
    caplog.set_level(logging.INFO, logger="motioncode.kernel")
    f = chol_jittered(np.array([[1.0, 1.0], [1.0, 1.0 - 1e-9]]), 1e-12)
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, f"jitter raised to {f.jitter_used:g} to factor a matrix of size 2")]
    caplog.clear()
    chol_jittered(np.eye(3), 1e-6)
    assert caplog.records == []


def test_chol_jittered_reconstruction_tolerance():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = rng.integers(2, 10)
        b = rng.normal(size=(n, n))
        a = b @ b.T
        f = chol_jittered(a, 1e-8)
        target = a + f.jitter_used * np.eye(n)
        rel = np.linalg.norm(f.lower @ f.lower.T - target) / np.linalg.norm(target)
        assert rel <= 1e-10


def test_chol_jittered_gives_up():
    a = -np.eye(4)  # negative definite at every jitter level tried
    with pytest.raises(SingularMatrixError) as err:
        chol_jittered(a, 1e-10)
    assert "eigenvalue" in str(err.value)


def test_chol_jittered_rejects_non_finite():
    # LAPACK factorizes a NaN matrix without complaint and returns NaNs
    with pytest.raises(NumericalError, match="non-finite"):
        chol_jittered(np.full((3, 3), np.nan), 1e-6)
    a = np.eye(3)
    a[1, 2] = a[2, 1] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        chol_jittered(a, 1e-6)


def longdouble_substitution(lower, b):
    """Reference L^{-1} b: row-oriented forward substitution in extended
    precision, independent of the package's column-oriented float64 one."""
    lower = np.asarray(lower, dtype=np.longdouble)
    x = np.array(b, dtype=np.longdouble).reshape(lower.shape[0], -1)
    for k in range(lower.shape[0]):
        x[k] = (x[k] - lower[k, :k] @ x[:k]) / lower[k, k]
    return x.reshape(np.shape(b))


def assert_backward_stable(f, b):
    """half_solve meets the componentwise backward-error bound of a
    triangular solve, |b - L x| <= n eps |L| |x| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 8.5), with a factor 2 of room
    for the rounding of the residual itself. Returns x."""
    x = half_solve(f.lower, b)
    assert x.shape == np.shape(b)
    n = f.lower.shape[0]
    resid = np.abs(b - f.lower @ x)
    assert np.all(resid <= 2 * n * np.finfo(float).eps * (np.abs(f.lower) @ np.abs(x)))
    return x


def check_ill_conditioned_solves(rng, rhs_shape):
    """An RBF K_SS at timestamps 1e-6 apart, cond(K_SS) >= 1e10, factored
    at jitters 1e-12 to 1e-6. The substitution meets the backward-error
    bound of assert_backward_stable, and the componentwise forward-error
    bound of a triangular solve, n eps |L^{-1}| |L| |x| (Higham, Thm 8.5),
    against an extended-precision one."""
    k = kernel_matrix(params([1.0], [50.0]), 0.4 + 1e-6 * np.arange(6))
    assert np.linalg.cond(k) >= 1e10
    eps = np.finfo(float).eps
    for jitter in (1e-12, 1e-9, 1e-6):
        f = chol_jittered(k, jitter)
        rhs = rng.normal(size=rhs_shape)
        x = assert_backward_stable(f, rhs)
        ref = longdouble_substitution(f.lower, rhs)
        spread = np.abs(longdouble_substitution(f.lower, np.eye(6))) @ np.abs(f.lower)
        bound = (6 * eps * (spread @ np.abs(ref))).astype(float)
        assert np.all(np.abs(x - ref).astype(float) <= bound)


def test_cholesky_factor_solver():
    rng = np.random.default_rng(13)
    for m in (5, 1):
        b = rng.normal(size=(m, m))
        a = b @ b.T + 5 * np.eye(m)
        f = chol_jittered(a, 1e-12)
        rhs = rng.normal(size=m)
        # a vector right-hand side keeps its shape
        x = assert_backward_stable(f, rhs)
        assert np.allclose(x, longdouble_substitution(f.lower, rhs), rtol=1e-12, atol=1e-12)
        # half solve whitens: L^{-1} A L^{-T} = I when jitter is negligible
        half = half_solve(f.lower, np.eye(m))
        assert np.allclose(half @ (a + f.jitter_used * np.eye(m)) @ half.T, np.eye(m),
                           atol=1e-9)
    check_ill_conditioned_solves(rng, 6)


def test_cholesky_factor_matrix_rhs():
    rng = np.random.default_rng(17)
    for m in (4, 1):
        b = rng.normal(size=(m, m))
        a = b @ b.T + np.eye(m)
        f = chol_jittered(a, 1e-12)
        rhs = rng.normal(size=(m, 3))
        half = assert_backward_stable(f, rhs)
        # each column is substituted as that column alone would be, which
        # fit_posterior's one substitution of [L^T, sum_i w_i] relies on
        for col in range(3):
            assert np.array_equal(half[:, col], half_solve(f.lower, rhs[:, col]))
    check_ill_conditioned_solves(rng, (6, 3))
