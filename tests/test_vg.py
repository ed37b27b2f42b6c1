"""Variance-gamma bridge: centered moments, correlation conversion, constraint rewrite."""

import numpy as np
import pytest

from impliedcorr.core import CorrMatrix, IndexConstraint, MarketSpec, _as_corr
from impliedcorr.solver import SolverConfig, solve_nicm
from impliedcorr.vg import (
    VGParams,
    direct_to_centered_corr,
    vg_centered_moments,
    vg_market_constraint,
)


def random_params(rng, n, with_cdir=True):
    # random PSD correlation via normalized Gram matrix
    C = None
    if with_cdir:
        B = rng.normal(size=(n, n + 2))
        G = B @ B.T
        d = np.sqrt(np.diag(G))
        C = CorrMatrix(G / np.outer(d, d))
    return VGParams(
        xi=rng.normal(scale=0.05, size=n),
        omega=rng.uniform(0.1, 0.6, size=n),
        theta=rng.normal(scale=0.3, size=n),
        nu=float(rng.uniform(0.1, 1.5)),
        C_dir=C,
    )


def test_centered_moments_hand_case():
    p = VGParams(
        xi=np.zeros(2),
        omega=np.ones(2),
        theta=np.array([1.0, -1.0]),
        nu=0.5,
        C_dir=CorrMatrix(np.eye(2)),
    )
    mean, cov = vg_centered_moments(p)
    np.testing.assert_array_equal(mean, [1.0, -1.0])
    np.testing.assert_array_equal(cov, [[1.5, -0.5], [-0.5, 1.5]])


def test_centered_moments_zero_skew():
    rng = np.random.default_rng(301)
    p = random_params(rng, 4)
    p0 = VGParams(p.xi, p.omega, np.zeros(4), p.nu, p.C_dir)
    _, cov = vg_centered_moments(p0)
    np.testing.assert_allclose(cov, np.outer(p.omega, p.omega) * p.C_dir.values, rtol=0, atol=0)


def test_centered_moments_near_overflow_stay_finite():
    # omega_i omega_j is near the largest double; a symmetrization by
    # (cov + cov') / 2 would overflow in the sum
    omega = np.array([1e154, 1.2e154])
    C_dir = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    _, cov = vg_centered_moments(VGParams(np.zeros(2), omega, np.zeros(2), 1.0, C_dir))
    assert np.isfinite(cov).all()
    np.testing.assert_array_equal(cov, np.outer(omega, omega) * C_dir.values)


def test_centered_moments_vanishing_nu():
    rng = np.random.default_rng(303)
    p = random_params(rng, 5)
    p_small = VGParams(p.xi, p.omega, p.theta, 1e-12, p.C_dir)
    _, cov = vg_centered_moments(p_small)
    D = p.omega[:, None] * p.C_dir.values * p.omega[None, :]
    np.testing.assert_allclose(cov, D, atol=1e-10)


def test_centered_moments_entrywise_oracle():
    rng = np.random.default_rng(305)
    for _ in range(5):
        p = random_params(rng, 6)
        mean, cov = vg_centered_moments(p)
        for i in range(6):
            assert mean[i] == pytest.approx(p.xi[i] + p.theta[i], rel=1e-15)
            for j in range(6):
                want = (
                    p.omega[i] * p.C_dir.values[i, j] * p.omega[j]
                    + p.nu * p.theta[i] * p.theta[j]
                )
                assert cov[i, j] == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_centered_moments_require_cdir():
    rng = np.random.default_rng(307)
    p = random_params(rng, 3, with_cdir=False)
    with pytest.raises(ValueError, match="centered moments require"):
        vg_centered_moments(p)


def test_centered_corr_hand_case():
    p = VGParams(
        xi=np.zeros(2),
        omega=np.ones(2),
        theta=np.array([1.0, -1.0]),
        nu=0.5,
        C_dir=CorrMatrix(np.eye(2)),
    )
    sigma, C = direct_to_centered_corr(p)
    np.testing.assert_allclose(sigma, np.sqrt(1.5), rtol=1e-15)
    assert C.values[0, 0] == 1.0
    assert C.values[1, 1] == 1.0
    assert C.values[0, 1] == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_centered_corr_zero_skew_reduces_to_direct():
    # dyadic omegas make sqrt(omega^2) and the divisions exact
    omega = np.array([0.5, 1.0, 2.0])
    C_dir = CorrMatrix(np.array([[1.0, 0.25, -0.5], [0.25, 1.0, 0.125], [-0.5, 0.125, 1.0]]))
    p = VGParams(np.zeros(3), omega, np.zeros(3), 0.7, C_dir)
    sigma, C = direct_to_centered_corr(p)
    np.testing.assert_array_equal(sigma, omega)
    np.testing.assert_array_equal(C.values, C_dir.values)
    # non-dyadic omegas agree to roundoff
    rng = np.random.default_rng(309)
    p2 = random_params(rng, 5)
    p2 = VGParams(p2.xi, p2.omega, np.zeros(5), p2.nu, p2.C_dir)
    sigma2, C2 = direct_to_centered_corr(p2)
    np.testing.assert_allclose(sigma2, p2.omega, rtol=1e-15)
    np.testing.assert_allclose(C2.values, p2.C_dir.values, atol=1e-14)


def test_centered_corr_unit_diagonal_and_psd():
    rng = np.random.default_rng(311)
    for _ in range(10):
        p = random_params(rng, 5)
        _, C = direct_to_centered_corr(p)
        np.testing.assert_array_equal(np.diag(C.values), np.ones(5))
        assert C.min_eigenvalue() >= -1e-10


def test_centered_corr_round_trip():
    # reconstruction sigma C_cen sigma recovers the centered covariance
    rng = np.random.default_rng(313)
    for _ in range(10):
        p = random_params(rng, 6)
        _, cov = vg_centered_moments(p)
        sigma, C = direct_to_centered_corr(p)
        recon = sigma[:, None] * C.values * sigma[None, :]
        np.testing.assert_allclose(recon, cov, atol=1e-12)


def test_market_constraint_adjusts_target():
    rng = np.random.default_rng(315)
    p = random_params(rng, 5)
    w = np.full(5, 0.2)
    _, cov = vg_centered_moments(p)
    var_cen = float(w @ cov @ w)
    spec = MarketSpec(np.sqrt(np.diag(cov)), (IndexConstraint("m", w, var_cen),))
    out = vg_market_constraint(p, spec)
    skew = p.nu * float(w @ p.theta) ** 2
    # adjusted target plus the skew term reproduces the original variance
    assert out.market.variance == pytest.approx(var_cen - skew, rel=1e-14)
    np.testing.assert_array_equal(out.sigma, p.omega)
    # the direct-parameter aggregation really matches the adjusted target
    direct_var = float(
        (w * p.omega) @ p.C_dir.values @ (w * p.omega)
    )
    assert direct_var == pytest.approx(out.market.variance, rel=1e-12)


def test_market_constraint_zero_skew_identity():
    rng = np.random.default_rng(317)
    p = random_params(rng, 4)
    p = VGParams(p.xi, p.omega, np.zeros(4), p.nu, p.C_dir)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    spec = MarketSpec(p.omega, (IndexConstraint("m", w, 0.05),))
    out = vg_market_constraint(p, spec)
    assert out.market.variance == 0.05
    np.testing.assert_array_equal(out.market.weights, w)


def test_market_constraint_skew_exceeds_variance():
    p = VGParams(
        np.zeros(2), np.array([0.2, 0.2]), np.array([1.0, 1.0]), 1.0, None
    )
    spec = MarketSpec(np.array([0.2, 0.2]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.04),))
    with pytest.raises(ValueError, match="exceeds the index variance"):
        vg_market_constraint(p, spec)


def test_market_constraint_dimension_mismatch():
    rng = np.random.default_rng(319)
    p = random_params(rng, 3, with_cdir=False)
    spec = MarketSpec(np.full(4, 0.2), (IndexConstraint("m", np.full(4, 0.25), 0.03),))
    with pytest.raises(ValueError, match="3 assets"):
        vg_market_constraint(p, spec)


def test_nicm_under_vg_constraint_recovers_centered_variance():
    # solve for C_dir under the rewritten constraint, convert back, and
    # check the centered index variance hits the original target
    rng = np.random.default_rng(321)
    n = 6
    p = random_params(rng, n)
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    w[np.argmax(w)] += 1.0 - w.sum()
    _, cov = vg_centered_moments(p)
    var_cen = float(w @ cov @ w) * 1.05
    spec_cen = MarketSpec(np.sqrt(np.diag(cov)), (IndexConstraint("m", w, var_cen),))
    spec_dir = vg_market_constraint(p, spec_cen)
    res = solve_nicm(p.C_dir.values, spec_dir, SolverConfig(k=3, var_tol=1e-8))
    assert res.converged
    p_star = VGParams(p.xi, p.omega, p.theta, p.nu, res.C_star)
    _, cov_star = vg_centered_moments(p_star)
    assert float(w @ cov_star @ w) == pytest.approx(var_cen, abs=1e-6)


def test_vg_params_validation():
    with pytest.raises(ValueError, match="parameter lengths differ"):
        VGParams(np.zeros(2), np.ones(3), np.zeros(3), 0.5)
    # numpy scalars print as plain floats
    with pytest.raises(ValueError, match=r"^omega\[1\] = 0\.0 is not positive$"):
        VGParams(np.zeros(2), np.array([0.2, 0.0]), np.zeros(2), 0.5)
    with pytest.raises(ValueError, match=r"^omega\[1\] = -0\.1 is not positive$"):
        VGParams(np.zeros(2), np.array([0.2, -0.1]), np.zeros(2), 0.5)
    with pytest.raises(ValueError, match="^nu must be positive, got 0.0$"):
        VGParams(np.zeros(2), np.ones(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="^nu must be positive, got -0.5$"):
        VGParams(np.zeros(2), np.ones(2), np.zeros(2), np.float64(-0.5))
    with pytest.raises(ValueError, match="for 3 assets"):
        VGParams(np.zeros(3), np.ones(3), np.zeros(3), 0.5, CorrMatrix(np.eye(2)))
    p = VGParams(np.zeros(2), np.ones(2), np.zeros(2), 0.5)
    assert p.n == 2
    assert p.C_dir is None
    with pytest.raises(ValueError):
        p.xi[0] = 1.0


def test_vg_params_wraps_c_dir_once():
    # A CorrMatrix is kept as it is, loadings included, and an asymmetric
    # array is symmetrized once, to the bits CorrMatrix gives it.
    C = CorrMatrix(np.array([[1.0, 0.25], [0.25, 1.0]]))
    assert _as_corr(C) is C
    assert VGParams(np.zeros(2), np.ones(2), np.zeros(2), 0.5, C_dir=C).C_dir is C
    asym = np.array([[1.0, 0.1, -0.3], [0.2, 1.0, 0.7], [-0.4, 0.5, 1.0]])
    p = VGParams(np.zeros(3), np.ones(3), np.zeros(3), 0.5, C_dir=asym)
    assert isinstance(p.C_dir, CorrMatrix)
    np.testing.assert_array_equal(
        p.C_dir.values.view(np.uint64), CorrMatrix(asym).values.view(np.uint64)
    )
