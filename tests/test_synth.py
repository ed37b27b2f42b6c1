"""Synthetic market generator and the return-based estimators."""

import warnings

import numpy as np
import pytest

from impliedcorr import synth
from impliedcorr.core import check_feasibility
from impliedcorr.synth import (
    estimate_factor_correlations,
    estimate_target_matrix,
    generate_synthetic_market,
)


def test_generate_deterministic():
    a, Ca = generate_synthetic_market(8, 2, 0.1, seed=42, periods=50)
    b, Cb = generate_synthetic_market(8, 2, 0.1, seed=42, periods=50)
    np.testing.assert_array_equal(Ca.values, Cb.values)
    np.testing.assert_array_equal(a.loadings.values, b.loadings.values)
    np.testing.assert_array_equal(a.spec.sigma, b.spec.sigma)
    np.testing.assert_array_equal(a.spec.market.weights, b.spec.market.weights)
    assert a.spec.market.variance == b.spec.market.variance
    np.testing.assert_array_equal(a.asset_returns, b.asset_returns)
    np.testing.assert_array_equal(a.factor_returns, b.factor_returns)
    c, Cc = generate_synthetic_market(8, 2, 0.1, seed=43)
    assert not np.array_equal(Ca.values, Cc.values)


def test_generate_market_is_well_formed():
    rng_seeds = [0, 7, 123]
    for seed in rng_seeds:
        snap, C_true = generate_synthetic_market(12, 3, 0.15, seed=seed)
        rep = check_feasibility(C_true.values)
        assert rep.symmetric and rep.unit_diagonal and rep.bounded and rep.psd
        assert C_true.min_eigenvalue() >= -1e-10
        r2 = np.einsum("ij,ij->i", snap.loadings.values, snap.loadings.values)
        assert np.all(r2 <= 1.0)
        assert float(np.sum(snap.spec.market.weights)) == 1.0
        assert np.all(snap.spec.sigma >= 0.1) and np.all(snap.spec.sigma <= 0.6)
        np.testing.assert_array_equal(snap.target, C_true.values)
        np.testing.assert_array_equal(snap.truth, C_true.values)
        assert snap.meta == {
            "generator": "factor-model",
            "n": 12,
            "k_true": 3,
            "crp": 0.15,
            "periods": 0,
            "comonotonic_clipped": False,
        }
        assert snap.asset_returns is None and snap.factor_returns is None


def test_generate_target_markup():
    for crp in (0.0, 0.08, 0.25):
        snap, C_true = generate_synthetic_market(6, 2, crp, seed=11)
        v = snap.spec.sigma * snap.spec.market.weights
        base = float(v @ C_true.values @ v)
        assert snap.spec.market.variance == pytest.approx((1.0 + crp) * base, rel=1e-14)


def test_generate_comonotonic_clip():
    # the cap is recorded in the snapshot's meta, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snap, _ = generate_synthetic_market(5, 1, 50.0, seed=3)
    assert snap.meta["comonotonic_clipped"]
    v = snap.spec.sigma * snap.spec.market.weights
    assert snap.spec.market.variance == float(np.sum(v)) ** 2


def test_generate_panel_moments():
    # unit-variance factor construction: var(r_i) = sigma_i^2 since
    # ||x_i||^2 + h_i = 1 by design
    T = 20000
    snap, C_true = generate_synthetic_market(5, 2, 0.1, seed=29, periods=T)
    assert snap.asset_returns.shape == (T, 5)
    assert snap.factor_returns.shape == (T, 2)
    sample_sd = snap.asset_returns.std(axis=0)
    np.testing.assert_allclose(sample_sd, snap.spec.sigma, rtol=0.05)
    sample_corr = np.corrcoef(snap.asset_returns, rowvar=False)
    assert np.max(np.abs(sample_corr - C_true.values)) <= 0.08


def test_generate_validation():
    with pytest.raises(ValueError, match="at least 2 assets"):
        generate_synthetic_market(1, 1, 0.1, seed=0)
    with pytest.raises(ValueError, match="k_true"):
        generate_synthetic_market(4, 5, 0.1, seed=0)
    with pytest.raises(ValueError, match="k_true"):
        generate_synthetic_market(4, 0, 0.1, seed=0)
    with pytest.raises(ValueError, match="crp"):
        generate_synthetic_market(4, 2, -1.0, seed=0)


def test_generate_seed_label_in_date():
    snap, _ = generate_synthetic_market(4, 1, 0.0, seed=99)
    assert snap.date == "synthetic-99"
    ss = np.random.SeedSequence(5, spawn_key=(1, 2))
    snap2, _ = generate_synthetic_market(4, 1, 0.0, seed=ss)
    assert snap2.date == "synthetic-5-1.2"


def test_estimate_historical_matches_corrcoef():
    rng = np.random.default_rng(401)
    R = rng.normal(size=(120, 6))
    C = estimate_target_matrix(R)
    want = np.corrcoef(R, rowvar=False)
    np.fill_diagonal(want, 1.0)
    np.testing.assert_allclose(C.values, want, atol=1e-15)
    np.testing.assert_array_equal(np.diag(C.values), np.ones(6))


def test_estimate_historical_window_is_trailing():
    rng = np.random.default_rng(403)
    R = rng.normal(size=(200, 4))
    full = estimate_target_matrix(R, window=60)
    tail = estimate_target_matrix(R[-60:])
    np.testing.assert_array_equal(full.values, tail.values)


def test_estimate_mean_reverting_blend():
    rng = np.random.default_rng(405)
    R = rng.normal(size=(300, 5))
    est = estimate_target_matrix(R, mode="mean_reverting", window=60, seed=7)
    # reconstruct with the same draws
    rho = np.corrcoef(R[-60:], rowvar=False)
    np.fill_diagonal(rho, 1.0)
    rho_bar = np.corrcoef(R, rowvar=False)
    np.fill_diagonal(rho_bar, 1.0)
    theta = np.zeros((5, 5))
    iu = np.triu_indices(5, k=1)
    theta[iu] = np.random.default_rng(7).uniform(0.0, 0.4, size=iu[0].size)
    theta = theta + theta.T
    want = theta * rho + (1.0 - theta) * rho_bar
    np.fill_diagonal(want, 1.0)
    # np.corrcoef is 1-ulp asymmetric; the estimator symmetrizes
    np.testing.assert_array_equal(est.values, (want + want.T) / 2.0)


def test_estimate_rejects_hyphenated_mode():
    rng = np.random.default_rng(407)
    R = rng.normal(size=(150, 4))
    with pytest.raises(ValueError, match="mean_reverting"):
        estimate_target_matrix(R, mode="mean-reverting", window=50, seed=3)


def test_estimate_theta_range_endpoints(monkeypatch):
    rng = np.random.default_rng(409)
    R = rng.normal(size=(150, 4))
    # theta = 0 everywhere: pure full-sample estimate
    monkeypatch.setattr(synth, "THETA_RANGE", (0.0, 0.0))
    zero = estimate_target_matrix(R, mode="mean_reverting", window=50, seed=1)
    np.testing.assert_array_equal(zero.values, estimate_target_matrix(R).values)
    # theta = 1 everywhere: pure window estimate
    monkeypatch.setattr(synth, "THETA_RANGE", (1.0, 1.0))
    one = estimate_target_matrix(R, mode="mean_reverting", window=50, seed=1)
    np.testing.assert_array_equal(one.values, estimate_target_matrix(R, window=50).values)


def test_estimate_target_validation():
    rng = np.random.default_rng(411)
    R = rng.normal(size=(50, 3))
    with pytest.raises(ValueError, match="mode must be"):
        estimate_target_matrix(R, mode="ewma")
    with pytest.raises(ValueError, match="T x n"):
        estimate_target_matrix(R[:, 0])
    with pytest.raises(ValueError, match="T x n"):
        estimate_target_matrix(R[:, :1])
    with pytest.raises(ValueError, match="at least 3"):
        estimate_target_matrix(R, window=2)
    with pytest.raises(ValueError, match="exceeds the 50 available"):
        estimate_target_matrix(R, window=51)
    flat = R.copy()
    flat[:, 1] = 0.25
    with pytest.raises(ValueError, match="constant over the window"):
        estimate_target_matrix(flat)


def test_factor_correlations_match_pearson():
    rng = np.random.default_rng(413)
    A = rng.normal(size=(500, 4))
    F = rng.normal(size=(500, 2))
    X = estimate_factor_correlations(A, F).values
    for i in range(4):
        for d in range(2):
            want = np.corrcoef(A[:, i], F[:, d])[0, 1]
            assert X[i, d] == pytest.approx(want, abs=1e-13)


def test_factor_correlations_self_factor_is_one():
    rng = np.random.default_rng(415)
    A = rng.normal(size=(300, 3))
    X = estimate_factor_correlations(A, A[:, :1]).values
    assert X[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_factor_correlations_recover_true_loadings():
    T = 5000
    snap, _ = generate_synthetic_market(6, 2, 0.1, seed=17, periods=T)
    X_hat = estimate_factor_correlations(snap.asset_returns, snap.factor_returns).values
    assert np.max(np.abs(X_hat - snap.loadings.values)) <= 0.08


def test_factor_correlations_validation():
    rng = np.random.default_rng(417)
    A = rng.normal(size=(50, 3))
    F = rng.normal(size=(40, 2))
    with pytest.raises(ValueError, match="disagree on periods"):
        estimate_factor_correlations(A, F)
    with pytest.raises(ValueError, match="2-dimensional"):
        estimate_factor_correlations(A[:, 0], F)
    flat = A.copy()
    flat[:, 2] = 1.0
    with pytest.raises(ValueError, match="constant over the window"):
        estimate_factor_correlations(flat, A[:, :1])
    with pytest.raises(ValueError, match="window of at least 3"):
        estimate_factor_correlations(A, A[:, :1], window=2)
