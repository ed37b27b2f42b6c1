import numpy as np
import pytest

from impliedcorr.baselines import adjusted_ex_post, equicorrelation
from impliedcorr.core import IndexConstraint, MarketSpec, check_feasibility, portfolio_variance


def spec2(var):
    return MarketSpec(
        np.array([0.2, 0.2]),
        (IndexConstraint("market", np.array([0.5, 0.5]), var),),
    )


def random_spec(rng, n):
    sigma = rng.uniform(0.1, 0.5, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    w /= w.sum()
    w[np.argmax(w)] += 1.0 - w.sum()
    v = sigma * w
    # target strictly between the diagonal floor and the comonotonic cap
    lo, hi = float(v @ v), float(np.sum(v)) ** 2
    var = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
    return MarketSpec(sigma, (IndexConstraint("market", w, var),))


def test_equicorrelation_hand_values():
    assert equicorrelation(spec2(0.04)).c_bar == pytest.approx(1.0)
    assert equicorrelation(spec2(0.02)).c_bar == pytest.approx(0.0)
    assert equicorrelation(spec2(0.03)).c_bar == pytest.approx(0.5)


def test_equicorrelation_matrix_matches_constraint():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 10)))
        res = equicorrelation(spec)
        sv = portfolio_variance(res.C, spec)
        assert sv == pytest.approx(spec.market.variance, abs=1e-14)
        off = res.C.values[~np.eye(spec.n, dtype=bool)]
        assert np.all(off == off[0])


def test_equicorrelation_psd_range_flag():
    # c_bar = 1 sits on the boundary, still inside the PSD range
    assert equicorrelation(spec2(0.04)).in_psd_range
    # beyond the comonotonic cap the value exceeds 1
    res = equicorrelation(spec2(0.05))
    assert res.c_bar > 1.0 and not res.in_psd_range
    assert not check_feasibility(res.C).psd


def test_equicorrelation_degenerate_denominator():
    spec = MarketSpec(np.array([0.2]), (IndexConstraint("m", np.array([1.0]), 0.03),))
    with pytest.raises(ValueError, match="undefined"):
        equicorrelation(spec)


def test_adjusted_ex_post_hand_value():
    res = adjusted_ex_post(np.eye(2), spec2(0.03))
    assert res.alpha_hat == pytest.approx(0.5)
    assert res.C_Q.values[0, 1] == pytest.approx(0.5)
    assert res.crp_sign == 1 and not res.used_lower_bound
    assert res.scaling_consistent


def test_adjusted_ex_post_matches_constraint():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        spec = random_spec(rng, n)
        # PSD starting matrix via a factor draw
        Z = rng.standard_normal((n, 2))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        X = Z * (rng.uniform(size=n) ** 0.5)[:, None]
        C_P = X @ X.T
        np.fill_diagonal(C_P, 1.0)
        res = adjusted_ex_post(C_P, spec)
        sv = portfolio_variance(res.C_Q, spec)
        assert sv == pytest.approx(spec.market.variance, abs=1e-12)
        np.testing.assert_array_equal(np.diag(res.C_Q.values), np.ones(n))


def test_adjusted_ex_post_negative_premium_switches_bound():
    # index variance below the variance under C_P: premium < 0
    C_P = np.array([[1.0, 0.8], [0.8, 1.0]])
    res = adjusted_ex_post(C_P, spec2(0.025))
    assert res.crp_sign == -1
    assert res.used_lower_bound
    assert 0.0 <= res.alpha_hat <= 1.0
    assert check_feasibility(res.C_Q).psd


def test_adjusted_ex_post_without_workaround_breaks_psd():
    rng = np.random.default_rng(41)
    made_indefinite = 0
    for _ in range(20):
        n = 10
        spec = random_spec(rng, n)
        Z = rng.standard_normal((n, 2))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        X = Z * (rng.uniform(size=n) ** 0.5)[:, None]
        C_P = X @ X.T
        np.fill_diagonal(C_P, 1.0)
        s_P = portfolio_variance(C_P, spec)
        low = MarketSpec(spec.sigma, (IndexConstraint("market", spec.market.weights, 0.35 * s_P),))
        res = adjusted_ex_post(C_P, low, workaround=False)
        assert res.alpha_hat < 0.0
        assert not res.used_lower_bound
        assert portfolio_variance(res.C_Q, low) == pytest.approx(low.market.variance, abs=1e-12)
        if res.C_Q.min_eigenvalue() < -1e-8:
            made_indefinite += 1
    assert made_indefinite > 0


def test_adjusted_ex_post_scaling_consistency_flag():
    n = 3
    spec = MarketSpec(
        np.full(n, 0.2),
        (IndexConstraint("m", np.full(n, 1.0 / n), 0.012),),
    )
    floor = -1.0 / (n - 1)
    # entries straddle the lower-bound level, so the move is not uniform
    C_P = np.full((n, n), 0.6)
    C_P[0, 1] = C_P[1, 0] = floor - 0.2
    np.fill_diagonal(C_P, 1.0)
    res = adjusted_ex_post(C_P, spec)
    assert res.used_lower_bound
    assert not res.scaling_consistent


def test_adjusted_ex_post_degenerate_blend():
    # C_P equal to the bound: blending cannot move the variance
    with pytest.raises(ValueError, match="cannot"):
        adjusted_ex_post(np.ones((2, 2)), spec2(0.05), workaround=False)
    # a matrix of another size is refused by the index variance's own check
    with pytest.raises(ValueError, match="matrix is 3 x 3 for 2 assets"):
        adjusted_ex_post(np.eye(3), spec2(0.05))


def test_adjusted_ex_post_single_asset_lower_bound():
    # a negative premium on one asset asks for the floor -1/(n - 1)
    spec = MarketSpec(np.array([0.2]), (IndexConstraint("market", np.array([1.0]), 0.03),))
    with pytest.raises(ValueError, match="single asset"):
        adjusted_ex_post(np.eye(1), spec)
