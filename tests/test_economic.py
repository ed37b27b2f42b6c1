"""Factor-pricing route: orthogonalization, the alpha quadratic, back-substitution."""

import numpy as np
import pytest

from impliedcorr.baselines import equicorrelation
from impliedcorr.core import (
    IndexConstraint,
    MarketSpec,
    assemble_correlation,
    portfolio_variance,
)
from impliedcorr.economic import (
    crp_sign,
    economic_implied_corr,
    orthogonalize_loadings,
    risk_neutral_loadings,
    solve_alpha_tilde,
)


def spec2(var):
    return MarketSpec(
        np.array([0.2, 0.2]),
        (IndexConstraint("market", np.array([0.5, 0.5]), var),),
    )


def random_orthogonal_loadings(rng, n, k):
    # orthogonal columns with rows inside the unit ball
    M = rng.normal(size=(n, k))
    Q, _ = np.linalg.qr(M)
    scale = rng.uniform(0.2, 0.6)
    X = Q * scale
    assert np.all(np.einsum("ij,ij->i", X, X) <= 1.0)
    return X


def test_orthogonalize_keeps_orthogonal_input():
    rng = np.random.default_rng(201)
    X = random_orthogonal_loadings(rng, 6, 2)
    out = orthogonalize_loadings(X).values
    np.testing.assert_allclose(out, X, atol=1e-12)


def test_orthogonalize_produces_orthogonal_columns():
    rng = np.random.default_rng(203)
    for _ in range(10):
        X = rng.uniform(-0.4, 0.4, size=(8, 3))
        out = orthogonalize_loadings(X).values
        G = out.T @ out
        off = G[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) <= 1e-10
        # first column is untouched
        np.testing.assert_array_equal(out[:, 0], X[:, 0])


def test_orthogonalize_rank_deficiency():
    X = np.column_stack([np.full(4, 0.3), np.full(4, 0.6)])
    with pytest.raises(ValueError, match="column 1"):
        orthogonalize_loadings(X)


def test_orthogonalize_rescales_rows_pushed_outside():
    # columns correlate positively overall while row 0 has opposite-sign
    # entries, so removing the projection inflates that row beyond the ball
    X = np.array(
        [
            [0.7, -0.7],
            [0.6, 0.7],
            [0.5, 0.55],
        ]
    )
    assert np.all(np.einsum("ij,ij->i", X, X) <= 1.0)
    with pytest.warns(UserWarning, match="outside the unit"):
        out = orthogonalize_loadings(X)
    assert out.in_omega(eps=1e-12)
    # the offending row lands exactly on the boundary
    assert float(out.values[0] @ out.values[0]) == pytest.approx(1.0, abs=1e-12)


def test_crp_sign():
    X = np.full((2, 1), 0.5)
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    assert crp_sign(X, spec2(base * 1.1)) == 1
    assert crp_sign(X, spec2(base * 0.9)) == -1
    assert crp_sign(X, spec2(base)) == 0


def test_alpha_tilde_equicorrelation_reduction():
    # from X_P = 0 with one factor, moving toward the all-ones loadings
    # produces the equicorrelation matrix with level alpha^2, so alpha
    # must equal sqrt(c_bar)
    for var in (0.025, 0.03, 0.035):
        spec = spec2(var)
        c_bar = equicorrelation(spec).c_bar
        sol = solve_alpha_tilde(np.zeros((2, 1)), spec, upsilon=1)
        assert sol.alpha_tilde == pytest.approx(np.sqrt(c_bar), abs=1e-12)
        assert sol.in_unit_interval


def test_alpha_tilde_zero_premium_is_zero():
    X = np.full((2, 1), 0.4)
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    sol = solve_alpha_tilde(X, spec2(base))
    assert sol.upsilon == 0
    assert sol.alpha_tilde == 0.0


def test_alpha_tilde_linear_fallback():
    # dyadic fixture: sigma = w = 0.5 and X_P = [1.0, 0.25] make every
    # intermediate product exact, so sDD is exactly zero and the linear
    # branch runs
    sigma = np.array([0.5, 0.5])
    w = np.array([0.5, 0.5])
    X = np.array([[1.0], [0.25]])
    base = 0.15625  # v'v + 2 v1 v2 * 0.25 with v = 0.25
    spec = MarketSpec(sigma, (IndexConstraint("m", w, base * 1.2),))
    sol = solve_alpha_tilde(X, spec, upsilon=1)
    assert sol.sigma_Delta_sq == 0.0
    assert sol.sigma_PDelta_sq > 0.0
    assert sol.alpha_tilde == pytest.approx(1.0 / 3.0, abs=1e-15)
    X_Q = risk_neutral_loadings(X, sol.alpha_tilde, 1)
    assert portfolio_variance(assemble_correlation(X_Q), spec) == pytest.approx(
        spec.market.variance, abs=1e-14
    )


def test_alpha_tilde_near_degenerate_quadratic():
    # X_P = [1.0, 0.3]: sDD is analytically zero but floating-point
    # evaluation leaves a ~1e-18 residue, so the quadratic branch runs;
    # the root must still agree with the linear limit and back-substitute
    X = np.array([[1.0], [0.3]])
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    spec = spec2(base * 1.2)
    sol = solve_alpha_tilde(X, spec, upsilon=1)
    assert abs(sol.sigma_Delta_sq) <= 1e-15
    assert sol.sigma_PDelta_sq > 0.0
    linear = (spec.market.variance - sol.sigma_P_sq) / (2.0 * sol.sigma_PDelta_sq)
    assert sol.alpha_tilde == pytest.approx(linear, rel=1e-10)
    X_Q = risk_neutral_loadings(X, sol.alpha_tilde, 1)
    assert portfolio_variance(assemble_correlation(X_Q), spec) == pytest.approx(
        spec.market.variance, abs=1e-13
    )


def test_alpha_tilde_unreachable_direction():
    # index variance below the anti-comonotonic minimum (v1 - v2)^2
    sigma = np.array([0.3, 0.1])
    w = np.array([0.5, 0.5])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.005),))
    X = np.full((2, 1), 0.5)
    assert crp_sign(X, spec) == -1
    with pytest.raises(ValueError, match="discriminant"):
        solve_alpha_tilde(X, spec)


def test_alpha_tilde_flat_move_raises():
    # X_P already at the comonotonic limit: the move direction vanishes
    spec = spec2(0.035)
    with pytest.raises(ValueError, match="does not change"):
        solve_alpha_tilde(np.ones((2, 1)), spec, upsilon=1)


def test_alpha_tilde_outside_unit_interval_warns():
    # target above the comonotonic bound forces alpha > 1
    sigma = np.array([0.2, 0.2])
    w = np.array([0.5, 0.5])
    cap = float(np.sum(sigma * w)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap * 1.2),))
    X = np.full((2, 1), 0.3)
    with pytest.warns(UserWarning, match="outside"):
        sol = solve_alpha_tilde(X, spec)
    assert sol.alpha_tilde > 1.0
    assert not sol.in_unit_interval


def test_alpha_tilde_input_validation():
    with pytest.raises(ValueError, match="rows"):
        solve_alpha_tilde(np.zeros((3, 1)), spec2(0.03))
    with pytest.raises(ValueError, match="upsilon"):
        solve_alpha_tilde(np.zeros((2, 1)), spec2(0.03), upsilon=2)


def test_risk_neutral_loadings_affine_move():
    X = np.array([[0.2], [0.5]])
    out = risk_neutral_loadings(X, 0.5, 1).values
    np.testing.assert_allclose(out, [[0.6], [0.75]])
    # alpha = 1 lands exactly on the comonotonic limit
    np.testing.assert_array_equal(risk_neutral_loadings(X, 1.0, 1).values, np.ones((2, 1)))
    np.testing.assert_array_equal(risk_neutral_loadings(X, 1.0, -1).values, -np.ones((2, 1)))


def test_risk_neutral_loadings_ball_exit_warns():
    # with k > 1 the all-ones limit can be incompatible with the row budget
    X = np.array([[0.5, 0.5], [0.3, -0.2]])
    with pytest.warns(UserWarning, match="outside the unit"):
        out = risk_neutral_loadings(X, 0.9, 1)
    assert not out.in_omega()


def test_economic_route_matches_constraint():
    rng = np.random.default_rng(207)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, 3))
        X_P = random_orthogonal_loadings(rng, n, k)
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        w[np.argmax(w)] += 1.0 - w.sum()
        base = portfolio_variance(assemble_correlation(X_P), MarketSpec(sigma, (IndexConstraint("m", w, 0.05),)))
        var = base * float(rng.uniform(1.02, 1.3))
        spec = MarketSpec(sigma, (IndexConstraint("market", w, var),))
        res = economic_implied_corr(X_P, spec)
        assert abs(res.constraint_residual) <= 1e-10 * var
        assert res.upsilon == 1
        # raising direction really raises the aggregate variance
        assert portfolio_variance(res.C, spec) > base


def test_economic_route_lowering_direction():
    # all-positive loadings so the anti-comonotonic move lowers variance
    # monotonically until the loadings pass zero; target above the dip
    rng = np.random.default_rng(209)
    X_P = np.abs(random_orthogonal_loadings(rng, 5, 1)) + 0.2
    X_P = np.clip(X_P, 0.05, 0.9)
    sigma = np.full(5, 0.25)
    w = np.full(5, 0.2)
    v = sigma * w
    base = portfolio_variance(
        assemble_correlation(X_P), MarketSpec(sigma, (IndexConstraint("m", w, 0.05),))
    )
    floor = float(v @ v)  # variance of the identity matrix
    target = floor + 0.8 * (base - floor)
    spec = MarketSpec(sigma, (IndexConstraint("market", w, target),))
    res = economic_implied_corr(X_P, spec)
    assert res.upsilon == -1
    assert abs(res.constraint_residual) <= 1e-12
    assert portfolio_variance(res.C, spec) < base


def test_economic_route_alpha_continuity_near_zero_premium():
    # a vanishing premium must produce a vanishing alpha, not a jump; the
    # limit is one-sided in the cross term, so use all-positive loadings
    # where moving toward either comonotonic limit changes variance
    # monotonically at the start
    rng = np.random.default_rng(211)
    X_P = np.abs(random_orthogonal_loadings(rng, 4, 1)) + 0.1
    X_P = np.clip(X_P, 0.05, 0.9)
    sigma = np.full(4, 0.3)
    w = np.full(4, 0.25)
    base = portfolio_variance(
        assemble_correlation(X_P), MarketSpec(sigma, (IndexConstraint("m", w, 0.05),))
    )
    for sign in (1.0, -1.0):
        alphas = []
        for eps in (1e-7, 1e-9, 1e-11):
            spec = MarketSpec(
                sigma, (IndexConstraint("market", w, base * (1.0 + sign * eps)),)
            )
            res = economic_implied_corr(X_P, spec)
            assert res.upsilon == (1 if sign > 0 else -1)
            assert 0.0 <= res.alpha_tilde <= 1e-3
            alphas.append(res.alpha_tilde)
        # alpha shrinks with the premium
        assert alphas[0] > alphas[1] > alphas[2]


def test_quadratic_coefficients_at_zero_loadings():
    # from X_P = 0: sigma_P^2 is the diagonal-only variance, the move
    # variance is the full off-diagonal mass, the cross term vanishes
    # (orthogonalization rejects a zero column, so call the stages directly)
    spec = spec2(0.03)
    v = spec.scaled_weights()
    sol = solve_alpha_tilde(np.zeros((2, 1)), spec)
    assert sol.upsilon == 1
    assert sol.sigma_P_sq == float(v @ v)
    assert sol.sigma_PDelta_sq == 0.0
    assert sol.sigma_Delta_sq == pytest.approx(float(np.sum(v)) ** 2 - float(v @ v))
    C = assemble_correlation(risk_neutral_loadings(np.zeros((2, 1)), sol.alpha_tilde, 1))
    assert C.values[0, 1] == pytest.approx(sol.alpha_tilde**2)


def test_economic_result_carries_quadratic_coefficients():
    X_P = np.array([[0.3], [0.2]])
    spec = spec2(0.03)
    res = economic_implied_corr(X_P, spec)
    sol = solve_alpha_tilde(X_P, spec)
    assert res.alpha_tilde == sol.alpha_tilde
    assert res.upsilon == sol.upsilon
    assert res.sigma_P_sq == sol.sigma_P_sq
    assert res.sigma_Delta_sq == sol.sigma_Delta_sq
    assert res.sigma_PDelta_sq == sol.sigma_PDelta_sq
    assert res.alpha_in_unit_interval == sol.in_unit_interval
