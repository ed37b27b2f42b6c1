"""Factor-pricing route: orthogonalization, the alpha quadratic, back-substitution,
and the rows the route records as pushed off Omega."""

import warnings

import numpy as np
import pytest

from impliedcorr import economic
from impliedcorr.baselines import equicorrelation
from impliedcorr.core import (
    EPS_FEAS,
    IndexConstraint,
    MarketSpec,
    _loadings_array,
    assemble_correlation,
    hollow_form,
    portfolio_variance,
)
from impliedcorr.economic import economic_implied_corr
from impliedcorr.synth import generate_synthetic_market


def crp_sign(X, spec):
    """The sign upsilon of the correlation risk premium, as economic decides it."""
    return economic._premium(_loadings_array(X), spec)[1]


def orthogonalize(X):
    """The orthogonalized loadings, as the route computes them."""
    return economic._orthogonalize(X)[0]


def alpha_tilde(X, spec):
    """alpha, upsilon, sPP, sDD and sPD at the loadings X, which the route
    would reject when a column is zero."""
    return economic._alpha_tilde(_loadings_array(X), spec)


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
    out = orthogonalize(X)
    np.testing.assert_allclose(out, X, atol=1e-12)


def test_orthogonalize_produces_orthogonal_columns():
    rng = np.random.default_rng(203)
    for _ in range(10):
        X = rng.uniform(-0.4, 0.4, size=(8, 3))
        out = orthogonalize(X)
        G = out.T @ out
        off = G[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) <= 1e-10
        # first column is untouched
        np.testing.assert_array_equal(out[:, 0], X[:, 0])


def test_orthogonalize_rank_deficiency():
    X = np.column_stack([np.full(4, 0.3), np.full(4, 0.6)])
    with pytest.raises(ValueError, match="column 1"):
        economic_implied_corr(X, spec2(0.03))


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
    out = orthogonalize(X)
    assert np.max(np.einsum("ij,ij->i", out, out)) <= 1.0 + EPS_FEAS
    # the offending row lands exactly on the boundary
    assert float(out[0] @ out[0]) == pytest.approx(1.0, abs=1e-12)
    # at a zero premium the route keeps the projected rows, and its
    # result names the one it projected
    sigma = np.array([0.2, 0.3, 0.25])
    w = np.array([0.5, 0.3, 0.2])
    v = sigma * w
    spec = MarketSpec(sigma, (IndexConstraint("m", w, float(v @ assemble_correlation(out).values @ v)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = economic_implied_corr(X, spec)
    assert (res.upsilon, res.alpha_tilde) == (0, 0.0)
    assert res.clipped_rows == (0,)
    assert res.rows_outside_omega == ()
    np.testing.assert_array_equal(res.X_Q.values, out)


def test_crp_sign():
    X = np.full((2, 1), 0.5)
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    assert crp_sign(X, spec2(base * 1.1)) == 1
    assert crp_sign(X, spec2(base * 0.9)) == -1
    assert crp_sign(X, spec2(base)) == 0


@pytest.mark.parametrize("n", [20, 500])
def test_zero_premium_is_decided_up_to_rounding(n):
    # acceptance 09's markets with the index variance set to the model
    # variance as the hollow form or the dense v'C(X)v evaluates it: the
    # two differ by a few 1e-18, and both are a zero premium; a premium of
    # 1e-10 relative either way keeps its sign
    for i in range(10):
        snap, _ = generate_synthetic_market(n, 1, 0.0, seed=900 + i)
        X, spec = snap.loadings, snap.spec
        v = spec.scaled_weights()
        hollow = hollow_form(v, X.values, X.values) + float(v @ v)
        for var, ups in ((hollow, 0), (spec.market.variance, 0),
                         (hollow * (1.0 + 1e-10), 1), (hollow * (1.0 - 1e-10), -1)):
            target = MarketSpec(spec.sigma, (IndexConstraint("market", spec.market.weights, var),))
            assert crp_sign(X, target) == ups
            if ups == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = economic_implied_corr(X, target)
                assert res.upsilon == 0
                assert res.alpha_tilde == 0.0


def test_premium_is_evaluated_without_a_dense_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("n x n matrix formed")

    monkeypatch.setattr(economic, "assemble_correlation", forbidden)
    rng = np.random.default_rng(213)
    X = random_orthogonal_loadings(rng, 300, 3)
    sigma = rng.uniform(0.1, 0.5, size=300)
    w = np.full(300, 1.0 / 300)
    spec = MarketSpec(sigma, (IndexConstraint("market", w, 0.01),))
    ups = crp_sign(X, spec)
    assert ups != 0
    assert alpha_tilde(X, spec)[1] == ups


def test_alpha_tilde_equicorrelation_reduction():
    # from X_P = 0 with one factor, moving toward the all-ones loadings
    # produces the equicorrelation matrix with level alpha^2, so alpha
    # must equal sqrt(c_bar)
    for var in (0.025, 0.03, 0.035):
        spec = spec2(var)
        c_bar = equicorrelation(spec).c_bar
        alpha = alpha_tilde(np.zeros((2, 1)), spec)[0]
        assert alpha == pytest.approx(np.sqrt(c_bar), abs=1e-12)
        assert 0.0 <= alpha <= 1.0


def test_alpha_tilde_zero_premium_is_zero():
    X = np.full((2, 1), 0.4)
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    res = economic_implied_corr(X, spec2(base))
    assert res.upsilon == 0
    assert res.alpha_tilde == 0.0


def test_alpha_tilde_linear_fallback():
    # dyadic fixture: sigma = w = 0.5 and X_P = [1.0, 0.25] make every
    # intermediate product exact, so sDD is exactly zero and the linear
    # branch runs
    sigma = np.array([0.5, 0.5])
    w = np.array([0.5, 0.5])
    X = np.array([[1.0], [0.25]])
    base = 0.15625  # v'v + 2 v1 v2 * 0.25 with v = 0.25
    spec = MarketSpec(sigma, (IndexConstraint("m", w, base * 1.2),))
    res = economic_implied_corr(X, spec)
    assert res.sigma_Delta_sq == 0.0
    assert res.sigma_PDelta_sq > 0.0
    assert res.alpha_tilde == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert portfolio_variance(res.C, spec) == pytest.approx(spec.market.variance, abs=1e-14)


def test_alpha_tilde_near_degenerate_quadratic():
    # X_P = [1.0, 0.3]: sDD is analytically zero but floating-point
    # evaluation leaves a ~1e-18 residue, so the quadratic branch runs;
    # the root must still agree with the linear limit and back-substitute
    X = np.array([[1.0], [0.3]])
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    spec = spec2(base * 1.2)
    res = economic_implied_corr(X, spec)
    assert abs(res.sigma_Delta_sq) <= 1e-15
    assert res.sigma_PDelta_sq > 0.0
    linear = (spec.market.variance - res.sigma_P_sq) / (2.0 * res.sigma_PDelta_sq)
    assert res.alpha_tilde == pytest.approx(linear, rel=1e-10)
    assert portfolio_variance(res.C, spec) == pytest.approx(spec.market.variance, abs=1e-13)


def test_alpha_tilde_unreachable_direction():
    # index variance below the anti-comonotonic minimum (v1 - v2)^2
    sigma = np.array([0.3, 0.1])
    w = np.array([0.5, 0.5])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.005),))
    X = np.full((2, 1), 0.5)
    assert crp_sign(X, spec) == -1
    with pytest.raises(ValueError, match="discriminant"):
        economic_implied_corr(X, spec)


def test_alpha_tilde_flat_move_raises():
    # X_P already at the comonotonic limit (index variance 0.04) and a
    # target above it: upsilon = +1, so the move direction vanishes
    spec = spec2(0.045)
    with pytest.raises(ValueError, match="does not change"):
        economic_implied_corr(np.ones((2, 1)), spec)


def test_alpha_tilde_outside_unit_interval_is_flagged():
    # target above the comonotonic bound forces alpha > 1, which carries
    # both rows past the corner and out of the ball
    sigma = np.array([0.2, 0.2])
    w = np.array([0.5, 0.5])
    cap = float(np.sum(sigma * w)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap * 1.2),))
    X = np.full((2, 1), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = economic_implied_corr(X, spec)
    assert res.alpha_tilde > 1.0
    assert not res.alpha_in_unit_interval
    assert res.rows_outside_omega == (0, 1)


def test_alpha_tilde_input_validation():
    with pytest.raises(ValueError, match="rows"):
        economic_implied_corr(np.full((3, 1), 0.3), spec2(0.03))


def test_risk_neutral_loadings_affine_move():
    # X_Q = X_O + alpha (upsilon 1 - X_O), bit for bit, in both directions;
    # a single factor column is its own orthogonalization
    X = np.array([[0.2], [0.5]])
    base = portfolio_variance(assemble_correlation(X), spec2(0.03))
    for scale, ups in ((1.1, 1), (0.95, -1)):
        res = economic_implied_corr(X, spec2(base * scale))
        assert res.upsilon == ups
        assert 0.0 < res.alpha_tilde < 1.0
        np.testing.assert_array_equal(res.X_Q.values, X + res.alpha_tilde * (ups - X))
        np.testing.assert_array_equal(res.C.values, assemble_correlation(res.X_Q).values)


def test_risk_neutral_loadings_ball_exit_is_reported():
    # with k > 1 the all-ones limit can be incompatible with the row budget:
    # a target reached at alpha = 0.9 carries both rows out of the ball
    X = np.array([[0.5, 0.5], [0.3, -0.2]])
    X_Q = orthogonalize(X) + 0.9 * (1.0 - orthogonalize(X))
    sigma, w = np.array([0.2, 0.2]), np.array([0.5, 0.5])
    v = sigma * w
    spec = MarketSpec(sigma, (IndexConstraint("m", w, float(v @ assemble_correlation(X_Q).values @ v)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = economic_implied_corr(X, spec)
    assert res.alpha_tilde == pytest.approx(0.9, rel=1e-12)
    assert res.clipped_rows == ()
    assert res.rows_outside_omega == (0, 1)
    r2 = np.einsum("ij,ij->i", res.X_Q.values, res.X_Q.values)
    assert np.all(r2 > 1.6)


@pytest.mark.parametrize(
    "n, k_true, seed, periods, clipped, outside",
    [
        (20, 3, 0, 260, (7, 13, 17, 18), ()),  # the README market
        (50, 6, 1, 0, (10, 17, 27), (1, 27, 33)),  # the infeasible CLI market
    ],
    ids=["readme-market", "n50-seed1"],
)
def test_route_records_rows_off_omega(n, k_true, seed, periods, clipped, outside):
    snap, _ = generate_synthetic_market(n, k_true, 0.1, seed, periods=periods)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = economic_implied_corr(snap.loadings, snap.spec)
    assert res.clipped_rows == clipped
    assert res.rows_outside_omega == outside
    r2 = np.einsum("ij,ij->i", res.X_Q.values, res.X_Q.values)
    assert res.rows_outside_omega == tuple(np.flatnonzero(r2 > 1.0 + EPS_FEAS).tolist())


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
        assert abs(var - portfolio_variance(res.C, spec)) <= 1e-10 * var
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
    assert abs(target - portfolio_variance(res.C, spec)) <= 1e-12
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
    # (orthogonalization rejects a zero column, so size the move directly)
    spec = spec2(0.03)
    v = spec.scaled_weights()
    alpha, ups, sPP, sDD, sPD = alpha_tilde(np.zeros((2, 1)), spec)
    assert ups == 1
    assert sPP == float(v @ v)
    assert sPD == 0.0
    assert sDD == pytest.approx(float(np.sum(v)) ** 2 - float(v @ v))
    C = assemble_correlation(np.full((2, 1), alpha))
    assert C.values[0, 1] == pytest.approx(alpha**2)


def test_economic_result_carries_quadratic_coefficients():
    X_P = np.array([[0.3], [0.2]])
    spec = spec2(0.03)
    res = economic_implied_corr(X_P, spec)
    fields = (res.alpha_tilde, res.upsilon, res.sigma_P_sq, res.sigma_Delta_sq, res.sigma_PDelta_sq)
    assert fields == alpha_tilde(X_P, spec)
    assert res.alpha_in_unit_interval == (0.0 <= res.alpha_tilde <= 1.0)
