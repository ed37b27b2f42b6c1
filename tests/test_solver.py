"""Projected-gradient solver: gradients, projections, restoration, invariants.

Gradient formulas are checked against central finite differences; the
projections against their defining properties (idempotence, landing in
both sets, roots refined on the clipped curve); the full solve against an
independent augmented Lagrangian on small instances.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impliedcorr import solver
from impliedcorr.baselines import adjusted_ex_post
from impliedcorr.core import (
    EPS_FEAS,
    CorrMatrix,
    IndexConstraint,
    MarketSpec,
    assemble_correlation,
    check_feasibility,
    constraint_normal,
    hollow_form,
    _clip_omega,
    portfolio_variance,
)
from impliedcorr.solver import (
    RESTORATION_TOL,
    RITZ_EXTRA,
    RestorationError,
    SolverConfig,
    _constraint,
    _subspace_eigenpairs,
    initial_loadings,
    objective,
    _project_feasible_raw,
    objective_gradient,
    solve_nicm,
)
from impliedcorr.synth import estimate_target_matrix, generate_synthetic_market
from reference import reference_solve


def random_spec(rng, n):
    sigma = rng.uniform(0.1, 0.5, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    w /= w.sum()
    w[np.argmax(w)] += 1.0 - w.sum()
    v = sigma * w
    lo, hi = float(v @ v), float(np.sum(v)) ** 2
    var = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
    return MarketSpec(sigma, (IndexConstraint("market", w, var),))


def random_target(rng, n):
    Z = rng.standard_normal((n, 3))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    X = Z * (rng.uniform(size=n) ** (1.0 / 3.0))[:, None]
    A = X @ X.T + rng.normal(scale=0.05, size=(n, n))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 1.0)
    return np.clip(A, -0.99, 0.99) + np.eye(n) * (1.0 - np.clip(A, -0.99, 0.99)[0, 0]) * 0.0


def project_omega(X):
    """The nearest point of Omega, as the restoration clips to it."""
    P = np.array(X, dtype=float)
    _clip_omega(P)
    return P


def in_omega(X):
    """Every row of the loadings X has squared norm at most 1 + EPS_FEAS."""
    X = np.asarray(getattr(X, "values", X))
    return bool(np.max(np.einsum("ij,ij->i", X, X)) <= 1.0 + EPS_FEAS)


def restore(X, spec):
    """The restoration of X onto Omega and spec's index variance surface."""
    X = np.asarray(X, dtype=float)
    return _project_feasible_raw(X, _constraint(spec, X.shape[1]))


def _residual(X, spec):
    """g(X) from the O(n k) hollow form, as the solver takes it."""
    v = spec.scaled_weights()
    return spec.market.variance - (hollow_form(v, X, X) + float(v @ v))


def restoration_bound(spec):
    """The documented |g| bound of the restoration: 1e-10 * max(1, (sum |v_i|)^2)."""
    return RESTORATION_TOL * max(1.0, float(np.sum(np.abs(spec.scaled_weights()))) ** 2)


def fd_gradient(f, X, h=1e-6):
    G = np.zeros_like(X)
    for i in range(X.shape[0]):
        for d in range(X.shape[1]):
            Xp = X.copy()
            Xm = X.copy()
            Xp[i, d] += h
            Xm[i, d] -= h
            G[i, d] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        X = rng.uniform(-0.5, 0.5, size=(n, k))
        A = random_target(rng, n)
        G = objective_gradient(X, A)
        G_fd = fd_gradient(lambda Z: objective(Z, A), X)
        scale = max(1.0, float(np.max(np.abs(G_fd))))
        np.testing.assert_allclose(G, G_fd, atol=1e-6 * scale)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 5))
    Z = draw(arrays(np.float64, (n, k), elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    X = Z / np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None]
    # Targets from the truth A = C(X) (eps = 0) out to far from it, so
    # that both the expanded and the direct branch of the kernel run.
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0]))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, n))
    A = assemble_correlation(X).values + eps * (noise + noise.T)
    np.fill_diagonal(A, 1.0)
    return X, A


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kernel_cases())
def test_objective_and_gradient_match_dense_formulas(case):
    X, A = case
    A_hat = A - np.eye(A.shape[0])
    D = X @ X.T
    np.fill_diagonal(D, 0.0)
    D -= A_hat
    f_dense = float(np.sum(D * D))
    f = objective(X, A)
    assert f >= 0.0
    assert abs(f - f_dense) <= (1e-12 if f_dense < 1e-2 else 1e-10 * f_dense)
    absX = np.abs(X)
    bound = 4.0 * (absX @ (absX.T @ absX) + np.abs(A_hat) @ absX)
    assert np.all(np.abs(objective_gradient(X, A) - 4.0 * (D @ X)) <= 1e-10 * bound)


def test_constraint_gradient_matches_finite_differences():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        X = rng.uniform(-0.5, 0.5, size=(n, k))
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        w[np.argmax(w)] += 1.0 - w.sum()
        spec = MarketSpec(sigma, (IndexConstraint("market", w, 0.05),))
        lam = float(rng.normal())

        def weighted_g(Z):
            return lam * (spec.market.variance - portfolio_variance(assemble_correlation(Z), spec))

        # dg/dX = -2 K X with K = v v' o J, v = sigma o w
        G = -2.0 * lam * constraint_normal(spec.scaled_weights(), X)
        G_fd = fd_gradient(weighted_g, X)
        scale = max(1.0, float(np.max(np.abs(G_fd))))
        np.testing.assert_allclose(G, G_fd, atol=1e-6 * scale)


def test_project_omega_properties():
    rng = np.random.default_rng(107)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 4))
        X = rng.normal(scale=1.5, size=(n, k))
        P = project_omega(X)
        r2 = np.einsum("ij,ij->i", P, P)
        assert np.all(r2 <= 1.0 + 1e-12)
        # idempotent up to one rounding of the boundary rows; inside rows
        # pass through bit-identically
        np.testing.assert_allclose(project_omega(P), P, atol=1e-15)
        inside = np.einsum("ij,ij->i", X, X) <= 1.0
        np.testing.assert_array_equal(P[inside], X[inside])
        # projected rows keep their direction
        out = ~inside
        if np.any(out):
            np.testing.assert_allclose(
                P[out] * np.linalg.norm(X[out], axis=1, keepdims=True),
                X[out],
                atol=1e-12,
            )


def test_project_omega_nonexpansive():
    rng = np.random.default_rng(109)
    for _ in range(30):
        n, k = 6, 2
        X = rng.normal(scale=1.5, size=(n, k))
        Y = rng.normal(scale=1.5, size=(n, k))
        d_before = float(np.linalg.norm(X - Y))
        d_after = float(np.linalg.norm(project_omega(X) - project_omega(Y)))
        assert d_after <= d_before + 1e-12


def residual(X, spec):
    return spec.market.variance - portfolio_variance(assemble_correlation(X), spec)


def test_project_equality_degenerate_direction_raises():
    # X = 0 makes K X vanish; the constraint cannot be reached along it
    spec = MarketSpec(np.array([0.2, 0.2]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(RestorationError, match="insensitive"):
        restore(np.zeros((2, 1)), spec)


def test_project_feasible_reaches_targets_on_the_curve():
    # target chosen as the variance at a known point of the clipped curve
    # lam |-> P_Omega(X + lam K X), so a root exists by construction and
    # the curve search refines it far below the restoration tolerance
    rng = np.random.default_rng(111)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        w[np.argmax(w)] += 1.0 - w.sum()
        v = sigma * w
        X = rng.uniform(-0.5, 0.5, size=(n, k))
        K = np.outer(v, v)
        np.fill_diagonal(K, 0.0)
        moved = project_omega(X + rng.normal(scale=5.0) * (K @ X))
        var = float(v @ assemble_correlation(moved).values @ v)
        if var <= 1e-6:
            continue
        spec = MarketSpec(sigma, (IndexConstraint("market", w, var),))
        Z = restore(X, spec)
        assert np.max(np.einsum("ij,ij->i", Z, Z)) <= 1.0 + 1e-12
        assert abs(_residual(Z, spec)) <= 1e-14 * max(1.0, float(np.sum(np.abs(v))) ** 2)
        checked += 1
    assert checked >= 30


def test_project_feasible_single_constraint_only():
    # a spec with a second constraint cannot be built, so the restoration
    # never meets one
    with pytest.raises(ValueError, match="exactly one index constraint, got 2"):
        MarketSpec(
            np.array([0.2, 0.2]),
            (
                IndexConstraint("m", np.array([0.5, 0.5]), 0.03),
                IndexConstraint("s", np.array([1.0, 0.0]), 0.04),
            ),
        )


def test_project_feasible_lands_in_both_sets():
    rng = np.random.default_rng(117)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        spec = random_spec(rng, n)
        X = rng.normal(scale=0.8, size=(n, k))
        Z = restore(X, spec)
        assert abs(residual(Z, spec)) <= RESTORATION_TOL
        assert in_omega(Z)


def test_project_feasible_keeps_feasible_points():
    rng = np.random.default_rng(119)
    spec = random_spec(rng, 5)
    X = restore(rng.normal(scale=0.5, size=(5, 2)), spec)
    Z = restore(X, spec)
    np.testing.assert_allclose(Z, X, atol=1e-12)


def test_project_feasible_comonotonic_target():
    # target exactly at the attainable maximum: the only feasible point has
    # every pairwise correlation equal to one
    sigma = np.array([0.2, 0.3, 0.4])
    w = np.array([0.5, 0.3, 0.2])
    v = sigma * w
    cap = float(np.sum(v)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap),))
    rng = np.random.default_rng(121)
    Z = restore(rng.normal(size=(3, 2)), spec)
    C = assemble_correlation(Z).values
    np.testing.assert_allclose(C, np.ones((3, 3)), atol=1e-9)


def test_project_feasible_beyond_comonotonic_raises():
    sigma = np.array([0.2, 0.3])
    w = np.array([0.5, 0.5])
    cap = float(np.sum(sigma * w)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap * 1.01),))
    with pytest.raises(RestorationError, match="comonotonic"):
        restore(np.full((2, 1), 0.3), spec)


def test_project_feasible_below_attainable_minimum_raises():
    # v = (0.3, -0.1): v'Cv = 0.1 - 0.06 c_12 spans [0.04, 0.16] exactly
    sigma = np.array([0.2, 0.2])
    w = np.array([1.5, -0.5])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.03),))
    with pytest.raises(RestorationError, match="attainable minimum") as err:
        restore(np.full((2, 1), 0.3), spec)
    assert err.value.residual == pytest.approx(0.03 - 0.04, abs=1e-15)
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.05),))
    Z = restore(np.full((2, 1), 0.3), spec)
    assert abs(residual(Z, spec)) <= 1e-10


def test_project_feasible_collapsing_rows_raise_insensitive():
    # C_12 = -0.5 is needed but the start rows are identical, so K X keeps
    # them parallel and the curve only shrinks both towards zero; the
    # restoration must stop there instead of searching on towards NaN
    sigma = np.array([0.05, 0.05])
    w = np.array([0.5, 0.5])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.000625),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RestorationError, match="insensitive") as err:
            restore(np.ones((2, 3)), spec)
    assert np.isfinite(err.value.residual)


@pytest.mark.xfail(
    strict=True,
    raises=RestorationError,
    reason="the curve search still moves along K X: at n = 2, k = 1 K X only swaps "
    "the rows, so x1/x2 stays fixed and no point of the curve reaches the target",
)
def test_solve_nicm_two_assets_one_factor_opposite_sign_start():
    # the target needs C_12 of the opposite sign to the spectral start;
    # k = 2 converges (fn 0.18335), k = 1 raises "insensitive" today
    sigma = np.array([0.2, 0.18])
    w = np.array([0.5, 0.5])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.5 * float(sigma @ w) ** 2),))
    A = np.array([[1.0, 0.3], [0.3, 1.0]])
    res = solve_nicm(A, spec, SolverConfig(k=1))
    assert res.converged
    assert abs(res.constraint_residual) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=RestorationError,
    reason="the curve X + lam K X from this start does not reach a target 2e-9 relative "
    "below the comonotonic bound, which rows t e_1 attain",
)
def test_project_feasible_near_comonotonic_target():
    # Every row t e_1 with t = 0.9999999982863131 has a residual of
    # -1.4e-17 here, so the target is attainable.
    X = np.array([[-0.65, 0.45], [0.22, -0.27], [0.29, 0.18]])
    sigma = np.array([0.3, 0.48, 0.16])
    w = np.array([0.5, 0.3, 0.2])
    v = sigma * w
    spec = MarketSpec(sigma, (IndexConstraint("m", w, float(v.sum()) ** 2 * (1.0 - 2e-9)),))
    t_e1 = np.zeros((3, 2))
    t_e1[:, 0] = 0.9999999982863131
    assert abs(_residual(t_e1, spec)) <= 1e-16
    Z = restore(X, spec)
    assert abs(_residual(Z, spec)) <= restoration_bound(spec)


@pytest.mark.xfail(
    strict=True,
    raises=RestorationError,
    reason="ROADMAP item 9: the curve X + lam K X does not reach targets at or just above "
    "the attainable minimum (2 max|v_i| - sum|v_i|)^2, which a closed polygon of unit rows attains",
)
def test_solve_nicm_target_at_attainable_minimum():
    # The mirror of the near-comonotonic case.  Each of the three solves
    # raises "did not reach |g| <= 1e-10 ... within 100 curve searches";
    # k = 2 converges at 1.5 times the minimum, k = 3 at three times.
    sigma = np.array([0.2410975940425264, 0.25, 0.69010231753224])
    w = np.array([0.5376362100018789, 0.2007541433727046, 0.2616096466254166])
    v = np.abs(sigma * w)
    minimum = (2.0 * v.max() - v.sum()) ** 2
    assert minimum == pytest.approx(5.272079663368302e-07, rel=1e-12)
    A = np.full((3, 3), 0.5)
    np.fill_diagonal(A, 1.0)
    for k, scale in ((2, 1.0), (3, 1.0), (3, 1.5)):
        spec = MarketSpec(sigma, (IndexConstraint("m", w, scale * minimum),))
        res = solve_nicm(A, spec, SolverConfig(k=k))
        assert res.converged
        assert abs(res.constraint_residual) <= 1e-6


def hard_repair(market, scale=1.0):
    """Acceptance 08's recipe: index variance times 0.35, blended without the
    workaround; sigma times scale and the variance times scale^2."""
    snap, C_true = generate_synthetic_market(10, 2, 0.0, seed=market)
    con = snap.spec.constraints[0]
    spec = MarketSpec(snap.spec.sigma, (IndexConstraint(con.name, con.weights, 0.35 * con.variance),))
    A = adjusted_ex_post(C_true.values, spec, workaround=False).C_Q.values
    con = IndexConstraint(con.name, con.weights, 0.35 * con.variance * scale**2)
    return A, MarketSpec(spec.sigma * scale, (con,))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_nicm_rejects_target_below_attainable_minimum(k):
    # The hard-repair recipe on market 3003: one index weight dominates,
    # so every correlation matrix gives v'Cv >= (2 max|v_i| - sum|v_i|)^2
    # = 0.04595, above the scaled target 0.03378.
    A, spec = hard_repair(3003)
    with pytest.raises(RestorationError, match="attainable minimum") as err:
        solve_nicm(A, spec, SolverConfig(k=k))
    assert err.value.residual == pytest.approx(0.03378 - 0.04595, abs=1e-5)


@pytest.mark.parametrize(
    "variance, message, resid",
    [
        (0.03, "is below the attainable minimum (2 max|v_i| - sum|v_i|)^2 = 0.04", 0.03 - 0.04),
        (0.17, "exceeds the comonotonic bound 0.16", 0.17 - 0.16),
    ],
)
def test_solve_nicm_rejects_unattainable_target_before_the_start(variance, message, resid):
    # v = (0.3, -0.1): v'Cv = 0.1 - 0.06 c_12 spans [0.04, 0.16], so the
    # spec is rejected before any loadings exist
    spec = MarketSpec(np.array([0.2, 0.2]), (IndexConstraint("m", np.array([1.5, -0.5]), variance),))

    def no_start(A, k):
        raise AssertionError("the spectral start ran for an unattainable target")

    with mock.patch.object(solver, "initial_loadings", no_start):
        with pytest.raises(RestorationError) as err:
            solve_nicm(np.eye(2), spec, SolverConfig(k=2))
    assert str(err.value) == f"index variance target {variance:g} {message}; no feasible loadings exist"
    assert err.value.residual == pytest.approx(resid, abs=1e-15)


def test_solve_nicm_hard_repair_market_857_restores_its_start():
    # The alternating restoration left a row outside the ball at this
    # start point and raised; the curve search stays in Omega.
    A, spec = hard_repair(857)
    res = solve_nicm(A, spec, SolverConfig(k=1))
    assert res.converged, res.message
    assert abs(res.constraint_residual) <= 1e-6
    assert in_omega(res.X_star)


def test_solve_nicm_hard_repairs_converge_in_large_units():
    # var_tol stays absolute: at sigma x 4096 it is 6e-14 of the index
    # variance, and the refined roots still meet it on all of acceptance
    # 08's corpus (k = 3).
    converged = 0
    market = 800
    while converged < 20:
        market += 1
        A, spec = hard_repair(market, scale=4096.0)
        if np.linalg.eigvalsh(A)[0] >= -1e-8:
            continue
        res = solve_nicm(A, spec, SolverConfig(k=3))
        assert res.converged, (market, res.message)
        converged += 1


def test_solve_nicm_relabelled_assets_converge_alike():
    # Market 803 with its assets in the order perfbench's seed 3 gives
    # them: holding only the sphere rows that grad f pushes outward let the
    # projected step push another sphere row into the clip, and the solve
    # crept on for 200 iterations; holding that row too converges, with
    # the objective of the original labels.
    A, spec = hard_repair(803)
    base = solve_nicm(A, spec, SolverConfig(k=3))
    p = np.array([6, 3, 8, 0, 5, 1, 4, 2, 7, 9])
    con = spec.constraints[0]
    spec_p = MarketSpec(spec.sigma[p], (IndexConstraint(con.name, con.weights[p], con.variance),))
    res = solve_nicm(A[np.ix_(p, p)], spec_p, SolverConfig(k=3))
    assert base.converged and res.converged, res.message
    assert abs(res.fn - base.fn) <= 1e-9 * base.fn


def test_solve_nicm_relative_stop_at_n_500():
    # f is near 1.7e4 here, so an absolute improvement tolerance of 1e-3
    # was a relative 6e-8 and k = 1 ran into max_outer_iter; the relative
    # test stops the solve well before that.
    snap, _ = generate_synthetic_market(
        500, 6, 0.1, np.random.SeedSequence(14, spawn_key=(7,)), periods=520
    )
    A = estimate_target_matrix(snap.asset_returns, "historical", window=260)
    res = solve_nicm(A, snap.spec, SolverConfig(k=1))
    assert res.converged, res.message
    assert res.outer_iterations < SolverConfig().max_outer_iter


def test_project_feasible_negative_weights_comonotonic_point():
    # short position: the comonotonic point flips the sign of that row
    sigma = np.array([0.2, 0.3, 0.25])
    w = np.array([0.7, 0.5, -0.2])
    v = sigma * w
    cap = float(np.sum(np.abs(v))) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap),))
    Z = restore(np.full((3, 2), 0.1), spec)
    assert abs(residual(Z, spec)) <= 1e-10
    assert in_omega(Z)


def test_project_feasible_final_clip_keeps_tolerance():
    # Vols quoted in percent and beyond: the exact clip of the converged
    # point can move g past the tolerance, so the clip is re-checked; the
    # tolerance scales with (sum |v_i|)^2, about 1.6e3 at scale 100.
    snap, _ = generate_synthetic_market(5, 2, 0.0, seed=217)
    con = snap.spec.constraints[0]
    T = np.random.default_rng(217).normal(scale=0.6, size=(5, 2))
    for scale in (1e2, 1e4, 1e6):
        spec = MarketSpec(
            snap.spec.sigma * scale,
            (IndexConstraint(con.name, con.weights, con.variance * scale**2),),
        )
        Z = restore(T, spec)
        assert abs(_residual(Z, spec)) <= restoration_bound(spec)
        assert np.max(np.einsum("ij,ij->i", Z, Z)) <= 1.0 + 1e-12


@st.composite
def long_short_restorations(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 3))
    sigma = draw(arrays(np.float64, n, elements=st.floats(0.05, 4.0), fill=st.nothing()))
    size = draw(arrays(np.float64, n, elements=st.floats(0.05, 1.0), fill=st.nothing()))
    sign = draw(arrays(np.bool_, n, fill=st.nothing()))
    w = np.where(sign, size, -size)
    assume(abs(w.sum()) > 0.25)
    w /= w.sum()
    w[np.argmax(np.abs(w))] += 1.0 - w.sum()
    v = np.abs(sigma * w)
    lo = max(0.0, 2.0 * float(v.max()) - float(v.sum())) ** 2
    hi = float(v.sum()) ** 2
    t = draw(st.floats(0.01, 0.99))
    X = draw(arrays(np.float64, (n, k), elements=st.floats(-1.5, 1.5), fill=st.nothing()))
    spec = MarketSpec(sigma, (IndexConstraint("m", w, lo + t * (hi - lo)),))
    return spec, X


@settings(derandomize=True, deadline=None, max_examples=300)
@given(long_short_restorations())
def test_project_feasible_contract_on_long_short_specs(case):
    spec, X = case
    try:
        Z = restore(X, spec)
    except RestorationError:
        return
    assert np.max(np.einsum("ij,ij->i", Z, Z)) <= 1.0 + 1e-12
    assert abs(_residual(Z, spec)) <= restoration_bound(spec)


@st.composite
def long_short_solves(draw):
    """Markets with n <= 12, k <= 3, long-short weights, targets across and
    beyond the attainable range of v'Cv, and symmetric unit-diagonal targets
    with off-diagonal entries anywhere in [-1, 1], mostly indefinite."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(3, n)))
    sigma = draw(arrays(np.float64, n, elements=st.floats(0.05, 1.0), fill=st.nothing()))
    size = draw(arrays(np.float64, n, elements=st.floats(0.05, 1.0), fill=st.nothing()))
    sign = draw(arrays(np.bool_, n, fill=st.nothing()))
    w = np.where(sign, size, -size)
    assume(abs(w.sum()) > 0.25)
    w /= w.sum()
    w[np.argmax(np.abs(w))] += 1.0 - w.sum()
    v = np.abs(sigma * w)
    lo = max(0.0, 2.0 * float(v.max()) - float(v.sum())) ** 2
    hi = float(v.sum()) ** 2
    variance = lo + draw(st.floats(-0.05, 1.05)) * (hi - lo)
    assume(variance > 0.0)
    U = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    A = np.triu(U, 1) + np.triu(U, 1).T + np.eye(n)
    return A, MarketSpec(sigma, (IndexConstraint("m", w, variance),)), k


@settings(derandomize=True, deadline=None, max_examples=100)
@given(long_short_solves())
def test_solve_nicm_contract_on_long_short_markets(case):
    A, spec, k = case
    config = SolverConfig(k=k)
    try:
        res = solve_nicm(A, spec, config)
    except RestorationError:
        return
    assert np.all(np.diff(res.fn_trace) <= 0.0)
    if res.converged:
        assert abs(res.constraint_residual) <= config.var_tol
        assert np.max(np.einsum("ij,ij->i", res.X_star.values, res.X_star.values)) <= 1.0 + 1e-12
    else:
        assert res.message


def test_initial_loadings_identity_target_is_zero():
    X0 = initial_loadings(np.eye(5), 2)
    np.testing.assert_array_equal(X0.values, np.zeros((5, 2)))


@pytest.mark.xfail(
    strict=True,
    raises=RestorationError,
    reason="every eigenvalue of the identity is 1, so the spectral start is X0 = 0, where "
    "K X0 = 0 and the curve search cannot raise the variance above v'v",
)
def test_solve_nicm_identity_target():
    for n in (2, 5, 50):
        sigma = np.full(n, 0.2)
        w = np.full(n, 1.0 / n)
        v = sigma * w
        var = 0.5 * (float(v @ v) + float(v.sum()) ** 2)
        spec = MarketSpec(sigma, (IndexConstraint("m", w, var),))
        res = solve_nicm(np.eye(n), spec, SolverConfig(k=2))
        assert res.converged
        assert abs(res.constraint_residual) <= 1e-6


def test_initial_loadings_always_in_omega():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        A = rng.normal(scale=0.4, size=(n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 1.0)
        A = np.clip(A, -0.99, 0.99)
        np.fill_diagonal(A, 1.0)
        for k in (1, 2, 3):
            if k > n:
                continue
            X0 = initial_loadings(A, k)
            assert in_omega(X0)


def test_initial_loadings_deterministic():
    rng = np.random.default_rng(125)
    A = rng.normal(size=(6, 6))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 1.0)
    X0 = initial_loadings(A, 3).values
    X1 = initial_loadings(A.copy(), 3).values
    np.testing.assert_array_equal(X0, X1)


def test_initial_loadings_k_validation():
    with pytest.raises(ValueError, match="k must"):
        initial_loadings(np.eye(3), 0)
    with pytest.raises(ValueError, match="k must"):
        initial_loadings(np.eye(3), 4)


@st.composite
def symmetric_targets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    # Sign patterns as well as general entries: on those the Omega cap of
    # the spectral scale binds far more often.
    entries = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0]))
    M = draw(arrays(np.float64, (n, n), elements=entries, fill=st.nothing()))
    A = (M + M.T) / 2.0
    np.fill_diagonal(A, 1.0)
    return A, k


@settings(derandomize=True, deadline=None, max_examples=200)
@given(symmetric_targets())
def test_initial_loadings_properties(case):
    A, k = case
    X0 = initial_loadings(A, k).values
    # solve_nicm hands over its validated CorrMatrix; the start must not move
    np.testing.assert_array_equal(initial_loadings(CorrMatrix(A), k).values, X0)
    assert np.all(np.einsum("ij,ij->i", X0, X0) <= 1.0 + 1e-12)
    for col in X0.T:
        if np.any(col != 0.0):
            # sign convention: the largest-magnitude entry is positive
            assert col.max() > 0.0 and col.max() >= -col.min()


def eigh_start(A, k):
    """initial_loadings with the subspace iteration switched off."""
    with mock.patch.object(solver, "_subspace_eigenpairs", lambda A, k: None):
        return initial_loadings(A, k).values


def spectral_target(seed, n, top, rest):
    """Eigenvalues top on random orthonormal vectors Q, the others in [-rest, rest].

    A = Q diag(top) Q' + rest P diag(u) P with P = I - Q Q' and u uniform
    on [-1, 1]: P Q = 0, so the columns of Q are eigenvectors, and the
    second term has norm at most rest on their complement.
    """
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, len(top))))[0]
    P = np.eye(n) - Q @ Q.T
    A = (Q * top) @ Q.T + rest * (P * rng.uniform(-1.0, 1.0, n)) @ P
    return (A + A.T) / 2.0


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 0.05))
def test_subspace_start_agrees_with_eigh_where_the_gap_is_clear(seed, k, rest):
    # Top k eigenvalues 10 (k + 1), ..., 20, the rest within +-rest: a
    # clear gap at k and between the top k, and a budget of 8 steps.
    n = 16 * (k + RITZ_EXTRA)
    A = spectral_target(seed, n, 10.0 * np.arange(k + 1, 1, -1), rest)
    assert _subspace_eigenpairs(A, k) is not None
    np.testing.assert_allclose(initial_loadings(A, k).values, eigh_start(A, k), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize(
    "n, k, top",
    [
        # 10 eigenvalues at -40 (more than b - k = 8), above 10 in magnitude:
        # the block settles inside their eigenspace.
        (600, 1, [10.0] + [-40.0] * 10),
        # lam_2 - lam_3 = 1e-12: the gap at k is below the residual floor.
        (300, 2, [20.0, 10.0, 10.0 - 1e-12]),
    ],
)
def test_uncertified_subspace_start_is_the_eigh_start(n, k, top):
    # In both cases the top-k Ritz residuals reach RITZ_RTOL within the
    # budget; the certificate is what rejects them.
    A = spectral_target(0, n, np.array(top), 0.01)
    assert _subspace_eigenpairs(A, k) is None
    np.testing.assert_array_equal(initial_loadings(A, k).values, eigh_start(A, k))


def test_repair_path_runs_no_dense_eigensolver(monkeypatch):
    # The solve and the feasibility report of an n = 200 repair with a
    # clear gap at k = 3 run no eigendecomposition of an n x n matrix.
    n = 200
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, 3))
    X *= 0.95 / np.linalg.norm(X, axis=1, keepdims=True)
    A = assemble_correlation(X).values
    sigma = rng.uniform(0.1, 0.4, n)
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    v = sigma * w
    spec = MarketSpec(sigma, (IndexConstraint("market", w, 0.9 * float(v @ A @ v)),))

    def small_only(fn):
        def guarded(a, *args, **kwargs):
            if np.shape(a)[0] >= n:
                raise AssertionError(f"{fn.__name__} of an n x n matrix on the repair path")
            return fn(a, *args, **kwargs)

        return guarded

    monkeypatch.setattr(np.linalg, "eigh", small_only(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", small_only(np.linalg.eigvalsh))
    res = solve_nicm(A, spec, SolverConfig(k=3))
    assert res.converged, res.message
    assert check_feasibility(res.C_star, spec).feasible
    with pytest.raises(AssertionError, match="n x n"):
        np.linalg.eigvalsh(A)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(var_tol=0.0)
    d = dataclasses.asdict(SolverConfig(k=3, var_tol=1e-5))
    assert SolverConfig.from_dict(d) == SolverConfig(k=3, var_tol=1e-5)
    with pytest.raises(ValueError, match="unknown"):
        SolverConfig.from_dict({"k": 1, "typo": 2})


def test_solve_nicm_invariants_on_synthetic_markets():
    for seed in range(6):
        snap, C_true = generate_synthetic_market(12, 2, 0.1, np.random.SeedSequence(seed))
        res = solve_nicm(snap.target, snap.spec, SolverConfig(k=2))
        assert res.converged, res.message
        # monotone objective trace
        assert np.all(np.diff(res.fn_trace) <= 0.0)
        assert abs(res.constraint_residual) <= 1e-6
        assert in_omega(res.X_star)
        assert check_feasibility(res.C_star).psd
        np.testing.assert_array_equal(np.diag(res.C_star.values), np.ones(12))


def test_solve_nicm_zero_premium_truth_target():
    snap, C_true = generate_synthetic_market(10, 1, 0.0, np.random.SeedSequence(42))
    res = solve_nicm(C_true.values, snap.spec, SolverConfig(k=1))
    assert res.converged
    assert res.fn <= 1e-8


def test_solve_nicm_agrees_with_reference_on_small_instances():
    ok = 0
    for seed in range(12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            snap, _ = generate_synthetic_market(4, 1, 0.12, np.random.SeedSequence(seed))
        if snap.meta["comonotonic_clipped"]:
            # a capped target admits a single feasible point; nothing to compare
            continue
        rng = np.random.default_rng(seed + 1000)
        A = snap.target + rng.normal(scale=0.15, size=(4, 4))
        A = (A + A.T) / 2.0
        A = np.clip(A, -0.99, 0.99)
        np.fill_diagonal(A, 1.0)
        config = SolverConfig(k=1, max_outer_iter=500)
        res = solve_nicm(A, snap.spec, config)
        ref = reference_solve(A, snap.spec, config)
        if not (res.converged and ref.converged):
            continue
        assert res.fn <= ref.fn + 1e-3
        ok += 1
    assert ok >= 7


def test_solve_nicm_rescales_large_scaled_weights():
    # annualized-vol convention pushed to a monthly-variance target:
    # max |sigma_i w_i| near 1, and the same market in units 2^10 and 2^20
    # times larger, where the restoration's tolerance scales with them
    sigma = np.array([2.0, 1.8])
    w = np.array([0.5, 0.5])
    v = sigma * w
    var = 0.9 * float(np.sum(v)) ** 2
    A = np.array([[1.0, 0.3], [0.3, 1.0]])
    results = []
    for s in (1.0, 2.0**10, 2.0**20):
        spec = MarketSpec(sigma * s, (IndexConstraint("m", w, var * s * s),))
        res = solve_nicm(A, spec, SolverConfig(k=1))
        assert res.converged
        # residual is reported in the spec's units
        assert abs(residual(res.X_star.values, spec)) <= 1e-6
        assert abs(res.constraint_residual) <= 1e-6
        results.append(res)
    base, *scaled = results
    for res in scaled:
        assert (res.outer_iterations, res.restorations) == (base.outer_iterations, base.restorations)
        assert abs(res.fn - base.fn) <= 1e-12 * base.fn


@pytest.mark.parametrize("market, n, k", [(857, 10, 3), (None, 60, 3)])
def test_solve_nicm_is_bit_identical_on_every_form_of_the_target(market, n, k):
    # The target is validated once: a bit-symmetric ndarray is solved in
    # place, through a read-only view, and must give the bits of its copy.
    if market is None:
        rng = np.random.default_rng(17)
        A, spec = random_target(rng, n), random_spec(rng, n)
    else:
        A, spec = hard_repair(market)
        A = np.array(A)

    def bits(res):
        report = check_feasibility(res.C_star, spec).to_dict()
        arrays = (res.X_star.values, res.C_star.values, res.fn_trace)
        return [np.ascontiguousarray(a).tobytes() for a in arrays], res.to_dict() | {"wall_time": 0}, report

    base = bits(solve_nicm(A, spec, SolverConfig(k=k)))
    for form in (CorrMatrix(A), np.asfortranarray(A)):
        assert bits(solve_nicm(form, spec, SolverConfig(k=k))) == base
    assert A.flags.writeable


def test_solve_nicm_input_validation():
    spec = MarketSpec(np.array([0.2, 0.2]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match="exactly one index constraint, got 2"):
        MarketSpec(
            np.array([0.2, 0.2]),
            (
                IndexConstraint("m", np.array([0.5, 0.5]), 0.03),
                IndexConstraint("s", np.array([1.0, 0.0]), 0.04),
            ),
        )
    with pytest.raises(ValueError, match="assets"):
        solve_nicm(np.eye(3), spec)


def test_solve_nicm_infeasible_market_raises():
    sigma = np.array([0.2, 0.2])
    w = np.array([0.5, 0.5])
    cap = float(np.sum(sigma * w)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap * 1.5),))
    with pytest.raises(RestorationError) as err:
        solve_nicm(np.eye(2), spec)
    assert np.isfinite(err.value.residual)


def test_reference_solve_size_guard():
    spec = MarketSpec(
        np.full(31, 0.2),
        (IndexConstraint("m", np.full(31, 1.0 / 31), 0.02),),
    )
    with pytest.raises(ValueError, match="small"):
        reference_solve(np.eye(31), spec)


def test_reference_solve_takes_k_from_config():
    snap, _ = generate_synthetic_market(5, 2, 0.1, np.random.SeedSequence(3))
    assert reference_solve(snap.target, snap.spec).X_star.k == 1
    config = SolverConfig(k=3)
    assert reference_solve(snap.target, snap.spec, config).X_star.k == config.k


def test_result_to_dict_is_json_ready():
    snap, _ = generate_synthetic_market(6, 1, 0.05, np.random.SeedSequence(2))
    res = solve_nicm(snap.target, snap.spec)
    d = res.to_dict()
    assert d["n"] == 6 and d["k"] == 1
    assert isinstance(d["fn_trace"], list)
    assert d["converged"] is True
