"""Projected-gradient solver: gradients, projections, restoration, invariants.

Gradient formulas are checked against central finite differences; the
projections against their defining properties (idempotence, landing in
both sets, roots refined on the clipped curve); the full solve against an
independent augmented Lagrangian on small instances.
"""

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
    _EPS,
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
    _SPHERE_BAND,
    _constraint,
    _descend,
    _objective_and_gradient,
    _tangential,
    _target_offdiag,
    _subspace_eigenpairs,
    initial_loadings,
    objective,
    _project_feasible_raw,
    objective_gradient,
    solve_nicm,
)
from impliedcorr.synth import estimate_target_matrix, generate_synthetic_market
from reference import dual_bound, reference_solve


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


def variance_unit(spec):
    """The scale of every tolerance on g: (sum_i |sigma_i w_i|)^2."""
    return float(np.sum(np.abs(spec.scaled_weights()))) ** 2


def restoration_bound(spec):
    """The documented |g| bound of the restoration: 1e-10 * (sum |v_i|)^2."""
    return RESTORATION_TOL * variance_unit(spec)


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
        assert abs(_residual(Z, spec)) <= 1e-14 * float(np.sum(np.abs(v))) ** 2
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
    # 5e-11 relative below the bound the target is inside the restoration's
    # band, so the constraint takes the comonotonic point, whose residual
    # -2.88e-12 misses a var_tol of 1e-12, 5.76e-14 in units of g.
    sigma = np.array([0.2, 0.3, 0.25])
    w = np.array([0.5, 0.3, 0.2])
    cap = float(np.sum(sigma * w)) ** 2
    spec = MarketSpec(sigma, (IndexConstraint("m", w, cap * (1.0 - 5e-11)),))
    with pytest.raises(RestorationError, match=r"the comonotonic point misses \|g\| <= 5.76e-14$") as err:
        _constraint(spec, 2, 1e-12)
    assert err.value.residual == pytest.approx(-5e-11 * cap, rel=1e-3)


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


def hard_corpus(scale=1.0):
    """Acceptance 08's corpus: (market, A, spec) for the first 20 hard repairs
    from market 801 on whose target is indefinite."""
    found, market = 0, 800
    while found < 20:
        market += 1
        A, spec = hard_repair(market, scale)
        if np.linalg.eigvalsh(A)[0] < -1e-8:
            found += 1
            yield market, A, spec


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
    # At sigma x 4096 the restoration's tolerance and var_tol both scale
    # with the index variance, and every solve of acceptance 08's corpus
    # (k = 3) converges.
    for market, A, spec in hard_corpus(scale=4096.0):
        res = solve_nicm(A, spec, SolverConfig(k=3))
        assert res.converged, (market, res.message)


def test_converged_solves_respect_the_dual_bound():
    # The convex relaxation's dual bounds f from below at every k: every
    # converged solve of acceptance 08's corpus (k = 3) and acceptance
    # 07's (n = 100, k = 1) lies on or above it.
    config = SolverConfig(k=3)
    for market, A, spec in hard_corpus():
        res = solve_nicm(A, spec, config)
        assert res.converged, market
        assert dual_bound(A, spec, config.var_tol) <= res.fn, market
    config = SolverConfig(k=1)
    for market in range(700, 720):
        snap, _ = generate_synthetic_market(100, 1, 0.1, seed=market, periods=520)
        A = estimate_target_matrix(snap.asset_returns, window=260).values
        res = solve_nicm(A, snap.spec, config)
        assert res.converged, market
        assert dual_bound(A, snap.spec, config.var_tol) <= res.fn, market


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7 (CHANGES.md FOUND line 20): the stop on a small relative "
    "improvement ends five of these solves 1.3-4.8 % above the convex optimum",
)
def test_full_rank_solves_reach_the_dual_bound():
    # At k = n every correlation matrix is C(X) for unit-row X, so the
    # factor problem is the convex one and a stationary solve meets its
    # dual bound.  Markets 810, 815, 814, 822 and 812 stop 4.8, 4.6, 4.2,
    # 2.2 and 1.3 % above it.
    config = SolverConfig(k=10)
    above = []
    for market, A, spec in hard_corpus():
        res = solve_nicm(A, spec, config)
        bound = dual_bound(A, spec, config.var_tol)
        if res.converged and res.fn > bound + 1e-2 * abs(bound):
            above.append((market, res.fn / bound - 1.0))
    assert not above, above


def test_report_residual_has_the_bits_of_the_solve():
    # The report of C* takes its residual from the loadings by the solver's
    # kernel: on acceptance 08's corpus (k = 3), the README market (n = 20)
    # and a 100-asset market, whose smallest eigenvalue also comes from
    # the loadings.
    cases = [(A, spec) for _, A, spec in hard_corpus()]
    for n in (20, 100):
        snap, _ = generate_synthetic_market(n, 3, 0.1, seed=0, periods=260)
        cases.append((estimate_target_matrix(snap.asset_returns, "historical"), snap.spec))
    for A, spec in cases:
        res = solve_nicm(A, spec, SolverConfig(k=3))
        report = check_feasibility(res.C_star, spec)
        assert report.constraint_residuals[0] == res.constraint_residual


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
        assert abs(res.constraint_residual) <= min(RESTORATION_TOL, config.var_tol) * variance_unit(spec)
        assert np.max(np.einsum("ij,ij->i", res.X_star.values, res.X_star.values)) <= 1.0 + 1e-12
        assert dual_bound(A, spec, config.var_tol) <= res.fn
    else:
        assert res.message


@st.composite
def restored_starts(draw):
    """A long_short_solves case with its constraint and a start drawn in
    [-1.5, 1.5]^(n x k), restored; cases whose constraint or restoration raises
    are skipped."""
    A, spec, k = draw(long_short_solves())
    X = draw(arrays(np.float64, (spec.n, k), elements=st.floats(-1.5, 1.5), fill=st.nothing()))
    try:
        con = _constraint(spec, k)
        X = _project_feasible_raw(X, con)
    except RestorationError:
        assume(False)
    return A, spec, k, con, X


@settings(derandomize=True, deadline=None, max_examples=100)
@given(restored_starts())
def test_tangential_step_keeps_g_and_the_sphere_rows(case):
    # d is orthogonal to grad g = -2 K X, and the step X - s d moves no row
    # on the sphere outward, both to rounding: 16 n k eps ||grad f|| (times
    # ||K X|| for the inner product) times the conditioning 1 + ||K X|| /
    # ||P||, P being K X without its radial parts on the sphere rows (the
    # held rows are among them).  The largest measured over these cases is
    # under a fiftieth of that.
    A, spec, k, con, X = case
    grad = _objective_and_gradient(X, *_target_offdiag(A))[1]
    d = _tangential(grad, X, con)
    N = constraint_normal(con.vs, X)
    r2 = np.einsum("ij,ij->i", X, X)
    sphere = r2 >= 1.0 - _SPHERE_BAND
    P = N - (sphere / np.where(sphere, r2, 1.0) * np.einsum("ij,ij->i", X, N))[:, None] * X
    n_N, n_P = float(np.linalg.norm(N)), float(np.linalg.norm(P))
    if n_P == 0.0:
        return  # K X is zero or radial on the sphere rows: no conditioning to state
    rounding = 16 * spec.n * k * _EPS * float(np.linalg.norm(grad)) * (1.0 + n_N / n_P)
    assert abs(float(np.vdot(d, N))) <= rounding * n_N
    assert np.all(np.einsum("ij,ij->i", X, d)[sphere] >= -rounding)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(restored_starts())
def test_descend_contract_from_any_restored_start(case):
    A, spec, k, con, X = case
    A_hat, a2 = _target_offdiag(A)
    config = SolverConfig(k=k)
    X, f, trace, iterations, _, converged, message = _descend(X, A_hat, a2, con, config.max_outer_iter)
    assert np.all(np.diff(trace) <= 0.0)
    assert len(trace) == iterations + 1 and trace[-1] == f
    assert abs(con.residual(X)) <= con.tol
    assert np.max(np.einsum("ij,ij->i", X, X)) <= 1.0 + EPS_FEAS
    assert converged or message == "iteration limit reached"
    # From the restored spectral start, the loop is solve_nicm's.
    try:
        start = _project_feasible_raw(initial_loadings(A, k).values, con)
    except RestorationError:
        return
    trace = _descend(start, A_hat, a2, con, config.max_outer_iter)[2]
    assert np.array(trace).tobytes() == solve_nicm(A, spec, config).fn_trace.tobytes()


# ROADMAP item 24's market: the index prices only assets 1 and 2.
ITEM24_SIGMA = np.array([0.2, 0.3, 0.25, 0.4])
ITEM24_W = np.array([0.5, 0.5, 0.0, 0.0])
ITEM24_A = np.array([[1.0, 0.9, -0.5, -0.5], [0.9, 1.0, -0.5, -0.5],
                     [-0.5, -0.5, 1.0, 0.6], [-0.5, -0.5, 0.6, 1.0]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_comonotonic_target_leaves_zero_weight_rows_free(k):
    # The bound forces C_12 = 1 and leaves assets 3 and 4 free, as 1e-6
    # relative below it, where the solve ends at f = 0.21 (k = 1) or 0.020;
    # C = J, every row pinned, gives f = 18.34.
    bound = float(np.sum(ITEM24_SIGMA * ITEM24_W)) ** 2
    fn = [solve_nicm(ITEM24_A, MarketSpec(ITEM24_SIGMA, (IndexConstraint("m", ITEM24_W, var),)),
                     SolverConfig(k=k)).fn
          for var in (bound, bound * (1.0 - 1e-6))]
    assert fn[0] <= fn[1] + 0.1


def index_market(A, sigma, w, var):
    """(A, the spec of one index with weights w and variance var)."""
    index = IndexConstraint("m", np.asarray(w, float), var)
    return A, MarketSpec(np.asarray(sigma, float), (index,))


def duplicated_market():
    """25 synthetic assets, each listed twice at half its weight: the same index."""
    snap, _ = generate_synthetic_market(25, 3, 0.1, seed=0)
    idx = np.repeat(np.arange(25), 2)
    w = snap.spec.market.weights[idx] / 2.0
    return index_market(snap.target[np.ix_(idx, idx)], snap.spec.sigma[idx], w,
                        snap.spec.market.variance)


def stretched_market():
    """A synthetic market whose target has two pairs at 1.05, outside [-1, 1]."""
    snap, _ = generate_synthetic_market(10, 2, 0.1, seed=0)
    A = snap.target.copy()
    A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.05
    return index_market(A, snap.spec.sigma, snap.spec.market.weights, snap.spec.market.variance)


HALF = 0.5 * np.eye(3) + 0.5
# max|v_i| > sum|v_i| / 2, so the band [lo, hi] of index variances starts
# above zero: v = (0.3, 0.04, 0.04), lo = 0.22^2 and hi = 0.38^2.
BAND = ([0.5, 0.2, 0.2], [0.6, 0.2, 0.2])
BAND_LO, BAND_HI = 0.0484, 0.1444


def band_market(var):
    return index_market(HALF, *BAND, var)


def band_rows(var, verdict, ident, ks=(1, 2, 3)):
    return [pytest.param(lambda: band_market(var), k, verdict, id=f"{ident}-k{k}") for k in ks]


# ROADMAP item 24's atlas of degenerate markets.  Each row builds (A, spec)
# and names its verdict: a converged, feasible solve at the optimal f given
# (to FN_RTOL relative, the stopping rule's step, and to 1e-12 where it is
# 0; None leaves f free), or the error that its spec or its solve raises.
ATLAS = [
    pytest.param(lambda: index_market(np.eye(1), [0.2], [1.0], 0.04), 1, 0.0, id="n=1"),
    pytest.param(lambda: index_market(ITEM24_A, ITEM24_SIGMA, ITEM24_W, 0.04), 1, None,
                 id="zero-weights"),
    pytest.param(
        lambda: index_market(np.eye(4), ITEM24_SIGMA, ITEM24_W, 0.04), 2, None,
        id="zero-weights-identity",
        marks=pytest.mark.xfail(
            strict=True, raises=RestorationError,
            reason="ROADMAP item 9: the identity's spectral start is X0 = 0, where K X0 = 0, "
            "so the curve search raises 'insensitive'",
        ),
    ),
    # One priced asset: lo = hi, every X meets the constraint and k = 1 fits A.
    *(pytest.param(lambda: index_market(0.6 * np.eye(3) + 0.4, [0.2, 0.3, 0.4], [1, 0, 0], 0.04),
                   k, 0.0, id=f"single-name-k{k}") for k in (1, 2)),
    pytest.param(lambda: index_market(HALF, [0.2, 0.3, 0.4], [0.5, 0.3, 0.2], 0.05), 4,
                 (ValueError, r"k must lie in \[1, 3\]"), id="k>n"),
    # At the variance v'v the pairs must sum to zero: C = I, by symmetry,
    # also at k = n = 3.
    *(pytest.param(lambda: index_market(HALF, [0.2] * 3, [1 / 3] * 3, 3 * (0.2 / 3) ** 2),
                   k, 1.5, id=f"variance-v'v-k{k}") for k in (1, 2, 3)),
    # The one feasible C is s s', s = (1, -1, 1), which misses the pairs of
    # A by 1.5, 0.5 and 1.5.
    pytest.param(lambda: index_market(HALF, [0.2, 0.3, 0.25], [0.8, -0.3, 0.5], 0.375 ** 2),
                 2, 9.5, id="long-short-comonotonic"),
    *(pytest.param(duplicated_market, k, None, id=f"duplicated-n=50-k{k}") for k in (1, 2, 3)),
    *(pytest.param(stretched_market, k, None, id=f"pairs-at-1.05-k{k}") for k in (1, 2)),
    pytest.param(lambda: index_market(HALF, [0.2, 0.3, 0.4], [0.5, 0.3, 0.2], 0.0), 1,
                 (ValueError, "must be positive"), id="variance-0"),
    # Targets at the ends of a band with lo > 0, just inside and just outside.
    *band_rows(BAND_LO * (1 - 1e-6), (RestorationError, "below the attainable minimum"), "below-lo"),
    # At lo the one feasible C is s s', s = (1, -1, -1): f = 2 (1.5^2 + 1.5^2 + 0.5^2).
    *band_rows(BAND_LO, 9.5, "at-lo", ks=(1,)),
    *(pytest.param(
        lambda: band_market(BAND_LO), k, 9.5, id=f"at-lo-k{k}",
        marks=pytest.mark.xfail(
            strict=True, raises=RestorationError,
            reason="ROADMAP item 9: at the attainable minimum the curve search raises 'insensitive'",
        ),
    ) for k in (2, 3)),
    *band_rows(BAND_LO * (1 + 1e-6), 9.49998, "above-lo"),
    *band_rows(BAND_HI * (1 - 1e-6), 1.49998, "below-hi"),
    # At hi the one feasible C is J: f = 6 * 0.5^2.
    *band_rows(BAND_HI, 1.5, "at-hi"),
    *band_rows(BAND_HI * (1 + 1e-6), (RestorationError, "exceeds the comonotonic bound"), "above-hi"),
    # Tied weights, four assets at sigma = 0.3 and w = 0.25: the optimum is
    # the equicorrelation matrix at the index, c = 1/3 (f = 12 / 6^2) at the
    # variance 0.045 and c = 13/15 (f = 12 (11/30)^2) at 0.081.
    *(pytest.param(lambda var=var: index_market(0.5 * np.eye(4) + 0.5, [0.3] * 4, [0.25] * 4, var),
                   k, fn, id=f"tied-{var}-k{k}")
      for var, fn in ((0.045, 1 / 3), (0.081, 12 * (11 / 30) ** 2)) for k in (1, 2, 4)),
    # n = k = 2: the variance forces C_12 = 1/6, which misses A_12 = -0.3 by 7/15.
    pytest.param(lambda: index_market(np.array([[1.0, -0.3], [-0.3, 1.0]]), [0.2, 0.3], [0.5, 0.5], 0.0375),
                 2, 2 * (7 / 15) ** 2, id="n=k=2"),
]


@pytest.mark.parametrize("market, k, verdict", ATLAS)
def test_degenerate_market_atlas(market, k, verdict):
    if isinstance(verdict, tuple):
        with pytest.raises(verdict[0], match=verdict[1]):
            solve_nicm(*market(), SolverConfig(k=k))
        return
    A, spec = market()
    res = solve_nicm(A, spec, SolverConfig(k=k))
    assert res.converged, res.message
    assert check_feasibility(res.C_star, spec).feasible
    if verdict is not None:
        assert res.fn == pytest.approx(verdict, rel=solver.FN_RTOL, abs=1e-12)


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
    """initial_loadings with the Lanczos start switched off."""
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
    # clear gap at k and between the top k.  The Lanczos cap is n // 10
    # steps, about 1.6 (k + RITZ_EXTRA).
    n = 16 * (k + RITZ_EXTRA)
    A = spectral_target(seed, n, 10.0 * np.arange(k + 1, 1, -1), rest)
    assert _subspace_eigenpairs(A, k) is not None
    np.testing.assert_allclose(initial_loadings(A, k).values, eigh_start(A, k), rtol=0.0, atol=1e-10)


class _CountingMatrix(np.ndarray):
    """A view of a matrix that records each product A @ x in `calls`."""

    calls: list = []

    def __matmul__(self, other):
        self.calls.append(1)
        return np.asarray(np.ndarray.__matmul__(self, other))


def products_with(A, k):
    """_subspace_eigenpairs(A, k) and the number of products with A it formed."""
    _CountingMatrix.calls = []
    pairs = _subspace_eigenpairs(np.ascontiguousarray(A).view(_CountingMatrix), k)
    return pairs, len(_CountingMatrix.calls)


@pytest.mark.parametrize(
    "n, k, top",
    [
        # 10 eigenvalues at -40 (more than b - k = 8), above 10 in magnitude:
        # the b Ritz values largest in magnitude leave no room to show that
        # 10 is the top one.
        (600, 1, [10.0] + [-40.0] * 10),
        # lam_2 - lam_3 = 1e-12: the gap at k is below the residual floor.
        (300, 2, [20.0, 10.0, 10.0 - 1e-12]),
    ],
)
def test_uncertified_subspace_start_is_the_eigh_start(n, k, top):
    # In both cases the top-k residual estimates reach the certificate's
    # rounding floor early; the certificate is what rejects the pairs, and
    # the run stops at that one test instead of taking its n // 10 steps
    # (one product with A each, plus the test's).
    A = spectral_target(0, n, np.array(top), 0.01)
    pairs, products = products_with(A, k)
    assert pairs is None
    assert products <= (n // 10) // 2
    np.testing.assert_array_equal(initial_loadings(A, k).values, eigh_start(A, k))


@pytest.mark.parametrize("n, k, top", [(100, 1, [1.001]), (200, 2, [1.02, 1.01])])
def test_subspace_start_stops_at_its_step_cap(n, k, top):
    # Top eigenvalues barely above the rest's [-1, 1]: the residual estimates
    # never reach the rounding floor, so no certificate is tested and the run
    # gives up after its n // 10 steps, one product each (a test would form
    # one more), and the start falls back to eigh.
    A = spectral_target(0, n, np.array(top), 1.0)
    assert products_with(A, k) == (None, n // 10)
    np.testing.assert_array_equal(initial_loadings(A, k).values, eigh_start(A, k))


@pytest.mark.parametrize("i", range(5))
def test_subspace_start_certifies_acceptance_07_targets(i):
    # Acceptance 07's historical targets at n = 100: lam_10 / lam_1 is about
    # 0.04, and the start is certified instead of paying for a full eigh.
    snap, _ = generate_synthetic_market(100, 1, 0.1, seed=700 + i, periods=520)
    A = estimate_target_matrix(snap.asset_returns, "historical", window=260).values
    assert _subspace_eigenpairs(A, 1) is not None
    np.testing.assert_allclose(initial_loadings(A, 1).values, eigh_start(A, 1), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_subspace_start_on_a_repeated_top_eigenvalue(seed):
    # One start vector spans one direction of the eigenvalue 20 in exact
    # arithmetic; in floating point, rounding seeds the other, which grows
    # like (20 / 0.01)^m against the rest.
    A = spectral_target(seed, 300, np.array([30.0, 20.0, 20.0]), 0.01)
    evals, evecs = np.linalg.eigh(A)
    # At k = 2 the gap at k is 0: the certificate must reject.
    assert _subspace_eigenpairs(A, 2) is None
    np.testing.assert_array_equal(initial_loadings(A, 2).values, eigh_start(A, 2))
    # At k = 3 the gap at k is clear.  A rejection falls back to eigh; the
    # pairs of a certificate are the top 3, but the eigenvectors of 20 are
    # unique only as a plane, so the start matches eigh's in its first
    # column and lies in that plane in the others.
    pairs = _subspace_eigenpairs(A, 3)
    X0, X_eigh = initial_loadings(A, 3).values, eigh_start(A, 3)
    if pairs is None:
        np.testing.assert_array_equal(X0, X_eigh)
    else:
        np.testing.assert_allclose(pairs[0], [30.0, 20.0, 20.0], rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(X0[:, 0], X_eigh[:, 0], rtol=0.0, atol=1e-10)
        plane = evecs[:, -3:-1]
        np.testing.assert_allclose(plane @ (plane.T @ X0[:, 1:]), X0[:, 1:], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("rho", [0.3, -0.005])
def test_subspace_start_on_a_krylov_breakdown(rho):
    # rho J + (1 - rho) I has two distinct eigenvalues, so the Krylov space
    # of any start vector is invariant after two steps (beta_2 = 0).  The
    # run stops there: at rho = 0.3 its two Ritz pairs certify the top one,
    # 1 + (n - 1) rho; at rho = -0.005 the top eigenvalue 1 - rho has n - 1
    # dimensions, one of which the space holds, and the certificate rejects.
    n = 120
    A = rho * np.ones((n, n)) + (1.0 - rho) * np.eye(n)
    pairs, products = products_with(A, 1)
    assert products == 3
    if rho > 0.0:
        np.testing.assert_allclose(pairs[0], [1.0 + (n - 1) * rho], rtol=1e-14)
    else:
        assert pairs is None
    np.testing.assert_allclose(initial_loadings(A, 1).values, eigh_start(A, 1), rtol=0.0, atol=1e-10)


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
    with pytest.raises(ValueError, match="max_outer_iter must be at least 1"):
        SolverConfig(max_outer_iter=0)


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


@pytest.mark.parametrize("s", [1.0, 2.0**10, 2.0**20, 2.0**30])
def test_var_tol_is_relative_to_the_variance_unit(s):
    # The same long-only markets in units s times larger (the variance s^2
    # times): every solve converges within var_tol of the unit, and the
    # report, given the same tol, agrees with the solver's verdict.  An
    # absolute var_tol fell below one ulp of the target at large s.
    for seed in range(12):
        k = 1 + seed % 3
        snap, _ = generate_synthetic_market(3 + 2 * seed, k, 0.1, np.random.SeedSequence(seed))
        con = snap.spec.market
        spec = MarketSpec(snap.spec.sigma * s, (IndexConstraint("m", con.weights, con.variance * s * s),))
        config = SolverConfig(k=k)
        res = solve_nicm(snap.target, spec, config)
        assert res.converged, (seed, res.message)
        assert abs(res.constraint_residual) <= config.var_tol * variance_unit(spec)
        report = check_feasibility(res.C_star, spec, config.var_tol)
        assert report.economically_matched == res.converged, (seed, report.constraint_residuals)


def test_var_tol_below_the_restoration_tolerance():
    # var_tol = 1e-12 is below RESTORATION_TOL, so every restoration meets
    # var_tol itself and the solve converges within it.
    snap, _ = generate_synthetic_market(12, 2, 0.1, np.random.SeedSequence(5))
    config = SolverConfig(k=2, var_tol=1e-12)
    assert config.var_tol < RESTORATION_TOL
    res = solve_nicm(snap.target, snap.spec, config)
    assert res.converged, res.message
    assert abs(res.constraint_residual) <= config.var_tol * variance_unit(snap.spec)
    assert check_feasibility(res.C_star, snap.spec, config.var_tol).economically_matched


def test_sigma_sweep_changes_no_bit_of_the_solve():
    # The README market in units 2^e, e = -30 ... 30 and +-260, +-300:
    # every tolerance on g is a multiple of (sum_i |sigma_i w_i|)^2, so
    # scaling sigma by a power of two and the variance by its square
    # changes no bit.  With a floor of max(1, .) on that scale the
    # comonotonic band would swallow every target from e = -20 on.  The
    # curve direction K X is quartic in sigma, so unless it is scaled its
    # squares leave the float range beyond e = +-255.
    snap, _ = generate_synthetic_market(20, 3, 0.1, seed=0, periods=260)
    A = estimate_target_matrix(snap.asset_returns, "historical")
    con = snap.spec.market
    base = None
    for e in sorted([*range(-30, 31, 5), -300, -260, 260, 300], key=abs):
        s = 2.0**e
        spec = MarketSpec(snap.spec.sigma * s, (IndexConstraint(con.name, con.weights, con.variance * s * s),))
        res = solve_nicm(A, spec, SolverConfig(k=3))
        assert res.converged, (e, res.message)
        assert check_feasibility(res.C_star, spec).feasible, e
        moves = (res.X_star.values.tobytes(), res.fn, res.outer_iterations, res.restorations)
        base = base or moves
        assert moves == base, (e, res.fn, res.outer_iterations, res.restorations)


@pytest.mark.parametrize("n", [12, 60])
def test_permuting_the_assets_permutes_the_solution(n):
    # Permuting A, sigma and w permutes C*.  Not bit for bit: the Lanczos
    # start vector and the sums follow the row order.
    for k in (1, 2, 3):
        for j in range(2):
            seed = np.random.SeedSequence(11, spawn_key=(n, k, j))
            snap, _ = generate_synthetic_market(n, 4, 0.1, seed, periods=300)
            A = estimate_target_matrix(snap.asset_returns, "historical", window=150).values
            con = snap.spec.market
            p = np.random.default_rng(seed).permutation(n)
            spec = MarketSpec(snap.spec.sigma[p], (IndexConstraint(con.name, con.weights[p], con.variance),))
            res = solve_nicm(A, snap.spec, SolverConfig(k=k))
            perm = solve_nicm(A[np.ix_(p, p)], spec, SolverConfig(k=k))
            assert res.converged and perm.converged, (k, j)
            assert perm.outer_iterations == res.outer_iterations, (k, j)
            assert abs(perm.fn - res.fn) <= 1e-12 * res.fn, (k, j)
            assert np.max(np.abs(perm.C_star.values - res.C_star.values[np.ix_(p, p)])) <= 1e-9, (k, j)


def test_solve_nicm_rescales_large_scaled_weights():
    # annualized-vol convention pushed to a monthly-variance target:
    # max |sigma_i w_i| near 1, and the same market in units 2^10 and 2^20
    # times larger, where the restoration's tolerance scales with them.
    # Scaling sigma by a power of two and the variance by its square
    # changes no bit of X* and scales both residuals by s^2 exactly.
    sigma = np.array([2.0, 1.8])
    w = np.array([0.5, 0.5])
    v = sigma * w
    var = 0.9 * float(np.sum(v)) ** 2
    A = np.array([[1.0, 0.3], [0.3, 1.0]])
    spec = MarketSpec(sigma, (IndexConstraint("m", w, var),))
    base = solve_nicm(A, spec, SolverConfig(k=1))
    assert base.converged
    # residual is reported in the spec's units
    base_residual = residual(base.X_star.values, spec)
    assert abs(base_residual) <= 1e-6
    assert abs(base.constraint_residual) <= 1e-6
    for s in (2.0**10, 2.0**20):
        spec = MarketSpec(sigma * s, (IndexConstraint("m", w, var * s * s),))
        res = solve_nicm(A, spec, SolverConfig(k=1))
        assert res.converged
        assert res.X_star.values.tobytes() == base.X_star.values.tobytes()
        assert res.constraint_residual == base.constraint_residual * s * s
        assert residual(res.X_star.values, spec) == base_residual * s * s
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
