"""End-to-end acceptance checks for the implied-correlation toolkit.

Thirteen independent criteria cover the factor parametrization, the
gradients, the nearest-matrix solver, the closed-form baselines, the
economic calibration, the variance-gamma bridge, and determinism of
every artifact.  Each test prints one PASS line with its headline
numbers; run ``pytest tests/test_acceptance.py -s`` to see them.
"""

import os
import time
import warnings

import numpy as np

from impliedcorr.baselines import adjusted_ex_post, equicorrelation
from impliedcorr.bench import BenchCell, BenchSuite, run_bench
from impliedcorr.core import (
    IndexConstraint,
    MarketSpec,
    assemble_correlation,
    check_feasibility,
    constraint_normal,
    portfolio_variance,
)
from impliedcorr.economic import _orthogonalize, economic_implied_corr
from impliedcorr.io import save_snapshot
from impliedcorr.solver import (
    SolverConfig,
    objective,
    objective_gradient,
    solve_nicm,
)
from impliedcorr.synth import estimate_target_matrix, generate_synthetic_market
from impliedcorr.vg import VGParams, direct_to_centered_corr, vg_centered_moments, vg_market_constraint
from reference import reference_solve


def _report(num, text):
    print(f"PASS {num:>2}: {text}")


def ball_rows(rng, n, k, fill=1.0):
    """Loadings with row norms at most fill, some rows on the boundary."""
    X = rng.uniform(-1.0, 1.0, size=(n, k))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(1.0, norms / (fill * rng.uniform(0.2, 1.0)))


def fd_gradient(f, X, h=1e-6):
    G = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        G[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def monotone(trace):
    t = np.asarray(trace)
    return bool(np.all(np.diff(t) <= 0.0))


# Converged traces accumulated by the solver-heavy criteria; the descent
# criterion re-checks all of them on top of its own fresh batch.
_TRACES = []


def test_01_psd_by_construction():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    min_eig = 0.0
    for i in range(1000):
        n = (5, 50, 100)[i % 3]
        k = (1, 3, 5)[(i // 3) % 3]
        C = assemble_correlation(ball_rows(rng, n, k))
        assert np.all(np.diag(C.values) == 1.0)
        ev = C.min_eigenvalue()
        assert ev >= -1e-10
        min_eig = min(min_eig, ev)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(1, f"1000 assembled matrices PSD with exact unit diagonal "
               f"(min eigenvalue {min_eig:.1e}, {dt:.1f}s)")


def test_02_gradients_match_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        X = ball_rows(rng, n, k, fill=0.95)
        A = rng.uniform(-0.9, 0.9, size=(n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 1.0)
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.dirichlet(np.ones(n))
        spec = MarketSpec(sigma, (IndexConstraint("market", w, 0.05),))
        lam = rng.normal(size=1)

        F = fd_gradient(lambda Y: objective(Y, A), X)
        r = np.max(np.abs(objective_gradient(X, A) - F)) / max(1.0, np.max(np.abs(F)))
        worst = max(worst, r)

        def lag_g(Y):
            return float(lam[0] * (spec.market.variance
                                   - portfolio_variance(assemble_correlation(Y), spec)))

        # dg/dX = -2 K X, from the kernel the solver's projections run on
        F = fd_gradient(lag_g, X)
        G = -2.0 * lam[0] * constraint_normal(spec.scaled_weights(), X)
        r = np.max(np.abs(G - F)) / max(1.0, np.max(np.abs(F)))
        worst = max(worst, r)
    dt = time.perf_counter() - t0
    assert worst <= 1e-6
    assert dt < 10.0
    _report(2, f"objective and constraint gradients match central differences "
               f"on 100 instances (worst relative error {worst:.1e}, {dt:.1f}s)")


def test_03_converged_runs_satisfy_constraint():
    worst = 0.0
    runs = 0
    for n in (10, 50, 100):
        for i in range(20):
            snap, C_true = generate_synthetic_market(n, 3, 0.1, seed=300 + 37 * n + i)
            res = solve_nicm(C_true.values, snap.spec, SolverConfig(k=3))
            assert res.converged
            assert abs(res.constraint_residual) <= 1e-6
            worst = max(worst, abs(res.constraint_residual))
            _TRACES.append(res.fn_trace)
            runs += 1
    _report(3, f"all {runs} solver runs across n in (10, 50, 100) converged "
               f"with |variance residual| <= 1e-6 (worst {worst:.1e})")


def test_04_agrees_with_reference_solver():
    cfg = SolverConfig(k=1, max_outer_iter=500)
    count = 0
    seed = 0
    worst = 0.0
    while count < 20:
        seed += 1
        assert seed < 60
        snap, C_true = generate_synthetic_market(4, 1, 0.12, seed=400 + seed)
        if snap.meta["comonotonic_clipped"]:
            continue
        prng = np.random.default_rng(400 + seed + 1000)
        P = C_true.values + prng.normal(scale=0.15, size=(4, 4))
        P = np.clip((P + P.T) / 2.0, -0.99, 0.99)
        np.fill_diagonal(P, 1.0)
        res = solve_nicm(P, snap.spec, cfg)
        ref = reference_solve(P, snap.spec, cfg)
        assert res.converged
        assert abs(res.fn - ref.fn) <= 1e-3
        worst = max(worst, abs(res.fn - ref.fn))
        _TRACES.append(res.fn_trace)
        count += 1
    _report(4, f"objective within 1e-3 of the general-purpose reference on "
               f"20 four-asset problems (worst gap {worst:.1e})")


def test_05_objective_descent_is_monotone():
    rng = np.random.default_rng(505)
    own = 0
    for n in (10, 30, 50):
        for i in range(5):
            snap, C_true = generate_synthetic_market(n, 2, 0.1, seed=int(rng.integers(1 << 30)))
            res = solve_nicm(C_true.values, snap.spec, SolverConfig(k=2))
            assert res.converged
            assert monotone(res.fn_trace)
            own += 1
    for trace in _TRACES:
        assert monotone(trace)
    _report(5, f"objective trace non-increasing on {own} fresh runs and "
               f"{len(_TRACES)} runs carried over from earlier criteria")


def test_06_more_factors_fit_better():
    fns = {1: [], 3: [], 5: []}
    for i in range(20):
        snap, _ = generate_synthetic_market(50, 6, 0.1, seed=600 + i, periods=520)
        A = estimate_target_matrix(snap.asset_returns, window=260).values
        for k in (1, 3, 5):
            res = solve_nicm(A, snap.spec, SolverConfig(k=k))
            assert res.converged
            fns[k].append(res.fn)
            _TRACES.append(res.fn_trace)
    med = {k: float(np.median(v)) for k, v in fns.items()}
    assert med[5] <= med[3] <= med[1]
    _report(6, f"median objective falls with the factor count on 20 estimated "
               f"targets: k=1 {med[1]:.1f}, k=3 {med[3]:.1f}, k=5 {med[5]:.1f}")


def test_07_iteration_economy_at_scale():
    iters = []
    slowest = 0.0
    for i in range(20):
        snap, _ = generate_synthetic_market(100, 1, 0.1, seed=700 + i, periods=520)
        A = estimate_target_matrix(snap.asset_returns, window=260).values
        t0 = time.perf_counter()
        res = solve_nicm(A, snap.spec, SolverConfig(k=1))
        dt = time.perf_counter() - t0
        assert res.converged
        assert dt < 5.0
        slowest = max(slowest, dt)
        iters.append(res.outer_iterations)
        _TRACES.append(res.fn_trace)
    assert float(np.median(iters)) <= 10.0
    _report(7, f"100-asset solves take a median of {np.median(iters):.0f} outer "
               f"iterations (max {max(iters)}), slowest solve {slowest:.2f}s")


def test_08_repairs_indefinite_adjusted_targets():
    repaired = 0
    seed = 0
    worst_eig = 0.0
    while repaired < 20:
        seed += 1
        assert seed < 80
        snap, C_true = generate_synthetic_market(10, 2, 0.0, seed=800 + seed)
        spec = snap.spec
        con = spec.constraints[0]
        spec_low = MarketSpec(spec.sigma, (IndexConstraint(con.name, con.weights, 0.35 * con.variance),))
        adj = adjusted_ex_post(C_true.values, spec_low, workaround=False)
        ev = adj.C_Q.min_eigenvalue()
        if ev >= -1e-8:
            continue
        worst_eig = min(worst_eig, ev)
        res = solve_nicm(adj.C_Q.values, spec_low, SolverConfig(k=3))
        rep = check_feasibility(res.C_star, spec_low, tol=1e-6)
        assert res.converged
        assert rep.symmetric and rep.unit_diagonal and rep.bounded and rep.psd
        assert rep.feasible
        repaired += 1
    _report(8, f"20 indefinite variance-scaled targets (min eigenvalue down to "
               f"{worst_eig:.2f}) repaired to fully feasible matrices")


def test_09_zero_premium_recovers_the_truth():
    worst_fn = 0.0
    worst_alpha = 0.0
    for i in range(10):
        snap, C_true = generate_synthetic_market(20, 1, 0.0, seed=900 + i)
        res = solve_nicm(C_true.values, snap.spec, SolverConfig(k=1))
        assert res.converged
        assert res.fn <= 1e-6
        worst_fn = max(worst_fn, res.fn)
        eco = economic_implied_corr(snap.loadings, snap.spec)
        assert abs(eco.alpha_tilde) <= 1e-6
        worst_alpha = max(worst_alpha, abs(eco.alpha_tilde))
    _report(9, f"zero-premium markets leave both pipelines at the truth "
               f"(worst objective {worst_fn:.1e}, worst blend weight {worst_alpha:.1e})")


def test_10_economic_calibration_back_substitutes():
    rng = np.random.default_rng(1010)
    ok = 0
    tried = 0
    worst = 0.0
    while ok < 50:
        tried += 1
        assert tried < 400
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        X_P = rng.uniform(-0.6, 0.6, size=(n, k))
        X_P /= np.maximum(1.0, np.linalg.norm(X_P, axis=1, keepdims=True) * 1.05)
        try:
            X_O = _orthogonalize(X_P)[0]
        except ValueError:
            continue
        sigma = rng.uniform(0.15, 0.45, size=n)
        w = rng.dirichlet(np.ones(n))
        ups = 1.0 if tried % 2 == 0 else -1.0
        a_true = float(rng.uniform(0.05, 0.5))
        # Reachable by construction: the target is the exact variance of a
        # blend partway toward the comonotonic corner ups.
        X_Q = X_O + a_true * (ups - X_O)
        v = sigma * w
        target = float(v @ assemble_correlation(X_Q).values @ v)
        base = float(v @ assemble_correlation(X_O).values @ v)
        if abs(target - base) < 1e-10:
            continue
        expected = 1.0 if target > base else -1.0
        spec = MarketSpec(sigma, (IndexConstraint("market", w, target),))
        with warnings.catch_warnings():
            # blends toward a corner may push rows past the unit ball,
            # which the pipeline reports but tolerates
            warnings.simplefilter("ignore", UserWarning)
            res = economic_implied_corr(X_P, spec)
        got = portfolio_variance(res.C, spec)
        assert abs(target - got) <= 1e-8
        worst = max(worst, abs(target - got))
        assert res.upsilon == expected
        if expected > 0:
            assert got > base
        else:
            assert got < base
        ok += 1
    _report(10, f"index variance matched to 1e-8 on 50 reachable instances "
                f"(worst residual {worst:.1e}) with consistent blend direction")


def test_11_equicorrelation_closed_form():
    def two_asset(var):
        return MarketSpec(np.array([0.2, 0.2]),
                          (IndexConstraint("market", np.array([0.5, 0.5]), var),))

    for var, want in ((0.04, 1.0), (0.02, 0.0), (0.03, 0.5)):
        r = equicorrelation(two_asset(var))
        assert abs(r.c_bar - want) <= 1e-15
        assert abs(var - portfolio_variance(r.C, two_asset(var))) <= 1e-12
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 30))
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.dirichlet(np.ones(n))
        v = sigma * w
        lo = float(v @ v)
        hi = float(np.sum(v)) ** 2
        var = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        spec = MarketSpec(sigma, (IndexConstraint("market", w, var),))
        worst = max(worst, abs(var - portfolio_variance(equicorrelation(spec).C, spec)))
    assert worst <= 1e-12
    _report(11, f"two-asset hand values hit 1, 0, 1/2 at machine precision; "
                f"worst constraint residual over 50 random specs {worst:.1e}")


def test_12_variance_gamma_bridge():
    rng = np.random.default_rng(1212)
    n = 10
    worst_recon = 0.0
    worst_recover = 0.0
    for _ in range(5):
        B = ball_rows(rng, n, 3, fill=0.95)
        C_dir = assemble_correlation(B)
        omega = rng.uniform(0.1, 0.5, size=n)
        theta = rng.normal(0.0, 0.25, size=n)
        nu = float(rng.uniform(0.2, 1.2))
        xi = rng.normal(0.0, 0.1, size=n)
        p = VGParams(xi=xi, omega=omega, theta=theta, nu=nu, C_dir=C_dir)
        _, cov = vg_centered_moments(p)
        sigma, C_cen = direct_to_centered_corr(p)
        recon = np.outer(sigma, sigma) * C_cen.values
        assert np.max(np.abs(recon - cov)) <= 1e-12
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - cov))))

        w = rng.dirichlet(np.ones(n))
        var_cen = float((sigma * w) @ C_cen.values @ (sigma * w)) * 1.05
        spec_cen = MarketSpec(sigma, (IndexConstraint("market", w, var_cen),))
        spec_dir = vg_market_constraint(p, spec_cen)
        res = solve_nicm(C_dir.values, spec_dir, SolverConfig(k=3, var_tol=1e-8))
        assert res.converged
        p_star = VGParams(xi=xi, omega=omega, theta=theta, nu=nu, C_dir=res.C_star)
        s_star, C_star_cen = direct_to_centered_corr(p_star)
        got = float((s_star * w) @ C_star_cen.values @ (s_star * w))
        assert abs(got - var_cen) <= 1e-6
        worst_recover = max(worst_recover, abs(got - var_cen))
    _report(12, f"centered moments reconstruct exactly (worst {worst_recon:.1e}) "
                f"and solving under the skew-adjusted constraint recovers the "
                f"centered index variance (worst {worst_recover:.1e})")


def test_13_everything_is_deterministic(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        snap, _ = generate_synthetic_market(12, 2, 0.1, seed=1313, periods=60)
        save_snapshot(snap, d)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for f in names:
        with open(os.path.join(dirs[0], f), "rb") as fh1, open(os.path.join(dirs[1], f), "rb") as fh2:
            assert fh1.read() == fh2.read()

    snap, C_true = generate_synthetic_market(30, 3, 0.1, seed=1414)
    r1 = solve_nicm(C_true.values, snap.spec, SolverConfig(k=3))
    r2 = solve_nicm(C_true.values, snap.spec, SolverConfig(k=3))
    assert np.array_equal(r1.fn_trace, r2.fn_trace)
    assert np.array_equal(r1.X_star.values, r2.X_star.values)
    assert r1.fn == r2.fn

    suite = BenchSuite(cells=(BenchCell("equicorr"), BenchCell("nicm", k=2)),
                       n=10, k_true=2, crp=0.1, instances=3, seed=99, measure_time=False)
    rows1, tab1 = run_bench(suite)
    rows2, tab2 = run_bench(suite)
    assert rows1 == rows2
    assert tab1 == tab2
    _report(13, f"repeated seeds reproduce snapshots byte for byte, solver "
                f"traces bit for bit, and bench tables verbatim "
                f"({len(names)} snapshot files, {len(rows1)} bench rows)")
