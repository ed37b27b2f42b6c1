"""The tests' independent reference for solve_nicm.

reference_solve is an independent cross-check for small instances: an
augmented Lagrangian on the same objective and constraints, minimized with
scipy's L-BFGS-B from the same starting point.  It shares no restoration
or line-search code with solve_nicm (only the final clip onto Omega), so
agreement of the two objective values is meaningful evidence of correctness.

The module's name does not start with test_, so pytest does not collect it;
test files import it as ``from reference import reference_solve``.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize

from impliedcorr.core import (
    FactorLoadings,
    MarketSpec,
    _as_corr,
    _clip_omega,
    assemble_correlation,
    hollow_form,
)
from impliedcorr.solver import SolverConfig, SolverResult, _target_offdiag, initial_loadings, objective


def reference_solve(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Independent augmented-Lagrangian solver for small cross-checks.

    Minimizes the same objective under the same constraints with a
    classical augmented Lagrangian (multiplier + quadratic penalty for the
    equality, Powell-Hestenes-Rockafellar terms for the row inequalities),
    using scipy's L-BFGS-B as inner solver on the flattened loadings.  It
    starts from the same spectral point as solve_nicm so both methods
    descend into the same basin, but shares none of the restoration or
    line-search machinery.  The factor count and var_tol come from config
    (default SolverConfig()).  Intended for n up to about 25.
    """
    t0 = time.perf_counter()
    config = SolverConfig() if config is None else config
    k = config.k
    A_arr = _as_corr(A).values
    n = A_arr.shape[0]
    if n > 30:
        raise ValueError(f"reference solver is meant for small instances (n <= 30), got n = {n}")

    A_hat = _target_offdiag(A_arr)[0]
    v = spec.scaled_weights()
    target = spec.market.variance
    K = np.outer(v, v)
    np.fill_diagonal(K, 0.0)

    def split_val_grad(x: np.ndarray, lam: float, kappa: np.ndarray, mu: float):
        Xm = x.reshape(n, k)
        M = Xm @ Xm.T
        np.fill_diagonal(M, 0.0)
        D = M - A_hat
        fv = float(np.sum(D * D))
        gf = 4.0 * (D @ Xm)

        g = target - float(v @ (M @ v)) - float(v @ v)
        coef = lam + mu * g
        # d g / d X = -2 K X
        g_grad = -2.0 * (K @ Xm)

        h = 1.0 - np.einsum("ij,ij->i", Xm, Xm)
        t_act = np.maximum(0.0, kappa - mu * h)
        # PHR term: sum_i (t_i^2 - kappa_i^2) / (2 mu); d/dh_i = -t_i,
        # d h_i / d X_i = -2 X_i.
        val = fv + lam * g + 0.5 * mu * g * g + float(np.sum(t_act**2 - kappa**2)) / (2.0 * mu)
        grad = gf + coef * g_grad + 2.0 * t_act[:, None] * Xm
        return val, grad.ravel(), g, h

    x = initial_loadings(A_arr, k).values.ravel().copy()
    lam = 0.0
    kappa = np.zeros(n)
    mu = 10.0
    viol_prev = math.inf
    inner_iters = 0

    for _ in range(30):
        res = minimize(
            lambda z: split_val_grad(z, lam, kappa, mu)[:2],
            x,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
        )
        x = res.x
        inner_iters += int(res.nit)
        _, _, g, h = split_val_grad(x, lam, kappa, mu)
        viol = max(abs(g), float(np.max(np.maximum(0.0, -h), initial=0.0)))
        if viol <= min(config.var_tol, 1e-9):
            break
        lam += mu * g
        kappa = np.maximum(0.0, kappa - mu * h)
        if viol > 0.25 * viol_prev:
            mu *= 10.0
        viol_prev = viol

    X = x.reshape(n, k).copy()
    # Snap the solution into Omega; the PHR terms leave at most tiny
    # violations, so the objective moves negligibly.
    residual = target - (hollow_form(v, X, X, _clip_omega(X)) + float(v @ v))
    fn = objective(X, A_arr)
    converged = abs(residual) <= config.var_tol

    X_star = FactorLoadings(X)
    return SolverResult(
        X_star=X_star,
        C_star=assemble_correlation(X_star),
        fn=fn,
        fn_trace=np.array([fn]),
        constraint_residual=residual,
        outer_iterations=inner_iters,
        restorations=0,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        message="augmented-lagrangian reference",
    )


def dual_bound(A, spec: MarketSpec, tol: float) -> float:
    """A lower bound on f(X) for every X that solve_nicm may return.

    Dropping the rank limit leaves the convex problem min ||C - A||^2 over
    C PSD, diag C = 1 and v'Cv = sigma_m^2, whose optimum bounds f from
    below for every k.  Its dual in (y, mu), n + 1 variables,

        d(y, mu) = ||A||^2 / 2 - ||(A + Diag(y) + mu v v')_+||^2 / 2
                   + sum_i y_i + mu sigma_m^2,

    is concave, and 2 d(y, mu) <= f(X) at every (y, mu) and every feasible
    X; it is maximised here by scipy's L-BFGS-B.  A solve accepts |g| <=
    tol (sum_i |v_i|)^2, which moves the dual by at most |mu| times that,
    so the bound returned is 2 d - 2 |mu| tol (sum_i |v_i|)^2.  The
    diagonal of A is taken as one, as f ignores it.
    """
    A = np.array(_as_corr(A).values)
    np.fill_diagonal(A, 1.0)
    n = A.shape[0]
    v = spec.scaled_weights()
    vv = np.outer(v, v)
    target = spec.market.variance
    half_a2 = 0.5 * float(np.sum(A * A))

    def neg_dual(z: np.ndarray):
        y, mu = z[:n], z[n]
        lam, Q = np.linalg.eigh(A + np.diag(y) + mu * vv)
        pos = lam > 0.0
        P = (Q[:, pos] * lam[pos]) @ Q[:, pos].T
        d = half_a2 - 0.5 * float(np.sum(lam[pos] ** 2)) + float(np.sum(y)) + mu * target
        grad = np.append(1.0 - np.diag(P), target - float(v @ P @ v))
        return -d, -grad

    res = minimize(neg_dual, np.zeros(n + 1), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-12, "gtol": 1e-8})
    return 2.0 * -res.fun - 2.0 * abs(res.x[n]) * tol * float(np.sum(np.abs(v))) ** 2


def hollow_rounding_bound(X, v) -> float:
    """A bound on |v'C(X)v by the hollow form - v'C(X)v by the dense product|.

    economic._premium's: Higham's dot-product bound gamma_m = m u / (1 - m u)
    (Accuracy and Stability of Numerical Algorithms, 2002, Sec. 3.1) puts
    the two errors at gamma_(2n+k+2) B and gamma_(2n+k) B, with r_i =
    ||x_i|| and B = (sum |v_i| r_i)^2 + sum v_i^2 (1 + r_i^2); their sum is
    at most gamma_(4n+2k+2) B.
    """
    n, k = X.shape
    r2 = np.einsum("ij,ij->i", X, X)
    mu = (4 * n + 2 * k + 2) * np.finfo(np.float64).eps / 2.0
    return mu / (1.0 - mu) * (float(np.abs(v) @ np.sqrt(r2)) ** 2 + float((v * v) @ (1.0 + r2)))
