"""Output checks of the benchmark, computed with its own numpy code.

Nothing here reads a verdict back from the program: every property is
recomputed from the matrices, loadings and numbers the program returned.
Each check function returns a list of problems; an empty list means the
output passed.  An operation with any problem counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerances of the solve checks.
REBUILD_TOL = 1e-12  # C against J o (X X') + I rebuilt from X
ROW_TOL = 1e-12  # squared row norms of X, and |c_ij|, above one
PSD_TOL = 1e-8  # smallest eigenvalue below zero
FN_RTOL = 1e-9  # reported objective against the recomputed one
EIG_RTOL = 1e-9  # program's smallest eigenvalue against ours
RESID_ATOL = 1e-12  # program's variance residual against ours


@dataclass
class SolveCheck:
    """Problems found in one solve, plus the quantities recomputed for it."""

    problems: list[str] = field(default_factory=list)
    min_eigenvalue: float = float("nan")
    residual: float = float("nan")


def offdiag_sqdist(C: np.ndarray, A: np.ndarray) -> float:
    """Squared Frobenius distance between C and A off the diagonal."""
    D = np.asarray(C, dtype=float) - np.asarray(A, dtype=float)
    np.fill_diagonal(D, 0.0)
    return float(np.sum(D * D))


def variance_residual(C: np.ndarray, sigma, weights, variance: float) -> float:
    """sigma_m^2 - v' C v with v = sigma o w."""
    v = np.asarray(sigma, dtype=float) * np.asarray(weights, dtype=float)
    return float(variance) - float(v @ np.asarray(C, dtype=float) @ v)


def check_solve(
    A,
    sigma,
    weights,
    variance: float,
    var_tol: float,
    *,
    X,
    C,
    fn: float,
    fn_trace,
    converged: bool,
) -> SolveCheck:
    """Check one nearest-matrix solve of target A under one index constraint."""
    out = SolveCheck()
    p = out.problems
    if converged is not True:
        p.append("solver reports no convergence")
    A = np.asarray(A, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    if C.shape != (n, n) or X.shape[0] != n:
        p.append(f"shapes C {C.shape}, X {X.shape} for a {n} x {n} target")
        return out

    rebuilt = X @ X.T
    np.fill_diagonal(rebuilt, 1.0)
    gap = float(np.max(np.abs(C - rebuilt)))
    if not gap <= REBUILD_TOL:
        p.append(f"C differs from J o (X X') + I by {gap:.3g}")
    r2 = float(np.max(np.einsum("ij,ij->i", X, X)))
    if not r2 <= 1.0 + ROW_TOL:
        p.append(f"a row of X has squared norm {r2!r} > 1")
    if not np.array_equal(C, C.T):
        p.append("C is not symmetric")
    if not np.all(np.diag(C) == 1.0):
        p.append("C has a diagonal entry other than one")
    if not float(np.max(np.abs(C))) <= 1.0 + ROW_TOL:
        p.append("C has an entry outside [-1, 1]")

    out.min_eigenvalue = float(np.linalg.eigvalsh(C)[0])
    if not out.min_eigenvalue >= -PSD_TOL:
        p.append(f"C is indefinite (smallest eigenvalue {out.min_eigenvalue:.3g})")
    out.residual = variance_residual(C, sigma, weights, variance)
    if not abs(out.residual) <= var_tol:
        p.append(f"index variance residual {out.residual:.3g} exceeds {var_tol:g}")

    own = offdiag_sqdist(C, A)
    if not abs(float(fn) - own) <= FN_RTOL * abs(own):
        p.append(f"reported objective {fn!r} differs from the recomputed {own!r}")
    trace = np.asarray(fn_trace, dtype=float)
    if trace.size == 0 or np.any(np.diff(trace) > 0.0):
        p.append("objective trace rises")
    elif trace[-1] != float(fn):
        p.append(f"objective trace ends at {trace[-1]!r}, not at the reported {fn!r}")
    return out


def check_report(report: dict, own: SolveCheck) -> list[str]:
    """Check a feasibility report (check_feasibility or the CLI) against ours."""
    p = []
    if report.get("feasible") is not True:
        p.append("feasibility report says infeasible")
    lam = float(report["min_eigenvalue"])
    if not abs(lam - own.min_eigenvalue) <= EIG_RTOL * max(1.0, abs(own.min_eigenvalue)):
        p.append(f"reported smallest eigenvalue {lam!r} differs from ours {own.min_eigenvalue!r}")
    res = float(report["constraint_residuals"][0])
    if not abs(res - own.residual) <= RESID_ATOL:
        p.append(f"reported residual {res!r} differs from ours {own.residual!r}")
    return p


def check_exit(rc: int, what: str) -> list[str]:
    return [] if rc == 0 else [f"{what} exited with code {rc}"]
