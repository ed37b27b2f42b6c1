"""Nearest implied correlation matrix with factor structure.

Given a target matrix A (typically an ex-post estimate, possibly indefinite)
and a market constraint, find loadings X solving

    min_X  f(X) = || J o (X X') - (A - I) ||_F^2
    s.t.   g(X) = sigma_m^2 - w' diag(sigma) C(X) diag(sigma) w = 0
           h_i(X) = 1 - ||X_i||^2 >= 0  for every row i,

so that C(X) = J o (X X') + I is the factor-structured correlation matrix
nearest to A that is both PSD by construction and consistent with the
option-implied index variance.

The solver is a spectral projected gradient method with inexact
restoration (Martinez & Pilotta, JOTA 104 (2000)): each outer iterate
moves along the negative gradient with a Barzilai-Borwein step, and the
trial point is *restored* to the intersection of Omega (the row-norm ball
products) and the variance surface E = {X : g(X) = 0} along one clipped
curve, lam |-> P_Omega(X + lam K X) with K = v v' o J and v = sigma o w.
P_Omega rescales only the rows whose squared norm exceeds one.  A curve
search walks phi(lam) = g(P_Omega(X + lam K X)) out from its first-order
root and refines a sign change by Illinois regula falsi; without one it
moves to the sampled point nearest E and searches again from there.

The outer step holds the sphere rows it would push outward and is
tangential to E, so the restoration only absorbs second-order drift.  A
monotone Armijo arc search on s |-> P_feas(X - s alpha d) keeps the
objective trace non-increasing, and the loop stops once an accepted step
improves f by less than FN_RTOL * f.  Under a change of units v -> s v,
K X scales by s^2 and the first-order root by 1 / s^2, so the curve's
points stay the same.  Only the tolerances carry units, and they are
relative to the comonotonic bound: |g| <= RESTORATION_TOL * max(1,
(sum_i |v_i|)^2), with roots refined to ROOT_TOL times the same bound.

Cost per iteration: each trial point evaluates f and grad f once, at the
price of one n x n x k product (A_hat X); each curve sample and each pass
of the tangential projection is O(n k), and no n x n matrix is formed
except on the cancellation fallback of _objective_and_gradient near
f = 0.  The O(n^3) work of a solve is the eigendecomposition of its
spectral start.

reference_solve is an independent cross-check for small instances: an
augmented Lagrangian on the same objective and constraints, minimized with
scipy's L-BFGS-B from the same starting point.  It shares no projection or
line-search code with solve_nicm, so agreement of the two objective values
is meaningful evidence of correctness.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    EPS_FEAS,
    CorrMatrix,
    FactorLoadings,
    MarketSpec,
    _corr_array,
    _loadings_array,
    assemble_correlation,
    constraint_normal,
    hollow_form,
)

# Spectral (Barzilai-Borwein) step bounds.
STEP_MIN = 1e-10
STEP_MAX = 1e10
# Arc search: Armijo sufficient-decrease constant, backtracking factor
# and the number of backtracks before a point counts as stationary.
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# The outer loop stops once an accepted step improves f by less than
# FN_RTOL * f.
FN_RTOL = 1e-5
# Restoration: |g| tolerance, the root tolerance of one curve search (both
# times max(1, (sum_i |v_i|)^2)) and the budget of curve searches.
RESTORATION_TOL = 1e-10
ROOT_TOL = 1e-16
MAX_RESTORATION_ITER = 100

_INSENSITIVE = (
    "variance constraint is insensitive to the loadings at this point "
    "(degenerate projection direction)"
)


class RestorationError(RuntimeError):
    """Restoration to the feasible set failed; carries the last residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Factor count and stopping tolerances of the nearest-matrix solver.

    var_tol bounds the admissible constraint residual |g| of a converged
    solution, in the units of the spec's index variance; the restoration
    meets RESTORATION_TOL * max(1, (sum_i |sigma_i w_i|)^2), below the
    default var_tol unless sum_i |sigma_i w_i| exceeds 100.  The outer
    loop stops once an accepted step improves f by less than FN_RTOL * f,
    or after max_outer_iter iterations.  The method constants are module
    constants.
    """

    k: int = 1
    var_tol: float = 1e-6
    max_outer_iter: int = 200

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.var_tol <= 0.0:
            raise ValueError(f"var_tol must be positive, got {self.var_tol!r}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be at least 1, got {self.max_outer_iter}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown solver config fields: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class SolverResult:
    """Converged (or best-effort) output of solve_nicm / reference_solve."""

    X_star: FactorLoadings
    C_star: CorrMatrix
    fn: float
    fn_trace: np.ndarray
    constraint_residual: float
    outer_iterations: int
    restorations: int
    wall_time: float
    converged: bool
    message: str = ""

    def to_dict(self) -> dict:
        """JSON-ready summary; the matrices are exported separately as CSV."""
        return {
            "fn": self.fn,
            "fn_trace": [float(v) for v in self.fn_trace],
            "constraint_residual": self.constraint_residual,
            "outer_iterations": self.outer_iterations,
            "restorations": self.restorations,
            "wall_time": self.wall_time,
            "converged": self.converged,
            "message": self.message,
            "n": self.X_star.n,
            "k": self.X_star.k,
        }


def _target_offdiag(A) -> tuple[np.ndarray, float]:
    """A_hat = A - I, realized as A with its diagonal zeroed, and ||A_hat||_F^2."""
    A_hat = _corr_array(A).copy()
    np.fill_diagonal(A_hat, 0.0)
    return A_hat, float(np.vdot(A_hat, A_hat))


def _objective_and_gradient(X: np.ndarray, A_hat: np.ndarray, a2: float) -> tuple[float, np.ndarray]:
    """f(X) and grad f(X) = 4 D X with D = J o (X X') - A_hat, a2 = ||A_hat||^2.

    No n x n matrix is formed on the fast path.  With G = X'X, the row
    norms r_i = ||X_i||^2 and A_hat X (one n x n x k product), A_hat
    having a zero diagonal,

        f       = ||G||^2 - sum_i r_i^2 - 2 <X, A_hat X> + a2,
        grad f  = 4 (X G - r o X - A_hat X).

    The expansion subtracts terms of size ||G||^2 + 2|<X, A_hat X>| + a2,
    so near f = 0 it cancels: at truth targets (A = C(X)) with n = 500 it
    returns values of up to 2e-11, of either sign, where the direct form
    returns 0.  Its value is kept only when f exceeds 1e-4 of that scale,
    where its relative error stays near 1e-12; below that, f and grad f
    come from the direct residual D, so no negative or inaccurate f is
    ever reported.
    """
    G = X.T @ X
    r = np.einsum("ij,ij->i", X, X)
    AX = A_hat @ X
    g2 = float(np.vdot(G, G))
    cross = float(np.vdot(X, AX))
    f = g2 - float(r @ r) - 2.0 * cross + a2
    if f > 1e-4 * (g2 + 2.0 * abs(cross) + a2):
        return f, 4.0 * (X @ G - r[:, None] * X - AX)
    D = X @ X.T
    np.fill_diagonal(D, 0.0)
    D -= A_hat
    return float(np.sum(D * D)), 4.0 * (D @ X)


def objective(X, A) -> float:
    """f(X) = || J o (X X') - (A - I) ||_F^2."""
    return _objective_and_gradient(_loadings_array(X), *_target_offdiag(A))[0]


def objective_gradient(X, A) -> np.ndarray:
    """grad f(X) = 4 (J o (X X') - (A - I)) X."""
    return _objective_and_gradient(_loadings_array(X), *_target_offdiag(A))[1]


def _project_omega_raw(arr: np.ndarray) -> np.ndarray:
    r2 = np.einsum("ij,ij->i", arr, arr)
    over = r2 > 1.0
    if not np.any(over):
        return arr.copy()
    scale = np.ones(arr.shape[0])
    scale[over] = 1.0 / np.sqrt(r2[over])
    return arr * scale[:, None]


def project_omega(X) -> np.ndarray:
    """Nearest point of Omega: rescale rows with squared norm above one.

    Rows already inside the ball are returned bit-identically, so the
    projection is idempotent.
    """
    return _project_omega_raw(_loadings_array(X))


def _residual_raw(arr: np.ndarray, v: np.ndarray, target: float) -> float:
    return target - (hollow_form(v, arr, arr) + float(v @ v))


def _residual(arr: np.ndarray, spec: MarketSpec) -> float:
    return _residual_raw(arr, spec.scaled_weights(), spec.market.variance)


def _curve_sample(cur: np.ndarray, Y: np.ndarray, v: np.ndarray, target: float, lam: float) -> tuple:
    """The sample (lam, phi(lam), P_Omega(cur + lam Y)), phi being g there."""
    P = _project_omega_raw(cur + lam * Y)
    g = _residual_raw(P, v, target)
    if not math.isfinite(g):
        raise RestorationError(_INSENSITIVE)
    return lam, g, P


# perfbench's tracer counts curve searches and root refinements by the
# names _project_equality_raw and _rescue_boundary.
def _rescue_boundary(
    cur: np.ndarray, Y: np.ndarray, v: np.ndarray, target: float, eps: float, a: tuple, b: tuple
) -> tuple:
    """Illinois regula falsi on phi between the samples a and b.

    phi(a) and phi(b) have opposite signs.  The bracket shrinks until
    |phi| <= eps or no float is left strictly inside it; returns the
    sample with the smallest |phi|.
    """
    best = min(a, b, key=lambda s: abs(s[1]))
    (la, fa, _), (lb, fb, _) = a, b
    side = 0
    while abs(best[1]) > eps:
        lc = (la * fb - lb * fa) / (fb - fa)
        if not min(la, lb) < lc < max(la, lb):
            break
        c = _curve_sample(cur, Y, v, target, lc)
        best = min(best, c, key=lambda s: abs(s[1]))
        # An endpoint kept twice in a row has its value halved, so the
        # secant cannot stall on one side of the root.
        if (c[1] > 0.0) == (fb > 0.0):
            lb, fb = c[0], c[1]
            fa *= 0.5 if side == -1 else 1.0
            side = -1
        else:
            la, fa = c[0], c[1]
            fb *= 0.5 if side == 1 else 1.0
            side = 1
    return best


def _project_equality_raw(
    cur: np.ndarray, v: np.ndarray, target: float, eps: float
) -> tuple[np.ndarray, float]:
    """One search along the clipped curve lam |-> P_Omega(cur + lam Y), Y = K cur.

    Along the unclipped move g = g(cur) - 2 lam ||Y||^2 + O(lam^2), so the
    walk on phi(lam) = g(P_Omega(cur + lam Y)) starts at the first-order
    root g / (2 ||Y||^2).  It halves lam while |phi| does not shrink, then
    doubles it while phi keeps its sign and |phi| keeps shrinking.  A sign
    change is refined to |phi| <= eps; otherwise the sample nearest the
    surface is returned (cur itself if none is nearer), with its residual.
    Raises RestorationError when Y = 0: g is then insensitive to the curve.
    """
    Y = constraint_normal(v, cur)
    g0 = _residual_raw(cur, v, target)
    yy = float(np.vdot(Y, Y))
    if yy == 0.0 or not math.isfinite(g0 / yy):
        raise RestorationError(_INSENSITIVE, residual=g0)
    near, far = _curve_sample(cur, Y, v, target, g0 / (2.0 * yy)), None
    while abs(near[1]) >= abs(g0):
        if np.array_equal(cur + 0.5 * near[0] * Y, cur):
            return cur, g0
        far, near = near, _curve_sample(cur, Y, v, target, 0.5 * near[0])
    prev = (0.0, g0, cur)
    while (near[1] > 0.0) == (g0 > 0.0) and abs(near[1]) > eps:
        nxt = far or _curve_sample(cur, Y, v, target, 2.0 * near[0])
        far = None
        if (nxt[1] > 0.0) == (g0 > 0.0) and abs(nxt[1]) >= abs(near[1]):
            return near[2], near[1]
        prev, near = near, nxt
    _, g, P = _rescue_boundary(cur, Y, v, target, eps, prev, near)
    return P, g


def _project_feasible_raw(arr: np.ndarray, v: np.ndarray, target: float) -> np.ndarray:
    # Every correlation matrix is the Gram matrix of unit vectors z_i, so
    # v'Cv = ||sum_i v_i z_i||^2 lies between (2 max|v_i| - sum|v_i|)_+^2
    # (triangle inequality) and (sum|v_i|)^2 (comonotonic); a target
    # outside that range is infeasible for every k.  Every tolerance is
    # relative to the comonotonic bound, so the restoration is scale-free.
    absv = np.abs(v)
    total = float(absv.sum())
    max_var = total ** 2
    unit = max(1.0, max_var)
    tol = RESTORATION_TOL * unit
    min_var = max(0.0, 2.0 * float(absv.max()) - total) ** 2
    if target < min_var - tol:
        raise RestorationError(
            f"index variance target {target:g} is below the attainable minimum "
            f"(2 max|v_i| - sum|v_i|)^2 = {min_var:g}; no feasible loadings exist",
            residual=target - min_var,
        )
    # Targets at the comonotonic bound admit exactly one feasible point
    # (every pairwise correlation equal to one).  The variance surface is
    # tangent to the ball there, so no curve crosses it; build the point
    # directly instead.
    if target >= max_var - tol:
        com = np.zeros_like(arr)
        com[:, 0] = np.where(v < 0.0, -1.0, 1.0)
        resid = _residual_raw(com, v, target)
        if abs(resid) <= tol:
            return com
        raise RestorationError(
            f"index variance target {target:g} exceeds the comonotonic bound "
            f"{max_var:g}; no feasible loadings exist",
            residual=resid,
        )

    cur = _project_omega_raw(arr)
    resid = _residual_raw(cur, v, target)
    for _ in range(MAX_RESTORATION_ITER):
        if abs(resid) <= tol:
            return cur
        cur, g = _project_equality_raw(cur, v, target, ROOT_TOL * unit)
        if abs(g) >= abs(resid):
            # No point of the curve is nearer the surface: cur is a
            # critical point of g on Omega (the rows collapsed, say).
            raise RestorationError(_INSENSITIVE, residual=resid)
        resid = g
    if abs(resid) <= tol:
        return cur
    raise RestorationError(
        f"restoration did not reach |g| <= {tol:g} inside Omega "
        f"within {MAX_RESTORATION_ITER} curve searches (last residual {resid!r})",
        residual=resid,
    )


def project_feasible(X, spec: MarketSpec) -> np.ndarray:
    """Restore a point to Omega intersected with the variance surface.

    The point is clipped to Omega, then searched along the clipped curve
    of the module docstring until |g| <= tol = RESTORATION_TOL *
    max(1, (sum_i |v_i|)^2), v = sigma o w; bracketed roots are refined
    to ROOT_TOL times the same bound.  The returned rows satisfy
    ||X_i||^2 <= 1 + 1e-12.  tol is 1e-10 wherever sum_i |v_i| <= 1 and
    scales with the variance units, so volatilities may be quoted in any
    units.  Already-feasible points are returned unchanged.

    Raises RestorationError carrying the final residual when the target
    lies outside the attainable range [(2 max|v_i| - sum|v_i|)_+^2,
    (sum|v_i|)^2] of v'Cv, when MAX_RESTORATION_ITER curve searches do
    not reach tol, or when g is insensitive to the curve (K X vanishes,
    or no point of the curve is nearer the surface).
    """
    arr = _loadings_array(X)
    v = spec.scaled_weights()
    if v.size != arr.shape[0]:
        raise ValueError(f"spec has {v.size} assets, loadings have {arr.shape[0]} rows")
    return _project_feasible_raw(arr, v, spec.market.variance)


def initial_loadings(A, k: int) -> FactorLoadings:
    """Spectral starting point for the solver.

    Column d of X0 is a scaled copy of the d-th dominant eigenvector e_d of
    the target (eigenvalues iota_d in descending order):

        X0[:, d] = varsigma_d e_d,
        varsigma_d = min( sqrt( (iota_d - 1) ||e_d||^2
                                / (k (||e_d||^4 - sum_i e_{d,i}^4)) ),
                          1 / (sqrt(k) max_i |e_{d,i}|) ).

    The first argument matches the dominant off-diagonal mass of the
    target along e_d; the second caps every row so X0 lands inside Omega
    regardless.  Eigenvalues at or below one make the first argument zero
    or imaginary, in which case the cap (or zero, for iota_d = 1 exactly)
    is used alone; a degenerate denominator likewise falls back to the
    cap.  For the identity target all columns are zero.
    """
    A_arr = _corr_array(A)
    n = A_arr.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    evals, evecs = np.linalg.eigh(A_arr)
    order = np.argsort(-evals, kind="stable")

    X0 = np.zeros((n, k))
    for d in range(k):
        e = evecs[:, order[d]]
        # Deterministic eigenvector sign: largest-magnitude entry positive.
        imax = int(np.argmax(np.abs(e)))
        if e[imax] < 0.0:
            e = -e
        iota = float(evals[order[d]])
        norm2 = float(e @ e)
        num = (iota - 1.0) * norm2
        den = k * (norm2 * norm2 - float(np.sum(e**4)))
        cap = 1.0 / (math.sqrt(k) * float(np.max(np.abs(e))))
        if num == 0.0:
            varsigma = 0.0
        elif num > 0.0 and den > 0.0:
            varsigma = min(math.sqrt(num / den), cap)
        else:
            # iota_d < 1 (imaginary radicand) or a denominator that
            # vanishes: keep only the Omega cap.
            varsigma = cap
        X0[:, d] = varsigma * e
    return FactorLoadings(X0)


def solve_nicm(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Nearest factor-structured correlation matrix to the target A.

    Spectral projected gradient outer loop with inexact restoration, as
    described in the module docstring.  The target need not be PSD.

    A successful result satisfies, with X* the returned loadings:
    f trace non-increasing, |g(X*)| <= var_tol, min_i h_i(X*) >= -1e-12,
    and C_star = C(X*) PSD by construction.  The loop stops when an
    accepted step improves f by less than FN_RTOL * f, or when the arc
    search finds no acceptable step.  converged=False (with the reason in
    message) is returned when max_outer_iter is hit first, or when the
    final residual exceeds var_tol; a restoration failure from the
    starting point propagates as RestorationError.  Where
    sum_i |sigma_i w_i| >= 1 before and after, scaling sigma by s and the
    index variance by s^2 leaves every move unchanged up to rounding (see
    the module docstring); var_tol stays absolute, in the units of the
    index variance.

    Parameters
    ----------
    A : CorrMatrix or array_like
        Target matrix (symmetric, unit diagonal; PSD not required).
    spec : MarketSpec
        Volatilities and the index variance constraint.
    config : SolverConfig, optional
        Factor count k, var_tol and the outer iteration limit.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig()
    A_corr = A if isinstance(A, CorrMatrix) else CorrMatrix(A)
    if A_corr.n != spec.n:
        raise ValueError(f"target is {A_corr.n} x {A_corr.n} for {spec.n} assets")

    A_hat, a2 = _target_offdiag(A_corr)
    v = spec.scaled_weights()
    target = spec.market.variance
    restorations = 0

    def tangential(gr: np.ndarray, X: np.ndarray) -> np.ndarray:
        # Hold the sphere rows that the step X - s d pushes outward (their
        # radial components leave grad f and K X), then remove the
        # component along grad g = -2 K X; where that turns the step
        # outward on another sphere row, hold it too.  Steps along the
        # result leave g and the held rows' norms unchanged to first order,
        # so the restoration only absorbs second-order drift.
        N = constraint_normal(v, X)
        r2 = np.einsum("ij,ij->i", X, X)
        sphere = r2 >= 1.0 - EPS_FEAS
        held = sphere & (np.einsum("ij,ij->i", X, gr) < 0.0)
        while True:
            u = held / np.where(held, r2, 1.0)
            gh = gr - (u * np.einsum("ij,ij->i", X, gr))[:, None] * X
            Nh = N - (u * np.einsum("ij,ij->i", X, N))[:, None] * X
            nn = float(np.vdot(Nh, Nh))
            d = gh if nn == 0.0 else gh - (float(np.vdot(gh, Nh)) / nn) * Nh
            out = sphere & ~held & (np.einsum("ij,ij->i", X, d) < 0.0)
            if not np.any(out):
                return d
            held |= out

    X = initial_loadings(A_corr, config.k).values
    X = _project_feasible_raw(X, v, target)
    restorations += 1

    f, grad = _objective_and_gradient(X, A_hat, a2)
    trace = [f]

    gnorm = float(np.max(np.abs(grad)))
    alpha = min(max(1.0 / gnorm, STEP_MIN), STEP_MAX) if gnorm > 0.0 else 1.0

    converged = False
    message = "iteration limit reached"
    outer = 0
    # Length of the last accepted move; seeds the arc search after a
    # safeguarded (denominator <= 0) spectral step, whose STEP_MAX
    # fallback carries no scale information of its own.
    accepted_len = None

    for outer in range(1, config.max_outer_iter + 1):
        if alpha >= STEP_MAX and accepted_len is not None:
            s = min(1.0, 8.0 * accepted_len / alpha)
        else:
            s = 1.0
        direction = tangential(grad, X)
        for _ in range(MAX_BACKTRACKS):
            try:
                T = _project_feasible_raw(X - (s * alpha) * direction, v, target)
                restorations += 1
            except RestorationError:
                s *= BACKTRACK
                continue
            fT, gT = _objective_and_gradient(T, A_hat, a2)
            descent = float(np.sum(grad * (T - X)))
            if descent < 0.0 and fT <= f + ARMIJO_C1 * descent:
                break
            s *= BACKTRACK
        else:
            converged = True
            message = "arc search exhausted without an acceptable step (projected stationary point)"
            outer -= 1
            break

        accepted_len = s * alpha
        dX = T - X
        dG = gT - grad
        X = T
        grad = grad + dG
        improvement = f - fT
        f = fT
        trace.append(f)

        sty = float(np.sum(dX * dG))
        if sty <= 0.0:
            alpha = STEP_MAX
        else:
            alpha = min(max(float(np.sum(dX * dX)) / sty, STEP_MIN), STEP_MAX)

        if improvement < FN_RTOL * f:
            converged = True
            message = "relative objective improvement below tolerance"
            break

    residual = _residual(X, spec)
    if converged and abs(residual) > config.var_tol:
        converged = False
        message = f"constraint residual {residual!r} exceeds var_tol"

    return SolverResult(
        X_star=FactorLoadings(X),
        C_star=assemble_correlation(X),
        fn=f,
        fn_trace=np.array(trace),
        constraint_residual=residual,
        outer_iterations=outer,
        restorations=restorations,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        message=message,
    )


def reference_solve(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Independent augmented-Lagrangian solver for small cross-checks.

    Minimizes the same objective under the same constraints with a
    classical augmented Lagrangian (multiplier + quadratic penalty for the
    equality, Powell-Hestenes-Rockafellar terms for the row inequalities),
    using scipy's L-BFGS-B as inner solver on the flattened loadings.  It
    starts from the same spectral point as solve_nicm so both methods
    descend into the same basin, but shares none of the projection or
    line-search machinery.  The factor count and var_tol come from config
    (default SolverConfig()).  Intended for n up to about 25.
    """
    from scipy.optimize import minimize

    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig()
    k = config.k
    A_arr = _corr_array(A)
    n = A_arr.shape[0]
    if n > 30:
        raise ValueError(f"reference solver is meant for small instances (n <= 30), got n = {n}")

    A_hat = A_arr.copy()
    np.fill_diagonal(A_hat, 0.0)
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
    g_last = math.nan
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
        g_last = g
        viol = max(abs(g), float(np.max(np.maximum(0.0, -h), initial=0.0)))
        if viol <= min(config.var_tol, 1e-9):
            lam += mu * g
            kappa = np.maximum(0.0, kappa - mu * h)
            break
        lam += mu * g
        kappa = np.maximum(0.0, kappa - mu * h)
        if viol > 0.25 * viol_prev:
            mu *= 10.0
        viol_prev = viol

    X = x.reshape(n, k)
    # Snap the solution into Omega; the PHR terms leave at most tiny
    # violations, so the objective moves negligibly.
    X = project_omega(X)
    fn = objective(X, A_arr)
    residual = _residual(X, spec)
    converged = abs(residual) <= config.var_tol

    return SolverResult(
        X_star=FactorLoadings(X),
        C_star=assemble_correlation(X),
        fn=fn,
        fn_trace=np.array([fn]),
        constraint_residual=residual,
        outer_iterations=inner_iters,
        restorations=0,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        message="augmented-lagrangian reference",
    )
