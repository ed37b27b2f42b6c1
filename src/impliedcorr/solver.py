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
restoration: each outer iterate moves along the negative gradient with a
Barzilai-Borwein step, and the trial point is *restored* to the
intersection of Omega (the row-norm ball products) and the variance
surface E = {X : g(X) = 0} by alternating two cheap projections:

* P_Omega rescales only the rows whose squared norm exceeds one.
* P_E moves along the first-order (Neumann) direction of the constraint,
  X_E = X + lambda (v v' o J) X with v = sigma o w, where lambda solves
  the scalar quadratic obtained by substituting X_E into g.  The quadratic
  has two roots; the restoration picks a branch on first use and keeps it
  for all subsequent projections of the same run, which prevents the
  alternation from oscillating between the two sheets of the surface.

A monotone Armijo arc search on s |-> P_feas(X - s alpha grad f) keeps the
objective trace non-increasing, so convergence of f is a certificate the
caller can check.  Because the Neumann step is only first order, the guard
in solve_nicm rescales volatilities by a common time-scale factor whenever
max_i |v_i| approaches one, and reports residuals in original units.

Cost per iteration: each trial point evaluates f and grad f once, at the
price of one n x n x k product (A_hat X); the restoration sweeps and the
tangential projection are O(n k), and no n x n matrix is formed except
on the cancellation fallback of _objective_and_gradient near f = 0.  The
O(n^3) work of a solve is the eigendecomposition of its spectral start.

reference_solve is an independent cross-check for small instances: an
augmented Lagrangian on the same objective and constraints, minimized with
scipy's L-BFGS-B from the same starting point.  It shares no projection or
line-search code with solve_nicm, so agreement of the two objective values
is meaningful evidence of correctness.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    CorrMatrix,
    FactorLoadings,
    MarketSpec,
    IndexConstraint,
    _corr_array,
    _loadings_array,
    assemble_correlation,
    constraint_normal,
    hollow_form,
)

logger = logging.getLogger(__name__)

# Spectral (Barzilai-Borwein) step bounds.
STEP_MIN = 1e-10
STEP_MAX = 1e10
# Arc search: Armijo sufficient-decrease constant, backtracking factor
# and the number of backtracks before a point counts as stationary.
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# Restoration: |g| tolerance and sweep budget of the alternation.
RESTORATION_TOL = 1e-10
MAX_RESTORATION_ITER = 100

# Rescale volatilities when max |sigma_i w_i| reaches this level; the
# first-order equality projection degrades as the entries approach one.
V_RESCALE_AT = 0.9

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
    solution.  fn_tol stops the outer loop once the objective improvement
    of an accepted step falls below it; the test is absolute, so on large
    objectives (n in the hundreds) it is a small relative one and a solve
    can run into max_outer_iter, which a larger fn_tol (CLI --tol-fn)
    avoids.  The method constants (Armijo, backtracking, spectral step
    bounds, restoration tolerance and sweep budget) are module constants.
    """

    k: int = 1
    var_tol: float = 1e-6
    fn_tol: float = 1e-3
    max_outer_iter: int = 200

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        for name in ("var_tol", "fn_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
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
    time_scale: float = 1.0
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
            "time_scale": self.time_scale,
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


def _project_equality_raw(arr: np.ndarray, v: np.ndarray, target: float) -> tuple[np.ndarray, float, float]:
    """First-order projection onto the index variance surface.

    The move direction is the constraint normal pulled back through the
    factor structure: X_E(lambda) = X + lambda Y with Y = K X.  With the
    hollow form H(L, R) = v' [(L R') o J] v = <L, K R>, the model variance
    along the move is H(X, X) + 2 lambda H(X, Y) + lambda^2 H(Y, Y) + v'v,
    and H(X, Y) = ||Y||^2, so g = 0 becomes the scalar quadratic

        a lambda^2 + b lambda + c = 0,
        a = <Y, K Y>,   b = 2 ||Y||_F^2,   c = <X, Y> + v'v - sigma_m^2,

    solved with the numerically stable quadratic formula.  Returns the
    direction Y and both roots (lam_plus, lam_minus); the move is
    X + lambda Y, and callers choose a branch and stick with it.  Both
    moves run along Y, so the shorter one has the smaller |lambda|.

    Degenerate cases: a = 0 falls back to the linear root -c/b on both
    branches; a = b = 0 with the constraint unmet means it is insensitive
    to moves along K X and raises RestorationError.  A negative
    discriminant (surface unreachable at first order from X) keeps the
    real part -b/(2a) on both branches so the alternation can continue
    from the closest approach.
    """
    Y = constraint_normal(v, arr)
    a = float(np.vdot(Y, constraint_normal(v, Y)))
    b = 2.0 * float(np.vdot(Y, Y))
    c = float(np.vdot(arr, Y)) + float(v @ v) - target

    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                # Constraint already satisfied and flat along K X; stay put.
                lam_plus = lam_minus = 0.0
            else:
                raise RestorationError(_INSENSITIVE, residual=-c)
        else:
            lam_plus = lam_minus = -c / b
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            # Closest approach of the quadratic to zero.
            lam_plus = lam_minus = -b / (2.0 * a)
        elif b == 0.0:
            r = math.sqrt(disc) / (2.0 * a)
            lam_plus, lam_minus = r, -r
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            r1, r2 = q / a, c / q
            # Label by the textbook formula: plus root carries +sqrt(disc).
            if b > 0.0:
                lam_plus, lam_minus = r2, r1
            else:
                lam_plus, lam_minus = r1, r2

    return Y, float(lam_plus), float(lam_minus)


def _residual_raw(arr: np.ndarray, v: np.ndarray, target: float) -> float:
    return target - (hollow_form(v, arr, arr) + float(v @ v))


def _residual(arr: np.ndarray, spec: MarketSpec) -> float:
    return _residual_raw(arr, spec.scaled_weights(), spec.market.variance)


def _rescue_boundary(arr: np.ndarray, v: np.ndarray, target: float) -> np.ndarray | None:
    """One-shot restoration for boundary-pinned alternation fixed points.

    When rows sit on the ball the two projections fight each other: the
    constraint step pushes rows out, the clip pulls them back, and the
    alternation converges at a rate that approaches one.  The cure is to
    treat the pair as a single curve lam |-> clip(X + lam K X) and solve
    the scalar residual equation on it directly.  Returns the feasible
    point, or None when no sign change brackets a root.
    """
    from scipy.optimize import brentq

    Y = constraint_normal(v, arr)

    def clipped(lam: float) -> np.ndarray:
        return _project_omega_raw(arr + lam * Y)

    def phi(lam: float) -> float:
        return _residual_raw(clipped(lam), v, target)

    phi0 = phi(0.0)
    if abs(phi0) <= RESTORATION_TOL:
        return clipped(0.0)
    lo, hi = 0.0, None
    for sign in (1.0, -1.0):
        mag = 1e-8
        prev = 0.0
        while mag <= 1e8:
            lam = sign * mag
            if phi(lam) * phi0 < 0.0:
                lo, hi = prev, lam
                break
            prev = lam
            mag *= 10.0
        if hi is not None:
            break
    if hi is None:
        return None
    lam_star = brentq(phi, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
    out = clipped(lam_star)
    if abs(_residual_raw(out, v, target)) <= RESTORATION_TOL:
        return out
    return None


def _project_feasible_raw(
    arr: np.ndarray, v: np.ndarray, target: float, fastfail: bool = False
) -> np.ndarray:
    # Every correlation matrix is the Gram matrix of unit vectors z_i, so
    # v'Cv = ||sum_i v_i z_i||^2 lies between (2 max|v_i| - sum|v_i|)_+^2
    # (triangle inequality) and (sum|v_i|)^2 (comonotonic); a target
    # outside that range is infeasible for every k.
    absv = np.abs(v)
    total = float(absv.sum())
    min_var = max(0.0, 2.0 * float(absv.max()) - total) ** 2
    if target < min_var - RESTORATION_TOL:
        raise RestorationError(
            f"index variance target {target:g} is below the attainable minimum "
            f"(2 max|v_i| - sum|v_i|)^2 = {min_var:g}; no feasible loadings exist",
            residual=target - min_var,
        )
    # Targets at the comonotonic bound admit exactly one feasible point
    # (every pairwise correlation equal to one).  The variance surface is
    # tangent to the ball there, so alternating projections stall; build
    # the point directly instead.
    max_var = total ** 2
    if target >= max_var - RESTORATION_TOL:
        com = np.zeros_like(arr)
        com[:, 0] = np.where(v < 0.0, -1.0, 1.0)
        resid = _residual_raw(com, v, target)
        if abs(resid) <= RESTORATION_TOL:
            return com
        raise RestorationError(
            f"index variance target {target:g} exceeds the comonotonic bound "
            f"{max_var:g}; no feasible loadings exist",
            residual=resid,
        )

    # Lock the branch of the shorter first move (tie to plus).
    Y, lam_plus, lam_minus = _project_equality_raw(arr, v, target)
    minus = abs(lam_minus) < abs(lam_plus)
    cur = arr + (lam_minus if minus else lam_plus) * Y

    # Row slack 1e-12 instead of exact membership: at targets sitting on
    # the comonotonic bound the fixed point straddles the ball boundary by
    # a few ulp.  The point returned is the exact clip of the converged
    # one; with large |v| even that clip can move g past RESTORATION_TOL,
    # in which case the alternation goes on.
    resid = _residual_raw(cur, v, target)
    merits: list[float] = []
    for sweep in range(MAX_RESTORATION_ITER):
        r2 = np.einsum("ij,ij->i", cur, cur)
        if abs(resid) <= RESTORATION_TOL and np.all(r2 <= 1.0 + 1e-12):
            out = _project_omega_raw(cur)
            if abs(_residual_raw(out, v, target)) <= RESTORATION_TOL:
                return out
        # Line-search trial points can be rejected cheaply: the alternation
        # converges linearly at a rate set by the intersection angle, and a
        # sweep budget of 100 only suffices when each 20-sweep window cuts
        # the combined infeasibility by well over 95%.  Windows that fall
        # short mark a hopeless attempt.  The solve-level restoration keeps
        # the full sweep allowance (fastfail=False).
        if fastfail:
            merit = abs(resid) + max(0.0, float(np.max(r2)) - 1.0)
            merits.append(merit)
            if len(merits) > 20 and merit > 0.05 * merits[-21]:
                rescued = _rescue_boundary(cur, v, target)
                if rescued is not None:
                    return rescued
                raise RestorationError(
                    f"restoration stalled after {sweep + 1} sweeps "
                    f"(residual {resid!r} not improving)",
                    residual=resid,
                )
        cur = _project_omega_raw(cur)
        Y, lam_plus, lam_minus = _project_equality_raw(cur, v, target)
        cur = cur + (lam_minus if minus else lam_plus) * Y
        g = _residual_raw(cur, v, target)
        if not math.isfinite(g):
            # The rows collapsed towards zero until the move overflowed.
            raise RestorationError(_INSENSITIVE, residual=resid)
        resid = g
    rescued = _rescue_boundary(cur, v, target)
    if rescued is not None:
        return rescued
    raise RestorationError(
        f"restoration did not reach |g| <= {RESTORATION_TOL:g} inside Omega "
        f"within {MAX_RESTORATION_ITER} sweeps (last residual {resid!r})",
        residual=resid,
    )


def project_feasible(X, spec: MarketSpec) -> np.ndarray:
    """Restore a point to Omega intersected with the variance surface.

    The first equality projection selects the branch (the root with the
    shorter move) and locks it; afterwards the restoration alternates
    P_Omega and the locked-branch P_E until the residual drops below
    RESTORATION_TOL (1e-10) with all rows inside Omega.  The returned
    rows satisfy ||X_i||^2 <= 1 + 1e-12 and |g| <= RESTORATION_TOL.
    Already-feasible points are returned unchanged.

    Raises RestorationError carrying the final residual when the target
    lies outside the attainable range [(2 max|v_i| - sum|v_i|)_+^2,
    (sum|v_i|)^2] of v'Cv, when the alternation does not converge within
    MAX_RESTORATION_ITER sweeps, or when it collapses the rows so far that
    the constraint no longer responds to them.
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


def _rescaled_spec(spec: MarketSpec) -> tuple[MarketSpec, float]:
    """Common time-scale change so that max |sigma_i w_i| < V_RESCALE_AT."""
    vmax = float(np.max(np.abs(spec.scaled_weights())))
    if vmax < V_RESCALE_AT:
        return spec, 1.0
    scale = vmax / (V_RESCALE_AT * 0.5)
    m = spec.market
    con = IndexConstraint(m.name, m.weights, m.variance / (scale * scale))
    logger.info("rescaling volatilities by 1/%.4g (max |sigma_i w_i| = %.4g)", scale, vmax)
    return MarketSpec(spec.sigma / scale, (con,)), scale


def solve_nicm(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Nearest factor-structured correlation matrix to the target A.

    Spectral projected gradient outer loop with inexact restoration, as
    described in the module docstring.  The target need not be PSD.

    A successful result satisfies, with X* the returned loadings:
    f trace non-increasing, |g(X*)| <= var_tol, min_i h_i(X*) >= -1e-12,
    and C_star = C(X*) PSD by construction.  converged=False (with the
    reason in message) is returned when the iteration limit is hit before
    the improvement test fires; a restoration failure from the starting
    point propagates as RestorationError.

    Parameters
    ----------
    A : CorrMatrix or array_like
        Target matrix (symmetric, unit diagonal; PSD not required).
    spec : MarketSpec
        Volatilities and the index variance constraint.
    config : SolverConfig, optional
        Factor count k, tolerances and the outer iteration limit.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig()
    A_corr = A if isinstance(A, CorrMatrix) else CorrMatrix(A)
    if A_corr.n != spec.n:
        raise ValueError(f"target is {A_corr.n} x {A_corr.n} for {spec.n} assets")

    work_spec, scale = _rescaled_spec(spec)
    A_hat, a2 = _target_offdiag(A_corr)
    v = work_spec.scaled_weights()
    target = work_spec.market.variance
    restorations = 0

    def tangential(gr: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # Remove the component along the constraint normal grad g = -2 K Y
        # (the factor -2 cancels inside the projection).  Steps along the
        # result leave g unchanged to first order, so the restoration only
        # has to absorb second-order drift and long moves survive it.
        N = constraint_normal(v, Y)
        nn = float(np.sum(N * N))
        if nn == 0.0:
            return gr
        return gr - (float(np.sum(gr * N)) / nn) * N

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
        accepted = False
        T = X
        fT = f
        for _ in range(MAX_BACKTRACKS):
            try:
                trial = _project_omega_raw(X - (s * alpha) * direction)
                T = _project_feasible_raw(trial, v, target, fastfail=True)
                restorations += 1
            except RestorationError:
                s *= BACKTRACK
                continue
            fT, gT = _objective_and_gradient(T, A_hat, a2)
            descent = float(np.sum(grad * (T - X)))
            if descent < 0.0 and fT <= f + ARMIJO_C1 * descent:
                accepted = True
                break
            s *= BACKTRACK
        if not accepted:
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

        if improvement < config.fn_tol:
            converged = True
            message = "objective improvement below tolerance"
            break

    # Residual is reported against the original (unscaled) market spec.
    residual = _residual(X, spec)
    if converged and abs(residual) > config.var_tol:
        converged = False
        message = (
            f"constraint residual {residual!r} exceeds var_tol after rescaling "
            f"(time scale {scale:g})"
        )

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
        time_scale=scale,
        message=message,
    )


def reference_solve(
    A,
    spec: MarketSpec,
    k: int,
    config: SolverConfig | None = None,
) -> SolverResult:
    """Independent augmented-Lagrangian solver for small cross-checks.

    Minimizes the same objective under the same constraints with a
    classical augmented Lagrangian (multiplier + quadratic penalty for the
    equality, Powell-Hestenes-Rockafellar terms for the row inequalities),
    using scipy's L-BFGS-B as inner solver on the flattened loadings.  It
    starts from the same spectral point as solve_nicm so both methods
    descend into the same basin, but shares none of the projection or
    line-search machinery.  Intended for n up to about 25.
    """
    from scipy.optimize import minimize

    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig(k=k)
    A_arr = _corr_array(A)
    n = A_arr.shape[0]
    if n > 30:
        raise ValueError(f"reference solver is meant for small instances (n <= 30), got n = {n}")

    work_spec, scale = _rescaled_spec(spec)
    A_hat = A_arr.copy()
    np.fill_diagonal(A_hat, 0.0)
    v = work_spec.scaled_weights()
    target = work_spec.market.variance
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
    converged = abs(residual) <= config.var_tol * max(1.0, scale * scale)

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
        time_scale=scale,
        message="augmented-lagrangian reference",
    )
