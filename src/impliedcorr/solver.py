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

A solve has three phases.  _constraint builds the constraint (v, v o v,
v'v, the target, both tolerances and the rows that a comonotonic target
fixes) and rejects an unattainable target; every g is core.hollow_form's.
The start is initial_loadings, restored.  _descend runs the outer loop:
its step (_tangential) holds the sphere rows it would push outward and is
tangential to E, so the restoration only absorbs second-order drift, and
a monotone Armijo arc search on s |-> P_feas(X - s alpha d) keeps the
objective trace non-increasing; it stops once an accepted step improves
f by less than FN_RTOL * f.  Under a change of units v -> s v, K X scales
by s^2 and the first-order root by 1 / s^2, so the curve's points stay
the same.  Only the tolerances carry units, each a multiple of
(sum_i |v_i|)^2: restorations meet min(RESTORATION_TOL, var_tol) and
roots ROOT_TOL times it, so every iterate meets var_tol.

Cost per iteration: each trial point evaluates f and grad f once, at the
price of one n x n x k product (A_hat X).  A curve sample forms its point
once and shares its row norms between the clip and g, so it is O(n k), as
is each pass of the tangential projection; no n x n matrix is formed
except on the cancellation fallback of _objective_and_gradient near
f = 0.  A bit-symmetric target is validated once and not copied (A_hat is
its one copy).  The spectral start costs one O(n^2) product per Lanczos
step, about fifteen steps when the top k eigenvalues stand clear of the
rest; only a start that Lanczos cannot certify within n / 10 steps, or a
target too small for k + 8 of them, pays for a full O(n^3)
eigendecomposition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _VAR_TOL
from .core import (
    _EPS,
    CorrMatrix,
    FactorLoadings,
    MarketSpec,
    _as_corr,
    _clip_omega,
    _loadings_array,
    _record,
    _variance_range,
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
# times (sum_i |v_i|)^2) and the budget of curve searches.  Roots are
# refined to rounding, to |g| <= 1e-14 times the bound; 1e-12 would miss it.
RESTORATION_TOL = 1e-10
ROOT_TOL = 1e-16
MAX_RESTORATION_ITER = 100
# The spectral start's Lanczos run tests the k + RITZ_EXTRA Ritz pairs
# largest in magnitude, from as many steps on.
RITZ_EXTRA = 8
# The outer step treats a row with ||X_i||^2 >= 1 - _SPHERE_BAND as on the
# sphere, a candidate for holding its norm.
_SPHERE_BAND = 1e-9

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

    var_tol bounds |g| at every iterate, and so at a converged solution, by
    var_tol * (sum_i |sigma_i w_i|)^2, as check_feasibility's tol does, so
    it means the same in any units of sigma.  The outer loop stops once an
    accepted step improves f by less than FN_RTOL * f, or after
    max_outer_iter iterations.  The method constants are module constants.
    """

    k: int = 1
    var_tol: float = _VAR_TOL
    max_outer_iter: int = 200

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.var_tol <= 0.0:
            raise ValueError(f"var_tol must be positive, got {self.var_tol!r}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be at least 1, got {self.max_outer_iter}")


@dataclass(frozen=True)
class SolverResult:
    """Converged (or best-effort) output of solve_nicm."""

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
        return _record(self) | {"n": self.X_star.n, "k": self.X_star.k}


def _target_offdiag(A) -> tuple[np.ndarray, float]:
    """A_hat = A - I, realized as A with its diagonal zeroed, and ||A_hat||_F^2."""
    A_hat = _as_corr(A).values.copy()
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


class _Constraint(NamedTuple):
    """The constraint g(X) = target - v'C(X)v of one solve: vv = v o v, v2 = v'v,
    the |g| tolerance tol of a restoration, the root tolerance eps of a curve
    search, vs = v 2^-e with sum_i |vs_i| in [1/2, 1), and com, whose rows with
    v_i != 0 a comonotonic target fixes.  The curve direction K X is quartic in
    v, so it is taken from vs: its squares stay in range at any scale of v."""

    v: np.ndarray
    vv: np.ndarray
    v2: float
    target: float
    tol: float
    eps: float
    vs: np.ndarray
    e: int
    com: np.ndarray | None = None

    def residual(self, X: np.ndarray, norms: np.ndarray | None = None) -> float:
        """g(X), given the row norms ||X_i||^2 when the caller has them."""
        return self.target - (hollow_form(self.v, X, X, norms, self.vv) + self.v2)


def _constraint(spec: MarketSpec, k: int, var_tol: float = _VAR_TOL) -> _Constraint:
    """The constraint of spec for n x k loadings, restored to |g| <= min(RESTORATION_TOL,
    var_tol) * hi; raises RestorationError, carrying the residual, when the target is
    RESTORATION_TOL * hi outside core's [lo, hi] or the comonotonic point misses con.tol."""
    v, target = spec.scaled_weights(), spec.market.variance
    lo, hi = _variance_range(v)
    slack = RESTORATION_TOL * hi
    e = math.frexp(float(np.abs(v).sum()))[1]
    con = _Constraint(v, v * v, float(v @ v), target, min(slack, var_tol * hi), ROOT_TOL * hi,
                      np.ldexp(v, -e), e)
    if target < lo - slack:
        raise RestorationError(
            f"index variance target {target:g} is below the attainable minimum "
            f"(2 max|v_i| - sum|v_i|)^2 = {lo:g}; no feasible loadings exist",
            residual=target - lo,
        )
    if target < hi - slack:
        return con
    # A target at the comonotonic bound fixes the priced rows (v_i != 0) at
    # correlation one and leaves the others free.  E is tangent to the ball
    # there, so no curve crosses it; the priced rows are set directly.  With
    # one priced asset (lo = hi) every X meets the target: none is fixed.
    com = np.zeros((v.size, k))
    com[:, 0] = np.where(v < 0.0, -1.0, 1.0)
    resid = con.residual(com)
    if abs(resid) > slack:
        raise RestorationError(
            f"index variance target {target:g} exceeds the comonotonic bound "
            f"{hi:g}; no feasible loadings exist",
            residual=resid,
        )
    if abs(resid) > con.tol:
        raise RestorationError(f"the comonotonic point misses |g| <= {con.tol:g}", residual=resid)
    return con._replace(com=com) if lo < hi else con


# perfbench's tracer counts curve searches and root refinements by the
# names _project_equality_raw and _rescue_boundary.
def _rescue_boundary(sample, eps: float, a: tuple, b: tuple) -> tuple:
    """Illinois regula falsi on phi between the samples a and b.

    phi(a) and phi(b) have opposite signs, and sample(lam) returns the
    sample at lam.  The bracket shrinks until |phi| <= eps or no float is
    left strictly inside it; returns the sample with the smallest |phi|.
    """
    best = min(a, b, key=lambda s: abs(s[1]))
    (la, fa, _), (lb, fb, _) = a, b
    side = 0
    while abs(best[1]) > eps:
        lc = (la * fb - lb * fa) / (fb - fa)
        if not min(la, lb) < lc < max(la, lb):
            break
        c = sample(lc)
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


def _project_equality_raw(cur: np.ndarray, g0: float, con: _Constraint) -> tuple[np.ndarray, float]:
    """One search along the clipped curve lam |-> P_Omega(cur + lam Y), Y = K_s cur.

    K_s = K 2^-2e is K of con.vs, so this is the curve of K cur with lam
    scaled by the exact power 2^2e.  With g0 = g(cur), along the unclipped
    move g = g0 - 2 lam 2^2e ||Y||^2 + O(lam^2), so the walk on phi(lam) =
    g(P_Omega(cur + lam Y)) starts at the first-order root
    g0 2^-2e / (2 ||Y||^2).  It halves lam while |phi| does not shrink,
    then doubles it while phi keeps its sign and |phi| keeps shrinking.  A sign change is refined to |phi| <= con.eps; otherwise the
    sample nearest the surface is returned (cur itself if none is nearer),
    with its residual.  Raises RestorationError when Y = 0.
    """
    Y = constraint_normal(con.vs, cur)
    yy = float(np.vdot(Y, Y))
    lam = math.ldexp(g0, -2 * con.e) / (2.0 * yy) if yy else math.inf
    if not math.isfinite(lam):
        raise RestorationError(_INSENSITIVE, residual=g0)

    def sample(lam: float) -> tuple:
        # (lam, phi(lam), P_Omega(cur + lam Y)), phi being g there.
        P = cur + lam * Y
        g = con.residual(P, _clip_omega(P))
        if not math.isfinite(g):
            raise RestorationError(_INSENSITIVE)
        return lam, g, P

    near, far = sample(lam), None
    while abs(near[1]) >= abs(g0):
        if np.array_equal(cur + 0.5 * near[0] * Y, cur):
            return cur, g0
        far, near = near, sample(0.5 * near[0])
    prev = (0.0, g0, cur)
    while (near[1] > 0.0) == (g0 > 0.0) and abs(near[1]) > con.eps:
        nxt = far or sample(2.0 * near[0])
        far = None
        if (nxt[1] > 0.0) == (g0 > 0.0) and abs(nxt[1]) >= abs(near[1]):
            return near[2], near[1]
        prev, near = near, nxt
    _, g, P = _rescue_boundary(sample, con.eps, prev, near)
    return P, g


def _project_feasible_raw(arr: np.ndarray, con: _Constraint) -> np.ndarray:
    """Restore loadings to Omega intersected with the surface g = 0 of con.

    At a comonotonic target the rows with v_i != 0 are first set to con.com's.
    The point is clipped to Omega, then searched along the clipped curve of
    the module docstring until |g| <= con.tol.  The returned rows satisfy
    ||X_i||^2 <= 1 + EPS_FEAS, and already-feasible points are returned
    unchanged.  Raises RestorationError carrying the final residual when
    MAX_RESTORATION_ITER curve searches do not reach con.tol, or when g is
    insensitive to the curve (K X vanishes, or no point of it is nearer E).
    """
    cur = arr.copy()
    if con.com is not None:
        cur[con.v != 0.0] = con.com[con.v != 0.0]
    resid = con.residual(cur, _clip_omega(cur))
    searches = 0
    while abs(resid) > con.tol:
        if searches == MAX_RESTORATION_ITER:
            raise RestorationError(
                f"restoration did not reach |g| <= {con.tol:g} inside Omega "
                f"within {MAX_RESTORATION_ITER} curve searches (last residual {resid!r})",
                residual=resid,
            )
        cur, g = _project_equality_raw(cur, resid, con)
        if abs(g) >= abs(resid):
            # No point of the curve is nearer the surface: cur is a
            # critical point of g on Omega (the rows collapsed, say).
            raise RestorationError(_INSENSITIVE, residual=resid)
        resid, searches = g, searches + 1
    return cur


def _subspace_eigenpairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Top k eigenpairs of the symmetric A (values descending), or None.

    Lanczos with full reorthogonalization (Paige, 1972; Parlett, The
    Symmetric Eigenvalue Problem, ch. 13) from a golden-ratio vector: step
    m forms one product A v_m, orthogonalizes it against v_1, ..., v_m by
    classical Gram-Schmidt, twice, and extends the tridiagonal T_m.  From
    m = b = k + RITZ_EXTRA on, the Ritz pairs are the b eigenpairs
    (theta, s) of T_m largest in magnitude, W = V_m S.  Their residual
    estimate |beta_m s_(m,i)| only decides when to test them: once it is at
    most the rounding floor below for each of the top k, or beta_m is (the
    Krylov space is invariant), the pairs are tested once, on the explicit
    residual R = A W - W diag(theta), and returned or rejected.  The run
    takes at most n // 10 steps, so that a failed attempt costs n^3 / 5
    flops in products; n < 10 b returns None at once.

    In exact arithmetic a single vector sees one direction of a repeated
    eigenvalue, and the b Ritz values largest in magnitude need not hold
    the k largest, so the pairs are returned only under an a-posteriori
    certificate.  With r = ||R||_F and rho = ||R_top k||_F:

    * the b Ritz values lie within r of b distinct eigenvalues, and the top
      k within rho of k distinct ones (Kahan; Parlett, thm 11.5.1);
    * so every eigenvalue outside the first matching has |lam| <= tail =
      sqrt(||A||_F^2 - sum_i (|theta_i| - r)_+^2), and those matched to
      theta_(k+1), ... are at most theta_(k+1) + r.

    When theta_k - rho exceeds both tail and theta_(k+1) + r, at most k
    eigenvalues lie above theta_k - rho and the top k Ritz values are
    within rho of them: the pairs are the top k of A, and the gap at k is
    resolved.  Both residual norms carry a rounding floor of
    b n eps ||A||_F, and ||A||_F^2 a relative n^2 eps.
    """
    n = A.shape[0]
    b = k + RITZ_EXTRA
    steps = n // 10
    if steps < b:
        return None
    a2 = float(np.vdot(A, A))
    floor = b * n * _EPS * math.sqrt(a2)
    V, T = np.empty((steps + 1, n)), np.zeros((steps + 1, steps + 1))
    # frac((i + 1) a) - 1/2 with a = (sqrt(5) - 1) / 2: the golden-ratio sequence
    # is equidistributed, far from any fixed subspace, and needs no numpy.random.
    V[0] = np.modf(np.arange(1.0, n + 1.0) * (0.5 * (math.sqrt(5.0) - 1.0)))[0] - 0.5
    V[0] /= math.sqrt(float(V[0] @ V[0]))
    for m in range(1, steps + 1):
        w = A @ V[m - 1]
        h = V[:m] @ w
        w -= h @ V[:m]
        w -= (V[:m] @ w) @ V[:m]
        T[m - 1, m - 1] = h[m - 1]
        beta = math.sqrt(float(w @ w))
        if m >= b or beta <= floor:
            theta, S = np.linalg.eigh(T[:m, :m])
            keep = np.sort(np.argsort(-np.abs(theta), kind="stable")[:b])
            theta, S = theta[keep], S[:, keep]
            p = theta.size
            top = slice(p - 1, p - 1 - k, -1)
            if beta <= floor or np.all(np.abs(beta * S[-1, top]) <= floor):
                W = V[:m].T @ S
                R = A @ W - W * theta
                r, rho = float(np.linalg.norm(R)) + floor, float(np.linalg.norm(R[:, top])) + floor
                tail2 = a2 * (1.0 + n * n * _EPS) - float(np.sum(np.maximum(np.abs(theta) - r, 0.0) ** 2))
                edge = float(theta[p - k]) - rho if p > k else -math.inf
                if edge > math.sqrt(max(tail2, 0.0)) and edge > float(theta[p - k - 1]) + r:
                    return theta[top], W[:, top]
                return None
        T[m, m - 1] = beta
        V[m] = w / beta
    return None


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

    The top k eigenpairs come from a certified Lanczos run
    (:func:`_subspace_eigenpairs`, one O(n^2) product per step) and, when
    it cannot certify them within n // 10 steps or the target is too small
    for k + 8 steps (n < 10 (k + 8)), from np.linalg.eigh.  Each eigenvector's
    sign is fixed so that its largest-magnitude entry is positive.
    """
    A_arr = _as_corr(A).values
    n = A_arr.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    pairs = _subspace_eigenpairs(A_arr, k)
    if pairs is None:
        evals, evecs = np.linalg.eigh(A_arr)
        order = np.argsort(-evals, kind="stable")[:k]
        pairs = evals[order], evecs[:, order]
    evals, evecs = pairs

    X0 = np.zeros((n, k))
    for d in range(k):
        e = evecs[:, d]
        # Deterministic eigenvector sign: largest-magnitude entry positive.
        imax = int(np.argmax(np.abs(e)))
        if e[imax] < 0.0:
            e = -e
        iota = float(evals[d])
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


def _tangential(grad: np.ndarray, X: np.ndarray, con: _Constraint) -> np.ndarray:
    """Hold the sphere rows that the step X - s d pushes outward (their radial
    components leave grad f and K X), then remove the component along grad g =
    -2 K X; where that turns the step outward on another sphere row, hold it
    too.  Steps along the result d leave g and the held rows' norms unchanged to
    first order, so the restoration only absorbs second-order drift.  N is K X
    times 2^-2e; only its direction is used."""
    N = constraint_normal(con.vs, X)
    r2 = np.einsum("ij,ij->i", X, X)
    sphere = r2 >= 1.0 - _SPHERE_BAND
    held = sphere & (np.einsum("ij,ij->i", X, grad) < 0.0)
    while True:
        u = held / np.where(held, r2, 1.0)
        gh = grad - (u * np.einsum("ij,ij->i", X, grad))[:, None] * X
        Nh = N - (u * np.einsum("ij,ij->i", X, N))[:, None] * X
        nn = float(np.vdot(Nh, Nh))
        d = gh if nn == 0.0 else gh - (float(np.vdot(gh, Nh)) / nn) * Nh
        out = sphere & ~held & (np.einsum("ij,ij->i", X, d) < 0.0)
        if not np.any(out):
            return d
        held |= out


def _descend(X: np.ndarray, A_hat: np.ndarray, a2: float, con: _Constraint, max_outer_iter: int) -> tuple:
    """The outer loop of the module docstring from restored loadings X, stopping as
    solve_nicm says.  Returns (X, f, trace, iterations, restorations, converged,
    message); restorations counts the loop's successful restorations only."""
    f, grad = _objective_and_gradient(X, A_hat, a2)
    trace = [f]
    gnorm = float(np.max(np.abs(grad)))
    alpha = min(max(1.0 / gnorm, STEP_MIN), STEP_MAX) if gnorm > 0.0 else 1.0
    restorations = 0
    for outer in range(1, max_outer_iter + 1):
        s = 1.0
        direction = _tangential(grad, X, con)
        for _ in range(MAX_BACKTRACKS):
            try:
                T = _project_feasible_raw(X - (s * alpha) * direction, con)
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
            return (X, f, trace, outer - 1, restorations, True,
                    "arc search exhausted without an acceptable step (projected stationary point)")

        dX = T - X
        dG = gT - grad
        X, grad = T, gT
        improvement, f = f - fT, fT
        trace.append(f)

        sty = float(np.sum(dX * dG))
        bb = float(np.sum(dX * dX)) / sty if sty > 0.0 else math.inf
        # A quotient at STEP_MAX or beyond (a non-positive s'y among them)
        # carries no scale of its own: take at most eight times the step
        # just accepted.
        alpha = max(bb, STEP_MIN) if bb < STEP_MAX else min(STEP_MAX, 8.0 * s * alpha)

        if improvement < FN_RTOL * f:
            return X, f, trace, outer, restorations, True, "relative objective improvement below tolerance"
    return X, f, trace, max_outer_iter, restorations, False, "iteration limit reached"


def solve_nicm(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Nearest factor-structured correlation matrix to the target A.

    Spectral projected gradient outer loop with inexact restoration, as
    described in the module docstring.  The target need not be PSD.

    Every returned X* satisfies |g(X*)| <= var_tol * (sum_i |sigma_i w_i|)^2
    and min_i h_i(X*) >= -EPS_FEAS; C_star = C(X*) is PSD by construction
    and the f trace is non-increasing.  The loop stops,
    converged, once an accepted step improves f by less than FN_RTOL * f or
    the arc search finds no acceptable step; at max_outer_iter it stops
    with converged=False.  An unattainable index variance, or a failed
    restoration of the start, raises RestorationError.  Scaling sigma by s
    and the index variance by s^2 changes no move and no verdict beyond
    rounding, and no bit when s is a power of two and nothing underflows.

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
    config = SolverConfig() if config is None else config
    A_corr = _as_corr(A)
    if A_corr.n != spec.n:
        raise ValueError(f"target is {A_corr.n} x {A_corr.n} for {spec.n} assets")

    A_hat, a2 = _target_offdiag(A_corr)
    con = _constraint(spec, config.k, config.var_tol)
    X = _project_feasible_raw(initial_loadings(A_corr, config.k).values, con)
    X, f, trace, outer, restorations, converged, message = _descend(X, A_hat, a2, con, config.max_outer_iter)

    X_star = FactorLoadings(X)
    return SolverResult(
        X_star=X_star,
        C_star=assemble_correlation(X_star),
        fn=f,
        fn_trace=np.array(trace),
        constraint_residual=con.residual(X),
        outer_iterations=outer,
        restorations=restorations + 1,  # and the start's
        wall_time=time.perf_counter() - t0,
        converged=converged,
        message=message,
    )
