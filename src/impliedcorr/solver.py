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
moves to the sampled point nearest E and searches again from there.  The
constraint (v, v o v, v'v, the target, both tolerances and the one point
of a comonotonic target) is built once per solve, before the spectral
start, and rejects an unattainable target; every g is core.hollow_form's.

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
price of one n x n x k product (A_hat X).  A curve sample forms its point
once and shares its row norms between the clip and g, so it is O(n k), as
is each pass of the tangential projection; no n x n matrix is formed
except on the cancellation fallback of _objective_and_gradient near
f = 0.  A bit-symmetric target is validated once and not copied (A_hat is
its one copy).  The spectral start costs O(n^2 (k + 8)) per step of a
subspace iteration, about ten steps when the top k eigenvalues stand clear
of the rest; only a start the iteration cannot certify within
n / (2 (k + 8)) steps, or a target too small for one step, pays for a full
O(n^3) eigendecomposition.
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
# times max(1, (sum_i |v_i|)^2)) and the budget of curve searches.  Roots are
# refined to rounding, so a root found meets |g| <= 1e-14 times the bound and
# a solve in large units its absolute var_tol; ROOT_TOL = 1e-12 breaks both.
RESTORATION_TOL = 1e-10
ROOT_TOL = 1e-16
MAX_RESTORATION_ITER = 100
# Spectral start: the subspace iteration carries RITZ_EXTRA vectors beyond
# the k wanted, and stops once each of the top k Ritz residuals is at most
# RITZ_RTOL times the largest |Ritz value|.
RITZ_EXTRA = 8
RITZ_RTOL = 1e-12
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

    var_tol bounds the admissible constraint residual |g| of a converged
    solution, in the units of the spec's index variance; the restoration
    meets RESTORATION_TOL * max(1, (sum_i |sigma_i w_i|)^2), below the
    default var_tol unless sum_i |sigma_i w_i| exceeds 100.  The outer
    loop stops once an accepted step improves f by less than FN_RTOL * f,
    or after max_outer_iter iterations.  The method constants are module
    constants.
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

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown solver config fields: {sorted(extra)}")
        return cls(**d)


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
    search, and com, the one feasible point when the target is comonotonic."""

    v: np.ndarray
    vv: np.ndarray
    v2: float
    target: float
    tol: float
    eps: float
    com: np.ndarray | None = None

    def residual(self, X: np.ndarray, norms: np.ndarray | None = None) -> float:
        """g(X), given the row norms ||X_i||^2 when the caller has them."""
        return self.target - (hollow_form(self.v, X, X, norms, self.vv) + self.v2)


def _constraint(spec: MarketSpec, k: int) -> _Constraint:
    """The constraint of spec for n x k loadings; raises RestorationError,
    carrying the residual, when no loadings can attain the target."""
    # Every correlation matrix is the Gram matrix of unit vectors z_i, so
    # v'Cv = ||sum_i v_i z_i||^2 lies between (2 max|v_i| - sum|v_i|)_+^2
    # (triangle inequality) and (sum|v_i|)^2 (comonotonic); a target
    # outside that range is infeasible for every k.  Every tolerance is
    # relative to the comonotonic bound, so the restoration is scale-free.
    v, target = spec.scaled_weights(), spec.market.variance
    absv = np.abs(v)
    total = float(absv.sum())
    max_var, unit = total ** 2, max(1.0, total ** 2)
    con = _Constraint(v, v * v, float(v @ v), target, RESTORATION_TOL * unit, ROOT_TOL * unit)
    min_var = max(0.0, 2.0 * float(absv.max()) - total) ** 2
    if target < min_var - con.tol:
        raise RestorationError(
            f"index variance target {target:g} is below the attainable minimum "
            f"(2 max|v_i| - sum|v_i|)^2 = {min_var:g}; no feasible loadings exist",
            residual=target - min_var,
        )
    if target < max_var - con.tol:
        return con
    # A target at the comonotonic bound admits exactly one feasible point,
    # every pairwise correlation equal to one.  E is tangent to the ball
    # there, so no curve crosses it; the point is built directly instead.
    com = np.zeros((v.size, k))
    com[:, 0] = np.where(v < 0.0, -1.0, 1.0)
    resid = con.residual(com)
    if abs(resid) <= con.tol:
        return con._replace(com=com)
    raise RestorationError(
        f"index variance target {target:g} exceeds the comonotonic bound "
        f"{max_var:g}; no feasible loadings exist",
        residual=resid,
    )


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
    """One search along the clipped curve lam |-> P_Omega(cur + lam Y), Y = K cur.

    With g0 = g(cur), along the unclipped move g = g0 - 2 lam ||Y||^2 +
    O(lam^2), so the walk on phi(lam) = g(P_Omega(cur + lam Y)) starts at
    the first-order root g0 / (2 ||Y||^2).  It halves lam while |phi| does
    not shrink, then doubles it while phi keeps its sign and |phi| keeps
    shrinking.  A sign change is refined to |phi| <= con.eps; otherwise the
    sample nearest the surface is returned (cur itself if none is nearer),
    with its residual.  Raises RestorationError when Y = 0.
    """
    Y = constraint_normal(con.v, cur)
    yy = float(np.vdot(Y, Y))
    if yy == 0.0 or not math.isfinite(g0 / yy):
        raise RestorationError(_INSENSITIVE, residual=g0)

    def sample(lam: float) -> tuple:
        # (lam, phi(lam), P_Omega(cur + lam Y)), phi being g there.
        P = cur + lam * Y
        g = con.residual(P, _clip_omega(P))
        if not math.isfinite(g):
            raise RestorationError(_INSENSITIVE)
        return lam, g, P

    near, far = sample(g0 / (2.0 * yy)), None
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

    The point is clipped to Omega, then searched along the clipped curve of
    the module docstring until |g| <= con.tol.  The returned rows satisfy
    ||X_i||^2 <= 1 + EPS_FEAS, and already-feasible points are returned
    unchanged.  Raises RestorationError carrying the final residual when
    MAX_RESTORATION_ITER curve searches do not reach con.tol, or when g is
    insensitive to the curve (K X vanishes, or no point of it is nearer E).
    """
    if con.com is not None:
        return con.com.copy()
    cur = arr.copy()
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


def _weyl_block(n: int, b: int) -> np.ndarray:
    """Deterministic n x b start block, entry (i, j) = frac((i + 1) a_j) - 1/2.

    a_j = g^-(j + 1), with g > 1 the root of g^(b + 1) = g + 1: the
    generalized golden ratio of the R_b quasi-random sequence (Roberts,
    2018), whose columns are equidistributed and far from any fixed
    subspace.  Closed form, so numpy.random is not loaded.
    """
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (b + 1))
    return np.modf(np.outer(np.arange(1.0, n + 1.0), g ** -np.arange(1.0, b + 1.0)))[0] - 0.5


def _subspace_eigenpairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Top k eigenpairs of the symmetric A (values descending), or None.

    Subspace iteration with Rayleigh-Ritz (Saad, Numerical Methods for
    Large Eigenvalue Problems, 2011, ch. 5) on a block of b = k + RITZ_EXTRA
    vectors: Z = A Q, Ritz pairs (theta, U) of the b x b matrix Q'Z, then
    Q <- qr(Z U).  It stops once the top k Ritz residuals are at most
    RITZ_RTOL max|theta|, within a budget of n // (2 b) steps, each costing
    2 n^2 b flops, so a failed attempt costs about n^3 flops, a third of a
    full eigendecomposition or less.  A budget of 0 returns None at once.

    The iteration finds the b eigenvalues largest in magnitude, but the
    start needs the k largest, so the pairs are returned only under an
    a-posteriori certificate.  With R = A W - W diag(theta) for the Ritz
    vectors W, r = ||R||_F and rho = ||R_top k||_F:

    * the b Ritz values lie within r of b distinct eigenvalues, and the top
      k within rho of k distinct ones (Kahan; Parlett, The Symmetric
      Eigenvalue Problem, thm 11.5.1);
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
    budget = n // (2 * b)
    if budget == 0:
        return None
    a2 = float(np.vdot(A, A))
    floor = b * n * _EPS * math.sqrt(a2)
    top = slice(b - 1, b - 1 - k, -1)
    Q = np.linalg.qr(_weyl_block(n, b))[0]
    for _ in range(budget):
        Z = A @ Q
        H = Q.T @ Z
        theta, U = np.linalg.eigh(0.5 * (H + H.T))
        W, AW = Q @ U, Z @ U
        R = AW - W * theta
        res = np.sqrt(np.einsum("ij,ij->j", R, R))
        if np.all(res[top] <= RITZ_RTOL * float(np.max(np.abs(theta)))):
            r = float(np.linalg.norm(res)) + floor
            rho = float(np.linalg.norm(res[top])) + floor
            tail2 = a2 * (1.0 + n * n * _EPS) - float(np.sum(np.maximum(np.abs(theta) - r, 0.0) ** 2))
            edge = float(theta[b - k]) - rho
            if edge > math.sqrt(max(tail2, 0.0)) and edge > float(theta[b - k - 1]) + r:
                return theta[top], W[:, top]
        Q = np.linalg.qr(AW[:, np.argsort(-np.abs(theta), kind="stable")])[0]
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

    The top k eigenpairs come from a certified subspace iteration
    (:func:`_subspace_eigenpairs`, O(n^2 (k + 8)) per step) and, when it
    cannot certify them within its budget or the target is too small for
    one step (n < 2 (k + 8)), from np.linalg.eigh.  Each eigenvector's
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


def solve_nicm(A, spec: MarketSpec, config: SolverConfig | None = None) -> SolverResult:
    """Nearest factor-structured correlation matrix to the target A.

    Spectral projected gradient outer loop with inexact restoration, as
    described in the module docstring.  The target need not be PSD.

    A successful result satisfies, with X* the returned loadings:
    f trace non-increasing, |g(X*)| <= var_tol, min_i h_i(X*) >= -EPS_FEAS,
    and C_star = C(X*) PSD by construction.  The loop stops when an
    accepted step improves f by less than FN_RTOL * f, or when the arc
    search finds no acceptable step.  converged=False (with the reason in
    message) is returned when max_outer_iter is hit first, or when the
    final residual exceeds var_tol.  An unattainable index variance raises
    RestorationError before the spectral start, as does a failed
    restoration of the starting point.  Where sum_i |sigma_i w_i| >= 1
    before and after, scaling sigma by s and the index variance by s^2
    leaves every move unchanged up to rounding (see the module docstring);
    var_tol stays absolute, in the units of the index variance.

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
    con = _constraint(spec, config.k)

    def tangential(gr: np.ndarray, X: np.ndarray) -> np.ndarray:
        # Hold the sphere rows that the step X - s d pushes outward (their
        # radial components leave grad f and K X), then remove the
        # component along grad g = -2 K X; where that turns the step
        # outward on another sphere row, hold it too.  Steps along the
        # result leave g and the held rows' norms unchanged to first order,
        # so the restoration only absorbs second-order drift.
        N = constraint_normal(con.v, X)
        r2 = np.einsum("ij,ij->i", X, X)
        sphere = r2 >= 1.0 - _SPHERE_BAND
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

    X = _project_feasible_raw(initial_loadings(A_corr, config.k).values, con)
    restorations = 1

    f, grad = _objective_and_gradient(X, A_hat, a2)
    trace = [f]

    gnorm = float(np.max(np.abs(grad)))
    alpha = min(max(1.0 / gnorm, STEP_MIN), STEP_MAX) if gnorm > 0.0 else 1.0

    converged = False
    message = "iteration limit reached"
    outer = 0

    for outer in range(1, config.max_outer_iter + 1):
        s = 1.0
        direction = tangential(grad, X)
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
            converged = True
            message = "arc search exhausted without an acceptable step (projected stationary point)"
            outer -= 1
            break

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
            converged = True
            message = "relative objective improvement below tolerance"
            break

    residual = con.residual(X)
    if converged and abs(residual) > config.var_tol:
        converged = False
        message = f"constraint residual {residual!r} exceeds var_tol"

    X_star = FactorLoadings(X)
    return SolverResult(
        X_star=X_star,
        C_star=assemble_correlation(X_star),
        fn=f,
        fn_trace=np.array(trace),
        constraint_residual=residual,
        outer_iterations=outer,
        restorations=restorations,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        message=message,
    )
