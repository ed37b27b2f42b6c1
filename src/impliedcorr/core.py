"""Factor-structured correlation matrices and feasibility diagnostics.

An equity correlation matrix is parametrized through an n x k matrix X of
asset-to-factor correlations:

    C(X) = (X X') with its diagonal replaced by ones.

Writing J for the hollow matrix of ones (zero diagonal), this is
C(X) = J o (X X') + I, where o is the Hadamard product.  Whenever every row
of X has squared norm at most one, C(X) equals X X' + diag(h) with
h_i = 1 - ||X_i||^2 >= 0, a sum of two PSD matrices, so positive
semidefiniteness holds by construction.  The set

    Omega = { X : sum_d X[i, d]^2 <= 1 for every row i }

is therefore the mathematical feasibility region of the parametrization.

Economic feasibility is a separate requirement: option prices pin down the
variance of an index, and a candidate matrix should reproduce it.  For index
weights w, implied volatilities sigma and index implied variance sigma_m^2,

    g(X) = sigma_m^2 - w' diag(sigma) C(X) diag(sigma) w

must vanish.  A market spec carries exactly one such index constraint: each
matrix is calibrated to one index at a time.

This module holds the shared value types (loadings, correlation matrices,
market specs) and the elementary operations the model layers build on:
assembling C(X), the projection onto Omega, portfolio variance and its
range, whose top (sum_i |sigma_i w_i|)^2 scales every tolerance on g
(:func:`_variance_range`), and a combined feasibility report.  It is the
one place that turns a matrix argument into a CorrMatrix (:func:`_as_corr`,
for every model and the report) and the one place that decides
feasibility: every membership test of Omega allows the slack EPS_FEAS, and
the report reads a matrix that is not a CorrMatrix as CorrMatrix would,
testing symmetry, the diagonal and the bound on it as given.
A matrix assembled from loadings keeps them.  Where n >= max(2 k + 70,
3 k), its smallest eigenvalue comes from the factor structure
C(X) = X X' + diag(h), by a few safeguarded Newton steps of O(n k^2) each
on a Schur complement whose inertia is that of C - lam I (Haynsworth; see
:func:`_factor_min_eigenvalue`), instead of from an O(n^3) dense
eigensolver; smaller matrices, and matrices built any other way (read from
CSV, for instance), use the dense solver.  The feasibility report of a
CorrMatrix takes `symmetric` from the type, that of C(X) `bounded` from
the row norms of X unless a row lies within rounding of the bound, and its
residual from :func:`hollow_form`, as the solver does.
Every result record turns into JSON by one rule, :func:`_record`.
It also holds the two O(n k) kernels of the index variance algebra, with
v = sigma o w and K = v v' o J = v v' - diag(v^2):

* :func:`hollow_form` evaluates v' [(L R') o J] v = <L, K R>, so the model
  index variance at X is hollow_form(v, X, X) + v'v;
* :func:`constraint_normal` evaluates K X; the gradient of the constraint
  residual g is dg/dX = -2 K X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _VAR_TOL

# Numerical slack of every membership test of Omega (row squared norms
# <= 1 + EPS_FEAS) and of the feasibility report's entry bound.
EPS_FEAS = 1e-12

# Eigenvalue tolerance below which a matrix is reported as indefinite.
EPS_PSD = 1e-8

# Index weights must sum to one up to this tolerance; they are never
# renormalized silently.
WEIGHT_SUM_TOL = 1e-12

_EPS = float(np.finfo(float).eps)


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FactorLoadings:
    """An n x k matrix of asset-to-factor correlations.

    Instances are value objects: the wrapped array is copied and marked
    read-only.  Membership of Omega is *not* enforced on construction.
    Solver iterates legitimately pass through infeasible points, so the
    container must be able to represent them; :func:`_clip_omega` projects
    onto Omega, and :func:`check_feasibility` reports on C(X).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.reshape(self.values, (-1, 1)) if np.ndim(self.values) == 1 else self.values
        arr = _as_float_array(values, "loadings", 2)
        if arr.size == 0:
            raise ValueError(f"loadings must be non-empty, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def _clip_omega(P: np.ndarray) -> np.ndarray:
    """Scale each row of P in place by 1 / max(1, ||P_i||), the projection onto
    Omega, and return ||P_i||^2, taken again after a clip (cheaper than indexing)."""
    r2 = np.einsum("ij,ij->i", P, P)
    if r2.max() > 1.0:
        P *= (1.0 / np.sqrt(np.maximum(r2, 1.0)))[:, None]
        r2 = np.einsum("ij,ij->i", P, P)
    return r2


@dataclass(frozen=True)
class CorrMatrix:
    """A square correlation-matrix candidate.

    Construction copies C (C-ordered), symmetrizes it only when its float64
    bits are not symmetric, as C / 2 + C' / 2 (the bits of (C + C') / 2
    without its overflow), and freezes it, but it deliberately does not
    force unit diagonal, entry bounds, or positive semidefiniteness: several
    models in this package produce matrices that violate one of those
    conditions, and the violations must remain visible to
    :func:`check_feasibility` instead of being patched over.  Code paths
    that guarantee a property (for example :func:`assemble_correlation`)
    establish it explicitly before wrapping.

    A matrix built by :func:`assemble_correlation` keeps its loadings in the
    private field _loadings, so that :meth:`min_eigenvalue` and
    :func:`check_feasibility` can use the factor structure.
    """

    values: np.ndarray
    _loadings: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = _as_float_array(self.values, "correlation matrix", 2)
        if arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError(f"correlation matrix must be square and non-empty, got shape {arr.shape}")
        if not _same_bits(arr, arr.T):
            arr *= 0.5  # the copy is ours: one n x n temporary, as for (C + C') / 2
            arr = arr + arr.T
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue: from the loadings when n >= max(2 k + 70, 3 k),
        where the factor iteration is the faster path, from eigvalsh otherwise."""
        X = self._loadings
        if X is not None and X.shape[0] >= max(2 * X.shape[1] + 70, 3 * X.shape[1]):
            return _factor_min_eigenvalue(X)
        return float(np.linalg.eigvalsh(self.values)[0])


@dataclass(frozen=True)
class IndexConstraint:
    """One option-implied index variance restriction.

    weights are the index composition (must sum to one, no silent
    renormalization) and variance is the option-implied index variance
    sigma_m^2 on the same time scale as the component volatilities.
    """

    name: str
    weights: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        w = _as_float_array(self.weights, f"weights of constraint {self.name!r}", 1)
        if w.size < 1:
            raise ValueError(f"constraint {self.name!r} has empty weights")
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights of constraint {self.name!r} sum to {total!r}, "
                f"expected 1 within {WEIGHT_SUM_TOL:g}"
            )
        if not np.isfinite(self.variance) or self.variance <= 0.0:
            raise ValueError(
                f"variance of constraint {self.name!r} must be positive, "
                f"got {float(self.variance)!r}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True)
class MarketSpec:
    """Implied volatilities plus exactly one index variance constraint.

    sigma holds the component implied volatilities (annualized or otherwise,
    as long as the index variance uses the same convention).  constraints
    is a one-tuple holding the market index, also reachable as
    :attr:`market`; construction raises ValueError for any other count.
    """

    sigma: np.ndarray
    constraints: tuple[IndexConstraint]

    def __post_init__(self) -> None:
        s = _as_float_array(self.sigma, "sigma", 1)
        if s.size < 1:
            raise ValueError("sigma must be non-empty")
        if np.any(s <= 0.0):
            bad = int(np.argmin(s))
            raise ValueError(f"sigma[{bad}] = {float(s[bad])!r} is not positive")
        cons = tuple(self.constraints)
        if len(cons) != 1:
            raise ValueError(f"a market spec needs exactly one index constraint, got {len(cons)}")
        con = cons[0]
        if con.weights.size != s.size:
            raise ValueError(
                f"constraint {con.name!r} has {con.weights.size} weights for {s.size} assets"
            )
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "constraints", cons)

    @property
    def n(self) -> int:
        return self.sigma.size

    @property
    def market(self) -> IndexConstraint:
        """The index constraint."""
        return self.constraints[0]

    def scaled_weights(self) -> np.ndarray:
        """v = sigma o w, the vector entering every quadratic form."""
        return self.sigma * self.market.weights


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the combined mathematical / economic feasibility check."""

    symmetric: bool
    unit_diagonal: bool
    bounded: bool
    min_eigenvalue: float
    psd: bool
    constraint_residuals: np.ndarray
    economically_matched: bool

    @property
    def mathematically_feasible(self) -> bool:
        return self.symmetric and self.unit_diagonal and self.bounded and self.psd

    @property
    def feasible(self) -> bool:
        return self.mathematically_feasible and self.economically_matched

    def to_dict(self) -> dict:
        return _record(self) | {"mathematically_feasible": self.mathematically_feasible,
                                "feasible": self.feasible}


def _record(result) -> dict:
    """A result dataclass's fields other than its matrices and loadings,
    ndarrays as lists: the one rule that makes a result JSON-ready."""
    values = ((f.name, getattr(result, f.name)) for f in fields(result))
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in values if not isinstance(value, (CorrMatrix, FactorLoadings))}


def _loadings_array(X) -> np.ndarray:
    if isinstance(X, FactorLoadings):
        return X.values
    return FactorLoadings(X).values


def _same_bits(a, b) -> bool:
    """Whether a and b are float arrays of one shape and the same bits.

    Unlike ==, this tells -0.0 from 0.0 and NaN payloads apart: a matrix
    with the bits of its transpose needs no symmetrizing, and a file written
    for a serves b exactly.  No array is copied.
    """
    if a is None or b is None:
        return False
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _trusted_corr(arr: np.ndarray, loadings: np.ndarray | None = None) -> CorrMatrix:
    """Wrap arr, known to be C-ordered, finite, square and bit-symmetric, unchecked."""
    arr.setflags(write=False)
    out = object.__new__(CorrMatrix)
    out.__dict__.update(values=arr, _loadings=loadings)
    return out


def _as_corr(C) -> CorrMatrix:
    """C as a CorrMatrix: C itself if it is one; a finite, non-empty, square
    float64 ndarray with the bits of its transpose (-0.0 != 0.0) is wrapped
    as a read-only view (through its transpose if Fortran-ordered, copied if
    strided); all else goes through CorrMatrix."""
    if isinstance(C, CorrMatrix):
        return C
    if type(C) is np.ndarray and C.dtype == np.float64 and C.ndim == 2 and C.shape[0] == C.shape[1] > 0:
        if np.isfinite(C).all() and _same_bits(C, C.T):
            return _trusted_corr(np.ascontiguousarray(C.T if C.flags.f_contiguous else C).view())
    return CorrMatrix(C)


def assemble_correlation(X) -> CorrMatrix:
    """Build C(X) = J o (X X') + I.

    The Hadamard mask is realized by overwriting the diagonal of X X' with
    ones; J is never materialized.  For X in Omega the result is PSD by
    construction (X X' plus a nonnegative diagonal).  Rows outside Omega are
    not rejected here: the assembled matrix simply loses its PSD guarantee,
    which :func:`check_feasibility` will report.  This is the one place
    where C = X X' + diag(1 - ||X_i||^2) is known to hold, so the returned
    matrix carries X (privately) for the factor-structured smallest
    eigenvalue and entry bound.  numpy forms X X' with BLAS syrk, which
    mirrors one triangle, so the product is wrapped as it is.  Every entry
    of X X' is at most k m^2 in magnitude, m = max |x_id|, so the n x n
    finiteness scan runs only when 2 k m^2 (rounding included) overflows.
    """
    arr = _loadings_array(X)
    C = arr @ arr.T
    np.fill_diagonal(C, 1.0)
    m = float(np.max(np.abs(arr)))
    if not math.isfinite(2.0 * arr.shape[1] * m * m) and not np.isfinite(C).all():
        raise ValueError("correlation matrix contains non-finite entries")
    return _trusted_corr(C, arr)


def _factor_min_eigenvalue(X: np.ndarray) -> float:
    """Smallest eigenvalue of C(X) = X X' + D, D = diag(h), h_i = 1 - ||X_i||^2.

    lam_min lies in [h_(1), min(1, h_(k+1))], h_(j) being the j-th smallest
    h_i: Weyl gives the lower end; the unit diagonal (trace) and the
    interlacing of a rank-k PSD update of D give the upper.  A safeguarded
    Newton iteration narrows that bracket to tol = eps (max_i |h_i| +
    ||X||_F^2), a bound on eps ||C||_2 and so the resolution of any
    backward-stable eigensolver.

    An evaluation at lam splits the rows into N (h_i - lam <= eta) and P
    (the rest, so D_P - lam I is positive definite).  Haynsworth inertia
    additivity on the P block of C - lam I, with the Woodbury identity,
    gives

        #{eig(C) < lam} = #{eig(S) < 0},
        S = D_N - lam I + X_N M^-1 X_N',  M = I_k + X_P' (D_P - lam I)^-1 X_P,

    exact for rows outside Omega too.  M >= I, and with
    eta = eps^(1/4) max_i (|h_i| + ||X_i||^2) no row adds more than
    eps^(-1/4) to its norm.  The plain count #{h_i < lam} - #{eig(M) <= 0},
    with every row in M, divides by h_i - lam: when an iterate lands on or
    next to an h_i (dyadic loadings do that), the rounding of that term
    swamps the O(1) part of M that decides the count, and lam_min comes out
    wrong by up to the bracket width.  N holds at most k rows
    (lam < h_(k+1)) plus those with h_i within eta above lam, so an
    evaluation costs O(n k^2 + k^3).

    With the split at lam held fixed, S(t) for t <= lam is the Schur
    complement of a block whose resolvent is convex in t, so S is
    operator-concave with dS/dt <= -I: sigma(t) = lam_min(S(t)) is concave,
    falls with slope at most -1 and has lam_min as its root.  So
    sigma(lam) < 0 puts lam_min in [lam + sigma, lam], and sigma >= 0 puts
    it at or above lam.  By concavity the Newton point lam - sigma / sigma',

        sigma' = -1 - ||(D_P - lam I)^-1 X_P M^-1 X_N' u||^2

    for the bottom eigenvector u of S (a supergradient where sigma is
    repeated), lies at or above the root, so the iterates fall to it from
    the right.  A Newton point more than tol / 2 outside the bracket is
    replaced by the midpoint, and every point is kept tol / 2 inside it, so
    an iterate at the root closes it at once.  The iteration stops at width
    tol or after the bisection's step count; a 500-asset panel check takes
    4 to 6 evaluations where bisection took 36 to 44.  Each evaluation costs
    a few numpy calls and O(n k^2 + k^3) flops, so where n < max(2 k + 70,
    3 k) a dense eigvalsh is faster (timed with BLAS threads at 1), and
    :meth:`CorrMatrix.min_eigenvalue` uses it there.
    """
    n, k = X.shape
    r = np.einsum("ij,ij->i", X, X)
    h = 1.0 - r
    scale = float(np.max(np.abs(h))) + float(r.sum())
    lo = float(h.min())
    hi = min(1.0, float(np.partition(h, k)[k])) if n > k else 1.0
    tol = _EPS * scale
    steps = math.ceil(math.log2((hi - lo) / tol)) if hi - lo > tol else 0
    eta = _EPS**0.25 * float(np.max(np.abs(h) + r))
    eye = np.eye(k)
    lam = hi
    for _ in range(steps):
        if hi - lo <= tol:
            break
        if not lo - 0.5 * tol <= lam <= hi + 0.5 * tol:
            lam = 0.5 * (lo + hi)
        lam = min(max(lam, lo + 0.5 * tol), hi - 0.5 * tol)
        d = h - lam
        near = d <= eta
        dP = np.where(near, np.inf, d)
        M = eye + X.T @ (X / dP[:, None])
        XN = X[near]
        Y = np.linalg.solve(M, XN.T)
        vals, vecs = np.linalg.eigh(np.diag(d[near]) + XN @ Y)
        sigma, u = float(vals[0]), vecs[:, 0]
        if sigma < 0.0:
            hi, lo = lam, max(lo, lam + sigma)
        else:
            lo = lam
        z = X @ (Y @ u) / dP
        lam += sigma / (1.0 + float(z.dot(z)))
    return 0.5 * (lo + hi)


def hollow_form(v: np.ndarray, L: np.ndarray, R: np.ndarray, norms=None, vv=None) -> float:
    """v' [(L R') o J] v = (L'v)'(R'v) - sum_i v_i^2 <L_i, R_i>, in O(n k);
    callers holding the row products norms_i = <L_i, R_i> or vv = v o v pass them."""
    lv = v.dot(L)  # ndarray.dot: the BLAS call of @ without the ufunc dispatch
    rv = lv if R is L else v.dot(R)
    norms = np.einsum("ij,ij->i", L, R) if norms is None else norms
    return float(lv.dot(rv)) - float((v * v if vv is None else vv).dot(norms))


def constraint_normal(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K X with K = v v' o J, in O(n k); no n x n matrix is formed."""
    return v[:, None] * (X.T @ v) - (v * v)[:, None] * X


def _variance_range(v: np.ndarray) -> tuple[float, float]:
    """(lo, hi): as C = Gram(z_i) for unit z_i, v'Cv = ||sum_i v_i z_i||^2 spans
    lo = (2 max|v_i| - sum|v_i|)_+^2 (triangle inequality) to hi = (sum|v_i|)^2
    (comonotonic), the scale of every tolerance on g in any units."""
    absv = np.abs(v)
    total = float(absv.sum())
    return max(0.0, 2.0 * float(absv.max()) - total) ** 2, total**2


def _weights_for(n: int, spec: MarketSpec) -> np.ndarray:
    """v = sigma o w of spec, which must price n assets."""
    if n != spec.n:
        raise ValueError(f"matrix is {n} x {n} for {spec.n} assets")
    return spec.scaled_weights()


def portfolio_variance(C, spec: MarketSpec) -> float:
    """Model index variance w' diag(sigma) C diag(sigma) w, the dense v'Cv."""
    arr = _as_corr(C).values
    v = _weights_for(arr.shape[0], spec)
    return float(v @ arr @ v)


def check_feasibility(C, spec: MarketSpec | None = None, tol: float = _VAR_TOL) -> FeasibilityReport:
    """Full feasibility report for a correlation-matrix candidate.

    Mathematical feasibility means symmetric, unit diagonal, entries in
    [-1, 1] and PSD (smallest eigenvalue >= -EPS_PSD, from
    :meth:`CorrMatrix.min_eigenvalue`).  Economic feasibility means the
    residual g = sigma_m^2 - w' diag(sigma) C diag(sigma) w of the spec's
    index constraint meets the solver's var_tol test, |g| <= tol *
    (sum_i |sigma_i w_i|)^2; it is reported as a one-element residual
    vector.  The residual of a matrix from :func:`assemble_correlation`
    comes from its loadings as hollow_form(v, X, X) + v'v, the solver's
    kernel, so it has the bits of a solve's constraint_residual; that of
    any other matrix from :func:`portfolio_variance`.  The two differ only
    in rounding, and a spec for another number of assets raises the same
    ValueError on both.  With spec=None the economic part is vacuously
    true and the vector is empty.

    Any other argument is read by :func:`_as_corr` (finite, square and
    non-empty; symmetrized as CorrMatrix does when its bits are not), and
    the eigenvalue and the residual come from that matrix.  Symmetry, the
    unit diagonal and the entry bound |c_ij| <= 1 + EPS_FEAS are tested on
    the argument itself, so an asymmetric input is reported as such.  C(X)
    is bounded by Cauchy-Schwarz when max_i ||X_i||^2 (1 + 4 k eps) <= 1 +
    EPS_FEAS, 4 k eps covering the rounding of a k-term dot product;
    otherwise, as for any other matrix, each entry is checked.
    """
    corr = _as_corr(C)
    raw = corr.values if corr is C else np.asarray(C, dtype=float)
    symmetric = corr is C or bool(np.array_equal(raw, raw.T))
    X = corr._loadings
    unit_diagonal = bool(np.all(np.diag(raw) == 1.0))
    bounded = False
    if X is not None:
        bounded = float(np.max(np.einsum("ij,ij->i", X, X))) * (1.0 + 4 * X.shape[1] * _EPS) <= 1.0 + EPS_FEAS
    bounded = bounded or bool(np.all(np.abs(raw) <= 1.0 + EPS_FEAS))
    min_eig = corr.min_eigenvalue()
    psd = min_eig >= -EPS_PSD

    if spec is None:
        residuals = np.empty(0)
        matched = True
    else:
        v = _weights_for(corr.n, spec)
        model = portfolio_variance(corr, spec) if X is None else hollow_form(v, X, X) + float(v @ v)
        residuals = np.array([spec.market.variance - model])
        matched = bool(abs(residuals[0]) <= tol * _variance_range(v)[1])

    return FeasibilityReport(
        symmetric=symmetric,
        unit_diagonal=unit_diagonal,
        bounded=bounded,
        min_eigenvalue=min_eig,
        psd=psd,
        constraint_residuals=residuals,
        economically_matched=matched,
    )
