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
assembling C(X), portfolio variance and a combined feasibility report.
It also holds the two O(n k) kernels of the index variance algebra, with
v = sigma o w and K = v v' o J = v v' - diag(v^2):

* :func:`hollow_form` evaluates v' [(L R') o J] v = <L, K R>, so the model
  index variance at X is hollow_form(v, X, X) + v'v;
* :func:`constraint_normal` evaluates K X; the gradient of the constraint
  residual g is dg/dX = -2 K X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical slack for membership tests of Omega (row squared norms <= 1).
EPS_FEAS = 1e-9

# Eigenvalue tolerance below which a matrix is reported as indefinite.
EPS_PSD = 1e-8

# Index weights must sum to one up to this tolerance; they are never
# renormalized silently.
WEIGHT_SUM_TOL = 1e-12


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
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
    container must be able to represent them; :meth:`in_omega` tests it.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"loadings must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"loadings must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("loadings contain non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def in_omega(self, eps: float = EPS_FEAS) -> bool:
        """True when every row satisfies ||X_i||^2 <= 1 + eps."""
        return bool(np.all(np.einsum("ij,ij->i", self.values, self.values) <= 1.0 + eps))


@dataclass(frozen=True)
class CorrMatrix:
    """A square correlation-matrix candidate.

    Construction symmetrizes via (C + C') / 2 and freezes the array, but it
    deliberately does not force unit diagonal, entry bounds, or positive
    semidefiniteness: several models in this package produce matrices that
    violate one of those conditions, and the violations must remain visible
    to :func:`check_feasibility` instead of being patched over.  Code paths
    that guarantee a property (for example :func:`assemble_correlation`)
    establish it explicitly before wrapping.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_array(self.values, "correlation matrix", 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {arr.shape}")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def is_psd(self, eps: float = EPS_PSD) -> bool:
        return self.min_eigenvalue() >= -eps


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
                f"got {self.variance!r}"
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
            raise ValueError(f"sigma[{bad}] = {s[bad]!r} is not positive")
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
        return {
            "symmetric": self.symmetric,
            "unit_diagonal": self.unit_diagonal,
            "bounded": self.bounded,
            "min_eigenvalue": self.min_eigenvalue,
            "psd": self.psd,
            "constraint_residuals": [float(r) for r in self.constraint_residuals],
            "economically_matched": self.economically_matched,
            "mathematically_feasible": self.mathematically_feasible,
            "feasible": self.feasible,
        }


def _loadings_array(X) -> np.ndarray:
    if isinstance(X, FactorLoadings):
        return X.values
    return FactorLoadings(X).values


def _corr_array(C) -> np.ndarray:
    if isinstance(C, CorrMatrix):
        return C.values
    return CorrMatrix(C).values


def assemble_correlation(X) -> CorrMatrix:
    """Build C(X) = J o (X X') + I.

    The Hadamard mask is realized by overwriting the diagonal of X X' with
    ones; J is never materialized.  For X in Omega the result is PSD by
    construction (X X' plus a nonnegative diagonal).  Rows outside Omega are
    not rejected here: the assembled matrix simply loses its PSD guarantee,
    which :func:`check_feasibility` will report.
    """
    arr = _loadings_array(X)
    C = arr @ arr.T
    np.fill_diagonal(C, 1.0)
    return CorrMatrix(C)


def hollow_form(v: np.ndarray, L: np.ndarray, R: np.ndarray) -> float:
    """v' [(L R') o J] v = (L'v)'(R'v) - sum_i v_i^2 <L_i, R_i>, in O(n k)."""
    lv = L.T @ v
    rv = lv if R is L else R.T @ v
    return float(lv @ rv) - float((v * v) @ np.einsum("ij,ij->i", L, R))


def constraint_normal(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K X with K = v v' o J, in O(n k); no n x n matrix is formed."""
    return v[:, None] * (X.T @ v) - (v * v)[:, None] * X


def portfolio_variance(C, spec: MarketSpec) -> float:
    """Model index variance w' diag(sigma) C diag(sigma) w."""
    arr = _corr_array(C)
    if arr.shape[0] != spec.n:
        raise ValueError(f"matrix is {arr.shape[0]} x {arr.shape[0]} for {spec.n} assets")
    v = spec.scaled_weights()
    return float(v @ arr @ v)


def check_feasibility(C, spec: MarketSpec | None = None, tol: float = 1e-6) -> FeasibilityReport:
    """Full feasibility report for a correlation-matrix candidate.

    Mathematical feasibility means symmetric, unit diagonal, entries in
    [-1, 1] and PSD (smallest eigenvalue >= -EPS_PSD).  Economic
    feasibility means the residual g = sigma_m^2 - w' diag(sigma) C
    diag(sigma) w of the spec's index constraint is at most tol in absolute
    value; it is reported as a one-element residual vector.  With
    spec=None the economic part is vacuously true and the vector is empty.

    Symmetry is tested on the raw argument when an ndarray is passed, so
    an asymmetric input is reported instead of being hidden by the
    symmetrization that CorrMatrix construction applies.
    """
    if isinstance(C, CorrMatrix):
        raw = C.values
    else:
        raw = _as_float_array(C, "correlation matrix", 2)
        if raw.shape[0] != raw.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {raw.shape}")
    symmetric = bool(np.array_equal(raw, raw.T))
    unit_diagonal = bool(np.all(np.diag(raw) == 1.0))
    bounded = bool(np.all(np.abs(raw) <= 1.0 + 1e-12))
    # (x + x) / 2 == x exactly, so a symmetric input needs no copy.
    sym = raw if symmetric else (raw + raw.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    psd = min_eig >= -EPS_PSD

    if spec is None:
        residuals = np.empty(0)
        matched = True
    else:
        corr = C if isinstance(C, CorrMatrix) else sym
        residuals = np.array([spec.market.variance - portfolio_variance(corr, spec)])
        matched = bool(abs(residuals[0]) <= tol)

    return FeasibilityReport(
        symmetric=symmetric,
        unit_diagonal=unit_diagonal,
        bounded=bounded,
        min_eigenvalue=min_eig,
        psd=psd,
        constraint_residuals=residuals,
        economically_matched=matched,
    )
