"""Economically motivated risk-neutral correlation from factor pricing.

Instead of staying as close as possible to an ex-post matrix, this route
moves every asset-to-factor correlation toward a comonotonic limit by a
single scalar.  Starting from physical-measure loadings X_P (rows of
per-asset correlations with k orthogonal pricing factors), the risk
neutral loadings are

    X_Q = X_P + alpha (upsilon 1 - X_P),    0 <= alpha <= 1,

where 1 is the all-ones matrix and upsilon in {-1, 0, +1} is the sign of
the correlation risk premium sigma_m^2 - w' diag(sigma) C(X_P) diag(sigma) w.
At alpha = 0 the physical correlations are kept; at alpha = 1 every asset
is perfectly (anti-)correlated with every factor.  Substituting X_Q into
the index variance constraint gives a scalar quadratic in alpha,

    sDD alpha^2 + 2 sPD alpha + (sPP - sigma_m^2) = 0,

with X_D = upsilon 1 - X_P and

    sPP = v' [ (X_P X_P') o J + I ] v        (index variance at X_P),
    sDD = v' [ (X_D X_D') o J ] v,
    sPD = v' [ (X_P X_D') o J ] v,            v = sigma o w,

whose economically meaningful root is

    alpha = ( -sPD + upsilon sqrt(sPD^2 - sDD (sPP - sigma_m^2)) ) / sDD.

A premium within the rounding error of sPP (see _premium) is zero and
gives upsilon = 0 and alpha = 0.  The route, economic_implied_corr,
orthogonalizes the factor columns first (classical Gram-Schmidt without
normalization, so already-orthogonal inputs pass through unchanged),
because the comonotonic endpoint X_Q = upsilon 1 only represents perfect
dependence when the factors are uncorrelated.  It then sizes alpha, moves
to X_Q and assembles C(X_Q).  Its result records what the route could not
keep: the rows the orthogonalization pushed outside Omega (projected back
onto it), whether alpha lies in [0, 1], and the rows of X_Q outside Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_FEAS,
    CorrMatrix,
    FactorLoadings,
    MarketSpec,
    _clip_omega,
    _loadings_array,
    assemble_correlation,
    hollow_form,
)


@dataclass(frozen=True)
class EconomicResult:
    """Risk-neutral loadings, matrix and diagnostics of the economic route.

    sigma_P_sq, sigma_Delta_sq and sigma_PDelta_sq are the quadratic's
    coefficients sPP, sDD and sPD.  clipped_rows are the rows that the
    orthogonalization pushed outside Omega and projected back onto it;
    rows_outside_omega are the rows of X_Q with squared norm above
    1 + EPS_FEAS, which C(X_Q) may not survive as a PSD matrix.
    """

    alpha_tilde: float
    upsilon: int
    X_Q: FactorLoadings
    C: CorrMatrix
    sigma_P_sq: float
    sigma_Delta_sq: float
    sigma_PDelta_sq: float
    alpha_in_unit_interval: bool
    clipped_rows: tuple[int, ...]
    rows_outside_omega: tuple[int, ...]


def _orthogonalize(X_P) -> tuple[np.ndarray, tuple[int, ...]]:
    """Classical Gram-Schmidt on the factor columns, without normalization,
    and the rows it pushed outside Omega.

    Column order is fixed by the input (orthogonalize against all earlier
    columns), matching the convention of ordering pricing factors by
    importance: market first, then size, value and further factors.
    Because columns are not rescaled, an already-orthogonal input is
    returned unchanged up to roundoff.  Rows pushed outside Omega are
    projected onto it (rescaled to unit norm by core's _clip_omega).

    Raises ValueError naming the offending column when a column is (close
    to) linearly dependent on its predecessors.
    """
    U = _loadings_array(X_P).copy()
    n, k = U.shape
    for d in range(k):
        col_norm_in = float(np.linalg.norm(U[:, d]))
        for j in range(d):
            denom = float(U[:, j] @ U[:, j])
            U[:, d] -= (float(U[:, j] @ U[:, d]) / denom) * U[:, j]
        if float(np.linalg.norm(U[:, d])) <= 1e-10 * max(1.0, col_norm_in):
            raise ValueError(
                f"factor column {d} is linearly dependent on earlier columns; "
                "orthogonalization is rank-deficient"
            )
    over = np.flatnonzero(np.einsum("ij,ij->i", U, U) > 1.0)
    _clip_omega(U)
    return U, tuple(over.tolist())


def _premium(arr: np.ndarray, spec: MarketSpec) -> tuple[float, int]:
    """sPP = v' C(X_P) v by the O(n k) hollow form, and the sign upsilon of
    the premium sigma_m^2 - sPP.  The premium is zero when it is within the
    rounding errors of sPP by the hollow form and by the dense v' C(X) v
    (synth, portfolio_variance), which Higham's dot-product bound gamma_m =
    m u / (1 - m u) (Accuracy and Stability of Numerical Algorithms, 2002,
    Sec. 3.1) puts at gamma_(2n+k+2) B and gamma_(2n+k) B, with r_i =
    ||x_i|| and B = (sum |v_i| r_i)^2 + sum v_i^2 (1 + r_i^2); their sum is
    at most gamma_(4n+2k+2) B.
    """
    n, k = arr.shape
    if n != spec.n:
        raise ValueError(f"loadings have {n} rows for {spec.n} assets")
    v = spec.scaled_weights()
    vv = v * v
    r2 = np.einsum("ij,ij->i", arr, arr)
    sPP = hollow_form(v, arr, arr, norms=r2, vv=vv) + float(v @ v)
    premium = spec.market.variance - sPP
    mu = (4 * n + 2 * k + 2) * np.finfo(np.float64).eps / 2.0
    bound = mu / (1.0 - mu) * (float(np.abs(v) @ np.sqrt(r2)) ** 2 + float(vv @ (1.0 + r2)))
    return sPP, int(premium > bound) - int(premium < -bound)


def _alpha_tilde(arr: np.ndarray, spec: MarketSpec) -> tuple[float, int, float, float, float]:
    """The scalar alpha that moves the loadings arr (orthogonal factor
    columns) toward the comonotonic limit far enough to match the index
    variance sigma_m^2, with upsilon, sPP, sDD and sPD.

    The move's direction upsilon is the sign of the correlation risk
    premium at arr (see _premium); a zero premium gives alpha = 0.  Raises
    ValueError carrying the discriminant value when the constraint is
    unreachable along upsilon.  An alpha outside [0, 1] is returned as it
    is, never clamped: the caller sees the model's actual answer.
    """
    sPP, ups = _premium(arr, spec)

    v = spec.scaled_weights()
    target = spec.market.variance
    X_D = float(ups) - arr
    sDD = hollow_form(v, X_D, X_D)
    sPD = hollow_form(v, arr, X_D)

    if ups == 0:
        # Zero premium: the constraint already holds at X_P up to rounding.
        alpha = 0.0
    elif sDD == 0.0:
        if sPD == 0.0:
            raise ValueError(
                "index variance constraint is unreachable: the move toward the "
                "comonotonic limit does not change the index variance"
            )
        alpha = (target - sPP) / (2.0 * sPD)
    else:
        disc = sPD * sPD - sDD * (sPP - target)
        if disc < 0.0:
            raise ValueError(
                f"index variance constraint is unreachable from these loadings "
                f"(discriminant {disc!r} < 0)"
            )
        root = ups * math.sqrt(disc)
        if sPD * ups > 0.0:
            # Same root, rationalized: -sPD and root cancel in this sign
            # regime, and the rationalized form degrades gracefully to the
            # linear fallback as sDD -> 0.
            alpha = (target - sPP) / (sPD + root)
        else:
            alpha = (-sPD + root) / sDD
    return float(alpha), ups, sPP, sDD, sPD


def economic_implied_corr(X_P, spec: MarketSpec) -> EconomicResult:
    """Full economic route: orthogonalize X_P to X_O, size the move, go to
    X_Q = X_O + alpha (upsilon 1 - X_O) and assemble C(X_Q).

    For alpha in [0, 1] and X_O in Omega, rows of X_Q leave Omega only
    for k > 1 and upsilon != 0, where the comonotonic limit is
    incompatible with the row's budget; the result lists them.
    """
    X_O, clipped = _orthogonalize(X_P)
    alpha, ups, sPP, sDD, sPD = _alpha_tilde(X_O, spec)
    X_Q = FactorLoadings(X_O + alpha * (float(ups) - X_O))
    r2 = np.einsum("ij,ij->i", X_Q.values, X_Q.values)
    return EconomicResult(
        alpha_tilde=alpha,
        upsilon=ups,
        X_Q=X_Q,
        C=assemble_correlation(X_Q),
        sigma_P_sq=sPP,
        sigma_Delta_sq=sDD,
        sigma_PDelta_sq=sPD,
        alpha_in_unit_interval=0.0 <= alpha <= 1.0,
        clipped_rows=clipped,
        rows_outside_omega=tuple(np.flatnonzero(r2 > 1.0 + EPS_FEAS).tolist()),
    )
