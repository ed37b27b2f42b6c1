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

A zero premium gives alpha = 0 by continuity.  The pipeline
orthogonalizes the factor columns first (classical Gram-Schmidt without
normalization, so already-orthogonal inputs pass through unchanged),
because the comonotonic endpoint X_Q = upsilon 1 only represents perfect
dependence when the factors are uncorrelated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CorrMatrix,
    FactorLoadings,
    MarketSpec,
    _loadings_array,
    assemble_correlation,
    hollow_form,
    portfolio_variance,
)


class AlphaSolution(NamedTuple):
    """Root of the risk-neutralization quadratic plus its coefficients."""

    alpha_tilde: float
    upsilon: int
    sigma_P_sq: float
    sigma_Delta_sq: float
    sigma_PDelta_sq: float
    in_unit_interval: bool


@dataclass(frozen=True)
class EconomicResult:
    """Risk-neutral loadings, matrix and diagnostics of the economic route."""

    alpha_tilde: float
    upsilon: int
    X_Q: FactorLoadings
    C: CorrMatrix
    sigma_P_sq: float
    sigma_Delta_sq: float
    sigma_PDelta_sq: float
    constraint_residual: float
    alpha_in_unit_interval: bool


def orthogonalize_loadings(X_P) -> FactorLoadings:
    """Classical Gram-Schmidt on the factor columns, without normalization.

    Column order is fixed by the input (orthogonalize against all earlier
    columns), matching the convention of ordering pricing factors by
    importance: market first, then size, value and further factors.
    Because columns are not rescaled, an already-orthogonal input is
    returned unchanged up to roundoff.

    Raises ValueError naming the offending column when a column is (close
    to) linearly dependent on its predecessors.  Rows pushed outside Omega
    by the orthogonalization are rescaled to unit norm with a warning.
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
    r2 = np.einsum("ij,ij->i", U, U)
    over = r2 > 1.0
    if np.any(over):
        rows = np.flatnonzero(over)
        warnings.warn(
            f"orthogonalization pushed rows {rows.tolist()} outside the unit "
            "ball; rescaling them to unit norm",
            stacklevel=2,
        )
        U[over] /= np.sqrt(r2[over])[:, None]
    return FactorLoadings(U)


def crp_sign(X_P, spec: MarketSpec) -> int:
    """Sign of the correlation risk premium sigma_m^2 - v' C(X_P) v.

    The premium is evaluated on the assembled matrix, as portfolio_variance
    and the synthetic markets evaluate it, so that a target set equal to
    the model variance gives exactly zero.  The O(n k) hollow form rounds
    differently, and a premium one rounding away from zero can make
    solve_alpha_tilde take its far root instead of alpha = 0.
    """
    premium = spec.market.variance - portfolio_variance(assemble_correlation(X_P), spec)
    if premium > 0.0:
        return 1
    if premium < 0.0:
        return -1
    return 0


def solve_alpha_tilde(X_P, spec: MarketSpec, upsilon: int | None = None) -> AlphaSolution:
    """Scalar alpha moving X_P toward the comonotonic limit far enough to
    match the index variance.

    Parameters
    ----------
    X_P : FactorLoadings or array_like
        Physical-measure loadings with orthogonal factor columns.
    spec : MarketSpec
        Volatilities and the index constraint, which supplies sigma_m^2.
    upsilon : int, optional
        Direction of the move, +1 / -1 / 0.  Defaults to the sign of the
        correlation risk premium at X_P.

    Raises ValueError carrying the discriminant value when the constraint
    is unreachable along the chosen direction.  An alpha outside [0, 1]
    triggers a warning, never a clamp: the caller sees the model's actual
    answer.
    """
    arr = _loadings_array(X_P)
    if arr.shape[0] != spec.n:
        raise ValueError(f"loadings have {arr.shape[0]} rows for {spec.n} assets")
    ups = crp_sign(arr, spec) if upsilon is None else int(upsilon)
    if ups not in (-1, 0, 1):
        raise ValueError(f"upsilon must be -1, 0 or +1, got {upsilon!r}")

    v = spec.scaled_weights()
    target = spec.market.variance
    X_D = float(ups) - arr

    sPP = hollow_form(v, arr, arr) + float(v @ v)
    sDD = hollow_form(v, X_D, X_D)
    sPD = hollow_form(v, arr, X_D)

    if ups == 0:
        # Zero premium: the constraint already holds at X_P and the limit
        # alpha -> 0 of both nonzero-premium branches is zero.
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

    in_unit = 0.0 <= alpha <= 1.0
    if not in_unit:
        warnings.warn(
            f"alpha_tilde = {alpha!r} lies outside [0, 1]; the risk-neutral "
            "loadings extrapolate beyond the comonotonic limit",
            stacklevel=2,
        )
    return AlphaSolution(
        alpha_tilde=float(alpha),
        upsilon=ups,
        sigma_P_sq=sPP,
        sigma_Delta_sq=sDD,
        sigma_PDelta_sq=sPD,
        in_unit_interval=in_unit,
    )


def risk_neutral_loadings(X_P, alpha_tilde: float, upsilon: int) -> FactorLoadings:
    """X_Q = X_P + alpha (upsilon 1 - X_P).

    Rows outside Omega after the move are reported with a warning and
    returned as-is; for alpha in [0, 1] and X_P in Omega with orthogonal
    columns this cannot happen with upsilon = 0 or k = 1, and violations
    for k > 1 flag that the comonotonic limit is incompatible with the
    row's budget.
    """
    arr = _loadings_array(X_P)
    X_Q = arr + alpha_tilde * (float(upsilon) - arr)
    r2 = np.einsum("ij,ij->i", X_Q, X_Q)
    over = np.flatnonzero(r2 > 1.0 + 1e-12)
    if over.size:
        warnings.warn(
            f"risk-neutral loadings leave rows {over.tolist()} outside the unit "
            f"ball (max squared norm {float(np.max(r2)):.6g})",
            stacklevel=2,
        )
    return FactorLoadings(X_Q)


def economic_implied_corr(X_P, spec: MarketSpec) -> EconomicResult:
    """Full economic route: orthogonalize, size the move, assemble C(X_Q).

    Returns the risk-neutral loadings and matrix together with the
    quadratic's coefficients and the realized constraint residual, which
    is zero up to roundoff whenever alpha solves the quadratic exactly.
    """
    X_O = orthogonalize_loadings(X_P)
    ups = crp_sign(X_O, spec)
    sol = solve_alpha_tilde(X_O, spec, ups)
    X_Q = risk_neutral_loadings(X_O, sol.alpha_tilde, ups)
    C = assemble_correlation(X_Q)
    residual = spec.market.variance - portfolio_variance(C, spec)
    return EconomicResult(
        alpha_tilde=sol.alpha_tilde,
        upsilon=ups,
        X_Q=X_Q,
        C=C,
        sigma_P_sq=sol.sigma_P_sq,
        sigma_Delta_sq=sol.sigma_Delta_sq,
        sigma_PDelta_sq=sol.sigma_PDelta_sq,
        constraint_residual=float(residual),
        alpha_in_unit_interval=sol.in_unit_interval,
    )
