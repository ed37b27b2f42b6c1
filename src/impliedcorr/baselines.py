"""Closed-form implied correlation baselines.

Two classic constructions that match the index variance constraint exactly
without running an optimizer:

* Equicorrelation: a single common pairwise correlation c solving
  sigma_m^2 = w' diag(sigma) C diag(sigma) w, namely

      c = (sigma_m^2 - sum_i w_i^2 sigma_i^2)
          / ((sum_i w_i sigma_i)^2 - sum_i w_i^2 sigma_i^2).

  The resulting matrix is PSD iff -1/(n-1) <= c <= 1.

* Adjusted ex-post: shift a historical (ex-post) matrix C_P toward a bound
  matrix B just far enough to hit the index variance:

      C_Q = alpha B + (1 - alpha) C_P.

  When the correlation risk premium is nonnegative B is the all-ones
  comonotonic matrix; when it is negative the all-ones bound leads to a
  lower correlation bound instead, and B becomes the matrix with off
  diagonal entries -1/(n-1), the PSD floor of equicorrelation.  Because
  the index variance is affine in alpha along the blend, alpha has the
  closed form

      alpha = (sigma_m^2 - s_P) / (s_B - s_P),

  with s_P, s_B the index variances under C_P and B.  Both bound matrices
  are PSD, so the blend is PSD for alpha in [0, 1] whenever C_P is PSD;
  outside that interval the output can be indefinite, which is exactly
  how non-PSD repair targets arise in practice.

The negative-premium branch has a known wrinkle: entries of C_P below
-1/(n-1) are scaled *up* toward the bound while entries above it are
scaled down, so the adjustment direction is not uniform across pairs.
:func:`adjusted_ex_post` reports this via scaling_consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CorrMatrix, MarketSpec, _as_corr, portfolio_variance


@dataclass(frozen=True)
class EquicorrResult:
    """Common correlation level, assembled matrix and PSD-range flag."""

    c_bar: float
    C: CorrMatrix
    in_psd_range: bool


@dataclass(frozen=True)
class AdjustedExPostResult:
    """Outcome of the ex-post adjustment toward a correlation bound."""

    alpha_hat: float
    C_Q: CorrMatrix
    used_lower_bound: bool
    crp_sign: int
    scaling_consistent: bool


def equicorrelation(spec: MarketSpec) -> EquicorrResult:
    """Implied equicorrelation for the index constraint of the market spec.

    Raises ValueError when the denominator (sum_i w_i sigma_i)^2 -
    sum_i w_i^2 sigma_i^2 is not positive, which happens only for a single
    asset or a degenerate weight vector.
    """
    con = spec.market
    v = spec.scaled_weights()
    lin = float(np.sum(v))
    quad = float(v @ v)
    den = lin * lin - quad
    if den <= 0.0:
        raise ValueError(
            f"equicorrelation undefined for constraint {con.name!r}: "
            f"(sum w_i sigma_i)^2 - sum w_i^2 sigma_i^2 = {den!r} <= 0"
        )
    c_bar = (con.variance - quad) / den
    n = spec.n
    C = np.full((n, n), c_bar)
    np.fill_diagonal(C, 1.0)
    lower = -1.0 / (n - 1)
    return EquicorrResult(
        c_bar=c_bar,
        C=CorrMatrix(C),
        in_psd_range=lower <= c_bar <= 1.0,
    )


def _bound_matrix(n: int, upper: bool) -> np.ndarray:
    if upper:
        return np.ones((n, n))
    if n == 1:
        raise ValueError("a single asset has no lower bound -1/(n - 1) to blend toward")
    B = np.full((n, n), -1.0 / (n - 1))
    np.fill_diagonal(B, 1.0)
    return B


def adjusted_ex_post(
    C_P,
    spec: MarketSpec,
    workaround: bool = True,
) -> AdjustedExPostResult:
    """Blend an ex-post matrix toward a bound to match the index variance.

    Parameters
    ----------
    C_P : CorrMatrix or array_like
        Ex-post (historical) correlation matrix.  Assumed symmetric with
        unit diagonal; PSD is not required.
    spec : MarketSpec
        Volatilities and the index constraint, which supplies sigma_m^2.
    workaround : bool
        With True (default) a negative correlation risk premium switches
        the bound from the all-ones matrix to the equicorrelation PSD
        floor, keeping the blend inside the PSD cone for alpha in [0, 1).
        With False the all-ones bound is kept regardless of sign; a
        negative premium then forces alpha < 0 and routinely produces an
        indefinite matrix, which is the standard way to manufacture
        repair targets.

    Raises
    ------
    ValueError
        If s_B == s_P, in which case the blend cannot move the index
        variance and no alpha exists, or a single asset needs the floor.
    """
    P = _as_corr(C_P).values
    con = spec.market
    s_P = portfolio_variance(P, spec)
    premium = con.variance - s_P
    upper = premium >= 0.0 or not workaround
    B = _bound_matrix(spec.n, upper)
    s_B = portfolio_variance(B, spec)
    if s_B == s_P:
        raise ValueError(
            f"adjustment toward the {'upper' if upper else 'lower'} bound cannot "
            f"change the variance of constraint {con.name!r} (s_B == s_P == {s_P!r})"
        )
    alpha = premium / (s_B - s_P)

    C_Q = alpha * B + (1.0 - alpha) * P
    np.fill_diagonal(C_Q, 1.0)

    # Scaling is inconsistent on the lower-bound branch when entries
    # straddle -1/(n-1): pairs below the bound move up while pairs above
    # it move down.
    scaling_consistent = True
    if not upper:
        floor = -1.0 / (spec.n - 1)
        off = ~np.eye(spec.n, dtype=bool)
        below = np.any(P[off] < floor)
        above = np.any(P[off] > floor)
        scaling_consistent = not (below and above)

    return AdjustedExPostResult(
        alpha_hat=float(alpha),
        C_Q=CorrMatrix(C_Q),
        used_lower_bound=not upper,
        crp_sign=(premium > 0.0) - (premium < 0.0),
        scaling_consistent=scaling_consistent,
    )

