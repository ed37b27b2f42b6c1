"""Synthetic option markets and return-based target estimators.

The generator draws a ground-truth factor structure and prices a
hypothetical index option market on top of it: loadings X_true with rows
uniform in the unit ball (so C(X_true) is a valid correlation matrix with
genuine k-factor structure), implied volatilities uniform on a realistic
band, power-law index weights, and an index implied variance

    sigma_m^2 = (1 + crp) w' diag(sigma) C(X_true) diag(sigma) w,

where crp expresses the correlation risk premium as a relative markup on
the variance under the true matrix.  The target is capped at the
comonotonic bound (sum_i w_i sigma_i)^2, beyond which no correlation
matrix can reproduce it; the snapshot's meta records a capped target as
comonotonic_clipped.

With periods > 0 the generator also simulates return panels from the
factor model r_t = diag(sigma) (X eta_t + sqrt(h) o eps_t) with iid
standard normal factor and idiosyncratic draws, so estimation error can
be studied: the sample correlations of the panel scatter around
C(X_true), and regressing assets on factors recovers X_true noisily.

Estimators:

* estimate_target_matrix builds the solver target from a return panel,
  either as a plain sample correlation matrix over a trailing window or
  as a mean-reverting blend rho_hat_ij = theta_ij rho_ij +
  (1 - theta_ij) rhobar_ij between the window estimate and the full
  sample per-pair mean, with reversion speeds theta_ij drawn uniformly
  from [0, 0.4).  Neither construction guarantees PSD, which is the point:
  these are the matrices a repair step has to fix.
* estimate_factor_correlations estimates physical loadings as pairwise
  correlations between asset and factor returns.

Everything is driven by numpy Generators seeded from ints or
SeedSequences, so any run is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import CorrMatrix, FactorLoadings, IndexConstraint, MarketSpec, _variance_range, assemble_correlation
from .io import MarketSnapshot

# Uniform band of the component implied volatilities, and the Pareto tail
# exponent of the index weights (smaller = more concentrated).
VOL_RANGE = (0.1, 0.6)
WEIGHT_TAIL = 1.5
# Uniform band of the pairwise reversion speeds of the mean-reverting target.
THETA_RANGE = (0.0, 0.4)


def _seed_label(seed) -> str:
    if isinstance(seed, np.random.SeedSequence):
        label = str(seed.entropy)
        if seed.spawn_key:
            label += "-" + ".".join(str(s) for s in seed.spawn_key)
        return label
    return str(seed)


def generate_synthetic_market(
    n: int,
    k_true: int,
    crp: float,
    seed,
    periods: int = 0,
) -> tuple[MarketSnapshot, CorrMatrix]:
    """Draw a ground-truth market with a known correlation risk premium.

    Parameters
    ----------
    n, k_true : int
        Number of assets and of true risk factors.
    crp : float
        Relative variance markup; crp = 0 makes the true matrix itself
        economically feasible.  Must exceed -1.
    seed : int or numpy SeedSequence
        Drives every random draw.
    periods : int
        If positive, also simulate this many return observations.

    Volatilities are uniform on VOL_RANGE and index weights are Pareto
    sizes with tail exponent WEIGHT_TAIL, normalized to sum to one.

    Returns the snapshot (spec, target, loadings, optional return panels,
    with the generating matrix under both target and truth) and the true
    correlation matrix.
    """
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if not 1 <= k_true <= n:
        raise ValueError(f"k_true must lie in [1, {n}], got {k_true}")
    if crp <= -1.0:
        raise ValueError(f"crp must exceed -1, got {crp}")
    rng = np.random.default_rng(seed)

    # Rows uniform in the unit ball: isotropic direction, radius u^(1/k).
    Z = rng.standard_normal((n, k_true))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    radius = rng.uniform(size=n) ** (1.0 / k_true)
    X_true = Z * radius[:, None]
    C_true = assemble_correlation(X_true)

    sigma = rng.uniform(*VOL_RANGE, size=n)
    sizes = 1.0 + rng.pareto(WEIGHT_TAIL, size=n)
    w = sizes / np.sum(sizes)
    # Exact unit sum despite rounding; adjust the largest weight.
    w[np.argmax(w)] += 1.0 - np.sum(w)

    v = sigma * w
    base = float(v @ C_true.values @ v)
    target_var = (1.0 + crp) * base
    cap = _variance_range(v)[1]
    clipped = target_var > cap
    if clipped:
        target_var = cap

    spec = MarketSpec(sigma, (IndexConstraint("market", w, target_var),))

    asset_returns = None
    factor_returns = None
    if periods > 0:
        h = np.clip(1.0 - np.einsum("ij,ij->i", X_true, X_true), 0.0, None)
        eta = rng.standard_normal((periods, k_true))
        eps = rng.standard_normal((periods, n))
        asset_returns = (eta @ X_true.T + eps * np.sqrt(h)) * sigma
        factor_returns = eta

    snapshot = MarketSnapshot(
        date=f"synthetic-{_seed_label(seed)}",
        spec=spec,
        target=C_true.values,
        loadings=FactorLoadings(X_true),
        factor_names=[f"factor_{d + 1}" for d in range(k_true)],
        asset_returns=asset_returns,
        factor_returns=factor_returns,
        truth=C_true.values,
        meta={
            "generator": "factor-model",
            "n": int(n),
            "k_true": int(k_true),
            "crp": float(crp),
            "periods": int(periods),
            "comonotonic_clipped": clipped,
        },
    )
    return snapshot, C_true


def _window_slice(returns: np.ndarray, window: int | None, what: str) -> np.ndarray:
    T = returns.shape[0]
    if window is None:
        window = T
    if window < 3:
        raise ValueError(f"{what} needs a window of at least 3 periods, got {window}")
    if window > T:
        raise ValueError(f"{what} window {window} exceeds the {T} available periods")
    return returns[-window:]


def _check_nonconstant(panel: np.ndarray, what: str) -> None:
    sd = panel.std(axis=0)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        raise ValueError(
            f"{what} series {dead.tolist()} are constant over the window; "
            "their correlations are undefined"
        )


def _sample_corr(panel: np.ndarray) -> np.ndarray:
    C = np.corrcoef(panel, rowvar=False)
    C = np.atleast_2d(C)
    np.fill_diagonal(C, 1.0)
    return C


def estimate_target_matrix(
    returns,
    mode: str = "historical",
    window: int | None = None,
    seed=None,
) -> CorrMatrix:
    """Solver target from a T x n return panel.

    mode="historical" is the sample correlation matrix over the trailing
    window.  mode="mean_reverting" blends the window estimate toward the
    full-sample per-pair correlation with pairwise uniform reversion
    speeds from THETA_RANGE (seeded; symmetric by construction).  Any
    other mode raises ValueError.  Neither estimate is guaranteed PSD
    once the window is short relative to n.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] < 2:
        raise ValueError(f"returns must be T x n with n >= 2, got shape {returns.shape}")
    sub = _window_slice(returns, window, "target estimation")
    _check_nonconstant(sub, "return")
    rho = _sample_corr(sub)
    if mode == "historical":
        return CorrMatrix(rho)
    if mode != "mean_reverting":
        raise ValueError(f"mode must be 'historical' or 'mean_reverting', got {mode!r}")

    _check_nonconstant(returns, "return")
    rho_bar = _sample_corr(returns)
    n = rho.shape[0]
    rng = np.random.default_rng(seed)
    theta = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    theta[iu] = rng.uniform(*THETA_RANGE, size=iu[0].size)
    theta = theta + theta.T

    blended = theta * rho + (1.0 - theta) * rho_bar
    np.fill_diagonal(blended, 1.0)
    return CorrMatrix(blended)


def estimate_factor_correlations(
    asset_returns,
    factor_returns,
    window: int | None = None,
) -> FactorLoadings:
    """Physical loadings as asset-to-factor sample correlations.

    The result is an honest estimate: rows may fall outside the unit ball
    when factors are correlated in sample, and the economic route is
    expected to orthogonalize and rescale as needed.
    """
    A = np.asarray(asset_returns, dtype=float)
    F = np.asarray(factor_returns, dtype=float)
    if A.ndim != 2 or F.ndim != 2:
        raise ValueError("return panels must be 2-dimensional")
    if A.shape[0] != F.shape[0]:
        raise ValueError(
            f"asset and factor panels disagree on periods ({A.shape[0]} vs {F.shape[0]})"
        )
    A = _window_slice(A, window, "loading estimation")
    F = _window_slice(F, window, "loading estimation")
    _check_nonconstant(A, "asset return")
    _check_nonconstant(F, "factor return")

    Za = (A - A.mean(axis=0)) / A.std(axis=0)
    Zf = (F - F.mean(axis=0)) / F.std(axis=0)
    X = (Za.T @ Zf) / A.shape[0]
    return FactorLoadings(X)
