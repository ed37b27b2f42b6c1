"""Multivariate variance-gamma parametrization bridge.

A common multivariate variance-gamma model subordinates a correlated
Brownian motion to a single gamma clock G with unit mean and variance nu:

    Z = xi + theta G + omega o B_G,   B with correlation C_dir.

The model is usually quoted in *direct* parameters (xi, omega, theta, nu,
C_dir), but option-implied correlation work needs the *centered* moments
of Z: because the common gamma time mixes into every component,

    E[Z]   = xi + theta,
    Cov[Z] = diag(omega) C_dir diag(omega) + nu theta theta',

so the centered volatilities and correlations are

    sigma_i = sqrt(omega_i^2 + nu theta_i^2),
    C_cen   = inv(diag(sigma)) ( diag(omega) C_dir diag(omega)
                                 + nu theta theta' ) inv(diag(sigma)).

The skew term nu theta theta' also shifts the index variance constraint:
with index weights w,

    w' Cov[Z] w = w' diag(omega) C_dir diag(omega) w + nu (w' theta)^2,

so calibrating the *direct* correlation matrix to an index variance
sigma_m^2 means solving the usual constraint with volatilities omega and
the reduced target sigma_m^2 - nu (w' theta)^2.  vg_market_constraint
performs exactly this transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CorrMatrix, IndexConstraint, MarketSpec, _as_float_array, _corr_array


@dataclass(frozen=True)
class VGParams:
    """Direct parameters of the gamma-subordinated model.

    C_dir may be omitted (None) when only the marginal transformations are
    needed, for example in :func:`vg_market_constraint`.
    """

    xi: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    nu: float
    C_dir: CorrMatrix | None = None

    def __post_init__(self) -> None:
        xi = _as_float_array(self.xi, "xi", 1)
        omega = _as_float_array(self.omega, "omega", 1)
        theta = _as_float_array(self.theta, "theta", 1)
        if not (xi.size == omega.size == theta.size):
            raise ValueError(
                f"parameter lengths differ: xi {xi.size}, omega {omega.size}, theta {theta.size}"
            )
        if np.any(omega <= 0.0):
            bad = int(np.argmin(omega))
            raise ValueError(f"omega[{bad}] = {omega[bad]!r} is not positive")
        if not np.isfinite(self.nu) or self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu!r}")
        C = self.C_dir
        if C is not None:
            C = CorrMatrix(_corr_array(C))
            if C.n != xi.size:
                raise ValueError(f"C_dir is {C.n} x {C.n} for {xi.size} assets")
        for arr in (xi, omega, theta):
            arr.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "C_dir", C)

    @property
    def n(self) -> int:
        return self.xi.size


def vg_centered_moments(params: VGParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the log-return vector.

    Requires C_dir.  The covariance is the diffusive part plus the rank-one
    skew contribution of the common gamma clock.
    """
    if params.C_dir is None:
        raise ValueError("centered moments require the direct correlation matrix C_dir")
    mean = params.xi + params.theta
    D = params.omega[:, None] * params.C_dir.values * params.omega[None, :]
    cov = D + params.nu * np.outer(params.theta, params.theta)
    return mean, (cov + cov.T) / 2.0


def direct_to_centered_corr(params: VGParams) -> tuple[np.ndarray, CorrMatrix]:
    """Centered volatilities and correlation matrix implied by the model.

    The diagonal of the centered correlation matrix is set to one exactly;
    off-diagonal entries are cov_ij / (sigma_i sigma_j).
    """
    _, cov = vg_centered_moments(params)
    sigma = np.sqrt(params.omega**2 + params.nu * params.theta**2)
    C = cov / np.outer(sigma, sigma)
    np.fill_diagonal(C, 1.0)
    return sigma, CorrMatrix(C)


def vg_market_constraint(params: VGParams, spec: MarketSpec) -> MarketSpec:
    """Rewrite the index constraint in terms of the direct parameters.

    The returned spec carries omega as volatilities and the skew-adjusted
    target sigma_m^2 - nu (w' theta)^2, so that any solver matching
    w' diag(omega) C_dir diag(omega) w to the new target matches the
    original centered constraint exactly.

    Raises ValueError naming the constraint when the skew term consumes
    the whole index variance (adjusted target <= 0), which signals
    inconsistent inputs rather than a solvable problem.
    """
    if params.n != spec.n:
        raise ValueError(f"parameters cover {params.n} assets, spec has {spec.n}")
    con = spec.market
    skew = params.nu * float(con.weights @ params.theta) ** 2
    new_var = con.variance - skew
    if new_var <= 0.0:
        raise ValueError(
            f"variance-gamma skew term {skew!r} exceeds the index variance "
            f"{con.variance!r} of constraint {con.name!r}"
        )
    return MarketSpec(params.omega, (IndexConstraint(con.name, con.weights, new_var),))
