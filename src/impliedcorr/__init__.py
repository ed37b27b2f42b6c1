"""Option-implied correlation matrices that are feasible by construction.

The package parametrizes correlation matrices through k-factor loadings,
C(X) = J o (X X') + I, which makes positive semidefiniteness structural,
and calibrates X to option-implied index variances.  It ships closed-form
baselines (equicorrelation, adjusted ex-post), a projected-gradient
nearest-matrix solver with inexact restoration, an economically motivated
factor-pricing route, a variance-gamma parametrization bridge, synthetic
market generation, and a CLI.
"""

from .baselines import (
    AdjustedExPostResult,
    EquicorrResult,
    adjusted_ex_post,
    equicorrelation,
)
from .bench import BenchCell, BenchRow, BenchSuite, run_bench
from .core import (
    EPS_FEAS,
    EPS_PSD,
    CorrMatrix,
    FactorLoadings,
    FeasibilityReport,
    IndexConstraint,
    MarketSpec,
    assemble_correlation,
    check_feasibility,
    portfolio_variance,
)
from .economic import (
    AlphaSolution,
    EconomicResult,
    crp_sign,
    economic_implied_corr,
    orthogonalize_loadings,
    risk_neutral_loadings,
    solve_alpha_tilde,
)
from .io import (
    MarketSnapshot,
    load_snapshot,
    read_loadings_csv,
    read_market_spec,
    read_matrix_csv,
    read_solver_config,
    read_vg_params,
    save_snapshot,
    write_loadings_csv,
    write_market_spec,
    write_matrix_csv,
)
from .solver import (
    RestorationError,
    SolverConfig,
    SolverResult,
    initial_loadings,
    objective,
    objective_gradient,
    reference_solve,
    solve_nicm,
)
from .synth import (
    estimate_factor_correlations,
    estimate_target_matrix,
    generate_synthetic_market,
)
from .vg import (
    VGParams,
    direct_to_centered_corr,
    vg_centered_moments,
    vg_market_constraint,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedExPostResult",
    "AlphaSolution",
    "BenchCell",
    "BenchRow",
    "BenchSuite",
    "CorrMatrix",
    "EPS_FEAS",
    "EPS_PSD",
    "EconomicResult",
    "EquicorrResult",
    "FactorLoadings",
    "FeasibilityReport",
    "IndexConstraint",
    "MarketSnapshot",
    "MarketSpec",
    "RestorationError",
    "SolverConfig",
    "SolverResult",
    "VGParams",
    "adjusted_ex_post",
    "assemble_correlation",
    "check_feasibility",
    "crp_sign",
    "direct_to_centered_corr",
    "economic_implied_corr",
    "equicorrelation",
    "estimate_factor_correlations",
    "estimate_target_matrix",
    "generate_synthetic_market",
    "initial_loadings",
    "load_snapshot",
    "objective",
    "objective_gradient",
    "orthogonalize_loadings",
    "portfolio_variance",
    "read_loadings_csv",
    "read_market_spec",
    "read_matrix_csv",
    "read_solver_config",
    "read_vg_params",
    "reference_solve",
    "risk_neutral_loadings",
    "run_bench",
    "save_snapshot",
    "solve_alpha_tilde",
    "solve_nicm",
    "vg_centered_moments",
    "vg_market_constraint",
    "write_loadings_csv",
    "write_market_spec",
    "write_matrix_csv",
]
