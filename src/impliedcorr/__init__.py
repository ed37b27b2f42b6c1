"""Option-implied correlation matrices that are feasible by construction.

The package parametrizes correlation matrices through k-factor loadings,
C(X) = J o (X X') + I, which makes positive semidefiniteness structural,
and calibrates X to option-implied index variances.  It ships closed-form
baselines (equicorrelation, adjusted ex-post), a projected-gradient
nearest-matrix solver with inexact restoration, an economically motivated
factor-pricing route, a variance-gamma parametrization bridge, synthetic
market generation, and a CLI.

Importing the package loads only the standard library: each public name
and each submodule is imported on first access (PEP 562), so that the
CLI's help and usage errors do not pay for numpy.
"""

import importlib

__version__ = "0.1.0"

# The default variance-constraint tolerance of the solver, the feasibility
# check, the bench and the CLI, relative to (sum_i |sigma_i w_i|)^2.
_VAR_TOL = 1e-6

# Each public name, by the submodule that defines it.
_NAMES = {
    "baselines": ("AdjustedExPostResult", "EquicorrResult", "adjusted_ex_post", "equicorrelation"),
    "bench": ("BenchCell", "BenchRow", "BenchSuite", "run_bench"),
    "core": ("EPS_FEAS", "EPS_PSD", "CorrMatrix", "FactorLoadings", "FeasibilityReport",
             "IndexConstraint", "MarketSpec", "assemble_correlation", "check_feasibility",
             "portfolio_variance"),
    "economic": ("EconomicResult", "economic_implied_corr"),
    "io": ("MarketSnapshot", "load_snapshot", "read_loadings_csv", "read_market_spec",
           "read_matrix_csv", "read_vg_params", "save_snapshot", "write_loadings_csv",
           "write_market_spec", "write_matrix_csv"),
    "solver": ("RestorationError", "SolverConfig", "SolverResult", "initial_loadings", "objective",
               "objective_gradient", "solve_nicm"),
    "synth": ("estimate_factor_correlations", "estimate_target_matrix", "generate_synthetic_market"),
    "vg": ("VGParams", "direct_to_centered_corr", "vg_centered_moments", "vg_market_constraint"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Looked up in the submodule on every access and never stored here, so
    # that a rebinding there (a test's stand-in, a tracer's wrapper, and its
    # undoing) shows through the package too.
    module = name if name in _NAMES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    return mod if module == name else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_NAMES))
