"""Command line interface to the implied-correlation toolkit.

Subcommands:

* check       feasibility report for a correlation matrix
* equicorr    implied equicorrelation matrix from a market spec
* adjust      ex-post matrix blended toward a bound to match the index
* nearest     nearest factor-structured implied correlation matrix
* repair      nearest-matrix solve treated as a repair of an infeasible
              input, with a feasibility report on the result
* economic    factor-pricing route from physical loadings
* vg-convert  variance-gamma direct parameters to centered quantities
* synth       generate a synthetic market snapshot
* bench       deterministic model comparison on synthetic markets

Exit codes: 0 success, 1 validation error, 2 non-convergence (or bench
failures), 3 I/O error.  The seed can also be supplied through the
IMPLIEDCORR_SEED environment variable; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .baselines import adjusted_ex_post, equicorrelation
from .bench import BenchSuite, run_bench
from .core import check_feasibility
from .economic import economic_implied_corr
from .io import (
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
    write_vector_csv,
    _dump_json,
    _load_json,
)
from .solver import RestorationError, SolverConfig, solve_nicm
from .synth import generate_synthetic_market
from .vg import direct_to_centered_corr, vg_centered_moments, vg_market_constraint

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    non-convergence, so usage errors are rerouted to exit code 1."""

    def error(self, message):
        raise CliUsageError(message)


def _emit(args, obj: dict) -> None:
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            writer.writerow([key, str(val)])
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("IMPLIEDCORR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"IMPLIEDCORR_SEED={env!r} is not an integer") from None
    return 0


def _solver_config(args, k: int | None = None) -> SolverConfig:
    base = read_solver_config(args.config).to_dict() if args.config else {}
    if k is not None:
        base["k"] = k
    if args.tol_var is not None:
        base["var_tol"] = args.tol_var
    return SolverConfig.from_dict(base)


def _load_target_and_spec(args) -> tuple[np.ndarray, object]:
    """Resolve --target/--spec or --snapshot into (matrix, spec)."""
    if args.snapshot is not None:
        snap = load_snapshot(args.snapshot)
        if snap.target is None:
            raise ValueError(f"{args.snapshot}: snapshot carries no target matrix")
        return snap.target, snap.spec
    if args.target is None or args.spec is None:
        raise CliUsageError("either --snapshot or both --target and --spec are required")
    return read_matrix_csv(args.target), read_market_spec(args.spec)


def _cmd_check(args) -> int:
    spec = None
    if args.snapshot is not None:
        snap = load_snapshot(args.snapshot)
        spec = snap.spec
        if args.matrix is not None:
            M = read_matrix_csv(args.matrix)
        elif snap.target is not None:
            M = snap.target
        else:
            raise ValueError(f"{args.snapshot}: snapshot carries no target matrix to check")
    else:
        if args.matrix is None:
            raise CliUsageError("--matrix (or --snapshot) is required")
        M = read_matrix_csv(args.matrix)
        if args.spec is not None:
            spec = read_market_spec(args.spec)
    report = check_feasibility(M, spec, tol=args.tol_var)
    _emit(args, report.to_dict())
    return EXIT_OK


def _cmd_equicorr(args) -> int:
    spec = read_market_spec(args.spec)
    res = equicorrelation(spec)
    report = check_feasibility(res.C, spec, tol=args.tol_var)
    out = {
        "c_bar": res.c_bar,
        "in_psd_range": res.in_psd_range,
        "psd": report.psd,
        "constraint_residuals": [float(r) for r in report.constraint_residuals],
    }
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "equicorr_C.csv")
        write_matrix_csv(path, res.C.values)
        out["C"] = path
    _emit(args, out)
    return EXIT_OK


def _cmd_adjust(args) -> int:
    C_P, spec = _load_target_and_spec(args)
    res = adjusted_ex_post(C_P, spec, workaround=not args.no_workaround)
    report = check_feasibility(res.C_Q, spec, tol=args.tol_var)
    out = {
        "alpha_hat": res.alpha_hat,
        "used_lower_bound": res.used_lower_bound,
        "crp_sign": res.crp_sign,
        "scaling_consistent": res.scaling_consistent,
        "psd": report.psd,
        "min_eigenvalue": report.min_eigenvalue,
        "constraint_residuals": [float(r) for r in report.constraint_residuals],
    }
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "adjusted_C.csv")
        write_matrix_csv(path, res.C_Q.values)
        out["C"] = path
    _emit(args, out)
    return EXIT_OK


def _write_solver_outputs(out_dir: str, stem: str, result) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "result": os.path.join(out_dir, f"{stem}_result.json"),
        "C": os.path.join(out_dir, f"{stem}_C.csv"),
        "X": os.path.join(out_dir, f"{stem}_X.csv"),
    }
    _dump_json(paths["result"], result.to_dict())
    write_matrix_csv(paths["C"], result.C_star.values)
    write_loadings_csv(paths["X"], result.X_star)
    return paths


def _cmd_nearest(args, stem: str = "nearest") -> int:
    A, spec = _load_target_and_spec(args)
    config = _solver_config(args, k=args.k)
    result = solve_nicm(A, spec, config)
    out = result.to_dict()
    if args.out_dir is not None:
        out["paths"] = _write_solver_outputs(args.out_dir, stem, result)
    if stem == "repair":
        report = check_feasibility(
            result.C_star, spec, tol=config.var_tol
        )
        out["feasibility"] = report.to_dict()
        _emit(args, out)
        if not (result.converged and report.feasible):
            return EXIT_NONCONVERGENCE
        return EXIT_OK
    _emit(args, out)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_repair(args) -> int:
    return _cmd_nearest(args, stem="repair")


def _cmd_economic(args) -> int:
    if args.snapshot is not None:
        snap = load_snapshot(args.snapshot)
        if snap.loadings is None:
            raise ValueError(f"{args.snapshot}: snapshot carries no loadings")
        X_P, spec = snap.loadings, snap.spec
    else:
        if args.loadings is None or args.spec is None:
            raise CliUsageError("either --snapshot or both --loadings and --spec are required")
        _, X_P = read_loadings_csv(args.loadings)
        spec = read_market_spec(args.spec)
    res = economic_implied_corr(X_P, spec)
    out = {
        "alpha_tilde": res.alpha_tilde,
        "upsilon": res.upsilon,
        "sigma_P_sq": res.sigma_P_sq,
        "sigma_Delta_sq": res.sigma_Delta_sq,
        "sigma_PDelta_sq": res.sigma_PDelta_sq,
        "constraint_residual": res.constraint_residual,
        "alpha_in_unit_interval": res.alpha_in_unit_interval,
    }
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        c_path = os.path.join(args.out_dir, "economic_C.csv")
        x_path = os.path.join(args.out_dir, "economic_XQ.csv")
        write_matrix_csv(c_path, res.C.values)
        write_loadings_csv(x_path, res.X_Q)
        out["paths"] = {"C": c_path, "X_Q": x_path}
    _emit(args, out)
    return EXIT_OK


def _cmd_vg_convert(args) -> int:
    params = read_vg_params(args.params)
    out: dict = {"n": params.n, "nu": params.nu}
    if params.C_dir is None and args.spec is None:
        raise ValueError(
            f"{args.params}: params carry no direct correlation matrix and no "
            "--spec was given; nothing to convert"
        )
    if params.C_dir is not None:
        sigma, C_cen = direct_to_centered_corr(params)
        mean, _ = vg_centered_moments(params)
        out["sigma"] = [float(s) for s in sigma]
        out["mean"] = [float(m) for m in mean]
        if args.out_dir is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            c_path = os.path.join(args.out_dir, "vg_C_centered.csv")
            s_path = os.path.join(args.out_dir, "vg_sigma.csv")
            write_matrix_csv(c_path, C_cen.values)
            write_vector_csv(s_path, "sigma", sigma)
            out["paths"] = {"C_centered": c_path, "sigma": s_path}
    if args.spec is not None:
        spec = read_market_spec(args.spec)
        adjusted = vg_market_constraint(params, spec)
        out["adjusted_variances"] = [adjusted.market.variance]
        if args.out_dir is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            spec_path = os.path.join(args.out_dir, "vg_adjusted_spec.json")
            write_market_spec(spec_path, adjusted)
            out.setdefault("paths", {})["adjusted_spec"] = spec_path
    _emit(args, out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    snapshot, _ = generate_synthetic_market(
        args.n, args.k_true, args.crp, seed, periods=args.periods
    )
    path = save_snapshot(snapshot, args.out_dir, stem=args.stem)
    _emit(args, {"snapshot": path, "seed": seed, "date": snapshot.date})
    return EXIT_OK


def _cmd_bench(args) -> int:
    d = _load_json(args.suite)
    if args.seed is not None:
        d["seed"] = args.seed
    suite = BenchSuite.from_dict(d)
    rows, table = run_bench(suite, out_dir=args.out_dir)
    if args.format == "csv":
        from .bench import rows_to_csv

        print(rows_to_csv(rows), end="")
    else:
        print(table, end="")
    if any(r.failures for r in rows):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


_SHARED = {
    "--config": dict(help="solver config JSON file"),
    "--seed": dict(type=int, help="RNG seed (fallback: IMPLIEDCORR_SEED, then 0)"),
    "--tol-var": dict(type=float, help=f"variance constraint tolerance (default {SolverConfig.var_tol:g})"),
    "--out-dir": dict(help="directory for output files"),
    "--format": dict(choices=("json", "csv"), default="json", help="stdout format (default json)"),
}


def _subcommand(sub, name: str, help_text: str, func, *shared: str, **defaults) -> _Parser:
    """Subcommand `name` run by func, with the shared options it reads and no others."""
    sp = sub.add_parser(name, help=help_text)
    for flag in shared:
        sp.add_argument(flag, **_SHARED[flag])
    sp.set_defaults(func=func, **defaults)
    return sp


def _build_parser() -> _Parser:
    p = _Parser(prog="impliedcorr",
                description="feasible option-implied correlation matrices")
    sub = p.add_subparsers(dest="command", metavar="command")

    # check, equicorr and adjust test feasibility at the solver's default
    # tolerance; nearest and repair leave --tol-var unset so that the
    # --config file's var_tol holds.
    sp = _subcommand(sub, "check", "feasibility report for a matrix", _cmd_check,
                     "--tol-var", "--format", tol_var=SolverConfig.var_tol)
    sp.add_argument("--matrix", help="correlation matrix CSV")
    sp.add_argument("--spec", help="market spec JSON")
    sp.add_argument("--snapshot", help="snapshot JSON (uses its target and spec)")

    sp = _subcommand(sub, "equicorr", "implied equicorrelation", _cmd_equicorr,
                     "--tol-var", "--out-dir", "--format", tol_var=SolverConfig.var_tol)
    sp.add_argument("--spec", required=True, help="market spec JSON")

    sp = _subcommand(sub, "adjust", "blend an ex-post matrix toward a bound", _cmd_adjust,
                     "--tol-var", "--out-dir", "--format", tol_var=SolverConfig.var_tol)
    sp.add_argument("--target", help="ex-post correlation matrix CSV")
    sp.add_argument("--spec", help="market spec JSON")
    sp.add_argument("--snapshot", help="snapshot JSON (uses its target and spec)")
    sp.add_argument("--no-workaround", action="store_true",
                    help="keep the all-ones bound even for a negative premium")

    for name, help_text, func in (
        ("nearest", "nearest factor-structured implied correlation matrix", _cmd_nearest),
        ("repair", "repair an infeasible matrix via the nearest-matrix solve", _cmd_repair),
    ):
        sp = _subcommand(sub, name, help_text, func,
                         "--config", "--tol-var", "--out-dir", "--format")
        sp.add_argument("--target", help="target matrix CSV")
        sp.add_argument("--spec", help="market spec JSON")
        sp.add_argument("--snapshot", help="snapshot JSON (uses its target and spec)")
        sp.add_argument("-k", type=int, default=None,
                        help="number of factors (default: the --config file's k, else 1)")

    sp = _subcommand(sub, "economic", "factor-pricing route", _cmd_economic, "--out-dir", "--format")
    sp.add_argument("--loadings", help="physical loadings CSV (factor-name header)")
    sp.add_argument("--spec", help="market spec JSON")
    sp.add_argument("--snapshot", help="snapshot JSON (uses its loadings and spec)")

    sp = _subcommand(sub, "vg-convert", "variance-gamma direct parameters to centered quantities",
                     _cmd_vg_convert, "--out-dir", "--format")
    sp.add_argument("--params", required=True, help="model parameters JSON")
    sp.add_argument("--spec", help="market spec JSON to transform alongside")

    sp = _subcommand(sub, "synth", "generate a synthetic market", _cmd_synth, "--seed", "--format")
    sp.add_argument("--out-dir", required=True, help="directory for the snapshot files")
    sp.add_argument("-n", type=int, required=True, help="number of assets")
    sp.add_argument("--k-true", type=int, required=True, help="true factor count")
    sp.add_argument("--crp", type=float, default=0.1, help="relative variance markup (default 0.1)")
    sp.add_argument("--periods", type=int, default=0, help="simulated return periods (default 0)")
    sp.add_argument("--stem", default="snapshot", help="output file stem (default snapshot)")

    sp = _subcommand(sub, "bench", "model comparison on synthetic markets", _cmd_bench,
                     "--seed", "--out-dir", "--format")
    sp.add_argument("--suite", required=True, help="bench suite JSON")

    return p


def cli_dispatch(argv: list[str]) -> int:
    """Parse argv, run the selected subcommand, map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RestorationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
