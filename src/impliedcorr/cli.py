"""Command line interface to the implied-correlation toolkit.

Subcommands:

* check       feasibility report for a correlation matrix
* equicorr    implied equicorrelation matrix from a market spec
* adjust      ex-post matrix blended toward a bound to match the index
* nearest     nearest factor-structured implied correlation matrix
* repair      nearest, framed as a repair; its files are named repair_*
* economic    factor-pricing route from physical loadings
* vg-convert  variance-gamma direct parameters to centered quantities
* synth       generate a synthetic market snapshot
* bench       deterministic model comparison on synthetic markets

check, adjust, nearest, repair and economic take each input (--matrix or
--target, --loadings, --spec) from its file option when that is given,
else from the --snapshot's field of the same role; a snapshot field is
parsed only when it is used.  The printed record holds every artifact's
path (written with --out-dir) under "paths" and, from a command that
writes a matrix, that matrix's full feasibility report under "feasibility".

The module imports only the standard library; the handlers' numeric
stack (numpy and the package's modules) is imported once the arguments
parse, so --help and usage errors never load it.

Exit codes: 0 success, 1 validation error, 2 non-convergence, bench
failures or an infeasible matrix from nearest, repair or economic (equicorr
and adjust report one and exit 0: a raw blend may be indefinite), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys

from . import _VAR_TOL

# The numeric names the handlers use, by module; cli_dispatch binds them
# into this module once the arguments parse.
_NUMERIC = {
    "numpy": ("ndarray",),
    ".baselines": ("adjusted_ex_post", "equicorrelation"),
    ".bench": ("BenchSuite", "rows_to_csv", "run_bench"),
    ".core": ("CorrMatrix", "FactorLoadings", "check_feasibility"),
    ".economic": ("economic_implied_corr",),
    ".io": ("_dump_json", "_load_json", "load_snapshot", "read_loadings_csv", "read_market_spec",
            "read_matrix_csv", "read_solver_config", "read_vg_params", "save_snapshot",
            "write_loadings_csv", "write_market_spec", "write_matrix_csv"),
    ".solver": ("RestorationError", "SolverConfig", "solve_nicm"),
    ".synth": ("generate_synthetic_market",),
    ".vg": ("direct_to_centered_corr", "vg_centered_moments", "vg_market_constraint"),
}


def _bind_numeric() -> None:
    """Bind every name of _NUMERIC into this module, keeping a name that is
    already set (a test's or a tracer's stand-in)."""
    scope = globals()
    for module, names in _NUMERIC.items():
        mod = importlib.import_module(module, __package__)
        for name in names:
            scope.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if any(name in names for names in _NUMERIC.values()):
        _bind_numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _solver_config(args) -> SolverConfig:
    """The --config file's config (else the default) with -k and --tol-var applied."""
    config = read_solver_config(args.config) if args.config else SolverConfig()
    given = {"k": args.k, "var_tol": args.tol_var}
    return dataclasses.replace(config, **{f: v for f, v in given.items() if v is not None})


# Each input's reader, looked up by name when it is called, and the
# snapshot field that stands in for its file.
_INPUTS = {
    "matrix": (lambda path: read_matrix_csv(path), "target"),
    "target": (lambda path: read_matrix_csv(path), "target"),
    "loadings": (lambda path: read_loadings_csv(path)[1], "loadings"),
    "spec": (lambda path: read_market_spec(path), "spec"),
}


def _inputs(args, *names: str, optional: tuple[str, ...] = ()) -> list:
    """Each named input from its file option when given, else from the
    --snapshot's field, which is parsed only then.  An optional input
    that neither gives is None; a required one is an error."""
    snap = None if args.snapshot is None else load_snapshot(args.snapshot)
    required = [name for name in names if name not in optional]
    if snap is None and any(getattr(args, name) is None for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise CliUsageError(f"either --snapshot or {flags} must be given")
    values = []
    for name in names:
        read, field = _INPUTS[name]
        path = getattr(args, name)
        if path is not None:
            value = read(path)
        else:
            value = None if snap is None else getattr(snap, field)
        if value is None and name in required:
            raise ValueError(f"{args.snapshot}: snapshot carries no {field}")
        values.append(value)
    return values


def _write_artifact(args, out: dict, key: str, name: str, write, *data) -> None:
    """With --out-dir, write(path, *data) to the file name there and record
    the path as out["paths"][key]."""
    if args.out_dir is None:
        return
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    write(path, *data)
    out.setdefault("paths", {})[key] = path


def _feasibility(out: dict, C, spec, tol: float) -> bool:
    """Record the written matrix C's report as out["feasibility"]; returns whether C is feasible."""
    report = check_feasibility(C, spec, tol=tol)
    out["feasibility"] = report.to_dict()
    return report.feasible


def _fields(record) -> dict:
    """A result record's fields other than its matrices, loadings and arrays."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    matrices = (CorrMatrix, FactorLoadings, ndarray)
    return {k: v for k, v in values.items() if not isinstance(v, matrices)}


def _cmd_check(args) -> int:
    M, spec = _inputs(args, "matrix", "spec", optional=("spec",))
    report = check_feasibility(M, spec, tol=args.tol_var)
    _emit(args, report.to_dict())
    return EXIT_OK


def _cmd_equicorr(args) -> int:
    spec = read_market_spec(args.spec)
    res = equicorrelation(spec)
    out = _fields(res)
    _write_artifact(args, out, "C", "equicorr_C.csv", write_matrix_csv, res.C.values)
    _feasibility(out, res.C, spec, args.tol_var)
    _emit(args, out)
    return EXIT_OK


def _cmd_adjust(args) -> int:
    C_P, spec = _inputs(args, "target", "spec")
    res = adjusted_ex_post(C_P, spec, workaround=not args.no_workaround)
    out = _fields(res)
    _write_artifact(args, out, "C", "adjusted_C.csv", write_matrix_csv, res.C_Q.values)
    _feasibility(out, res.C_Q, spec, args.tol_var)
    # Kept at the top level too: perfbench's cli-chain check reads it there.
    out["min_eigenvalue"] = out["feasibility"]["min_eigenvalue"]
    _emit(args, out)
    return EXIT_OK


def _cmd_nearest(args) -> int:
    """nearest and repair: one solve, its files named after the command."""
    A, spec = _inputs(args, "target", "spec")
    config = _solver_config(args)
    result = solve_nicm(A, spec, config)
    out = result.to_dict()
    _write_artifact(args, out, "result", f"{args.command}_result.json", _dump_json, dict(out))
    _write_artifact(args, out, "C", f"{args.command}_C.csv", write_matrix_csv, result.C_star.values)
    _write_artifact(args, out, "X", f"{args.command}_X.csv", write_loadings_csv, result.X_star)
    feasible = _feasibility(out, result.C_star, spec, config.var_tol)
    _emit(args, out)
    return EXIT_OK if feasible and result.converged else EXIT_NONCONVERGENCE


def _cmd_economic(args) -> int:
    X_P, spec = _inputs(args, "loadings", "spec")
    res = economic_implied_corr(X_P, spec)
    out = _fields(res)
    _write_artifact(args, out, "C", "economic_C.csv", write_matrix_csv, res.C.values)
    _write_artifact(args, out, "X_Q", "economic_XQ.csv", write_loadings_csv, res.X_Q)
    # economic takes no --tol-var; its report uses check's default.
    feasible = _feasibility(out, res.C, spec, _VAR_TOL)
    _emit(args, out)
    return EXIT_OK if feasible else EXIT_NONCONVERGENCE


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
        _write_artifact(args, out, "C_centered", "vg_C_centered.csv", write_matrix_csv, C_cen.values)
        _write_artifact(args, out, "sigma", "vg_sigma.csv", write_matrix_csv,
                        sigma.reshape(-1, 1), ["sigma"])
    if args.spec is not None:
        spec = read_market_spec(args.spec)
        adjusted = vg_market_constraint(params, spec)
        out["adjusted_variances"] = [adjusted.market.variance]
        _write_artifact(args, out, "adjusted_spec", "vg_adjusted_spec.json", write_market_spec, adjusted)
    _emit(args, out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    snapshot, _ = generate_synthetic_market(
        args.n, args.k_true, args.crp, args.seed, periods=args.periods
    )
    path = save_snapshot(snapshot, args.out_dir, stem=args.stem)
    _emit(args, {"snapshot": path, "seed": args.seed, "date": snapshot.date})
    return EXIT_OK


def _cmd_bench(args) -> int:
    d = _load_json(args.suite)
    if args.seed is not None:
        d["seed"] = args.seed
    suite = BenchSuite.from_dict(d)
    rows, table = run_bench(suite, out_dir=args.out_dir)
    if args.format == "csv":
        print(rows_to_csv(rows), end="")
    else:
        print(table, end="")
    return EXIT_NONCONVERGENCE if any(r.failures for r in rows) else EXIT_OK


_SHARED = {
    "--config": dict(help="solver config JSON file"),
    "--seed": dict(type=int, help="RNG seed (synth default 0; bench default: the suite's seed)"),
    "--tol-var": dict(type=float, help=f"variance constraint tolerance (default {_VAR_TOL:g})"),
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
                     "--tol-var", "--format", tol_var=_VAR_TOL)
    sp.add_argument("--matrix", help="correlation matrix CSV")
    sp.add_argument("--spec", help="market spec JSON")
    sp.add_argument("--snapshot", help="snapshot JSON (uses its target and spec)")

    sp = _subcommand(sub, "equicorr", "implied equicorrelation", _cmd_equicorr,
                     "--tol-var", "--out-dir", "--format", tol_var=_VAR_TOL)
    sp.add_argument("--spec", required=True, help="market spec JSON")

    sp = _subcommand(sub, "adjust", "blend an ex-post matrix toward a bound", _cmd_adjust,
                     "--tol-var", "--out-dir", "--format", tol_var=_VAR_TOL)
    sp.add_argument("--target", help="ex-post correlation matrix CSV")
    sp.add_argument("--spec", help="market spec JSON")
    sp.add_argument("--snapshot", help="snapshot JSON (uses its target and spec)")
    sp.add_argument("--no-workaround", action="store_true",
                    help="keep the all-ones bound even for a negative premium")

    for name, help_text in (
        ("nearest", "nearest factor-structured implied correlation matrix"),
        ("repair", "repair an infeasible matrix via the nearest-matrix solve"),
    ):
        sp = _subcommand(sub, name, help_text, _cmd_nearest,
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

    sp = _subcommand(sub, "synth", "generate a synthetic market", _cmd_synth, "--seed", "--format",
                     seed=0)
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
    _bind_numeric()
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
