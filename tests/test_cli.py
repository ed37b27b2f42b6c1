"""CLI dispatch: exit codes, emitted JSON, file artifacts, seed handling."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from impliedcorr import cli
from impliedcorr.cli import cli_dispatch
from impliedcorr import _VAR_TOL
from impliedcorr.core import CorrMatrix, IndexConstraint, MarketSpec, check_feasibility, hollow_form
from impliedcorr.io import (
    load_snapshot,
    read_loadings_csv,
    read_market_spec,
    read_matrix_csv,
    write_loadings_csv,
    write_market_spec,
    write_matrix_csv,
)
from reference import hollow_rounding_bound


def write_spec(tmp_path, var=0.03, name="spec.json"):
    spec = MarketSpec(
        np.array([0.2, 0.2]),
        (IndexConstraint("market", np.array([0.5, 0.5]), var),),
    )
    path = str(tmp_path / name)
    write_market_spec(path, spec)
    return path


def write_vg_params(tmp_path, C_dir=None):
    """Model parameters for two assets with theta = (1, -1), nu = 0.5."""
    d = {"xi": [0.0, 0.0], "omega": [1.0, 1.0], "theta": [1.0, -1.0], "nu": 0.5, "C_dir": None}
    if C_dir is not None:
        write_matrix_csv(str(tmp_path / "C_dir.csv"), C_dir)
        d["C_dir"] = "C_dir.csv"
    path = str(tmp_path / "vg.json")
    with open(path, "w") as fh:
        json.dump(d, fh)
    return path


def run_json(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip().startswith("{") else out.out
    return code, payload, out.err


def fresh_process(*args):
    """Run the interpreter on args in a new process that imports this package."""
    import impliedcorr

    src = os.path.dirname(os.path.dirname(impliedcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_fresh(code):
    cp = fresh_process("-c", code)
    assert cp.returncode == 0, cp.stderr


def test_module_entry_point_exit_codes(tmp_path):
    spec = write_spec(tmp_path)
    cp = fresh_process("-m", "impliedcorr.cli", "equicorr", "--spec", spec)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["c_bar"] == pytest.approx(0.5, abs=1e-15)
    cp = fresh_process("-m", "impliedcorr.cli", "equicorr")
    assert cp.returncode == 1
    assert "--spec" in cp.stderr


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only the reference solver (the restoration's
    # root refinement is numpy); a fresh `import impliedcorr.cli` must not
    # pay for it.
    run_fresh("import sys, impliedcorr.cli; assert 'scipy.optimize' not in sys.modules")


def test_solve_path_leaves_scipy_linalg_unloaded():
    # Importing scipy.linalg raises the repair command's peak RSS by about
    # half (51 MB to 78 MB at n = 500); the solve and the feasibility check
    # run on numpy alone.  Market 808 of acceptance 08's hard-repair corpus
    # keeps its rows on the sphere, so its restorations refine roots along
    # the clipped curve; that runs on numpy alone too.
    run_fresh(
        "import sys, impliedcorr as ic\n"
        "snap, _ = ic.generate_synthetic_market(50, 3, 0.1, seed=7)\n"
        "res = ic.solve_nicm(snap.target, snap.spec, ic.SolverConfig(k=2))\n"
        "assert res.converged and ic.check_feasibility(res.C_star, snap.spec).feasible\n"
        "snap, C = ic.generate_synthetic_market(10, 2, 0.0, seed=808)\n"
        "con = snap.spec.constraints[0]\n"
        "spec = ic.MarketSpec(snap.spec.sigma, (ic.IndexConstraint(con.name, con.weights, 0.35 * con.variance),))\n"
        "A = ic.adjusted_ex_post(C.values, spec, workaround=False).C_Q.values\n"
        "res = ic.solve_nicm(A, spec, ic.SolverConfig(k=3))\n"
        "assert res.converged and ic.check_feasibility(res.C_star, spec).feasible\n"
        "assert 'scipy.linalg' not in sys.modules and 'scipy.optimize' not in sys.modules\n"
    )


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the one runtime dependency: with every scipy import refused,
    # the package's names, the README session and a bench of all four
    # models still run.
    cp = fresh_process(
        "-W", "error::RuntimeWarning", "-c",
        "import importlib.abc, json, os, sys\n"
        "class NoScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'no {name} here')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('scipy imported')\n"
        "from impliedcorr import *\n"
        "from impliedcorr.cli import cli_dispatch\n"
        "os.chdir(sys.argv[1])\n"
        "session = [\n"
        "    'synth -n 20 --k-true 3 --crp 0.1 --periods 260 --out-dir market',\n"
        "    'check --snapshot market/snapshot.json',\n"
        "    'nearest --snapshot market/snapshot.json -k 3 --out-dir out',\n"
        "    'economic --snapshot market/snapshot.json --out-dir eco',\n"
        "    'check --snapshot market/snapshot.json --matrix eco/economic_C.csv',\n"
        "    'synth -n 20 --k-true 3 --crp -0.1 --periods 260 --out-dir neg',\n"
        "    'adjust --snapshot neg/snapshot.json --no-workaround --out-dir adj',\n"
        "    'repair --snapshot neg/snapshot.json --target adj/adjusted_C.csv -k 3 --out-dir rep',\n"
        "    'check --snapshot neg/snapshot.json --matrix rep/repair_C.csv',\n"
        "]\n"
        "for line in session:\n"
        "    assert cli_dispatch(line.split()) == 0, line\n"
        "cells = [{'model': 'equicorr'}, {'model': 'adjusted', 'target': 'hist'},\n"
        "         {'model': 'nicm', 'k': 2}, {'model': 'economic'}]\n"
        "with open('suite.json', 'w') as fh:\n"
        "    json.dump({'cells': cells, 'n': 20, 'k_true': 2, 'periods': 260, 'instances': 1,\n"
        "               'measure_time': False}, fh)\n"
        "assert cli_dispatch(['bench', '--suite', 'suite.json', '--out-dir', 'bench']) == 0\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n",
        str(tmp_path),
    )
    assert cp.returncode == 0, cp.stderr


def test_csv_repair_leaves_numpy_random_unloaded(tmp_path):
    # The spectral start's vector is closed-form; a default_rng block loaded
    # numpy.random and raised the repair command's peak RSS by about 2 MB.
    # At n = 120 and k = 2 the Lanczos start runs (n >= 10 (k + 8)).
    rng = np.random.default_rng(5)
    X = rng.standard_normal((120, 2))
    X *= 0.9 / np.linalg.norm(X, axis=1, keepdims=True)
    A = X @ X.T + rng.normal(scale=0.02, size=(120, 120))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 1.0)
    write_matrix_csv(str(tmp_path / "A.csv"), A)
    sigma = np.full(120, 0.2)
    w = np.full(120, 1.0 / 120.0)
    v = sigma * w
    spec = MarketSpec(sigma, (IndexConstraint("market", w, 0.9 * float(v @ A @ v)),))
    write_market_spec(str(tmp_path / "spec.json"), spec)
    argv = ["repair", "--target", str(tmp_path / "A.csv"), "--spec", str(tmp_path / "spec.json"), "-k", "2"]
    run_fresh(
        "import sys\n"
        "from impliedcorr.cli import cli_dispatch\n"
        f"assert cli_dispatch({argv!r}) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )


@pytest.mark.parametrize("args, code", [
    (["-c", "import impliedcorr"], 0),
    (["-c", "import impliedcorr.cli"], 0),
    (["-m", "impliedcorr.cli", "--help"], 0),
    (["-m", "impliedcorr.cli", "repair", "--help"], 0),
    (["-m", "impliedcorr.cli", "equicorr"], 1),
], ids=["import-package", "import-cli", "help", "repair-help", "usage-error"])
def test_front_door_leaves_numpy_unloaded(args, code):
    # The package and the parser load only the standard library; numpy
    # comes in once a command's arguments parse.  -X importtime logs every
    # module the process imports, the package itself included.
    cp = fresh_process("-X", "importtime", *args)
    assert cp.returncode == code, cp.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in cp.stderr.splitlines()
              if line.startswith("import time:")}
    assert "impliedcorr" in loaded
    assert "numpy" not in loaded
    assert "RuntimeWarning" not in cp.stderr


def test_dispatch_keeps_a_name_set_before_it(tmp_path):
    # A stand-in set on the module before the first dispatch, as a tracer
    # sets one, survives the binding of the numeric names.
    spec = write_spec(tmp_path)
    cp = fresh_process(
        "-c",
        "import sys, impliedcorr.cli as cli\n"
        "def stand_in(spec):\n"
        "    raise ValueError('stand-in ran')\n"
        "cli.equicorrelation = stand_in\n"
        f"assert cli.cli_dispatch(['equicorr', '--spec', {spec!r}]) == 1\n"
        "assert cli.equicorrelation is stand_in and 'numpy' in sys.modules\n",
    )
    assert cp.returncode == 0, cp.stderr
    assert "error: stand-in ran" in cp.stderr


def test_no_command_prints_help():
    assert cli_dispatch([]) == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_json(capsys, ["frobnicate"])
    assert code == 1
    assert "error:" in err


# Each subcommand's otherwise valid argv, and the shared options it reads.
SUBCOMMANDS = {
    "check": (["--matrix", "m.csv"], {"--tol-var"}),
    "equicorr": (["--spec", "s.json"], {"--out-dir"}),
    "adjust": (["--snapshot", "s.json"], {"--out-dir"}),
    "nearest": (["--snapshot", "s.json"], {"--tol-var", "--out-dir"}),
    "repair": (["--snapshot", "s.json"], {"--tol-var", "--out-dir"}),
    "economic": (["--snapshot", "s.json"], {"--out-dir"}),
    "vg-convert": (["--params", "p.json"], {"--out-dir"}),
    "synth": (["-n", "4", "--k-true", "1", "--out-dir", "d"], {"--seed", "--out-dir"}),
    "bench": (["--suite", "b.json"], {"--out-dir"}),
}
# SHARED keeps the removed --config, --format, --tol-fn and --stem, which
# every command must now reject.
SHARED = {"--config": "c.json", "--seed": "1", "--tol-var": "1e-6", "--tol-fn": "1e-3",
          "--out-dir": "d", "--format": "json", "--stem": "y"}
UNREAD = [(cmd, flag) for cmd, (_, reads) in SUBCOMMANDS.items() for flag in SHARED if flag not in reads]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_subcommand_rejects_options_it_does_not_read(capsys, command, flag):
    argv, _ = SUBCOMMANDS[command]
    code, _, err = run_json(capsys, [command, *argv, flag, SHARED[flag]])
    assert code == 1
    assert f"unrecognized arguments: {flag}" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run_json(capsys, ["check", "--matrix", "/no/such/file.csv"])
    assert code == 3
    assert "error:" in err


def test_malformed_csv_is_validation_error(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,zebra\n")
    code, _, err = run_json(capsys, ["check", "--matrix", str(p)])
    assert code == 1
    assert "cannot parse" in err


def _spec_json(sigma, weights):
    return json.dumps({"sigma": sigma, "constraints": [{"name": "m", "weights": weights, "variance": 0.03}]})


# Each bad input file: the command and option that read it, its name and
# bytes, and the message after "error: <file>".
BAD_INPUTS = [
    pytest.param(["equicorr", "--spec"], "spec.json", _spec_json([0.2, 0.3], [0.5, 0.48]),
                 ": weights of constraint 'm' sum to 0.98, expected 1 within 1e-12", id="weights-0.98"),
    pytest.param(["equicorr", "--spec"], "spec.json", _spec_json([0.2, -0.1], [0.5, 0.5]),
                 ": sigma[1] = -0.1 is not positive", id="negative-sigma"),
    pytest.param(["check", "--snapshot"], "snapshot.json",
                 '{"schema_version": 1, "date": "2024-01-31", "spec": %s}' % _spec_json([0.2, 0.3], [0.5, 0.51]),
                 ": (spec): weights of constraint 'm' sum to 1.01, expected 1 within 1e-12",
                 id="snapshot-weights-1.01"),
    pytest.param(["vg-convert", "--params"], "p.json", '"xi"', ": expected a JSON object, got str",
                 id="params-string"),
    pytest.param(["vg-convert", "--params"], "p.json", "[1, 2]", ": expected a JSON object, got list",
                 id="params-list"),
    pytest.param(["vg-convert", "--params"], "p.json",
                 '{"xi": [0, 0], "omega": [0.3, -0.1], "theta": [0, 0], "nu": 0.5}',
                 ": omega[1] = -0.1 is not positive", id="negative-omega"),
    pytest.param(["bench", "--suite"], "suite.json", '[{"model": "equicorr"}]',
                 ": expected a JSON object, got list", id="suite-list"),
    pytest.param(["bench", "--suite"], "suite.json", '{"cells": [{"model": "nicm", "kk": 2}]}',
                 ": unknown cell fields: ['kk']", id="suite-cell-field"),
    pytest.param(["equicorr", "--spec"], "spec.json", b'{"sigma": "\xff"}',
                 ": 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
                 id="json-not-utf8"),
    pytest.param(["check", "--matrix"], "m.csv", b"1.0,0.\xff5\n0.5,1.0\n",
                 ":1: cannot parse '0.\ufffd5' as a number", id="csv-not-utf8"),
]


@pytest.mark.parametrize("argv, name, content, message", BAD_INPUTS)
def test_input_errors_name_their_file(tmp_path, capsys, argv, name, content, message):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, _, err = run_json(capsys, [*argv, str(path)])
    assert code == 1
    assert err == f"error: {path}{message}\n"


def test_check_reports_feasibility(tmp_path, capsys):
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    code, out, _ = run_json(capsys, ["check", "--matrix", m])
    assert code == 0
    assert out["feasible"] is True
    # identity cannot match a 0.03 index variance at these vols
    spec = write_spec(tmp_path, 0.03)
    code, out, _ = run_json(capsys, ["check", "--matrix", m, "--spec", spec])
    assert code == 0
    assert out["feasible"] is False
    assert out["constraint_residuals"][0] == pytest.approx(0.01)
    # but it does match 0.02 exactly
    spec = write_spec(tmp_path, 0.02, name="spec2.json")
    code, out, _ = run_json(capsys, ["check", "--matrix", m, "--spec", spec])
    assert out["feasible"] is True


def test_check_tol_var_is_relative_to_the_variance_unit(tmp_path, capsys):
    # sigma = 2^10 x 0.2 and w = (1/2, 1/2): sum_i |sigma_i w_i| = 204.8, so
    # every tolerance on g is a multiple of 204.8^2 = 41943.04.  The
    # identity gives v'v = 20971.52, and a target 0.01 above it leaves a
    # residual above --tol-var 1e-6 but within 1e-6 of the unit (0.042).
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    sigma = np.array([204.8, 204.8])
    for var, tol, matched in ((20971.53, "1e-6", True), (20971.53, "1e-7", False), (20971.62, "1e-6", False)):
        spec = str(tmp_path / "spec.json")
        write_market_spec(spec, MarketSpec(sigma, (IndexConstraint("market", np.array([0.5, 0.5]), var),)))
        code, out, _ = run_json(capsys, ["check", "--matrix", m, "--spec", spec, "--tol-var", tol])
        assert code == 0
        assert out["constraint_residuals"][0] == pytest.approx(var - 20971.52, abs=1e-9)
        assert out["economically_matched"] is matched, (var, tol)


def test_snapshot_commands_read_only_the_fields_they_use(tmp_path, capsys):
    # check --matrix reads only the snapshot's spec and adjust its target
    # and spec, so a corrupt return panel or loadings file fails neither.
    code, out, _ = run_json(
        capsys, ["synth", "-n", "6", "--k-true", "2", "--crp", "-0.1", "--periods", "9", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    snap = out["snapshot"]
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(6))
    commands = (["check", "--snapshot", snap, "--matrix", m], ["adjust", "--snapshot", snap, "--no-workaround"])

    def run_all():
        results = []
        for argv in commands:
            code = cli_dispatch(argv)
            results.append((code, capsys.readouterr().out))
        return results

    clean = run_all()
    assert [code for code, _ in clean] == [0, 0]
    (tmp_path / "snapshot_asset_returns.csv").write_text("0.1,oops\n")
    (tmp_path / "snapshot_loadings.csv").write_text("not,a,header\n0.1,0.2\n")
    assert run_all() == clean


@pytest.fixture
def market(tmp_path, capsys):
    """A synthetic n = 6 snapshot, its inputs as separate files, a spec with
    0.8 times its index variance and an equicorrelated target.  The economic
    route meets both specs with its loadings inside the unit ball."""
    argv = ["synth", "-n", "6", "--k-true", "2", "--seed", "2", "--out-dir", str(tmp_path / "m")]
    code, out, _ = run_json(capsys, argv)
    assert code == 0
    snap = load_snapshot(out["snapshot"])
    con = snap.spec.market
    files = {
        "snapshot": out["snapshot"],
        "spec": str(tmp_path / "spec.json"),
        "low": str(tmp_path / "low.json"),
        "target": str(tmp_path / "target.csv"),
        "loadings": str(tmp_path / "loadings.csv"),
        "other": str(tmp_path / "other.csv"),
    }
    write_market_spec(files["spec"], snap.spec)
    low = IndexConstraint(con.name, con.weights, 0.8 * con.variance)
    write_market_spec(files["low"], MarketSpec(snap.spec.sigma, (low,)))
    write_matrix_csv(files["target"], snap.target)
    write_loadings_csv(files["loadings"], snap.loadings, snap.factor_names)
    write_matrix_csv(files["other"], np.full((6, 6), 0.3) + 0.7 * np.eye(6))
    return files


def summary(capsys, argv):
    """Exit code and stdout record of argv, without its wall time."""
    code, out, err = run_json(capsys, argv)
    assert isinstance(out, dict), err
    out.pop("wall_time", None)
    return code, out


# (command, file options given with --snapshot, the same inputs from files alone)
OVERRIDES = [
    ("adjust", ["--target", "other"], ["--target", "other", "--spec", "spec"]),
    ("adjust", ["--spec", "low"], ["--target", "target", "--spec", "low"]),
    ("check", ["--spec", "low"], ["--matrix", "target", "--spec", "low"]),
    ("economic", ["--spec", "low"], ["--loadings", "loadings", "--spec", "low"]),
    ("nearest", ["--target", "other"], ["--target", "other", "--spec", "spec"]),
]


@pytest.mark.parametrize("command, extra, alone", OVERRIDES, ids=[f"{c}-{e[0][2:]}" for c, e, _ in OVERRIDES])
def test_file_option_wins_over_snapshot_field(market, capsys, command, extra, alone):
    def argv(opts):
        return [command, *[market.get(opt, opt) for opt in opts]]

    code, from_snapshot = summary(capsys, argv(["--snapshot", "snapshot"]))
    assert code == 0
    code, mixed = summary(capsys, argv(["--snapshot", "snapshot", *extra]))
    assert code == 0
    assert summary(capsys, argv(alone)) == (0, mixed)
    assert mixed != from_snapshot


def test_snapshot_fields_stand_in_for_missing_file_options(market, capsys):
    pairs = [
        (["check", "--snapshot", "snapshot"], ["check", "--matrix", "target", "--spec", "spec"]),
        (["economic", "--snapshot", "snapshot"], ["economic", "--loadings", "loadings", "--spec", "spec"]),
    ]
    for snap_argv, file_argv in pairs:
        code, out = summary(capsys, [market.get(a, a) for a in snap_argv])
        assert code == 0
        assert summary(capsys, [market.get(a, a) for a in file_argv]) == (0, out)


def test_missing_inputs_are_usage_errors(market, tmp_path, capsys):
    for argv in (["check"], ["check", "--spec", market["spec"]], ["economic", "--loadings", market["loadings"]]):
        code, _, err = run_json(capsys, argv)
        assert code == 1
        assert "either --snapshot" in err
    bare = tmp_path / "m" / "no_loadings.json"
    d = json.loads((tmp_path / "m" / "snapshot.json").read_text())
    del d["loadings"]
    bare.write_text(json.dumps(d))
    code, _, err = run_json(capsys, ["economic", "--snapshot", str(bare)])
    assert code == 1
    assert str(bare) in err and "loadings" in err


def test_equicorr_hand_value(tmp_path, capsys):
    spec = write_spec(tmp_path, 0.03)
    out_dir = str(tmp_path / "out")
    code, out, _ = run_json(capsys, ["equicorr", "--spec", spec, "--out-dir", out_dir])
    assert code == 0
    assert out["c_bar"] == pytest.approx(0.5, abs=1e-15)
    assert out["in_psd_range"] is True and out["feasibility"]["psd"] is True
    C = read_matrix_csv(os.path.join(out_dir, "equicorr_C.csv"))
    np.testing.assert_allclose(C, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_equicorr_requires_spec(capsys):
    code, _, err = run_json(capsys, ["equicorr"])
    assert code == 1
    assert "--spec" in err


def test_adjust_hand_value(tmp_path, capsys):
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    spec = write_spec(tmp_path, 0.03)
    out_dir = str(tmp_path / "out")
    code, out, _ = run_json(capsys, ["adjust", "--target", m, "--spec", spec, "--out-dir", out_dir])
    assert code == 0
    assert out["alpha_hat"] == pytest.approx(0.5, abs=1e-15)
    assert out["crp_sign"] == 1
    assert out["feasibility"]["psd"] is True
    assert abs(out["feasibility"]["constraint_residuals"][0]) <= 1e-15
    assert out["paths"]["C"] == os.path.join(out_dir, "adjusted_C.csv")
    np.testing.assert_allclose(read_matrix_csv(out["paths"]["C"]), [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_adjust_single_asset_is_an_error(tmp_path, capsys):
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(1))
    spec = str(tmp_path / "spec.json")
    write_market_spec(spec, MarketSpec(np.array([0.2]), (IndexConstraint("market", np.array([1.0]), 0.03),)))
    code, _, err = run_json(capsys, ["adjust", "--target", m, "--spec", spec, "--out-dir", str(tmp_path)])
    assert code == 1
    assert "single asset" in err


def test_nearest_from_snapshot(tmp_path, capsys):
    synth_dir = str(tmp_path / "synth")
    code, out, _ = run_json(
        capsys,
        ["synth", "-n", "6", "--k-true", "2", "--crp", "0.0", "--seed", "21", "--out-dir", synth_dir],
    )
    assert code == 0
    snap_path = out["snapshot"]
    near_dir = str(tmp_path / "near")
    code, out, _ = run_json(
        capsys,
        ["nearest", "--snapshot", snap_path, "-k", "2", "--out-dir", near_dir],
    )
    assert code == 0
    assert out["converged"] is True
    # zero premium: the generating matrix itself is feasible
    assert out["fn"] <= 1e-6
    assert abs(out["constraint_residual"]) <= 1e-6
    for name in ("nearest_result.json", "nearest_C.csv", "nearest_X.csv"):
        assert os.path.exists(os.path.join(near_dir, name))


def test_k_flag_sets_the_factor_count(tmp_path, capsys):
    # -k is the factor count's one source; without it the solve takes k = 1.
    market = str(tmp_path / "m")
    assert cli_dispatch(["synth", "-n", "8", "--k-true", "2", "--out-dir", market]) == 0
    capsys.readouterr()
    snap = os.path.join(market, "snapshot.json")
    for extra, k in (([], 1), (["-k", "2"], 2)):
        code, out, _ = run_json(capsys, ["nearest", "--snapshot", snap, *extra])
        assert code == 0 and out["k"] == k


def test_nearest_requires_inputs(capsys):
    code, _, err = run_json(capsys, ["nearest"])
    assert code == 1
    assert "either --snapshot" in err


def test_nearest_unreachable_target_exits_2(tmp_path, capsys):
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    spec = write_spec(tmp_path, 0.05)  # above the 0.04 comonotonic cap
    code, _, err = run_json(capsys, ["nearest", "--target", m, "--spec", spec])
    assert code == 2
    assert "comonotonic bound" in err


INDEFINITE = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])


def repair_argv(tmp_path):
    """repair argv for the indefinite 3 x 3 INDEFINITE and a reachable index variance."""
    m = str(tmp_path / "A.csv")
    write_matrix_csv(m, INDEFINITE)
    spec3 = MarketSpec(
        np.full(3, 0.2),
        (IndexConstraint("market", np.full(3, 1.0 / 3.0), 0.015),),
    )
    spec = str(tmp_path / "spec3.json")
    write_market_spec(spec, spec3)
    return ["repair", "--target", m, "--spec", spec, "-k", "2"]


def test_repair_fixes_indefinite_matrix(tmp_path, capsys):
    assert np.linalg.eigvalsh(INDEFINITE).min() < -0.5
    code, out, _ = run_json(capsys, repair_argv(tmp_path))
    assert code == 0
    assert out["converged"] is True
    assert out["feasibility"]["psd"] is True
    assert out["feasibility"]["feasible"] is True


@pytest.mark.parametrize("stub, converged, feasible", [
    ({"converged": False, "message": "stubbed"}, False, True),
    ({"C_star": CorrMatrix(INDEFINITE)}, True, False),
], ids=["not-converged", "infeasible"])
def test_repair_exits_2_unless_converged_and_feasible(tmp_path, capsys, monkeypatch, stub, converged, feasible):
    # nearest is the same command under another file stem, so the rule holds for both.
    real = cli.solve_nicm

    def stubbed(A, spec, config=None):
        return dataclasses.replace(real(A, spec, config), **stub)

    monkeypatch.setattr(cli, "solve_nicm", stubbed)
    for command in ("nearest", "repair"):
        code, out, _ = run_json(capsys, [command, *repair_argv(tmp_path)[1:]])
        assert code == 2
        assert (out["converged"], out["feasibility"]["feasible"]) == (converged, feasible)


def test_k_and_tol_var_reach_the_solve(tmp_path, capsys, monkeypatch):
    # -k and --tol-var are the one source of the solve's k and var_tol;
    # without them it takes k = 1 and the default tolerance.
    seen = []
    real = cli.solve_nicm

    def spy(A, spec, config=None):
        seen.append(config)
        return real(A, spec, config)

    monkeypatch.setattr(cli, "solve_nicm", spy)
    argv = repair_argv(tmp_path)[:-2]
    for extra, want in (([], (1, _VAR_TOL)), (["-k", "2", "--tol-var", "1e-7"], (2, 1e-7))):
        code, _, _ = run_json(capsys, argv + extra)
        assert code == 0
        assert (seen[-1].k, seen[-1].var_tol) == want


def test_economic_cli(tmp_path, capsys):
    x = str(tmp_path / "X.csv")
    write_loadings_csv(x, np.array([[0.3], [0.2]]), ["mkt"])
    spec = write_spec(tmp_path, 0.03)
    out_dir = str(tmp_path / "out")
    code, out, _ = run_json(
        capsys, ["economic", "--loadings", x, "--spec", spec, "--out-dir", out_dir]
    )
    assert code == 0
    assert out["upsilon"] == 1
    assert out["alpha_tilde"] == pytest.approx(0.6098344475655937, rel=1e-12)
    assert abs(out["feasibility"]["constraint_residuals"][0]) <= 1e-10
    assert (out["clipped_rows"], out["rows_outside_omega"]) == ([], [])
    assert os.path.exists(out["paths"]["C"])
    assert os.path.exists(out["paths"]["X_Q"])


@pytest.fixture
def infeasible_economic_market(tmp_path, capsys):
    """The snapshot of `synth -n 50 --k-true 6 --crp 0.1 --seed 1`."""
    argv = ["synth", "-n", "50", "--k-true", "6", "--crp", "0.1", "--seed", "1", "--out-dir", str(tmp_path / "m")]
    code, out, _ = run_json(capsys, argv)
    assert code == 0
    return out["snapshot"]


def test_economic_infeasible_result_exits_2(infeasible_economic_market, tmp_path, capsys):
    # The factor-pricing route does not keep this market's risk-neutral
    # loadings in the unit ball, and the assembled matrix is indefinite
    # (smallest eigenvalue about -0.032); the command must say so, and
    # its record names the rows, with no warning on stderr.
    argv = ["economic", "--snapshot", infeasible_economic_market, "--out-dir", str(tmp_path / "e")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_json(capsys, argv)
    assert (code, err) == (2, "")
    assert out["feasibility"]["feasible"] is False
    assert out["feasibility"]["psd"] is False
    assert out["clipped_rows"] == [10, 17, 27]
    assert out["rows_outside_omega"] == [1, 27, 33]
    assert os.path.exists(out["paths"]["C"])


def test_synth_reports_comonotonic_clip(tmp_path, capsys):
    # An index variance above the comonotonic bound is capped, and the
    # record says so from the snapshot's meta instead of a warning.
    for crp, clipped in (("50", True), ("0.1", False)):
        argv = ["synth", "-n", "5", "--k-true", "1", "--crp", crp, "--seed", "3", "--out-dir", str(tmp_path / crp)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_json(capsys, argv)
        assert (code, err) == (0, "")
        assert out["comonotonic_clipped"] is clipped
        assert load_snapshot(out["snapshot"]).meta["comonotonic_clipped"] is clipped


@pytest.fixture
def wide_market(tmp_path, capsys):
    """A synthetic n = 100, k_true = 2 snapshot and its spec as a file.  Every
    matrix-writing command gives a feasible matrix on it, and at this size
    the smallest eigenvalue of a factor-structured matrix comes from its
    loadings, not from a dense eigvalsh."""
    argv = ["synth", "-n", "100", "--k-true", "2", "--seed", "0", "--out-dir", str(tmp_path / "wide")]
    code, out, _ = run_json(capsys, argv)
    assert code == 0
    spec = str(tmp_path / "wide_spec.json")
    write_market_spec(spec, load_snapshot(out["snapshot"]).spec)
    return {"snapshot": out["snapshot"], "spec": spec, "n": 100}


MATRIX_COMMANDS = {
    "equicorr": ["--spec", "spec"],
    "adjust": ["--snapshot", "snapshot"],
    "nearest": ["--snapshot", "snapshot", "-k", "2"],
    "repair": ["--snapshot", "snapshot", "-k", "2"],
    "economic": ["--snapshot", "snapshot"],
}


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_matrix_commands_report_the_written_matrix(wide_market, tmp_path, capsys, command):
    # Every command that writes a matrix reports on that matrix, as check
    # would on the CSV read back.  nearest, repair and economic take the
    # smallest eigenvalue and the residual from their loadings, so those
    # two agree with check only to rounding.
    argv = [command, *[wide_market.get(a, a) for a in MATRIX_COMMANDS[command]], "--out-dir", str(tmp_path / "o")]
    code, out, _ = run_json(capsys, argv)
    assert code == 0
    spec = read_market_spec(wide_market["spec"])
    want = check_feasibility(read_matrix_csv(out["paths"]["C"]), spec, _VAR_TOL)
    got = out["feasibility"]
    assert got["feasible"] is True
    for key in ("feasible", "psd", "bounded"):
        assert got[key] == want.to_dict()[key], key
    assert got["min_eigenvalue"] == pytest.approx(want.min_eigenvalue, rel=1e-9)
    (g,), (g_dense,) = got["constraint_residuals"], want.constraint_residuals
    loadings = out["paths"].get("X", out["paths"].get("X_Q"))
    if loadings is None:
        assert g == g_dense
    else:
        X = read_loadings_csv(loadings)[1].values
        v = spec.scaled_weights()
        assert g == spec.market.variance - (hollow_form(v, X, X) + float(v @ v))
        eps = np.finfo(float).eps
        assert abs(g - g_dense) <= hollow_rounding_bound(X, v) + eps * max(abs(g), abs(g_dense))


def test_solver_and_economic_reports_use_loadings(wide_market, tmp_path, capsys, monkeypatch):
    # The report of a matrix with loadings must not run a dense eigvalsh on
    # the n x n matrix, so it stays cheap at n = 500.
    n = wide_market["n"]
    dense = np.linalg.eigvalsh

    def small_only(a, *args, **kw):
        if np.shape(a)[-1] == n:
            raise AssertionError("dense eigvalsh on the n x n matrix")
        return dense(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", small_only)
    for command in ("nearest", "economic"):
        argv = [command, *[wide_market.get(a, a) for a in MATRIX_COMMANDS[command]]]
        code, out, err = run_json(capsys, argv)
        assert code == 0, err
        assert out["feasibility"]["feasible"] is True


def test_vg_convert(tmp_path, capsys):
    p = write_vg_params(tmp_path, np.eye(2))
    out_dir = str(tmp_path / "out")
    code, out, _ = run_json(capsys, ["vg-convert", "--params", p, "--out-dir", out_dir])
    assert code == 0
    np.testing.assert_allclose(out["sigma"], [np.sqrt(1.5)] * 2, rtol=1e-15)
    assert out["mean"] == [1.0, -1.0]
    C = read_matrix_csv(os.path.join(out_dir, "vg_C_centered.csv"))
    assert C[0, 1] == pytest.approx(-1.0 / 3.0, rel=1e-14)
    # sigma is a one-column table headed by its name, one repr per line
    with open(os.path.join(out_dir, "vg_sigma.csv"), "rb") as fh:
        assert fh.read() == ("sigma\n" + "".join(repr(x) + "\n" for x in out["sigma"])).encode()
    # with a spec: adjusted variance = var - nu (w'theta)^2; w'theta = 0 here
    spec = write_spec(tmp_path, 0.03)
    out_dir = str(tmp_path / "out_spec")
    code, out, _ = run_json(capsys, ["vg-convert", "--params", p, "--spec", spec, "--out-dir", out_dir])
    assert code == 0
    assert out["adjusted_variances"] == [0.03]
    assert sorted(out["paths"]) == ["C_centered", "adjusted_spec", "sigma"]
    assert read_market_spec(out["paths"]["adjusted_spec"]).market.variance == 0.03


def test_vg_convert_needs_something_to_do(tmp_path, capsys):
    p = write_vg_params(tmp_path)
    code, _, err = run_json(capsys, ["vg-convert", "--params", p])
    assert code == 1
    assert "nothing to convert" in err


def test_synth_deterministic_and_requires_out_dir(tmp_path, capsys):
    argv = ["synth", "-n", "5", "--k-true", "2", "--crp", "0.1", "--periods", "10", "--seed", "7"]
    code_a, out_a, _ = run_json(capsys, argv + ["--out-dir", str(tmp_path / "a")])
    code_b, out_b, _ = run_json(capsys, argv + ["--out-dir", str(tmp_path / "b")])
    assert code_a == code_b == 0
    assert out_a["date"] == out_b["date"] == "synthetic-7"
    assert (tmp_path / "a" / "snapshot.json").read_bytes() == (tmp_path / "b" / "snapshot.json").read_bytes()
    assert (
        tmp_path / "a" / "snapshot_asset_returns.csv"
    ).read_bytes() == (tmp_path / "b" / "snapshot_asset_returns.csv").read_bytes()
    code, _, err = run_json(capsys, ["synth", "-n", "5", "--k-true", "2"])
    assert code == 1
    assert "--out-dir" in err
    # --seed wins; without it the seed is 0
    argv = ["synth", "-n", "4", "--k-true", "1", "--crp", "0.0"]
    code, out, _ = run_json(capsys, argv + ["--seed", "3", "--out-dir", str(tmp_path / "cli")])
    assert code == 0
    assert (out["seed"], out["date"]) == (3, "synthetic-3")
    code, out, _ = run_json(capsys, argv + ["--out-dir", str(tmp_path / "default")])
    assert code == 0
    assert (out["seed"], out["date"]) == (0, "synthetic-0")


def test_bench_cli(tmp_path, capsys):
    suite = {
        "cells": [{"model": "equicorr"}, {"model": "nicm", "k": 2}],
        "n": 8,
        "k_true": 2,
        "crp": 0.1,
        "instances": 2,
        "measure_time": False,
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code, out, _ = run_json(capsys, ["bench", "--suite", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert out.splitlines()[0].split()[0] == "model"
    assert (tmp_path / "out" / "bench.csv").read_text().startswith("model,k,target")


def test_bench_cli_failures_exit_2(tmp_path, capsys):
    suite = {
        "cells": [{"model": "economic"}],
        "n": 8,
        "k_true": 2,
        "crp": -0.9,
        "instances": 2,
        "measure_time": False,
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code = cli_dispatch(["bench", "--suite", str(p)])
    capsys.readouterr()
    assert code == 2
