"""CLI dispatch: exit codes, emitted JSON/CSV, file artifacts, seed handling."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from impliedcorr.cli import cli_dispatch
from impliedcorr.core import IndexConstraint, MarketSpec
from impliedcorr.io import (
    read_matrix_csv,
    write_loadings_csv,
    write_market_spec,
    write_matrix_csv,
)


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


def run_fresh(code):
    import impliedcorr

    src = os.path.dirname(os.path.dirname(impliedcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cp = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only the boundary rescue and the reference
    # solver; a fresh `import impliedcorr.cli` must not pay for it.
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


def test_no_command_prints_help():
    assert cli_dispatch([]) == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_json(capsys, ["frobnicate"])
    assert code == 1
    assert "error:" in err


# Each subcommand's otherwise valid argv, and the shared options it reads.
SUBCOMMANDS = {
    "check": (["--matrix", "m.csv"], {"--tol-var", "--format"}),
    "equicorr": (["--spec", "s.json"], {"--tol-var", "--out-dir", "--format"}),
    "adjust": (["--snapshot", "s.json"], {"--tol-var", "--out-dir", "--format"}),
    "nearest": (["--snapshot", "s.json"], {"--config", "--tol-var", "--out-dir", "--format"}),
    "repair": (["--snapshot", "s.json"], {"--config", "--tol-var", "--out-dir", "--format"}),
    "economic": (["--snapshot", "s.json"], {"--out-dir", "--format"}),
    "vg-convert": (["--params", "p.json"], {"--out-dir", "--format"}),
    "synth": (["-n", "4", "--k-true", "1", "--out-dir", "d"], {"--seed", "--out-dir", "--format"}),
    "bench": (["--suite", "b.json"], {"--seed", "--out-dir", "--format"}),
}
SHARED = {"--config": "c.json", "--seed": "1", "--tol-var": "1e-6", "--tol-fn": "1e-3",
          "--out-dir": "d", "--format": "json"}
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


def test_check_csv_format(tmp_path, capsys):
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    code, out, _ = run_json(capsys, ["check", "--matrix", m, "--format", "csv"])
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert lines["feasible"] == "True"


def test_equicorr_hand_value(tmp_path, capsys):
    spec = write_spec(tmp_path, 0.03)
    out_dir = str(tmp_path / "out")
    code, out, _ = run_json(capsys, ["equicorr", "--spec", spec, "--out-dir", out_dir])
    assert code == 0
    assert out["c_bar"] == pytest.approx(0.5, abs=1e-15)
    assert out["in_psd_range"] is True and out["psd"] is True
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
    code, out, _ = run_json(capsys, ["adjust", "--target", m, "--spec", spec])
    assert code == 0
    assert out["alpha_hat"] == pytest.approx(0.5, abs=1e-15)
    assert out["crp_sign"] == 1
    assert out["psd"] is True
    assert abs(out["constraint_residuals"][0]) <= 1e-15


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


def test_nearest_csv_rows_quote_json_cells(tmp_path, capsys):
    code, out, _ = run_json(
        capsys, ["synth", "-n", "6", "--k-true", "2", "--seed", "0", "--out-dir", str(tmp_path / "s")]
    )
    assert code == 0
    argv = ["nearest", "--snapshot", out["snapshot"], "-k", "2"]
    code, want, _ = run_json(capsys, argv)
    assert code == 0
    code, text, _ = run_json(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 2 for row in rows)
    assert json.loads(dict(rows)["fn_trace"]) == want["fn_trace"]


def test_config_naming_removed_field_exits_1(tmp_path, capsys):
    # armijo_c1 became a module constant; fn_tol gave way to the solver's
    # relative improvement test
    spec = write_spec(tmp_path, 0.03)
    m = str(tmp_path / "C.csv")
    write_matrix_csv(m, np.eye(2))
    cfg = tmp_path / "config.json"
    for field in ("armijo_c1", "fn_tol"):
        cfg.write_text(json.dumps({"k": 1, field: 1e-4}))
        code, _, err = run_json(capsys, ["nearest", "--target", m, "--spec", spec, "--config", str(cfg)])
        assert code == 1
        assert "unknown solver config fields" in err and field in err


def test_config_k_applies_unless_k_flag_given(tmp_path, capsys):
    market = str(tmp_path / "m")
    assert cli_dispatch(["synth", "-n", "8", "--k-true", "2", "--out-dir", market]) == 0
    capsys.readouterr()
    snap = os.path.join(market, "snapshot.json")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"k": 3}))
    for extra, k in (([], 3), (["-k", "2"], 2)):
        code, out, _ = run_json(capsys, ["nearest", "--snapshot", snap, "--config", str(cfg), *extra])
        assert code == 0 and out["k"] == k
    code, out, _ = run_json(capsys, ["nearest", "--snapshot", snap])
    assert code == 0 and out["k"] == 1


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


def test_repair_fixes_indefinite_matrix(tmp_path, capsys):
    A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.eigvalsh(A).min() < -0.5
    m = str(tmp_path / "A.csv")
    write_matrix_csv(m, A)
    spec3 = MarketSpec(
        np.full(3, 0.2),
        (IndexConstraint("market", np.full(3, 1.0 / 3.0), 0.015),),
    )
    spec = str(tmp_path / "spec3.json")
    write_market_spec(spec, spec3)
    code, out, _ = run_json(capsys, ["repair", "--target", m, "--spec", spec, "-k", "2"])
    assert code == 0
    assert out["converged"] is True
    assert out["feasibility"]["psd"] is True
    assert out["feasibility"]["feasible"] is True


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
    assert abs(out["constraint_residual"]) <= 1e-10
    assert os.path.exists(out["paths"]["C"])
    assert os.path.exists(out["paths"]["X_Q"])


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
    code, out, _ = run_json(capsys, ["vg-convert", "--params", p, "--spec", spec])
    assert code == 0
    assert out["adjusted_variances"] == [0.03]


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
    assert (tmp_path / "out" / "bench.csv").exists()
    code, out, _ = run_json(capsys, ["bench", "--suite", str(p), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("model,k,target")


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
