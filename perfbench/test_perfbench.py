"""Tests of the benchmark itself: its output checks and a tiny run of each workload.

    python3 -m pytest perfbench -q

Known-bad results must each count as one failed operation; tiny versions
of every workload must run with no failed operation, traced and untraced.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import impliedcorr as ic  # noqa: E402

import tracing  # noqa: E402
import workloads as w  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A converged solve of an indefinite n = 10 target, as the hard-repair corpus builds it."""
    wl = w.HardRepair(seed=0, count=1)
    wl.ic = ic
    _, A, spec = wl.build()[0]
    res = ic.solve_nicm(A, spec, ic.SolverConfig(k=3))
    assert res.converged
    return A, spec, res


def _count_failed(wl, A, spec, out) -> w.Tally:
    """Run one solve operation whose result is `out`, through the benchmark's pass loop."""
    op = wl.solve_op("tampered", A, spec, 3)
    op.run = lambda: out
    tally = w.Tally()
    w.run_pass([op], tally, {})
    return tally


def _solver_workload():
    wl = w.HardRepair(seed=0)
    wl.ic = ic
    return wl


def _report(res, spec):
    return ic.check_feasibility(res.C_star, spec, tol=w.VAR_TOL)


def test_good_solve_passes(solved):
    A, spec, res = solved
    tally = _count_failed(_solver_workload(), A, spec, (res, _report(res, spec)))
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems


def test_indefinite_matrix_fails(solved):
    A, spec, res = solved
    C = res.C_star.values.copy()
    C[0, 1] = C[1, 0] = 1.0
    C[0, 2] = C[2, 0] = -1.0
    C[1, 2] = C[2, 1] = 1.0  # the 3 x 3 block [[1,1,-1],[1,1,1],[-1,1,1]] is indefinite
    bad = dataclasses.replace(res, C_star=ic.CorrMatrix(C))
    tally = _count_failed(_solver_workload(), A, spec, (bad, _report(bad, spec)))
    assert tally.failed == 1
    assert "indefinite" in tally.problems[0]


def test_variance_off_by_1e3_fails(solved):
    A, spec, res = solved
    con = spec.constraints[0]
    off = ic.MarketSpec(spec.sigma, (ic.IndexConstraint(con.name, con.weights, con.variance + 1e-3),))
    tally = _count_failed(_solver_workload(), A, off, (res, _report(res, off)))
    assert tally.failed == 1
    assert "index variance residual" in tally.problems[0]


def test_misreported_objective_fails(solved):
    A, spec, res = solved
    bad = dataclasses.replace(res, fn=res.fn * (1.0 + 1e-6))
    tally = _count_failed(_solver_workload(), A, spec, (bad, _report(res, spec)))
    assert tally.failed == 1
    assert "reported objective" in tally.problems[0]


def test_rising_objective_trace_fails(solved):
    A, spec, res = solved
    trace = np.array([res.fn + 1.0, res.fn + 2.0, res.fn])
    bad = dataclasses.replace(res, fn_trace=trace)
    tally = _count_failed(_solver_workload(), A, spec, (bad, _report(res, spec)))
    assert tally.failed == 1
    assert "rises" in tally.problems[0]


def test_nonzero_exit_code_fails():
    # k above n makes `repair` exit with a validation error; the check of
    # the `check` command then lacks its input and fails as well.
    wl = w.CliChain(seed=3, n=12, periods=40, k=20, crp_range=(-0.5, -0.5))
    tally = w.Tally()
    try:
        w.run_pass(wl.pass_ops(), tally, {})
    finally:
        wl.close()
    assert tally.attempted == 5
    assert tally.failed == 2
    assert "repair exited with code 1" in tally.problems[0]


def test_raising_operation_fails():
    def boom():
        raise ic.RestorationError("no feasible point")

    tally = w.Tally()
    w.run_pass([w.Op("boom", boom, lambda out: w.Outcome([]))], tally, {})
    assert (tally.attempted, tally.failed) == (1, 1)


def test_nondeterministic_output_fails():
    values = iter([1.0, 2.0])
    op = w.Op("drift", lambda: next(values), lambda out: w.Outcome([], signature=out))
    tally, reference = w.Tally(), {}
    w.run_pass([op], tally, reference)
    w.run_pass([op], tally, reference)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_same_digest_is_not_checked_again():
    checked = []

    def check(out):
        checked.append(out)
        return w.Outcome([], signature=out[0])

    outputs = iter([("a", "x"), ("a", "x"), ("a", "y")])
    op = w.Op("repeat", lambda: next(outputs), check, digest=lambda out: out[1])
    tally, reference = w.Tally(), {}
    passes = [w.run_pass([op], tally, reference) for _ in range(3)]
    assert (tally.attempted, tally.failed) == (3, 0)
    assert [p.checked_by_digest for p in passes] == [0, 1, 0]
    assert checked == [("a", "x"), ("a", "y")]  # a new digest is checked in full


def test_failing_preparation_fails_the_operation():
    def prepare():
        raise FileNotFoundError("spec.json")

    tally = w.Tally()
    w.run_pass([w.Op("needs input", lambda: 0, lambda out: w.Outcome([]), prepare=prepare)], tally, {})
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tracer_restores_and_reports_absent_names(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("impliedcorr.solver", "_no_such_helper"),))
    original = ic.solver._project_feasible_raw
    with tracing.Tracer() as tr:
        assert ic.solver._project_feasible_raw is not original
        assert ic.solve_nicm is ic.solver.solve_nicm
    assert ic.solver._project_feasible_raw is original
    assert tr.absent == ["solver._no_such_helper"]


def _smoke(wl, traced: bool) -> tuple[w.Tally, dict]:
    tally = w.Tally()
    if traced:
        tr = tracing.Tracer()
        with tr:
            w.run_pass(wl.pass_ops(traced=True), tally, {}, traced=True, tracer=tr)
        return tally, tracing.summarize(tr.spans)
    w.run_pass(wl.pass_ops(), tally, {})
    return tally, {}


@pytest.mark.parametrize("traced", [False, True])
def test_hard_repair_smoke(traced):
    wl = w.HardRepair(seed=5, count=2)
    wl.setup(ic, repeats=1)
    tally, summary = _smoke(wl, traced)
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    if traced:
        assert summary["solver.solve_nicm"]["calls"] == 2
        assert summary["solver.objective"]["calls"] == 2


@pytest.mark.parametrize("traced", [False, True])
def test_sp500_panel_smoke(traced):
    wl = w.Sp500Panel(seed=5, n=30, months=1, periods=120, window=60, ks=(1, 2))
    wl.setup(ic, repeats=1)
    tally, summary = _smoke(wl, traced)
    assert (tally.attempted, tally.failed) == (4, 0), tally.problems
    if traced:
        assert summary["solver._project_feasible_raw"]["calls"] >= 4


def test_repair_mix_smoke():
    wl = w.RepairMix(seed=5, hard={"count": 2}, panel={"n": 30, "months": 1, "periods": 120, "window": 60, "ks": (1,)})
    wl.setup(ic, repeats=1)
    tally, reference = w.Tally(), {}
    passes = [w.run_pass(wl.pass_ops(), tally, reference) for _ in range(2)]
    assert (tally.attempted, tally.failed) == (8, 0), tally.problems
    assert passes[1].checked_by_digest == 4  # solves are bitwise repeatable


@pytest.mark.parametrize("traced", [False, True])
def test_cli_chain_smoke(traced):
    wl = w.CliChain(seed=5, n=12, periods=40, k=2, crp_range=(-0.5, -0.5))
    tally, reference = w.Tally(), {}
    try:
        passes = []
        for _ in range(2):
            passes.append(w.run_pass(wl.pass_ops(traced=traced), tally, reference, traced=traced))
            wl.end_pass()
    finally:
        wl.close()
    assert (tally.attempted, tally.failed) == (10, 0), tally.problems
    assert passes[1].checked_by_digest == 5  # every command's output repeats byte for byte
    if traced:
        names = {span[0] for child in wl.child_traces for span in child["spans"]}
        assert {"synth.generate_synthetic_market", "io.load_snapshot", "solver.solve_nicm"} <= names


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-repair", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert cp.returncode != 0
    assert cp.stdout == ""
