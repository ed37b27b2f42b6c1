"""Bench runner: artifacts, aggregate math, determinism, failure accounting."""

import glob
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from impliedcorr import _VAR_TOL
from impliedcorr.bench import (
    BenchCell,
    BenchRow,
    BenchSuite,
    render_table,
    rows_to_csv,
    run_bench,
)
from impliedcorr.io import _read_json


def small_suite(**kw):
    defaults = dict(
        cells=(BenchCell("equicorr"), BenchCell("nicm", k=2)),
        n=10,
        k_true=2,
        crp=0.1,
        instances=2,
        seed=5,
    )
    defaults.update(kw)
    return BenchSuite(**defaults)


def test_run_bench_rows_and_artifacts(tmp_path):
    suite = small_suite()
    rows, table = run_bench(suite, out_dir=str(tmp_path))
    assert [r.model for r in rows] == ["equicorr", "nicm"]
    assert all(r.instances == 2 and r.failures == 0 for r in rows)
    run_files = sorted(os.path.basename(p) for p in glob.glob(str(tmp_path / "runs" / "*.json")))
    assert run_files == [
        "cell00_inst000.json",
        "cell00_inst001.json",
        "cell01_inst000.json",
        "cell01_inst001.json",
    ]
    assert (tmp_path / "bench.txt").read_text() == table
    assert (tmp_path / "bench.csv").read_text() == rows_to_csv(rows)
    assert table.splitlines()[0].split()[0] == "model"


def test_equicorr_matches_constraint_exactly():
    rows, _ = run_bench(small_suite(cells=(BenchCell("equicorr"),)))
    assert rows[0].vtol_max <= 1e-12


def test_aggregates_recompute_from_run_records(tmp_path):
    suite = small_suite(
        cells=(BenchCell("adjusted"), BenchCell("nicm", k=2)), instances=3
    )
    rows, _ = run_bench(suite, out_dir=str(tmp_path))
    for ci, row in enumerate(rows):
        records = []
        for inst in range(suite.instances):
            with open(tmp_path / "runs" / f"cell{ci:02d}_inst{inst:03d}.json") as fh:
                records.append(json.load(fh))
        ok = [r for r in records if not r["failed"]]
        assert len(ok) == suite.instances - row.failures
        fn = np.array([r["fn"] for r in ok])
        assert row.fn_mean == float(fn.mean())
        assert row.fn_sd == float(fn.std(ddof=1))
        vt = np.array([r["vtol"] for r in ok])
        assert row.vtol_mean == float(vt.mean())
        assert row.vtol_max == float(vt.max())
        it = np.array([float(r["iterations"]) for r in ok])
        assert row.iter_mean == float(it.mean())
        alphas = [r["alpha"] for r in ok if r["alpha"] is not None]
        if alphas:
            assert row.alpha_mean == float(np.mean(alphas))
        else:
            assert row.alpha_mean is None


def test_measure_time_false_is_byte_identical(tmp_path):
    suite = small_suite(measure_time=False)
    run_bench(suite, out_dir=str(tmp_path / "a"))
    run_bench(suite, out_dir=str(tmp_path / "b"))
    for name in ("bench.txt", "bench.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    a_run = (tmp_path / "a" / "runs" / "cell01_inst001.json").read_bytes()
    b_run = (tmp_path / "b" / "runs" / "cell01_inst001.json").read_bytes()
    assert a_run == b_run


def test_nonconvergence_counts_as_failure(monkeypatch):
    # stub the solver into reporting non-convergence so the RuntimeError
    # wrapping and failure accounting are exercised deterministically
    import dataclasses

    import impliedcorr.bench as bench_mod
    real = bench_mod.solve_nicm

    def never_converges(A, spec, config=None):
        res = real(A, spec, config)
        return dataclasses.replace(res, converged=False, message="stubbed")

    monkeypatch.setattr(bench_mod, "solve_nicm", never_converges)
    rows, table = run_bench(small_suite(cells=(BenchCell("nicm", k=1),)))
    assert rows[0].failures == 2
    assert rows[0].instances == 2
    assert math.isnan(rows[0].fn_mean)
    assert table.splitlines()[-1].split()[-1] == "2"


def test_failure_record_carries_error(tmp_path):
    # a deep negative premium puts the target below the reachable band of
    # the economic route on every instance of this family
    suite = small_suite(cells=(BenchCell("economic"),), crp=-0.9)
    rows, _ = run_bench(suite, out_dir=str(tmp_path))
    assert rows[0].failures == 2
    assert rows[0].alpha_mean is None
    with open(tmp_path / "runs" / "cell00_inst000.json") as fh:
        rec = json.load(fh)
    assert rec["failed"] is True
    assert "unreachable" in rec["error"]
    assert rec["cell"] == "economic/true"


def test_estimated_targets_run(tmp_path):
    suite = small_suite(
        cells=(BenchCell("adjusted", target="hist"), BenchCell("nicm", k=2, target="mr")),
        periods=80,
        window=50,
        instances=2,
    )
    rows, _ = run_bench(suite, out_dir=str(tmp_path))
    assert [r.target for r in rows] == ["hist", "mr"]
    assert all(r.failures == 0 for r in rows)
    # estimation error keeps the produced matrix away from the target
    assert rows[0].fn_mean > 0.0
    assert rows[1].vtol_max <= _VAR_TOL


def test_economic_cell_reports_alpha():
    # the k=2 comonotonic move can leave a row outside the unit ball,
    # which the bench counts through the feasibility report, never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _ = run_bench(small_suite(cells=(BenchCell("economic"),)))
    assert rows[0].alpha_mean is not None
    assert rows[0].vtol_max <= 1e-8


def test_infeasible_outputs_are_counted(tmp_path):
    # The README suite, one cell at a time: the economic route on
    # historical loadings pushes rows out of the ball and returns
    # indefinite matrices, and one equicorrelation lies outside the PSD
    # range.  Neither counts as a failure; both count as infeasible.
    common = dict(n=50, k_true=6, crp=0.1, instances=20, seed=7, periods=520, window=260)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, table = run_bench(
            BenchSuite(cells=(BenchCell("economic", target="hist"),), **common),
            out_dir=str(tmp_path),
        )
    assert (rows[0].failures, rows[0].infeasible) == (1, 5)
    bad, min_eig = [], 0.0
    for inst in range(20):
        with open(tmp_path / "runs" / f"cell00_inst{inst:03d}.json") as fh:
            rec = json.load(fh)
        if rec["failed"]:
            assert rec["feasibility"] is None
        elif not rec["feasibility"]["feasible"]:
            bad.append(inst)
            assert rec["feasibility"]["psd"] is False
            min_eig = min(min_eig, rec["feasibility"]["min_eigenvalue"])
    assert bad == [0, 3, 7, 14, 16]
    assert min_eig == pytest.approx(-0.538, abs=1e-3)
    assert table.splitlines()[-1].split()[-2:] == ["5", "1"]
    csv = rows_to_csv(rows).splitlines()
    assert csv[1].split(",")[csv[0].split(",").index("infeasible")] == "5"

    rows, _ = run_bench(BenchSuite(cells=(BenchCell("equicorr"),), **common))
    assert (rows[0].failures, rows[0].infeasible) == (0, 1)


def test_cell_validation_and_labels():
    with pytest.raises(ValueError, match="unknown model"):
        BenchCell("magic")
    with pytest.raises(ValueError, match="unknown target mode"):
        BenchCell("nicm", target="future")
    with pytest.raises(ValueError, match="k must be"):
        BenchCell("nicm", k=0)
    assert BenchCell("nicm", k=3).label() == "nicm/k=3/true"
    assert BenchCell("equicorr", k=3, target="hist").label() == "equicorr/hist"


def test_suite_validation():
    with pytest.raises(ValueError, match="no cells"):
        BenchSuite(cells=())
    with pytest.raises(ValueError, match="instances"):
        small_suite(instances=0)
    with pytest.raises(ValueError, match="need return panels"):
        small_suite(cells=(BenchCell("nicm", target="hist"),), periods=0)


def test_suite_from_dict(tmp_path):
    d = {
        "cells": [{"model": "equicorr"}, {"model": "nicm", "k": 3}],
        "n": 12,
        "instances": 4,
        "seed": 9,
    }
    suite = BenchSuite.from_dict(d)
    assert suite.n == 12
    assert suite.cells[1].k == 3
    # BenchSuite and BenchCell check the fields; the reader names the file.
    path = tmp_path / "suite.json"
    for bad, message in (
        ({"n": 12}, "missing field 'cells'"),
        ({"cells": [], "n": 12}, "suite has no cells"),
        ({"cells": [{"model": "equicorr"}], "gpu": True}, "unknown suite fields: ['gpu']"),
        # the solver stops on a relative improvement of its own
        ({"cells": [{"model": "nicm"}], "fn_tol": 1e-3}, "unknown suite fields: ['fn_tol']"),
        # the bench solves and checks at the solver's default var_tol
        ({"cells": [{"model": "nicm"}], "var_tol": 1e-8}, "unknown suite fields: ['var_tol']"),
        ({"cells": [{"model": "nicm", "kk": 2}]}, "unknown cell fields: ['kk']"),
        ({"cells": ["nicm"]}, "a cell must be a JSON object, got str"),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            _read_json(str(path), BenchSuite.from_dict)


def test_render_table_and_csv_shapes():
    rows, table = run_bench(small_suite(measure_time=False))
    assert render_table(rows) == table
    lines = table.splitlines()
    assert len(lines) == 2 + len(rows)
    csv = rows_to_csv(rows)
    header = csv.splitlines()[0].split(",")
    assert header == list(BenchRow.__dataclass_fields__)
    assert len(csv.splitlines()) == 1 + len(rows)
    # round-trippable floats
    first = csv.splitlines()[1].split(",")
    fn_mean = float(first[header.index("fn_mean")])
    assert fn_mean == rows[0].fn_mean


def test_report_uses_the_loadings_of_solver_results(monkeypatch):
    # At n = 100 and k = 2 the factor-structured smallest eigenvalue is
    # faster than a dense eigvalsh, so the report of an nicm result, which
    # keeps its loadings, must never run one on the n x n matrix.
    n = 100
    dense = np.linalg.eigvalsh

    def small_only(a, *args, **kw):
        if np.shape(a)[-1] == n:
            raise AssertionError("dense eigvalsh on the n x n matrix")
        return dense(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", small_only)
    suite = small_suite(cells=(BenchCell("nicm", k=2),), n=n, seed=3, measure_time=False)
    (row,), _ = run_bench(suite)
    assert row.failures == 0 and row.instances == 2
