"""The package's public names and submodules resolve on access, each from
the submodule that defines it, and the package stores none of them.  Every
result record becomes JSON by one rule, core._record."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import impliedcorr
from impliedcorr import solver
from impliedcorr.core import _record


def test_every_public_name_is_its_submodules_object():
    assert len(impliedcorr.__all__) == 44
    for name in impliedcorr.__all__:
        home = importlib.import_module(f"impliedcorr.{impliedcorr._HOME[name]}")
        value = getattr(impliedcorr, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert name not in vars(impliedcorr), name


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from impliedcorr import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(impliedcorr.__all__)
    assert set(impliedcorr.__all__) <= set(dir(impliedcorr))


def test_submodule_resolves_in_a_fresh_process():
    src = os.path.dirname(os.path.dirname(impliedcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, impliedcorr\n"
        "assert 'impliedcorr.solver' not in sys.modules\n"
        "assert impliedcorr.solver is sys.modules['impliedcorr.solver']\n"
        "assert impliedcorr.solver.solve_nicm is impliedcorr.solve_nicm\n"
    )
    cp = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'solve'"):
        impliedcorr.solve
    for name in ("cli_dispatch", "crp_sign", "reference_solve"):
        assert not hasattr(impliedcorr, name), name


def test_names_follow_a_rebinding_in_their_submodule(monkeypatch):
    # A tracer wraps solver.solve_nicm in place and puts it back after; the
    # package name must show the wrapper while it is installed and the
    # original after.
    original = solver.solve_nicm

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_nicm", stand_in)
    assert impliedcorr.solve_nicm is stand_in
    monkeypatch.undo()
    assert impliedcorr.solve_nicm is original


def test_every_result_becomes_json_by_one_record_rule():
    snap, _ = impliedcorr.generate_synthetic_market(10, 2, 0.1, np.random.SeedSequence(3))
    spec = snap.spec
    solved = impliedcorr.solve_nicm(snap.target, spec, impliedcorr.SolverConfig(k=2))
    report = impliedcorr.check_feasibility(solved.C_star, spec)
    results = [
        solved,
        report,
        impliedcorr.economic_implied_corr(snap.loadings, spec),
        impliedcorr.equicorrelation(spec),
        impliedcorr.adjusted_ex_post(snap.target, spec),
        impliedcorr.BenchRow("nicm", 2, "hist", 0.1, 0.0, 2.5, 0.3, 1e-9, 2e-9, 7.0, 1.0, None, None, 3, 0, 0),
    ]
    arrays = set()
    for result in results:
        record = _record(result)
        fields = dataclasses.fields(result)
        assert list(record) == [f.name for f in fields if f.type not in ("CorrMatrix", "FactorLoadings")]
        for name, value in record.items():
            held = getattr(result, name)
            if isinstance(held, np.ndarray):
                arrays.add(name)
                assert type(value) is list and np.array_equal(value, held), name
            else:
                assert value is held, name
        json.dumps(record)
    assert arrays == {"fn_trace", "constraint_residuals"}
    assert solved.to_dict() == _record(solved) | {"n": 10, "k": 2}
    assert report.to_dict() == _record(report) | {
        "mathematically_feasible": report.mathematically_feasible,
        "feasible": report.feasible,
    }
