"""The package's public names and submodules resolve on access, each from
the submodule that defines it, and the package stores none of them."""

import importlib
import os
import subprocess
import sys

import pytest

import impliedcorr
from impliedcorr import solver


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
