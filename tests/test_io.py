"""CSV and JSON persistence: exact round trips and located error messages."""

import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import impliedcorr.io
from impliedcorr.core import FactorLoadings, IndexConstraint, MarketSpec
from impliedcorr.io import (
    MarketSnapshot,
    load_snapshot,
    market_spec_from_dict,
    market_spec_to_dict,
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
from impliedcorr.solver import SolverConfig
from impliedcorr.synth import generate_synthetic_market


def spec2(var=0.03):
    return MarketSpec(
        np.array([0.2, 0.2]),
        (IndexConstraint("market", np.array([0.5, 0.5]), var),),
    )


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(501)
    M = rng.normal(size=(7, 4)) * np.logspace(-12, 3, 4)
    p = str(tmp_path / "m.csv")
    write_matrix_csv(p, M)
    np.testing.assert_array_equal(read_matrix_csv(p), M)
    # single row and single entry survive as 2-d
    write_matrix_csv(p, np.array([1.5]))
    assert read_matrix_csv(p).shape == (1, 1)


def test_matrix_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match=rf"{p}:2: cannot parse 'oops'"):
        read_matrix_csv(str(p))
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row has 1 entries, expected 2"):
        read_matrix_csv(str(p))
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="empty file"):
        read_matrix_csv(str(p))


def test_matrix_read_errors_carry_the_file_line(tmp_path):
    p = tmp_path / "bad.csv"
    # blank lines count: the line number is the file's, not the row's
    p.write_text("\n1.0,2.0\n\n  \n1.0,oops\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:5: cannot parse 'oops' as a number$"):
        read_matrix_csv(str(p))
    p.write_text("1.0,2.0\n\n3.0,4.0\n5.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:4: row has 1 entries, expected 2$"):
        read_matrix_csv(str(p))
    p.write_text("1.0,2.0\n3.0,4.0,\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: cannot parse '' as a number$"):
        read_matrix_csv(str(p))
    # float() takes digit separators; numpy's reader, and so this one, does not
    p.write_text("1.0,2.0\n\n1_0,4.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:3: cannot parse '1_0' as a number$"):
        read_matrix_csv(str(p))
    (tmp_path / "x.csv").write_text("a,b\n\n0.1,1_0\n")
    with pytest.raises(ValueError, match=r"x\.csv:3: cannot parse '1_0' as a number$"):
        read_loadings_csv(str(tmp_path / "x.csv"))


def test_empty_tables_are_errors_without_warnings(tmp_path):
    p = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n\n", " \n\t\n"):
            p.write_text(text)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: empty file$"):
                read_matrix_csv(str(p))
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: empty file$"):
                read_loadings_csv(str(p))
        for text in ("a,b\n", "\na,b\n \n\n"):
            p.write_text(text)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: header but no rows$"):
                read_loadings_csv(str(p))


def test_matrix_skips_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,0.5\n\n \t\n0.5,1.0\n\n")
    np.testing.assert_array_equal(read_matrix_csv(str(p)), [[1.0, 0.5], [0.5, 1.0]])


def test_vector_round_trip(tmp_path):
    # a vector is a one-column table whose header names the field
    p = tmp_path / "v.csv"
    vals = np.array([0.1, -2.5e-8, 3.0])
    write_matrix_csv(str(p), vals[:, None], ["sigma"])
    assert p.read_text() == "sigma\n0.1\n-2.5e-08\n3.0\n"
    name, out = read_loadings_csv(str(p))
    assert name == ["sigma"]
    np.testing.assert_array_equal(out.values[:, 0], vals)


# Every finite double, -0.0, subnormals and values near the overflow edge.
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    """Matrices of any shape, bit-symmetric, or symmetric but for one 0.0/-0.0 mirror pair."""
    kind = draw(st.sampled_from(["any", "symmetric", "mirrored zeros"]))
    if kind == "any":
        shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)
        return draw(hnp.arrays(np.float64, shapes, elements=_finite, fill=st.nothing()))
    n = draw(st.integers(1 if kind == "symmetric" else 2, 6))
    A = draw(hnp.arrays(np.float64, (n, n), elements=_finite, fill=st.nothing()))
    M = np.where(np.tri(n, k=-1, dtype=bool), A.T, A)  # the upper triangle, mirrored bit for bit
    if kind == "mirrored zeros":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        M[i, j], M[j, i] = 0.0, -0.0
    return M


def _reference_csv(M, names):
    """The codec's bytes, formatted one element at a time."""
    lines = [",".join(names)] if names is not None else []
    lines += [",".join(map(repr, row)) for row in M.tolist()]
    return "".join(line + "\n" for line in lines).encode()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(M=_tables(), named=st.booleans())
@example(M=np.array([[-0.0]]), named=False)
@example(M=np.array([[0.5, 0.0], [-0.0, 1.0]]), named=True)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, M, named):
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    names = [f"c{j}" for j in range(M.shape[1])] if named else None
    write_matrix_csv(str(p), M, names)
    assert p.read_bytes() == _reference_csv(M, names)
    if named:
        back_names, X = read_loadings_csv(str(p))
        assert back_names == names
        back = X.values
    else:
        back = read_matrix_csv(str(p))
    assert back.shape == M.shape
    assert back.tobytes() == M.tobytes()


def test_loadings_round_trip(tmp_path):
    p = str(tmp_path / "x.csv")
    X = FactorLoadings(np.array([[0.3, -0.2], [0.1, 0.4], [0.0, 0.9]]))
    write_loadings_csv(p, X, ["mkt", "value"])
    names, out = read_loadings_csv(p)
    assert names == ["mkt", "value"]
    np.testing.assert_array_equal(out.values, X.values)
    # default names
    write_loadings_csv(p, X)
    names, _ = read_loadings_csv(p)
    assert names == ["factor_1", "factor_2"]
    # names that float() takes but the number reader does not are names
    write_loadings_csv(p, X, ["1_0", "2_0"])
    names, out = read_loadings_csv(p)
    assert names == ["1_0", "2_0"]
    np.testing.assert_array_equal(out.values, X.values)


def test_loadings_read_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.1,0.2\n0.3,0.4\n")
    with pytest.raises(ValueError, match=rf"{p}:1: expected a header row of column names"):
        read_loadings_csv(str(p))
    p.write_text("a,b\n0.1\n")
    with pytest.raises(ValueError, match=rf"{p}:2: row has 1 entries, expected 2"):
        read_loadings_csv(str(p))
    p.write_text("sigma\nnan_but_words\n")
    with pytest.raises(ValueError, match=rf"{p}:2: cannot parse 'nan_but_words'"):
        read_loadings_csv(str(p))
    p.write_text("")
    with pytest.raises(ValueError, match=rf"{p}: empty file"):
        read_loadings_csv(str(p))
    p.write_text("a,b\n")
    with pytest.raises(ValueError, match=rf"{p}: header but no rows"):
        read_loadings_csv(str(p))
    with pytest.raises(ValueError, match="2 column names for 1 columns"):
        write_loadings_csv(str(p), np.array([[0.1], [0.2]]), ["a", "b"])
    # names the header could not carry are refused, not written
    for names in (["a,b"], [" a"], ["a\nb"], ["a\rb"], [""], ["1.5"], ["nan"]):
        with pytest.raises(ValueError, match="would not read back from a CSV header"):
            write_loadings_csv(str(p), np.array([[0.1], [0.2]]), names)
    write_loadings_csv(str(p), np.array([[0.1, 0.2]]), ["1.5", "mkt"])
    assert read_loadings_csv(str(p))[0] == ["1.5", "mkt"]


def test_matrix_writer_refuses_too_few_names(tmp_path):
    p = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="1 column names for 3 columns"):
        write_matrix_csv(str(p), np.ones((2, 3)), ["a"])
    assert not p.exists()


def test_matrix_writer_refuses_a_header_of_numbers(tmp_path):
    p = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="would not read back from a CSV header"):
        write_matrix_csv(str(p), np.array([[0.2], [0.3]]), ["1.5"])
    assert not p.exists()


def test_loadings_writer_reads_a_vector_as_one_factor(tmp_path):
    p = str(tmp_path / "x.csv")
    x = np.array([0.1, 0.2, 0.3])
    write_loadings_csv(p, x)
    names, back = read_loadings_csv(p)
    assert names == ["factor_1"]
    np.testing.assert_array_equal(back.values, FactorLoadings(x).values)


def test_loadings_writer_refuses_nan(tmp_path):
    p = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="non-finite"):
        write_loadings_csv(str(p), np.array([[0.1], [np.nan]]))
    assert not p.exists()


def test_market_spec_round_trip(tmp_path):
    spec = MarketSpec(
        np.array([0.2, 0.3, 0.25]),
        (IndexConstraint("market", np.array([0.5, 0.3, 0.2]), 0.04),),
    )
    d = market_spec_to_dict(spec)
    assert len(d["constraints"]) == 1
    back = market_spec_from_dict(d)
    np.testing.assert_array_equal(back.sigma, spec.sigma)
    assert len(back.constraints) == 1
    assert back.market.name == "market"
    assert back.market.variance == 0.04
    p = str(tmp_path / "spec.json")
    write_market_spec(p, spec)
    again = read_market_spec(p)
    np.testing.assert_array_equal(again.market.weights, spec.market.weights)
    # canonical bytes: sorted keys, two-space indent, trailing newline
    text = (tmp_path / "spec.json").read_text()
    assert text == json.dumps(d, indent=2, sort_keys=True) + "\n"
    # a file listing a second index is rejected, naming the count and the file
    sector = {"name": "sector", "weights": [0.0, 0.5, 0.5], "variance": 0.05}
    (tmp_path / "two.json").write_text(json.dumps(dict(d, constraints=d["constraints"] + [sector])))
    with pytest.raises(ValueError, match=r"two\.json: .*exactly one index constraint, got 2"):
        read_market_spec(str(tmp_path / "two.json"))
    with pytest.raises(ValueError, match="exactly one index constraint, got 0"):
        market_spec_from_dict(dict(d, constraints=[]))


def test_market_spec_dict_errors():
    with pytest.raises(ValueError, match="missing field"):
        market_spec_from_dict({"sigma": [0.2, 0.2]})
    with pytest.raises(ValueError, match="constraint 0 is malformed"):
        market_spec_from_dict({"sigma": [0.2, 0.2], "constraints": [{"name": "m"}]})
    bad = {
        "sigma": [0.2, 0.2],
        "constraints": [{"name": "m", "weights": [0.5, 0.48], "variance": 0.03}],
    }
    with pytest.raises(ValueError, match="sum to"):
        market_spec_from_dict(bad)


def write_vg_json(path, xi, omega, theta, nu, C_dir=None):
    path.write_text(json.dumps(
        {"xi": xi, "omega": omega, "theta": theta, "nu": nu, "C_dir": C_dir}, indent=2, sort_keys=True
    ) + "\n")


def test_vg_params_round_trip(tmp_path):
    C = np.array([[1.0, 0.25], [0.25, 1.0]])
    write_matrix_csv(str(tmp_path / "C_dir.csv"), C)
    path = tmp_path / "vg.json"
    write_vg_json(path, [0.01, -0.02], [0.3, 0.4], [0.1, -0.3], 0.7, "C_dir.csv")
    back = read_vg_params(str(path))
    np.testing.assert_array_equal(back.xi, [0.01, -0.02])
    np.testing.assert_array_equal(back.omega, [0.3, 0.4])
    np.testing.assert_array_equal(back.theta, [0.1, -0.3])
    assert back.nu == 0.7
    np.testing.assert_array_equal(back.C_dir.values, C)
    # without the matrix
    write_vg_json(path, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], 0.5)
    assert read_vg_params(str(path)).C_dir is None


def test_vg_params_read_errors(tmp_path):
    path = tmp_path / "vg.json"
    path.write_text(json.dumps({"xi": [0.0], "omega": [0.3], "theta": [0.1]}) + "\n")
    with pytest.raises(ValueError, match="missing field 'nu'"):
        read_vg_params(str(path))
    (tmp_path / "C.csv").write_text("1.0,0.2\n")
    path.write_text(
        json.dumps({"xi": [0.0, 0.0], "omega": [0.3, 0.3], "theta": [0.0, 0.0], "nu": 0.5, "C_dir": "C.csv"})
    )
    with pytest.raises(ValueError, match="must be square"):
        read_vg_params(str(path))


def test_solver_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(SolverConfig(k=4, var_tol=1e-8))) + "\n")
    cfg = read_solver_config(str(path))
    assert cfg == SolverConfig(k=4, var_tol=1e-8)
    path.write_text(json.dumps({"k": 2, "mystery": 1}) + "\n")
    with pytest.raises(ValueError, match="cfg.json"):
        read_solver_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        read_solver_config(str(path))


def test_snapshot_round_trip(tmp_path):
    snap, _ = generate_synthetic_market(6, 2, 0.1, seed=77, periods=40)
    path = save_snapshot(snap, str(tmp_path), stem="snap")
    assert path.endswith("snap.json")
    back = load_snapshot(path)
    assert back.date == snap.date
    np.testing.assert_array_equal(back.spec.sigma, snap.spec.sigma)
    np.testing.assert_array_equal(back.spec.market.weights, snap.spec.market.weights)
    assert back.spec.market.variance == snap.spec.market.variance
    np.testing.assert_array_equal(back.target, snap.target)
    np.testing.assert_array_equal(back.truth, snap.truth)
    np.testing.assert_array_equal(back.loadings.values, snap.loadings.values)
    assert back.factor_names == snap.factor_names
    np.testing.assert_array_equal(back.asset_returns, snap.asset_returns)
    np.testing.assert_array_equal(back.factor_returns, snap.factor_returns)
    assert back.meta == snap.meta
    for suffix in ("_target", "_loadings", "_asset_returns", "_factor_returns"):
        assert (tmp_path / f"snap{suffix}.csv").exists()
    # the synthetic truth is the target: one file under both keys
    assert not (tmp_path / "snap_truth.csv").exists()
    assert json.loads((tmp_path / "snap.json").read_text())["truth"] == "snap_target.csv"
    # a truth that differs gets its own file
    other = MarketSnapshot(date=snap.date, spec=snap.spec, target=snap.target, truth=np.eye(6))
    path = save_snapshot(other, str(tmp_path / "other"))
    assert json.loads((tmp_path / "other" / "snapshot.json").read_text())["truth"] == "snapshot_truth.csv"
    np.testing.assert_array_equal(load_snapshot(path).truth, np.eye(6))


def test_snapshot_minimal(tmp_path):
    snap = MarketSnapshot(date="2024-01-31", spec=spec2())
    path = save_snapshot(snap, str(tmp_path))
    back = load_snapshot(path)
    assert back.date == "2024-01-31"
    assert back.target is None and back.loadings is None and back.truth is None
    assert back.asset_returns is None and back.factor_returns is None
    assert back.meta == {}


def test_snapshot_save_is_deterministic(tmp_path):
    snap, _ = generate_synthetic_market(5, 2, 0.05, seed=13, periods=10)
    p1 = save_snapshot(snap, str(tmp_path / "a"))
    p2 = save_snapshot(snap, str(tmp_path / "b"))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    for name in ("snapshot_target.csv", "snapshot_asset_returns.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _edit_snapshot_json(path, **changes):
    with open(path) as fh:
        d = json.load(fh)
    d.update(changes)
    for key, val in list(changes.items()):
        if val is _DROP:
            del d[key]
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Drop:
    pass


_DROP = _Drop()


def test_snapshot_schema_and_field_errors(tmp_path):
    snap = MarketSnapshot(date="2024-01-31", spec=spec2())
    path = save_snapshot(snap, str(tmp_path))
    _edit_snapshot_json(path, schema_version=99)
    with pytest.raises(ValueError, match="unsupported snapshot schema_version 99"):
        load_snapshot(path)
    path = save_snapshot(snap, str(tmp_path))
    _edit_snapshot_json(path, date=_DROP)
    with pytest.raises(ValueError, match="needs 'date'"):
        load_snapshot(path)
    path = save_snapshot(snap, str(tmp_path))
    _edit_snapshot_json(path, spec=_DROP)
    with pytest.raises(ValueError, match="needs 'date'"):
        load_snapshot(path)
    (tmp_path / "broken.json").write_text("{oops")
    with pytest.raises(ValueError, match="broken.json:1: invalid JSON"):
        load_snapshot(str(tmp_path / "broken.json"))


def test_snapshot_field_type_errors(tmp_path):
    snap, _ = generate_synthetic_market(4, 2, 0.1, seed=7, periods=12)
    for changes, message in (
        ({"meta": None}, ": snapshot 'meta' must be a JSON object, got NoneType"),
        ({"target": 5}, ": snapshot 'target' must name a CSV file, got int"),
        ({"spec": []}, " (spec): a market spec must be a JSON object, got list"),
    ):
        path = save_snapshot(snap, str(tmp_path))
        _edit_snapshot_json(path, **changes)
        with pytest.raises(ValueError, match=f"^{re.escape(path + message)}$"):
            load_snapshot(path)
    (tmp_path / "list.json").write_text("[]\n")
    with pytest.raises(ValueError, match="list.json: a snapshot must be a JSON object, got list"):
        load_snapshot(str(tmp_path / "list.json"))


def test_snapshot_dimension_errors(tmp_path):
    # Each field's shape is checked at its first read, not by load_snapshot.
    snap, _ = generate_synthetic_market(4, 2, 0.1, seed=7, periods=12)
    path = save_snapshot(snap, str(tmp_path))
    # the truth in its own file, so that its shape can differ from the target's
    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), snap.truth)
    _edit_snapshot_json(path, truth="snapshot_truth.csv")

    write_matrix_csv(str(tmp_path / "snapshot_target.csv"), np.eye(3))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match=r"target matrix has shape \(3, 3\)"):
        back.target
    write_matrix_csv(str(tmp_path / "snapshot_target.csv"), snap.target)

    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), np.eye(5))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match="truth matrix has shape"):
        back.truth
    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), snap.truth)

    write_matrix_csv(str(tmp_path / "snapshot_asset_returns.csv"), np.zeros((12, 3)))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match="3 columns for 4 assets"):
        back.asset_returns
    write_matrix_csv(str(tmp_path / "snapshot_asset_returns.csv"), snap.asset_returns)

    write_loadings_csv(str(tmp_path / "snapshot_loadings.csv"), np.zeros((3, 2)))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match="3 rows for 4 assets"):
        back.loadings
    with pytest.raises(ValueError, match="3 rows for 4 assets"):
        back.factor_names
    write_loadings_csv(str(tmp_path / "snapshot_loadings.csv"), snap.loadings, snap.factor_names)

    write_matrix_csv(str(tmp_path / "snapshot_factor_returns.csv"), np.zeros((12, 3)))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match="3 factor return columns for 2 loading columns"):
        back.factor_returns

    write_matrix_csv(str(tmp_path / "snapshot_factor_returns.csv"), np.zeros((9, 2)))
    back = load_snapshot(path)
    with pytest.raises(ValueError, match="disagree on the number of periods"):
        back.factor_returns


def test_snapshot_fields_parse_on_first_read(tmp_path, monkeypatch):
    snap, _ = generate_synthetic_market(5, 2, 0.1, seed=11, periods=8)
    path = save_snapshot(snap, str(tmp_path))
    parsed = []
    read = impliedcorr.io.read_matrix_csv

    def counting_read(p):
        parsed.append(os.path.basename(p))
        return read(p)

    monkeypatch.setattr(impliedcorr.io, "read_matrix_csv", counting_read)
    back = load_snapshot(path)
    assert parsed == []
    back.spec, back.meta, back.date
    assert parsed == []
    # the target file serves both keys and is parsed once
    assert back.target.tobytes() == snap.target.tobytes()
    assert back.truth.tobytes() == snap.truth.tobytes()
    back.target, back.truth
    assert parsed == ["snapshot_target.csv"]


def test_snapshot_corrupt_field_fails_only_its_reads(tmp_path):
    snap, _ = generate_synthetic_market(4, 2, 0.1, seed=5, periods=6)
    path = save_snapshot(snap, str(tmp_path))
    returns = tmp_path / "snapshot_asset_returns.csv"
    returns.write_text(returns.read_text().replace(",", ",oops", 1))
    loadings = tmp_path / "snapshot_loadings.csv"
    loadings.write_text("factor_1,factor_2\n0.1\n")
    back = load_snapshot(path)
    assert back.target.tobytes() == snap.target.tobytes()
    for _ in range(2):  # a failed parse is not cached
        with pytest.raises(ValueError, match=rf"^{re.escape(str(returns))}:1: cannot parse 'oops"):
            back.asset_returns
    with pytest.raises(ValueError, match=rf"^{re.escape(str(loadings))}:2: row has 1 entries"):
        back.loadings
    with pytest.raises(ValueError, match=rf"^{re.escape(str(loadings))}:2: row has 1 entries"):
        back.factor_names


def test_snapshot_reads_separate_truth_file(tmp_path):
    # Snapshots written before truth could share the target's file keep a
    # snapshot_truth.csv of their own.
    snap, _ = generate_synthetic_market(5, 3, 0.05, seed=9, periods=7)
    path = save_snapshot(snap, str(tmp_path))
    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), snap.truth)
    _edit_snapshot_json(path, truth="snapshot_truth.csv")
    back = load_snapshot(path)
    assert back.truth is not back.target
    for got, want in (
        (back.target, snap.target),
        (back.truth, snap.truth),
        (back.loadings.values, snap.loadings.values),
        (back.asset_returns, snap.asset_returns),
        (back.factor_returns, snap.factor_returns),
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert back.factor_names == snap.factor_names


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _header_reads_back(path, names, X):
    """Whether a loadings table under this header reads back unchanged.

    The table is written by hand, because write_matrix_csv refuses such a
    header before it opens the file."""
    with open(path, "wb") as fh:
        fh.write(_reference_csv(X, names))
    try:
        back_names, back = read_loadings_csv(path)
    except ValueError:
        return False
    return back_names == names and _bits(back.values) == _bits(X)


@st.composite
def _market_specs(draw):
    n = draw(st.integers(1, 4))
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    sigma = draw(hnp.arrays(np.float64, n, elements=positive, fill=st.nothing()))
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    w[-1] = 1.0 - np.sum(w[:-1])
    return MarketSpec(sigma, (IndexConstraint(draw(st.text()), w, draw(positive)),))


@st.composite
def _snapshots(draw):
    spec = draw(_market_specs())
    n, k, periods = spec.n, draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def maybe(shape):
        arrays = hnp.arrays(np.float64, shape, elements=_finite, fill=st.nothing())
        return draw(st.none() | arrays)

    target = maybe((n, n))
    truth = draw(st.sampled_from(["absent", "own", "target", "zero sign"]))
    if truth == "absent":
        truth = None
    elif truth == "own" or target is None:
        truth = maybe((n, n))
    elif truth == "target":
        truth = target.copy()
    else:
        # bits that differ from the target's only in the sign of a zero
        zero, other = (0.0, -0.0) if draw(st.booleans()) else (-0.0, 0.0)
        target[0, 0] = zero
        truth = target.copy()
        truth[0, 0] = other
    loadings = maybe((n, k))
    return MarketSnapshot(
        date=draw(st.text()),
        spec=spec,
        target=target,
        loadings=None if loadings is None else FactorLoadings(loadings),
        factor_names=None if loadings is None else draw(st.none() | st.lists(st.text(), min_size=k, max_size=k)),
        asset_returns=maybe((periods, n)),
        factor_returns=maybe((periods, k)),
        truth=truth,
        meta=draw(st.dictionaries(st.text(), st.none() | st.booleans() | st.integers() | _finite | st.text(), max_size=3)),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=_market_specs())
def test_market_spec_json_round_trip_is_bit_exact(spec):
    back = market_spec_from_dict(json.loads(json.dumps(market_spec_to_dict(spec))))
    assert _bits(back.sigma) == _bits(spec.sigma)
    assert _bits(back.market.weights) == _bits(spec.market.weights)
    assert _bits(back.market.variance) == _bits(spec.market.variance)
    assert back.market.name == spec.market.name


@settings(derandomize=True, max_examples=200, deadline=None)
@given(snap=_snapshots())
def test_snapshot_round_trip_is_bit_exact(tmp_path_factory, snap):
    out = tmp_path_factory.mktemp("snap")
    try:
        path = save_snapshot(snap, str(out))
    except ValueError as exc:
        # only factor names that a CSV header would not carry are refused
        assert "would not read back" in str(exc)
        assert not _header_reads_back(str(out / "probe.csv"), snap.factor_names, snap.loadings.values)
        return
    back = load_snapshot(path)
    assert back.date == snap.date
    assert _bits(back.spec.sigma) == _bits(snap.spec.sigma)
    assert _bits(back.spec.market.weights) == _bits(snap.spec.market.weights)
    assert _bits(back.spec.market.variance) == _bits(snap.spec.market.variance)
    assert back.spec.market.name == snap.spec.market.name
    for name in ("target", "truth", "asset_returns", "factor_returns"):
        want = getattr(snap, name)
        got = getattr(back, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert _bits(got) == _bits(want), name
    assert (back.loadings is None) == (snap.loadings is None)
    if snap.loadings is not None:
        assert _bits(back.loadings.values) == _bits(snap.loadings.values)
        k = snap.loadings.k
        assert back.factor_names == (snap.factor_names or [f"factor_{d + 1}" for d in range(k)])
    assert repr(sorted(back.meta.items())) == repr(sorted(snap.meta.items()))
    # a truth with the target's bits is written once
    shared = snap.truth is not None and snap.target is not None and _bits(snap.truth) == _bits(snap.target)
    assert (out / "snapshot_truth.csv").exists() == (snap.truth is not None and not shared)
