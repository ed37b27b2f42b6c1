"""CSV and JSON persistence: exact round trips and located error messages."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def test_matrix_skips_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,0.5\n\n0.5,1.0\n")
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    M=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_finite, fill=st.nothing()),
    named=st.booleans(),
)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, M, named):
    p = str(tmp_path_factory.mktemp("csv") / "m.csv")
    if named:
        names = [f"c{j}" for j in range(M.shape[1])]
        write_matrix_csv(p, M, names)
        back_names, X = read_loadings_csv(p)
        assert back_names == names
        back = X.values
    else:
        write_matrix_csv(p, M)
        back = read_matrix_csv(p)
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
    with pytest.raises(ValueError, match="2 factor names for 1 columns"):
        write_loadings_csv(str(p), np.array([[0.1], [0.2]]), ["a", "b"])


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
    path.write_text(json.dumps(SolverConfig(k=4, var_tol=1e-8).to_dict()) + "\n")
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
    for suffix in ("_target", "_truth", "_loadings", "_asset_returns", "_factor_returns"):
        assert (tmp_path / f"snap{suffix}.csv").exists()


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


def test_snapshot_dimension_errors(tmp_path):
    snap, _ = generate_synthetic_market(4, 2, 0.1, seed=7, periods=12)
    path = save_snapshot(snap, str(tmp_path))

    write_matrix_csv(str(tmp_path / "snapshot_target.csv"), np.eye(3))
    with pytest.raises(ValueError, match=r"target matrix has shape \(3, 3\)"):
        load_snapshot(path)
    write_matrix_csv(str(tmp_path / "snapshot_target.csv"), snap.target)

    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), np.eye(5))
    with pytest.raises(ValueError, match="truth matrix has shape"):
        load_snapshot(path)
    write_matrix_csv(str(tmp_path / "snapshot_truth.csv"), snap.truth)

    write_matrix_csv(str(tmp_path / "snapshot_asset_returns.csv"), np.zeros((12, 3)))
    with pytest.raises(ValueError, match="3 columns for 4 assets"):
        load_snapshot(path)
    write_matrix_csv(str(tmp_path / "snapshot_asset_returns.csv"), snap.asset_returns)

    write_loadings_csv(str(tmp_path / "snapshot_loadings.csv"), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="3 rows for 4 assets"):
        load_snapshot(path)
    write_loadings_csv(str(tmp_path / "snapshot_loadings.csv"), snap.loadings, snap.factor_names)

    write_matrix_csv(str(tmp_path / "snapshot_factor_returns.csv"), np.zeros((12, 3)))
    with pytest.raises(ValueError, match="3 factor return columns for 2 loading columns"):
        load_snapshot(path)

    write_matrix_csv(str(tmp_path / "snapshot_factor_returns.csv"), np.zeros((9, 2)))
    with pytest.raises(ValueError, match="disagree on the number of periods"):
        load_snapshot(path)
