"""File formats for matrices, market specs, model parameters and snapshots.

Conventions, chosen so that identical inputs produce byte-identical files:

* Matrices are headerless CSV, one row per line, shortest round-trip float
  formatting (repr), newline line endings, trailing newline.
* Factor loadings are the same table after a header row of factor names,
  and a vector is a one-column table whose header names the field.
* Structured objects (market specs, model parameters, solver configs and
  results, snapshots) are JSON with two-space indentation and sorted keys.
* A market snapshot is a JSON document holding the market spec inline and
  referring to bulky arrays (target matrix, loadings, return panels) by
  sibling-relative CSV paths.

Readers raise ValueError with file and line context on malformed input and
name the offending files on cross-file dimension mismatches.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import CorrMatrix, FactorLoadings, IndexConstraint, MarketSpec
from .solver import SolverConfig
from .vg import VGParams

SNAPSHOT_SCHEMA_VERSION = 1


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _read_csv(path: str, header: bool) -> tuple[list[str] | None, list[list[float]]]:
    """Parse a CSV table of numbers, after a row of column names if header.

    Blank lines are skipped and every row must be as wide as the first row
    (or the header).  Errors carry the path and the line number.
    """
    names: list[str] | None = None
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if header and names is None:
                names = [t.strip() for t in tokens]
                if all(_is_float(t) for t in names):
                    raise ValueError(f"{path}:{lineno}: expected a header row of column names")
                width = len(names)
                continue
            try:
                row = list(map(float, tokens))
            except ValueError:
                bad = next(t for t in tokens if not _is_float(t))
                raise ValueError(f"{path}:{lineno}: cannot parse {bad.strip()!r} as a number") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(row)} entries, expected {width}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: header but no rows" if names else f"{path}: empty file")
    return names, rows


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless CSV matrix; errors carry path and line number."""
    return np.array(_read_csv(path, header=False)[1])


def write_matrix_csv(path: str, M, names: list[str] | None = None) -> None:
    """Write M one row per line in repr format, after a header row if names."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        if names is not None:
            fh.write(",".join(names) + "\n")
        for row in M.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def read_loadings_csv(path: str) -> tuple[list[str], FactorLoadings]:
    """Read loadings with a factor-name header row."""
    names, rows = _read_csv(path, header=True)
    return names, FactorLoadings(np.array(rows))


def write_loadings_csv(path: str, X, names: list[str] | None = None) -> None:
    arr = X.values if isinstance(X, FactorLoadings) else np.atleast_2d(np.asarray(X, dtype=float))
    if names is None:
        names = [f"factor_{d + 1}" for d in range(arr.shape[1])]
    if len(names) != arr.shape[1]:
        raise ValueError(f"{len(names)} factor names for {arr.shape[1]} columns")
    write_matrix_csv(path, arr, names)


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None


def market_spec_to_dict(spec: MarketSpec) -> dict:
    c = spec.market
    return {
        "sigma": [float(s) for s in spec.sigma],
        "constraints": [
            {
                "name": c.name,
                "weights": [float(w) for w in c.weights],
                "variance": float(c.variance),
            }
        ],
    }


def market_spec_from_dict(d: dict, context: str = "market spec") -> MarketSpec:
    try:
        sigma = d["sigma"]
        raw_cons = d["constraints"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{context}: missing field {exc}") from None
    if not isinstance(raw_cons, list) or len(raw_cons) != 1:
        count = len(raw_cons) if isinstance(raw_cons, list) else type(raw_cons).__name__
        raise ValueError(f"{context}: a market spec needs exactly one index constraint, got {count}")
    rc = raw_cons[0]
    try:
        con = IndexConstraint(
            name=str(rc["name"]),
            weights=np.asarray(rc["weights"], dtype=float),
            variance=float(rc["variance"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{context}: constraint 0 is malformed ({exc})") from None
    return MarketSpec(np.asarray(sigma, dtype=float), (con,))


def read_market_spec(path: str) -> MarketSpec:
    return market_spec_from_dict(_load_json(path), context=path)


def write_market_spec(path: str, spec: MarketSpec) -> None:
    _dump_json(path, market_spec_to_dict(spec))


def read_vg_params(path: str) -> VGParams:
    """Read direct model parameters; C_dir is a path relative to the JSON."""
    d = _load_json(path)
    for key in ("xi", "omega", "theta", "nu"):
        if key not in d:
            raise ValueError(f"{path}: missing field {key!r}")
    C = None
    ref = d.get("C_dir")
    if ref is not None:
        c_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        M = read_matrix_csv(c_path)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"{c_path}: direct correlation matrix must be square, got {M.shape}")
        C = M
    return VGParams(
        xi=np.asarray(d["xi"], dtype=float),
        omega=np.asarray(d["omega"], dtype=float),
        theta=np.asarray(d["theta"], dtype=float),
        nu=float(d["nu"]),
        C_dir=CorrMatrix(C) if C is not None else None,
    )


def read_solver_config(path: str) -> SolverConfig:
    d = _load_json(path)
    try:
        return SolverConfig.from_dict(d)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class MarketSnapshot:
    """One dated market observation plus optional estimation inputs.

    Bulky arrays live in sibling CSV files; the snapshot JSON stores their
    relative paths.  target is the matrix handed to the nearest-matrix
    solver, loadings are physical-measure factor correlations for the
    economic route, the return panels feed the estimators, and truth (for
    synthetic snapshots) is the generating correlation matrix.
    """

    date: str
    spec: MarketSpec
    target: np.ndarray | None = None
    loadings: FactorLoadings | None = None
    factor_names: list[str] | None = None
    asset_returns: np.ndarray | None = None
    factor_returns: np.ndarray | None = None
    truth: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def load_snapshot(path: str) -> MarketSnapshot:
    """Load a snapshot JSON and every CSV it references.

    Validates the schema version and all cross-file dimensions, naming the
    files involved in any mismatch.
    """
    d = _load_json(path)
    version = d.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported snapshot schema_version {version!r}, "
            f"expected {SNAPSHOT_SCHEMA_VERSION}"
        )
    if "spec" not in d or "date" not in d:
        raise ValueError(f"{path}: snapshot needs 'date' and an inline 'spec'")
    spec = market_spec_from_dict(d["spec"], context=f"{path} (spec)")
    base = os.path.dirname(os.path.abspath(path))

    def sibling(key: str) -> tuple[str, np.ndarray] | None:
        ref = d.get(key)
        if ref is None:
            return None
        full = os.path.join(base, ref)
        return full, read_matrix_csv(full)

    n = spec.n
    target = sibling("target")
    if target is not None and target[1].shape != (n, n):
        raise ValueError(
            f"{target[0]}: target matrix has shape {target[1].shape}, expected "
            f"({n}, {n}) from the spec in {path}"
        )
    truth = sibling("truth")
    if truth is not None and truth[1].shape != (n, n):
        raise ValueError(
            f"{truth[0]}: truth matrix has shape {truth[1].shape}, expected "
            f"({n}, {n}) from the spec in {path}"
        )
    asset_returns = sibling("asset_returns")
    if asset_returns is not None and asset_returns[1].shape[1] != n:
        raise ValueError(
            f"{asset_returns[0]}: return panel has {asset_returns[1].shape[1]} "
            f"columns for {n} assets in {path}"
        )
    factor_returns = sibling("factor_returns")

    loadings = None
    factor_names = None
    ref = d.get("loadings")
    if ref is not None:
        full = os.path.join(base, ref)
        factor_names, loadings = read_loadings_csv(full)
        if loadings.n != n:
            raise ValueError(
                f"{full}: loadings have {loadings.n} rows for {n} assets in {path}"
            )
    if factor_returns is not None and loadings is not None:
        if factor_returns[1].shape[1] != loadings.k:
            raise ValueError(
                f"{factor_returns[0]}: {factor_returns[1].shape[1]} factor return "
                f"columns for {loadings.k} loading columns in {path}"
            )
    if asset_returns is not None and factor_returns is not None:
        if asset_returns[1].shape[0] != factor_returns[1].shape[0]:
            raise ValueError(
                f"{asset_returns[0]} and {factor_returns[0]} disagree on the "
                f"number of periods ({asset_returns[1].shape[0]} vs "
                f"{factor_returns[1].shape[0]})"
            )

    return MarketSnapshot(
        date=str(d["date"]),
        spec=spec,
        target=None if target is None else target[1],
        loadings=loadings,
        factor_names=factor_names,
        asset_returns=None if asset_returns is None else asset_returns[1],
        factor_returns=None if factor_returns is None else factor_returns[1],
        truth=None if truth is None else truth[1],
        meta=dict(d.get("meta", {})),
    )


def save_snapshot(snapshot: MarketSnapshot, out_dir: str, stem: str = "snapshot") -> str:
    """Write the snapshot JSON plus sibling CSVs; returns the JSON path."""
    os.makedirs(out_dir, exist_ok=True)
    d: dict = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "date": snapshot.date,
        "spec": market_spec_to_dict(snapshot.spec),
        "target": None,
        "loadings": None,
        "asset_returns": None,
        "factor_returns": None,
        "truth": None,
        "meta": snapshot.meta,
    }

    def emit(key: str, arr) -> None:
        if arr is None:
            return
        name = f"{stem}_{key}.csv"
        write_matrix_csv(os.path.join(out_dir, name), arr)
        d[key] = name

    emit("target", snapshot.target)
    emit("asset_returns", snapshot.asset_returns)
    emit("factor_returns", snapshot.factor_returns)
    emit("truth", snapshot.truth)
    if snapshot.loadings is not None:
        name = f"{stem}_loadings.csv"
        write_loadings_csv(os.path.join(out_dir, name), snapshot.loadings, snapshot.factor_names)
        d["loadings"] = name

    json_path = os.path.join(out_dir, f"{stem}.json")
    _dump_json(json_path, d)
    return json_path
