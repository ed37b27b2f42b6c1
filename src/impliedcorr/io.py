"""File formats for matrices, market specs, model parameters and snapshots.

Conventions, chosen so that identical inputs produce byte-identical files:

* Matrices are headerless CSV, one row per line, shortest round-trip float
  formatting (repr), newline line endings, trailing newline.  A square
  matrix with the bits of its transpose is formatted from its upper
  triangle, so each mirrored pair costs one repr and the bytes are the same.
  numpy's C reader parses the rows; it rounds correctly, as float() does,
  so a file reads back with the bits it was written from.  Its grammar is
  narrower than float()'s: digit separators (1_0) and non-ASCII digits
  are errors.
* Factor loadings are the same table after a header row of factor names,
  and a vector is a one-column table whose header names the field.
* Structured objects (market specs, model parameters, solver results,
  snapshots) are JSON with two-space indentation and sorted keys.
* A market snapshot is a JSON document holding the market spec inline and
  referring to bulky arrays (target matrix, loadings, return panels) by
  sibling-relative CSV paths.  Two keys may name one file: a truth matrix
  with the same bits as the target is written once, as the target's file.
  A loaded snapshot parses each of these files on the first read of a
  field that needs it, and parses a file named by two keys once.

Every reader raises ValueError starting with the file's path, and the line
in a table, on malformed input: every JSON file goes through _read_json,
where the value types' own checks run.  Cross-file dimension mismatches
name the files involved; for a snapshot's CSV fields, both come at the
field's first read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import NoReturn

import numpy as np

from .core import FactorLoadings, IndexConstraint, MarketSpec, _loadings_array, _same_bits
from .vg import VGParams

SNAPSHOT_SCHEMA_VERSION = 1


def _parses(text: str) -> bool:
    """Whether numpy's text reader takes text as one row of float64s."""
    if not text.strip():
        return False
    try:
        np.loadtxt([text], delimiter=",", comments=None)
        return True
    except ValueError:
        return False


def _read_csv(path: str, header: bool) -> tuple[list[str] | None, np.ndarray]:
    """Parse a CSV table of numbers, after a row of column names if header.

    Blank lines are skipped and every row must be as wide as the first row
    (or the header).  numpy's C reader parses the rows from the stream of
    lines; only when it fails is the file scanned again, line by line, for
    an error that carries the path and the line number.
    """
    detail = "not a table of numbers"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (line for line in fh if not line.isspace())
            names = [t.strip() for t in next(lines, "").split(",")] if header else None
            first = next(lines, None)
            if first is not None and not (names and all(map(_parses, names))):
                rows = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2)
                if names is None or rows.shape[1] == len(names):
                    return names, rows
    except ValueError as exc:  # numpy's, or bytes that are not UTF-8
        detail = str(exc)
    _raise_located(path, header, detail)


def _raise_located(path: str, header: bool, detail: str) -> NoReturn:
    """Raise the first error of a table that _read_csv rejected, by line."""
    names = width = None
    nrows = 0
    # Bytes that are not UTF-8 read as U+FFFD, which no number holds.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            tokens = line.split(",")
            if header and names is None:
                names = [t.strip() for t in tokens]
                if all(map(_parses, names)):
                    raise ValueError(f"{path}:{lineno}: expected a header row of column names")
                width = len(names)
                continue
            bad = None if _parses(line) else next((t for t in tokens if not _parses(t)), None)
            if bad is not None:
                raise ValueError(f"{path}:{lineno}: cannot parse {bad.strip()!r} as a number")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(tokens)} entries, expected {width}")
            nrows += 1
    if not nrows:
        raise ValueError(f"{path}: header but no rows" if names else f"{path}: empty file")
    raise ValueError(f"{path}: {detail}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless CSV matrix; errors carry path and line number."""
    return _read_csv(path, header=False)[1]


def write_matrix_csv(path: str, M, names: list[str] | None = None) -> None:
    """Write M one row per line in repr format, after a header row if names.

    names must be one per column and must read back from the header as
    written; other names raise ValueError before the file is opened.

    A square M with the bits of its transpose is formatted from its upper
    triangle: row i begins with column i of the rows above, whose strings
    are kept only until that row is written.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if names is not None:
        if len(names) != M.shape[1]:
            raise ValueError(f"{len(names)} column names for {M.shape[1]} columns")
        # The reader splits the header on commas and lines, strips each name,
        # skips a blank line and rejects a header of numbers.
        header = ",".join(names)
        if (
            [t.strip() for t in header.split(",")] != list(names)
            or "\n" in header
            or "\r" in header
            or not header
            or all(map(_parses, names))
        ):
            raise ValueError(f"column names {names!r} would not read back from a CSV header")
    symmetric = _same_bits(M, M.T)
    pending: list[list[str]] = []  # per row above, its unwritten strings, last column first
    with open(path, "w", encoding="utf-8") as fh:
        if names is not None:
            fh.write(header + "\n")
        for i, row in enumerate(M):
            if not symmetric:
                fh.write(",".join(map(repr, row.tolist())) + "\n")
                continue
            upper = list(map(repr, row[i:].tolist()))
            fh.write(",".join(list(map(list.pop, pending)) + upper) + "\n")
            pending.append(upper[:0:-1])


def read_loadings_csv(path: str) -> tuple[list[str], FactorLoadings]:
    """Read loadings with a factor-name header row."""
    names, rows = _read_csv(path, header=True)
    return names, FactorLoadings(rows)


def write_loadings_csv(path: str, X, names: list[str] | None = None) -> None:
    """Write loadings after a header row of factor names (factor_1, ... by default)."""
    arr = _loadings_array(X)
    if names is None:
        names = [f"factor_{d + 1}" for d in range(arr.shape[1])]
    write_matrix_csv(path, arr, names)


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str, build):
    """build(d) for the JSON object d in the file at path; every error of
    decoding, parsing or building, a missing key included, is raised as a
    ValueError whose message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _build_object(path, build, d)


def _build_object(where: str, build, d):
    """build(d) for a JSON object d; a missing key, a TypeError or a
    ValueError is raised as a ValueError whose message starts with where."""
    try:
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        return build(d)
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _beside(doc: str, name: str) -> str:
    """The path of a file that the document at doc names: relative to the document."""
    return os.path.join(os.path.dirname(os.path.abspath(doc)), name)


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


def market_spec_from_dict(d: dict) -> MarketSpec:
    """The spec of a JSON object; MarketSpec and IndexConstraint check it."""
    cons = tuple(IndexConstraint(str(c["name"]), c["weights"], float(c["variance"]))
                 for c in d["constraints"])
    return MarketSpec(d["sigma"], cons)


def read_market_spec(path: str) -> MarketSpec:
    return _read_json(path, market_spec_from_dict)


def write_market_spec(path: str, spec: MarketSpec) -> None:
    _dump_json(path, market_spec_to_dict(spec))


def read_vg_params(path: str) -> VGParams:
    """Read direct model parameters; C_dir names a CSV file beside the JSON."""
    return _read_json(path, lambda d: VGParams(
        xi=d["xi"], omega=d["omega"], theta=d["theta"], nu=float(d["nu"]),
        C_dir=None if d.get("C_dir") is None else read_matrix_csv(_beside(path, d["C_dir"])),
    ))


class _Deferred:
    """A snapshot field held as a loader, load(snapshot) -> value."""

    __slots__ = ("load",)

    def __init__(self, load) -> None:
        self.load = load


class _FileField:
    """A MarketSnapshot field that load_snapshot binds to a CSV file.

    A value given at construction is stored as is.  A _Deferred value is
    replaced by what its loader returns on the field's first read; a
    loader that raises leaves it in place, so every read raises.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, snapshot, owner=None):
        if snapshot is None:
            return None  # the dataclass default
        value = snapshot.__dict__[self.name]
        if isinstance(value, _Deferred):
            value = snapshot.__dict__[self.name] = value.load(snapshot)
        return value

    def __set__(self, snapshot, value) -> None:
        snapshot.__dict__[self.name] = value


@dataclass(frozen=True)
class MarketSnapshot:
    """One dated market observation plus optional estimation inputs.

    Bulky arrays live in sibling CSV files; the snapshot JSON stores their
    relative paths.  target is the matrix handed to the nearest-matrix
    solver, loadings are physical-measure factor correlations for the
    economic route, the return panels feed the estimators, and truth (for
    synthetic snapshots) is the generating correlation matrix.

    A snapshot from :func:`load_snapshot` parses each array field on its
    first read and keeps the result.  That read raises ValueError if the
    file is malformed or its shape disagrees with the spec; factor_returns
    is also checked then against the loadings and the asset return panel.
    """

    date: str
    spec: MarketSpec
    target: np.ndarray | None = _FileField()
    loadings: FactorLoadings | None = _FileField()
    factor_names: list[str] | None = _FileField()
    asset_returns: np.ndarray | None = _FileField()
    factor_returns: np.ndarray | None = _FileField()
    truth: np.ndarray | None = _FileField()
    meta: dict = field(default_factory=dict)


def load_snapshot(path: str) -> MarketSnapshot:
    """Load a snapshot JSON; its CSV fields are parsed on first read.

    Validates the schema version and the inline spec at once.  Each array
    field is parsed and checked against the spec on its first read, which
    raises ValueError naming the files involved in any mismatch; a file
    named by two keys is parsed once, and both fields hold its array.
    """

    def build(d: dict):
        version = d.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported snapshot schema_version {version!r}, expected {SNAPSHOT_SCHEMA_VERSION}"
            )
        if "spec" not in d or "date" not in d:
            raise ValueError("snapshot needs 'date' and an inline 'spec'")
        if not isinstance(d.get("meta", {}), dict):
            raise ValueError(f"snapshot 'meta' must be a JSON object, got {type(d['meta']).__name__}")
        for key in ("target", "truth", "loadings", "asset_returns", "factor_returns"):
            if d.get(key) is not None and not isinstance(d[key], str):
                raise ValueError(f"snapshot {key!r} must name a CSV file, got {type(d[key]).__name__}")
        return d, _build_object("(spec)", market_spec_from_dict, d["spec"])

    d, spec = _read_json(path, build)
    n = spec.n
    parsed: dict = {}

    def parse(key: str, header: bool = False):
        full = _beside(path, d[key])
        if (full, header) not in parsed:
            parsed[full, header] = read_loadings_csv(full) if header else read_matrix_csv(full)
        return full, parsed[full, header]

    def square(key: str):
        def load(snap):
            full, M = parse(key)
            if M.shape != (n, n):
                raise ValueError(
                    f"{full}: {key} matrix has shape {M.shape}, expected "
                    f"({n}, {n}) from the spec in {path}"
                )
            return M

        return load

    def asset_returns(snap):
        full, R = parse("asset_returns")
        if R.shape[1] != n:
            raise ValueError(f"{full}: return panel has {R.shape[1]} columns for {n} assets in {path}")
        return R

    def loadings(snap):
        full, (_, X) = parse("loadings", header=True)
        if X.n != n:
            raise ValueError(f"{full}: loadings have {X.n} rows for {n} assets in {path}")
        return X

    def factor_names(snap):
        snap.loadings  # runs the loadings' shape check
        return parse("loadings", header=True)[1][0]

    def factor_returns(snap):
        full, F = parse("factor_returns")
        X = snap.loadings
        if X is not None and F.shape[1] != X.k:
            raise ValueError(
                f"{full}: {F.shape[1]} factor return columns for {X.k} loading columns in {path}"
            )
        R = snap.asset_returns
        if R is not None and R.shape[0] != F.shape[0]:
            raise ValueError(
                f"{parse('asset_returns')[0]} and {full} disagree on the "
                f"number of periods ({R.shape[0]} vs {F.shape[0]})"
            )
        return F

    # Each field's loader, under the key that names its file.
    loaders = {
        "target": ("target", square("target")),
        "truth": ("truth", square("truth")),
        "asset_returns": ("asset_returns", asset_returns),
        "factor_returns": ("factor_returns", factor_returns),
        "loadings": ("loadings", loadings),
        "factor_names": ("loadings", factor_names),
    }
    fields = {name: _Deferred(load) for name, (key, load) in loaders.items() if d.get(key) is not None}
    return MarketSnapshot(date=str(d["date"]), spec=spec, meta=dict(d.get("meta", {})), **fields)


def save_snapshot(snapshot: MarketSnapshot, out_dir: str, stem: str = "snapshot") -> str:
    """Write the snapshot JSON plus sibling CSVs; returns the JSON path.

    A truth with the same bits as the target is not written again: its
    key names the target's file.
    """
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
    if _same_bits(snapshot.truth, snapshot.target):
        d["truth"] = d["target"]
    else:
        emit("truth", snapshot.truth)
    if snapshot.loadings is not None:
        name = f"{stem}_loadings.csv"
        write_loadings_csv(os.path.join(out_dir, name), snapshot.loadings, snapshot.factor_names)
        d["loadings"] = name

    json_path = os.path.join(out_dir, f"{stem}.json")
    _dump_json(json_path, d)
    return json_path
