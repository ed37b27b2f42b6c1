"""Deterministic model comparison on synthetic markets.

A bench suite fixes one synthetic market family (n, k_true, crp, periods)
and a list of cells, each naming a model (equicorr, adjusted, nicm,
economic), a factor count k where applicable, and a target-matrix mode
(true, hist, mr).  Every cell runs the same number of independent
instances; instance j of cell i draws its market from
SeedSequence(seed, spawn_key=(i, j)), so results are reproducible bit for
bit, independent of execution order.

Reported per cell: wall time, final objective distance to the target,
absolute variance-constraint residual of the produced matrix, solver
iterations, and the adjustment scalar (alpha) for the models that have
one, each as mean/sd (or max for the residual) over the non-failed
instances.  Failures are counted, never silently dropped, and so are
non-failed instances whose matrix fails check_feasibility (indefinite,
out of bounds, or off the index variance by more than the solver's default
var_tol relative to (sum_i |sigma_i w_i|)^2); each run record carries the
full report.

With measure_time=False the timing columns are written as zeros so the
rendered table and CSV are byte-identical across runs, which makes the
bench usable as a determinism check in CI.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .baselines import adjusted_ex_post, equicorrelation
from .core import _record, check_feasibility
from .economic import economic_implied_corr
from .io import _dump_json
from .solver import SolverConfig, solve_nicm
from .synth import estimate_factor_correlations, estimate_target_matrix, generate_synthetic_market

MODELS = ("equicorr", "adjusted", "nicm", "economic")
TARGETS = ("true", "hist", "mr")


@dataclass(frozen=True)
class BenchCell:
    model: str
    k: int = 1
    target: str = "true"

    def __post_init__(self) -> None:
        _check_int("k", self.k)
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target mode {self.target!r}, expected one of {TARGETS}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    def label(self) -> str:
        return f"{self.model}/k={self.k}/{self.target}" if self.model == "nicm" else f"{self.model}/{self.target}"


@dataclass(frozen=True)
class BenchSuite:
    """Full description of one bench run."""

    cells: tuple[BenchCell, ...]
    n: int = 50
    k_true: int = 6
    crp: float = 0.1
    instances: int = 20
    seed: int = 0
    periods: int = 0
    window: int | None = None
    measure_time: bool = True

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("suite has no cells")
        for name in ("n", "k_true", "instances", "seed", "periods"):
            _check_int(name, getattr(self, name))
        if self.window is not None:
            _check_int("window", self.window)
        if isinstance(self.crp, bool) or not isinstance(self.crp, (int, float, np.number)):
            raise TypeError(f"crp must be a number, got {self.crp!r}")
        if not isinstance(self.measure_time, bool):
            raise TypeError(f"measure_time must be true or false, got {self.measure_time!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.instances < 1:
            raise ValueError(f"instances must be at least 1, got {self.instances}")
        # Estimated targets and estimated loadings both come from return
        # panels; cells on the true target read everything from the
        # generator directly.
        needs_returns = [c.label() for c in self.cells if c.target != "true"]
        if needs_returns and self.periods <= 0:
            raise ValueError(
                f"cells {needs_returns} need return panels; set periods > 0"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "BenchSuite":
        d = _fields(cls, d, "suite")
        cells = tuple(BenchCell(**_fields(BenchCell, c, "cell")) for c in d.pop("cells"))
        return cls(cells=cells, **d)


def _check_int(name: str, value) -> None:
    """Raise TypeError unless value is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _fields(cls, d, what: str) -> dict:
    """A copy of the JSON object d, whose keys must be fields of the dataclass cls."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(d).__name__}")
    extra = set(d) - set(cls.__dataclass_fields__)
    if extra:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")
    return dict(d)


@dataclass(frozen=True)
class BenchRow:
    """Aggregates of one cell over its non-failed instances."""

    model: str
    k: int
    target: str
    t_mean: float
    t_sd: float
    fn_mean: float
    fn_sd: float
    vtol_mean: float
    vtol_max: float
    iter_mean: float
    iter_sd: float
    alpha_mean: float | None
    alpha_sd: float | None
    instances: int
    infeasible: int
    failures: int

    def to_dict(self) -> dict:
        return _record(self)


def _offdiag_sqdist(C: np.ndarray, A: np.ndarray) -> float:
    D = C - A
    D = D - np.diag(np.diag(D))
    return float(np.sum(D * D))


def _run_instance(suite: BenchSuite, cell: BenchCell, cell_idx: int, instance: int) -> dict:
    record: dict = {
        "cell": cell.label(),
        "cell_index": cell_idx,
        "instance": instance,
        "failed": False,
        "error": None,
        "t": 0.0,
        "fn": math.nan,
        "vtol": math.nan,
        "iterations": 0,
        "alpha": None,
        "feasibility": None,
    }
    try:
        ss = np.random.SeedSequence(suite.seed, spawn_key=(cell_idx, instance))
        snapshot, C_true = generate_synthetic_market(
            suite.n, suite.k_true, suite.crp, ss, periods=suite.periods
        )
        spec = snapshot.spec

        if cell.target == "true":
            A = C_true.values
        else:
            mode = "historical" if cell.target == "hist" else "mean_reverting"
            est_seed = np.random.SeedSequence(suite.seed, spawn_key=(cell_idx, instance, 1))
            A = estimate_target_matrix(
                snapshot.asset_returns,
                mode=mode,
                window=suite.window,
                seed=est_seed,
            ).values

        t0 = time.perf_counter()
        if cell.model == "equicorr":
            res = equicorrelation(spec)
            C = res.C
            record["alpha"] = None
        elif cell.model == "adjusted":
            res = adjusted_ex_post(A, spec)
            C = res.C_Q
            record["alpha"] = float(res.alpha_hat)
        elif cell.model == "nicm":
            res = solve_nicm(A, spec, SolverConfig(k=cell.k))
            C = res.C_star
            record["iterations"] = int(res.outer_iterations)
            if not res.converged:
                raise RuntimeError(f"solver did not converge: {res.message}")
        else:
            if cell.target == "true":
                X_P = snapshot.loadings
            else:
                X_P = estimate_factor_correlations(
                    snapshot.asset_returns, snapshot.factor_returns, window=suite.window
                )
            res = economic_implied_corr(X_P, spec)
            C = res.C
            record["alpha"] = float(res.alpha_tilde)
        elapsed = time.perf_counter() - t0

        record["t"] = elapsed if suite.measure_time else 0.0
        record["fn"] = _offdiag_sqdist(C.values, A)
        record["feasibility"] = check_feasibility(C, spec).to_dict()
        record["vtol"] = abs(record["feasibility"]["constraint_residuals"][0])
    except Exception as exc:
        record["failed"] = True
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _mean_sd(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def _aggregate(cell: BenchCell, records: list[dict]) -> BenchRow:
    ok = [r for r in records if not r["failed"]]
    t_mean, t_sd = _mean_sd([r["t"] for r in ok])
    fn_mean, fn_sd = _mean_sd([r["fn"] for r in ok])
    vt = [r["vtol"] for r in ok]
    it_mean, it_sd = _mean_sd([float(r["iterations"]) for r in ok])
    alphas = [r["alpha"] for r in ok if r["alpha"] is not None]
    a_mean, a_sd = _mean_sd(alphas) if alphas else (None, None)
    return BenchRow(
        model=cell.model,
        k=cell.k,
        target=cell.target,
        t_mean=t_mean,
        t_sd=t_sd,
        fn_mean=fn_mean,
        fn_sd=fn_sd,
        vtol_mean=float(np.mean(vt)) if vt else math.nan,
        vtol_max=float(np.max(vt)) if vt else math.nan,
        iter_mean=it_mean,
        iter_sd=it_sd,
        alpha_mean=a_mean,
        alpha_sd=a_sd,
        instances=len(records),
        infeasible=sum(not r["feasibility"]["feasible"] for r in ok),
        failures=len(records) - len(ok),
    )


def _fmt_cell(x, width: int) -> str:
    if x is None:
        return "-".rjust(width)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan".rjust(width)
        return f"{x:.4g}".rjust(width)
    return str(x).rjust(width)


# The table's columns: (BenchRow field, header, width).
_COLUMNS = (
    ("model", "model", 10), ("k", "k", 3), ("target", "target", 6),
    ("t_mean", "t.mean", 10), ("t_sd", "t.sd", 10),
    ("fn_mean", "fn.mean", 11), ("fn_sd", "fn.sd", 11),
    ("vtol_mean", "vtol.mean", 10), ("vtol_max", "vtol.max", 10),
    ("iter_mean", "it.mean", 8), ("iter_sd", "it.sd", 8),
    ("alpha_mean", "a.mean", 9), ("alpha_sd", "a.sd", 9),
    ("infeasible", "infeas", 6), ("failures", "fail", 5),
)


def render_table(rows: list[BenchRow]) -> str:
    lines = ["  ".join(header.rjust(w) for _, header, w in _COLUMNS)]
    lines.append("  ".join("-" * w for _, _, w in _COLUMNS))
    for r in rows:
        lines.append("  ".join(_fmt_cell(getattr(r, name), w) for name, _, w in _COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[BenchRow]) -> str:
    cols = list(BenchRow.__dataclass_fields__)
    out = [",".join(cols)]
    for r in rows:
        d = r.to_dict()
        out.append(",".join("" if d[c] is None else repr(d[c]) if isinstance(d[c], float) else str(d[c]) for c in cols))
    return "\n".join(out) + "\n"


def run_bench(suite: BenchSuite, out_dir: str | None = None) -> tuple[list[BenchRow], str]:
    """Run every cell of the suite; returns rows and the rendered table.

    With out_dir set, per-instance records are written to
    out_dir/runs/*.json and the aggregates to bench.csv / bench.txt.
    """
    rows: list[BenchRow] = []
    all_records: list[tuple[int, list[dict]]] = []
    for ci, cell in enumerate(suite.cells):
        records = [_run_instance(suite, cell, ci, ii) for ii in range(suite.instances)]
        all_records.append((ci, records))
        rows.append(_aggregate(cell, records))

    table = render_table(rows)
    if out_dir is not None:
        runs_dir = os.path.join(out_dir, "runs")
        os.makedirs(runs_dir, exist_ok=True)
        for ci, records in all_records:
            for rec in records:
                _dump_json(
                    os.path.join(runs_dir, f"cell{ci:02d}_inst{rec['instance']:03d}.json"),
                    rec,
                )
        with open(os.path.join(out_dir, "bench.txt"), "w", encoding="utf-8") as fh:
            fh.write(table)
        with open(os.path.join(out_dir, "bench.csv"), "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
    return rows, table
