"""Benchmark of impliedcorr: one workload per run, every output checked.

    python3 perfbench/run.py --workload {repair-mix,cli-chain,hard-repair,sp500-panel} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from the
checkout's src/, never from an installed copy.  With --trace 0 the run
times whole passes of the workload's operations for at least S seconds
and reports the end-to-end metrics.  With --trace 1 it alternates an
untraced and a traced pass for at least S seconds and reports the
per-layer metrics, including the tracing overhead.  BENCHMARK.json lists
repair-mix and cli-chain; hard-repair and sp500-panel are the two halves
of repair-mix, runnable alone.

The line before the last is the run record (environment, thread settings,
problems and, when traced, every layer figure); the last line of standard
output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The record is also written to perfbench/out/, and a traced run writes the
spans of its first traced pass there as JSON lines.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Bytecode caches are written into the checkout, as an installed package
# has them, whatever the caller's environment; the first run of a
# checkout pays the compile in its set-up.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

# Pinned before numpy loads its BLAS, and inherited by every child.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as w  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "objective_total": "frob2",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "synth.generate_s": "s",
    "solver.solve_s": "s",
    "solver.solve_self_s": "s",
    "solver.initial_loadings_s": "s",
    "solver.fgrad_eval_s": "s",
    "solver.restoration_s": "s",
    "solver.restoration_calls": "count",
    "solver.restoration_failures": "count",
    "solver.restoration_success_ratio": "ratio",
    "solver.restoration_sweeps": "count",
    "solver.rescue_calls": "count",
    "solver.outer_iterations": "count",
    "solver.restorations": "count",
    "core.assemble_s": "s",
    "core.check_feasibility_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapped_calls": "count",
}


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description="impliedcorr benchmark")
    p.add_argument("--workload", required=True, choices=tuple(w.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def op_means(passes) -> list[float]:
    """Each operation's mean latency over the passes in which it succeeded.

    The latency quantiles are taken over these, one value per operation,
    so that they do not jump between operations of different cost as the
    number of passes in a run changes, and so that every pass of the run
    weighs in against a host whose speed drifts.
    """
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for label, t in p.latencies:
            by_op.setdefault(label, []).append(t)
    return [statistics.fmean(ts) for ts in by_op.values()]


def measure(wl, seconds: float, setup_s: float) -> tuple[dict, dict, object]:
    """Untraced run: whole passes until `seconds` have gone by."""
    tally, reference, passes, probes = w.Tally(), {}, [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(w.run_pass(wl.pass_ops(), tally, reference))
        wl.end_pass()
        # Cold starts after each pass, so that the probes sample the whole
        # run rather than one moment of a host whose speed drifts.  The
        # chain's own --help command is that probe on cli-chain.
        if wl.in_process:
            probes += w.cold_start_times(2)
    if not wl.in_process:
        probes = [t for p in passes for label, t in p.latencies if label == "help"]
    probes += w.cold_start_times(max(0, 3 - len(probes)))
    per_op = op_means(passes)
    timed = sum(p.timed_s for p in passes)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": sum(len(p.latencies) for p in passes) / timed if timed > 0 else 0.0,
        "op_p50_s": _median(per_op),
        "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[8] if len(per_op) > 1 else _median(per_op),
        "objective_total": passes[0].objective,
        "peak_rss_mb": wl.peak_rss_mb(),
        # The mean, as op_p50_s takes each operation's mean over the run.
        "cold_start_s": statistics.fmean(probes),
    }
    info = {
        "passes": len(passes),
        "timed_s": timed,
        "checked_by_digest": sum(p.checked_by_digest for p in passes),
        "latencies": [p.latencies for p in passes],
        "cold_start_probes": probes,
    }
    return metrics, info, (tally, passes)


def _layers(pass_summary: dict, inputs_summary: dict, p) -> dict:
    def get(name, key="total_s"):
        return pass_summary.get(name, {}).get(key, 0)

    calls = get("solver._project_feasible_raw", "calls")
    errors = get("solver._project_feasible_raw", "errors")
    return {
        "synth.generate_s": inputs_summary.get("synth.generate_synthetic_market", {}).get("total_s", 0.0),
        "solver.solve_s": get("solver.solve_nicm"),
        "solver.solve_self_s": get("solver.solve_nicm", "self_s"),
        "solver.initial_loadings_s": get("solver.initial_loadings"),
        "solver.fgrad_eval_s": get("solver.objective") + get("solver.objective_gradient"),
        "solver.restoration_s": get("solver._project_feasible_raw"),
        "solver.restoration_calls": calls,
        "solver.restoration_failures": errors,
        "solver.restoration_success_ratio": (calls - errors) / calls if calls else 0.0,
        "solver.restoration_sweeps": get("solver._project_equality_raw", "calls"),
        "solver.rescue_calls": get("solver._rescue_boundary", "calls"),
        "solver.outer_iterations": p.outer_iterations,
        "solver.restorations": p.restorations,
        "core.assemble_s": get("core.assemble_correlation"),
        "core.check_feasibility_s": get("core.check_feasibility"),
        "trace.wrapped_calls": sum(s["calls"] for s in pass_summary.values()),
    }


def _workload_layers(pass_summary: dict, inputs_summary: dict, direct: dict) -> dict:
    """Layer figures that only some workloads exercise (zero elsewhere)."""

    def get(summary, name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    return {
        "synth.estimate_target_s": get(inputs_summary, "synth.estimate_target_matrix"),
        "baselines.adjusted_s": get(inputs_summary, "baselines.adjusted_ex_post"),
        "io.save_snapshot_s": get(pass_summary, "io.save_snapshot"),
        "io.save_snapshot_bytes": get(pass_summary, "io.save_snapshot", "bytes"),
        "io.load_snapshot_s": get(pass_summary, "io.load_snapshot"),
        "io.load_snapshot_bytes": get(pass_summary, "io.load_snapshot", "bytes"),
        "io.read_matrix_csv_s": direct.get("read", 0.0),
        "io.write_matrix_csv_s": direct.get("write", 0.0),
    }


def measure_traced(wl, seconds: float, trace_path: Path) -> tuple[dict, dict, object]:
    """Traced run: untraced and traced passes alternate until `seconds` have gone by."""
    tally, reference = w.Tally(), {}
    inputs_summary: dict = {}
    absent: list[str] = []
    if wl.in_process:
        with tracing.Tracer() as tr:
            wl.build()
        inputs_summary, absent = tracing.summarize(tr.spans), tr.absent

    untraced, traced, per_pass, extra_per_pass = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(w.run_pass(wl.pass_ops(), tally, reference))
        wl.end_pass()
        if wl.in_process:
            tr = tracing.Tracer()
            with tr:
                p = w.run_pass(wl.pass_ops(traced=True), tally, reference, traced=True, tracer=tr)
            groups, absent = [tr.spans], tr.absent
        else:
            wl.child_traces = []
            p = w.run_pass(wl.pass_ops(traced=True), tally, reference, traced=True)
            groups = [child["spans"] for child in wl.child_traces]
            absent = wl.child_traces[0]["absent"] if wl.child_traces else absent
        wl.end_pass()
        traced.append(p)

        summary, spans, direct = {}, [], {"read": 0.0, "write": 0.0}
        for i, group in enumerate(groups):
            tracing.merge(summary, tracing.summarize(group))
            direct["read"] += tracing.direct_total(group, "io.read_matrix_csv", ("io.load_snapshot",))
            direct["write"] += tracing.direct_total(group, "io.write_matrix_csv", ("io.save_snapshot",))
            if not wl.in_process:  # a child's spans belong to command i
                off = len(spans)
                group = [[n, t0, t1, par + off if par >= 0 else -1, i, b] for n, t0, t1, par, _, b in group]
            spans += group
        inputs = inputs_summary if wl.in_process else summary
        per_pass.append(_layers(summary, inputs, p))
        extra_per_pass.append(_workload_layers(summary, inputs, direct))
        if len(traced) == 1:
            with open(trace_path, "w", encoding="utf-8") as fh:
                for sp in spans:
                    fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "bytes"), sp))) + "\n")

    probe = w.import_probe()
    metrics = {
        name: (per_pass[0][name] if LAYER_UNITS[name] == "count" else _median(pp[name] for pp in per_pass))
        for name in per_pass[0]
    }
    metrics["cli.import_s"] = probe["import_s"]
    metrics["cli.modules_loaded"] = probe["modules"]
    # Each traced pass follows an untraced one; their difference cancels
    # most of the host's drift.
    metrics["trace.overhead_s"] = _median(t.timed_s - u.timed_s for u, t in zip(untraced, traced))

    extra = {name: _median(ep[name] for ep in extra_per_pass) for name in extra_per_pass[0]}
    if not wl.in_process:
        for label in sorted({lab for p in untraced for lab, _ in p.latencies}):
            extra[f"cli.{label}_s"] = _median(
                statistics.median(t for lab, t in p.latencies if lab == label) for p in untraced
            )
    if metrics["solver.solve_s"] > 0:
        extra["solver.restoration_share"] = metrics["solver.restoration_s"] / metrics["solver.solve_s"]
    info = {
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "untraced_pass_s": [p.timed_s for p in untraced],
        "traced_pass_s": [p.timed_s for p in traced],
        "counts_repeat": all(
            pp[name] == per_pass[0][name] for pp in per_pass for name in pp if LAYER_UNITS[name] == "count"
        ),
        "absent": absent,
        "not_exercised": sorted(name for name, value in {**metrics, **extra}.items() if value == 0),
        "workload_layers": extra,
        "import_probe_file": probe["file"],
        "trace_file": str(trace_path.relative_to(BENCH_DIR.parent)),
    }
    return metrics, info, (tally, traced + untraced)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    init = SRC / "impliedcorr" / "__init__.py"
    if not init.is_file():
        _die(f"no package source at {init}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("impliedcorr")
    if found is None or Path(found.origin).resolve() != init.resolve():
        _die(f"impliedcorr resolves to {found and found.origin}, not to {init}")

    wl = w.WORKLOADS[args.workload](args.seed)
    try:
        if wl.in_process:
            import impliedcorr

            setup_s = time.perf_counter() - T_START + wl.setup(impliedcorr)
        else:
            setup_s = wl.setup()
        w.OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            values, info, (tally, passes) = measure_traced(wl, args.seconds, w.OUT_DIR / f"trace-{stem}.jsonl")
            units = LAYER_UNITS
        else:
            values, info, (tally, passes) = measure(wl, args.seconds, setup_s)
            units = E2E_UNITS
    finally:
        wl.close()

    # Passes without a failed operation must agree exactly on the
    # objective, and traced passes on every count.
    clean = [p.objective for p in passes if p.failed == 0]
    correct = (
        tally.attempted > tally.failed
        and all(o == clean[0] for o in clean)
        and info.get("counts_repeat", True)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "impliedcorr_file": str(Path(found.origin).resolve()),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "setup_s": setup_s,
        "problems": tally.problems,
        **info,
    }
    with open(w.OUT_DIR / f"run-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
