"""Spans and counts around calls into impliedcorr, wrapped from outside.

The tracer replaces module-level functions of the package by timing
wrappers, looked up by name, and puts the originals back afterwards.  It
patches every binding of a function across the loaded ``impliedcorr``
modules, so calls through ``from .x import f`` aliases and through the
package namespace are seen too.  The restoration helpers of the solver
are private and reached only through module globals, so they are wrapped
the same way; a name that no longer exists is reported as absent and does
not fail the run.

A span is [name, start, end, parent index, operation index, bytes]; bytes
is the change of the /proc/self/io counter named in IO_COUNTERS, for the
I/O entry points only.

Run as a script, this module is the traced CLI child:

    python3 perfbench/tracing.py --spans OUT.json -- <impliedcorr cli args>

runs ``impliedcorr.cli`` in-process with the tracer installed and writes
its spans to OUT.json, exiting with the command's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("impliedcorr.solver", "solve_nicm"),
    ("impliedcorr.solver", "initial_loadings"),
    ("impliedcorr.solver", "objective"),
    ("impliedcorr.solver", "objective_gradient"),
    ("impliedcorr.solver", "_project_feasible_raw"),
    ("impliedcorr.solver", "_project_equality_raw"),
    ("impliedcorr.solver", "_rescue_boundary"),
    ("impliedcorr.core", "assemble_correlation"),
    ("impliedcorr.core", "check_feasibility"),
    ("impliedcorr.synth", "generate_synthetic_market"),
    ("impliedcorr.synth", "estimate_target_matrix"),
    ("impliedcorr.baselines", "adjusted_ex_post"),
    ("impliedcorr.io", "save_snapshot"),
    ("impliedcorr.io", "load_snapshot"),
    ("impliedcorr.io", "read_matrix_csv"),
    ("impliedcorr.io", "write_matrix_csv"),
)

# Span names whose byte counts come from /proc/self/io.
IO_COUNTERS = {"io.load_snapshot": "rchar", "io.save_snapshot": "wchar"}


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _proc_io() -> dict[str, int]:
    try:
        with open("/proc/self/io", "r", encoding="ascii") as fh:
            return {k: int(v) for k, v in (line.split(":") for line in fh)}
    except OSError:
        return {}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = IO_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            io0 = _proc_io().get(counter, 0) if counter else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[0] = name + "!"
                raise
            finally:
                span[2] = time.perf_counter()
                span[1] = t0
                if counter:
                    span[5] = _proc_io().get(counter, 0) - io0
                stack.pop()

        return wrapper

    def install(self) -> "Tracer":
        for module, func in TARGETS:
            mod = importlib.import_module(module)
            orig = getattr(mod, func, None)
            if orig is None:
                self.absent.append(span_name(module, func))
                continue
            wrapper = self._wrap(orig, span_name(module, func))
            for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "impliedcorr"]:
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, wrapper)
                        self._patches.append((other, attr, orig))
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, errors, total and self seconds, bytes.

    A raised call is recorded under its name with a trailing '!' and
    counted both as a call and as an error of that name.  Self time is a
    span's duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _parent, _op, nbytes) in enumerate(spans):
        base = name.rstrip("!")
        s = out.setdefault(base, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
        s["calls"] += 1
        s["errors"] += name != base
        s["total_s"] += t1 - t0
        s["self_s"] += t1 - t0 - child_s[i]
        s["bytes"] += nbytes
    return out


def merge(into: dict[str, dict], other: dict[str, dict]) -> dict[str, dict]:
    for name, s in other.items():
        t = into.setdefault(name, {k: 0 for k in s})
        for k, v in s.items():
            t[k] += v
    return into


def direct_total(spans: list[list], name: str, outside: tuple[str, ...]) -> float:
    """Seconds in calls of name whose caller is not one of the outside spans."""
    total = 0.0
    for sp in spans:
        if sp[0].rstrip("!") == name and (sp[3] < 0 or spans[sp[3]][0].rstrip("!") not in outside):
            total += sp[2] - sp[1]
    return total


def fgrad_probe(ic, X, A) -> None:
    """One public objective and gradient evaluation at a solution."""
    ic.objective(X, A)
    ic.objective_gradient(X, A)


def _child_main(argv: list[str]) -> int:
    sep = argv.index("--")
    spans_path = argv[argv.index("--spans") + 1]
    cli_args = argv[sep + 1:]

    import impliedcorr
    from impliedcorr import cli

    tracer = Tracer()

    def solve_then_probe(A, spec, config=None):
        # Looked up at call time, so the call goes through the tracer and
        # its span covers the solve alone, not the probe.
        result = impliedcorr.solver.solve_nicm(A, spec, config)
        fgrad_probe(impliedcorr, result.X_star, A)
        return result

    cli.solve_nicm = solve_then_probe
    with tracer:
        try:
            rc = cli.cli_dispatch(cli_args)
        except SystemExit as exc:  # argparse --help exits from inside
            rc = exc.code if isinstance(exc.code, int) else 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
