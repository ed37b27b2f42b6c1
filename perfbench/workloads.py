"""The benchmark's workloads: their inputs, operations and output checks.

A workload builds its inputs from the seed once, then runs whole passes
of the same operations.  An operation is one library-level repair (a
solve plus the feasibility report on its result) or one CLI command.
Each operation comes with a check that runs outside the timed region,
and with a signature, a deterministic value that every later pass must
reproduce exactly.  An operation may also have a digest, the SHA-256 of
everything it returned or wrote: a later output with the digest of an
output that passed its check is the same bytes, and is not checked again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

CHILD_TIMEOUT_S = 120.0
VAR_TOL = 1e-6  # the solver's default var_tol, used by every solve here

IMPORT_PROBE = (
    "import sys, time, json; n0 = len(sys.modules); t0 = time.perf_counter(); "
    "import impliedcorr.cli; t1 = time.perf_counter(); "
    "print(json.dumps({'import_s': t1 - t0, 'modules': len(sys.modules) - n0, "
    "'file': sys.modules['impliedcorr'].__file__}))"
)


def child_env() -> dict[str, str]:
    """Environment of every child: this process's, with the checkout's src first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_child(argv: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "impliedcorr.cli", *args]


def cold_start_times(repeats: int) -> list[float]:
    """Wall times of `impliedcorr --help`, each in a fresh process."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cp = run_child(cli_argv(["--help"]), ROOT)
        times.append(time.perf_counter() - t0)
        if cp.returncode != 0:
            raise RuntimeError(f"`impliedcorr --help` exited with code {cp.returncode}: {cp.stderr}")
    return times


def import_probe(repeats: int = 3) -> dict:
    """Fresh-process import of impliedcorr.cli: median seconds and modules added."""
    runs = []
    for _ in range(repeats):
        cp = run_child([sys.executable, "-c", IMPORT_PROBE], ROOT)
        if cp.returncode != 0:
            raise RuntimeError(f"import probe failed: {cp.stderr}")
        runs.append(json.loads(cp.stdout))
    return {
        "import_s": statistics.median(r["import_s"] for r in runs),
        "modules": runs[0]["modules"],
        "file": runs[0]["file"],
    }


@dataclass
class Outcome:
    """What the check of one operation found."""

    problems: list[str]
    signature: object = None
    objective: float | None = None
    outer_iterations: int = 0
    restorations: int = 0
    digest: str | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    probe: Callable[[object], None] | None = None  # traced runs only
    digest: Callable[[object], str] | None = None
    prepare: Callable[[], None] | None = None  # untimed, before run


@dataclass
class PassResult:
    timed_s: float = 0.0
    failed: int = 0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    objective: float = 0.0
    outer_iterations: int = 0
    restorations: int = 0
    checked_by_digest: int = 0


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_pass(ops: list[Op], tally: Tally, reference: dict, traced: bool = False, tracer=None) -> PassResult:
    """Time each operation, then check it; checks and probes are not timed.

    `reference` keeps, for each operation of the pass, the first outcome
    that passed its check.  Every later output must match its signature,
    and one with the same digest is that output again and is not
    re-checked.
    """
    res = PassResult()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            if op.prepare is not None:
                op.prepare()
        except Exception as exc:  # its input is missing: a failed operation
            tally.record(op.label, [f"preparing raised {type(exc).__name__}: {exc}"])
            res.failed += 1
            continue
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one
            tally.record(op.label, [f"raised {type(exc).__name__}: {exc}"])
            res.timed_s += time.perf_counter() - t0
            res.failed += 1
            continue
        latency = time.perf_counter() - t0
        res.timed_s += latency
        key = (i, op.label)
        first = reference.get(key)
        try:
            digest = op.digest(out) if op.digest is not None else None
            if first is not None and digest is not None and digest == first.digest:
                outcome = dataclasses.replace(first, problems=[])
                res.checked_by_digest += 1
            else:
                outcome = op.check(out)
                outcome.digest = digest
        except Exception as exc:
            outcome = Outcome([f"output check raised {type(exc).__name__}: {exc}"])
        if not outcome.problems:
            if first is None:
                reference[key] = outcome
            elif outcome.signature != first.signature:
                outcome.problems.append("output differs from the first pass")
        tally.record(op.label, outcome.problems)
        if outcome.problems:
            res.failed += 1
            continue
        if traced and op.probe is not None:
            op.probe(out)
        res.latencies.append((op.label, latency))
        if outcome.objective is not None:
            res.objective += outcome.objective
        res.outer_iterations += outcome.outer_iterations
        res.restorations += outcome.restorations
    return res


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _stable_json(text: str) -> bytes:
    """A JSON document without the solver's wall_time, which differs in every run."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text.encode()
    if isinstance(doc, dict):
        doc.pop("wall_time", None)
    return json.dumps(doc, sort_keys=True).encode()


def _sha256_parts(*parts) -> str:
    """SHA-256 of a sequence of byte strings, each prefixed by its length."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class InProcess:
    """Workloads that call the package's public API in this process."""

    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ic = None
        self.inputs = None

    def setup(self, ic, repeats: int = 3) -> float:
        """Build the inputs `repeats` times, then warm up; returns seconds."""
        self.ic = ic
        builds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.inputs = self.build()
            builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.warm_up()
        return statistics.median(builds) + time.perf_counter() - t0

    def solve_op(self, label: str, A: np.ndarray, spec, k: int) -> Op:
        ic = self.ic
        config = ic.SolverConfig(k=k, var_tol=VAR_TOL)
        con = spec.constraints[0]

        def run():
            res = ic.solve_nicm(A, spec, config)
            return res, ic.check_feasibility(res.C_star, spec, tol=config.var_tol)

        def check(out) -> Outcome:
            res, report = out
            sc = checks.check_solve(
                A, spec.sigma, con.weights, con.variance, config.var_tol,
                X=res.X_star.values, C=res.C_star.values, fn=res.fn,
                fn_trace=res.fn_trace, converged=res.converged,
            )
            return Outcome(
                sc.problems + checks.check_report(report.to_dict(), sc),
                signature=(res.fn, res.outer_iterations, res.restorations),
                objective=res.fn,
                outer_iterations=res.outer_iterations,
                restorations=res.restorations,
            )

        def probe(out) -> None:
            tracing.fgrad_probe(ic, out[0].X_star, A)

        def digest(out) -> str:
            res, report = out
            return _sha256_parts(
                np.ascontiguousarray(res.X_star.values).tobytes(),
                np.ascontiguousarray(res.C_star.values).tobytes(),
                np.ascontiguousarray(res.fn_trace, dtype=float).tobytes(),
                repr((res.fn, res.converged, res.outer_iterations, res.restorations)).encode(),
                repr(sorted(report.to_dict().items())).encode(),
            )

        return Op(label, run, check, probe, digest)

    def end_pass(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class HardRepair(InProcess):
    """Indefinite adjusted ex-post targets at n = 10, solved at k = 3.

    The corpus is the one of acceptance test 08: markets drawn with seeds
    801, 802, ... (n = 10, two true factors, zero premium), the index
    variance scaled by 0.35, blended with workaround=False, and kept when
    the blend is indefinite, until `count` are found.  The corpus does not
    change with the seed: its cost is heavy-tailed (one instance takes
    about half a pass), so drawing new markets per seed would move the
    pass time several-fold.  The seed relabels the assets of every
    instance and shuffles the solve order instead; seed 0 keeps the test's
    labels and order.
    """

    name = "hard-repair"
    n, k = 10, 3

    def __init__(self, seed: int, count: int = 20) -> None:
        super().__init__(seed)
        self.count = count

    def build(self) -> list:
        ic = self.ic
        corpus = []
        s = 0
        while len(corpus) < self.count:
            s += 1
            snap, C_true = ic.generate_synthetic_market(self.n, 2, 0.0, seed=800 + s)
            con = snap.spec.constraints[0]
            spec = ic.MarketSpec(
                snap.spec.sigma, (ic.IndexConstraint(con.name, con.weights, 0.35 * con.variance),)
            )
            A = ic.adjusted_ex_post(C_true.values, spec, workaround=False).C_Q.values
            if np.linalg.eigvalsh(A)[0] >= -checks.PSD_TOL:
                continue
            corpus.append((800 + s, A, spec))
        if self.seed == 0:
            return corpus
        rng = np.random.default_rng(self.seed)
        relabelled = []
        for i in rng.permutation(len(corpus)):
            market, A, spec = corpus[i]
            p = rng.permutation(self.n)
            con = spec.constraints[0]
            spec_p = ic.MarketSpec(spec.sigma[p], (ic.IndexConstraint(con.name, con.weights[p], con.variance),))
            relabelled.append((market, A[np.ix_(p, p)], spec_p))
        return relabelled

    def warm_up(self) -> None:
        # The same instance whatever the seed, so that set-up does not vary.
        _, A, spec = min(self.inputs, key=lambda item: item[0])
        self.ic.solve_nicm(A, spec, self.ic.SolverConfig(k=1))

    def pass_ops(self, traced: bool = False) -> list[Op]:
        return [self.solve_op(f"market {m}", A, spec, self.k) for m, A, spec in self.inputs]


class Sp500Panel(InProcess):
    """A fixed panel of months at n = 500; two estimated targets a month, k in {1, 3, 5}.

    Month m draws its market from SeedSequence(0, spawn_key=(m,)) with 520
    return periods.  The trailing 260-period window gives the historical
    target (sample correlation, singular PSD since the window is shorter
    than n) and the mean-reverting one (indefinite blend toward the
    full-sample correlation, reversion speeds from
    SeedSequence(0, spawn_key=(m, 1))).  As in hard-repair, the panel does
    not change with the seed, because solve costs are heavy-tailed (7 to
    200 outer iterations) and independent panels would move the pass time
    and the objective far more than any bound; the seed relabels the 500
    assets of the whole panel and shuffles the solve order.  Seed 0 keeps
    the drawn labels and order.
    """

    name = "sp500-panel"
    k_true, crp = 6, 0.1

    def __init__(
        self, seed: int, n: int = 500, months: int = 8, periods: int = 520,
        window: int = 260, ks: tuple[int, ...] = (1, 3, 5),
    ) -> None:
        super().__init__(seed)
        self.n, self.months, self.periods, self.window, self.ks = n, months, periods, window, ks

    def build(self) -> list:
        ic = self.ic
        rng = np.random.default_rng(self.seed)
        p = rng.permutation(self.n) if self.seed else np.arange(self.n)
        solves = []
        for m in range(self.months):
            snap, _ = ic.generate_synthetic_market(
                self.n, self.k_true, self.crp,
                np.random.SeedSequence(0, spawn_key=(m,)), periods=self.periods,
            )
            R = snap.asset_returns
            hist = ic.estimate_target_matrix(R, "historical", window=self.window).values
            mr = ic.estimate_target_matrix(
                R, "mean_reverting", window=self.window,
                seed=np.random.SeedSequence(0, spawn_key=(m, 1)),
            ).values
            con = snap.spec.constraints[0]
            spec = ic.MarketSpec(snap.spec.sigma[p], (ic.IndexConstraint(con.name, con.weights[p], con.variance),))
            for name, A in (("hist", hist), ("mr", mr)):
                A = A[np.ix_(p, p)]
                solves += [(f"month {m} {name} k={k}", A, spec, k) for k in self.ks]
        if self.seed:
            solves = [solves[i] for i in rng.permutation(len(solves))]
        return solves

    def warm_up(self) -> None:
        # The same solve whatever the seed, so that set-up does not vary.
        _, A, spec, _ = next(item for item in self.inputs if item[0] == f"month 0 hist k={self.ks[0]}")
        self.ic.solve_nicm(A, spec, self.ic.SolverConfig(k=self.ks[0]))

    def pass_ops(self, traced: bool = False) -> list[Op]:
        return [self.solve_op(label, A, spec, k) for label, A, spec, k in self.inputs]


class RepairMix(InProcess):
    """The solves of hard-repair and sp500-panel, in one pass.

    A pass runs the 20 restoration-bound n = 10 solves of hard-repair, then
    the 48 kernel-bound n = 500 solves of sp500-panel, each part built from
    the same seed as its own workload builds it.  One workload holds both,
    so that each run can be long enough on a host whose speed drifts;
    restoration work and kernel work both show in its end-to-end metrics,
    and the traced run tells them apart.
    """

    name = "repair-mix"

    def __init__(self, seed: int, hard: dict | None = None, panel: dict | None = None) -> None:
        super().__init__(seed)
        self.parts = (HardRepair(seed, **(hard or {})), Sp500Panel(seed, **(panel or {})))

    def build(self) -> list:
        for part in self.parts:
            part.ic = self.ic
        return [part.build() for part in self.parts]

    def warm_up(self) -> None:
        for part, inputs in zip(self.parts, self.inputs):
            part.inputs = inputs
            part.warm_up()

    def pass_ops(self, traced: bool = False) -> list[Op]:
        return [op for part in self.parts for op in part.pass_ops(traced)]


class CliChain:
    """synth -> adjust -> repair -> check -> --help, each a fresh process.

    synth draws the n = 500 market of synth seed 0 with 520 return periods
    and a negative premium, so that adjust --no-workaround returns an
    indefinite blend; repair solves it at k = 3 and check reports on the
    repaired matrix.  The market is fixed because markets differ widely:
    over ten synth seeds the repair objective was 2.5 and 3.7 times the
    median on two of them (premium -0.1), which no bound survives.  The
    seed draws the premium uniformly from crp_range instead; across that
    range the objective moves by about 0.1 %.
    """

    name = "cli-chain"
    in_process = False
    k_true = 6
    market_seed = 0

    def __init__(
        self, seed: int, n: int = 500, periods: int = 520, k: int = 3,
        crp_range: tuple[float, float] = (-0.12, -0.08),
    ) -> None:
        self.seed, self.n, self.periods, self.k = seed, n, periods, k
        lo, hi = crp_range
        self.crp = lo + (hi - lo) * float(np.random.default_rng(seed).uniform())
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
        self.child_traces: list[dict] = []
        self._pass_dir: Path | None = None
        # What the checks of one command pass on to those of the next.  A
        # command whose output is checked by digest is the same bytes as
        # the first checked one, so what that check found still holds.
        self._state: dict = {}

    def setup(self, repeats: int = 3) -> float:
        """Warm the interpreter, library and .pyc caches; returns the median seconds."""
        return statistics.median(cold_start_times(repeats))

    def _argv(self, args: list[str], traced: bool, spans: Path) -> list[str]:
        if traced:
            return [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans), "--", *args]
        return cli_argv(args)

    def pass_ops(self, traced: bool = False) -> list[Op]:
        d = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work_root))
        self._pass_dir = d
        market, adjusted, repaired = d / "market", d / "adjusted", d / "repaired"
        spec_path = d / "spec.json"
        n, T = self.n, self.periods
        state = self._state

        def command(name: str, args: list[str]) -> Callable[[], subprocess.CompletedProcess]:
            return lambda: run_child(self._argv(args, traced, d / f"{name}.spans.json"), d)

        def digest(out_dir: Path | None) -> Callable[[subprocess.CompletedProcess], str]:
            # The children get paths relative to the pass directory, so
            # their standard output is the same in every pass.
            def of(cp) -> str:
                files = sorted(out_dir.iterdir()) if out_dir is not None and out_dir.is_dir() else []
                parts = [str(cp.returncode).encode(), _stable_json(cp.stdout)]
                for f in files:
                    data = _stable_json(f.read_text()) if f.suffix == ".json" else f.read_bytes()
                    parts += [f.name.encode(), data]
                return _sha256_parts(*parts)
            return of

        def write_spec() -> None:
            # repair takes the spec as its own file; the snapshot has it inline.
            with open(market / "snapshot.json", "r", encoding="utf-8") as fh:
                spec = json.load(fh)["spec"]
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)

        def probe(name: str) -> Callable[[object], None]:
            def read(_out) -> None:
                with open(d / f"{name}.spans.json", "r", encoding="utf-8") as fh:
                    self.child_traces.append(json.load(fh))
            return read

        def check_synth(cp) -> Outcome:
            p = checks.check_exit(cp.returncode, "synth")
            if p:
                return Outcome(p)
            with open(market / "snapshot.json", "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            shapes = {
                "target": (n, n), "truth": (n, n),
                "asset_returns": (T, n), "factor_returns": (T, self.k_true),
            }
            for key, shape in shapes.items():
                got = np.loadtxt(market / doc[key], delimiter=",", ndmin=2).shape
                if got != shape:
                    p.append(f"{key} has shape {got}, expected {shape}")
            got = np.loadtxt(market / doc["loadings"], delimiter=",", skiprows=1, ndmin=2).shape
            if got != (n, self.k_true):
                p.append(f"loadings have shape {got}, expected {(n, self.k_true)}")
            spec = doc["spec"]
            con = spec["constraints"][0]
            if len(spec["sigma"]) != n or len(con["weights"]) != n:
                p.append("spec does not have n assets")
            elif abs(sum(con["weights"]) - 1.0) > 1e-12:
                p.append(f"index weights sum to {sum(con['weights'])!r}")
            state["sigma"], state["weights"], state["variance"] = spec["sigma"], con["weights"], con["variance"]
            files = sorted(market.iterdir())
            return Outcome(p, signature=_sha256(*files))

        def check_adjust(cp) -> Outcome:
            p = checks.check_exit(cp.returncode, "adjust")
            if p:
                return Outcome(p)
            info = json.loads(cp.stdout)
            C = np.loadtxt(adjusted / "adjusted_C.csv", delimiter=",", ndmin=2)
            if C.shape != (n, n):
                return Outcome([f"adjusted matrix has shape {C.shape}"])
            resid = checks.variance_residual(C, state["sigma"], state["weights"], state["variance"])
            if not abs(resid) <= VAR_TOL:
                p.append(f"adjusted matrix misses the index variance by {resid:.3g}")
            lam = float(np.linalg.eigvalsh(C)[0])
            if not lam < -checks.PSD_TOL:
                p.append(f"adjusted matrix is not indefinite (smallest eigenvalue {lam:.3g})")
            if not abs(float(info["min_eigenvalue"]) - lam) <= checks.EIG_RTOL * max(1.0, abs(lam)):
                p.append(f"adjust reports smallest eigenvalue {info['min_eigenvalue']!r}, ours is {lam!r}")
            state["A"] = C
            return Outcome(p, signature=_sha256(adjusted / "adjusted_C.csv"))

        def check_repair(cp) -> Outcome:
            p = checks.check_exit(cp.returncode, "repair")
            if p:
                return Outcome(p)
            info = json.loads(cp.stdout)
            with open(repaired / "repair_result.json", "r", encoding="utf-8") as fh:
                result = json.load(fh)
            sc = checks.check_solve(
                state["A"], state["sigma"], state["weights"], state["variance"], VAR_TOL,
                X=np.loadtxt(repaired / "repair_X.csv", delimiter=",", skiprows=1, ndmin=2),
                C=np.loadtxt(repaired / "repair_C.csv", delimiter=",", ndmin=2),
                fn=result["fn"], fn_trace=result["fn_trace"], converged=result["converged"],
            )
            state["repair"] = sc
            return Outcome(
                sc.problems + checks.check_report(info["feasibility"], sc),
                signature=(result["fn"], result["outer_iterations"], result["restorations"]),
                objective=result["fn"],
                outer_iterations=result["outer_iterations"],
                restorations=result["restorations"],
            )

        def check_check(cp) -> Outcome:
            p = checks.check_exit(cp.returncode, "check")
            if p:
                return Outcome(p)
            report = json.loads(cp.stdout)
            return Outcome(checks.check_report(report, state["repair"]), signature=report["min_eigenvalue"])

        def check_help(cp) -> Outcome:
            p = checks.check_exit(cp.returncode, "--help")
            if not cp.stdout.startswith("usage:"):
                p.append("--help printed no usage")
            return Outcome(p, signature=hashlib.sha256(cp.stdout.encode()).hexdigest())

        snapshot = "market/snapshot.json"
        steps = [
            ("synth", ["synth", "-n", str(n), "--k-true", str(self.k_true), "--crp", repr(self.crp),
                       "--periods", str(T), "--seed", str(self.market_seed), "--out-dir", "market"],
             check_synth, market, None),
            ("adjust", ["adjust", "--snapshot", snapshot, "--no-workaround", "--out-dir", "adjusted"],
             check_adjust, adjusted, None),
            ("repair", ["repair", "--target", "adjusted/adjusted_C.csv", "--spec", "spec.json",
                        "-k", str(self.k), "--out-dir", "repaired"], check_repair, repaired, write_spec),
            ("check", ["check", "--snapshot", snapshot, "--matrix", "repaired/repair_C.csv"], check_check, None, None),
            ("help", ["--help"], check_help, None, None),
        ]
        return [
            Op(name, command(name, args), chk, probe(name), digest(out_dir), prepare)
            for name, args, chk, out_dir, prepare in steps
        ]

    def end_pass(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
            self._pass_dir = None

    def peak_rss_mb(self) -> float:
        """Largest resident set of any command run so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RepairMix, CliChain, HardRepair, Sp500Panel)}
