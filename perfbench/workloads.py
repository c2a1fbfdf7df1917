"""Workloads, timed cycles and the correctness gate of the benchmark.

Every workload is a closed loop with one client in one process: each
iteration, eval pass or audit starts after the previous one returns, and the
engine runs with ``eval_workers=1``. The workload seed becomes the
``EngineConfig`` seed; the program sees nothing else of the benchmark.

A run repeats its workload's cycle until ``seconds`` have passed (at least
``MIN_CYCLES`` times):

  qa_train   fresh static_qa run, pool 200, trained 12 iterations; the
             exemplar index reaches thousands of entries, so retrieval does
             most of the work (the write path of the memory module)
  qa_read    a static_qa run, pool 200, 14 iterations, trained in set-up; a
             cycle is what an operator runs on it: resume, frozen held-out
             eval with and without retrieval (each on a freshly loaded
             engine, as the CLI does), and the audit; graph and memory are
             read-only paths here. Each cycle first trains the same run
             afresh, untraced, which gives the train metrics and must
             reproduce the set-up run byte for byte.

Every run directory passes the correctness gate: a resume whose replayed
graph matches the final snapshot file, both evals (``run_eval`` checks that
the graph hash is unchanged), and ``audit_run``. On qa_train the gate's
timings give ``resume_s``, the eval rates and ``audit_s``. The sha256 of
``events.log``, ``reports.jsonl`` and the final snapshot, and both held-out
accuracies, must repeat exactly across the cycles of one seed.

Timings are means over the cycles of a run, not medians: a shared 2-vCPU
virtual machine was seen to switch between a fast and a slow state for tens
of seconds at a time, and a mean moves smoothly with the share of the run
spent in each state where a median jumps between them.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracer import Tracer, layer_metrics, write_spans

MIN_CYCLES = 4
IMPORT_SAMPLES = 5
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    iterations: int
    pool_size: int
    kind: str  # "train" or "read"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qa_train", "static_qa", 12, 200, "train",
            "fresh static_qa run: retrieval over a growing exemplar index does most of the work",
        ),
        Workload(
            "qa_read", "static_qa", 14, 200, "read",
            "trained static_qa run: resume, frozen eval with and without retrieval, audit",
        ),
    )
}

# end-to-end metrics: name -> (unit, better, bound); the bound is the share of
# the parent's median by which the metric may worsen
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "train_iter_per_s": ("1/s", "higher", 0.25),
    "iter_p50_s": ("s", "lower", 0.25),
    "iter_tail_s": ("s", "lower", 0.25),
    "resume_s": ("s", "lower", 0.25),
    "eval_q_per_s": ("1/s", "higher", 0.25),
    "eval_noret_q_per_s": ("1/s", "higher", 0.25),
    "audit_s": ("s", "lower", 0.25),
    "disk_bytes_per_iter": ("bytes", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ops_ok_frac": ("ratio", "higher", 0.01),
}

# metrics measured per cycle, whose traced-minus-untraced difference is the
# tracing overhead
PER_CYCLE = (
    "train_iter_per_s",
    "iter_p50_s",
    "iter_tail_s",
    "resume_s",
    "eval_q_per_s",
    "eval_noret_q_per_s",
    "audit_s",
)


@dataclass
class Ops:
    """Operations attempted and failed: iterations, eval passes, audit
    checks, resume checks and digest comparisons."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def crashed(self, what: str, count: int = 1) -> None:
        """Record ``count`` operations lost to an exception, with its traceback."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
        print(f"perfbench: {what} raised\n{traceback.format_exc()}", file=sys.stderr)


@dataclass
class Cycle:
    traced: bool
    setup_s: float | None = None
    train_s: float | None = None
    iterations: int = 0
    iter_times: list[float] = field(default_factory=list)
    resume_s: float | None = None
    eval_s: float | None = None
    eval_noret_s: float | None = None
    questions: int = 0
    audit_s: float | None = None
    layers: dict[str, float] = field(default_factory=dict)
    self_seconds: dict[str, float] = field(default_factory=dict)


def engine_config(ev, workload: Workload, seed: int):
    return ev.EngineConfig(
        iterations=workload.iterations,
        pool_size=workload.pool_size,
        seed=seed,
        eval_workers=1,
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_digests(run_dir: Path, iterations: int) -> dict[str, str]:
    return {
        "events.log": sha256_file(run_dir / "events.log"),
        "reports.jsonl": sha256_file(run_dir / "reports.jsonl"),
        "final_snapshot": sha256_file(run_dir / f"snap-{iterations - 1:05d}.json"),
    }


def dir_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())


def tail_percentile(sample_count: int) -> float:
    """Highest listed percentile with at least ten of ``sample_count`` above it."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * sample_count)
        if sample_count - rank >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def measure_import_s(src: Path) -> float:
    """Wall time of ``import evoloop`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import evoloop; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip())


# ----------------------------------------------------------------------
# one training run and the correctness gate


class Bench:
    """One benchmark run: a workload, a seed, a scratch root, a tracer."""

    def __init__(self, ev, workload: Workload, seed: int, scratch: Path, trace: bool):
        self.ev = ev
        self.workload = workload
        self.scratch = scratch
        self.tracer = Tracer() if trace else None
        self.ops = Ops()
        self.config = engine_config(ev, workload, seed)
        self.expected_digests: dict[str, str] | None = None
        self.expected_accuracy: tuple[float, float] | None = None
        self.disk_bytes_per_iter: float | None = None
        self.spans_path = scratch / "spans.jsonl" if trace else None
        self._runs = 0

    # -- tracing helpers ------------------------------------------------

    def _traced(self, traced: bool, request: str, fn: Callable, per_question: bool = False):
        """Call ``fn``, recording spans when ``traced``."""
        if not traced:
            return fn()
        self.tracer.begin(request, per_question=per_question)
        self.tracer.recording = True
        try:
            return fn()
        finally:
            self.tracer.recording = False

    def _start_trace(self, cycle: Cycle) -> None:
        if cycle.traced:
            self.tracer.spans = []
            self.tracer.install(self.ev)

    def _end_trace(self, cycle: Cycle, index: int, gauges: dict[str, float]) -> None:
        if not cycle.traced:
            return
        self.tracer.uninstall()
        cycle.layers, cycle.self_seconds = layer_metrics(self.tracer.spans)
        cycle.layers.update(gauges)
        write_spans(self.spans_path, self.tracer.spans, index)
        self.tracer.spans = []

    # -- pieces of a cycle ----------------------------------------------

    def new_run_dir(self) -> Path:
        self._runs += 1
        return self.scratch / f"run-{self._runs:03d}"

    def train(self, cycle: Cycle, run_dir: Path, traced: bool):
        """Fresh run: init and bootstrap (set-up), then timed training."""
        ev = self.ev
        n = self.workload.iterations
        t0 = time.perf_counter()
        store = ev.init_run(run_dir, self.config, self.workload.env)
        engine = ev.runner.bootstrap_run(store)
        cycle.setup_s = time.perf_counter() - t0

        marks: list[float] = []
        start = time.perf_counter()
        try:
            self._traced(
                traced,
                "train",
                lambda: ev.run_training(
                    store, n, engine=engine, on_iteration=lambda _r: marks.append(time.perf_counter())
                ),
            )
        except Exception:
            self.ops.crashed(f"training {run_dir.name}", n - len(marks))
        cycle.train_s = time.perf_counter() - start
        cycle.iterations = len(marks)
        self.ops.attempted += len(marks)
        cycle.iter_times = [b - a for a, b in zip([start] + marks, marks)]
        if cycle.iterations == n:
            self._check_digests(run_dir, "training")
            per_iter = dir_bytes(run_dir) / n
            if self.disk_bytes_per_iter is None:
                self.disk_bytes_per_iter = per_iter
            self.ops.check(per_iter == self.disk_bytes_per_iter, f"{run_dir.name}: run bytes differ")
        return store, engine

    def _check_digests(self, run_dir: Path, what: str) -> None:
        digests = run_digests(run_dir, self.workload.iterations)
        if self.expected_digests is None:
            self.expected_digests = digests
            return
        for name, value in digests.items():
            self.ops.check(
                value == self.expected_digests[name], f"{what} {run_dir.name}: {name} sha256 differs"
            )

    def read_ops(self, cycle: Cycle, store, traced: bool) -> dict[str, float]:
        """Resume, eval with and without retrieval, audit: timed and checked.

        Returns the index and graph sizes of the resumed engine.
        """
        ev = self.ev
        gauges: dict[str, float] = {}
        final_snapshot = store.snapshot_path(self.workload.iterations - 1)

        start = time.perf_counter()
        try:
            engine = self._traced(traced, "resume", lambda: ev.load_engine(store))
            cycle.resume_s = time.perf_counter() - start
            gauges["memory.index_entries"] = len(engine.index)
            gauges["graph.experience_nodes"] = len(engine.graph.experience)
            self.ops.check(
                hashlib.sha256(engine.graph.canonical_bytes()).hexdigest() == sha256_file(final_snapshot),
                f"{store.root.name}: resumed graph differs from the final snapshot",
            )
        except Exception:
            self.ops.crashed(f"resume {store.root.name}")

        accuracies: list[float | None] = []
        for retrieval in (True, False):
            label = "eval-ret" if retrieval else "eval-noret"
            start = time.perf_counter()
            try:
                record = self._traced(
                    traced, label, lambda: ev.run_eval(store, retrieval=retrieval), per_question=True
                )
            except Exception:
                # run_eval raises when the eval changed the graph hash
                self.ops.crashed(f"{label} {store.root.name}")
                accuracies.append(None)
                continue
            self.ops.attempted += 1
            elapsed = time.perf_counter() - start
            if retrieval:
                cycle.eval_s = elapsed
            else:
                cycle.eval_noret_s = elapsed
            cycle.questions = record["questions"]
            accuracies.append(record["accuracy"])
        pair = (accuracies[0], accuracies[1])
        if self.expected_accuracy is None:
            self.expected_accuracy = pair
        else:
            self.ops.check(pair == self.expected_accuracy, f"{store.root.name}: held-out accuracy differs")

        start = time.perf_counter()
        try:
            result = self._traced(traced, "audit", lambda: ev.audit_run(store))
            cycle.audit_s = time.perf_counter() - start
            for check in result.checks:
                self.ops.check(check.passed, f"audit {store.root.name}: {check.line()}")
        except Exception:
            self.ops.crashed(f"audit {store.root.name}")
        return gauges

    # -- cycles ----------------------------------------------------------

    def train_cycle(self, index: int, traced: bool) -> Cycle:
        """Train a fresh run (traced when asked), then gate it untraced."""
        cycle = Cycle(traced=traced)
        run_dir = self.new_run_dir()
        gauges: dict[str, float] = {}
        self._start_trace(cycle)
        try:
            store, engine = self.train(cycle, run_dir, traced)
            gauges["memory.index_entries"] = len(engine.index)
            gauges["graph.experience_nodes"] = len(engine.graph.experience)
        finally:
            self._end_trace(cycle, index, gauges)
        if cycle.iterations == self.workload.iterations:
            self.read_ops(cycle, store, traced=False)
        shutil.rmtree(run_dir)
        return cycle

    def read_cycle(self, index: int, traced: bool, store) -> Cycle:
        """Train the set-up run again, untraced; then the read ops on the
        set-up run, which must come out unchanged."""
        cycle = Cycle(traced=traced)
        run_dir = self.new_run_dir()
        self.train(cycle, run_dir, traced=False)
        shutil.rmtree(run_dir)
        gauges: dict[str, float] = {}
        self._start_trace(cycle)
        try:
            gauges = self.read_ops(cycle, store, traced)
        finally:
            self._end_trace(cycle, index, gauges)
        self._check_digests(store.root, "read")
        return cycle

    def fixture(self) -> tuple[Any, Cycle]:
        """Set-up of qa_read: train the run the read cycles work on."""
        cycle = Cycle(traced=False)
        store, _engine = self.train(cycle, self.new_run_dir(), traced=False)
        return store, cycle


# ----------------------------------------------------------------------
# summaries


def summarize(cycles: list[Cycle], tail_p: float) -> dict[str, float]:
    """Per-cycle metrics over the given cycles: rates and times are means,
    iteration percentiles come from the per-iteration wall times."""
    out: dict[str, float] = {}
    trained = [c for c in cycles if c.train_s and c.iterations]
    if trained:
        out["train_iter_per_s"] = sum(c.iterations for c in trained) / sum(c.train_s for c in trained)
        out["iter_p50_s"] = statistics.median(iteration_series(trained))
        out["iter_tail_s"] = percentile([t for c in trained for t in c.iter_times], tail_p)
    for key in ("resume_s", "audit_s"):
        values = [getattr(c, key) for c in cycles if getattr(c, key) is not None]
        if values:
            out[key] = statistics.fmean(values)
    for key, attr in (("eval_q_per_s", "eval_s"), ("eval_noret_q_per_s", "eval_noret_s")):
        timed = [c for c in cycles if getattr(c, attr)]
        if timed:
            out[key] = sum(c.questions for c in timed) / sum(getattr(c, attr) for c in timed)
    return out


def iteration_series(cycles: list[Cycle]) -> list[float]:
    """Mean wall time of each iteration index over the complete trainings."""
    n = max((c.iterations for c in cycles), default=0)
    complete = [c.iter_times for c in cycles if c.iterations == n and n]
    return [statistics.fmean(times[i] for times in complete) for i in range(n)]


def growth_ratio(series: list[float]) -> float:
    """Last-quarter median over first-quarter median of the series."""
    quarter = max(1, len(series) // 4)
    if not series:
        return 0.0
    return statistics.median(series[-quarter:]) / statistics.median(series[:quarter])


def run_workload(ev, name: str, seed: int, seconds: float, trace: bool, scratch: Path, src: Path) -> dict[str, Any]:
    """One benchmark run; returns the result line and the detail record."""
    workload = WORKLOADS[name]
    scratch.mkdir(parents=True, exist_ok=True)
    bench = Bench(ev, workload, seed, scratch, trace)
    # import samples go one per cycle, to spread them over the run
    import_samples = [measure_import_s(src)]

    store = None
    fixture: list[Cycle] = []
    if workload.kind == "read":
        store, set_up = bench.fixture()
        fixture = [set_up]

    cycles: list[Cycle] = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        if len(import_samples) < IMPORT_SAMPLES:
            import_samples.append(measure_import_s(src))
        traced = trace and len(cycles) % 2 == 1
        if workload.kind == "read":
            cycles.append(bench.read_cycle(len(cycles), traced, store))
        else:
            cycles.append(bench.train_cycle(len(cycles), traced))
    measured_s = time.perf_counter() - start
    if store is not None:
        shutil.rmtree(store.root)

    if workload.kind == "read":
        # set-up is init, bootstrap and training of the run the cycles read
        setup_samples = [c.setup_s + c.train_s for c in fixture + cycles]
    else:
        setup_samples = [c.setup_s for c in cycles]
    trainings = fixture + [c for c in cycles if not c.traced]
    tail_p = tail_percentile(workload.iterations * MIN_CYCLES)
    untraced = summarize(trainings, tail_p)
    ops = bench.ops
    e2e = {
        "setup_s": statistics.median(import_samples) + statistics.median(setup_samples),
        **untraced,
        "disk_bytes_per_iter": bench.disk_bytes_per_iter or 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": (ops.attempted - ops.failed) / ops.attempted if ops.attempted else 0.0,
    }
    for key in END_TO_END:
        e2e.setdefault(key, 0.0)

    layers: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    traced_cycles = [c for c in cycles if c.traced]
    if traced_cycles:
        for key in traced_cycles[0].layers:
            layers[key] = statistics.median(c.layers.get(key, 0.0) for c in traced_cycles)
        for key in traced_cycles[0].self_seconds:
            self_seconds[key] = statistics.median(c.self_seconds[key] for c in traced_cycles)
        with_tracing = summarize(fixture + traced_cycles, tail_p)
        for key in PER_CYCLE:
            layers[f"trace_overhead.{key}"] = with_tracing.get(key, 0.0) - untraced.get(key, 0.0)

    series = iteration_series(trainings)
    detail = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "measured_s": measured_s,
        "cycles": len(cycles),
        "cycle_times_s": [
            {
                key: getattr(c, key)
                for key in ("traced", "setup_s", "train_s", "iter_times", "resume_s", "eval_s", "eval_noret_s", "audit_s")
            }
            for c in fixture + cycles
        ],
        "traced_cycles": len(traced_cycles),
        "machine": machine_info(ev, scratch),
        "engine_config": bench.config.to_dict(),
        "env": workload.env,
        "import_s": statistics.median(import_samples),
        "tail_percentile": tail_p,
        "iteration_series_s": series,
        "iteration_growth_ratio": growth_ratio(series),
        "digests": bench.expected_digests,
        "heldout_accuracy": {
            "retrieval": bench.expected_accuracy[0] if bench.expected_accuracy else None,
            "no_retrieval": bench.expected_accuracy[1] if bench.expected_accuracy else None,
        },
        "errors": ops.errors,
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_self_s": self_seconds,
        "spans": str(bench.spans_path) if trace else None,
    }
    result = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
    }
    return {"result": result, "detail": detail}


def machine_info(ev, scratch: Path) -> dict[str, Any]:
    import numpy

    try:
        fs = subprocess.run(
            ["stat", "--file-system", "--format=%T", str(scratch)],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "run_dir_filesystem": fs,
        "evoloop": ev.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
