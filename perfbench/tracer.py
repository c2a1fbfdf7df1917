"""Span tracer that wraps evoloop's public entry points from outside the package.

Each wrapped call records a span: its layer, start and end, the span that
caused it, the request it belongs to (train iteration, eval question, resume
or audit), a size (events replayed, bytes serialised or written, bundle
entries returned) and whether it raised. Spans stay in memory;
``layer_metrics`` derives per-layer self time, call counts and ratios from
them once a cycle ends.

A name is patched in every evoloop module that holds it, not only where it
is defined: ``engine`` imports ``format_bundle``, ``harvest_success``,
``harvest_failure`` and ``latest_action_recipe`` by name and ``runner``
imports ``rebuild_index`` by name, so patching ``evoloop.memory`` alone would
record zero calls for them, which would read as a speed-up.

The program is single-threaded under the benchmark (``eval_workers=1``), so
one span stack is enough.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    layer: str
    start: int
    end: int
    parent: int
    request: str
    size: int = 0
    distinct: int = 0
    key: str | None = None
    failed: bool = False


def _bundle_size(args, kwargs, result) -> tuple[int, int, None]:
    entries = list(result.success) + list(result.failure)
    distinct = len({e.payload.get("question") for e in entries})
    return len(entries), distinct, None


def _bytes_result(args, kwargs, result) -> tuple[int, int, None]:
    return len(result), 0, None


def _snapshot_size(args, kwargs, result) -> tuple[int, int, None]:
    state_bytes = args[2] if len(args) > 2 else kwargs["state_bytes"]
    return len(state_bytes), 0, None


def _embed_key(args, kwargs, result) -> tuple[int, int, str]:
    return 0, 0, args[1] if len(args) > 1 else kwargs["text"]


def _file_size(name: str) -> Callable[[tuple, dict], int]:
    def size(args, kwargs) -> int:
        path = Path(args[0].root) / name
        return path.stat().st_size if path.is_file() else 0

    return size


class _CountingIterable:
    """Passes records through to replay and counts them."""

    def __init__(self, records):
        self._records = records
        self.count = 0

    def __iter__(self):
        for record in self._records:
            self.count += 1
            yield record


def _probes(ev) -> list[dict[str, Any]]:
    """What to wrap: owner, attribute, layer and how to size the call."""
    memory, graph, runstore = ev.memory, ev.graph, ev.runstore
    backends, engine = ev.backends, ev.engine
    return [
        dict(owner=memory.MemoryIndex, name="retrieve_bundle", layer="memory.retrieve", after=_bundle_size),
        dict(owner=memory, name="latest_action_recipe", layer="memory.recipe_lookup"),
        dict(owner=memory, name="harvest_success", layer="memory.harvest"),
        dict(owner=memory, name="harvest_failure", layer="memory.harvest"),
        dict(owner=memory, name="format_bundle", layer="memory.format"),
        dict(owner=memory, name="rebuild_index", layer="memory.rebuild_index"),
        dict(owner=graph.KnowledgeGraph, name="canonical_bytes", layer="graph.state", after=_bytes_result),
        # the audit compares replayed state_dicts; canonical_bytes nests one
        dict(owner=graph.KnowledgeGraph, name="state_dict", layer="graph.state"),
        dict(owner=graph.KnowledgeGraph, name="replay", layer="graph.replay", counts_records=True),
        dict(owner=runstore.RunStore, name="flush_events", layer="runstore.flush", grows=_file_size(runstore.EVENTS_NAME)),
        dict(owner=runstore.RunStore, name="append_report", layer="runstore.report", grows=_file_size(runstore.REPORTS_NAME)),
        dict(owner=runstore.RunStore, name="write_snapshot", layer="runstore.snapshot_write", after=_snapshot_size),
        dict(owner=runstore.RunStore, name="read_events", layer="runstore.read"),
        dict(owner=runstore.RunStore, name="read_reports", layer="runstore.read"),
        dict(owner=runstore.RunStore, name="read_snapshot", layer="runstore.read"),
        dict(owner=backends.SimulatedExecutionBackend, name="complete", layer="backends.execution", answers=True),
        dict(owner=backends.SimulatedExecutionBackend, name="act", layer="backends.execution", answers=True),
        dict(owner=backends.SimulatedJudgeBackend, name="complete", layer="backends.judge"),
        dict(owner=backends.SimulatedGuidanceBackend, name="complete", layer="backends.guidance"),
        dict(owner=backends.HashEmbedder, name="embed", layer="backends.embed", after=_embed_key),
        dict(owner=ev.audit, name="audit_run", layer="audit.run"),
        dict(owner=engine.Engine, name="run_iteration", layer="engine.iteration", sets_iteration=True),
        dict(owner=ev.bandits, name="select_arm", layer="bandits.select"),
        dict(owner=ev.bandits, name="exploit_arm", layer="bandits.select"),
        dict(owner=ev.curriculum, name="round_robin_select", layer="curriculum.select"),
        dict(owner=ev.curriculum, name="learnable_frontier", layer="curriculum.select"),
    ]


class Tracer:
    """Records spans around evoloop calls while ``recording`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[int] = []
        self._request = ""
        self._question: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # requests

    def begin(self, request: str, per_question: bool = False) -> None:
        """Start a request; with ``per_question`` each learner call ends one."""
        self._request = request
        self._question = 0 if per_question else None

    def _request_id(self) -> str:
        if self._question is None:
            return self._request
        return f"{self._request}/q{self._question}"

    # ------------------------------------------------------------------
    # spans

    def _open(self, layer: str) -> Span:
        span = Span(
            layer=layer,
            start=time.perf_counter_ns(),
            end=0,
            parent=self._stack[-1] if self._stack else -1,
            request=self._request_id(),
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span stack out of order closing {span.layer}")

    def _wrap(self, fn: Callable, probe: dict[str, Any]) -> Callable:
        tracer = self
        layer = probe["layer"]
        after = probe.get("after")
        grows = probe.get("grows")

        if inspect.isgeneratorfunction(fn):
            # every evoloop caller drains read_events in one go (list() or a
            # first-record check), so the span covers exactly that reading
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.recording:
                    yield from fn(*args, **kwargs)
                    return
                span = tracer._open(layer)
                try:
                    yield from fn(*args, **kwargs)
                except Exception:
                    span.failed = True
                    raise
                finally:
                    tracer._close(span)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if probe.get("sets_iteration"):
                tracer.begin(f"iter-{args[1] if len(args) > 1 else kwargs['k']}")
            counter = None
            if probe.get("counts_records"):
                if len(args) > 1:
                    counter = _CountingIterable(args[1])
                    args = (args[0], counter, *args[2:])
                else:
                    counter = _CountingIterable(kwargs["records"])
                    kwargs = {**kwargs, "records": counter}
            size_before = grows(args, kwargs) if grows else 0
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                tracer._close(span)
            if after is not None:
                span.size, span.distinct, span.key = after(args, kwargs, result)
            elif grows is not None:
                span.size = grows(args, kwargs) - size_before
            elif counter is not None:
                span.size = counter.count
            if probe.get("answers") and tracer._question is not None:
                tracer._question += 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self, ev) -> None:
        """Wrap every probe, wherever an evoloop module holds the name."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items() if name == "evoloop" or name.startswith("evoloop.")]
        for probe in _probes(ev):
            owner, name = probe["owner"], probe["name"]
            if inspect.isclass(owner):
                static = inspect.getattr_static(owner, name)
                if isinstance(static, classmethod):
                    replacement = classmethod(self._wrap(static.__func__, probe))
                else:
                    replacement = self._wrap(static, probe)
                self._patch(owner, name, replacement)
                continue
            original = getattr(owner, name)
            wrapped = self._wrap(original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# derived per-layer metrics

LAYERS = (
    "memory.retrieve",
    "memory.recipe_lookup",
    "memory.harvest",
    "memory.format",
    "memory.rebuild_index",
    "graph.state",
    "graph.replay",
    "runstore.flush",
    "runstore.report",
    "runstore.snapshot_write",
    "runstore.read",
    "backends.execution",
    "backends.judge",
    "backends.guidance",
    "backends.embed",
    "audit.run",
    "engine.iteration",
    "bandits.select",
    "curriculum.select",
)

MODULES = ("memory", "graph", "runstore", "backends", "audit", "engine", "bandits", "curriculum")


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures for one traced cycle, and self time per layer.

    ``<layer>_s`` is self time: the span's duration minus the part its child
    spans cover, so the self times of all layers add up to the traced time.
    Two layers report inclusive time instead, because what they contain is
    the point: ``engine.iteration_s`` (``run_iteration`` with its children;
    its self time is ``engine.self_s``) and ``audit.run_s``. A call nested in
    a call of the same layer (``canonical_bytes`` calling ``state_dict``)
    counts once.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    total_ns = dict.fromkeys(LAYERS, 0)
    size = dict.fromkeys(LAYERS, 0)
    distinct = dict.fromkeys(LAYERS, 0)
    failed = dict.fromkeys(MODULES, 0)
    embed_keys: set[str] = set()
    audit_replay_events = 0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_ns[span.layer] += duration - child_ns[i]
        if span.parent < 0 or spans[span.parent].layer != span.layer:
            calls[span.layer] += 1
            total_ns[span.layer] += duration
        size[span.layer] += span.size
        distinct[span.layer] += span.distinct
        failed[span.layer.split(".", 1)[0]] += span.failed
        if span.key is not None:
            embed_keys.add(span.key)
        if span.layer == "graph.replay" and _has_ancestor(spans, i, "audit.run"):
            audit_replay_events += span.size
    self_seconds = {layer: self_ns[layer] / 1e9 for layer in LAYERS}
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_calls"] = calls[layer]
        out[f"{layer}_s"] = self_seconds[layer]
    out["engine.self_s"] = self_seconds["engine.iteration"]
    out["engine.iteration_s"] = total_ns["engine.iteration"] / 1e9
    out["audit.run_s"] = total_ns["audit.run"] / 1e9
    out["audit.replay_events"] = audit_replay_events
    out["graph.state_bytes"] = size["graph.state"]
    out["graph.replay_events"] = size["graph.replay"]
    out["runstore.events_bytes"] = size["runstore.flush"]
    out["runstore.report_bytes"] = size["runstore.report"]
    out["runstore.snapshot_bytes"] = size["runstore.snapshot_write"]
    entries = size["memory.retrieve"]
    out["memory.bundle_distinct_ratio"] = distinct["memory.retrieve"] / entries if entries else 0.0
    embeds = calls["backends.embed"]
    out["backends.embed_distinct_ratio"] = len(embed_keys) / embeds if embeds else 0.0
    for module in MODULES:
        out[f"{module}.failed"] = failed[module]
    return out, self_seconds


def _has_ancestor(spans: list[Span], index: int, layer: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def write_spans(path: Path, spans: list[Span], cycle: int) -> None:
    """Append one cycle's spans as JSON lines, times in ns from its first span."""
    origin = spans[0].start if spans else 0
    with open(path, "a", encoding="utf-8") as out:
        for span in spans:
            record = {
                "cycle": cycle,
                "layer": span.layer,
                "start_ns": span.start - origin,
                "end_ns": span.end - origin,
                "parent": span.parent,
                "request": span.request,
                "size": span.size,
                "failed": span.failed,
            }
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
