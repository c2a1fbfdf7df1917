"""Post-hoc consistency audit over a finished (or interrupted) run.

Seven checks, each independent and reported separately:

  protected_conservation   no principle, failure memory, or success memory
                           is ever deleted or pruned, and their committed
                           counts never decrease
  selection_gap            every observed task type is re-selected within
                           the worst-case waiting bound, re-evaluated each
                           iteration with the running failure maximum;
                           rolled-back iterations do not advance the clock
                           because their selections were undone with the
                           rest of the mutable state
  mastery_ratchet          committed per-skill mastery trajectories obey
                           the rise/decay law and the decayed-peak bound
  tier_separation          guidance-roster agents make zero inference
                           calls; only rostered agents appear at all
  log_replay               the event log replays cleanly and every stored
                           boundary snapshot matches the replayed state as
                           the log moves past its iteration
  bandit_consistency       replayed bandit slots equal an independent
                           recount of draw and update events
  eval_boundary            each eval record's graph_hash_before and
                           graph_hash_after are the sha256 of the replayed
                           state after the committed_iterations it names
                           (the bootstrap state at 0)

The three log checks share one streamed pass over events.log: each record
is decoded once and handed to replay, and once replay has applied it, to
the protected_conservation and bandit_consistency steps, so one decoded
record is held at a time. If replay stops at a record, that record and the
rest of the log still reach the protected step. Each stored boundary
snapshot is read and compared once, as raw bytes against the replayed
graph's canonical encoding. A boundary file that differs in any byte
(including one that is not JSON at all) fails only log_replay; a log that
does not replay fails both replay checks. A line of events.log or
reports.jsonl that does not decode is the single log_replay failure; an
eval record that does not decode fails tier_separation.

The eval records are read before the log, so the pass knows which
boundaries they name. It hashes the encoding the boundary compare already
built there, and encodes the replayed graph again only at a named boundary
with no file to compare. The final hash log_replay prints is that of the
encoding made at the end of the log, so a clean run's graph is encoded once
per boundary file. eval_boundary is judged, as the last check, on a
log that replays and eval records that decode; otherwise log_replay or
tier_separation fails already, and the check is left out. It does not
re-run an eval, so a record's accuracy and calls are not checked.

The audit reads the run directory only; it never mutates it.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .backends import EXECUTION_AGENTS, GUIDANCE_AGENTS
from .curriculum import (
    RatchetParams,
    SelectorParams,
    check_ratchet_trace,
    coverage_gap_bound,
)
from .engine import EngineConfig, call_audit
from .errors import IntegrityError
from .graph import PROTECTED_OUTCOMES, KnowledgeGraph
from .runner import load_run_config
from .runstore import RunStore

RATCHET_TOLERANCE = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        label = "PASS" if self.passed else "FAIL"
        return f"[{label}] {self.name}: {self.detail}"


@dataclass
class AuditResult:
    checks: list[CheckResult] = field(default_factory=list)
    call_summary: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def audit_run(store: RunStore) -> AuditResult:
    store.require()
    config, _meta = load_run_config(store)
    result = AuditResult()
    try:
        evals: list[tuple[str, dict[str, Any]]] | IntegrityError = store.read_evals()
    except IntegrityError as exc:
        evals = exc

    try:
        reports = store.read_reports()
        boundaries = {} if isinstance(evals, IntegrityError) else _eval_boundaries(evals, reports)
        protected, replay_check, bandit_check, replayed = _check_event_log(
            store, reports, config, boundaries
        )
    except IntegrityError as exc:
        # a line of events.log or reports.jsonl that does not decode
        result.checks.append(CheckResult("log_replay", False, str(exc)))
        return result

    result.checks.append(protected)
    result.checks.append(_check_selection_gap(reports, config))
    result.checks.append(_check_mastery_ratchet(reports, config))
    tier_check, summary = _check_tier_separation(evals, reports)
    result.checks.append(tier_check)
    result.call_summary = summary
    result.checks.append(replay_check)
    result.checks.append(bandit_check)
    if not isinstance(evals, IntegrityError) and replayed:
        result.checks.append(_check_eval_boundary(evals, reports, boundaries))
    return result


def _check_event_log(
    store: RunStore, reports, config: EngineConfig, boundaries: dict[int, str | None]
) -> tuple[CheckResult, CheckResult, CheckResult, bool]:
    """protected_conservation, log_replay and bandit_consistency in one pass,
    and whether the log replayed. ``boundaries`` gets the sha256 of the
    replayed state at each of its iterations.

    A line of events.log that does not decode raises its ``IntegrityError``.
    """
    protected = _ProtectedConservation()
    bandits = _BanditRecount()
    records = _EventStream(store, [protected.step, bandits.step])
    replay_check, replayed = _check_log_replay(store, records, reports, config, boundaries)
    if isinstance(replayed, IntegrityError):
        if replayed is records.decode_error:
            raise replayed
        # the record replay refused and the rest of the log still reach the
        # protected step; the bandit recount is moot
        records.steps = [protected.step]
        for _ in records:
            pass
    return (
        protected.result(reports, records.count),
        replay_check,
        bandits.result(replayed),
        not isinstance(replayed, IntegrityError),
    )


class _EventStream:
    """events.log read once, one decoded record at a time.

    Iterating yields each record to replay; when the next record is asked
    for, replay has applied this one, and it goes to each of ``steps``.
    ``count`` counts the records read, ``decode_error`` keeps the error of
    a line that does not decode.
    """

    def __init__(self, store: RunStore, steps):
        self.steps = steps
        self.count = 0
        self.decode_error: IntegrityError | None = None
        self._records = self._read(store)

    def __iter__(self):
        return self._records

    def _read(self, store: RunStore):
        try:
            for event in store.read_events():
                self.count += 1
                yield event
                for step in self.steps:
                    step(event)
        except IntegrityError as exc:
            self.decode_error = exc
            raise


# ----------------------------------------------------------------------
# individual checks

class _ProtectedConservation:
    """protected_conservation: fed the log one event at a time."""

    def __init__(self):
        self.outcome_by_id: dict[int, str] = {}
        self.violation: str | None = None

    def step(self, event) -> None:
        if self.violation is not None:
            return
        try:
            op, payload = event["op"], event["payload"]
            if op == "append_experience":
                self.outcome_by_id[payload["id"]] = payload["outcome"]
            elif op == "prune":
                for nid in payload.get("removed_ids", []):
                    outcome = self.outcome_by_id.get(nid)
                    if outcome in PROTECTED_OUTCOMES:
                        self.violation = (
                            f"protected node {nid} ({outcome}) pruned at seq {event['seq']}"
                        )
                        return
        except (KeyError, TypeError, AttributeError):
            # only a record replay refused gets here, and log_replay fails on it
            return

    def result(self, reports, n_events: int) -> CheckResult:
        if self.violation is not None:
            return CheckResult("protected_conservation", False, self.violation)
        previous: dict[str, int] = {}
        for report in reports:
            counts = report["protected_counts_post"]
            for outcome in PROTECTED_OUTCOMES:
                now, before = counts.get(outcome, 0), previous.get(outcome, 0)
                if now < before:
                    return CheckResult(
                        "protected_conservation",
                        False,
                        f"{outcome} count dropped {before} -> {now} at iteration "
                        f"{report['iteration']}",
                    )
            previous = counts
        n_protected = sum(1 for o in self.outcome_by_id.values() if o in PROTECTED_OUTCOMES)
        return CheckResult(
            "protected_conservation",
            True,
            f"{n_protected} protected nodes, none deleted across {n_events} events",
        )


def _check_selection_gap(reports, config: EngineConfig) -> CheckResult:
    params = SelectorParams(
        recency_weight=config.recency_weight, max_targets=config.max_evolve_targets
    )
    last_selected: dict[int, int] = {}
    first_seen: dict[int, int] = {}
    running_n_max = 0
    worst = 0
    clock = 0
    for report in reports:
        if report["rollback"] != "none":
            # selections and failure counts from this iteration were undone
            continue
        stats = report["task_stats_pre"]
        running_n_max = max([running_n_max] + [s["n_fail"] for s in stats])
        n_types = len(stats)
        bound = coverage_gap_bound(n_types, running_n_max, params)
        for s in stats:
            tid = s["task_type_id"]
            first_seen.setdefault(tid, clock)
            anchor = last_selected.get(tid, first_seen[tid] - 1)
            gap = clock - anchor
            worst = max(worst, gap)
            if gap > bound:
                return CheckResult(
                    "selection_gap",
                    False,
                    f"task type {tid} waited {gap} > bound {bound} at iteration "
                    f"{report['iteration']}",
                )
        for tid in report["selected_task_types"]:
            last_selected[tid] = clock
        clock += 1
    return CheckResult(
        "selection_gap",
        True,
        f"max observed wait {worst} within running bound over {clock} "
        f"committed iterations",
    )


def _check_mastery_ratchet(reports, config: EngineConfig) -> CheckResult:
    params = RatchetParams(
        rise_rate=config.mastery_rise_rate, decay_rate=config.mastery_decay_rate
    )
    traces: dict[str, list[float]] = {}
    for report in reports:
        for sid, mastery in report["masteries_post"].items():
            traces.setdefault(sid, []).append(mastery)
    for sid, trace in sorted(traces.items()):
        violation = check_ratchet_trace(trace, params, tol=RATCHET_TOLERANCE)
        if violation is not None:
            index, reason = violation
            return CheckResult(
                "mastery_ratchet",
                False,
                f"skill {sid} step {index}: {reason}",
            )
    return CheckResult(
        "mastery_ratchet",
        True,
        f"{len(traces)} skill trajectories obey the rise/decay law",
    )


def _check_tier_separation(evals, reports) -> tuple[CheckResult, dict]:
    if isinstance(evals, IntegrityError):
        return CheckResult("tier_separation", False, str(evals)), {}
    summary = call_audit(reports, [record for _name, record in evals])
    known = GUIDANCE_AGENTS | EXECUTION_AGENTS
    for report in reports:
        unknown = set(report.get("agent_calls", {})) - known
        if unknown:
            return (
                CheckResult(
                    "tier_separation",
                    False,
                    f"unrostered agents {sorted(unknown)} at iteration {report['iteration']}",
                ),
                summary,
            )
    if summary["infer_guidance_calls"] > 0:
        return (
            CheckResult(
                "tier_separation",
                False,
                f"{summary['infer_guidance_calls']} guidance calls during inference",
            ),
            summary,
        )
    detail = (
        f"guidance calls: train {summary['train_guidance_calls']}/"
        f"{summary['train_total_calls']} "
        f"({summary['train_guidance_fraction']:.2%}), inference 0"
    )
    return CheckResult("tier_separation", True, detail), summary


def _check_log_replay(
    store: RunStore,
    records: _EventStream,
    reports,
    config: EngineConfig,
    boundaries: dict[int, str | None],
) -> tuple[CheckResult, KnowledgeGraph | IntegrityError]:
    """Replay the log once, comparing each boundary as the log moves past it.

    Returns the check and the replayed graph, or the error that stopped the
    replay, for the bandit recount. The graph is encoded at most once each
    time the log moves on: for the boundaries it passes there, and each
    iteration in ``boundaries`` gets the sha256 of that encoding. The final
    hash reuses the encoding made at the end of the log; only a log that
    passes no boundary there (one with an uncommitted tail) is encoded again.
    """
    files = {it for it in store.snapshot_iterations() if it < len(reports)}
    pending = deque(sorted(files | boundaries.keys()))
    checked = 0
    diverged: int | None = None
    final: bytes | None = None

    def compare(graph: KnowledgeGraph, next_iter: int | None) -> None:
        nonlocal checked, diverged, final
        state = None
        while pending and (next_iter is None or pending[0] < next_iter):
            iteration = pending.popleft()
            compared = diverged is None and iteration in files
            if state is None and (compared or iteration in boundaries):
                state = graph.canonical_bytes()
            if compared:
                if store.read_snapshot(iteration) != state:
                    diverged = iteration
                else:
                    checked += 1
            if iteration in boundaries:
                boundaries[iteration] = hashlib.sha256(state).hexdigest()
        if next_iter is None:
            final = state

    try:
        graph = KnowledgeGraph.replay(
            records,
            principles_per_skill_cap=config.principles_per_skill_cap,
            skill_growth_cap=config.skill_growth_cap,
            snapshot_history_limit=config.snapshot_history_limit,
            on_iteration=compare,
        )
    except IntegrityError as exc:
        return CheckResult("log_replay", False, str(exc)), exc
    if diverged is not None:
        detail = f"boundary snapshot {diverged} diverges from replay"
        return CheckResult("log_replay", False, detail), graph
    final_hash = hashlib.sha256(final).hexdigest() if final is not None else graph.graph_hash()
    detail = (
        f"{records.count} events replay cleanly, {checked} boundary snapshots match, "
        f"final hash {final_hash[:12]}"
    )
    return CheckResult("log_replay", True, detail), graph


def _eval_boundaries(evals, reports) -> dict[int, str | None]:
    """The boundary iteration each eval record names, to be filled with the
    replayed state's sha256: ``committed_iterations`` minus one, so -1 is
    the bootstrap state. A count that is not one the run committed names
    none."""
    return {
        record["committed_iterations"] - 1: None
        for _name, record in evals
        if _committed_count(record, reports) is not None
    }


def _committed_count(record, reports) -> int | None:
    count = record.get("committed_iterations")
    if type(count) is int and 0 <= count <= len(reports):
        return count
    return None


def _check_eval_boundary(evals, reports, boundaries: dict[int, str | None]) -> CheckResult:
    """eval_boundary: each eval record's two graph hashes are the sha256 of
    the replayed state after the iterations it says were committed."""
    for name, record in evals:
        count = _committed_count(record, reports)
        if count is None:
            value = record.get("committed_iterations")
            return CheckResult(
                "eval_boundary",
                False,
                f"{name}: committed_iterations {value!r} is not a count of the "
                f"{len(reports)} committed iterations",
            )
        for key in ("graph_hash_before", "graph_hash_after"):
            value = record.get(key)
            if not isinstance(value, str):
                return CheckResult("eval_boundary", False, f"{name}: {key} is not a string")
            if value != boundaries[count - 1]:
                return CheckResult(
                    "eval_boundary",
                    False,
                    f"{name}: {key} is not the replayed state after {count} committed iterations",
                )
    return CheckResult(
        "eval_boundary",
        True,
        f"{len(evals)} eval records hash the replayed state at their boundary",
    )


class _BanditRecount:
    """bandit_consistency: draws and updates per context recounted from
    scratch, one replayed event at a time; rollbacks are honored. Every
    snapshot's counts are kept: a rollback to one the ring evicted fails replay."""

    def __init__(self):
        self.draws: dict[str, int] = {}
        self.totals: dict[str, dict[str, list[int]]] = {}
        self.snapshots: dict[int, tuple[dict, dict]] = {}
        self.error: KeyError | TypeError | None = None

    def step(self, event) -> None:
        if self.error is not None:
            return
        draws, totals = self.draws, self.totals
        try:
            op, payload = event["op"], event["payload"]
            if op == "bandit_init":
                ctx = payload["context_id"]
                draws[ctx] = 0
                totals[ctx] = {arm: [0, 0] for arm in payload["arm_ids"]}
            elif op == "bandit_draw":
                draws[payload["context_id"]] += 1
            elif op == "bandit_update":
                s_f = totals[payload["context_id"]][payload["arm_id"]]
                s_f[0 if payload["reward"] == 1 else 1] += 1
            elif op == "snapshot":
                sid = payload["snapshot_id"]
                self.snapshots[sid] = (
                    {c: n for c, n in draws.items()},
                    {c: {a: list(v) for a, v in arms.items()} for c, arms in totals.items()},
                )
            elif op == "rollback":
                saved_draws, saved_totals = self.snapshots[payload["snapshot_id"]]
                for ctx in draws:
                    if ctx in saved_draws:
                        draws[ctx] = saved_draws[ctx]
                        totals[ctx] = {a: list(v) for a, v in saved_totals[ctx].items()}
        except (KeyError, TypeError) as exc:
            self.error = exc

    def result(self, replayed: KnowledgeGraph | IntegrityError) -> CheckResult:
        if isinstance(replayed, IntegrityError):
            return CheckResult("bandit_consistency", False, f"log does not replay: {replayed}")
        if self.error is not None:
            return CheckResult(
                "bandit_consistency", False, f"bandit event references unknown state: {self.error}"
            )
        draws, totals = self.draws, self.totals
        for ctx in sorted(draws):
            slot = replayed.bandits.get(ctx)
            if slot is None:
                return CheckResult(
                    "bandit_consistency", False, f"context {ctx} missing after replay"
                )
            if slot.draws != draws[ctx]:
                return CheckResult(
                    "bandit_consistency",
                    False,
                    f"{ctx}: draws {slot.draws} != recount {draws[ctx]}",
                )
            for arm, (s, f) in totals[ctx].items():
                if slot.successes[arm] != s or slot.failures[arm] != f:
                    return CheckResult(
                        "bandit_consistency",
                        False,
                        f"{ctx}/{arm}: s/f {slot.successes[arm]}/{slot.failures[arm]} "
                        f"!= recount {s}/{f}",
                    )
        return CheckResult(
            "bandit_consistency",
            True,
            f"{len(draws)} contexts match an independent event recount",
        )
