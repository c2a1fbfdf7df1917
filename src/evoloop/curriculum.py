"""Failure-driven curriculum: target selection and the mastery ratchet.

Selection scores each observed task type by cumulative failures plus a
recency bonus, ``score = n_fail + recency_weight * (k - k_last)``, and takes
the top ``max_targets``. Never-selected types carry ``k_last = -1`` so their
bonus grows from the first iteration they are observed. Because the bonus
grows linearly while incumbents' scores are bounded between selections, no
observed type can wait longer than ``ceil(n_max / recency_weight + N / M)``
iterations between selections.

Mastery moves through an asymmetric ratchet: evidence at or above the
current value is absorbed quickly (rate ``rise_rate``), evidence below it
decays the value slowly (rate ``decay_rate``). Both branches are convex
combinations, so mastery stays in [0, 1] without clamping, and every step
obeys ``m' >= (1 - decay_rate) * m`` and ``m' <= m + rise_rate * (1 - m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CycleError, ValidationError


@dataclass(frozen=True)
class SelectorParams:
    recency_weight: float = 0.3
    max_targets: int = 3

    def __post_init__(self):
        if self.recency_weight <= 0:
            raise ValidationError("recency_weight must be positive")
        if self.max_targets < 1:
            raise ValidationError("max_targets must be >= 1")


@dataclass(frozen=True)
class RatchetParams:
    rise_rate: float = 0.6
    decay_rate: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.rise_rate < 1.0:
            raise ValidationError("rise_rate must be in (0, 1)")
        if not 0.0 < self.decay_rate < 1.0:
            raise ValidationError("decay_rate must be in (0, 1)")
        if self.rise_rate <= self.decay_rate:
            raise ValidationError("rise_rate must exceed decay_rate")


@dataclass(frozen=True)
class TaskStat:
    """Selector view of one observed task type."""

    task_type_id: int | str
    n_fail: int
    k_last: int


def selection_score(n_fail: int, k: int, k_last: int, recency_weight: float) -> float:
    return n_fail + recency_weight * (k - k_last)


def round_robin_select(
    task_stats: Iterable[TaskStat | tuple],
    k: int,
    params: SelectorParams,
) -> list:
    """Pick up to max_targets task types by descending score.

    Ties go to the type with the larger recency gap, then to the smaller id.
    """
    stats = [s if isinstance(s, TaskStat) else TaskStat(*s) for s in task_stats]
    for s in stats:
        if s.n_fail < 0:
            raise ValidationError(f"n_fail must be >= 0, got {s.n_fail} for {s.task_type_id}")
        if s.k_last > k:
            raise ValidationError(
                f"k_last={s.k_last} is in the future of k={k} for {s.task_type_id}"
            )
    seen = set()
    for s in stats:
        if s.task_type_id in seen:
            raise ValidationError(f"duplicate task type id {s.task_type_id!r}")
        seen.add(s.task_type_id)

    def sort_key(s: TaskStat):
        gap = k - s.k_last
        score = selection_score(s.n_fail, k, s.k_last, params.recency_weight)
        return (-score, -gap, s.task_type_id)

    ranked = sorted(stats, key=sort_key)
    return [s.task_type_id for s in ranked[: params.max_targets]]


def coverage_gap_bound(n_types: int, n_max: int, params: SelectorParams) -> int:
    """Worst-case iterations between selections of any observed type.

    Exact rational arithmetic: with binary floats 3 / 0.3 lands a hair above
    10 and the ceiling would overshoot by one.
    """
    if n_types < 1:
        raise ValidationError("n_types must be >= 1")
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    weight = Fraction(str(params.recency_weight))
    value = Fraction(n_max) / weight + Fraction(n_types, params.max_targets)
    return math.ceil(value)


def mastery_update(mastery: float, evidence: float, params: RatchetParams) -> float:
    """One asymmetric ratchet step; both branches stay inside [0, 1]."""
    for name, value in (("mastery", mastery), ("evidence", evidence)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    if evidence >= mastery:
        return params.rise_rate * evidence + (1.0 - params.rise_rate) * mastery
    return mastery - params.decay_rate * (mastery - evidence)


def learnable_frontier(
    masteries: Mapping, prerequisites: Mapping, threshold: float
) -> set:
    """Skills below threshold whose prerequisites are all at or above it.

    ``prerequisites`` maps skill id -> iterable of prerequisite skill ids.
    The prerequisite relation must be acyclic.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    prereq_map = {sid: set(prerequisites.get(sid, ())) for sid in masteries}
    for sid, deps in prereq_map.items():
        unknown = deps - set(masteries)
        if unknown:
            raise ValidationError(f"skill {sid} lists unknown prerequisites {sorted(unknown)}")
    _require_acyclic(prereq_map)
    return {
        sid
        for sid, m in masteries.items()
        if m < threshold and all(masteries[p] >= threshold for p in prereq_map[sid])
    }


def _require_acyclic(prereq_map: Mapping) -> None:
    # Kahn's algorithm; leftovers mean a cycle
    indegree = {sid: 0 for sid in prereq_map}
    dependents: dict = {sid: [] for sid in prereq_map}
    for sid, deps in prereq_map.items():
        for dep in deps:
            indegree[sid] += 1
            dependents[dep].append(sid)
    queue = [sid for sid, d in indegree.items() if d == 0]
    visited = 0
    while queue:
        cur = queue.pop()
        visited += 1
        for nxt in dependents[cur]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if visited != len(prereq_map):
        raise CycleError("prerequisite relation contains a cycle")


def check_ratchet_trace(
    trace: Sequence[float],
    params: RatchetParams,
    tol: float = 1e-12,
) -> tuple[int, str] | None:
    """Verify a mastery trajectory against the structural ratchet bounds.

    Checks, for every step k:

      * lower: m_k >= (1 - decay_rate) * m_{k-1}
      * upper: m_k <= m_{k-1} + rise_rate * (1 - m_{k-1})
      * decayed peak: m_k >= (1 - decay_rate) * W_{k-1}, where
        W_k = max(m_k, (1 - decay_rate) * W_{k-1}) is the decayed running
        peak. Unrolled, this is m_k >= (1 - decay_rate)^(k - k') * m_{k'}
        for every k' < k, the iterated per-step bound.

    Returns None when clean, else (step index, reason).
    """
    if not trace:
        return None
    keep = 1.0 - params.decay_rate
    peak = trace[0]
    for k in range(1, len(trace)):
        prev, cur = trace[k - 1], trace[k]
        if cur < keep * prev - tol:
            return k, f"per-step lower bound: {cur} < {keep} * {prev}"
        if cur > prev + params.rise_rate * (1.0 - prev) + tol:
            return k, f"per-step upper bound: {cur} > {prev} + rise * (1 - {prev})"
        if cur < keep * peak - tol:
            return k, f"decayed peak bound: {cur} < {keep} * peak {peak}"
        peak = max(cur, keep * peak)
    return None
