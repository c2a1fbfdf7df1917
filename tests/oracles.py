"""Independent reference implementations that pin expected test values.

Every quantity checked against the package is re-derived here by the most
direct route available: exact rational arithmetic, exhaustive enumeration,
or a textbook algorithm (networkx for graph questions). No reference
calls into evoloop, so a defect in the package cannot leak into the values
the tests compare against.

One function here is not a reference but a fixture: ``oracle_bundle``, the
bundle an ideal retriever would hand the learner, which tests patch over
``Engine._bundle``. It drives the engine, so it builds the package's own
bundle type.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from evoloop.memory import MemoryBundle

# ----------------------------------------------------------------------
# curriculum selector


def score_exact(n_fail: int, k: int, k_last: int, weight: str) -> Fraction:
    return Fraction(n_fail) + Fraction(weight) * (k - k_last)


def select_reference(stats, k: int, weight: str, max_targets: int) -> list:
    """stats: iterable of (task_type_id, n_fail, k_last)."""
    def key(row):
        tid, n_fail, k_last = row
        return (-score_exact(n_fail, k, k_last, weight), -(k - k_last), tid)

    ranked = sorted(stats, key=key)
    return [tid for tid, _, _ in ranked[:max_targets]]


def gap_bound_reference(n_types: int, n_max: int, weight: str, max_targets: int) -> int:
    return math.ceil(Fraction(n_max) / Fraction(weight) + Fraction(n_types, max_targets))


# ----------------------------------------------------------------------
# mastery ratchet


def mastery_reference(mastery, evidence, rise: str, decay: str) -> Fraction:
    m, e = Fraction(str(mastery)), Fraction(str(evidence))
    if e >= m:
        return Fraction(rise) * e + (1 - Fraction(rise)) * m
    return m - Fraction(decay) * (m - e)


def ratchet_violations_bruteforce(trace, rise: float, decay: float, tol: float) -> list:
    """All-pairs window bound plus both per-step bounds, O(len^2)."""
    keep = 1.0 - decay
    out = []
    for i in range(1, len(trace)):
        prev, cur = trace[i - 1], trace[i]
        if cur < keep * prev - tol:
            out.append((i, "step-lower"))
        if cur > prev + rise * (1.0 - prev) + tol:
            out.append((i, "step-upper"))
        for j in range(i):
            if cur < keep ** (i - j) * trace[j] - tol:
                out.append((i, f"window-from-{j}"))
                break
    return out


def ratchet_ok_fast(trace, rise: float, decay: float, tol: float) -> bool:
    """O(len) form of the same three bounds, via the decayed running peak."""
    if len(trace) < 2:
        return True
    keep = 1.0 - decay
    peak = trace[0]
    for i in range(1, len(trace)):
        prev, cur = trace[i - 1], trace[i]
        if cur < keep * prev - tol:
            return False
        if cur > prev + rise * (1.0 - prev) + tol:
            return False
        if cur < keep * peak - tol:
            return False
        peak = max(cur, keep * peak)
    return True


# ----------------------------------------------------------------------
# prerequisite DAG


def frontier_reference(masteries: dict, prereqs: dict, threshold: float) -> set:
    g = nx.DiGraph()
    g.add_nodes_from(masteries)
    for sid, deps in prereqs.items():
        for dep in deps:
            g.add_edge(dep, sid)
    if not nx.is_directed_acyclic_graph(g):
        raise ValueError("cyclic")
    return {
        sid
        for sid, m in masteries.items()
        if m < threshold
        and all(masteries[p] >= threshold for p in prereqs.get(sid, ()))
    }


def ancestors_reference(edges, target) -> set:
    """edges: iterable of (prereq, dependent)."""
    g = nx.DiGraph()
    g.add_node(target)
    g.add_edges_from(edges)
    return set(nx.ancestors(g, target))


def respects_prereq_order(ordered_ids, edges) -> bool:
    """True when every (prereq, dependent) pair present appears prereq-first."""
    position = {nid: i for i, nid in enumerate(ordered_ids)}
    return all(
        position[a] < position[b]
        for a, b in edges
        if a in position and b in position
    )


# ----------------------------------------------------------------------
# retrieval


def tv_reference(ids_a, ids_b) -> float:
    """Total variation between uniform distributions over two id sets."""
    a, b = set(ids_a), set(ids_b)
    if not a and not b:
        return 0.0
    support = a | b
    pa = {x: (1.0 / len(a) if x in a else 0.0) for x in support}
    pb = {x: (1.0 / len(b) if x in b else 0.0) for x in support}
    return 0.5 * sum(abs(pa[x] - pb[x]) for x in support)


def allocation_reference(context_length: int, k: int, threshold: int) -> tuple:
    heavy = math.ceil(Fraction(2 * k, 3))
    if context_length < threshold:
        return (heavy, k - heavy)
    return (k - heavy, heavy)


def cosine_reference(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def topk_reference(scored_ids, k: int) -> list:
    """scored_ids: iterable of (id, score); descending score, id tiebreak."""
    ranked = sorted(scored_ids, key=lambda p: (-p[1], p[0]))
    return [nid for nid, _ in ranked[:k]]


def rank_store_reference(entries, query, task_type_id, floor: float) -> list:
    """Brute-force ranking of one exemplar store for one query.

    entries: iterable of dicts with node_id, task_type_id, kind and vector.
    Keeps the query's task type, drops ``type_strategy`` entries whose
    cosine similarity is below ``floor``, and returns (similarity, node_id)
    pairs best first; ties go to the smaller node id.
    """
    q = np.asarray(query, dtype=float)
    q = q / np.linalg.norm(q)
    ranked = []
    for entry in entries:
        if entry["task_type_id"] != task_type_id:
            continue
        v = np.asarray(entry["vector"], dtype=float)
        sim = float(np.dot(v / np.linalg.norm(v), q))
        if entry["kind"] == "type_strategy" and sim < floor:
            continue
        ranked.append((sim, entry["node_id"]))
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return ranked


def bundle_sizes_reference(n_success_ranked: int, n_failure_ranked: int, allocation) -> tuple:
    """Slots each store fills once the other store's shortfall is lent to it."""
    want_s, want_f = allocation
    take_s = min(n_success_ranked, want_s + max(0, want_f - n_failure_ranked))
    take_f = min(n_failure_ranked, want_f + max(0, want_s - n_success_ranked))
    return take_s, take_f


def oracle_bundle(engine, text: str, tt_id: int, context_length: int) -> MemoryBundle:
    """The bundle of question ``text`` under task type ``tt_id`` as an ideal
    retriever picks it: tests patch this over ``Engine._bundle``.

    The candidates of each store are the ones the similarity walk admits:
    the task type's exemplars, a ``type_strategy`` correction only at or
    above the similarity floor. They rank on their value to the simulated
    learner, 1.0 for an exemplar of the question's own text and 0.15 for any
    other, then on node id; the slots and their backfill are the package's.
    """
    index, config = engine.index, engine.config
    query = index._unit(engine.backends.embedder.embed(text))
    ranked = []
    for outcome in ("success_memory", "failure_memory"):
        block = index._blocks.get((outcome, tt_id))
        candidates = []
        if block is not None:
            for g, sim in enumerate(block.scores(query)[0]):
                rows = block.plain[g] if sim < index.type_strategy_min_similarity else block.members[g]
                candidates += [
                    (1.0 if node.payload.get("question") == text else 0.15, node) for node in rows
                ]
        candidates.sort(key=lambda pair: (-pair[0], pair[1].id))
        ranked.append(candidates)
    allocation = allocation_reference(
        context_length, config.retrieval_top_k, config.long_context_threshold
    )
    take_s, take_f = bundle_sizes_reference(len(ranked[0]), len(ranked[1]), allocation)
    return MemoryBundle(
        success=[index._bundle_entry(key, node) for key, node in ranked[0][:take_s]],
        failure=[index._bundle_entry(key, node) for key, node in ranked[1][:take_f]],
        allocation=allocation,
    )


# ----------------------------------------------------------------------
# bandits


def beta_best_share(successes, failures, n_draws: int, seed: int) -> float:
    """Monte-Carlo share of draws won by arm 0 under Beta posteriors."""
    rng = np.random.default_rng(seed)
    samples = np.column_stack(
        [rng.beta(s + 1, f + 1, size=n_draws) for s, f in zip(successes, failures)]
    )
    return float(np.mean(np.argmax(samples, axis=1) == 0))


# ----------------------------------------------------------------------
# graph encoding


def canonical_bytes_reference(graph) -> bytes:
    """The whole graph state re-encoded from its live objects in one dump.

    Reads the graph's attributes directly and shares nothing with the
    package's incremental encoder, so a stale cached fragment shows up as a
    difference.
    """
    state = {
        "next_id": graph._next_id,
        "last_seq": graph.last_seq,
        "skills": {
            str(s.id): {
                "id": s.id,
                "name": s.name,
                "mastery": s.mastery,
                "prompt_template": s.prompt_template,
                "strategy": s.strategy,
                "principle_ids": list(s.principle_ids),
            }
            for s in graph.skills.values()
        },
        "task_types": {
            str(t.id): {
                "id": t.id,
                "name": t.name,
                "n_fail": t.n_fail,
                "k_last": t.k_last,
                "resolver_skill_id": t.resolver_skill_id,
                "observed_iter": t.observed_iter,
            }
            for t in graph.task_types.values()
        },
        "experience": {
            str(e.id): {
                "id": e.id,
                "outcome": e.outcome,
                "task_type_id": e.task_type_id,
                "skill_id": e.skill_id,
                "kind": e.kind,
                "confidence": e.confidence,
                "payload": e.payload,
                "created_iter": e.created_iter,
            }
            for e in graph.experience.values()
        },
        "env_nodes": {
            str(n.id): {"id": n.id, "node_class": n.node_class, "payload": n.payload}
            for n in graph.env_nodes.values()
        },
        "prereq_edges": sorted([list(e) for e in graph.prereq_edges()]),
        "bandits": {
            cid: {
                "context_id": slot.context_id,
                "arm_ids": list(slot.arm_ids),
                "successes": dict(slot.successes),
                "failures": dict(slot.failures),
                "warmup_pulls": slot.warmup_pulls,
                "rng_seed": slot.rng_seed,
                "draws": slot.draws,
            }
            for cid, slot in graph.bandits.items()
        },
        "snapshots": {str(sid): rec for sid, rec in graph._snapshots.items()},
    }
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode()


def protected_counts_reference(graph) -> dict:
    """Protected experience nodes per outcome, counted by a scan of every node."""
    counts = {outcome: 0 for outcome in ("failure_memory", "principle", "success_memory")}
    for node in graph.experience.values():
        if node.outcome in counts:
            counts[node.outcome] += 1
    return counts


# ----------------------------------------------------------------------
# run files


# the JSON type of each IterationReport field, in field order, and the JSON
# type of each member of its array or object (None when any member goes),
# kept by hand so the reader's table (derived from the annotations) meets an
# independent one
REPORT_FIELD_TYPES = {
    "iteration": ("integer", None),
    "accuracy": ("number", None),
    "committed_accuracy": ("number", None),
    "rollback": ("string", None),
    "selected_frontier": ("array", "integer"),
    "selected_task_types": ("array", "integer"),
    "task_stats_pre": ("array", "object"),
    "per_question": ("array", "object"),
    "per_skill_evidence": ("object", "object"),
    "bandit_selections": ("object", "string"),
    "appended": ("object", "array"),
    "pruned_ids": ("array", "integer"),
    "cap_errors": ("array", "string"),
    "tier_calls": ("object", "integer"),
    "agent_calls": ("object", "integer"),
    "masteries_post": ("object", "number"),
    "protected_counts_post": ("object", "integer"),
    "skills_count": ("integer", None),
    "coverage": ("object", "integer"),
    "snapshot_id": ("integer", None),
    "boundary_snapshot_id": ("integer", None),
}


def json_type_holds(json_type: str, value) -> bool:
    """Whether a decoded JSON value is of ``json_type``; a boolean is
    neither an integer nor a number."""
    if isinstance(value, bool):
        return False
    return isinstance(value, {
        "integer": int,
        "number": (int, float),
        "string": str,
        "array": list,
        "object": dict,
    }[json_type])


def read_jsonl_reference(path, what: str, field_types=None) -> tuple:
    """A JSONL file read with one ``json.loads`` per stripped, non-blank line.

    Returns ``(records, None)``, or ``(None, message)`` with the error text
    for the first line ``json.loads`` rejects or, with ``field_types`` (as
    ``REPORT_FIELD_TYPES``), whose value ``report_fault_reference`` faults.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                return None, f"corrupt {what} at {path.name}:{lineno}: {exc}"
            if field_types is not None:
                fault = report_fault_reference(record, field_types, what)
                if fault is not None:
                    return None, f"corrupt {what} at {path.name}:{lineno}: {fault}"
            records.append(record)
    return records, None


def report_fault_reference(record, field_types, what: str = "report"):
    """The first fault of a decoded report, or None: not an object holding
    every field; then, field by field in order, a field not of its JSON type
    or a member of it not of its member type; then a ``coverage`` without
    ``selected`` or ``observed``; then a ``task_stats_pre`` row without
    integer ``task_type_id`` and ``n_fail``."""

    def a(json_type):
        return ("an " if json_type[0] in "aeiou" else "a ") + json_type

    if not (isinstance(record, dict) and all(key in record for key in field_types)):
        return f"not an object holding every {what} field"
    for name, (json_type, member_type) in field_types.items():
        value = record[name]
        if not json_type_holds(json_type, value):
            return f"field {name!r} is not {a(json_type)}"
        if member_type is not None:
            members = value.values() if isinstance(value, dict) else value
            if not all(json_type_holds(member_type, member) for member in members):
                return f"field {name!r} holds a member that is not {a(member_type)}"
    if "selected" not in record["coverage"] or "observed" not in record["coverage"]:
        return "field 'coverage' lacks 'selected' or 'observed'"
    for row in record["task_stats_pre"]:
        if not all(json_type_holds("integer", row.get(key)) for key in ("task_type_id", "n_fail")):
            return "field 'task_stats_pre' holds a row without integer 'task_type_id' and 'n_fail'"
    return None
