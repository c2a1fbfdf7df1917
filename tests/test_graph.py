"""Knowledge graph: protection, caps, DAG checks, snapshots, event replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop import (
    CapError,
    CycleError,
    FrozenGraphError,
    IntegrityError,
    KnowledgeGraph,
    NotFoundError,
    ValidationError,
)

from evoloop.graph import _APPLY
from oracles import ancestors_reference


def test_first_principle_append_counts(graph):
    assert graph.protected_counts() == {
        "failure_memory": 0,
        "principle": 0,
        "success_memory": 0,
    }
    graph.append_experience("principle", {"text": "name intermediate values"})
    assert graph.protected_counts()["principle"] == 1


def test_protected_counts_after_mixed_appends(graph):
    graph.append_experience("principle", {"text": "a"})
    graph.append_experience("principle", {"text": "b"})
    graph.append_experience("success_memory", {"question": "q", "answer": "1"})
    assert graph.protected_counts() == {
        "failure_memory": 0,
        "principle": 2,
        "success_memory": 1,
    }


def test_prune_removes_low_confidence_pattern(graph):
    nid = graph.append_experience("abstracted_pattern", {"text": "x"}, confidence=0.2)
    removed = graph.prune_low_confidence(0.5)
    assert removed == [nid]
    assert nid not in graph.experience


def test_prune_on_empty_graph(graph):
    assert graph.prune_low_confidence(0.5) == []


def test_prune_filters_by_class_and_confidence(graph):
    low = graph.append_experience("abstracted_pattern", {"text": "low"}, confidence=0.1)
    high = graph.append_experience("abstracted_pattern", {"text": "high"}, confidence=0.9)
    prin = graph.append_experience("principle", {"text": "p"})
    assert graph.prune_low_confidence(0.5) == [low]
    assert high in graph.experience
    assert prin in graph.experience


def test_prune_never_touches_protected_nodes(graph):
    tt = graph.add_task_type("t")
    graph.append_experience("principle", {"text": "p"}, confidence=0.0)
    graph.append_experience(
        "failure_memory",
        {"question": "q", "correction": "c"},
        task_type_id=tt,
        kind="specific",
        confidence=0.0,
    )
    graph.append_experience("success_memory", {"question": "q"}, confidence=0.0)
    assert graph.prune_low_confidence(1.0) == []


def test_failure_memory_requires_kind(graph):
    with pytest.raises(ValidationError):
        graph.append_experience("failure_memory", {"q": 1})
    with pytest.raises(ValidationError):
        graph.append_experience("success_memory", {"q": 1}, kind="specific")


def test_prerequisite_edge_ok(graph):
    a = graph.add_skill("a")
    b = graph.add_skill("b")
    graph.add_prerequisite(a, b)
    assert graph.prereq_edges() == {(a, b)}


def test_two_cycle_refused(graph):
    a = graph.add_skill("a")
    b = graph.add_skill("b")
    graph.add_prerequisite(a, b)
    with pytest.raises(CycleError):
        graph.add_prerequisite(b, a)


def test_three_cycle_refused(graph):
    a, b, c = (graph.add_skill(n) for n in "abc")
    graph.add_prerequisite(a, b)
    graph.add_prerequisite(b, c)
    with pytest.raises(CycleError):
        graph.add_prerequisite(c, a)


def test_self_prerequisite_refused(graph):
    a = graph.add_skill("a")
    with pytest.raises(CycleError):
        graph.add_prerequisite(a, a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30))
def test_cycle_rejection_matches_reachability_oracle(pairs):
    # an edge is refused exactly when the oracle already sees the dependent
    # among the prerequisite's ancestors (or the edge is a self-loop)
    graph = KnowledgeGraph()
    ids = [graph.add_skill(f"s{i}") for i in range(8)]
    accepted = []
    for x, y in pairs:
        a, b = ids[x], ids[y]
        closes_cycle = a == b or b in ancestors_reference(accepted, a)
        if closes_cycle:
            with pytest.raises(CycleError):
                graph.add_prerequisite(a, b)
        else:
            graph.add_prerequisite(a, b)
            if (a, b) not in accepted:
                accepted.append((a, b))
    assert graph.prereq_edges() == set(accepted)


def test_rollback_restores_mastery(graph):
    sid = graph.add_skill("s", mastery=0.5)
    snap = graph.snapshot()
    graph.set_mastery(sid, 0.9)
    graph.rollback_mutable(snap)
    assert graph.skill(sid).mastery == 0.5


def test_rollback_to_fresh_snapshot_is_identity(graph):
    sid = graph.add_skill("s", mastery=0.4)
    graph.set_mastery(sid, 0.7)
    before = json.loads(graph.canonical_bytes())
    snap = graph.snapshot()
    graph.rollback_mutable(snap)
    after = json.loads(graph.canonical_bytes())
    # bookkeeping fields move (seq counter, snapshot table); state does not
    for section in ("skills", "task_types", "experience", "prereq_edges", "bandits"):
        assert before[section] == after[section]
    assert graph.skill(sid).mastery == 0.7


def test_rollback_keeps_protected_appends(graph):
    graph.add_skill("s", mastery=0.5)
    snap = graph.snapshot()
    kept = graph.append_experience("principle", {"text": "kept"})
    graph.rollback_mutable(snap)
    assert kept in graph.experience


def test_rollback_restores_task_counters(graph):
    tt = graph.add_task_type("t")
    graph.record_task_failure(tt)
    snap = graph.snapshot()
    graph.record_task_failure(tt)
    graph.mark_selected(tt, 3)
    graph.rollback_mutable(snap)
    assert graph.task_type(tt).n_fail == 1
    assert graph.task_type(tt).k_last == -1


def test_rollback_to_unknown_snapshot(graph):
    with pytest.raises(NotFoundError):
        graph.rollback_mutable(999)


def test_snapshot_history_eviction():
    graph = KnowledgeGraph(snapshot_history_limit=2)
    s1 = graph.snapshot()
    s2 = graph.snapshot()
    s3 = graph.snapshot()
    assert graph.snapshot_ids() == [s2, s3]
    with pytest.raises(NotFoundError):
        graph.rollback_mutable(s1)


def test_mark_selected_refuses_regression(graph):
    tt = graph.add_task_type("t")
    graph.mark_selected(tt, 5)
    with pytest.raises(ValidationError):
        graph.mark_selected(tt, 4)
    graph.mark_selected(tt, 5)
    assert graph.task_type(tt).k_last == 5


def test_failure_counter_is_cumulative(graph):
    tt = graph.add_task_type("t")
    for _ in range(3):
        graph.record_task_failure(tt)
    graph.mark_selected(tt, 2)
    assert graph.task_type(tt).n_fail == 3


def test_skill_growth_cap():
    graph = KnowledgeGraph(skill_growth_cap=2)
    graph.add_skill("a")
    graph.add_skill("b")
    with pytest.raises(CapError):
        graph.add_skill("c")


def test_principle_ref_window():
    graph = KnowledgeGraph(principles_per_skill_cap=2)
    sid = graph.add_skill("s")
    pids = [graph.append_experience("principle", {"text": str(i)}) for i in range(3)]
    for pid in pids:
        graph.add_principle_ref(sid, pid)
    assert graph.skill(sid).principle_ids == pids[1:]


def test_principle_ref_requires_principle(graph):
    sid = graph.add_skill("s")
    pattern = graph.append_experience("abstracted_pattern", {"text": "x"}, confidence=0.9)
    with pytest.raises(ValidationError):
        graph.add_principle_ref(sid, pattern)


def test_frozen_graph_refuses_writes(graph):
    graph.add_skill("s")
    graph.freeze()
    assert graph.frozen
    with pytest.raises(FrozenGraphError):
        graph.add_skill("t")
    with pytest.raises(FrozenGraphError):
        graph.append_experience("principle", {"text": "p"})
    graph.unfreeze()
    graph.add_skill("t")


def test_event_records_shape():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    sid = graph.add_skill("s")
    graph.set_mastery(sid, 0.3)
    graph.snapshot()
    events = [json.loads(line) for line in lines]
    assert [e["seq"] for e in events] == [1, 2, 3]
    assert all(set(e) == {"seq", "iter", "op", "payload"} for e in events)
    assert all(e["iter"] == -1 for e in events)
    graph.current_iter = 4
    graph.set_mastery(sid, 0.4)
    assert json.loads(lines[-1])["iter"] == 4


def test_replay_reproduces_state_bytes():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    sid = graph.add_skill("s", mastery=0.2)
    tt = graph.add_task_type("t")
    graph.append_experience("success_memory", {"question": "q"}, task_type_id=tt)
    snap = graph.snapshot()
    graph.set_mastery(sid, 0.8)
    graph.rollback_mutable(snap)
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=2, rng_seed=7)
    graph.bandit_update("route/s", "chain", 1)
    replayed = KnowledgeGraph.replay(json.loads(line) for line in lines)
    assert replayed.canonical_bytes() == graph.canonical_bytes()
    assert replayed.graph_hash() == graph.graph_hash()


def test_state_mark_moves_with_every_committed_write():
    graph = KnowledgeGraph()
    sid = graph.add_skill("s", mastery=0.2)
    tt = graph.add_task_type("t")
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=2, rng_seed=7)
    writes = [
        lambda: graph.set_mastery(sid, 0.8),
        lambda: graph.add_prerequisite(graph.add_skill("u"), sid),
        lambda: graph.record_task_failure(tt),
        lambda: graph.bandit_update("route/s", "chain", 1),
        lambda: graph.append_experience("success_memory", {"question": "q"}, task_type_id=tt),
        lambda: graph.add_env_node("entity", {"name": "e"}),
        graph.snapshot,
    ]
    for write in writes:
        state, mark = graph.canonical_bytes(), graph.state_mark()
        assert graph.state_mark() == mark
        write()
        assert graph.state_mark() != mark
        assert graph.canonical_bytes() != state


def test_bandit_init_validates_like_new_slot_and_logs_nothing_on_refusal():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=2, rng_seed=7)
    seq = graph.last_seq
    for context_id, arms, warmup in (
        ("route/t", ["direct"], -1),
        ("route/t", [], 2),
        ("route/t", ["a", "a"], 2),
        # ids are strings: another type would not sort beside them
        (5, ["a"], 2),
        (None, ["a"], 2),
        (b"route/t", ["a"], 2),
        ("route/t", [1, 2], 2),
        ("route/t", ["a", None], 2),
    ):
        with pytest.raises(ValidationError):
            graph.bandit_init(context_id, arms, warmup_pulls=warmup, rng_seed=7)
    assert graph.last_seq == seq and len(lines) == seq
    assert sorted(graph.bandits) == ["route/s"]
    replayed = KnowledgeGraph.replay(json.loads(line) for line in lines)
    assert replayed.canonical_bytes() == graph.canonical_bytes()


@pytest.mark.parametrize("field, value", [("context_id", 5), ("arm_ids", [1, 2])])
def test_replay_refuses_a_bandit_init_the_writer_refuses(field, value):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.add_skill("s")
    graph.bandit_init("route/s", ["a", "b"], warmup_pulls=1, rng_seed=1)
    events = [json.loads(line) for line in lines]
    forged = json.loads(json.dumps(events[1]))
    forged["payload"][field] = value
    with pytest.raises(IntegrityError, match=r"replay failed at seq 2 \(bandit_init\)"):
        KnowledgeGraph.replay([events[0], forged])


@pytest.mark.parametrize("reward", [True, False, 1.0, 0.0, 2, -1, "1", None])
def test_bandit_update_takes_only_the_int_0_or_1_and_logs_nothing_else(reward):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=2, rng_seed=7)
    seq = graph.last_seq
    # True == 1 and 1.0 == 1 in Python, but the log would read true or 1.0
    with pytest.raises(ValidationError, match="reward must be the int 0 or 1"):
        graph.bandit_update("route/s", "chain", reward)
    assert graph.last_seq == seq and len(lines) == seq
    assert graph.bandits["route/s"].successes == {"direct": 0, "chain": 0}
    assert graph.bandits["route/s"].failures == {"direct": 0, "chain": 0}


@pytest.mark.parametrize("reward", [True, False, 1.0, 2])
def test_replay_refuses_a_reward_the_writer_refuses(reward):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=2, rng_seed=7)
    graph.bandit_update("route/s", "chain", 1)
    events = [json.loads(line) for line in lines]
    assert KnowledgeGraph.replay(events).canonical_bytes() == graph.canonical_bytes()
    forged = json.loads(json.dumps(events[1]))
    forged["payload"]["reward"] = reward
    with pytest.raises(IntegrityError, match=r"replay failed at seq 2 \(bandit_update\)"):
        KnowledgeGraph.replay([events[0], forged])


def test_replay_rejects_sequence_gap():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.add_skill("a")
    graph.add_skill("b")
    events = [json.loads(line) for line in lines]
    with pytest.raises(IntegrityError):
        KnowledgeGraph.replay([events[0], dict(events[1], seq=5)])


def test_replay_rejects_unknown_op():
    with pytest.raises(IntegrityError):
        KnowledgeGraph.replay([{"seq": 1, "iter": -1, "op": "warp", "payload": {}}])


# every op the writer logs, with the first payload key its apply reads
FIRST_KEY = {
    "add_skill": "id",
    "set_mastery": "skill_id",
    "set_prompt_template": "skill_id",
    "set_strategy": "skill_id",
    "add_principle_ref": "skill_id",
    "add_prerequisite": "from_id",
    "add_task_type": "id",
    "set_resolver": "task_type_id",
    "task_failure": "task_type_id",
    "mark_selected": "task_type_id",
    "append_experience": "id",
    "prune": "removed_ids",
    "add_env_node": "id",
    "bandit_init": "context_id",
    "bandit_draw": "context_id",
    "bandit_update": "context_id",
    "snapshot": "snapshot_id",
    "rollback": "snapshot_id",
}


def _log_of_every_op():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    a = graph.add_skill("a")
    b = graph.add_skill("b")
    graph.set_mastery(a, 0.5)
    graph.set_prompt_template(a, "Q: {question}")
    graph.set_strategy(a, "chain")
    graph.add_prerequisite(a, b)
    t = graph.add_task_type("t")
    graph.set_resolver(t, a)
    graph.record_task_failure(t)
    graph.mark_selected(t, 0)
    p = graph.append_experience("principle", {"text": "p"}, skill_id=a)
    graph.add_principle_ref(a, p)
    graph.append_experience("abstracted_pattern", {"text": "weak"}, confidence=0.1)
    graph.prune_low_confidence(0.5)
    graph.add_env_node("entity", {"name": "e"})
    graph.bandit_init("route/a", ["x", "y"], warmup_pulls=1, rng_seed=1)
    graph.bandit_record_draw("route/a", "x")
    graph.bandit_update("route/a", "x", 1)
    sid = graph.snapshot()
    graph.rollback_mutable(sid)
    events = [json.loads(line) for line in lines]
    assert {e["op"] for e in events} == set(FIRST_KEY) == set(_APPLY)
    assert KnowledgeGraph.replay(events).canonical_bytes() == graph.canonical_bytes()
    return events


@pytest.mark.parametrize("op", sorted(FIRST_KEY))
def test_replay_names_the_record_whose_payload_lacks_a_key(op):
    events = _log_of_every_op()
    i = next(n for n, e in enumerate(events) if e["op"] == op)
    forged = json.loads(json.dumps(events[i]))
    del forged["payload"][FIRST_KEY[op]]
    with pytest.raises(IntegrityError, match=rf"^replay failed at seq {i + 1} \({op}\)$"):
        KnowledgeGraph.replay(events[:i] + [forged])


@pytest.mark.parametrize(
    "op, message", [("warp", "unknown op 'warp'"), (["warp"], "unknown op ['warp']")]
)
def test_replay_refuses_an_unknown_op_by_name(op, message):
    events = _log_of_every_op()
    record = {"seq": len(events) + 1, "iter": -1, "op": op, "payload": {}}
    with pytest.raises(IntegrityError) as info:
        KnowledgeGraph.replay(events + [record])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "outcome, kind, payload",
    [
        ("principle", None, ["p"]),
        ("success_memory", None, ["q"]),
        ("failure_memory", "specific", {"question": 7}),
    ],
)
def test_append_experience_refuses_a_payload_replay_refuses(outcome, kind, payload):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    with pytest.raises(ValidationError):
        graph.append_experience(outcome, payload, kind=kind)
    assert graph.last_seq == 0 and lines == [] and graph.experience == {}


def _events_at_iters(iters):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    for n, it in enumerate(iters):
        graph.current_iter = it
        graph.add_skill(f"s{n}")
    return [json.loads(line) for line in lines]


def test_replay_rejects_iter_going_backwards():
    with pytest.raises(IntegrityError, match="iter goes backwards at seq 3"):
        KnowledgeGraph.replay(_events_at_iters([-1, 1, 0]))


def test_replay_reports_each_move_to_a_later_iteration():
    seen = []
    KnowledgeGraph.replay(
        _events_at_iters([-1, -1, 0, 2, 2]),
        on_iteration=lambda graph, it: seen.append((it, graph.last_seq, len(graph.skills))),
    )
    # the graph holds every record before the move, none after it
    assert seen == [(0, 2, 2), (2, 3, 3), (None, 5, 5)]


# ----------------------------------------------------------------------
# randomized conservation property (the acceptance suite scales this up)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from(
                ["principle", "success_memory", "failure_memory", "abstracted_pattern"]
            ),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        st.tuples(st.just("prune"), st.floats(0.0, 1.0, allow_nan=False)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("rollback")),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(_OPS)
def test_protected_counts_never_decrease(ops):
    graph = KnowledgeGraph()
    tt = graph.add_task_type("t")
    snapshots = [graph.snapshot()]
    outcome_of = {}
    previous = graph.protected_counts()
    for op in ops:
        if op[0] == "append":
            _, outcome, confidence = op
            kind = "specific" if outcome == "failure_memory" else None
            nid = graph.append_experience(
                outcome, {"n": len(outcome_of)}, task_type_id=tt,
                kind=kind, confidence=confidence,
            )
            outcome_of[nid] = outcome
        elif op[0] == "prune":
            removed = graph.prune_low_confidence(op[1])
            assert all(outcome_of[nid] == "abstracted_pattern" for nid in removed)
        elif op[0] == "snapshot":
            snapshots.append(graph.snapshot())
        else:
            graph.rollback_mutable(snapshots[-1])
        counts = graph.protected_counts()
        assert all(counts[c] >= previous[c] for c in counts)
        previous = counts
