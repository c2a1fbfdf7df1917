"""Canonical graph encoding: the cached encoder against a one-dump reference,
its memory against the size of the state, and the running protected counts
against a scan."""

import json
import tempfile
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop import EngineConfig, KnowledgeGraph, RunStore, init_run, load_engine, run_training
from evoloop.graph import ENV_CLASSES
from evoloop.runner import bootstrap_run

from oracles import canonical_bytes_reference, protected_counts_reference

OUTCOMES = [
    ("principle", None),
    ("success_memory", None),
    ("failure_memory", "specific"),
    ("failure_memory", "type_strategy"),
    ("abstracted_pattern", None),
    ("retrieval_recipe", None),
]
CONFIDENCES = [0.0, 0.25, 0.5, 0.75, 1.0]

payloads = st.dictionaries(
    st.text(max_size=4),
    st.one_of(
        st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=6),
        st.lists(st.integers(0, 9), max_size=3),
    ),
    max_size=3,
)

appends = st.tuples(
    st.just("append"),
    st.integers(0, len(OUTCOMES) - 1),
    st.sampled_from(CONFIDENCES),
    st.booleans(),
    payloads,
)
# prunes are the only op that removes a node, so they are drawn twice as often
prunes = st.tuples(st.just("prune"), st.sampled_from(CONFIDENCES + [0.6]))
ops = st.one_of(
    appends,
    appends,
    appends,
    prunes,
    prunes,
    st.tuples(st.just("env"), st.sampled_from(sorted(ENV_CLASSES)), payloads),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("rollback"), st.integers(0, 3)),
    st.tuples(st.just("mastery"), st.integers(0, 1), st.sampled_from(CONFIDENCES)),
    st.tuples(st.just("principle_ref"), st.integers(0, 1)),
    st.tuples(st.just("bandit"), st.sampled_from(["direct", "chain"]), st.integers(0, 1)),
    st.tuples(st.just("next_iter")),
)


def apply_op(graph, skills, task_type, op):
    kind = op[0]
    if kind == "append":
        _, index, confidence, typed, payload = op
        outcome, failure_kind = OUTCOMES[index]
        graph.append_experience(
            outcome,
            payload,
            task_type_id=task_type if typed else None,
            skill_id=skills[0] if outcome == "retrieval_recipe" else None,
            kind=failure_kind,
            confidence=confidence,
        )
    elif kind == "prune":
        graph.prune_low_confidence(op[1])
    elif kind == "env":
        graph.add_env_node(op[1], op[2])
    elif kind == "snapshot":
        graph.snapshot()
    elif kind == "rollback":
        ids = graph.snapshot_ids()
        if ids:
            graph.rollback_mutable(ids[op[1] % len(ids)])
    elif kind == "mastery":
        graph.set_mastery(skills[op[1]], op[2])
    elif kind == "principle_ref":
        principles = [nid for nid, n in graph.experience.items() if n.outcome == "principle"]
        if principles:
            graph.add_principle_ref(skills[op[1]], principles[-1])
    elif kind == "bandit":
        graph.bandit_record_draw("route/s", op[1])
        graph.bandit_update("route/s", op[1], op[2])
    elif kind == "next_iter":
        graph.current_iter += 1


@settings(max_examples=80, deadline=None)
@given(st.lists(appends, min_size=4, max_size=8), st.lists(ops, min_size=5, max_size=40))
def test_cached_encoding_matches_reference_after_any_op_sequence(seed_appends, sequence):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append, snapshot_history_limit=2)
    skills = [graph.add_skill("a"), graph.add_skill("b")]
    task_type = graph.add_task_type("t")
    graph.bandit_init("route/s", ["direct", "chain"], warmup_pulls=1, rng_seed=3)
    assert graph.canonical_bytes() == canonical_bytes_reference(graph)
    # ids soon pass 9, where string order and numeric order part
    for op in seed_appends + sequence:
        apply_op(graph, skills, task_type, op)
        # encoding after every op fills the cache before prunes and evictions
        assert graph.canonical_bytes() == canonical_bytes_reference(graph)
        assert graph.protected_counts() == protected_counts_reference(graph)
    assert len(graph.snapshot_ids()) <= 2
    # pruned nodes and evicted ring records take their fragments with them
    for cache, records in (
        (graph._experience_json, graph.experience),
        (graph._env_json, graph.env_nodes),
        (graph._snapshot_json, graph._snapshots),
    ):
        assert set(cache._fragments) == set(records)

    # replay decodes the log as a run directory would hand it over
    decoded = [json.loads(line) for line in lines]

    def check_counts(replaying, it):
        assert replaying.protected_counts() == protected_counts_reference(replaying)

    replayed = KnowledgeGraph.replay(decoded, snapshot_history_limit=2, on_iteration=check_counts)
    assert replayed.canonical_bytes() == canonical_bytes_reference(replayed)
    assert replayed.canonical_bytes() == graph.canonical_bytes()
    assert replayed.state_dict() == json.loads(graph.canonical_bytes())


def test_in_place_payload_mutation_shows_as_stale_cache(graph):
    nid = graph.append_experience("success_memory", {"question": "q", "answer": "1"})
    assert graph.canonical_bytes() == canonical_bytes_reference(graph)
    # breaks the rule that payloads are frozen at commit
    graph.experience[nid].payload["answer"] = "2"
    assert graph.canonical_bytes() != canonical_bytes_reference(graph)


def test_replayed_record_under_a_reused_id_replaces_its_fragment():
    def append(seq, it, answer):
        payload = {"id": 1, "outcome": "success_memory", "task_type_id": None,
                   "skill_id": None, "kind": None, "confidence": 1.0,
                   "payload": {"answer": answer}, "created_iter": it}
        return {"seq": seq, "iter": it, "op": "append_experience", "payload": payload}

    seen = []

    def encode(graph, it):
        seen.append(graph.canonical_bytes())

    graph = KnowledgeGraph.replay([append(1, 0, "a"), append(2, 1, "b")], on_iteration=encode)
    # seen: before iter 0, before iter 1 (caching "a"), at the end
    assert b'"answer":"a"' in seen[1]
    assert seen[-1] == graph.canonical_bytes() == canonical_bytes_reference(graph)
    assert b'"answer":"b"' in seen[-1]


def _append(seq, it, nid, outcome, answer="a"):
    payload = {"id": nid, "outcome": outcome, "task_type_id": None, "skill_id": None,
               "kind": "specific" if outcome == "failure_memory" else None,
               "confidence": 1.0, "payload": {"answer": answer}, "created_iter": it}
    return {"seq": seq, "iter": it, "op": "append_experience", "payload": payload}


def test_replayed_prune_and_id_reuse_keep_protected_counts_equal_to_a_scan():
    # the writer refuses both; a replayed log applies them verbatim
    log = [
        _append(1, 0, 1, "success_memory"),
        _append(2, 0, 2, "principle"),
        _append(3, 0, 3, "failure_memory"),
        _append(4, 0, 4, "abstracted_pattern"),
        {"seq": 5, "iter": 1, "op": "prune",
         "payload": {"threshold": None, "removed_ids": [2, 4, 2, 99]}},
        _append(6, 2, 3, "abstracted_pattern"),
        _append(7, 2, 1, "success_memory", answer="b"),
        _append(8, 3, 4, "principle"),
        {"seq": 9, "iter": 3, "op": "snapshot", "payload": {"snapshot_id": 10}},
    ]
    seen = []

    def check(graph, it):
        counts = graph.protected_counts()
        assert counts == protected_counts_reference(graph)
        seen.append(counts)

    graph = KnowledgeGraph.replay(log, on_iteration=check)
    expected = {"failure_memory": 0, "principle": 1, "success_memory": 1}
    assert seen[1:] == [
        {"failure_memory": 1, "principle": 1, "success_memory": 1},
        {"failure_memory": 1, "principle": 0, "success_memory": 1},
        {"failure_memory": 0, "principle": 0, "success_memory": 1},
        expected,
    ]
    assert graph._snapshots[10]["protected_watermark"] == expected


def test_writer_copies_the_callers_payload_once(graph):
    payload = {"question": "q", "steps": [1, 2]}
    nid = graph.append_experience("success_memory", payload)
    env_payload = {"entity": "door"}
    eid = graph.add_env_node("entity", env_payload)
    encoded = graph.canonical_bytes()
    payload["steps"].append(3)
    env_payload["entity"] = "wall"
    assert graph.experience[nid].payload == {"question": "q", "steps": [1, 2]}
    assert graph.env_nodes[eid].payload == {"entity": "door"}
    assert graph.canonical_bytes() == encoded == canonical_bytes_reference(graph)


def test_writer_copies_tuples_as_the_lists_replay_gives():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    inner = [1, 2]
    nid = graph.append_experience("success_memory", {"steps": (inner, "x"), "n": {"k": [0]}})
    eid = graph.add_env_node("entity", {"parts": ([3],)})
    inner.append(3)
    stored = graph.experience[nid].payload
    assert stored == {"steps": [[1, 2], "x"], "n": {"k": [0]}}
    assert type(stored["steps"]) is list
    assert graph.env_nodes[eid].payload == {"parts": [[3]]}
    decoded = [json.loads(line) for line in lines]
    replayed = KnowledgeGraph.replay(decoded)
    assert replayed.experience[nid].payload == stored
    assert replayed.env_nodes[eid].payload == graph.env_nodes[eid].payload
    assert replayed.canonical_bytes() == graph.canonical_bytes() == canonical_bytes_reference(graph)


# text that JSON escapes (quotes, backslashes, controls, line separators)
# or that ensure_ascii writes as \u escapes, surrogate pairs included
json_text = st.text(
    alphabet=st.sampled_from(['a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\x00', 'é', 'ß', '漢', '\u2028', '😀']),
    max_size=6,
)
json_keys = st.one_of(json_text, st.just("seq"))
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.1, 1e-07, -0.0, 5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    json_text,
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_keys, inner, max_size=3),
    ),
    max_leaves=10,
)
line_payloads = st.dictionaries(json_keys, json_trees, max_size=4)
LINE_OUTCOMES = [("success_memory", None), ("failure_memory", "specific"), ("principle", None)]
# a bandit context, its arms, the arm drawn and updated, and the reward
bandit_steps = st.tuples(
    json_text, st.lists(json_text, min_size=1, max_size=3, unique=True), st.integers(0, 2), st.integers(0, 1)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["experience", "env", "template", "bandit", "task_failure"]),
            line_payloads,
            st.integers(0, 3),
            bandit_steps,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_every_flushed_line_is_the_canonical_dump_of_its_record(steps):
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        store.initialize({}, {})
        graph = KnowledgeGraph(event_sink=store.event_sink)
        committed = []

        def commit(op, payload):
            committed.append(
                {"seq": graph.last_seq, "iter": graph.current_iter, "op": op, "payload": payload}
            )

        sid = graph.add_skill("s")
        commit("add_skill", {"id": sid, "name": "s", "mastery": 0.0,
                             "prompt_template": "{question}", "strategy": "direct"})
        tt = graph.add_task_type("t")
        commit("add_task_type", {"id": tt, "name": "t", "observed_iter": 0})
        arms_of: dict[str, list[str]] = {}
        # the first step's records carry iter -1 when it adds 0
        for n, (kind, payload, step, (context_id, arms, pick, reward)) in enumerate(steps):
            graph.current_iter += step
            if kind == "experience":
                outcome, failure_kind = LINE_OUTCOMES[n % len(LINE_OUTCOMES)]
                nid = graph.append_experience(outcome, payload, task_type_id=tt, kind=failure_kind)
                commit("append_experience", {
                    "id": nid, "outcome": outcome, "task_type_id": tt, "skill_id": None,
                    "kind": failure_kind, "confidence": 1.0, "payload": payload,
                    "created_iter": graph.current_iter,
                })
            elif kind == "env":
                nid = graph.add_env_node("entity", payload)
                commit("add_env_node", {"id": nid, "node_class": "entity", "payload": payload})
            elif kind == "bandit":
                if context_id not in arms_of:
                    arms_of[context_id] = arms
                    graph.bandit_init(context_id, arms, 1, 7)
                    commit("bandit_init", {
                        "context_id": context_id, "arm_ids": arms, "warmup_pulls": 1, "rng_seed": 7,
                    })
                arm = arms_of[context_id][pick % len(arms_of[context_id])]
                graph.bandit_record_draw(context_id, arm)
                commit("bandit_draw", {"context_id": context_id, "arm_id": arm})
                graph.bandit_update(context_id, arm, reward)
                commit("bandit_update", {"context_id": context_id, "arm_id": arm, "reward": reward})
            elif kind == "task_failure":
                graph.record_task_failure(tt)
                commit("task_failure", {"task_type_id": tt})
            else:
                template = "{question} " + json.dumps(payload, ensure_ascii=False)
                graph.set_prompt_template(sid, template)
                commit("set_prompt_template", {"skill_id": sid, "value": template})
        assert store.flush_events() == len(committed)
        text = (store.root / "events.log").read_text(encoding="utf-8")
        assert text.split("\n") == [
            json.dumps(record, sort_keys=True, separators=(",", ":")) for record in committed
        ] + [""]
        assert graph.canonical_bytes() == canonical_bytes_reference(graph)
        replayed = KnowledgeGraph.replay(store.read_events())
        assert replayed.canonical_bytes() == graph.canonical_bytes()
        report = {"iteration": 0, "payload": steps[0][1]}
        store.append_report(report)
        assert (store.root / "reports.jsonl").read_text(encoding="utf-8") == (
            json.dumps(report, sort_keys=True) + "\n"
        )


def check_run_against_reference(tmp_path, config, env_name):
    store = init_run(tmp_path / "run", config, env_name)
    engine = bootstrap_run(store)
    boundaries = []

    def check(report):
        assert engine.graph.canonical_bytes() == canonical_bytes_reference(engine.graph)
        boundaries.append(report.iteration)

    run_training(store, engine=engine, on_iteration=check)
    assert boundaries == list(range(config.iterations))

    def check_replayed(graph, it):
        assert graph.canonical_bytes() == canonical_bytes_reference(graph)

    KnowledgeGraph.replay(
        RunStore(store.root).read_events(),
        snapshot_history_limit=config.snapshot_history_limit,
        on_iteration=check_replayed,
    )
    loaded = load_engine(RunStore(store.root)).graph
    final = store.snapshot_path(config.iterations - 1).read_bytes()
    assert loaded.canonical_bytes() == canonical_bytes_reference(loaded) == final


def test_static_qa_run_and_its_replay_match_reference(tmp_path):
    config = EngineConfig(iterations=4, pool_size=40, seed=2, snapshot_history_limit=2)
    check_run_against_reference(tmp_path, config, "static_qa")


def test_sequential_run_and_its_replay_match_reference(tmp_path):
    check_run_against_reference(tmp_path, EngineConfig(iterations=6, seed=2), "sequential")


def test_encoding_keeps_one_copy_of_each_record_and_builds_the_state_once(tmp_path):
    # the multiples of the state read the same at 12x200 as at 6x60
    store = init_run(tmp_path / "run", EngineConfig(iterations=6, pool_size=60, seed=1), "static_qa")
    run_training(store)
    graph = KnowledgeGraph.replay(RunStore(store.root).read_events())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph.canonical_bytes()
        # the record fragments the first call encoded, and nothing else
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        state = graph.canonical_bytes()
        # the state itself, and what building it takes on the way
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert state == canonical_bytes_reference(graph)
    assert retained / len(state) <= 1.5
    assert peak / len(state) <= 1.7
