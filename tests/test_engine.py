"""Engine loop: config, rotation, delta guard, rollback, frozen inference."""

import dataclasses
import threading

import numpy as np
import pytest

from evoloop import (
    BackendError,
    CapError,
    EngineConfig,
    ValidationError,
    call_audit,
    delta_guard_decision,
    extract_answer,
    make_env,
    rotation_action,
)
from evoloop import engine as engine_module
from evoloop import memory
from evoloop.runner import build_simulated_engine

from oracles import oracle_bundle


def make_engine(env_name="static_qa", **overrides):
    config = EngineConfig(**{**dict(pool_size=36, iterations=4), **overrides})
    env = make_env(env_name, seed=config.seed, pool_size=config.pool_size)
    engine = build_simulated_engine(config, env)
    engine.bootstrap()
    return engine


# ----------------------------------------------------------------------
# pure rules


def test_rotation_cycles_four_actions():
    expected = [
        "principle_extraction",
        "prompt_refinement",
        "tool_authoring",
        "skill_splitting",
    ]
    assert [rotation_action(k) for k in range(8)] == expected + expected
    assert rotation_action(5) == "prompt_refinement"
    with pytest.raises(ValidationError):
        rotation_action(-1)


def test_delta_guard_rule():
    assert delta_guard_decision(None, 0.1, 0.03, 0.05) == "none"
    assert delta_guard_decision(0.80, 0.80, 0.03, 0.05) == "none"
    assert delta_guard_decision(0.80, 0.78, 0.03, 0.05) == "none"
    assert delta_guard_decision(0.80, 0.76, 0.03, 0.05) == "delta"
    assert delta_guard_decision(0.80, 0.70, 0.03, 0.05) == "catastrophic"
    # an improvement is never a rollback
    assert delta_guard_decision(0.50, 0.90, 0.03, 0.05) == "none"


def test_delta_guard_boundary_is_exclusive():
    # drops of exactly the threshold do not trigger (dyadic values, exact in float)
    assert delta_guard_decision(1.0, 0.75, 0.25, 0.5) == "none"
    assert delta_guard_decision(1.0, 0.5, 0.25, 0.5) == "delta"


def test_extract_answer_takes_last_answer_line():
    assert extract_answer("Step 1: a\nAnswer: 42") == "42"
    assert extract_answer("Answer: 1\nAnswer: 2") == "2"
    assert extract_answer("  just text  ") == "just text"


# ----------------------------------------------------------------------
# config


def test_config_defaults_and_round_trip():
    config = EngineConfig()
    config.validate()
    assert config.seed == 42
    assert config.mastery_rise_rate == 0.6
    assert config.delta_guard == 0.03
    again = EngineConfig.from_dict(config.to_dict())
    assert again == config


def test_config_rejects_decay_at_or_above_rise():
    with pytest.raises(ValidationError, match="must exceed"):
        EngineConfig(mastery_rise_rate=0.3, mastery_decay_rate=0.3).validate()
    with pytest.raises(ValidationError, match="must exceed"):
        EngineConfig(mastery_rise_rate=0.2, mastery_decay_rate=0.4).validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        EngineConfig.from_dict({"learning_rate": 0.1})


def test_config_bounds():
    with pytest.raises(ValidationError):
        EngineConfig(catastrophic_threshold=0.01, delta_guard=0.03).validate()
    with pytest.raises(ValidationError):
        EngineConfig(routing_strategies=()).validate()
    with pytest.raises(ValidationError):
        EngineConfig(routing_strategies=("a", "a")).validate()
    with pytest.raises(ValidationError):
        EngineConfig(eval_workers=0).validate()
    with pytest.raises(ValidationError):
        EngineConfig(pool_size=0).validate()
    # the iteration's own snapshot would evict the boundary it rolls back to
    with pytest.raises(ValidationError, match="snapshot_history_limit must be >= 2"):
        EngineConfig(snapshot_history_limit=1).validate()


@pytest.mark.parametrize(
    "key, value",
    [
        ("iterations", "3"),
        ("iterations", True),
        ("iterations", 3.0),
        ("delta_guard", "0.1"),
        ("delta_guard", False),
        ("delta_guard", float("nan")),
        ("catastrophic_threshold", float("inf")),
        ("remeasure_after_update", 1),
        ("routing_strategies", 5),
        ("routing_strategies", "direct"),
        ("search_strategies", ["base", 2]),
    ],
)
def test_config_refuses_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValidationError, match=f"config key '{key}' must be"):
        EngineConfig.from_dict({key: value})


def test_config_takes_an_int_for_a_float_field_and_a_list_for_arms():
    config = EngineConfig.from_dict({"delta_guard": 0, "routing_strategies": ["direct", "chain"]})
    assert config.delta_guard == 0
    assert config.routing_strategies == ("direct", "chain")


@pytest.mark.parametrize("data", [[1, 2], "iterations", 3, None])
def test_config_from_something_not_an_object_is_refused(data):
    with pytest.raises(ValidationError, match="must be an object"):
        EngineConfig.from_dict(data)


# ----------------------------------------------------------------------
# bootstrap


def test_bootstrap_seeds_ontology():
    engine = make_engine()
    g = engine.graph
    assert len(g.skills) == 8
    assert len(g.task_types) == 6
    assert all(tt.resolver_skill_id is not None for tt in g.task_types.values())
    contexts = set(g.bandits)
    assert len([c for c in contexts if c.startswith("search/")]) == 6
    assert len([c for c in contexts if c.startswith("route/")]) == 8
    assert engine.graph.snapshot_ids()
    assert engine.backends.tracker.counts()[("train", "skill_discovery", "guidance")] == 1


def test_bootstrap_requires_empty_graph():
    engine = make_engine()
    with pytest.raises(ValidationError, match="empty graph"):
        engine.bootstrap()


def test_iteration_requires_bootstrap():
    config = EngineConfig(pool_size=12)
    env = make_env("static_qa", seed=42, pool_size=12)
    engine = build_simulated_engine(config, env)
    with pytest.raises(ValidationError, match="bootstrap"):
        engine.run_iteration(0)


# ----------------------------------------------------------------------
# iterations


def test_iteration_grows_protected_memory_and_respects_pool_cap():
    engine = make_engine(pool_size=24)
    before = sum(engine.graph.protected_counts().values())
    report = engine.run_iteration(0)
    assert len(report.per_question) == 24
    assert 0.0 <= report.accuracy <= 1.0
    assert sum(report.protected_counts_post.values()) > before
    assert report.rollback == "none"
    assert report.committed_accuracy == report.accuracy
    assert report.coverage["observed"] == 6
    assert report.coverage["selected"] == len(report.selected_task_types)


def test_masteries_move_and_report_is_serializable():
    import json

    engine = make_engine(pool_size=24)
    report = engine.run_iteration(0)
    assert any(m > 0.0 for m in report.masteries_post.values())
    data = report.to_dict()
    assert data["iteration"] == 0
    round_tripped = json.loads(json.dumps(data, sort_keys=True))
    assert round_tripped["accuracy"] == report.accuracy
    assert all(ctx.startswith(("search/", "route/")) for ctx in data["bandit_selections"])


def test_sequential_iterations_unlock_chain():
    engine = make_engine(env_name="sequential", pool_size=10)
    accuracies = [engine.run_iteration(k).accuracy for k in range(3)]
    assert all(0.0 <= a <= 1.0 for a in accuracies)
    # achievements double as the five scored tasks
    assert len(engine.run_iteration(3).per_question) == 5


def test_skill_cap_is_reported_not_raised():
    engine = make_engine(skill_growth_cap=8)
    report = engine.run_iteration(3)
    assert report.cap_errors
    assert len(engine.graph.skills) == 8


def test_skill_split_adds_structure():
    engine = make_engine()
    report = engine.run_iteration(3)
    if not report.cap_errors:
        assert len(engine.graph.skills) == 8 + len(report.selected_task_types)


# ----------------------------------------------------------------------
# delta guard in the loop


def force_drop(engine, drop):
    """Patch static evaluation to report a fixed accuracy drop."""
    real_eval = engine._evaluate_static

    def forced():
        out = real_eval()
        out["accuracy"] = engine.prev_accuracy - drop
        return out

    engine._evaluate_static = forced
    return real_eval


def selected_task_types(graph):
    """The task types with a committed selection."""
    return {tid for tid, tt in graph.task_types.items() if tt.k_last >= 0}


def test_forced_drop_rolls_back_mutable_state_exactly():
    # the least snapshot history keeps the boundary the rollback restores
    for limit in (64, 2):
        engine = make_engine(pool_size=30, iterations=8, snapshot_history_limit=limit)
        for k in range(3):
            engine.run_iteration(k)
        boundary = engine.graph.snapshot_ids()[-1]
        snap_state = engine.graph.state_dict()["snapshots"][str(boundary)]["mutable_state"]
        committed_before = engine.prev_accuracy
        selected_before = selected_task_types(engine.graph)
        success_before = engine.graph.protected_counts()["success_memory"]

        force_drop(engine, 0.04)
        report = engine.run_iteration(3)

        assert report.rollback == "delta"
        assert report.committed_accuracy == committed_before
        assert engine.prev_accuracy == committed_before
        g = engine.graph
        for sid_str, slots in snap_state["skills"].items():
            skill = g.skills[int(sid_str)]
            assert skill.mastery == slots["mastery"]
            assert skill.prompt_template == slots["prompt_template"]
            assert skill.strategy == slots["strategy"]
        for tid_str, slots in snap_state["task_types"].items():
            tt = g.task_types[int(tid_str)]
            assert tt.n_fail == slots["n_fail"]
            assert tt.k_last == slots["k_last"]
        for cid, slot_dict in snap_state["bandits"].items():
            assert g.bandits[cid].to_dict() == slot_dict
        # protected appends from the rolled-back iteration survive
        assert g.protected_counts()["success_memory"] > success_before
        # undone selections never count toward coverage
        assert selected_task_types(g) == selected_before
        assert report.coverage["selected"] == len(selected_before)


def test_small_drop_does_not_trigger():
    engine = make_engine(pool_size=30, iterations=8)
    for k in range(3):
        engine.run_iteration(k)
    force_drop(engine, 0.02)
    report = engine.run_iteration(3)
    assert report.rollback == "none"
    assert report.committed_accuracy == report.accuracy


def test_catastrophic_drop_is_flagged():
    engine = make_engine(pool_size=30, iterations=8)
    for k in range(2):
        engine.run_iteration(k)
    force_drop(engine, 0.10)
    report = engine.run_iteration(2)
    assert report.rollback == "catastrophic"
    assert report.committed_accuracy == engine.prev_accuracy


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_guard_reads_evaluate_score_of_the_graph_the_iteration_started_from(env_name):
    # without remeasure_after_update the guard's accuracy is EVALUATE's,
    # taken before UPDATE and EVOLVE write: the mean of the pool's rewards
    engine = make_engine(env_name)
    assert not engine.config.remeasure_after_update
    for k in range(4):
        report = engine.run_iteration(k)
        rewards = [result["reward"] for result in report.per_question]
        assert report.accuracy == sum(rewards) / len(rewards)


# ----------------------------------------------------------------------
# frozen inference


def test_eval_run_leaves_graph_untouched_and_calls_no_guidance():
    engine = make_engine(pool_size=24)
    for k in range(2):
        engine.run_iteration(k)
    record = engine.eval_run(pool_name="held_out", retrieval=True)
    assert record["graph_hash_before"] == record["graph_hash_after"]
    assert record["frozen"] is True
    assert record["questions"] == 24
    for key in record["calls"]:
        phase, agent, role = key.split("/")
        assert phase == "infer"
        assert agent == "learner"
        assert role == "execution"


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def _stale(engine, keys):
    """The ``Engine._bundle`` keys among ``keys`` that a pass must retrieve:
    those with no kept bundle, or whose kept bundle a write made stale."""
    return {
        key for key in keys if key not in engine._bundles or not engine.index.is_current(engine._bundles[key])
    }


def test_explorer_retrieves_exactly_when_asked(monkeypatch):
    engine = make_engine(env_name="sequential", pool_size=10)
    for k in range(2):
        engine.run_iteration(k)
    retrievals, actions, asked = [], [], []
    monkeypatch.setattr(
        engine.index, "retrieve_bundle", _counting(retrievals, engine.index.retrieve_bundle)
    )
    monkeypatch.setattr(
        engine.backends.execution, "act", _counting(actions, engine.backends.execution.act)
    )
    monkeypatch.setattr(engine, "_bundle", _counting(asked, engine._bundle))

    # a frozen eval without retrieval neither retrieves nor embeds
    embeds_before = engine.backends.embedder.calls
    record = engine.eval_run("evolution", retrieval=False)
    assert retrievals == [] and asked == []
    assert engine.backends.embedder.calls == embeds_before
    assert record["calls"] == {"infer/explorer/execution": len(actions)}
    assert actions

    # with retrieval it asks for a bundle once per step, and retrieves, and
    # embeds, once for each goal whose kept bundle is missing or stale, the
    # graph frozen; (goal, task type id, context length): one goal per task type
    del actions[:]
    kept = {key for key, bundle in engine._bundles.items() if engine.index.is_current(bundle)}
    record = engine.eval_run("evolution", retrieval=True)
    assert record["calls"] == {"infer/explorer/execution": len(actions)} and len(asked) == len(actions)
    goals = {(tt_id, text, False) for text, tt_id, _length in asked}
    assert sorted(args[1] for args in retrievals) == sorted(tt_id for tt_id, _goal, _long in goals - kept)
    assert 0 < len(retrievals) <= len(goals)
    assert engine.backends.embedder.calls - embeds_before == len(retrievals)

    # a training iteration asks for a bundle once per explorer step, and
    # retrieves exactly when the step's kept bundle is missing or stale
    del actions[:], retrievals[:]
    steps = []
    bundle = engine._bundle

    def watched(text, tt_id, context_length):
        key = (tt_id, text, False)
        stale = bool(_stale(engine, [key]))
        before = len(retrievals)
        out = bundle(text, tt_id, context_length)
        steps.append((key, stale, len(retrievals) - before))
        return out

    monkeypatch.setattr(engine, "_bundle", watched)
    engine.run_iteration(2)
    assert actions and len(steps) == len(actions)
    assert all(retrieved == stale for _key, stale, retrieved in steps)
    # the episode writes to no exemplar block, so it retrieves at most once
    # per goal, and its first step toward each goal the eval asked for
    # reuses the eval's bundle
    retrieved = [key for key, _stale, n in steps if n]
    assert len(retrieved) == len(set(retrieved))
    first = {}
    for key, stale, _n in steps:
        first.setdefault(key, stale)
    reused = [stale for key, stale in first.items() if key in goals]
    assert reused and not any(reused)


def test_sequential_remeasure_plays_an_episode_that_writes_nothing():
    engine = make_engine(env_name="sequential", seed=42, iterations=5, remeasure_after_update=True)
    reports = [engine.run_iteration(k) for k in range(5)]
    assert all(report.accuracy > 0.0 for report in reports)
    # an episode that unlocks an achievement records no recipe
    before = engine.graph.last_seq
    assert engine._remeasure() == 1.0
    assert engine.graph.last_seq == before


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_remeasure_is_judged_in_one_batch_per_task_type(env_name):
    # on top of EVALUATE's calls, a static re-measure asks the critic once
    # per task type of its pool, as EVALUATE does; an episode asks it nothing
    critic = {}
    for remeasure in (False, True):
        engine = make_engine(env_name=env_name, remeasure_after_update=remeasure)
        critic[remeasure] = [engine.run_iteration(k).agent_calls.get("critic", 0) for k in range(3)]
    pool = engine.env.pool("evolution")[: engine.config.pool_size]
    per_pass = len({q.task_type for q in pool}) if env_name == "static_qa" else 0
    assert critic[False] == [per_pass] * 3
    assert critic[True] == [2 * per_pass] * 3


def _bundle_keys(engine, pool):
    """The distinct ``Engine._bundle`` keys of a pool: (task type id,
    question text, long context)."""
    threshold = engine.config.long_context_threshold
    return {
        (engine.graph.task_type_by_name(q.task_type).id, q.text, len(q.context) >= threshold)
        for q in pool
    }


def _counting_retrievals(monkeypatch, engine):
    """Record the (task type id, long context, query bytes) of each retrieval."""
    calls = []
    retrieve = engine.index.retrieve_bundle
    threshold = engine.config.long_context_threshold

    def wrapper(query_vector, task_type_id, context_length, **kwargs):
        calls.append((task_type_id, context_length >= threshold, query_vector.tobytes()))
        return retrieve(query_vector, task_type_id, context_length, **kwargs)

    monkeypatch.setattr(engine.index, "retrieve_bundle", wrapper)
    return calls


@pytest.mark.parametrize("pass_name", ["evaluate", "held_out", "remeasure"])
def test_a_pass_retrieves_once_per_distinct_question(monkeypatch, pass_name):
    # a pass reads a graph that does not change under it, so it retrieves
    # at most once per distinct question: exactly for the questions whose
    # kept bundle is missing, or stale after a write since it was retrieved
    engine = make_engine(pool_size=200, iterations=6)
    for k in range(4):
        engine.run_iteration(k)
    if pass_name == "held_out":
        pool = engine.env.pool("held_out")
        run_pass = reread = lambda: engine.eval_run(retrieval=True)
    else:
        pool = engine.env.pool("evolution")[: engine.config.pool_size]
        reread = engine._remeasure
        # the learner answers in EVALUATE only; the rest of the iteration
        # retrieves nothing
        run_pass = (lambda: engine.run_iteration(4)) if pass_name == "evaluate" else reread
    keys = _bundle_keys(engine, pool)
    # the pool repeats questions, so a retrieval per question would show
    assert len(keys) < len(pool)
    stale = _stale(engine, keys)
    embed = engine.backends.embedder.embed
    calls = _counting_retrievals(monkeypatch, engine)
    run_pass()
    assert len(calls) == len(set(calls)) == len(stale) > 0
    assert set(calls) == {(tt_id, long, embed(text).tobytes()) for tt_id, text, long in stale}
    # no write between two read-only passes: the second retrieves nothing
    reread()
    del calls[:]
    reread()
    assert calls == []


def test_a_graph_write_between_two_answers_retrieves_again(monkeypatch):
    engine = make_engine(pool_size=24)
    engine.run_iteration(0)
    q = engine.env.pool("evolution")[0]
    tt = engine.graph.task_type_by_name(q.task_type)
    calls = _counting_retrievals(monkeypatch, engine)
    first = engine._answer_question(q, tt.id, tt.resolver_skill_id, "base")
    assert engine._answer_question(q, tt.id, tt.resolver_skill_id, "base") == first
    assert len(calls) == 1
    # the question's own solved exemplar: a write to a block the bundle read
    memory.harvest_success(
        engine.index,
        engine.backends.embedder.embed,
        tt.id,
        tt.resolver_skill_id,
        memory.SuccessPayload(question=q.text, reasoning_trace="worked", answer=q.answer),
    )
    second = engine._answer_question(q, tt.id, tt.resolver_skill_id, "base")
    assert len(calls) == 2
    result, _raw = second
    assert result.bundle_success >= 1 and result.predicted == q.answer
    # a write that leaves both of its blocks as they were keeps the bundle
    engine.graph.set_mastery(tt.resolver_skill_id, 0.5)
    engine.graph.bandit_update(f"search/{tt.id}", "base", 1)
    assert engine._answer_question(q, tt.id, tt.resolver_skill_id, "base") == second
    assert len(calls) == 2


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_every_kept_bundle_and_prompt_equals_a_fresh_one(monkeypatch, env_name, k):
    # a whole run, re-measure on and rollbacks forced, and frozen evals with
    # and without retrieval on every pool: whatever the engine kept, each
    # bundle equals a fresh retrieval and each prompt a fresh render
    engine = make_engine(
        env_name=env_name, pool_size=60, iterations=6, seed=5, retrieval_top_k=k, remeasure_after_update=True
    )
    threshold = engine.config.long_context_threshold
    kept_bundle, render = engine._bundle, engine_module.format_bundle
    served, retrieved, rendered = [], [], []

    def checked_bundle(text, tt_id, context_length):
        bundle = kept_bundle(text, tt_id, context_length)
        fresh = engine.index.retrieve_bundle(
            engine.backends.embedder.embed(text), tt_id, context_length, k=k, long_context_threshold=threshold
        )
        assert bundle == fresh
        served.append(bundle)
        return bundle

    def checked_render(bundle, *args, **kwargs):
        prompt = render(bundle, *args, **kwargs)
        # a copy carries no rendered blocks, so it is rendered afresh
        assert prompt == render(dataclasses.replace(bundle), *args, **kwargs)
        rendered.append(prompt)
        return prompt

    monkeypatch.setattr(engine, "_bundle", checked_bundle)
    monkeypatch.setattr(engine_module, "format_bundle", checked_render)
    monkeypatch.setattr(engine.index, "retrieve_bundle", _counting(retrieved, engine.index.retrieve_bundle))
    remeasure = engine._remeasure

    def dropping():
        # a drop on every odd iteration makes the delta guard roll back
        accuracy = remeasure()
        if engine.graph.current_iter % 2 and engine.prev_accuracy is not None:
            return engine.prev_accuracy - 0.2
        return accuracy

    monkeypatch.setattr(engine, "_remeasure", dropping)
    reports = [engine.run_iteration(it) for it in range(6)]
    assert any(report.rollback != "none" for report in reports)
    pools = ["evolution", "held_out"] if env_name == "static_qa" else ["evolution"]
    for pool in pools:
        for retrieval in (True, False):
            engine.eval_run(pool, retrieval=retrieval)
    # each fresh retrieval above is counted too: the engine's own are the rest
    assert served and rendered
    assert len(retrieved) - len(served) < len(served)


def test_an_iteration_scans_the_index_only_after_new_rows(monkeypatch):
    # an index block rescans a query only when it has gained a distinct row
    # since the query's last scan, so once the pool saturates and stores no
    # new vector, an iteration answers every question without a scan
    engine = make_engine(pool_size=40, seed=3, iterations=10)
    scans = []
    vecdot = np.vecdot

    def counting(rows, query):
        scans.append(len(rows))
        return vecdot(rows, query)

    monkeypatch.setattr(np, "vecdot", counting)

    def n_rows():
        return sum(len(block.rows) for block in engine.index._blocks.values())

    rows = [n_rows()]
    per_iteration = []
    for k in range(10):
        before = len(scans)
        engine.run_iteration(k)
        per_iteration.append(len(scans) - before)
        rows.append(n_rows())
    for k in range(1, 10):
        # rows[k] is the row count after iteration k - 1
        if per_iteration[k]:
            assert rows[k] > rows[k - 1]
    assert per_iteration == [0, 38, 34, 14, 7, 0, 0, 0, 0, 0]


def test_eval_retrieval_never_hurts():
    engine = make_engine(pool_size=24)
    for k in range(3):
        engine.run_iteration(k)
    with_ret = engine.eval_run(pool_name="held_out", retrieval=True)
    without = engine.eval_run(pool_name="held_out", retrieval=False)
    assert with_ret["accuracy"] >= without["accuracy"]


def test_eval_on_training_pool_uses_harvested_exemplars():
    engine = make_engine(pool_size=24)
    for k in range(2):
        engine.run_iteration(k)
    record = engine.eval_run(pool_name="evolution", retrieval=True)
    assert record["pool"] == "evolution"
    assert record["accuracy"] >= 0.5


# ----------------------------------------------------------------------
# the retired eval_workers key and oracle mode


def test_eval_workers_is_ignored_and_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"EVALUATE started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    serial = make_engine(pool_size=30)
    workers = make_engine(pool_size=30, eval_workers=4)
    search_arms = set()
    for k in range(4):
        a = serial.run_iteration(k).to_dict()
        b = workers.run_iteration(k).to_dict()
        assert a == b
        assert serial.graph.canonical_bytes() == workers.graph.canonical_bytes()
        search_arms.update(row["search_arm"] for row in a["per_question"])
    # some questions were answered on cascade arms, whose routes the
    # curriculum override redirects
    assert "cascade" in search_arms


def test_cascade_context_is_computed_once_per_pair_in_a_pass(monkeypatch):
    engine = make_engine(pool_size=30)
    engine.run_iteration(0)
    calls = {"lattice": [], "principles": []}

    def counting(name, fn):
        def wrapper(graph, node_id):
            calls[name].append(node_id)
            return fn(graph, node_id)

        return wrapper

    monkeypatch.setattr(
        engine_module, "render_skill_lattice", counting("lattice", engine_module.render_skill_lattice)
    )
    monkeypatch.setattr(
        engine_module, "cascade_principles", counting("principles", engine_module.cascade_principles)
    )
    evaluation = engine._evaluate_static()
    pairs = [
        (r.task_type_id, r.skill_id) for _q, r, _t in evaluation["answered"] if r.search_arm == "cascade"
    ]
    assert len(pairs) > len(set(pairs)) > 0
    assert sorted(calls["lattice"]) == sorted(tt for tt, _ in set(pairs))
    assert sorted(calls["principles"]) == sorted(skill for _, skill in set(pairs))


def test_cascade_context_follows_a_graph_write():
    engine = make_engine(pool_size=12)
    prompts = []
    complete = engine.backends.execution.complete

    def capture(prompt, meta=None, temperature=0.0):
        prompts.append(prompt)
        return complete(prompt, meta=meta, temperature=temperature)

    engine.backends.execution.complete = capture
    q = engine.env.pool("evolution")[0]
    tt = engine.graph.task_type_by_name(q.task_type)
    skill = engine.graph.skills[tt.resolver_skill_id]
    for _ in range(2):
        engine._answer_question(q, tt.id, skill.id, "cascade")
    engine.graph.set_mastery(skill.id, 0.75)
    engine._answer_question(q, tt.id, skill.id, "cascade")
    assert prompts[0] == prompts[1]
    assert f"- {skill.name} (mastery 0.00)" in prompts[1]
    assert f"- {skill.name} (mastery 0.75)" in prompts[2]


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param(lambda n: "1" * (n - 1), id="one-short"),
        pytest.param(lambda n: "1" * (n + 1), id="one-long"),
        pytest.param(lambda n: "1" * (n - 1) + "x", id="not-a-verdict"),
    ],
)
def test_judge_reply_that_does_not_fit_its_batch_is_a_backend_error(reply):
    engine = make_engine(pool_size=12)

    def judge(prompt, meta=None, temperature=0.0):
        return reply(len(meta["items"]))

    engine.backends.judge.complete = judge
    with pytest.raises(BackendError, match="judge reply"):
        engine.run_iteration(0)


def test_sequential_corrections_are_filed_under_the_achievement_question():
    engine = make_engine("sequential", seed=42, iterations=3)
    for k in range(3):
        engine.run_iteration(k)
    graph = engine.graph
    specific = [
        node for node in graph.experience.values()
        if node.outcome == "failure_memory" and node.payload["kind"] == "specific"
    ]
    assert specific
    for node in specific:
        assert node.payload["question"] == f"achieve {graph.task_types[node.task_type_id].name}"
    # the success memories of the same achievements use the same text
    successes = {
        node.payload["question"] for node in graph.experience.values()
        if node.outcome == "success_memory"
    }
    assert successes <= {q.text for q in engine.env.pool("evolution")}


def test_question_result_dict_equals_asdict():
    engine = make_engine(pool_size=12)
    _q, result, _trace = engine._evaluate_static()["answered"][0]
    assert result.to_dict() == dataclasses.asdict(result)


def test_oracle_retrieval_accuracy_never_drops(monkeypatch):
    monkeypatch.setattr(engine_module.Engine, "_bundle", oracle_bundle)
    engine = make_engine(pool_size=30, iterations=6)
    per_task_last: dict[int, float] = {}
    for k in range(5):
        report = engine.run_iteration(k)
        assert report.rollback == "none"
        by_tt: dict[int, list[int]] = {}
        for row in report.per_question:
            by_tt.setdefault(row["task_type_id"], []).append(row["reward"])
        for tt_id, rewards in by_tt.items():
            rate = sum(rewards) / len(rewards)
            assert rate >= per_task_last.get(tt_id, 0.0) - 1e-12
            per_task_last[tt_id] = rate


# ----------------------------------------------------------------------
# call accounting


def test_call_audit_fractions():
    reports = [
        {
            "agent_calls": {"skill_discovery": 3, "navigator": 1, "learner": 16},
            "tier_calls": {"guidance": 4, "execution": 16, "judge": 6, "embedder": 99},
        }
    ]
    evals = [
        {
            "calls": {
                "infer/learner/execution": 40,
                "infer/navigator/guidance": 2,
                "infer/learner/embedder": 7,
                "train/learner/execution": 5,
            }
        }
    ]
    audit = call_audit(reports, evals)
    assert audit["train_guidance_calls"] == 4
    assert audit["train_total_calls"] == 26
    assert audit["train_guidance_fraction"] == pytest.approx(4 / 26)
    assert audit["infer_total_calls"] == 42
    assert audit["infer_guidance_calls"] == 2
    assert audit["infer_guidance_fraction"] == pytest.approx(2 / 42)


def test_call_audit_empty():
    audit = call_audit([], [])
    assert audit["train_guidance_fraction"] == 0.0
    assert audit["infer_guidance_fraction"] == 0.0
