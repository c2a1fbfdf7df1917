"""Synthetic environments: fixed pools, arithmetic truth, chain mechanics."""

import re

import pytest

from evoloop import ENVS, SequentialChainEnv, StaticQAEnv, ValidationError, make_env

# independent recomputation of each answer from the question's own text
ANSWER_ORACLES = {
    "value_extraction": (
        re.compile(r"A crate holds (\d+) boxes and every box holds (\d+) parts"),
        lambda a, b: a * b,
    ),
    "linear_equation": (
        re.compile(r"Solve for x: (\d+)x \+ (\d+) = (\d+)\."),
        lambda a, b, c: (c - b) // a,
    ),
    "ratio_scaling": (
        re.compile(r"(\d+) tokens cost (\d+) coins\. How many coins do (\d+) tokens"),
        lambda a, b, c: (b // a) * c,
    ),
    "combined_total": (
        re.compile(r"Bay one recorded (\d+) sealed units\. Bay two recorded (\d+)"),
        lambda x, y: x + y,
    ),
    "multi_step_chain": (
        re.compile(
            r"Rack A holds (\d+) cartons and rack B holds (\d+) cartons.*grow to "
            r"(\d+) times",
            re.S,
        ),
        lambda x, y, f: (x + y) * f,
    ),
    "quantity_compare": (
        re.compile(r"Which quantity is larger: (\d+) dozens .* or the sum (\d+) \+ (\d+)\?"),
        lambda a, c, d: max(a * 12, c + d),
    ),
}


def test_registry_and_unknown_name():
    assert set(ENVS) == {"static_qa", "sequential"}
    assert isinstance(make_env("static_qa", seed=1, pool_size=6), StaticQAEnv)
    assert isinstance(make_env("sequential", seed=1), SequentialChainEnv)
    with pytest.raises(ValidationError, match="unknown env"):
        make_env("imaginary", seed=1)


# ----------------------------------------------------------------------
# static QA world


def test_static_pools_are_deterministic_and_cached():
    a = StaticQAEnv(seed=7, pool_size=24)
    b = StaticQAEnv(seed=7, pool_size=24)
    assert a.pool("evolution") == b.pool("evolution")
    assert a.pool("held_out") == b.pool("held_out")
    assert a.pool("evolution") is a.pool("evolution")
    c = StaticQAEnv(seed=8, pool_size=24)
    assert [q.text for q in c.pool("evolution")] != [q.text for q in a.pool("evolution")]


def test_static_pools_are_disjoint_splits():
    env = StaticQAEnv(seed=3, pool_size=30)
    train_ids = {q.qid for q in env.pool("evolution")}
    held_ids = {q.qid for q in env.pool("held_out")}
    assert len(train_ids) == 30 and len(held_ids) == 30
    assert not train_ids & held_ids


@pytest.mark.parametrize(
    "env_name, name, pools",
    [("static_qa", "train", "evolution, held_out"), ("sequential", "held_out", "evolution")],
)
def test_env_refuses_a_pool_it_does_not_have(env_name, name, pools):
    with pytest.raises(ValidationError, match=f"^env '{env_name}' has no pool '{name}'; its pools: {pools}$"):
        make_env(env_name, seed=1, pool_size=12).pool(name)


def test_static_task_types_cycle_evenly():
    env = StaticQAEnv(seed=3, pool_size=12)
    counts = {}
    for q in env.pool("evolution"):
        counts[q.task_type] = counts.get(q.task_type, 0) + 1
    assert counts == {tt: 2 for tt in StaticQAEnv.TASK_TYPES}


def test_static_answers_match_question_text():
    env = StaticQAEnv(seed=11, pool_size=60)
    for q in env.pool("evolution") + env.pool("held_out"):
        pattern, compute = ANSWER_ORACLES[q.task_type]
        match = pattern.search(q.context + "\n" + q.text)
        assert match, f"{q.qid}: text did not parse"
        assert int(q.answer) == compute(*map(int, match.groups())), q.qid


def test_static_long_context_only_on_marked_types():
    env = StaticQAEnv(seed=5, pool_size=36)
    for q in env.pool("evolution"):
        if q.task_type in StaticQAEnv.LONG_CONTEXT_TYPES:
            assert len(q.context) > 400
        else:
            assert q.context == ""


def test_static_question_covers_both_splits_and_builds_only_the_one_asked(monkeypatch):
    built = []
    make = StaticQAEnv._make_question

    def recording(self, split, i):
        built.append(split)
        return make(self, split, i)

    monkeypatch.setattr(StaticQAEnv, "_make_question", recording)
    env = StaticQAEnv(seed=2, pool_size=12)
    assert env.question("q-heldout-0011").qid == "q-heldout-0011"
    assert set(built) == {"heldout"}
    for name in ("held_out", "evolution"):
        for q in env.pool(name):
            assert env.question(q.qid) is q
    assert built.count("train") == built.count("heldout") == 12


@pytest.mark.parametrize(
    "qid",
    [1, None, ("q-train-0000",), "q-train-1", "q-train-0200", "q-heldout-0200",
     "q-train-00001", "ach-gather_wood", "q-test-0000", ""],
)
def test_static_question_refuses_an_id_no_pool_holds(qid):
    env = StaticQAEnv(seed=2, pool_size=200)
    with pytest.raises(KeyError):
        env.question(qid)


def test_static_skill_graph_shape():
    names = [name for name, _ in StaticQAEnv.SKILLS]
    assert len(names) == 8 and len(set(names)) == 8
    for _, prereqs in StaticQAEnv.SKILLS:
        assert all(p in names for p in prereqs)
    assert set(StaticQAEnv.RESOLVER) == set(StaticQAEnv.TASK_TYPES)
    assert set(StaticQAEnv.RESOLVER.values()) <= set(names)


def test_static_pool_size_validation():
    with pytest.raises(ValidationError):
        StaticQAEnv(seed=1, pool_size=0)


def test_static_decompositions_name_known_skills():
    env = StaticQAEnv(seed=4, pool_size=18)
    names = {name for name, _ in StaticQAEnv.SKILLS}
    for q in env.pool("evolution"):
        assert q.decomposition, q.qid
        for skill, note in q.decomposition:
            assert skill in names
            assert note


# ----------------------------------------------------------------------
# sequential chain world


def test_chain_constants():
    env = SequentialChainEnv(seed=0)
    assert env.ACHIEVEMENTS == [
        "gather_wood",
        "craft_plank",
        "build_bench",
        "forge_tool",
        "complete_quest",
    ]
    assert env.actions() == env.ACHIEVEMENTS + ["wait", "scout"]
    assert env.EPISODE_STEPS == 12
    assert env.TASK_TYPES == env.ACHIEVEMENTS
    assert env.RESOLVER == {a: a for a in env.ACHIEVEMENTS}


def test_chain_unlocks_in_order_only():
    env = SequentialChainEnv(seed=0)
    state = env.reset()
    assert state.step == 0 and state.unlocked == []
    assert env.intended_action(state) == "gather_wood"

    # out-of-order achievement does nothing but consume the step
    assert env.step(state, "craft_plank") is None
    assert state.unlocked == [] and state.step == 1

    assert env.step(state, "gather_wood") == "gather_wood"
    assert env.intended_action(state) == "craft_plank"
    assert env.step(state, "craft_plank") == "craft_plank"
    assert state.unlocked == ["gather_wood", "craft_plank"]


def test_chain_extra_actions_never_unlock():
    env = SequentialChainEnv(seed=0)
    state = env.reset()
    assert env.step(state, "wait") is None
    assert env.step(state, "scout") is None
    assert state.unlocked == [] and state.step == 2


def test_chain_full_walkthrough():
    env = SequentialChainEnv(seed=0)
    state = env.reset()
    for name in env.ACHIEVEMENTS:
        assert env.step(state, name) == name
    assert state.unlocked == env.ACHIEVEMENTS
    assert env.intended_action(state) is None
    assert env.step(state, "gather_wood") is None


def test_chain_rejects_unknown_action():
    env = SequentialChainEnv(seed=0)
    with pytest.raises(ValidationError, match="unknown action"):
        env.step(env.reset(), "teleport")


def test_chain_state_id_tracks_progress():
    env = SequentialChainEnv(seed=0)
    state = env.reset()
    assert state.state_id == "s0-u0"
    env.step(state, "gather_wood")
    assert state.state_id == "s1-u1"


def test_chain_question_covers_its_achievements():
    env = SequentialChainEnv(seed=0)
    assert [env.question(f"ach-{a}") for a in env.ACHIEVEMENTS] == env.pool("evolution")
    for a in env.ACHIEVEMENTS:
        q = env.question(f"ach-{a}")
        assert (q.task_type, q.text, q.answer, q.decomposition) == (a, f"achieve {a}", "unlocked", ())
    for qid in ("ach-teleport", "q-train-0000", "gather_wood", 1, None):
        with pytest.raises(KeyError):
            env.question(qid)
