"""Thompson sampling: warm-up discipline, posterior updates, determinism.

A slot is driven the way the engine drives it, through a graph: a Thompson
pick is followed by its logged ``bandit_record_draw``, and every reward
goes through ``bandit_update``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop import (
    KnowledgeGraph,
    NotFoundError,
    ValidationError,
    exploit_arm,
    new_slot,
    posterior_mean,
    select_arm,
    update_arm,
)

from oracles import beta_best_share


def _slot_with(counts, warmup=0, seed=0):
    slot = new_slot("ctx", sorted(counts), warmup_pulls=warmup, rng_seed=seed)
    for arm, (s, f) in counts.items():
        slot.successes[arm] = s
        slot.failures[arm] = f
    return slot


def _bandit_graph(arm_ids, warmup, seed):
    graph = KnowledgeGraph()
    graph.bandit_init("ctx", arm_ids, warmup_pulls=warmup, rng_seed=seed)
    return graph


def _pick(graph):
    """Select an arm of the graph's slot and log the draw a Thompson pick
    consumes, as the engine does."""
    arm, thompson = select_arm(graph.bandits["ctx"])
    if thompson:
        graph.bandit_record_draw("ctx", arm)
    return arm


def test_underwarmed_arm_is_forced():
    slot = _slot_with({"arm1": (15, 5), "arm2": (3, 2)}, warmup=20)
    arm, thompson = select_arm(slot)
    assert arm == "arm2"
    assert thompson is False


def test_single_arm():
    slot = new_slot("ctx", ["only"], warmup_pulls=0)
    assert select_arm(slot) == ("only", True)


def test_warmup_walks_arms_round_robin_by_id():
    graph = _bandit_graph(["c", "a", "b"], warmup=2, seed=1)
    order = []
    for _ in range(6):
        arm = _pick(graph)
        order.append(arm)
        graph.bandit_update("ctx", arm, 1)
    assert order == ["a", "b", "c", "a", "b", "c"]


def test_no_thompson_draw_before_full_warmup():
    graph = _bandit_graph(["a", "b"], warmup=3, seed=1)
    for i in range(6):
        arm, thompson = select_arm(graph.bandits["ctx"])
        assert thompson is False, f"thompson draw at pull {i} during warm-up"
        graph.bandit_update("ctx", arm, i % 2)
    assert select_arm(graph.bandits["ctx"])[1] is True


def test_update_counts():
    slot = new_slot("ctx", ["a"], warmup_pulls=0)
    update_arm(slot, "a", 1)
    assert (slot.successes["a"], slot.failures["a"], slot.pulls("a")) == (1, 0, 1)
    slot2 = _slot_with({"a": (3, 2)})
    update_arm(slot2, "a", 0)
    assert (slot2.successes["a"], slot2.failures["a"], slot2.pulls("a")) == (3, 3, 6)


def test_update_validation():
    slot = new_slot("ctx", ["a"], warmup_pulls=0)
    with pytest.raises(ValidationError):
        update_arm(slot, "a", 2)
    with pytest.raises(ValidationError):
        update_arm(slot, "a", 0.5)
    with pytest.raises(NotFoundError):
        update_arm(slot, "zz", 1)


def test_new_slot_validation():
    with pytest.raises(ValidationError):
        new_slot("ctx", [])
    with pytest.raises(ValidationError):
        new_slot("ctx", ["a", "a"])
    with pytest.raises(ValidationError):
        new_slot("ctx", ["a"], warmup_pulls=-1)
    # context and arm ids are strings
    for context_id, arm_ids in (
        (5, ["a"]), (None, ["a"]), ("ctx", [1, 2]), ("ctx", ["a", 1.0]), ("ctx", [("a",)])
    ):
        with pytest.raises(ValidationError, match="must be a str"):
            new_slot(context_id, arm_ids)


def test_posterior_mean_is_laplace_smoothed():
    slot = _slot_with({"a": (0, 0), "b": (9, 0)})
    assert posterior_mean(slot, "a") == 0.5
    assert posterior_mean(slot, "b") == 10 / 11


def test_exploit_arm_picks_highest_mean_then_id():
    slot = _slot_with({"a": (5, 5), "b": (9, 1), "c": (9, 1)})
    assert exploit_arm(slot) == "b"


def test_lopsided_posteriors_dominate():
    # P(Beta(101, 2) < Beta(2, 101)) is astronomically small; the
    # Monte-Carlo oracle pins the share and the bandit must match it
    share = beta_best_share([100, 1], [1, 100], n_draws=10_000, seed=7)
    assert share >= 0.99
    wins = 0
    for seed in range(10_000):
        slot = _slot_with({"arm1": (100, 1), "arm2": (1, 100)}, seed=seed)
        if select_arm(slot)[0] == "arm1":
            wins += 1
    assert wins / 10_000 >= 0.99


def test_selection_sequence_is_deterministic():
    def run(seed):
        graph = _bandit_graph(["a", "b", "c"], warmup=1, seed=seed)
        picks = []
        for i in range(30):
            arm = _pick(graph)
            graph.bandit_update("ctx", arm, 1 if (i * 7 + hash(arm)) % 3 else 0)
            picks.append(arm)
        return picks

    assert run(5) == run(5)
    runs = {tuple(run(s)) for s in range(8)}
    assert len(runs) > 1


def test_same_state_same_draw_until_counter_moves():
    slot = _slot_with({"a": (4, 2), "b": (2, 4)}, seed=11)
    first = select_arm(slot)
    assert select_arm(slot) == first
    slot.draws += 1
    # the pick may or may not change, but the call must stay well defined
    arm, thompson = select_arm(slot)
    assert thompson is True and arm in {"a", "b"}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=60),
    st.integers(0, 5),
    st.integers(0, 2**31 - 1),
)
def test_pull_accounting_invariant(rewards, warmup, seed):
    graph = _bandit_graph(["x", "y"], warmup=warmup, seed=seed)
    for r in rewards:
        graph.bandit_update("ctx", _pick(graph), r)
    slot = graph.bandits["ctx"]
    assert sum(slot.pulls(a) for a in ("x", "y")) == len(rewards)
    assert slot.draws == max(0, len(rewards) - 2 * warmup)
