"""Selector, waiting bound, mastery ratchet, learnable frontier."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop import (
    CycleError,
    RatchetParams,
    SelectorParams,
    TaskStat,
    ValidationError,
    check_ratchet_trace,
    coverage_gap_bound,
    learnable_frontier,
    mastery_update,
    round_robin_select,
    selection_score,
)

from oracles import (
    frontier_reference,
    gap_bound_reference,
    mastery_reference,
    ratchet_ok_fast,
    ratchet_violations_bruteforce,
    select_reference,
)

P_DEFAULT = SelectorParams(recency_weight=0.3, max_targets=3)
R_DEFAULT = RatchetParams(rise_rate=0.6, decay_rate=0.1)


# ----------------------------------------------------------------------
# selector


def test_single_type_selected():
    assert round_robin_select([TaskStat("a", 0, -1)], 0, P_DEFAULT) == ["a"]


def test_failure_heavy_type_loses_to_long_waiting_type():
    # s(A) = 5 + 0.3 * 0 = 5.0, s(B) = 0 + 0.3 * 20 = 6.0
    k = 25
    stats = [TaskStat("A", 5, k), TaskStat("B", 0, k - 20)]
    params = SelectorParams(recency_weight=0.3, max_targets=1)
    assert round_robin_select(stats, k, params) == ["B"]


def test_score_values():
    assert selection_score(5, 25, 25, 0.3) == 5.0
    assert selection_score(0, 25, 5, 0.3) == pytest.approx(6.0)


def test_selector_tie_breaks_on_gap_then_id():
    params = SelectorParams(recency_weight=0.5, max_targets=1)
    # equal scores 2.0; "b" has the larger gap
    stats = [TaskStat("a", 2, 4), TaskStat("b", 0, 0)]
    assert round_robin_select(stats, 4, params) == ["b"]
    # fully tied rows fall back to the smaller id
    stats = [TaskStat("d", 1, 2), TaskStat("c", 1, 2)]
    assert round_robin_select(stats, 4, params) == ["c"]


def test_selector_validation():
    with pytest.raises(ValidationError):
        round_robin_select([TaskStat("a", -1, 0)], 1, P_DEFAULT)
    with pytest.raises(ValidationError):
        round_robin_select([TaskStat("a", 0, 5)], 1, P_DEFAULT)
    with pytest.raises(ValidationError):
        round_robin_select([TaskStat("a", 0, 0), TaskStat("a", 1, 0)], 1, P_DEFAULT)
    with pytest.raises(ValidationError):
        SelectorParams(recency_weight=0.0)
    with pytest.raises(ValidationError):
        SelectorParams(max_targets=0)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(-1, 40)),
        min_size=1,
        max_size=10,
        unique_by=lambda t: t[0],
    ),
    st.sampled_from(["0.25", "0.5", "1.0"]),
    st.integers(1, 3),
)
def test_selector_matches_exact_oracle(rows, weight, m):
    # dyadic weights make float scoring exact, so the Fraction oracle and
    # the package must agree row for row
    k = 40
    stats = [(f"t{tid}", n_fail, k_last) for tid, n_fail, k_last in rows]
    expected = select_reference(stats, k, weight, m)
    params = SelectorParams(recency_weight=float(weight), max_targets=m)
    got = round_robin_select([TaskStat(*s) for s in stats], k, params)
    assert got == expected


# ----------------------------------------------------------------------
# waiting bound


def test_bound_single_type():
    assert coverage_gap_bound(1, 0, SelectorParams(recency_weight=0.7, max_targets=1)) == 1


def test_bound_formula_value():
    params = SelectorParams(recency_weight=0.3, max_targets=3)
    assert coverage_gap_bound(27, 3, params) == 19


def test_bound_uses_exact_arithmetic():
    # binary 3 / 0.3 lands just above 10; a float ceil would give 20
    params = SelectorParams(recency_weight=0.3, max_targets=3)
    assert coverage_gap_bound(27, 3, params) == math.ceil(
        Fraction(3, 1) / Fraction(3, 10) + Fraction(27, 3)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 50),
    st.sampled_from(["0.1", "0.3", "1.0", "0.25", "0.7"]),
    st.integers(1, 4),
)
def test_bound_matches_reference(n_types, n_max, weight, m):
    params = SelectorParams(recency_weight=float(weight), max_targets=m)
    assert coverage_gap_bound(n_types, n_max, params) == gap_bound_reference(
        n_types, n_max, weight, m
    )


def test_bound_validation():
    with pytest.raises(ValidationError):
        coverage_gap_bound(0, 1, P_DEFAULT)
    with pytest.raises(ValidationError):
        coverage_gap_bound(1, -1, P_DEFAULT)


def test_selector_respects_bound_over_adversarial_run():
    # every type's wait stays within the bound while failures keep landing
    # on a dominant subset; the acceptance suite sweeps this exhaustively
    params = SelectorParams(recency_weight=0.3, max_targets=1)
    n_types = 5
    n_fail = {t: 0 for t in range(n_types)}
    k_last = {t: -1 for t in range(n_types)}
    waited = {t: 0 for t in range(n_types)}
    for k in range(120):
        for t in (0, 1):
            if n_fail[t] < 4:
                n_fail[t] += 1
        bound = coverage_gap_bound(n_types, max(n_fail.values()), params)
        for t in range(n_types):
            assert k - k_last[t] <= bound, (t, k)
        stats = [TaskStat(t, n_fail[t], k_last[t]) for t in range(n_types)]
        for t in round_robin_select(stats, k, params):
            k_last[t] = k


# ----------------------------------------------------------------------
# mastery ratchet


def test_ratchet_point_values():
    assert mastery_update(0.5, 0.5, R_DEFAULT) == 0.5
    assert abs(mastery_update(0.5, 1.0, R_DEFAULT) - 0.8) < 1e-15
    assert abs(mastery_update(0.8, 0.0, R_DEFAULT) - 0.72) < 1e-15


def test_ratchet_fixed_points():
    for value in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert mastery_update(value, value, R_DEFAULT) == value


def test_ratchet_validation():
    with pytest.raises(ValidationError):
        mastery_update(-0.1, 0.5, R_DEFAULT)
    with pytest.raises(ValidationError):
        mastery_update(0.5, 1.1, R_DEFAULT)
    with pytest.raises(ValidationError):
        RatchetParams(rise_rate=0.6, decay_rate=0.7)
    with pytest.raises(ValidationError):
        RatchetParams(rise_rate=0.6, decay_rate=0.6)
    with pytest.raises(ValidationError):
        RatchetParams(rise_rate=1.0, decay_rate=0.1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([("0.6", "0.1"), ("0.9", "0.5"), ("0.5", "0.25")]),
)
def test_ratchet_matches_exact_oracle(m, e, rates):
    rise, decay = rates
    params = RatchetParams(rise_rate=float(rise), decay_rate=float(decay))
    expected = mastery_reference(m, e, rise, decay)
    assert abs(mastery_update(m, e, params) - float(expected)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=30),
)
def test_generated_traces_always_pass_both_checkers(start, evidence):
    trace = [start]
    for e in evidence:
        trace.append(mastery_update(trace[-1], e, R_DEFAULT))
    assert check_ratchet_trace(trace, R_DEFAULT) is None
    assert ratchet_violations_bruteforce(trace, 0.6, 0.1, 1e-12) == []


@settings(max_examples=250, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=25))
def test_checker_agrees_with_bruteforce_on_arbitrary_traces(trace):
    fast = check_ratchet_trace(trace, R_DEFAULT) is None
    brute = ratchet_violations_bruteforce(trace, 0.6, 0.1, 1e-12) == []
    assert fast == brute
    assert ratchet_ok_fast(trace, 0.6, 0.1, 1e-12) == brute


def test_checker_flags_decay_jump():
    # 0.9 -> 0.5 undershoots (1 - 0.1) * 0.9 = 0.81
    result = check_ratchet_trace([0.9, 0.5], R_DEFAULT)
    assert result is not None and result[0] == 1


def test_checker_flags_rise_overshoot():
    # 0.2 -> 0.9 overshoots 0.2 + 0.6 * 0.8 = 0.68
    result = check_ratchet_trace([0.2, 0.9], R_DEFAULT)
    assert result is not None and result[0] == 1


def test_checker_flags_window_erosion():
    # each step obeys the per-step bounds, but the decayed peak is violated
    # two steps after a high point: 0.9 * 0.9 = 0.81 > 0.75
    trace = [1.0, 0.9, 0.75]
    assert check_ratchet_trace(trace, R_DEFAULT) is not None
    assert ratchet_violations_bruteforce(trace, 0.6, 0.1, 1e-12)


# ----------------------------------------------------------------------
# learnable frontier


def test_isolated_unmastered_skill_included():
    assert learnable_frontier({1: 0.0}, {}, 0.5) == {1}


def test_mastered_skill_excluded():
    assert learnable_frontier({1: 0.9}, {}, 0.5) == set()


def test_frontier_four_node_chain():
    # only b has all prerequisites mastered while being unmastered itself;
    # c and d sit behind the unmastered b
    masteries = {"a": 0.6, "b": 0.2, "c": 0.3, "d": 0.3}
    prereqs = {"b": ["a"], "c": ["b"], "d": ["c"]}
    assert learnable_frontier(masteries, prereqs, 0.5) == {"b"}


def test_frontier_gated_branch():
    # chain a -> b plus c gated by an unmastered prerequisite d
    masteries = {"a": 0.6, "b": 0.2, "c": 0.3, "d": 0.3}
    prereqs = {"b": ["a"], "c": ["d"]}
    assert learnable_frontier(masteries, prereqs, 0.5) == {"b", "d"}


def test_frontier_threshold_is_inclusive_on_prereqs():
    assert learnable_frontier({1: 0.5, 2: 0.0}, {2: [1]}, 0.5) == {2}


def test_frontier_rejects_cycle():
    with pytest.raises(CycleError):
        learnable_frontier({1: 0.1, 2: 0.1}, {1: [2], 2: [1]}, 0.5)


def test_frontier_rejects_unknown_prereq():
    with pytest.raises(ValidationError):
        learnable_frontier({1: 0.1}, {1: [99]}, 0.5)


def test_frontier_rejects_bad_threshold():
    with pytest.raises(ValidationError):
        learnable_frontier({1: 0.1}, {}, 1.5)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 9), st.floats(0.0, 1.0, allow_nan=False), max_size=10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    st.floats(0.1, 0.9, allow_nan=False),
)
def test_frontier_matches_reference(masteries, raw_edges, threshold):
    # forcing edges low id -> high id guarantees acyclicity
    prereqs = {}
    for a, b in raw_edges:
        if a < b and a in masteries and b in masteries:
            prereqs.setdefault(b, set()).add(a)
    expected = frontier_reference(masteries, prereqs, threshold)
    assert learnable_frontier(masteries, prereqs, threshold) == expected
