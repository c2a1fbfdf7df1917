"""Dual exemplar stores: retrieval, allocation, formatting, cascade context."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evoloop import (
    EngineConfig,
    FailurePayload,
    HashEmbedder,
    IntegrityError,
    KnowledgeGraph,
    MemoryBundle,
    MemoryIndex,
    NotFoundError,
    SuccessPayload,
    ValidationError,
    allocation_for,
    cascade_principles,
    curriculum_override,
    format_bundle,
    harvest_failure,
    harvest_success,
    init_run,
    latest_action_recipe,
    load_engine,
    make_env,
    rebuild_index,
    record_action_recipe,
    render_skill_lattice,
    run_training,
)
from evoloop.memory import normalize
from evoloop.runner import build_simulated_engine
from oracles import (
    allocation_reference,
    bundle_sizes_reference,
    canonical_bytes_reference,
    rank_store_reference,
    respects_prereq_order,
)

GOLDEN = Path(__file__).parent / "golden"


def one_hot(i, dimension=64):
    v = np.zeros(dimension)
    v[i] = 1.0
    return v


def seeded_unit(seed, dimension=64):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dimension)
    return v / np.linalg.norm(v)


def add_success(graph, index, tt, question="q", vector=None, skill_id=None):
    nid = graph.append_experience(
        "success_memory",
        {"question": question, "reasoning_trace": "steps", "answer": "42"},
        task_type_id=tt,
        skill_id=skill_id,
    )
    index.index_memory(nid, one_hot(0) if vector is None else vector)
    return nid


def add_failure(graph, index, tt, question="q", vector=None, kind="specific"):
    nid = graph.append_experience(
        "failure_memory",
        {
            "question": question,
            "wrong_answer": "0",
            "corrective_reasoning": "check units",
            "correct_answer": "42",
        },
        task_type_id=tt,
        kind=kind,
    )
    index.index_memory(nid, one_hot(1) if vector is None else vector)
    return nid


# ----------------------------------------------------------------------
# allocation law


def test_allocation_split_at_k3():
    assert allocation_for(0, 3) == (2, 1)
    assert allocation_for(499, 3) == (2, 1)
    assert allocation_for(500, 3) == (1, 2)
    assert allocation_for(5000, 3) == (1, 2)


def test_allocation_validation():
    with pytest.raises(ValidationError):
        allocation_for(10, 0)
    with pytest.raises(ValidationError):
        allocation_for(-1, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 9), st.integers(1, 1000))
def test_allocation_matches_reference(context_length, k, threshold):
    got = allocation_for(context_length, k, threshold)
    assert got == allocation_reference(context_length, k, threshold)
    assert got[0] + got[1] == k


# ----------------------------------------------------------------------
# retrieval


def test_self_retrieval_rank_one(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    v = seeded_unit(3)
    nid = add_success(graph, index, tt, vector=v)
    bundle = index.retrieve_bundle(v, tt, context_length=10)
    assert [e.node_id for e in bundle.success] == [nid]
    assert bundle.success[0].similarity == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_pair_ordering(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    first = add_success(graph, index, tt, question="a", vector=one_hot(0))
    second = add_success(graph, index, tt, question="b", vector=one_hot(1))
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=10)
    assert [e.node_id for e in bundle.success] == [first, second]
    sims = [e.similarity for e in bundle.success]
    assert sims[0] == pytest.approx(1.0, abs=1e-12)
    assert sims[1] == pytest.approx(0.0, abs=1e-12)


def test_empty_stores_empty_bundle(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=10)
    assert len(bundle) == 0
    assert bundle.allocation == (2, 1)


def test_task_type_filter_is_strict(indexed):
    graph, index, _ = indexed
    tt1 = graph.add_task_type("t1")
    tt2 = graph.add_task_type("t2")
    add_success(graph, index, tt1, vector=one_hot(0))
    mine = add_success(graph, index, tt2, vector=one_hot(2))
    bundle = index.retrieve_bundle(one_hot(0), tt2, context_length=10)
    assert [e.node_id for e in bundle.success] == [mine]


def test_type_strategy_floor(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    # cosine to the query: 0.0 for the orthogonal strategy note, so it sits
    # below the 0.55 floor; the specific correction is always admissible
    add_failure(graph, index, tt, vector=one_hot(5), kind="type_strategy")
    specific = add_failure(graph, index, tt, vector=one_hot(6), kind="specific")
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=900)
    assert [e.node_id for e in bundle.failure] == [specific]
    # same store, aligned query: the strategy note clears the floor
    bundle2 = index.retrieve_bundle(one_hot(5), tt, context_length=900)
    assert {e.node_id for e in bundle2.failure} >= {specific}
    assert len(bundle2.failure) == 2


def test_backfill_from_other_store(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    ids = [
        add_success(graph, index, tt, question=f"s{i}", vector=seeded_unit(i))
        for i in range(3)
    ]
    bundle = index.retrieve_bundle(seeded_unit(0), tt, context_length=10)
    # no failures exist; the failure slot backfills with the third success
    assert bundle.allocation == (2, 1)
    assert len(bundle.success) == 3
    assert len(bundle.failure) == 0
    assert set(e.node_id for e in bundle.success) == set(ids)


def test_bundle_never_exceeds_k(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    for i in range(5):
        add_success(graph, index, tt, question=f"s{i}", vector=seeded_unit(i))
        add_failure(graph, index, tt, question=f"f{i}", vector=seeded_unit(100 + i))
    bundle = index.retrieve_bundle(seeded_unit(0), tt, context_length=10)
    assert len(bundle) == 3
    assert (len(bundle.success), len(bundle.failure)) == (2, 1)
    long_bundle = index.retrieve_bundle(seeded_unit(0), tt, context_length=600)
    assert (len(long_bundle.success), len(long_bundle.failure)) == (1, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 1000),
    st.integers(0, 3),
)
def test_bundle_total_is_min_of_k_and_eligible(n_succ, n_fail, ctx, n_other):
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    other = graph.add_task_type("other")
    for i in range(n_succ):
        add_success(graph, index, tt, question=f"s{i}", vector=seeded_unit(i))
    for i in range(n_fail):
        add_failure(graph, index, tt, question=f"f{i}", vector=seeded_unit(50 + i))
    for i in range(n_other):
        add_success(graph, index, other, question=f"o{i}", vector=seeded_unit(90 + i))
    bundle = index.retrieve_bundle(seeded_unit(7), tt, context_length=ctx)
    assert bundle.allocation == allocation_reference(ctx, 3, 500)
    assert len(bundle) == min(3, n_succ + n_fail)
    assert all(e.task_type_id == tt for e in bundle.success + bundle.failure)


# a few fixed directions, so drawn entries repeat vectors exactly
POOL_VECTORS = [seeded_unit(200 + i) for i in range(6)]
QUERY_VECTORS = POOL_VECTORS + [seeded_unit(300)]


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(("success", "specific", "type_strategy")),
            st.integers(0, 2),
            st.integers(0, len(POOL_VECTORS) - 1),
        ),
        max_size=24,
    ),
    query_tt=st.integers(0, 2),
    query_vec=st.integers(0, len(QUERY_VECTORS) - 1),
    floor=st.sampled_from((0.0, 0.55)),
    k=st.integers(1, 5),
    context_length=st.sampled_from((0, 900)),
)
def test_retrieval_matches_bruteforce_reference(
    entries, query_tt, query_vec, floor, k, context_length
):
    query = QUERY_VECTORS[query_vec]
    # no similarity sits on the floor, so rounding cannot decide admission
    assume(all(abs(float(v @ query) - floor) > 1e-9 for v in POOL_VECTORS))
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64, type_strategy_min_similarity=floor)
    tts = [graph.add_task_type(f"t{i}") for i in range(3)]
    stores = {"success": [], "failure": []}
    for store, t, v in entries:
        if store == "success":
            nid = add_success(graph, index, tts[t], question=f"s{v}", vector=POOL_VECTORS[v])
            kind = None
        else:
            nid = add_failure(graph, index, tts[t], question=f"f{v}", vector=POOL_VECTORS[v], kind=store)
            kind = store
        stores["success" if kind is None else "failure"].append(
            {"node_id": nid, "task_type_id": tts[t], "kind": kind, "vector": POOL_VECTORS[v]}
        )
    tt = tts[query_tt]

    ranked_s = rank_store_reference(stores["success"], query, tt, floor)
    ranked_f = rank_store_reference(stores["failure"], query, tt, floor)
    allocation = allocation_reference(context_length, k, 500)
    take_s, take_f = bundle_sizes_reference(len(ranked_s), len(ranked_f), allocation)
    bundle = index.retrieve_bundle(query, tt, context_length=context_length, k=k)
    assert bundle.allocation == allocation
    for got, want in ((bundle.success, ranked_s[:take_s]), (bundle.failure, ranked_f[:take_f])):
        assert [e.node_id for e in got] == [nid for _, nid in want]
        assert [e.similarity for e in got] == pytest.approx([key for key, _ in want], abs=1e-12)


@pytest.mark.parametrize("n", [10, 23, 50, 101, 400])
def test_duplicate_exemplars_tie_exactly_wherever_they_sit(n):
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    near, far = seeded_unit(1), seeded_unit(2)
    ids = [
        add_success(graph, index, tt, question=f"s{i}", vector=far if i % 3 == 0 else near)
        for i in range(n)
    ]
    near_ids = [nid for i, nid in enumerate(ids) if i % 3]
    far_ids = [nid for i, nid in enumerate(ids) if i % 3 == 0]
    query = near + 0.5 * far
    bundle = index.retrieve_bundle(query, tt, context_length=10, k=n)
    # every copy of a vector scores the same, so each group is in id order
    assert [e.node_id for e in bundle.success] == near_ids + far_ids
    assert len({e.similarity for e in bundle.success[: len(near_ids)]}) == 1
    assert len({e.similarity for e in bundle.success[len(near_ids) :]}) == 1
    # a short top-k keeps the smallest ids among the tied copies
    top = index.retrieve_bundle(query, tt, context_length=10, k=3)
    assert [e.node_id for e in top.success] == near_ids[:3]


def _axes(*terms, dimension=8):
    v = np.zeros(dimension)
    for axis, weight in terms:
        v[axis] = weight
    return v


# retrieval over repeated vectors: GROUP_POOL[0] and GROUP_POOL[1] are
# distinct vectors at exactly the same similarity to GROUP_QUERY (each
# shares one axis with it), so a tie across two groups breaks on node id
GROUP_QUERY = _axes((0, 1.0), (1, 1.0))
GROUP_POOL = [
    _axes((0, 1.0), (2, 1.0)),
    _axes((1, 1.0), (3, 1.0)),
    _axes((0, 1.0)),
    _axes((0, 1.0), (1, 1.0), (4, 1.0)),
    _axes((5, 1.0)),
    _axes((0, -1.0), (6, 1.0)),
]
STORE_OF = {"success": "success_memory", "specific": "failure_memory", "type_strategy": "failure_memory"}


def _embed_pool(text):
    return GROUP_POOL[int(text[1:])]


def _index_specs(graph, index, tts, specs, order):
    """Append the exemplar of each spec in ``order``; returns reference rows."""
    stores = {"success_memory": [], "failure_memory": []}
    for i in order:
        kind, t, v = specs[i]
        if kind == "success":
            nid = add_success(graph, index, tts[t], question=f"v{v}", vector=GROUP_POOL[v])
        else:
            nid = add_failure(graph, index, tts[t], question=f"v{v}", vector=GROUP_POOL[v], kind=kind)
        stores[STORE_OF[kind]].append(
            {"node_id": nid, "task_type_id": tts[t], "kind": None if kind == "success" else kind,
             "vector": GROUP_POOL[v]}
        )
    return stores


@settings(max_examples=150, deadline=None)
@given(
    drawn=st.lists(
        st.tuples(
            st.sampled_from(("success", "specific", "type_strategy")),
            st.integers(0, 1),
            st.integers(0, len(GROUP_POOL) - 1),
            st.integers(1, 6),
        ),
        max_size=8,
    ),
    shared=st.integers(0, len(GROUP_POOL) - 1),
    above=st.booleans(),
    context_length=st.sampled_from((0, 900)),
    data=st.data(),
)
# more copies of one vector than any k, beside its strategy twin
@example(
    drawn=[("success", 0, 2, 6), ("specific", 0, 2, 6), ("type_strategy", 0, 0, 6)],
    shared=2, above=False, context_length=0, data=None,
)
def test_grouped_retrieval_matches_bruteforce_reference(
    drawn, shared, above, context_length, data
):
    query = GROUP_QUERY
    # the two tied vectors tie in both the reference and the index
    assert float(GROUP_POOL[0] @ query) == float(GROUP_POOL[1] @ query)
    # a type_strategy and a specific failure share one vector, which sits
    # just above or just below the floor
    shared_sim = float(normalize(GROUP_POOL[shared]) @ normalize(query))
    floor = shared_sim - 0.01 if above else shared_sim + 0.01
    specs = [(kind, t, v) for kind, t, v, copies in drawn for _ in range(copies)]
    specs += [("type_strategy", 0, shared), ("specific", 0, shared), ("success", 0, 0), ("success", 0, 1)]
    if data is None:
        order, k = list(range(len(specs))), 3
    else:
        order = data.draw(st.permutations(range(len(specs))))
        k = data.draw(st.integers(1, len(specs) + 1))
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=8, type_strategy_min_similarity=floor)
    tts = [graph.add_task_type("t0"), graph.add_task_type("t1")]
    stores = _index_specs(graph, index, tts, specs, order)
    unit = index._unit(query)
    tied = np.vecdot(np.stack([index._unit(v) for v in GROUP_POOL[:2]]), unit)
    assert tied[0] == tied[1]

    # filing newest first is refused at each node older than the last one
    # filed in its group, and a refused node leaves the index as it was
    shuffled = MemoryIndex(graph, dimension=8, type_strategy_min_similarity=floor)
    newest = {}
    for nid in sorted(graph.experience, reverse=True):
        node = graph.experience[nid]
        group = (node.outcome, node.task_type_id, node.payload["question"])
        vector = _embed_pool(node.payload["question"])
        if group in newest:
            with pytest.raises(ValidationError, match=f"node {nid} is older than node {newest[group]} "):
                shuffled.index_memory(nid, vector)
        else:
            shuffled.index_memory(nid, vector)
            newest[group] = nid
    assert len(shuffled) == len(newest)
    assert sorted(e.id for block in shuffled._blocks.values() for rows in block.members for e in rows) == sorted(
        newest.values()
    )
    bulk = rebuild_index(graph, 8, _embed_pool, floor)
    _assert_same_blocks(bulk, index, _embed_pool)

    tt = tts[0]
    for outcome in ("success_memory", "failure_memory"):
        want = rank_store_reference(stores[outcome], query, tt, floor)[:k]
        for candidates in (index, bulk):
            got = candidates._candidates(outcome, unit, tt, k)
            assert [e.id for _, e in got] == [nid for _, nid in want]
            assert [key for key, _ in got] == pytest.approx([key for key, _ in want], abs=1e-12)

    ranked_s = rank_store_reference(stores["success_memory"], query, tt, floor)
    ranked_f = rank_store_reference(stores["failure_memory"], query, tt, floor)
    allocation = allocation_reference(context_length, k, 500)
    take_s, take_f = bundle_sizes_reference(len(ranked_s), len(ranked_f), allocation)
    bundle = index.retrieve_bundle(query, tt, context_length=context_length, k=k)
    assert [e.node_id for e in bundle.success] == [nid for _, nid in ranked_s[:take_s]]
    assert [e.node_id for e in bundle.failure] == [nid for _, nid in ranked_f[:take_f]]


def test_retrieval_over_many_distinct_vectors_matches_reference():
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=16, type_strategy_min_similarity=0.2)
    tt = graph.add_task_type("t")
    rng = np.random.default_rng(7)
    pool = rng.normal(size=(700, 16))
    rows = []
    for i in range(900):
        # most vectors appear once, some twice
        vector = pool[i % 700]
        kind = "type_strategy" if i % 3 == 0 else "specific"
        nid = add_failure(graph, index, tt, question=f"q{i}", vector=vector, kind=kind)
        rows.append({"node_id": nid, "task_type_id": tt, "kind": kind, "vector": vector})
    block = index._blocks[("failure_memory", tt)]
    assert len(block.vectors) == 700
    for query in rng.normal(size=(20, 16)):
        unit = index._unit(query)
        for k in (1, 3, 50, 700):
            want = rank_store_reference(rows, query, tt, 0.2)[:k]
            got = index._candidates("failure_memory", unit, tt, k)
            assert [e.id for _, e in got] == [nid for _, nid in want]
            assert [key for key, _ in got] == pytest.approx([key for key, _ in want], abs=1e-12)


def test_scan_scores_each_distinct_vector_once(monkeypatch):
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    vectors = [seeded_unit(400 + i) for i in range(3)]
    ids = [
        add_success(graph, index, tt, question=f"s{i % 3}", vector=vectors[i % 3])
        for i in range(1000)
    ]
    block = index._blocks[("success_memory", tt)]
    assert sum(len(rows) for rows in block.members) == len(index) == 1000
    assert block.vectors.shape == (3, 64)
    scanned = []
    vecdot = np.vecdot

    def counting(rows, query):
        scanned.append(len(rows))
        return vecdot(rows, query)

    monkeypatch.setattr(np, "vecdot", counting)
    bundle = index.retrieve_bundle(vectors[1], tt, context_length=10, k=3)
    # one scan of the success block's three rows; the failure store is empty
    assert scanned == [3]
    assert [e.node_id for e in bundle.success] == ids[1:10:3]
    # a new copy of a stored vector adds no row, so the same query scans
    # the same three rows again
    add_success(graph, index, tt, question="s0", vector=vectors[0])
    assert index.retrieve_bundle(vectors[1], tt, context_length=10, k=3) == bundle
    assert scanned == [3, 3]
    # a new distinct vector adds one row
    add_success(graph, index, tt, question="s3", vector=seeded_unit(403))
    index.retrieve_bundle(vectors[1], tt, context_length=10, k=3)
    assert scanned == [3, 3, 4]


def test_block_restacks_its_rows_only_when_a_row_is_added(monkeypatch):
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    for i in range(3):
        add_success(graph, index, tt, question=f"s{i}", vector=seeded_unit(400 + i))
    block = index._blocks[("success_memory", tt)]
    stacked = []
    stack = np.stack

    def counting(rows):
        stacked.append(len(rows))
        return stack(rows)

    monkeypatch.setattr(np, "stack", counting)
    # four new queries, each scanned once, share one stack of the rows
    for i in range(4):
        index.retrieve_bundle(seeded_unit(700 + i), tt, context_length=10, k=3)
    assert stacked == [3]
    # a new copy of a stored vector adds no row, so no new query restacks
    add_success(graph, index, tt, question="s0", vector=seeded_unit(400))
    index.retrieve_bundle(seeded_unit(704), tt, context_length=10, k=3)
    assert stacked == [3]
    # a new distinct row restacks once, and the stack holds every row
    add_success(graph, index, tt, question="s3", vector=seeded_unit(403))
    index.retrieve_bundle(seeded_unit(700), tt, context_length=10, k=3)
    index.retrieve_bundle(seeded_unit(705), tt, context_length=10, k=3)
    assert stacked == [3, 4]
    assert block.vectors.tobytes() == stack(block.rows).tobytes()
    assert not block.vectors.flags.writeable


# a query, or the exemplar of one kind and task type with one of the vectors
STEP_VECTORS = [seeded_unit(500 + i, dimension=8) for i in range(10)] + GROUP_POOL[:3]
STEP_QUERIES = [GROUP_QUERY] + [seeded_unit(600 + i, dimension=8) for i in range(3)]
index_steps = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from(("success", "specific", "type_strategy")),
        st.integers(0, 1),
        st.integers(0, len(STEP_VECTORS) - 1),
    ),
    st.tuples(st.just("query"), st.integers(0, len(STEP_QUERIES) - 1), st.integers(1, 6)),
)


@settings(max_examples=120, deadline=None)
@given(
    steps=st.lists(index_steps, min_size=1, max_size=40),
    near=st.integers(0, len(STEP_VECTORS) - 1),
    above=st.booleans(),
)
def test_candidates_match_the_reference_as_the_index_grows(steps, near, above):
    # the floor sits just below or just above the first query's similarity
    # to one vector, so type_strategy rows fall on both sides of it
    near_sim = float(normalize(STEP_VECTORS[near]) @ normalize(STEP_QUERIES[0]))
    floor = near_sim - 0.01 if above else near_sim + 0.01
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=8, type_strategy_min_similarity=floor)
    tts = [graph.add_task_type("t0"), graph.add_task_type("t1")]
    stores = {"success_memory": [], "failure_memory": []}
    for step in steps:
        if step[0] == "append":
            _, kind, t, v = step
            vector = STEP_VECTORS[v]
            if kind == "success":
                nid = add_success(graph, index, tts[t], question=f"v{v}", vector=vector)
            else:
                nid = add_failure(graph, index, tts[t], question=f"v{v}", vector=vector, kind=kind)
            stores[STORE_OF[kind]].append(
                {"node_id": nid, "task_type_id": tts[t],
                 "kind": None if kind == "success" else kind, "vector": vector}
            )
            continue
        _, qi, k = step
        query = STEP_QUERIES[qi]
        unit = index._unit(query)
        for tt in tts:
            for outcome in ("success_memory", "failure_memory"):
                want = rank_store_reference(stores[outcome], query, tt, floor)[:k]
                got = index._candidates(outcome, unit, tt, k)
                assert [e.id for _, e in got] == [nid for _, nid in want]
                assert [key for key, _ in got] == pytest.approx([key for key, _ in want], abs=1e-12)


def test_index_rejects_duplicates_and_wrong_class(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    nid = add_success(graph, index, tt)
    with pytest.raises(ValidationError):
        index.index_memory(nid, one_hot(0))
    pattern = graph.append_experience("abstracted_pattern", {"q": 1}, confidence=0.9)
    with pytest.raises(ValidationError):
        index.index_memory(pattern, one_hot(0))


def test_index_rejects_dimension_mismatch(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    nid = graph.append_experience("success_memory", {"question": "q"}, task_type_id=tt)
    with pytest.raises(ValidationError):
        index.index_memory(nid, np.ones(16))
    with pytest.raises(ValidationError):
        index.retrieve_bundle(np.ones(16), tt, context_length=10)


def test_zero_vector_rejected(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    with pytest.raises(ValidationError):
        index.retrieve_bundle(np.zeros(64), tt, context_length=10)


# ----------------------------------------------------------------------
# harvest


def test_first_harvest_retrievable(graph, embedder):
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    assert graph.protected_counts()["success_memory"] == 0
    nid = harvest_success(
        index,
        embedder.embed,
        tt,
        None,
        SuccessPayload(question="what is 2+2", reasoning_trace="add", answer="4"),
    )
    assert graph.protected_counts()["success_memory"] == 1
    bundle = index.retrieve_bundle(embedder.embed("what is 2+2"), tt, context_length=10)
    assert [e.node_id for e in bundle.success] == [nid]


def test_harvest_trims_trace_to_cap(graph, embedder):
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    cap = 200
    nid = harvest_success(
        index,
        embedder.embed,
        tt,
        None,
        SuccessPayload(question="q", reasoning_trace="x" * (cap + 100), answer="a"),
        trace_char_cap=cap,
    )
    assert len(graph.experience[nid].payload["reasoning_trace"]) == cap


def test_harvest_failure_kind_and_count(graph, embedder):
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    nid = harvest_failure(
        index,
        embedder.embed,
        tt,
        None,
        FailurePayload(
            question="q",
            wrong_answer="5",
            corrective_reasoning="carry the one",
            correct_answer="6",
            kind="specific",
        ),
    )
    assert graph.experience[nid].kind == "specific"
    assert graph.protected_counts()["failure_memory"] == 1
    assert len(index) == 1


def test_a_harvest_whose_vector_is_refused_changes_nothing():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    harvest_success(
        index, HashEmbedder(dimension=64).embed, tt, None,
        SuccessPayload(question="q", reasoning_trace="r", answer="a"),
    )
    state, seq, n_lines = graph.canonical_bytes(), graph.last_seq, len(lines)
    blocks = {key: [[n.id for n in nodes] for nodes in block.members] for key, block in index._blocks.items()}
    # an embedder of another dimension than the index's
    narrow = HashEmbedder(dimension=8).embed
    harvests = [
        lambda: harvest_success(
            index, narrow, tt, None, SuccessPayload(question="p", reasoning_trace="r", answer="b")
        ),
        lambda: harvest_failure(
            index, narrow, tt, None,
            FailurePayload(question="p", wrong_answer="0", corrective_reasoning="c",
                           correct_answer="b", kind="specific"),
        ),
    ]
    for harvest in harvests:
        with pytest.raises(ValidationError, match="dimension"):
            harvest()
        assert graph.canonical_bytes() == state and graph.last_seq == seq and len(lines) == n_lines
        assert len(index) == 1
        assert {key: [[n.id for n in nodes] for nodes in block.members]
                for key, block in index._blocks.items()} == blocks


def test_rebuild_index_matches_incremental(graph, embedder):
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    for i in range(4):
        harvest_success(
            index,
            embedder.embed,
            tt,
            None,
            SuccessPayload(question=f"q{i}", reasoning_trace="r", answer="a"),
        )
    rebuilt = rebuild_index(graph, 64, embedder.embed)
    q = embedder.embed("q2")
    a = index.retrieve_bundle(q, tt, context_length=10)
    b = rebuilt.retrieve_bundle(q, tt, context_length=10)
    assert [e.node_id for e in a.success] == [e.node_id for e in b.success]
    assert len(rebuilt) == 4


EXEMPLAR_KINDS = [
    ("success_memory", None),
    ("failure_memory", "specific"),
    ("failure_memory", "type_strategy"),
    ("principle", None),
]
exemplar = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 5))


def _append_exemplar(graph, task_types, spec):
    kind_index, tt_index, question = spec
    outcome, kind = EXEMPLAR_KINDS[kind_index]
    return graph.append_experience(
        outcome,
        {"question": f"how many q{question}"},
        task_type_id=task_types[tt_index],
        kind=kind,
    )


def _assert_same_blocks(index, other, embed):
    assert len(index) == len(other)
    assert index._blocks.keys() == other._blocks.keys()
    for key, block in index._blocks.items():
        twin = other._blocks[key]
        assert block.vectors.tobytes() == twin.vectors.tobytes()
        for groups in ("members", "plain"):
            assert [[e.id for e in rows] for rows in getattr(block, groups)] == [
                [e.id for e in rows] for rows in getattr(twin, groups)
            ]
        # every node's row is the bits of normalize on the raw embedding
        reference = {}
        for row, rows in zip(block.vectors, block.members):
            for e in rows:
                reference[e.id] = normalize(embed(e.payload["question"])).tobytes()
                assert row.tobytes() == reference[e.id]
        # each node sits in one group only
        assert sorted(reference) == sorted(e.id for rows in block.members for e in rows)
        # and each distinct vector has one row
        assert len(block.vectors) == len(set(reference.values()))


@settings(max_examples=40, deadline=None)
@given(st.lists(exemplar, max_size=60), st.lists(exemplar, min_size=50, max_size=50))
# a one-row block that grows to six rows, and a six-row block whose vectors
# come back as type_strategy nodes, so it gains members but no row
@example([(0, 0, 0)], [(0, 0, i % 6) for i in range(50)])
@example([(1, 1, i % 6) for i in range(20)], [(2, 1, i % 6) for i in range(50)])
def test_bulk_rebuild_matches_incremental_index_bit_for_bit(first, more):
    embedder = HashEmbedder(dimension=64, seed=0)
    graph = KnowledgeGraph()
    task_types = [graph.add_task_type("a"), graph.add_task_type("b"), None]
    incremental = MemoryIndex(graph, dimension=64)

    def append(spec):
        nid = _append_exemplar(graph, task_types, spec)
        node = graph.experience[nid]
        if node.outcome != "principle":
            incremental.index_memory(nid, embedder.embed(node.payload["question"]))
        return nid

    for spec in first:
        append(spec)
    bulk = rebuild_index(graph, 64, embedder.embed)
    _assert_same_blocks(bulk, incremental, embedder.embed)
    # a block built in bulk grows like one built row by row
    for spec in more:
        nid = append(spec)
        node = graph.experience[nid]
        if node.outcome != "principle":
            bulk.index_memory(nid, embedder.embed(node.payload["question"]))
    _assert_same_blocks(bulk, incremental, embedder.embed)


def _filed_one_by_one(graph, embed, floor=0.55):
    """The index ``index_memory`` builds from every exemplar in node id order."""
    index = MemoryIndex(graph, dimension=64, type_strategy_min_similarity=floor)
    for nid in sorted(graph.experience):
        node = graph.experience[nid]
        if node.outcome in ("success_memory", "failure_memory"):
            index.index_memory(nid, embed(node.payload["question"]))
    return index


def _assert_filed_alike(grouped, single):
    assert len(grouped) == len(single)
    assert grouped._blocks.keys() == single._blocks.keys()
    for key, block in grouped._blocks.items():
        twin = single._blocks[key]
        assert [row.tobytes() for row in block.rows] == [row.tobytes() for row in twin.rows]
        for groups in ("members", "plain"):
            assert [[n.id for n in nodes] for nodes in getattr(block, groups)] == [
                [n.id for n in nodes] for nodes in getattr(twin, groups)
            ]


def test_grouped_rebuild_equals_filing_one_by_one_on_a_trained_run(tmp_path):
    config = EngineConfig(iterations=4, pool_size=60, seed=1)
    store = init_run(tmp_path / "r", config, "static_qa")
    run_training(store)
    engine = load_engine(store)
    embed = engine.backends.embedder.embed
    rebuilt = rebuild_index(engine.graph, 64, embed, config.type_strategy_min_similarity)
    _assert_filed_alike(rebuilt, _filed_one_by_one(engine.graph, embed))
    _assert_filed_alike(engine.index, _filed_one_by_one(engine.graph, embed))
    assert len(rebuilt) > 0


def test_grouped_rebuild_merges_two_texts_of_one_vector_in_node_id_order():
    embedder = HashEmbedder(dimension=64, seed=0)
    texts = ("What is 2 + 3?", "what  is 2 + 3?")
    # the embedder lower-cases and splits on whitespace: one vector
    assert embedder.embed(texts[0]).tobytes() == embedder.embed(texts[1]).tobytes()
    graph = KnowledgeGraph()
    tt = graph.add_task_type("t")
    for i in range(6):
        # the two texts interleaved by id, the second one first
        graph.append_experience(
            "success_memory", {"question": texts[(i + 1) % 2]}, task_type_id=tt
        )
        if i == 2:
            graph.append_experience(
                "failure_memory", {"question": texts[0]}, task_type_id=tt, kind="type_strategy"
            )
            graph.append_experience(
                "failure_memory", {"question": texts[1]}, task_type_id=tt, kind="specific"
            )
            graph.append_experience("principle", {"question": texts[0], "text": "p"})
            graph.append_experience("success_memory", {"question": "another sum"}, task_type_id=tt)
    rebuilt = rebuild_index(graph, 64, embedder.embed)
    _assert_filed_alike(rebuilt, _filed_one_by_one(graph, embedder.embed))
    success = rebuilt._blocks[("success_memory", tt)]
    assert [len(nodes) for nodes in success.members] == [6, 1]
    failure = rebuilt._blocks[("failure_memory", tt)]
    assert [[n.kind for n in nodes] for nodes in failure.members] == [["type_strategy", "specific"]]
    assert [[n.kind for n in nodes] for nodes in failure.plain] == [["specific"]]
    assert len(rebuilt) == 9


def test_rebuild_index_never_files_out_of_order():
    embedder = HashEmbedder(dimension=64, seed=0)
    texts = ("Add 4 and 5.", "add  4 AND 5.")
    # the embedder lower-cases and splits on whitespace: one vector
    assert embedder.embed(texts[0]).tobytes() == embedder.embed(texts[1]).tobytes()
    graph = KnowledgeGraph()
    tts = [graph.add_task_type("t"), graph.add_task_type("u")]
    ids = []
    for i in range(16):
        # each (store, task type) block gets four nodes, the two texts
        # interleaved by id, the second text first in the failure store
        outcome = ("success_memory", "failure_memory")[i % 2]
        text = texts[(i // 4 + i % 2) % 2]
        kind = None if outcome == "success_memory" else ("specific", "type_strategy")[i // 8]
        ids.append(graph.append_experience(outcome, {"question": text}, task_type_id=tts[i // 2 % 2], kind=kind))
    graph.append_experience("success_memory", {"question": "another sum"}, task_type_id=tts[0])
    rebuilt = rebuild_index(graph, 64, embedder.embed)
    # the rows, bit for bit, and the groups of the index filed in id order
    _assert_filed_alike(rebuilt, _filed_one_by_one(graph, embedder.embed))
    # each block's one shared vector is one group, in node id order
    for block in rebuilt._blocks.values():
        for nodes in block.members:
            assert [n.id for n in nodes] == sorted(n.id for n in nodes)
    assert [len(nodes) for nodes in rebuilt._blocks[("success_memory", tts[0])].members] == [4, 1]
    # filing a node after a newer one of its group is refused, naming both
    index = MemoryIndex(graph, dimension=64)
    index.index_memory(ids[4], embedder.embed(texts[1]))
    with pytest.raises(ValidationError, match=f"node {ids[0]} is older than node {ids[4]} "):
        index.index_memory(ids[0], embedder.embed(texts[0]))
    assert len(index) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, width=32), min_size=4, max_size=4))
def test_unit_gives_the_bits_of_normalize(raw):
    index = MemoryIndex(KnowledgeGraph(), dimension=4)
    try:
        expected = normalize(np.array(raw)).tobytes()
    except ValidationError:
        with pytest.raises(ValidationError):
            index._unit(np.array(raw))
        return
    assert index._unit(np.array(raw)).tobytes() == index._unit(raw).tobytes() == expected


def _bundle_key(bundle):
    return [
        [(e.node_id, e.similarity) for e in bundle.success],
        [(e.node_id, e.similarity) for e in bundle.failure],
        bundle.allocation,
    ]


def test_live_index_matches_rebuild_after_training():
    config = EngineConfig(pool_size=36, iterations=6)
    env = make_env("static_qa", seed=config.seed, pool_size=config.pool_size)
    engine = build_simulated_engine(config, env)
    engine.bootstrap()
    for k in range(config.iterations):
        engine.run_iteration(k)
    embed = engine.backends.embedder.embed
    rebuilt = rebuild_index(
        engine.graph, engine.index.dimension, embed, config.type_strategy_min_similarity
    )
    assert len(rebuilt) == len(engine.index) > 0
    for q in env.pool("evolution"):
        tt = engine.graph.task_type_by_name(q.task_type).id
        args = (embed(q.text), tt, len(q.context), config.retrieval_top_k)
        assert _bundle_key(engine.index.retrieve_bundle(*args)) == _bundle_key(
            rebuilt.retrieve_bundle(*args)
        )


# ----------------------------------------------------------------------
# bundle currency and repeat harvests


def test_a_bundle_stays_current_until_a_write_changes_what_it_read(indexed):
    graph, index, _ = indexed
    tt, other = graph.add_task_type("t"), graph.add_task_type("u")
    skill = graph.add_skill("s")

    def retrieve():
        return index.retrieve_bundle(one_hot(0), tt, context_length=10, k=3)

    # a success group of k nodes, and a failure group of one
    for _ in range(3):
        add_success(graph, index, tt, vector=one_hot(0))
    add_failure(graph, index, tt, vector=one_hot(0))
    bundle = retrieve()
    assert index.is_current(bundle)
    # writes no walk of the query reads: the saturated group growing,
    # another task type's blocks, a mastery, a snapshot and a rollback
    add_success(graph, index, tt, vector=one_hot(0))
    add_success(graph, index, other, vector=one_hot(2))
    add_failure(graph, index, other, vector=one_hot(0))
    sid = graph.snapshot()
    graph.set_mastery(skill, 0.5)
    graph.rollback_mutable(sid)
    assert index.is_current(bundle) and retrieve() == bundle
    # the failure group holds fewer than k, so its growth is read
    add_failure(graph, index, tt, vector=one_hot(0))
    assert not index.is_current(bundle)
    # a new row in either block, however far it ranks from the query
    for add in (add_success, add_failure):
        bundle = retrieve()
        add(graph, index, tt, vector=one_hot(5))
        assert not index.is_current(bundle) and retrieve() == bundle


def test_an_older_node_is_refused_and_a_new_block_makes_a_bundle_stale(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    ids = [graph.append_experience("success_memory", {"question": "q"}, task_type_id=tt) for _ in range(4)]
    for nid in ids[1:]:
        index.index_memory(nid, one_hot(0))
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=10, k=3)
    # the failure block is empty, so the success store backfills its slot
    assert [e.node_id for e in bundle.success] == ids[1:] and index.is_current(bundle)
    # a node older than its group's last one is refused, and the index and
    # the bundle stand as they were
    with pytest.raises(ValidationError, match=f"node {ids[0]} is older than node {ids[3]} "):
        index.index_memory(ids[0], one_hot(0))
    assert len(index) == 3 and index.is_current(bundle)
    assert [[n.id for n in nodes] for nodes in index._blocks[("success_memory", tt)].members] == [ids[1:]]
    # filed with a vector of its own, it opens a new row instead
    index.index_memory(ids[0], one_hot(3))
    assert not index.is_current(bundle)
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=10, k=3)
    assert [e.node_id for e in bundle.success] == ids[1:] and index.is_current(bundle)
    # the first failure memory opens the failure block the walk found empty
    add_failure(graph, index, tt, vector=one_hot(7))
    assert not index.is_current(bundle)
    # a bundle no retrieval made is never current
    assert not index.is_current(MemoryBundle())


@pytest.mark.parametrize(
    "referent, missing",
    [("skill_id", "skill 3 not found"), ("task_type_id", "task type 3 not found")],
    ids=["skill", "task-type"],
)
def test_replay_refuses_an_exemplar_whose_skill_or_task_type_does_not_exist(referent, missing):
    # a later write could create the missing id, and so change a name that
    # a bundle of the exemplar copied; no writer makes such a node
    record = {
        "id": 2, "outcome": "success_memory", "task_type_id": 1, "skill_id": None, "kind": None,
        "confidence": 1.0, "payload": {"question": "q"}, "created_iter": 0,
    }
    record[referent] = 3
    with pytest.raises(IntegrityError, match=r"^replay failed at seq 2 \(append_experience\)$") as refused:
        KnowledgeGraph.replay([
            {"seq": 1, "iter": 0, "op": "add_task_type", "payload": {"id": 1, "name": "t", "observed_iter": 0}},
            {"seq": 2, "iter": 0, "op": "append_experience", "payload": record},
        ])
    assert isinstance(refused.value.__cause__, NotFoundError)
    assert str(refused.value.__cause__) == missing


@settings(max_examples=120, deadline=None)
@given(
    drawn=st.lists(
        st.tuples(
            st.sampled_from(("success", "specific", "type_strategy")),
            st.integers(0, 1),
            st.integers(0, len(GROUP_POOL) - 1),
            st.booleans(),
        ),
        max_size=24,
    ),
    k=st.integers(1, 5),
    above=st.booleans(),
)
def test_a_current_bundle_equals_a_fresh_retrieval(drawn, k, above):
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=8, type_strategy_min_similarity=0.3 if above else 0.9)
    tts = [graph.add_task_type("a"), graph.add_task_type("b")]
    queries = [(query, ctx) for query in GROUP_POOL + [GROUP_QUERY] for ctx in (0, 900)]
    kept = {}
    held = []
    # the newest node filed in each group, and the count filed
    newest = {}
    filed = 0
    for kind, t, v, hold in drawn:
        outcome = STORE_OF[kind]
        payload = {"question": f"v{v}"}
        nid = graph.append_experience(
            outcome, payload, task_type_id=tts[t], kind=None if kind == "success" else kind
        )
        # held nodes are filed newest first, so each one older than the
        # last one filed in its group is refused and never filed
        held.append((nid, (outcome, tts[t], v)))
        if hold:
            continue
        for nid, group in reversed(held):
            if group in newest and newest[group] > nid:
                with pytest.raises(ValidationError, match=f"node {nid} is older than node {newest[group]} "):
                    index.index_memory(nid, GROUP_POOL[group[2]])
            else:
                index.index_memory(nid, GROUP_POOL[group[2]])
                newest[group] = nid
                filed += 1
        assert len(index) == filed
        del held[:]
        for i, (query, ctx) in enumerate(queries):
            fresh = index.retrieve_bundle(query, tts[0], context_length=ctx, k=k)
            # kept as the engine keeps it: until it is no longer current
            bundle = kept.get(i)
            if bundle is not None and index.is_current(bundle):
                assert bundle == fresh
            else:
                kept[i] = fresh


def _harvest(index, embedder, tt, answer="4", steps=(("add", "2 + 2"),)):
    payload = SuccessPayload(
        question="what is \"2 + 2\"?", reasoning_trace="add\nÀ", answer=answer, decomposition=list(steps)
    )
    return harvest_success(index, embedder.embed, tt, None, payload)


def _assert_lines_are_canonical(graph, lines):
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert graph.canonical_bytes() == canonical_bytes_reference(graph)
    assert KnowledgeGraph.replay(json.loads(line) for line in lines).canonical_bytes() == graph.canonical_bytes()


def test_a_repeat_success_shares_the_held_payload_and_its_encoding(embedder):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")
    first = _harvest(index, embedder, tt)
    embeds = embedder.calls
    repeats = [_harvest(index, embedder, tt) for _ in range(3)]
    held = graph.experience[first].payload
    assert all(graph.experience[nid].payload is held for nid in repeats)
    # filed under the vector the index holds for the text, not embedded again
    assert embedder.calls == embeds
    _assert_lines_are_canonical(graph, lines)
    bundle = index.retrieve_bundle(embedder.embed(held["question"]), tt, context_length=10)
    assert [e.node_id for e in bundle.success] == [first, *repeats[:2]]
    # another answer, or other steps, to the same text are held apart, and
    # shared in turn
    for kwargs in ({"answer": "5"}, {"steps": [("add", "2 + 2"), ("check", "4")]}):
        other = [_harvest(index, embedder, tt, **kwargs) for _ in range(2)]
        assert graph.experience[other[0]].payload is not held
        assert graph.experience[other[1]].payload is graph.experience[other[0]].payload
    _assert_lines_are_canonical(graph, lines)


class _Text(str):
    """A str whose class may compare or encode as it likes."""


@pytest.mark.parametrize("where", ["answer", "step"])
def test_a_payload_that_equals_but_encodes_otherwise_is_not_shared(embedder, where):
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("t")

    def harvested(value):
        if where == "answer":
            nid = _harvest(index, embedder, tt, answer=value)
        else:
            nid = _harvest(index, embedder, tt, steps=[("add", value)])
        payload = graph.experience[nid].payload
        return payload, payload["answer"] if where == "answer" else payload["decomposition"][0][1]

    held, _value = harvested("1")
    assert harvested("1")[0] is held
    # 1 == 1.0 == True, and _Text("1") == "1", yet each encodes its own
    # way: none is shared, not even with its own repeat
    payloads = []
    for again in (1, 1.0, True, _Text("1"), 0.0, -0.0):
        for _ in range(2):
            payload, value = harvested(again)
            assert type(value) is type(again) and repr(value) == repr(again)
            payloads.append(payload)
    assert len({id(payload) for payload in payloads + [held]}) == len(payloads) + 1
    _assert_lines_are_canonical(graph, lines)


# ----------------------------------------------------------------------
# formatting


def test_empty_bundle_renders_bare_question():
    prompt = format_bundle(MemoryBundle(), "what is 2+2")
    assert prompt == "[QUESTION]\nQ: what is 2+2"


def test_bundle_renders_success_first_failure_second(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("t")
    add_success(graph, index, tt, question="sq", vector=one_hot(0))
    add_failure(graph, index, tt, question="fq", vector=one_hot(1))
    bundle = index.retrieve_bundle(one_hot(0), tt, context_length=10)
    prompt = format_bundle(bundle, "target")
    s, f, q = prompt.index("[SUCCESS 1]"), prompt.index("[CORRECTION 1]"), prompt.index("[QUESTION]")
    assert s < f < q
    assert "conditions: q=fq; task_type=t; skill=None; kind=specific" in prompt
    assert prompt.endswith("Q: target")


def test_bundle_guidance_and_context_lines():
    prompt = format_bundle(
        MemoryBundle(), "q", context="unlocked: none", guidance=["try the ladder"]
    )
    assert prompt == (
        "[QUESTION]\nContext: unlocked: none\nNote: try the ladder\nQ: q"
    )


def test_golden_bundle_bytes(indexed):
    graph, index, _ = indexed
    tt = graph.add_task_type("arith_two_step")
    skill = graph.add_skill("value_extraction")
    for i, q in enumerate(["first success", "second success"]):
        nid = graph.append_experience(
            "success_memory",
            {
                "question": q,
                "reasoning_trace": f"step {i + 1}: compute",
                "answer": str(i + 1),
            },
            task_type_id=tt,
            skill_id=skill,
        )
        index.index_memory(nid, one_hot(i))
    for i, q in enumerate(["first failure", "second failure"]):
        nid = graph.append_experience(
            "failure_memory",
            {
                "question": q,
                "wrong_answer": "9",
                "corrective_reasoning": f"re-read clause {i + 1}",
                "correct_answer": "7",
            },
            task_type_id=tt,
            skill_id=skill,
            kind="specific",
        )
        index.index_memory(nid, one_hot(10 + i))
    query = one_hot(0) + 0.5 * one_hot(1) + 0.3 * one_hot(10) + 0.2 * one_hot(11)
    bundle = index.retrieve_bundle(query, tt, context_length=600)
    assert (len(bundle.success), len(bundle.failure)) == (1, 2)
    prompt = format_bundle(bundle, "the held-out question")
    golden = (GOLDEN / "bundle_golden.txt").read_text()
    assert prompt == golden
    # a second, independently built index renders the identical bytes
    graph2 = KnowledgeGraph()
    index2 = MemoryIndex(graph2, dimension=64)
    tt2 = graph2.add_task_type("arith_two_step")
    skill2 = graph2.add_skill("value_extraction")
    for i, q in enumerate(["first success", "second success"]):
        nid = graph2.append_experience(
            "success_memory",
            {
                "question": q,
                "reasoning_trace": f"step {i + 1}: compute",
                "answer": str(i + 1),
            },
            task_type_id=tt2,
            skill_id=skill2,
        )
        index2.index_memory(nid, one_hot(i))
    for i, q in enumerate(["first failure", "second failure"]):
        nid = graph2.append_experience(
            "failure_memory",
            {
                "question": q,
                "wrong_answer": "9",
                "corrective_reasoning": f"re-read clause {i + 1}",
                "correct_answer": "7",
            },
            task_type_id=tt2,
            skill_id=skill2,
            kind="specific",
        )
        index2.index_memory(nid, one_hot(10 + i))
    bundle2 = index2.retrieve_bundle(query, tt2, context_length=600)
    assert format_bundle(bundle2, "the held-out question") == golden


# ----------------------------------------------------------------------
# cascade context


def _principle(graph, skill_id, text):
    pid = graph.append_experience("principle", {"text": text})
    graph.add_principle_ref(skill_id, pid)
    return pid


def test_cascade_isolated_skill(graph):
    s = graph.add_skill("s")
    p = _principle(graph, s, "own")
    assert cascade_principles(graph, s) == [p]


def test_cascade_chain_order(graph):
    a, b, c = (graph.add_skill(n) for n in "abc")
    graph.add_prerequisite(a, b)
    graph.add_prerequisite(b, c)
    pa, pb, pc = (_principle(graph, s, n) for s, n in ((a, "pa"), (b, "pb"), (c, "pc")))
    assert cascade_principles(graph, c) == [pa, pb, pc]


def test_cascade_diamond_dedup(graph):
    a, b, c, d = (graph.add_skill(n) for n in "abcd")
    for x, y in ((a, b), (a, c), (b, d), (c, d)):
        graph.add_prerequisite(x, y)
    pa = _principle(graph, a, "shared root")
    graph.add_principle_ref(b, pa)
    graph.add_principle_ref(c, pa)
    pd = _principle(graph, d, "own")
    out = cascade_principles(graph, d)
    assert out.count(pa) == 1
    assert out == [pa, pd]


def test_cascade_order_respects_prereqs(graph):
    ids = [graph.add_skill(f"s{i}") for i in range(5)]
    edges = [(ids[0], ids[2]), (ids[1], ids[2]), (ids[2], ids[4]), (ids[3], ids[4])]
    for a, b in edges:
        graph.add_prerequisite(a, b)
    principle_of = {s: _principle(graph, s, f"p{s}") for s in ids}
    out = cascade_principles(graph, ids[4])
    skill_order = [s for s in ids if principle_of[s] in out]
    ordered_skills = sorted(skill_order, key=lambda s: out.index(principle_of[s]))
    assert respects_prereq_order(ordered_skills, edges)
    assert set(out) == set(principle_of.values())


def test_recipe_round_trip(graph):
    s = graph.add_skill("s")
    record_action_recipe(graph, s, ["move", "craft", "place"])
    assert latest_action_recipe(graph, s) == ["move", "craft", "place"]


def test_recipe_window_keeps_last_three(graph):
    s = graph.add_skill("s")
    record_action_recipe(graph, s, ["a", "b", "c", "d", "e"])
    assert latest_action_recipe(graph, s) == ["c", "d", "e"]


def test_recipe_missing_is_empty(graph):
    s = graph.add_skill("s")
    assert latest_action_recipe(graph, s) == []


def test_recipe_latest_wins(graph):
    s = graph.add_skill("s")
    record_action_recipe(graph, s, ["old"])
    record_action_recipe(graph, s, ["new"])
    assert latest_action_recipe(graph, s) == ["new"]


def test_recipe_falls_back_when_newest_is_deleted():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    s = graph.add_skill("s")
    other = graph.add_skill("other")
    record_action_recipe(graph, s, ["old"])
    newer = record_action_recipe(graph, s, ["new"])
    record_action_recipe(graph, other, ["elsewhere"])
    # a recipe without actions is skipped, even when it is the newest
    graph.append_experience("retrieval_recipe", {"actions": []}, skill_id=s)
    assert latest_action_recipe(graph, s) == ["new"]
    # no writer removes a recipe, but replay applies a prune record that
    # names one as it stands
    records = [json.loads(line) for line in lines]
    records.append(
        {"seq": len(records) + 1, "iter": graph.current_iter, "op": "prune",
         "payload": {"threshold": None, "removed_ids": [newer]}}
    )
    replayed = KnowledgeGraph.replay(records)
    assert newer not in replayed.experience
    assert replayed.recipe_ids(s) == [nid for nid in graph.recipe_ids(s) if nid != newer]
    assert latest_action_recipe(replayed, s) == ["old"]
    assert latest_action_recipe(replayed, other) == ["elsewhere"]


def test_recipe_requires_actions(graph):
    s = graph.add_skill("s")
    with pytest.raises(ValidationError):
        record_action_recipe(graph, s, [])


def test_lattice_single_line(graph):
    tt = graph.add_task_type("t")
    s = graph.add_skill("solo", mastery=0.3)
    graph.set_resolver(tt, s)
    assert render_skill_lattice(graph, tt) == "- solo (mastery 0.30)"


def test_lattice_chain_prereqs_first(graph):
    tt = graph.add_task_type("t")
    a = graph.add_skill("base", mastery=0.9)
    b = graph.add_skill("mid", mastery=0.5)
    c = graph.add_skill("top", mastery=0.1)
    d = graph.add_skill("apex", mastery=0.0)
    graph.add_prerequisite(a, b)
    graph.add_prerequisite(b, c)
    graph.add_prerequisite(c, d)
    graph.set_resolver(tt, d)
    text = render_skill_lattice(graph, tt)
    lines = text.split("\n")
    assert len(lines) == 4
    assert lines[0] == "- base (mastery 0.90)"
    assert lines[1] == "  - mid (mastery 0.50)"
    assert lines[3] == "      - apex (mastery 0.00)"
    assert render_skill_lattice(graph, tt) == text


def test_lattice_no_resolver(graph):
    tt = graph.add_task_type("t")
    assert render_skill_lattice(graph, tt) == ""


def test_override_below_threshold_keeps_requested(graph):
    s = graph.add_skill("s", mastery=0.2)
    assert curriculum_override(graph, s, 0.5) == s


def test_override_redirects_to_weakest_frontier(graph):
    requested = graph.add_skill("done", mastery=0.9)
    b = graph.add_skill("b", mastery=0.1)
    c = graph.add_skill("c", mastery=0.3)
    assert curriculum_override(graph, requested, 0.5) == b


def test_override_empty_frontier_degrades(graph):
    requested = graph.add_skill("done", mastery=0.9)
    graph.add_skill("also done", mastery=0.8)
    assert curriculum_override(graph, requested, 0.5) == requested
