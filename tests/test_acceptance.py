"""Acceptance checklist: one test per advertised structural guarantee.

Every derived expectation comes from the independent checkers in
oracles.py, never from package internals, and tolerances are stated
inline. Run with -v to read the twelve pass/fail lines; each test also
prints a one-line summary of what it swept.
"""

import time
from collections import Counter
from pathlib import Path

import numpy as np

from evoloop import (
    EXECUTION_AGENTS,
    GUIDANCE_AGENTS,
    Engine,
    EngineConfig,
    HashEmbedder,
    KnowledgeGraph,
    MemoryIndex,
    RatchetParams,
    RunStore,
    SelectorParams,
    audit_run,
    call_audit,
    format_bundle,
    init_run,
    load_engine,
    make_env,
    mastery_update,
    round_robin_select,
    run_eval,
    run_training,
    select_arm,
    stats_rows,
)
from evoloop.cli import main
from evoloop.memory import normalize
from evoloop.runner import bootstrap_run, build_simulated_engine

from oracles import (
    allocation_reference,
    gap_bound_reference,
    oracle_bundle,
    rank_store_reference,
    ratchet_ok_fast,
    topk_reference,
    tv_reference,
)

GOLDEN = Path(__file__).parent / "golden"

PROTECTED_CLASSES = ("failure_memory", "principle", "success_memory")


# ----------------------------------------------------------------------
# 1. selection waiting bound, exhaustive sweep


def _apply_failures(stream_id, k, n_types, n_fail, rng):
    """One iteration of the adversarial failure stream.

    All streams stop adding failures after iteration 5 and cap the
    per-type total at 6, so the worst reference bound (6 / 0.1 + 8 / 1
    = 68) stays below the 100-iteration horizon.
    """
    if k >= 6 or stream_id == 0:
        return
    if stream_id == 1:
        for t in range(n_types):
            n_fail[t] += 1
    elif stream_id == 2:
        # dominated subset: the low-id half soaks up every failure
        for t in range(max(1, n_types // 2)):
            n_fail[t] += 1
    elif stream_id == 3:
        n_fail[0] += 1
    else:
        for t in range(n_types):
            if n_fail[t] < 6:
                n_fail[t] += int(rng.integers(0, 2))


def test_criterion_01_selection_wait_never_exceeds_bound():
    start = time.monotonic()
    bound_cache = {}
    streams = 0
    waits_checked = 0
    for n_types in range(1, 9):
        for max_targets in (1, 2, 3):
            for weight_str in ("0.1", "0.3", "1.0"):
                params = SelectorParams(
                    recency_weight=float(weight_str), max_targets=max_targets
                )
                for stream_id in range(7):
                    streams += 1
                    rng = np.random.default_rng(
                        [n_types, max_targets, int(float(weight_str) * 10), stream_id]
                    )
                    n_fail = {t: 0 for t in range(n_types)}
                    k_last = {t: -1 for t in range(n_types)}
                    for k in range(100):
                        _apply_failures(stream_id, k, n_types, n_fail, rng)
                        key = (n_types, max(n_fail.values()), weight_str, max_targets)
                        bound = bound_cache.get(key)
                        if bound is None:
                            bound = gap_bound_reference(*key)
                            bound_cache[key] = bound
                        for t in range(n_types):
                            wait = k - k_last[t]
                            assert wait <= bound, (
                                n_types, max_targets, weight_str, stream_id, k, t,
                                wait, bound,
                            )
                            waits_checked += 1
                        stats = [(t, n_fail[t], k_last[t]) for t in range(n_types)]
                        for t in round_robin_select(stats, k, params):
                            k_last[t] = k
    elapsed = time.monotonic() - start
    assert streams == 504
    assert elapsed < 60.0
    print(
        f"criterion 01: waiting bound held across {streams} streams "
        f"({waits_checked} waits, {elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------
# 2. mastery ratchet bounds on random evidence traces


def test_criterion_02_ratchet_bounds_on_random_traces():
    start = time.monotonic()
    rng = np.random.default_rng(26081702)
    base = RatchetParams(rise_rate=0.6, decay_rate=0.1)
    traces = 0
    for _ in range(10_000):
        m = float(rng.random())
        trace = [m]
        for e in rng.random(int(rng.integers(1, 501))):
            m = mastery_update(m, float(e), base)
            trace.append(m)
        assert ratchet_ok_fast(trace, 0.6, 0.1, tol=1e-12)
        traces += 1
    for _ in range(20):
        rise = float(rng.uniform(0.05, 0.95))
        decay = float(rng.uniform(0.01, 0.9 * rise))
        params = RatchetParams(rise_rate=rise, decay_rate=decay)
        for _ in range(100):
            m = float(rng.random())
            trace = [m]
            for e in rng.random(int(rng.integers(1, 200))):
                m = mastery_update(m, float(e), params)
                trace.append(m)
            assert ratchet_ok_fast(trace, rise, decay, tol=1e-12)
            traces += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"criterion 02: ratchet bounds held on {traces} traces at 1e-12 "
        f"({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------
# 3. protected experience classes survive every operation


def test_criterion_03_protected_classes_never_shrink():
    rng = np.random.default_rng(26081703)
    ops_run = rollbacks = prunes = 0
    for _ in range(1000):
        graph = KnowledgeGraph(snapshot_history_limit=8)
        tt = graph.add_task_type("probe")
        graph.snapshot()
        shadow = {}  # node id -> (outcome, confidence)
        prev = graph.protected_counts()
        for _ in range(30):
            roll = int(rng.integers(0, 10))
            if roll == 0:
                nid = graph.append_experience("principle", {"text": "p"})
                shadow[nid] = ("principle", 1.0)
            elif roll == 1:
                kind = "specific" if rng.integers(0, 2) else "type_strategy"
                nid = graph.append_experience(
                    "failure_memory",
                    {"question": "q", "wrong_answer": "w",
                     "corrective_reasoning": "c", "correct_answer": "a"},
                    task_type_id=tt,
                    kind=kind,
                )
                shadow[nid] = ("failure_memory", 1.0)
            elif roll == 2:
                nid = graph.append_experience(
                    "success_memory",
                    {"question": "q", "reasoning_trace": "r", "answer": "a"},
                    task_type_id=tt,
                )
                shadow[nid] = ("success_memory", 1.0)
            elif roll in (3, 9):
                conf = float(rng.random())
                nid = graph.append_experience(
                    "abstracted_pattern", {"pattern": "x"}, confidence=conf
                )
                shadow[nid] = ("abstracted_pattern", conf)
            elif roll == 4:
                nid = graph.append_experience("retrieval_recipe", {"steps": "s"})
                shadow[nid] = ("retrieval_recipe", 1.0)
            elif roll in (5, 8):
                # 1.0 prunes every pattern short of full confidence
                threshold = 1.0 if roll == 8 else float(rng.random())
                removed = set(graph.prune_low_confidence(threshold))
                prunes += 1
                for nid, (outcome, conf) in list(shadow.items()):
                    if nid in removed:
                        assert outcome == "abstracted_pattern" and conf < threshold
                        shadow.pop(nid)
                    elif outcome == "abstracted_pattern":
                        assert conf >= threshold
            elif roll == 6:
                graph.snapshot()
            elif roll == 7:
                graph.rollback_mutable(int(rng.choice(graph.snapshot_ids())))
                rollbacks += 1
            ops_run += 1
            counts = graph.protected_counts()
            for cls, floor in prev.items():
                assert counts[cls] >= floor, (cls, counts, prev)
            prev = counts
        expect = {
            cls: sum(1 for o, _ in shadow.values() if o == cls) for cls in prev
        }
        assert prev == expect
    print(
        f"criterion 03: protected counts monotone through {ops_run} ops "
        f"({rollbacks} rollbacks, {prunes} prunes), zero tolerance"
    )


# ----------------------------------------------------------------------
# 4. ratchet reference points


def test_criterion_04_ratchet_reference_points():
    params = RatchetParams(rise_rate=0.6, decay_rate=0.1)
    assert abs(mastery_update(0.5, 1.0, params) - 0.8) <= 1e-15
    assert abs(mastery_update(0.8, 0.0, params) - 0.72) <= 1e-15
    for m in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0):
        assert abs(mastery_update(m, m, params) - m) <= 1e-15
    print("criterion 04: reference updates and fixed points exact within 1e-15")


# ----------------------------------------------------------------------
# 5. slot allocation law, task filter, strategy-note floor


_VOCAB = (
    "gear", "ratio", "pump", "valve", "tank", "flow",
    "crate", "mass", "beam", "load", "belt", "motor",
)


def _phrase(rng):
    n = int(rng.integers(2, 6))
    return " ".join(_VOCAB[int(i)] for i in rng.integers(0, len(_VOCAB), n))


def test_criterion_05_allocation_and_admission_rules():
    rng = np.random.default_rng(26081705)
    checked = floor_admissions = 0
    for store_i in range(50):
        graph = KnowledgeGraph()
        embedder = HashEmbedder(seed=store_i)
        index = MemoryIndex(graph, dimension=embedder.dimension)
        tts = [graph.add_task_type(f"type-{i}") for i in range(3)]
        questions = []
        for _ in range(int(rng.integers(8, 25))):
            tt = tts[int(rng.integers(0, 3))]
            q = _phrase(rng)
            if rng.integers(0, 2):
                nid = graph.append_experience(
                    "success_memory",
                    {"question": q, "reasoning_trace": "t", "answer": "1"},
                    task_type_id=tt,
                )
            else:
                kind = "type_strategy" if rng.integers(0, 2) else "specific"
                nid = graph.append_experience(
                    "failure_memory",
                    {"question": q, "wrong_answer": "0",
                     "corrective_reasoning": "c", "correct_answer": "1"},
                    task_type_id=tt,
                    kind=kind,
                )
            index.index_memory(nid, embedder.embed(q))
            questions.append(q)
        for _ in range(200):
            tt = tts[int(rng.integers(0, 3))]
            if rng.integers(0, 4) == 0:
                qtext = questions[int(rng.integers(0, len(questions)))]
            else:
                qtext = _phrase(rng)
            if rng.integers(0, 4) == 0:
                ctx = int(rng.choice([499, 500]))  # exact boundary
            else:
                ctx = int(rng.integers(0, 1000))
            qvec = embedder.embed(qtext)
            bundle = index.retrieve_bundle(qvec, tt, context_length=ctx)
            want = allocation_reference(ctx, 3, 500)
            assert bundle.allocation == want
            assert want == ((2, 1) if ctx < 500 else (1, 2))
            qn = normalize(qvec)
            for entry in bundle.success + bundle.failure:
                assert entry.task_type_id == tt
            for entry in bundle.failure:
                if entry.kind == "type_strategy":
                    sim = float(normalize(embedder.embed(entry.payload["question"])) @ qn)
                    assert sim >= 0.55, (store_i, qtext, entry.node_id, sim)
                    floor_admissions += 1
            checked += 1
    assert checked == 10_000
    assert floor_admissions > 0
    print(
        f"criterion 05: allocation law and filters held on {checked} queries "
        f"({floor_admissions} floor-gated admissions), zero tolerance"
    )


# ----------------------------------------------------------------------
# 6. bundle rendering order and byte stability


def _one_hot(i, dimension=64):
    v = np.zeros(dimension)
    v[i] = 1.0
    return v


def _two_by_two_store():
    graph = KnowledgeGraph()
    index = MemoryIndex(graph, dimension=64)
    tt = graph.add_task_type("arith_two_step")
    skill = graph.add_skill("value_extraction")
    for i, q in enumerate(["first success", "second success"]):
        nid = graph.append_experience(
            "success_memory",
            {"question": q, "reasoning_trace": f"step {i + 1}: compute",
             "answer": str(i + 1)},
            task_type_id=tt,
            skill_id=skill,
        )
        index.index_memory(nid, _one_hot(i))
    for i, q in enumerate(["first failure", "second failure"]):
        nid = graph.append_experience(
            "failure_memory",
            {"question": q, "wrong_answer": "9",
             "corrective_reasoning": f"re-read clause {i + 1}",
             "correct_answer": "7"},
            task_type_id=tt,
            skill_id=skill,
            kind="specific",
        )
        index.index_memory(nid, _one_hot(10 + i))
    return index, tt


def test_criterion_06_bundle_rendering_ordered_and_byte_stable():
    query = _one_hot(0) + 0.5 * _one_hot(1) + 0.3 * _one_hot(10) + 0.2 * _one_hot(11)
    index, tt = _two_by_two_store()
    bundle = index.retrieve_bundle(query, tt, context_length=100, k=4)
    assert (len(bundle.success), len(bundle.failure)) == (2, 2)
    prompt = format_bundle(bundle, "the held-out question")
    golden = (GOLDEN / "bundle_2s2f_golden.txt").read_text()
    assert prompt == golden
    assert prompt.startswith("[SUCCESS 1]")
    assert prompt.index("[SUCCESS 2]") < prompt.index("[CORRECTION 1]")
    # an independently rebuilt store renders the identical bytes
    index2, tt2 = _two_by_two_store()
    bundle2 = index2.retrieve_bundle(query, tt2, context_length=100, k=4)
    assert format_bundle(bundle2, "the held-out question") == golden
    print("criterion 06: 2+2 bundle renders success-first and byte-stable")


# ----------------------------------------------------------------------
# 7. per-task improvement: monotone under oracle retrieval, drops bounded
#    by measured retrieval error under hash retrieval


def _per_task_rates(report):
    by_tt = {}
    for row in report.per_question:
        by_tt.setdefault(row["task_type_id"], []).append(row["reward"])
    return {tt: sum(v) / len(v) for tt, v in by_tt.items()}


def _retrieval_error(engine, queries, k):
    """Per query, the total variation between uniform picks from the cosine
    top-k and from the value-optimal top-k of the same eligible exemplars
    (the query's task type, the type_strategy floor), ranked by brute force.
    An exemplar of the query's own question is worth 1.0, any other 0.15.
    """
    embed = engine.backends.embedder.embed
    floor = engine.config.type_strategy_min_similarity
    stores = {"success_memory": [], "failure_memory": []}
    question_of = {}
    for nid, node in engine.graph.experience.items():
        if node.outcome in stores:
            question_of[nid] = node.payload.get("question", "")
            stores[node.outcome].append({
                "node_id": nid,
                "task_type_id": node.task_type_id,
                "kind": node.kind,
                "vector": embed(question_of[nid]),
            })
    distances = []
    for text, task_type_id in queries:
        query = embed(text)
        pool = sorted(
            rank_store_reference(stores["success_memory"], query, task_type_id, floor)
            + rank_store_reference(stores["failure_memory"], query, task_type_id, floor),
            key=lambda pair: (-pair[0], pair[1]),
        )
        retrieved = [nid for _, nid in pool[:k]]
        optimal = topk_reference(
            [(nid, 1.0 if question_of[nid] == text else 0.15) for _, nid in pool], k
        )
        distances.append(tv_reference(retrieved, optimal))
    return distances


def test_criterion_07_improvement_monotone_or_bounded_by_retrieval_error(monkeypatch):
    start = time.monotonic()
    with monkeypatch.context() as patch:
        # every bundle from an ideal retriever
        patch.setattr(Engine, "_bundle", oracle_bundle)
        env = make_env("static_qa", seed=11, pool_size=96)
        engine = build_simulated_engine(EngineConfig(pool_size=96, iterations=20, seed=11), env)
        engine.bootstrap()
        prev = None
        for k in range(20):
            report = engine.run_iteration(k)
            assert report.rollback == "none"
            rates = _per_task_rates(report)
            if prev is not None:
                for tt, rate in rates.items():
                    assert rate >= prev[tt] - 1e-12, (k, tt, rate, prev[tt])
            prev = rates

    drops = []
    for seed in (101, 102, 103, 104, 105):
        env = make_env("static_qa", seed=seed, pool_size=96)
        engine = build_simulated_engine(
            EngineConfig(pool_size=96, iterations=20, seed=seed), env
        )
        engine.bootstrap()
        # distinct (question text, task type id) pairs: equal pairs measure
        # the same
        queries = sorted({
            (q.text, engine.graph.task_type_by_name(q.task_type).id)
            for q in env.pool("evolution")[:96]
        })
        eps = 0.0
        max_drop = 0.0
        prev = None
        for k in range(20):
            report = engine.run_iteration(k)
            eps = max(eps, max(_retrieval_error(engine, queries, 3)))
            rates = _per_task_rates(report)
            if prev is not None:
                for tt, rate in rates.items():
                    max_drop = max(max_drop, prev[tt] - rate)
            prev = rates
        assert max_drop <= eps + 0.02, (seed, max_drop, eps)
        drops.append((max_drop, eps))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    worst = max(d - e for d, e in drops)
    print(
        f"criterion 07: oracle mode monotone; hash-mode worst drop-minus-eps "
        f"{worst:+.3f} <= 0.02 over 5 seeds ({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------
# 8. growth curves and coverage


def test_criterion_08_growth_curves_and_coverage(tmp_path):
    store = init_run(
        tmp_path / "growth", EngineConfig(iterations=20, pool_size=200), "static_qa"
    )
    run_training(store)
    rows = stats_rows(store)
    assert len(rows) == 20
    for before, after in zip(rows, rows[1:]):
        assert after["skills"] >= before["skills"]
        assert after["failure_memories"] >= before["failure_memories"]
        assert after["success_memories"] >= before["success_memories"]
    full = [row["iter"] for row in rows if row["coverage"] == 1.0]
    assert full, "coverage never reached all observed task types"
    t_star = full[0]
    engine = load_engine(store)
    n_max = max(tt.n_fail for tt in engine.graph.task_types.values())
    bound = gap_bound_reference(len(engine.graph.task_types), n_max, "0.3", 3)
    assert t_star <= bound, (t_star, bound, n_max)
    assert all(row["coverage"] == 1.0 for row in rows if row["iter"] >= t_star)
    print(
        f"criterion 08: growth monotone; full coverage at iteration {t_star} "
        f"<= bound {bound}"
    )


# ----------------------------------------------------------------------
# 9. tier separation


def test_criterion_09_tier_separation(tmp_path):
    store = init_run(
        tmp_path / "tiers", EngineConfig(iterations=8, pool_size=80), "static_qa"
    )
    engine = bootstrap_run(store)
    run_training(store, engine=engine)
    record = run_eval(store)
    # the same frozen eval on the training engine, so its tracker holds the
    # infer-phase calls too
    assert engine.eval_run()["calls"] == record["calls"]
    reports = store.read_reports()
    summary = call_audit(reports, [record])
    assert summary["infer_guidance_calls"] == 0
    assert summary["infer_guidance_fraction"] == 0.0
    assert summary["train_guidance_fraction"] > 0.0
    # the tracker keeps the joint (phase, agent, role) counts: every
    # guidance-role call must come from the four-agent roster, in training
    guidance_calls = 0
    for (phase, agent, role), count in engine.backends.tracker.counts().items():
        if role == "guidance":
            assert phase == "train", (phase, agent)
            assert agent in GUIDANCE_AGENTS, agent
            guidance_calls += count
        if phase == "infer":
            assert role != "guidance", (agent, role)
    assert guidance_calls > 0
    roster = GUIDANCE_AGENTS | EXECUTION_AGENTS | {"judge"}
    for report in reports:
        # marginals: guidance-role volume never exceeds what the roster made
        guidance_total = report["tier_calls"].get("guidance", 0)
        from_roster = sum(report["agent_calls"].get(a, 0) for a in GUIDANCE_AGENTS)
        assert guidance_total <= from_roster
        assert set(report["agent_calls"]) <= roster
    for key in record["calls"]:
        phase, _agent, role = key.split("/")
        assert phase == "infer"
        assert role != "guidance"
    result = audit_run(store)
    tier_check = next(c for c in result.checks if c.name == "tier_separation")
    assert tier_check.passed
    assert result.passed
    print(
        "criterion 09: frozen-eval guidance fraction 0.00%; training guidance "
        f"{summary['train_guidance_fraction']:.2%} from the four-agent roster only"
    )


# ----------------------------------------------------------------------
# 10. delta guard rollback semantics


def _bootstrapped_engine(pool=36):
    env = make_env("static_qa", seed=42, pool_size=pool)
    engine = build_simulated_engine(EngineConfig(pool_size=pool, iterations=6), env)
    engine.bootstrap()
    return engine


def _selected(graph):
    """The task types with a committed selection."""
    return {tid for tid, tt in graph.task_types.items() if tt.k_last >= 0}


def _force_drop(engine, drop):
    real_eval = engine._evaluate_static

    def forced():
        out = real_eval()
        out["accuracy"] = engine.prev_accuracy - drop
        return out

    engine._evaluate_static = forced


def test_criterion_10_delta_guard_rolls_back_exactly():
    engine = _bootstrapped_engine()
    for k in range(3):
        engine.run_iteration(k)
    boundary = engine.graph.snapshot_ids()[-1]
    snap_state = engine.graph.state_dict()["snapshots"][str(boundary)]["mutable_state"]
    pre_counts = engine.graph.protected_counts()
    pre_selected = _selected(engine.graph)
    _force_drop(engine, 0.04)
    report = engine.run_iteration(3)
    assert report.rollback == "delta"
    capture = engine.graph._capture_mutable_state()
    for section in ("skills", "task_types", "bandits"):
        for key, want in snap_state[section].items():
            assert capture[section][key] == want, (section, key)
    post_counts = engine.graph.protected_counts()
    for cls, floor in pre_counts.items():
        assert post_counts[cls] >= floor
    for outcome, ids in report.appended.items():
        if outcome in PROTECTED_CLASSES:
            for nid in ids:
                assert nid in engine.graph.experience
    assert post_counts["success_memory"] > pre_counts["success_memory"]
    assert _selected(engine.graph) == pre_selected

    engine2 = _bootstrapped_engine()
    for k in range(3):
        engine2.run_iteration(k)
    _force_drop(engine2, 0.02)
    assert engine2.run_iteration(3).rollback == "none"
    print(
        "criterion 10: 0.04 drop rolled back to exact snapshot state with "
        "protected appends retained; 0.02 committed"
    )


# ----------------------------------------------------------------------
# 11. bandit warm-up discipline and convergence


def test_criterion_11_bandit_warmup_then_convergence():
    probs = {"arm-hi": 0.8, "arm-mid": 0.5, "arm-lo": 0.2}
    shares = []
    for seed in range(10):
        # driven as the engine drives a slot: a Thompson pick logs its draw
        graph = KnowledgeGraph()
        graph.bandit_init("route", sorted(probs), warmup_pulls=20, rng_seed=seed)
        rewards = np.random.default_rng(9000 + seed)
        picks = []
        for t in range(2000):
            arm, thompson = select_arm(graph.bandits["route"])
            assert thompson == (t >= 60), (seed, t)
            if thompson:
                graph.bandit_record_draw("route", arm)
            graph.bandit_update("route", arm, 1 if rewards.random() < probs[arm] else 0)
            picks.append(arm)
        assert Counter(picks[:60]) == {"arm-hi": 20, "arm-lo": 20, "arm-mid": 20}
        share = sum(p == "arm-hi" for p in picks[60:]) / len(picks[60:])
        assert share > 0.70, (seed, share)
        shares.append(share)
    print(
        f"criterion 11: warm-up exact at 20/arm; best-arm share "
        f"{min(shares):.2f}..{max(shares):.2f} over 10 seeds (> 0.70)"
    )


# ----------------------------------------------------------------------
# 12. event sourcing: replay equality and interrupt/resume equivalence


def test_criterion_12_event_sourcing_and_resume(tmp_path):
    base = tmp_path / "base"
    assert main(["init", str(base), "--env", "static_qa",
                 "--pool", "80", "--iterations", "8"]) == 0
    assert main(["run", str(base)]) == 0
    store = RunStore(base)
    config = store.load_config()
    replayed = KnowledgeGraph.replay(
        store.read_events(),
        principles_per_skill_cap=config["principles_per_skill_cap"],
        skill_growth_cap=config["skill_growth_cap"],
        snapshot_history_limit=config["snapshot_history_limit"],
    )
    assert replayed.canonical_bytes() == (base / "snap-00007.json").read_bytes()

    names = ["events.log", "reports.jsonl"] + sorted(
        p.name for p in base.glob("snap-*.json")
    )
    baseline = {name: (base / name).read_bytes() for name in names}
    for cut in (1, 4, 6):
        run_dir = tmp_path / f"interrupt-{cut}"
        assert main(["init", str(run_dir), "--env", "static_qa",
                     "--pool", "80", "--iterations", "8"]) == 0
        assert main(["run", str(run_dir), "--iterations", str(cut)]) == 0
        assert main(["run", str(run_dir), "--resume"]) == 0
        for name, want in baseline.items():
            assert (run_dir / name).read_bytes() == want, (cut, name)
    print(
        "criterion 12: replay matches final snapshot bit-exactly; resume at "
        "cuts 1/4/6 byte-identical to the uninterrupted run"
    )
