"""Golden digests: three small fixed runs must keep writing the same bytes.

Determinism is a hard rule for this package: for the same config, a speedup
leaves ``events.log``, ``reports.jsonl``, the boundary snapshots and the
frozen-eval records (held-out pool, with and without retrieval; a
sequential run's evolution pool, the only one it has) byte for byte as
they were. The run-file digests were taken before the graph encoder
became incremental, the eval-record digests before the learner prompt path
memoized its embeddings and cascade context. A change that moves one of
them changes what a run records; it must name that behaviour change and its
before/after numbers, and update the digests in the same commit.

The third run covers what the first two skip: it stops half way and resumes
in a fresh ``RunStore``, re-measures after UPDATE, and takes every bundle
from the oracle fixture patched over ``Engine._bundle``; its digests were
taken when that oracle was a run-format option, and the fixture writes the
same bytes, except its reports and call audit, re-pinned when the
re-measure came to be judged in EVALUATE's per-type batches. The fourth
rolls back: its evaluation reports a 0.2 drop on every odd iteration, so
half its iterations restore the boundary snapshot from a ring of two.

The first two runs also pin which exemplars retrieval picks: the run files
cannot show it, because the simulated learner reads only how many blocks a
bundle holds. The digest is of every ``retrieve_bundle`` call's success and
failure node ids in call order, node ids only, since similarity bits may
differ across CPUs; it was taken when the engine kept each bundle across
iterations until a write changed what its retrieval read, and so moved
then (static_qa 205 -> 202 calls, sequential 35 -> 25) while every run file
held. A second digest pins what every prompt of the run's training
carries, however retrieval served it: the node ids of the bundle each
``format_bundle`` call renders. It was taken before the explorer's prompt
joined the learner's path, on which a step reuses the bundle an earlier
step retrieved. So the sequential retrieval digest moved then while this
one held; so did the sequential eval without retrieval, which since
carries no recipe note.

Each run's audit lines are pinned too, as the audit printed them when it
still decoded the whole log into a list before checking it: every event
count, boundary count and final hash must come out of the streamed pass
unchanged. The last line, eval_boundary, came with the check that ties each
eval record's graph hashes to the replayed boundary it names.
"""

import hashlib

import pytest

from evoloop import Engine, EngineConfig, MemoryIndex, RunStore, audit_run, init_run, run_eval, run_training
from evoloop import engine as engine_module
from evoloop.runner import bootstrap_run

from oracles import oracle_bundle

GOLDEN = {
    "static_qa": (
        dict(iterations=4, pool_size=60, seed=1),
        {
            "events.log": "aaeacc654fe7154af0c2a3b7550c1ff6c61eff2ff3a36b8ed58e479d2a414512",
            "reports.jsonl": "fbdfcef74d84bb0dd249707ca70a26b98c8213145fdea01063f8caf0a26d9826",
            "snap-00003.json": "61d7d4258e942d70b8904025ae9657a320cc1d1630a81d23c565ca6554be19a5",
            "eval-held_out-ret-00004.json": "1aa5892abd35fa92064889b5153a7ed59d5dc53fba4b434c77827a70736e006a",
            "eval-held_out-noret-00004.json": "c8e2b84c1193b317154abdf1fcc1baa70259761e3aa4cbbd08da3e6531deba92",
        },
    ),
    "sequential": (
        dict(iterations=6, seed=1),
        {
            "events.log": "98fd7f16c337ce1ef379f20a6782832928f746bab86210bbe110be3129e7ae8e",
            "reports.jsonl": "ea2d39333b27fcd44c1bc3381c0359c47bdbf8ce9ae52b56e8b817e5cbea2e6f",
            "snap-00005.json": "74820e1925645ee48ac88e01d95b3e4243afec96ff38c404c40cd890461873fc",
            "eval-evolution-ret-00006.json": "6b92209ba62d6518b7cfa7feb3c28a63db7419594b5a867ad3460067ef4c01b0",
            "eval-evolution-noret-00006.json": "02cf18c3cd5e5992bf2c34e3d0045b72675f00ed83fd913d8038ed751233926c",
        },
    ),
}


AUDIT_LINES = {
    "static_qa": [
        "[PASS] protected_conservation: 236 protected nodes, none deleted across 879 events",
        "[PASS] selection_gap: max observed wait 4 within running bound over 4 committed iterations",
        "[PASS] mastery_ratchet: 11 skill trajectories obey the rise/decay law",
        "[PASS] tier_separation: guidance calls: train 48/288 (16.67%), inference 0",
        "[PASS] log_replay: 879 events replay cleanly, 4 boundary snapshots match, final hash 61d7d4258e94",
        "[PASS] bandit_consistency: 17 contexts match an independent event recount",
        "[PASS] eval_boundary: 2 eval records hash the replayed state at their boundary",
    ],
    "sequential": [
        "[PASS] protected_conservation: 36 protected nodes, none deleted across 290 events",
        "[PASS] selection_gap: max observed wait 2 within running bound over 6 committed iterations",
        "[PASS] mastery_ratchet: 8 skill trajectories obey the rise/decay law",
        "[PASS] tier_separation: guidance calls: train 24/56 (42.86%), inference 0",
        "[PASS] log_replay: 290 events replay cleanly, 6 boundary snapshots match, final hash 74820e192564",
        "[PASS] bandit_consistency: 13 contexts match an independent event recount",
        "[PASS] eval_boundary: 2 eval records hash the replayed state at their boundary",
    ],
    "resumed": [
        "[PASS] protected_conservation: 357 protected nodes, none deleted across 1290 events",
        "[PASS] selection_gap: max observed wait 4 within running bound over 6 committed iterations",
        "[PASS] mastery_ratchet: 11 skill trajectories obey the rise/decay law",
        "[PASS] tier_separation: guidance calls: train 108/828 (13.04%), inference 0",
        "[PASS] log_replay: 1290 events replay cleanly, 6 boundary snapshots match, final hash 4702d6ccd217",
        "[PASS] bandit_consistency: 17 contexts match an independent event recount",
        "[PASS] eval_boundary: 2 eval records hash the replayed state at their boundary",
    ],
    "rollback": [
        "[PASS] protected_conservation: 485 protected nodes, none deleted across 1763 events",
        "[PASS] selection_gap: max observed wait 6 within running bound over 6 committed iterations",
        "[PASS] mastery_ratchet: 17 skill trajectories obey the rise/decay law",
        "[PASS] tier_separation: guidance calls: train 128/608 (21.05%), inference 0",
        "[PASS] log_replay: 1763 events replay cleanly, 12 boundary snapshots match, final hash 0ce7d41ab2dc",
        "[PASS] bandit_consistency: 23 contexts match an independent event recount",
        "[PASS] eval_boundary: 0 eval records hash the replayed state at their boundary",
    ],
}


# sha256 of the node ids of every bundle the run retrieves, one line per
# call: success ids, "|", failure ids
RETRIEVALS = {
    "static_qa": "66aa3e59a01f08dc2be440f853e8cde5227d78e2d141de009027e9d81821f421",
    "sequential": "9759d1dfb62653d7509b765aa374566c6c41e5703071a7bafb0939f99b2d08e5",
}

# sha256 of the node ids of the bundle of every prompt training renders, one
# line per prompt in the same format
PROMPT_BUNDLES = {
    "static_qa": "fb098e0905b9cf17fce860acb82e6e9beaae29124f90c995eada9ac81c842e1b",
    "sequential": "424c1198437f6706540ff779ac2f2e5cd3f7dba9253450d577e9658c6834bc9c",
}


def _bundle_ids(bundle) -> str:
    ids = [[e.node_id for e in entries] for entries in (bundle.success, bundle.failure)]
    return " ".join(map(str, ids[0])) + "|" + " ".join(map(str, ids[1]))


@pytest.mark.parametrize("env_name", sorted(GOLDEN))
def test_run_files_match_golden_digests(tmp_path, monkeypatch, env_name):
    overrides, expected = GOLDEN[env_name]
    retrieved, prompted = [], []
    retrieve, render = MemoryIndex.retrieve_bundle, engine_module.format_bundle

    def recording(self, *args, **kwargs):
        bundle = retrieve(self, *args, **kwargs)
        retrieved.append(_bundle_ids(bundle))
        return bundle

    def rendering(bundle, *args, **kwargs):
        prompted.append(_bundle_ids(bundle))
        return render(bundle, *args, **kwargs)

    monkeypatch.setattr(MemoryIndex, "retrieve_bundle", recording)
    store = init_run(tmp_path / "run", EngineConfig(**overrides), env_name)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "format_bundle", rendering)
        run_training(store)
    # a sequential env has only its evolution pool
    pool = "held_out" if env_name == "static_qa" else "evolution"
    run_eval(store, pool, retrieval=True)
    run_eval(store, pool, retrieval=False)
    digests = {
        name: hashlib.sha256((store.root / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected
    assert hashlib.sha256("\n".join(retrieved).encode()).hexdigest() == RETRIEVALS[env_name]
    assert hashlib.sha256("\n".join(prompted).encode()).hexdigest() == PROMPT_BUNDLES[env_name]
    assert audit_run(RunStore(store.root)).lines() == AUDIT_LINES[env_name]


RESUMED = (
    dict(iterations=6, pool_size=60, seed=3, remeasure_after_update=True),
    {
        "events.log": "f422cebd0a4c4e4512deecebe07c98d5b32ef79c107ec9db7dd305f7bc9f4f1b",
        "reports.jsonl": "633ede5a2d32c1ab4470c8c2c2aaa5fd116542740d54404430fa1fde927506a8",
        "snap-00005.json": "4702d6ccd217e4ec458a3235507088d4e22c54366a1f7b35bc055862cf654a99",
        "eval-held_out-ret-00006.json": "3ba15f91a4ef287ca73278027699a740c3cf8c64fa507eb9e8cb64ce54f7fbfe",
        "eval-held_out-noret-00006.json": "37d6be14f42ffa3d58b24f084c955e0ac3e64701995ec419ab9bf5dba67d1e8a",
    },
)


def test_resumed_remeasure_oracle_run_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(Engine, "_bundle", oracle_bundle)
    overrides, expected = RESUMED
    store = init_run(tmp_path / "run", EngineConfig(**overrides), "static_qa")
    run_training(store, iterations=3)
    store = RunStore(store.root)
    run_training(store)
    run_eval(store, retrieval=True)
    run_eval(store, retrieval=False)
    digests = {
        name: hashlib.sha256((store.root / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected
    assert audit_run(RunStore(store.root)).lines() == AUDIT_LINES["resumed"]


ROLLBACK = (
    dict(iterations=12, pool_size=40, seed=1, snapshot_history_limit=2),
    {
        "events.log": "16f3e138f7fdcc0c14588c24e613a49de59182a9254b5642a8910ce96c3dd575",
        "reports.jsonl": "101b10a443f59eaff831df18f4cf0a48214f1e23000e746470a681f178cd6635",
        "snap-00011.json": "0ce7d41ab2dc5dc85c3aa8358d0d3477bbf067b83bfb12d621eee6bec1059006",
    },
)


def test_forced_rollback_run_matches_golden_digests(tmp_path):
    overrides, expected = ROLLBACK
    store = init_run(tmp_path / "run", EngineConfig(**overrides), "static_qa")
    engine = bootstrap_run(store)
    real_eval = engine._evaluate_static

    def drop_on_odd_iterations():
        out = real_eval()
        if engine.graph.current_iter % 2 == 1:
            out["accuracy"] = engine.prev_accuracy - 0.2
        return out

    engine._evaluate_static = drop_on_odd_iterations
    run_training(store, engine=engine)
    assert any(report["rollback"] != "none" for report in store.read_reports())
    digests = {
        name: hashlib.sha256((store.root / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected
    assert audit_run(RunStore(store.root)).lines() == AUDIT_LINES["rollback"]


# each eval record the static_qa case pins, and those of an eval of its run
# before the first iteration, when only the bootstrap is committed
STATIC_QA_EVALS = {name: digest for name, digest in GOLDEN["static_qa"][1].items() if name.startswith("eval-")}
BOOTSTRAP_EVALS = {
    "eval-held_out-ret-00000.json": "d64b2f0788fd7bdb49edc9a849b2cb67a0e6c6c196847938a76732d66c2e40ca",
    "eval-held_out-noret-00000.json": "f1acebed7e0fc27a4d5c2a63d6088da51c05dbf24062c0af92c8155da9108d7f",
}


@pytest.mark.parametrize("source", ["boundary_file_missing", "bootstrap_only"])
def test_eval_records_that_hash_the_graph_match_golden_digests(tmp_path, source):
    # run_eval names a committed state by its boundary file; without that
    # file, or before the first commit, it hashes the graph, and must write
    # the same record
    overrides, _expected = GOLDEN["static_qa"]
    store = init_run(tmp_path / "run", EngineConfig(**overrides), "static_qa")
    if source == "bootstrap_only":
        bootstrap_run(store)
        expected = BOOTSTRAP_EVALS
    else:
        run_training(store)
        expected = STATIC_QA_EVALS
        store.snapshot_path(overrides["iterations"] - 1).unlink()
    for retrieval in (True, False):
        run_eval(store, retrieval=retrieval)
    digests = {
        name: hashlib.sha256((store.root / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected
    assert audit_run(RunStore(store.root)).passed
