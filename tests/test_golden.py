"""Golden digests: two small fixed runs must keep writing the same bytes.

Determinism is a hard rule for this package: for the same config, a speedup
leaves ``events.log``, ``reports.jsonl``, the boundary snapshots and the
frozen-eval records (held-out pool, with and without retrieval) byte for
byte as they were. The run-file digests were taken before the graph encoder
became incremental, the eval-record digests before the learner prompt path
memoized its embeddings and cascade context. A change that moves one of
them changes what a run records; it must name that behaviour change and its
before/after numbers, and update the digests in the same commit.
"""

import hashlib

import pytest

from evoloop import EngineConfig, init_run, run_eval, run_training

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
            "eval-held_out-ret-00006.json": "dfe58b72eaf828cb1804149442799ed839b68ce356b310288dce28831ed476fe",
            "eval-held_out-noret-00006.json": "8d5a2661c00611ddfca1326e8a5225dc226bb1f7f3b6374eccdc95fa0fb80d01",
        },
    ),
}


@pytest.mark.parametrize("env_name", sorted(GOLDEN))
def test_run_files_match_golden_digests(tmp_path, env_name):
    overrides, expected = GOLDEN[env_name]
    store = init_run(tmp_path / "run", EngineConfig(**overrides), env_name)
    run_training(store)
    run_eval(store, retrieval=True)
    run_eval(store, retrieval=False)
    digests = {
        name: hashlib.sha256((store.root / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == expected
