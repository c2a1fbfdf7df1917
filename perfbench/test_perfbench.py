"""Self-tests of the benchmark.

Run from the root of the repository:

    python3 -m pytest perfbench -q

They take about a minute: each workload runs once traced, and the
baseline run trains static_qa for 20 iterations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import evoloop  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import END_TO_END, WORKLOADS, run_workload, tail_percentile  # noqa: E402

# layers the README table says work in each workload: each must record
# nonzero calls, bytes or time there
WORKS_IN = {
    "qa_train": (
        "memory.retrieve_calls",
        "memory.index_entries",
        "memory.recipe_lookup_calls",
        "memory.harvest_calls",
        "memory.format_s",
        "graph.state_calls",
        "graph.experience_nodes",
        "runstore.events_bytes",
        "runstore.report_bytes",
        "runstore.snapshot_bytes",
        "backends.execution_calls",
        "backends.judge_calls",
        "backends.guidance_calls",
        "backends.embed_calls",
        "engine.iteration_s",
        "engine.self_s",
    ),
    "qa_read": (
        "memory.retrieve_calls",
        "memory.index_entries",
        "memory.rebuild_index_s",
        "graph.replay_calls",
        "graph.replay_events",
        "graph.experience_nodes",
        "runstore.read_s",
        "backends.execution_calls",
        "backends.embed_calls",
        "audit.run_s",
        "audit.replay_events",
    ),
}

# layers a workload never enters
IDLE_IN = {
    "qa_train": ("graph.replay_calls", "memory.rebuild_index_s", "audit.run_s"),
    "qa_read": ("engine.iteration_s", "memory.harvest_calls", "runstore.flush_s", "runstore.snapshot_bytes"),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    runs = {}
    for name in WORKLOADS:
        scratch = tmp_path_factory.mktemp(name)
        runs[name] = run_workload(evoloop, name, seed=3, seconds=0, trace=True, scratch=scratch, src=SRC)
    return runs


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == [HERE.name]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_correct_and_reports_every_layer(traced, name):
    out = traced[name]
    assert out["result"]["correct"], out["detail"]["errors"]
    layers = out["detail"]["per_layer"]
    assert set(PER_LAYER) <= set(layers)
    for metric in WORKS_IN[name]:
        assert layers[metric] > 0, metric
    for metric in IDLE_IN[name]:
        assert layers[metric] == 0, metric
    for module in ("memory", "graph", "runstore", "backends", "audit", "engine", "bandits", "curriculum"):
        assert layers[f"{module}.failed"] == 0


def test_layer_shares_match_workload_rationale(traced):
    qa = traced["qa_train"]["detail"]["layer_self_s"]
    assert max(qa, key=qa.get) == "memory.retrieve"
    # snapshot serialisation comes next
    assert sorted(qa, key=qa.get)[-2] == "graph.state"

    read = traced["qa_read"]["detail"]
    total = sum(read["layer_self_s"].values())
    assert read["per_layer"]["audit.run_s"] > 0.5 * total
    assert read["layer_self_s"]["graph.replay"] > read["layer_self_s"]["memory.retrieve"]


def test_counts_bytes_and_digests_repeat_for_a_seed(traced, tmp_path):
    first = traced["qa_read"]["detail"]
    again = run_workload(evoloop, "qa_read", seed=3, seconds=0, trace=True, scratch=tmp_path, src=SRC)["detail"]
    assert again["digests"] == first["digests"]
    assert again["heldout_accuracy"] == first["heldout_accuracy"]
    assert again["end_to_end"]["disk_bytes_per_iter"] == first["end_to_end"]["disk_bytes_per_iter"]
    exact = [name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes", "ratio")]
    assert {k: again["per_layer"][k] for k in exact} == {k: first["per_layer"][k] for k in exact}


def test_tracer_restores_every_patched_name(traced):
    assert evoloop.engine.format_bundle is evoloop.memory.format_bundle
    assert evoloop.runner.rebuild_index is evoloop.memory.rebuild_index
    for fn in (
        evoloop.memory.format_bundle,
        evoloop.memory.MemoryIndex.retrieve_bundle,
        evoloop.graph.KnowledgeGraph.canonical_bytes,
        evoloop.graph.KnowledgeGraph.replay,
        evoloop.audit_run,
    ):
        assert not hasattr(fn, "__wrapped__"), fn


def test_baseline_sizes_static_qa_20x200(tmp_path):
    config = evoloop.EngineConfig(iterations=20, pool_size=200, seed=42)
    store = evoloop.init_run(tmp_path / "run", config, "static_qa")
    evoloop.run_training(store)
    assert (store.root / "events.log").stat().st_size == 2_833_273
    assert sum(p.stat().st_size for p in store.root.glob("snap-*.json")) == 18_975_995


@pytest.mark.parametrize("env,iterations,pool", [("static_qa", 6, 40), ("sequential", 10, 200)])
def test_resume_at_half_matches_uninterrupted_run(tmp_path, env, iterations, pool):
    config = evoloop.EngineConfig(iterations=iterations, pool_size=pool, seed=7)
    whole = evoloop.init_run(tmp_path / "whole", config, env)
    evoloop.run_training(whole)
    halves = evoloop.init_run(tmp_path / "halves", config, env)
    evoloop.run_training(halves, iterations // 2)
    evoloop.run_training(halves)

    def files(root: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    assert files(halves.root) == files(whole.root)


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(20) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(120) == 90
    assert tail_percentile(1000) == 99


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / HERE.name).mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / HERE.name)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "qa_train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
