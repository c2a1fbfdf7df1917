"""Run directories end to end: CLI verbs, resume, crash recovery, audit."""

import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

import evoloop.runner
from evoloop import (
    BackendError,
    Engine,
    EngineConfig,
    ExperienceNode,
    IntegrityError,
    KnowledgeGraph,
    RunStore,
    ValidationError,
    audit_run,
    init_run,
    load_engine,
    run_eval,
    run_training,
)
from evoloop.cli import STATS_HEADER, main
from evoloop.envs import StaticQAEnv


def read_bytes(run_dir, name):
    return (run_dir / name).read_bytes()


def init_and_run(run_dir, iterations=4, pool=24, extra=()):
    assert main(["init", str(run_dir), "--env", "static_qa", "--pool", str(pool),
                 "--iterations", str(iterations), *extra]) == 0
    assert main(["run", str(run_dir)]) == 0
    return RunStore(run_dir)


# the pool each env's evals here read: a sequential env has no held-out pool
EVAL_POOL = {"static_qa": "held_out", "sequential": "evolution"}


# ----------------------------------------------------------------------
# verbs and exit codes


def test_init_writes_config_with_default_seed(tmp_path):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 0
    config = json.loads((run_dir / "config.json").read_text())
    assert config["seed"] == 42
    assert "memory_refresh_gap" not in config
    assert "oracle_retrieval" not in config
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta == {"env": "static_qa", "format": 3}


def test_init_refuses_existing_run(tmp_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 0
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 1
    assert "already initialized" in capsys.readouterr().err


def test_init_rejects_decay_at_or_above_rise(tmp_path):
    bad = tmp_path / "over.json"
    bad.write_text(json.dumps({"mastery_decay_rate": 0.7}))
    code = main(["init", str(tmp_path / "r"), "--env", "static_qa", "--config", str(bad)])
    assert code == 1


def test_usage_errors_exit_one(tmp_path):
    assert main(["init", str(tmp_path / "r")]) == 1  # missing --env
    assert main(["frobnicate", "x"]) == 1


def test_run_then_eval_then_audit_then_stats(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=4)
    assert len(store.read_reports()) == 4

    assert main(["eval", str(run_dir)]) == 0
    assert main(["eval", str(run_dir), "--pool", "evolution", "--no-retrieval",
                 "--tag", "trainpool"]) == 0
    assert (run_dir / "eval-trainpool.json").is_file()

    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert "audit passed" in out

    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) == 5
    first = lines[1].split("\t")
    assert first[0] == "0" and first[1] == "8"


def test_backend_outage_exits_three(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 0

    def outage(*args, **kwargs):
        raise BackendError("backend call failed after 3 attempts: connection refused")

    monkeypatch.setattr("evoloop.cli.run_training", outage)
    assert main(["run", str(run_dir)]) == 3
    assert "backend error: backend call failed after 3 attempts" in capsys.readouterr().err


def test_stats_on_fresh_run_prints_header_only(tmp_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 0
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    assert capsys.readouterr().out.strip() == STATS_HEADER


def test_run_refuses_restart_without_resume(tmp_path, capsys):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    assert main(["run", str(run_dir)]) == 1
    assert "--resume" in capsys.readouterr().err
    assert main(["run", str(run_dir), "--resume"]) == 0


def test_run_cannot_target_fewer_than_committed(tmp_path):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    assert main(["run", str(run_dir), "--resume", "--iterations", "1"]) == 1


def test_eval_requires_training_record(tmp_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa"]) == 0
    assert main(["eval", str(run_dir)]) == 1
    assert "run training first" in capsys.readouterr().err


def test_verbs_require_run_directory(tmp_path):
    missing = str(tmp_path / "nope")
    for verb in ("run", "eval", "audit", "stats"):
        assert main([verb, missing]) == 1


# ----------------------------------------------------------------------
# resume equivalence and crash recovery


def test_resume_reproduces_uninterrupted_run_bitwise(tmp_path):
    full_dir = tmp_path / "full"
    split_dir = tmp_path / "split"
    init_and_run(full_dir, iterations=6, pool=24)

    assert main(["init", str(split_dir), "--env", "static_qa", "--pool", "24",
                 "--iterations", "6"]) == 0
    assert main(["run", str(split_dir), "--iterations", "3"]) == 0
    assert main(["run", str(split_dir), "--resume"]) == 0

    for name in ("events.log", "reports.jsonl"):
        assert read_bytes(full_dir, name) == read_bytes(split_dir, name)
    full_snaps = sorted(p.name for p in full_dir.glob("snap-*.json"))
    assert full_snaps == sorted(p.name for p in split_dir.glob("snap-*.json"))
    for name in full_snaps:
        assert read_bytes(full_dir, name) == read_bytes(split_dir, name)


def test_uncommitted_event_tail_is_truncated_on_load(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    original = read_bytes(run_dir, "events.log")
    events = list(store.read_events())
    fake = {
        "seq": events[-1]["seq"] + 1,
        "iter": 3,
        "op": "add_skill",
        "payload": {"id": 99999, "name": "ghost", "mastery": 0.0,
                    "prompt_template": "{question}", "strategy": "direct"},
    }
    with open(run_dir / "events.log", "a") as fh:
        fh.write(json.dumps(fake, sort_keys=True, separators=(",", ":")) + "\n")
    assert read_bytes(run_dir, "events.log") != original

    engine = load_engine(RunStore(run_dir))
    assert read_bytes(run_dir, "events.log") == original
    assert "ghost" not in {s.name for s in engine.graph.skills.values()}


def test_uncommitted_records_out_of_order_are_refused_untouched(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    seq = list(store.read_events())[-1]["seq"]
    # committed iters end at 2; an uncommitted 5 followed by a stray 1
    for offset, it in ((1, 5), (2, 1)):
        append_event(run_dir, {
            "seq": seq + offset,
            "iter": it,
            "op": "prune",
            "payload": {"threshold": None, "removed_ids": []},
        })
    tampered = read_bytes(run_dir, "events.log")
    with pytest.raises(IntegrityError, match=f"iter goes backwards at seq {seq + 2}: 1 after 5"):
        load_engine(RunStore(run_dir))
    assert read_bytes(run_dir, "events.log") == tampered


def test_event_record_without_iter_is_refused_untouched(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    seq = list(store.read_events())[-1]["seq"]
    append_event(run_dir, {"seq": seq + 1, "op": "prune", "payload": {}})
    tampered = read_bytes(run_dir, "events.log")
    with pytest.raises(IntegrityError, match="malformed event record"):
        load_engine(RunStore(run_dir))
    assert main(["run", str(run_dir), "--resume", "--iterations", "3"]) == 2
    assert "malformed event record" in capsys.readouterr().err
    assert read_bytes(run_dir, "events.log") == tampered


def test_contiguous_uncommitted_tail_over_several_iters_is_truncated(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    original = read_bytes(run_dir, "events.log")
    seq = list(store.read_events())[-1]["seq"]
    for offset, it in ((1, 3), (2, 3), (3, 4)):
        append_event(run_dir, {
            "seq": seq + offset,
            "iter": it,
            "op": "prune",
            "payload": {"threshold": None, "removed_ids": []},
        })
    engine = load_engine(RunStore(run_dir))
    assert read_bytes(run_dir, "events.log") == original
    assert engine.graph.last_seq == seq


def test_truncation_keeps_committed_bytes_and_fsyncs(tmp_path, monkeypatch):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    log = run_dir / "events.log"
    # committed lines in a spacing the writer never uses: a cut that
    # re-encodes the kept records would not give these bytes back
    spaced = "".join(json.dumps(e, sort_keys=True) + "\n" for e in store.read_events())
    log.write_text(spaced)
    seq = list(store.read_events())[-1]["seq"]
    append_event(run_dir, {
        "seq": seq + 1,
        "iter": 3,
        "op": "prune",
        "payload": {"threshold": None, "removed_ids": []},
    })
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    engine = load_engine(RunStore(run_dir))
    assert log.read_text() == spaced
    assert log.stat().st_ino in synced
    assert engine.graph.last_seq == seq


def test_every_rename_is_followed_by_a_directory_fsync(tmp_path, monkeypatch):
    run_dir = tmp_path / "r"
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    store = init_run(run_dir, EngineConfig(iterations=1, pool_size=24), "static_qa")
    directory = (run_dir.stat().st_ino, True)

    def file(name):
        return (run_dir / name).stat().st_ino, False

    # each file through a fsynced temp file, each rename made durable
    assert synced == [file("meta.json"), directory, file("config.json"), directory]
    run_training(store)
    synced.clear()
    store.write_snapshot(7, b"{}")
    assert synced == [file("snap-00007.json"), directory]
    synced.clear()
    path = store.write_eval("t", {"accuracy": 1.0})
    assert synced == [file(path.name), directory]


def test_committed_records_that_fail_replay_keep_the_tail_untouched(tmp_path):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    lines = (run_dir / "events.log").read_text().splitlines(keepends=True)
    seq = json.loads(lines[-1])["seq"]
    # a seq gap among the committed records, and an uncommitted tail
    gapped = json.loads(lines[10])
    gapped["seq"] += 100
    lines[10] = json.dumps(gapped, sort_keys=True, separators=(",", ":")) + "\n"
    (run_dir / "events.log").write_text("".join(lines))
    append_event(run_dir, {
        "seq": seq + 1,
        "iter": 3,
        "op": "prune",
        "payload": {"threshold": None, "removed_ids": []},
    })
    tampered = read_bytes(run_dir, "events.log")
    with pytest.raises(IntegrityError, match="event seq gap: expected 11, got 111"):
        load_engine(RunStore(run_dir))
    assert read_bytes(run_dir, "events.log") == tampered


def count_live_records(monkeypatch):
    """Count the records read_events yields, and at each ``_apply`` note how
    many of them are decoded but not yet applied."""
    read_events, apply = RunStore.read_events, KnowledgeGraph._apply
    seen = {"yielded": 0, "applied": 0, "most_live": 0}

    def counting_read(self):
        for record in read_events(self):
            seen["yielded"] += 1
            yield record

    def checking_apply(self, op, payload):
        seen["most_live"] = max(seen["most_live"], seen["yielded"] - seen["applied"])
        seen["applied"] += 1
        return apply(self, op, payload)

    monkeypatch.setattr(RunStore, "read_events", counting_read)
    monkeypatch.setattr(KnowledgeGraph, "_apply", checking_apply)
    return seen


def test_load_holds_one_decoded_record_at_a_time(tmp_path, monkeypatch):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    committed = len(list(store.read_events()))
    for offset, it in ((1, 3), (2, 4)):
        append_event(run_dir, {
            "seq": committed + offset,
            "iter": it,
            "op": "prune",
            "payload": {"threshold": None, "removed_ids": []},
        })
    seen = count_live_records(monkeypatch)
    engine = load_engine(RunStore(run_dir))
    assert engine.graph.last_seq == committed
    assert seen == {"yielded": committed + 2, "applied": committed, "most_live": 1}


def test_audit_holds_one_decoded_record_at_a_time(tmp_path, monkeypatch):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    total = len(list(store.read_events()))
    seen = count_live_records(monkeypatch)
    result = audit_run(RunStore(run_dir))
    assert result.passed
    assert seen == {"yielded": total, "applied": total, "most_live": 1}


def test_kill_between_the_snapshot_and_the_report_resumes_to_the_uninterrupted_run(
    tmp_path, monkeypatch
):
    whole = tmp_path / "whole"
    init_and_run(whole, iterations=3)
    run_dir = tmp_path / "cut"
    assert main(["init", str(run_dir), "--env", "static_qa", "--pool", "24",
                 "--iterations", "3"]) == 0
    append_report = RunStore.append_report

    def killed_at_report_1(self, report):
        # stands in for a kill after snap-00001.json is renamed into place
        if report["iteration"] == 1:
            raise OSError("killed")
        append_report(self, report)

    monkeypatch.setattr(RunStore, "append_report", killed_at_report_1)
    with pytest.raises(OSError):
        run_training(RunStore(run_dir))
    monkeypatch.undo()
    store = RunStore(run_dir)
    assert len(store.read_reports()) == 1
    assert store.snapshot_path(1).is_file()
    # the snapshot has no report, so the audit does not read it
    assert audit_run(store).passed
    assert main(["run", str(run_dir), "--resume"]) == 0

    def files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    assert files(run_dir) == files(whole)


def test_kill_before_a_rename_resumes_to_the_uninterrupted_run(tmp_path, monkeypatch):
    config = EngineConfig(iterations=4, pool_size=24, seed=3)
    whole = init_run(tmp_path / "whole", config, "static_qa")
    run_training(whole)
    run_eval(whole, tag="e")
    store = init_run(tmp_path / "cut", config, "static_qa")
    real_replace = os.replace
    kill_at = {"snap-00001.json", "eval-killed.json"}

    def replace(src, dst):
        # stands in for a kill after the temp file is written, before the rename
        if os.path.basename(dst) in kill_at:
            kill_at.remove(os.path.basename(dst))
            raise OSError("killed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        run_training(store)
    assert (store.root / "snap-00001.json.tmp").is_file()
    assert not store.snapshot_path(1).exists()
    run_training(RunStore(store.root))
    with pytest.raises(OSError):
        run_eval(RunStore(store.root), tag="killed")
    assert (store.root / "eval-killed.json.tmp").is_file()
    # no later write reuses that temp name: loading removes it
    run_eval(RunStore(store.root), tag="e")

    def files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    assert files(store.root) == files(whole.root)
    assert not list(store.root.glob("*.tmp"))


def test_run_training_refuses_an_engine_that_logs_into_another_store(tmp_path):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    engine = load_engine(RunStore(run_dir))
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    with pytest.raises(ValidationError, match="does not log into this run store"):
        run_training(RunStore(run_dir), iterations=3, engine=engine)
    assert engine.graph.current_iter == 1  # no iteration ran
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    # the store the engine was loaded on trains it, and the run audits clean
    store = RunStore(run_dir)
    run_training(store, iterations=3, engine=load_engine(store))
    assert audit_run(RunStore(run_dir)).passed


def test_resume_after_eval_records_exist(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store, pool="held_out")
    assert main(["run", str(run_dir), "--resume", "--iterations", "4"]) == 0
    assert len(RunStore(run_dir).read_reports()) == 4


# ----------------------------------------------------------------------
# fault injection: every audit check can actually fail


def append_event(run_dir, event):
    with open(run_dir / "events.log", "a") as fh:
        fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")


def test_injected_protected_deletion_fails_audit(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    events = list(store.read_events())
    protected_id = next(
        e["payload"]["id"]
        for e in events
        if e["op"] == "append_experience"
        and e["payload"]["outcome"] == "success_memory"
    )
    # iter beyond the last boundary so only the conservation check trips
    append_event(run_dir, {
        "seq": events[-1]["seq"] + 1,
        "iter": 99,
        "op": "prune",
        "payload": {"threshold": None, "removed_ids": [protected_id]},
    })
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert not by_name["protected_conservation"].passed
    assert str(protected_id) in by_name["protected_conservation"].detail
    assert by_name["mastery_ratchet"].passed
    assert main(["audit", str(run_dir)]) == 2


def test_edited_mastery_jump_fails_audit(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    reports = store.read_reports()
    last = reports[-1]
    sid = next(
        sid for sid, m in last["masteries_post"].items() if m > 0.2
    )
    last["masteries_post"][sid] = last["masteries_post"][sid] * 0.5
    (run_dir / "reports.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    )
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert not by_name["mastery_ratchet"].passed
    assert f"skill {sid}" in by_name["mastery_ratchet"].detail
    assert main(["audit", str(run_dir)]) == 2


def test_inference_guidance_calls_fail_audit(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    store.write_eval("tainted", {
        "pool": "held_out",
        "calls": {"infer/navigator/guidance": 3, "infer/learner/execution": 10},
    })
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert not by_name["tier_separation"].passed
    assert "3 guidance calls during inference" in by_name["tier_separation"].detail
    assert main(["audit", str(run_dir)]) == 2


def test_corrupt_event_line_is_an_integrity_failure(tmp_path, capsys):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    with open(run_dir / "events.log", "a") as fh:
        fh.write("{not json\n")
    lineno = len((run_dir / "events.log").read_text().splitlines())

    result = audit_run(RunStore(run_dir))
    assert not result.passed
    assert f"corrupt event at events.log:{lineno}" in result.checks[0].detail
    assert main(["audit", str(run_dir)]) == 2

    # the engine loader refuses the directory outright
    with pytest.raises(Exception) as excinfo:
        load_engine(RunStore(run_dir))
    assert "corrupt event" in str(excinfo.value)


def test_corrupt_eval_record_fails_tier_separation_only(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store)
    (run_dir / "eval-held_out-ret-00002.json").write_text("{not json")
    with pytest.raises(IntegrityError, match="corrupt eval record eval-held_out-ret-00002.json"):
        store.read_evals()

    result = audit_run(RunStore(run_dir))
    assert [c.name for c in result.checks] == [
        "protected_conservation", "selection_gap", "mastery_ratchet",
        "tier_separation", "log_replay", "bandit_consistency",
    ]
    assert [c.name for c in result.checks if not c.passed] == ["tier_separation"]
    assert result.checks[3].detail.startswith("corrupt eval record eval-held_out-ret-00002.json: ")
    assert main(["audit", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] tier_separation: corrupt eval record" in captured.out
    assert "Traceback" not in captured.err


def test_corrupt_config_is_an_integrity_error(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    (run_dir / "config.json").write_text("{not json")
    with pytest.raises(IntegrityError, match="corrupt config config.json"):
        store.load_config()
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    assert "corrupt config config.json" in capsys.readouterr().err
    assert main(["run", str(run_dir), "--resume", "--iterations", "3"]) == 2
    assert "corrupt config config.json" in capsys.readouterr().err


def test_corrupt_meta_is_an_integrity_error(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    (run_dir / "meta.json").write_text("{not json")
    with pytest.raises(IntegrityError, match="corrupt meta meta.json"):
        store.load_meta()
    capsys.readouterr()
    assert main(["run", str(run_dir), "--resume", "--iterations", "3"]) == 2
    assert "corrupt meta meta.json" in capsys.readouterr().err
    assert main(["eval", str(run_dir)]) == 2
    assert "corrupt meta meta.json" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run format


def _rewrite_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _as_format_1(run_dir, oracle=False):
    """Rewrite config.json and meta.json as a format-1 run wrote them."""
    _rewrite_json(
        run_dir / "config.json", lambda c: c.update(memory_refresh_gap=5, oracle_retrieval=oracle)
    )
    _rewrite_json(run_dir / "meta.json", lambda m: m.update(format=1))


def _as_format_2(run_dir, oracle=False):
    """Rewrite config.json and meta.json as a format-2 run wrote them."""
    _rewrite_json(run_dir / "config.json", lambda c: c.update(oracle_retrieval=oracle))
    _rewrite_json(run_dir / "meta.json", lambda m: m.update(format=2))


def _run_files(run_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if p.name not in ("config.json", "meta.json")
    }


def _resumes_as_a_new_run(tmp_path, capsys, env_name, as_old):
    """Train two runs of one config half way, rewrite the first with
    ``as_old``, then resume, evaluate (with and without retrieval) and audit
    both. Their run files and audit outputs must be equal; returns the
    rewritten run's directory."""
    audits = []
    for name in ("old", "new"):
        run_dir = tmp_path / name
        assert main(["init", str(run_dir), "--env", env_name, "--pool", "24",
                     "--iterations", "4", "--seed", "5"]) == 0
        assert main(["run", str(run_dir), "--iterations", "2"]) == 0
        if name == "old":
            as_old(run_dir)
        pool = ["--pool", EVAL_POOL[env_name]]
        for verb in (["run", "--resume"], ["eval", *pool], ["eval", *pool, "--no-retrieval"]):
            assert main([verb[0], str(run_dir), *verb[1:]]) == 0
        capsys.readouterr()
        assert main(["audit", str(run_dir)]) == 0
        audits.append(capsys.readouterr().out)
    old, new = tmp_path / "old", tmp_path / "new"
    assert _run_files(old) == _run_files(new)
    assert audits[0] == audits[1]
    return old


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_format_1_run_resumes_evaluates_and_audits_as_format_2(tmp_path, capsys, env_name):
    # against a run of the current format, 3
    old = _resumes_as_a_new_run(tmp_path, capsys, env_name, _as_format_1)
    # loading reads the format; it never rewrites the run's own record
    assert json.loads((old / "meta.json").read_text())["format"] == 1
    assert json.loads((old / "config.json").read_text())["memory_refresh_gap"] == 5


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_format_2_run_resumes_evaluates_and_audits_as_format_3(tmp_path, capsys, env_name):
    old = _resumes_as_a_new_run(tmp_path, capsys, env_name, _as_format_2)
    assert json.loads((old / "meta.json").read_text())["format"] == 2
    assert json.loads((old / "config.json").read_text())["oracle_retrieval"] is False


@pytest.mark.parametrize("as_old", [_as_format_1, _as_format_2], ids=["format1", "format2"])
def test_oracle_run_is_an_integrity_error(tmp_path, capsys, as_old):
    # nothing can rank its bundles as it did, so no verb reads it
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    as_old(run_dir, oracle=True)
    before = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    capsys.readouterr()
    for verb in (["run", "--resume", "--iterations", "3"], ["eval"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        err = capsys.readouterr().err
        assert "refused config config.json" in err and "oracle_retrieval" in err
    assert {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())} == before


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda m: m.update(format=99), id="99"),
        pytest.param(lambda m: m.pop("format"), id="missing"),
        pytest.param(lambda m: m.update(format="1"), id="string"),
    ],
)
def test_unknown_run_format_is_an_integrity_error(tmp_path, capsys, change):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    _rewrite_json(run_dir / "meta.json", change)
    before = _run_files(run_dir)
    capsys.readouterr()
    for verb in (["run", "--resume", "--iterations", "3"], ["eval"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        assert "unsupported run format in meta.json" in capsys.readouterr().err
    assert _run_files(run_dir) == before


def test_missing_meta_is_an_integrity_error(tmp_path, capsys):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    (run_dir / "meta.json").unlink()
    capsys.readouterr()
    for verb in (["run", "--resume", "--iterations", "3"], ["eval"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        assert "missing meta meta.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda m: m.pop("env"), id="missing"),
        pytest.param(lambda m: m.update(env="atari"), id="unknown"),
        pytest.param(lambda m: m.update(env=["static_qa"]), id="list"),
    ],
)
def test_missing_or_unknown_env_in_meta_is_an_integrity_error(tmp_path, capsys, change):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    _rewrite_json(run_dir / "meta.json", change)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    for verb in (["run", "--resume", "--iterations", "3"], ["eval"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        captured = capsys.readouterr()
        assert "unknown env in meta.json" in captured.err
        assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize(
    "line",
    [
        pytest.param('{"x": 1}', id="other-object"),
        pytest.param("[1, 2]", id="list"),
        pytest.param("7", id="number"),
        pytest.param(None, id="report-without-rollback"),
    ],
)
def test_report_line_of_the_wrong_shape_is_an_integrity_error(tmp_path, capsys, line):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    lines = (run_dir / "reports.jsonl").read_text().splitlines()
    if line is None:
        report = json.loads(lines[1])
        del report["rollback"]
        line = json.dumps(report, sort_keys=True)
    lines[1] = line
    (run_dir / "reports.jsonl").write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    with pytest.raises(IntegrityError, match="corrupt report at reports.jsonl:2: "):
        RunStore(run_dir).read_reports()
    capsys.readouterr()
    for verb in (["audit"], ["stats"], ["eval"], ["run", "--resume", "--iterations", "4"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        captured = capsys.readouterr()
        assert "corrupt report at reports.jsonl:2: not an object holding every report field" in (
            captured.out + captured.err
        )
        assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("coverage", [], "an object"),
        ("protected_counts_post", [], "an object"),
        ("masteries_post", [], "an object"),
        ("agent_calls", [], "an object"),
        ("selected_task_types", 5, "an array"),
        ("task_stats_pre", {}, "an array"),
        # a boolean is neither an integer nor a number
        ("iteration", True, "an integer"),
        ("accuracy", False, "a number"),
    ],
)
def test_report_field_of_the_wrong_json_type_is_an_integrity_error(
    tmp_path, capsys, field, value, expected
):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    lines = (run_dir / "reports.jsonl").read_text().splitlines()
    report = json.loads(lines[1])
    report[field] = value
    lines[1] = json.dumps(report, sort_keys=True)
    (run_dir / "reports.jsonl").write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    message = f"corrupt report at reports.jsonl:2: field {field!r} is not {expected}"
    capsys.readouterr()
    for verb in (["audit"], ["stats"], ["eval"], ["run", "--resume", "--iterations", "4"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2, verb
        captured = capsys.readouterr()
        assert message in captured.out + captured.err, verb
        assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


_ROW_FAULT = "field 'task_stats_pre' holds a row without integer 'task_type_id' and 'n_fail'"


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("coverage", {}, "field 'coverage' lacks 'selected' or 'observed'", id="coverage-empty"),
        pytest.param(
            "coverage", {"selected": 1}, "field 'coverage' lacks 'selected' or 'observed'", id="coverage-no-observed"
        ),
        pytest.param(
            "coverage",
            {"selected": "1", "observed": 3},
            "field 'coverage' holds a member that is not an integer",
            id="coverage-string",
        ),
        pytest.param("task_stats_pre", [{}], _ROW_FAULT, id="task-stats-empty-row"),
        pytest.param("task_stats_pre", [{"task_type_id": 1, "n_fail": "2"}], _ROW_FAULT, id="task-stats-string"),
        pytest.param(
            "task_stats_pre", [5], "field 'task_stats_pre' holds a member that is not an object", id="task-stats-number"
        ),
        pytest.param(
            "masteries_post", {"1": "x"}, "field 'masteries_post' holds a member that is not a number", id="mastery-string"
        ),
        pytest.param(
            "masteries_post", {"1": True}, "field 'masteries_post' holds a member that is not a number", id="mastery-bool"
        ),
        pytest.param(
            "protected_counts_post",
            {"failure_memory": "x"},
            "field 'protected_counts_post' holds a member that is not an integer",
            id="protected-count-string",
        ),
        pytest.param(
            "selected_task_types",
            [{}],
            "field 'selected_task_types' holds a member that is not an integer",
            id="selected-object",
        ),
        pytest.param(
            "agent_calls", {"critic": "x"}, "field 'agent_calls' holds a member that is not an integer", id="agent-calls-string"
        ),
        pytest.param(
            "tier_calls", {"judge": 1.5}, "field 'tier_calls' holds a member that is not an integer", id="tier-calls-float"
        ),
    ],
)
def test_report_member_of_the_wrong_shape_is_an_integrity_error(
    tmp_path, capsys, field, value, message
):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    lines = (run_dir / "reports.jsonl").read_text().splitlines()
    report = json.loads(lines[1])
    report[field] = value
    lines[1] = json.dumps(report, sort_keys=True)
    (run_dir / "reports.jsonl").write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    for verb in (["audit"], ["stats"], ["eval"], ["run", "--resume", "--iterations", "4"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2, verb
        captured = capsys.readouterr()
        assert f"corrupt report at reports.jsonl:2: {message}" in captured.out + captured.err, verb
        assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("name", ["snap-abc.json", "snap-.json", "snap-1.json", "snap-00001x.json"])
def test_stray_snapshot_name_fails_log_replay(tmp_path, capsys, name):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    (run_dir / name).write_text("")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    with pytest.raises(IntegrityError, match=f"stray snapshot file {name}"):
        RunStore(run_dir).snapshot_iterations()
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert f"[FAIL] log_replay: stray snapshot file {name}" in captured.out
    assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_eval_record_that_is_not_an_object_fails_tier_separation_only(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store)
    (run_dir / "eval-held_out-ret-00002.json").write_text("[1, 2]\n")
    with pytest.raises(IntegrityError, match="corrupt eval record eval-held_out-ret-00002.json"):
        store.read_evals()

    result = audit_run(RunStore(run_dir))
    assert [c.name for c in result.checks if not c.passed] == ["tier_separation"]
    assert result.checks[3].detail == (
        "corrupt eval record eval-held_out-ret-00002.json: not an object"
    )
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] tier_separation: corrupt eval record" in captured.out
    assert "Traceback" not in captured.err


def test_init_rejects_the_retired_refresh_gap(tmp_path, capsys):
    overrides = tmp_path / "cfg.json"
    overrides.write_text(json.dumps({"memory_refresh_gap": 5}))
    code = main(["init", str(tmp_path / "r"), "--env", "static_qa", "--config", str(overrides)])
    assert code == 1
    assert "unknown config keys: ['memory_refresh_gap']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_init_rejects_the_retired_oracle_retrieval(tmp_path, capsys):
    overrides = tmp_path / "cfg.json"
    overrides.write_text(json.dumps({"oracle_retrieval": True}))
    code = main(["init", str(tmp_path / "r"), "--env", "static_qa", "--config", str(overrides)])
    assert code == 1
    assert "unknown config keys: ['oracle_retrieval']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


_DROP = object()


def _rewrite_eval(path, **fields):
    """Set each field of an eval record, or remove it when given ``_DROP``."""
    record = json.loads(path.read_text())
    record.update(fields)
    record = {key: value for key, value in record.items() if value is not _DROP}
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize(
    "fields, reason",
    [
        (dict(graph_hash_before="0" * 64, graph_hash_after="0" * 64),
         "graph_hash_before is not the replayed state after 2 committed iterations"),
        (dict(graph_hash_after="0" * 64),
         "graph_hash_after is not the replayed state after 2 committed iterations"),
        (dict(graph_hash_before=None), "graph_hash_before is not a string"),
        (dict(graph_hash_after=_DROP), "graph_hash_after is not a string"),
        (dict(committed_iterations=1),
         "graph_hash_before is not the replayed state after 1 committed iterations"),
        (dict(committed_iterations=3), "committed_iterations 3 is not a count of the 2 committed iterations"),
        (dict(committed_iterations=-1), "committed_iterations -1 is not a count of the 2 committed iterations"),
        (dict(committed_iterations=True), "committed_iterations True is not a count of the 2 committed iterations"),
        (dict(committed_iterations="2"), "committed_iterations '2' is not a count of the 2 committed iterations"),
    ],
    ids=["both-hashes", "after-hash", "hash-not-str", "hash-missing", "other-boundary",
         "past-commits", "negative", "bool", "str"],
)
def test_forged_eval_record_fails_eval_boundary(tmp_path, capsys, fields, reason):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store, retrieval=False)
    _rewrite_eval(run_dir / "eval-held_out-noret-00002.json", **fields)
    result = audit_run(RunStore(run_dir))
    assert [c.name for c in result.checks if not c.passed] == ["eval_boundary"]
    assert result.checks[-1].detail == f"eval-held_out-noret-00002.json: {reason}"
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    assert f"[FAIL] eval_boundary: eval-held_out-noret-00002.json: {reason}" in capsys.readouterr().out


def test_forged_accuracy_with_intact_hashes_passes_the_audit(tmp_path):
    # re-running the eval inside the audit would catch this; it does not yet
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store)
    _rewrite_eval(run_dir / "eval-held_out-ret-00002.json", accuracy=0.123)
    assert audit_run(RunStore(run_dir)).passed


def test_eval_boundary_checks_records_at_every_boundary(tmp_path):
    # a record at 0 committed iterations names the bootstrap state, one at 1
    # a boundary whose file is gone, one at 3 the last boundary
    run_dir = tmp_path / "r"
    store = init_run(run_dir, EngineConfig(iterations=3, pool_size=24, seed=3), "static_qa")
    evoloop.runner.bootstrap_run(store)
    run_eval(RunStore(run_dir), tag="zero")
    store = RunStore(run_dir)
    run_training(store, iterations=1)
    run_eval(store, tag="one")
    run_training(RunStore(run_dir), iterations=3)
    run_eval(RunStore(run_dir), tag="three")
    store.snapshot_path(0).unlink()
    result = audit_run(RunStore(run_dir))
    assert result.passed
    assert result.lines()[-1] == (
        "[PASS] eval_boundary: 3 eval records hash the replayed state at their boundary"
    )
    hashes = [
        json.loads(read_bytes(run_dir, f"eval-{tag}.json"))["graph_hash_before"]
        for tag in ("zero", "one", "three")
    ]
    assert len(set(hashes)) == 3
    assert hashes[2] == hashlib.sha256(store.read_snapshot(2)).hexdigest()


def test_tampered_boundary_snapshot_fails_replay_check(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    # the first, a middle and the last boundary
    for boundary in (0, 1, 2):
        snap_path = store.snapshot_path(boundary)
        original = snap_path.read_bytes()
        state = json.loads(original)
        state["next_id"] = state["next_id"] + 1
        snap_path.write_text(json.dumps(state, sort_keys=True, separators=(",", ":")))
        result = audit_run(RunStore(run_dir))
        by_name = {c.name: c for c in result.checks}
        assert not by_name["log_replay"].passed
        assert by_name["log_replay"].detail == f"boundary snapshot {boundary} diverges from replay"
        # replay goes on past the divergence, so the bandit recount is still judged
        assert by_name["bandit_consistency"].passed
        snap_path.write_bytes(original)


def test_boundary_snapshot_that_is_not_json_fails_replay_check(tmp_path, capsys):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    store.snapshot_path(0).write_text("{not json")
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert by_name["log_replay"].detail == "boundary snapshot 0 diverges from replay"
    assert not by_name["log_replay"].passed
    assert by_name["bandit_consistency"].passed
    assert main(["audit", str(run_dir)]) == 2
    assert "[FAIL] log_replay: boundary snapshot 0 diverges from replay" in capsys.readouterr().out


def test_audit_replays_once_and_reads_each_snapshot_once(tmp_path, monkeypatch):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=3)
    replay, read_snapshot = KnowledgeGraph.replay, RunStore.read_snapshot
    replays, reads = [], []

    def counting_replay(cls, *args, **kwargs):
        replays.append(1)
        return replay(*args, **kwargs)

    def counting_read(self, iteration):
        reads.append(iteration)
        return read_snapshot(self, iteration)

    monkeypatch.setattr(KnowledgeGraph, "replay", classmethod(counting_replay))
    monkeypatch.setattr(RunStore, "read_snapshot", counting_read)
    result = audit_run(RunStore(run_dir))
    assert result.passed
    assert len(replays) == 1
    assert reads == [0, 1, 2]


def test_audit_encodes_the_graph_once_per_boundary_file(tmp_path, monkeypatch):
    store = init_and_run(tmp_path / "r", iterations=3)
    run_eval(store)
    run_eval(store, retrieval=False)
    canonical_bytes = KnowledgeGraph.canonical_bytes
    encodes = []

    def counting(self):
        encodes.append(1)
        return canonical_bytes(self)

    monkeypatch.setattr(KnowledgeGraph, "canonical_bytes", counting)
    result = audit_run(RunStore(store.root))
    assert result.passed
    # the eval records' boundary and the final hash reuse the last compare's bytes
    assert len(encodes) == 3
    digest = hashlib.sha256(store.read_snapshot(2)).hexdigest()
    replay_check = next(c for c in result.checks if c.name == "log_replay")
    assert replay_check.detail.endswith(f"final hash {digest[:12]}")


def test_audit_of_a_run_killed_after_the_flush_hashes_the_final_replayed_graph(tmp_path):
    store = init_and_run(tmp_path / "r", iterations=2)
    engine = load_engine(store)
    engine.run_iteration(2)
    # killed after the event flush, before the boundary file and the report
    store.flush_events()
    result = audit_run(RunStore(store.root))
    replay_check = next(c for c in result.checks if c.name == "log_replay")
    assert replay_check.passed
    final = engine.graph.graph_hash()
    assert final != hashlib.sha256(store.read_snapshot(1)).hexdigest()
    assert replay_check.detail.endswith(f"final hash {final[:12]}")


def test_audit_skips_a_deleted_middle_snapshot(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    store.snapshot_path(1).unlink()
    result = audit_run(RunStore(run_dir))
    assert result.passed
    by_name = {c.name: c for c in result.checks}
    assert "events replay cleanly, 2 boundary snapshots match" in by_name["log_replay"].detail


def test_log_whose_iter_goes_backwards_is_refused(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=3)
    events = list(store.read_events())
    assert events[-1]["iter"] == 2
    append_event(run_dir, {
        "seq": events[-1]["seq"] + 1,
        "iter": 0,
        "op": "prune",
        "payload": {"threshold": None, "removed_ids": []},
    })
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert not by_name["log_replay"].passed
    assert "iter goes backwards" in by_name["log_replay"].detail
    assert not by_name["bandit_consistency"].passed
    with pytest.raises(IntegrityError, match="iter goes backwards"):
        load_engine(RunStore(run_dir))


def test_bandit_event_on_unknown_context_fails_cleanly(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    events = list(store.read_events())
    append_event(run_dir, {
        "seq": events[-1]["seq"] + 1,
        "iter": 99,
        "op": "bandit_draw",
        "payload": {"context_id": "rogue/1", "arm_id": "base"},
    })
    # the audit reports failures instead of crashing on the bad log
    result = audit_run(RunStore(run_dir))
    by_name = {c.name: c for c in result.checks}
    assert not by_name["bandit_consistency"].passed
    assert not by_name["log_replay"].passed
    assert main(["audit", str(run_dir)]) == 2


def test_rollback_to_a_snapshot_the_ring_evicted_fails_replay(tmp_path):
    # the bandit recount keeps the counts of every snapshot; the graph's
    # ring of two has evicted the first, so replay refuses the rollback and
    # the recount reports that the log does not replay
    config = EngineConfig(iterations=4, pool_size=40, seed=1, snapshot_history_limit=2)
    store = init_run(tmp_path / "r", config, "static_qa")
    run_training(store)
    events = list(store.read_events())
    first = next(e["payload"]["snapshot_id"] for e in events if e["op"] == "snapshot")
    seq = events[-1]["seq"] + 1
    append_event(store.root, {
        "seq": seq, "iter": 3, "op": "rollback", "payload": {"snapshot_id": first},
    })
    lines = audit_run(RunStore(store.root)).lines()
    assert all(line.startswith("[PASS]") for line in lines[:4])
    assert lines[4:] == [
        f"[FAIL] log_replay: replay failed at seq {seq} (rollback)",
        f"[FAIL] bandit_consistency: log does not replay: replay failed at seq {seq} (rollback)",
    ]


@pytest.mark.parametrize(
    "record", [{"seq": 99999, "iter": 99, "payload": {}}, [1, 2]], ids=["no-op", "not-an-object"]
)
def test_record_that_is_not_an_event_fails_replay_not_the_audit(tmp_path, capsys, record):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    seq = len(list(store.read_events())) + 1
    append_event(run_dir, record)
    result = audit_run(RunStore(run_dir))
    assert [c.name for c in result.checks] == [
        "protected_conservation", "selection_gap", "mastery_ratchet",
        "tier_separation", "log_replay", "bandit_consistency",
    ]
    assert [c.name for c in result.checks if not c.passed] == ["log_replay", "bandit_consistency"]
    assert result.checks[4].detail == f"malformed event record at seq {seq}"
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    out = capsys.readouterr().out
    assert len([line for line in out.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]) == 6
    assert f"[FAIL] log_replay: malformed event record at seq {seq}" in out


@pytest.mark.parametrize("name", ["events.log", "reports.jsonl"])
def test_bytes_that_are_not_utf8_are_an_integrity_error(tmp_path, capsys, name):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    with open(run_dir / name, "ab") as fh:
        fh.write(b"\xff\xfe")
    tampered = read_bytes(run_dir, name)
    capsys.readouterr()
    for verb in (["audit"], ["run", "--resume", "--iterations", "3"], ["eval"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        captured = capsys.readouterr()
        assert f"in {name}: bytes that are not UTF-8" in captured.out + captured.err
    assert read_bytes(run_dir, name) == tampered


def _damage_first_memory(run_dir, outcome, damage):
    """Apply ``damage`` to the record of the first ``outcome`` node in
    events.log and write the line back; return the record's seq."""
    path = run_dir / "events.log"
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines):
        record = json.loads(line)
        if record["op"] == "append_experience" and record["payload"]["outcome"] == outcome:
            damage(record["payload"])
            lines[n] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            path.write_text("\n".join(lines) + "\n")
            return record["seq"]
    raise AssertionError(f"no {outcome} in the log")


def _payload_as_array(record):
    record["payload"] = [record["payload"]["question"]]


def _question_as_number(record):
    record["payload"]["question"] = 7


@pytest.mark.parametrize(
    "outcome, damage",
    [("success_memory", _payload_as_array), ("failure_memory", _question_as_number)],
    ids=["success-payload-array", "failure-question-number"],
)
def test_damaged_exemplar_payload_is_refused_by_every_reader(tmp_path, capsys, outcome, damage):
    # the index embeds an exemplar's question, so replay refuses a payload
    # it could not read instead of letting the index raise mid-load
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    seq = _damage_first_memory(run_dir, outcome, damage)
    tampered = read_bytes(run_dir, "events.log")
    capsys.readouterr()
    for verb in (["eval"], ["eval", "--no-retrieval"], ["run", "--resume"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2, verb
        captured = capsys.readouterr()
        assert f"replay failed at seq {seq} (append_experience)" in captured.out + captured.err
    assert read_bytes(run_dir, "events.log") == tampered



def test_a_log_that_reuses_an_id_is_refused_by_every_reader(tmp_path, capsys):
    # no writer reuses an id; replayed, the second record would replace the
    # first record's node under that id
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    path = run_dir / "events.log"
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    first, second = [r for r in records if r["op"] == "append_experience"][:2]
    second["payload"]["id"] = first["payload"]["id"]
    lines[second["seq"] - 1] = json.dumps(second, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    tampered = read_bytes(run_dir, "events.log")
    refusal = f"replay failed at seq {second['seq']} (append_experience)"
    capsys.readouterr()
    for verb in (["run", "--resume"], ["eval"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2, verb
        assert refusal in capsys.readouterr().err
    assert main(["audit", str(run_dir)]) == 2
    assert f"[FAIL] log_replay: {refusal}" in capsys.readouterr().out
    by_name = {c.name: c for c in audit_run(RunStore(run_dir)).checks}
    assert not by_name["log_replay"].passed
    assert read_bytes(run_dir, "events.log") == tampered

def _splits_built(monkeypatch):
    """Record the split of every question ``StaticQAEnv`` generates."""
    built = set()
    make = StaticQAEnv._make_question

    def recording(self, split, i):
        built.add(split)
        return make(self, split, i)

    monkeypatch.setattr(StaticQAEnv, "_make_question", recording)
    return built


def test_a_verb_builds_only_the_question_pool_it_asks(tmp_path, monkeypatch):
    built = _splits_built(monkeypatch)
    store = init_run(tmp_path / "r", EngineConfig(iterations=2, pool_size=24, seed=3), "static_qa")
    evoloop.runner.bootstrap_run(store)
    assert built == set()
    run_training(store)
    assert built == {"train"}
    built.clear()
    load_engine(store)
    assert built <= {"train"}
    for pool, split in (("held_out", "heldout"), ("evolution", "train")):
        for retrieval in (True, False):
            built.clear()
            run_eval(store, pool=pool, retrieval=retrieval)
            assert built == {split}, (pool, retrieval)


# ----------------------------------------------------------------------
# direct runner API


def test_run_eval_guards_against_mutation(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    record = run_eval(store, pool="held_out", retrieval=True, tag="t1")
    assert record["committed_iterations"] == 2
    stored = json.loads((run_dir / "eval-t1.json").read_text())
    assert stored["accuracy"] == record["accuracy"]


def test_run_eval_reads_the_reports_once(tmp_path, monkeypatch):
    store = init_and_run(tmp_path / "r", iterations=2)
    read_reports = RunStore.read_reports
    reads = []

    def counting(self):
        reads.append(1)
        return read_reports(self)

    monkeypatch.setattr(RunStore, "read_reports", counting)
    record = run_eval(RunStore(store.root), tag="t")
    assert reads == [1]
    assert record["committed_iterations"] == 2


def test_run_resume_reads_the_reports_once(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=4, extra=("--seed", "3"))
    (run_dir / "reports.jsonl").write_text(
        "".join(read_bytes(run_dir, "reports.jsonl").decode().splitlines(keepends=True)[:2])
    )
    read_reports = RunStore.read_reports
    reads = []

    def counting(self):
        reads.append(1)
        return read_reports(self)

    monkeypatch.setattr(RunStore, "read_reports", counting)
    capsys.readouterr()
    assert main(["run", str(run_dir), "--resume"]) == 0
    assert reads == [1]
    assert "done: 4 committed iterations" in capsys.readouterr().out
    assert main(["run", str(run_dir), "--resume"]) == 0
    assert reads == [1, 1]
    assert "nothing to do: 4 committed iterations already present" in capsys.readouterr().out


def test_run_training_returns_the_count_it_committed(tmp_path):
    store = init_run(tmp_path / "r", EngineConfig(iterations=3, pool_size=24, seed=3), "static_qa")
    assert run_training(store, iterations=2) == 2
    assert run_training(RunStore(store.root)) == 1
    assert run_training(RunStore(store.root)) == 0


def test_run_eval_names_a_committed_state_by_its_boundary_file(tmp_path, monkeypatch):
    store = init_and_run(tmp_path / "r", iterations=2)
    encodes = []
    canonical_bytes = KnowledgeGraph.canonical_bytes

    def counting(self):
        encodes.append(1)
        return canonical_bytes(self)

    monkeypatch.setattr(KnowledgeGraph, "canonical_bytes", counting)
    record = run_eval(RunStore(store.root))
    # the replayed graph is not encoded: the last boundary file names it
    assert encodes == []
    digest = hashlib.sha256(store.read_snapshot(1)).hexdigest()
    assert record["graph_hash_before"] == record["graph_hash_after"] == digest


@pytest.mark.parametrize("change", ["skill_mastery", "experience_node"])
def test_run_eval_refuses_an_eval_that_changes_the_graph_in_place(tmp_path, monkeypatch, change):
    # both edits bypass the freeze guard, which refuses every committed write
    store = init_and_run(tmp_path / "r", iterations=2)
    answer = Engine._answer_question

    def changing(self, *args, **kwargs):
        graph = self.graph
        if change == "skill_mastery":
            next(iter(graph.skills.values())).mastery += 0.5
        elif not any(node.payload.get("planted") for node in graph.experience.values()):
            nid = max(graph.experience) + 1
            graph.experience[nid] = ExperienceNode(
                id=nid, outcome="abstracted_pattern", payload={"planted": True}
            )
        return answer(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "_answer_question", changing)
    for retrieval in (True, False):
        with pytest.raises(ValidationError, match="evaluation mutated the graph"):
            run_eval(RunStore(store.root), retrieval=retrieval)
    assert not list(store.root.glob("eval-*.json"))


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_eval_without_retrieval_builds_no_index(tmp_path, monkeypatch, env_name):
    store = init_run(tmp_path / "r", EngineConfig(iterations=2, pool_size=24, seed=3), env_name)
    run_training(store)
    rebuild_index = evoloop.runner.rebuild_index

    def refusing(*args, **kwargs):
        raise AssertionError("an eval without retrieval built the exemplar index")

    monkeypatch.setattr(evoloop.runner, "rebuild_index", refusing)
    pool = EVAL_POOL[env_name]
    assert run_eval(RunStore(store.root), pool, retrieval=False)["retrieval_enabled"] is False

    builds = []

    def counting(*args, **kwargs):
        builds.append(1)
        return rebuild_index(*args, **kwargs)

    monkeypatch.setattr(evoloop.runner, "rebuild_index", counting)
    run_eval(RunStore(store.root), pool, retrieval=True)
    assert len(load_engine(RunStore(store.root)).index) > 0
    assert builds == [1, 1]


def _fresh_cli(*argvs):
    """Run each argv through ``cli.main`` in one fresh interpreter; return
    the exit codes and whether that interpreter loaded numpy."""
    src = os.path.dirname(os.path.dirname(evoloop.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import json, sys; from evoloop.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, 'numpy' in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps([[str(a) for a in argv] for argv in argvs])],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    return codes, loaded


@pytest.mark.parametrize("env_name", ["static_qa", "sequential"])
def test_the_read_verbs_never_load_numpy(tmp_path, env_name):
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", env_name, "--pool", "24",
                 "--iterations", "2", "--seed", "7"]) == 0
    assert main(["run", str(run_dir)]) == 0
    pool = ["--pool", EVAL_POOL[env_name]]
    codes, loaded = _fresh_cli(
        ["init", tmp_path / "fresh", "--env", env_name, "--pool", "24"],
        ["stats", run_dir],
        ["audit", run_dir],
        ["eval", run_dir, *pool, "--no-retrieval", "--tag", "noret"],
    )
    assert codes == [0, 0, 0, 0] and not loaded
    assert json.loads((run_dir / "eval-noret.json").read_text())["retrieval_enabled"] is False
    # the verbs that embed or draw do load it, so the check above can fail
    assert _fresh_cli(["eval", run_dir, *pool, "--tag", "ret"]) == ([0], True)
    assert _fresh_cli(["run", run_dir, "--resume", "--iterations", "3"]) == ([0], True)


def test_sequential_eval_without_retrieval_runs_without_memory(tmp_path):
    # seed 42 unlocks 2 of 5 achievements in its one training episode; the
    # frozen explorer does no better without the graph's memory, and
    # reaches every one with its recipes and bundles
    store = init_run(tmp_path / "r", EngineConfig(iterations=1, seed=42), "sequential")
    run_training(store)
    assert store.read_reports()[0]["accuracy"] == 0.4
    assert run_eval(store, "evolution", retrieval=False)["accuracy"] < 1.0
    assert run_eval(store, "evolution", retrieval=True)["accuracy"] == 1.0


def test_sequential_eval_refuses_a_pool_it_does_not_have(tmp_path, monkeypatch, capsys):
    store = init_run(tmp_path / "r", EngineConfig(iterations=1, seed=42), "sequential")
    run_training(store)

    def refusing(*args, **kwargs):
        raise AssertionError("the graph was frozen or hashed before the pool was checked")

    with monkeypatch.context() as patch:
        for name in ("freeze", "graph_hash"):
            patch.setattr(KnowledgeGraph, name, refusing)
        for retrieval in (True, False):
            with pytest.raises(
                ValidationError, match="env 'sequential' has no pool 'held_out'; its pools: evolution"
            ):
                run_eval(RunStore(store.root), "held_out", retrieval=retrieval)
    # a usage error: the CLI's default pool is held_out
    capsys.readouterr()
    assert main(["eval", str(store.root)]) == 1
    assert "has no pool 'held_out'" in capsys.readouterr().err
    assert not list(store.root.glob("eval-*.json"))


def test_a_refused_eval_leaves_the_run_as_it_found_it(tmp_path, capsys):
    # a kill between the event flush and the report leaves an uncommitted
    # tail in events.log; an eval refused for its pool must not cut it
    store = init_run(tmp_path / "r", EngineConfig(iterations=3, seed=42), "sequential")
    run_training(store)
    reports = read_bytes(store.root, "reports.jsonl").splitlines(keepends=True)
    (store.root / "reports.jsonl").write_bytes(b"".join(reports[:-1]))
    events = read_bytes(store.root, "events.log")
    for retrieval in (True, False):
        with pytest.raises(ValidationError, match="has no pool 'held_out'"):
            run_eval(RunStore(store.root), "held_out", retrieval=retrieval)
        assert read_bytes(store.root, "events.log") == events
    capsys.readouterr()
    assert main(["eval", str(store.root), "--pool", "held_out"]) == 1
    assert read_bytes(store.root, "events.log") == events
    assert not list(store.root.glob("eval-*.json"))



@pytest.mark.parametrize("killed", [False, True], ids=["committed", "killed-after-flush"])
def test_a_refused_run_leaves_the_run_as_it_found_it(tmp_path, capsys, killed):
    # a target below the committed count is refused before the run is
    # loaded: loading would bootstrap a fresh run or cut an uncommitted tail
    store = init_run(tmp_path / "r", EngineConfig(iterations=3, pool_size=24, seed=5), "static_qa")
    assert main(["run", str(store.root), "--iterations", "-1"]) == 1
    assert "cannot target -1" in capsys.readouterr().err
    assert read_bytes(store.root, "events.log") == b""
    run_training(store)
    if killed:
        reports = read_bytes(store.root, "reports.jsonl").splitlines(keepends=True)
        (store.root / "reports.jsonl").write_bytes(b"".join(reports[:-1]))
    files = {path.name: path.read_bytes() for path in store.root.iterdir()}
    committed = 2 if killed else 3
    with pytest.raises(ValidationError, match=f"has {committed} committed iterations, cannot target 1"):
        run_training(RunStore(store.root), iterations=1)
    assert main(["run", str(store.root), "--resume", "--iterations", "1"]) == 1
    # the config's own target, when no target is given
    _rewrite_json(store.root / "config.json", lambda config: config.update(iterations=1))
    files["config.json"] = read_bytes(store.root, "config.json")
    assert main(["run", str(store.root), "--resume"]) == 1
    assert {path.name: path.read_bytes() for path in store.root.iterdir()} == files


@pytest.mark.parametrize(
    "held",
    [["events.log"], ["reports.jsonl"], ["events.log", "reports.jsonl"], ["snap-00000.json"],
     ["eval-held_out-ret-00002.json"]],
    ids=["events", "reports", "both-logs", "boundary", "eval-record"],
)
def test_init_refuses_a_directory_holding_a_runs_record(tmp_path, capsys, held):
    # a run's record without its config.json: a new config must not adopt it
    source = init_and_run(tmp_path / "source", iterations=2).root
    assert main(["eval", str(source)]) == 0
    target = tmp_path / "r"
    target.mkdir()
    for name in held:
        (target / name).write_bytes(read_bytes(source, name))
    before = {path.name: path.read_bytes() for path in target.iterdir()}
    capsys.readouterr()
    assert main(["init", str(target), "--env", "static_qa", "--seed", "9"]) == 1
    assert "holds a run's record" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in target.iterdir()} == before


def test_init_runs_again_after_a_kill_before_its_config(tmp_path):
    # a kill before config.json is renamed in leaves empty logs and meta.json
    run_dir = tmp_path / "r"
    assert main(["init", str(run_dir), "--env", "static_qa", "--seed", "1"]) == 0
    (run_dir / "config.json").unlink()
    assert main(["init", str(run_dir), "--env", "static_qa", "--seed", "9"]) == 0
    assert json.loads((run_dir / "config.json").read_text())["seed"] == 9

def test_an_eval_builds_its_pool_once(tmp_path, monkeypatch):
    store = init_run(tmp_path / "r", EngineConfig(iterations=1, pool_size=24, seed=3), "static_qa")
    run_training(store)
    built = []
    make = StaticQAEnv._make_question

    def recording(self, split, i):
        built.append(split)
        return make(self, split, i)

    monkeypatch.setattr(StaticQAEnv, "_make_question", recording)
    run_eval(RunStore(store.root), "held_out")
    assert built == ["heldout"] * 24


def test_init_run_rejects_bad_config_object(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("[1, 2]")
    assert main(["init", str(tmp_path / "r"), "--env", "static_qa",
                 "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b'{"iterations": "3"}', id="string-for-int"),
        pytest.param(b'{"routing_strategies": 5}', id="int-for-arms"),
        pytest.param(b'{"remeasure_after_update": 1}', id="int-for-bool"),
    ],
)
def test_init_refuses_a_damaged_config_file(tmp_path, capsys, content):
    bad = tmp_path / "cfg.json"
    bad.write_bytes(content)
    assert main(["init", str(tmp_path / "r"), "--env", "static_qa", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda c: {**c, "learning_rate": 0.1}, "unknown config keys", id="unknown-key"),
        pytest.param(lambda c: {**c, "iterations": "3"}, "config key 'iterations'", id="wrong-type"),
        pytest.param(lambda c: [c], "must be an object", id="not-an-object"),
    ],
)
def test_refused_run_config_is_an_integrity_error(tmp_path, capsys, change, message):
    run_dir = tmp_path / "r"
    init_and_run(run_dir, iterations=2)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(change(json.loads(config_path.read_text()))))
    before = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    capsys.readouterr()
    for verb in (["run", "--resume", "--iterations", "3"], ["eval"], ["audit"]):
        assert main([verb[0], str(run_dir), *verb[1:]]) == 2
        err = capsys.readouterr().err
        assert "refused config config.json" in err and message in err
    assert {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())} == before


def test_eval_tag_is_sanitized(tmp_path):
    run_dir = tmp_path / "r"
    store = init_and_run(run_dir, iterations=2)
    run_eval(store, tag="weird/tag name")
    assert (run_dir / "eval-weird-tag-name.json").is_file()
