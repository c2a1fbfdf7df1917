"""Per-layer metrics of the traced pass: name -> (unit, better).

The comment on each group names the end-to-end metric it should move and
the workloads where it works; README.md has the full table.
"""

PER_LAYER = {
    # train_iter_per_s, iter_tail_s; eval_q_per_s (qa_train; qa_read)
    "memory.retrieve_calls": ("count", "lower"),
    "memory.retrieve_s": ("s", "lower"),
    "memory.index_entries": ("count", "lower"),
    "memory.bundle_distinct_ratio": ("ratio", "higher"),
    # iter_tail_s (qa_train)
    "memory.recipe_lookup_calls": ("count", "lower"),
    "memory.recipe_lookup_s": ("s", "lower"),
    # train_iter_per_s (qa_train)
    "memory.harvest_calls": ("count", "lower"),
    "memory.harvest_s": ("s", "lower"),
    "memory.format_s": ("s", "lower"),
    # resume_s (qa_read)
    "memory.rebuild_index_s": ("s", "lower"),
    "memory.failed": ("count", "lower"),
    # train_iter_per_s, iter_tail_s, disk_bytes_per_iter (qa_train)
    "graph.state_calls": ("count", "lower"),
    "graph.state_s": ("s", "lower"),
    "graph.state_bytes": ("bytes", "lower"),
    # audit_s, resume_s (qa_read)
    "graph.replay_calls": ("count", "lower"),
    "graph.replay_events": ("count", "lower"),
    "graph.replay_s": ("s", "lower"),
    "graph.experience_nodes": ("count", "lower"),
    "graph.failed": ("count", "lower"),
    # train_iter_per_s, disk_bytes_per_iter (qa_train)
    "runstore.flush_s": ("s", "lower"),
    "runstore.events_bytes": ("bytes", "lower"),
    "runstore.report_s": ("s", "lower"),
    "runstore.report_bytes": ("bytes", "lower"),
    "runstore.snapshot_write_s": ("s", "lower"),
    "runstore.snapshot_bytes": ("bytes", "lower"),
    # audit_s, resume_s (qa_read)
    "runstore.read_s": ("s", "lower"),
    "runstore.failed": ("count", "lower"),
    # train_iter_per_s, eval_q_per_s (qa_train, qa_read)
    "backends.execution_calls": ("count", "lower"),
    "backends.execution_s": ("s", "lower"),
    "backends.judge_calls": ("count", "lower"),
    "backends.guidance_calls": ("count", "lower"),
    # train_iter_per_s; resume_s (qa_train; qa_read)
    "backends.embed_calls": ("count", "lower"),
    "backends.embed_s": ("s", "lower"),
    "backends.embed_distinct_ratio": ("ratio", "higher"),
    "backends.failed": ("count", "lower"),
    # audit_s (qa_read)
    "audit.run_s": ("s", "lower"),
    "audit.replay_events": ("count", "lower"),
    "audit.failed": ("count", "lower"),
    # train_iter_per_s (qa_train)
    "engine.iteration_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.failed": ("count", "lower"),
    # controls: predicted flat everywhere
    "bandits.select_calls": ("count", "lower"),
    "bandits.select_s": ("s", "lower"),
    "bandits.failed": ("count", "lower"),
    "curriculum.select_s": ("s", "lower"),
    "curriculum.failed": ("count", "lower"),
    # traced minus untraced figure of each per-cycle end-to-end metric
    "trace_overhead.train_iter_per_s": ("1/s", "higher"),
    "trace_overhead.iter_p50_s": ("s", "lower"),
    "trace_overhead.iter_tail_s": ("s", "lower"),
    "trace_overhead.resume_s": ("s", "lower"),
    "trace_overhead.eval_q_per_s": ("1/s", "higher"),
    "trace_overhead.eval_noret_q_per_s": ("1/s", "higher"),
    "trace_overhead.audit_s": ("s", "lower"),
}
