"""Run orchestration: wiring a store, an engine, and an environment.

Crash windows and their recovery, in iteration order:

  1. killed mid-iteration        buffered events were never flushed, the
                                 log ends at the previous boundary
  2. killed after the event      the log holds events for an iteration
     flush, before the report    with no report; loading streams the log
                                 into replay, reads and checks that tail
                                 after the committed records, and cuts it
                                 only then: never when the committed
                                 records fail replay or the tail is refused

The report is the commit record: an iteration writes its boundary snapshot
file before it appends its report, so every report has its snapshot. A
snapshot file with no report (a kill in window 2) is one the audit does not
read, and running that iteration again rewrites the same bytes. So resuming
always continues from the last committed iteration and the finished run is
byte-identical to an uninterrupted one.

``meta.json`` records the run format and the environment. New runs are
format 3. A format-1 or format-2 run loads with the config keys later
formats retired dropped, but one that set ``oracle_retrieval`` ranked its
bundles by an oracle no format-3 engine has, and its config is refused.
Any other format is an integrity error, and so are a missing or unknown
environment name and a ``config.json`` that ``EngineConfig`` refuses (not
an object, an unknown key, a value of the wrong type or out of range).
``load_run_config`` is the one place that applies these rules, for every
verb that reads a run's config.
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import Any, Iterator

from .backends import simulated_backend_set
from .engine import Engine, EngineConfig
from .envs import ENVS, make_env
from .errors import IntegrityError, ValidationError
from .graph import KnowledgeGraph
from .memory import rebuild_index
from .runstore import CONFIG_NAME, META_NAME, RunStore

RUN_FORMAT = 3

# the config keys of each older format that a later one retired
_RETIRED_KEYS = {
    1: ("memory_refresh_gap", "oracle_retrieval"),
    2: ("oracle_retrieval",),
}


def init_run(
    run_dir: str | Path, config: EngineConfig, env_name: str
) -> RunStore:
    config.validate()
    store = RunStore(run_dir)
    store.initialize(config.to_dict(), {"env": env_name, "format": RUN_FORMAT})
    return store


def load_run_config(store: RunStore) -> tuple[EngineConfig, dict[str, Any]]:
    """The run's config and meta, read through the run-format step.

    ``init_run`` wrote an older format's config from a whole
    ``EngineConfig`` of that format, so it holds every field of it; the
    ones a later format retired are dropped.
    """
    meta = store.load_meta()
    fmt = meta.get("format") if isinstance(meta, dict) else None
    # a JSON true or 1.0 equals 1 in Python, but is not a format number
    if type(fmt) is not int or fmt not in {*_RETIRED_KEYS, RUN_FORMAT}:
        raise IntegrityError(f"unsupported run format in {META_NAME}: {fmt!r}")
    env_name = meta.get("env")
    if not isinstance(env_name, str) or env_name not in ENVS:
        raise IntegrityError(f"unknown env in {META_NAME}: {env_name!r}")
    data = store.load_config()
    if fmt in _RETIRED_KEYS and isinstance(data, dict):
        if data.get("oracle_retrieval", False) is not False:
            raise IntegrityError(
                f"refused config {CONFIG_NAME}: the run set oracle_retrieval, "
                f"which run format {RUN_FORMAT} no longer has"
            )
        retired = _RETIRED_KEYS[fmt]
        data = {key: value for key, value in data.items() if key not in retired}
    try:
        return EngineConfig.from_dict(data), meta
    except ValidationError as exc:
        raise IntegrityError(f"refused config {CONFIG_NAME}: {exc}") from exc


def read_committed(store: RunStore) -> tuple[int, float | None]:
    """The number of committed iterations and the last one's committed
    accuracy (None before the first). The decoded reports are dropped here,
    so no caller holds them while it replays, trains or evaluates."""
    reports = store.read_reports()
    return len(reports), reports[-1]["committed_accuracy"] if reports else None


def _committed_events(store: RunStore, last_committed: int) -> Iterator[dict[str, Any]]:
    """Stream events.log up to the last committed iteration, then cut the rest.

    Yields each record whose iter is at most ``last_committed`` (bootstrap
    records carry iter -1 and always stay). The records from the first one
    past it on are the uncommitted tail: one contiguous run whose iter never
    goes backwards, as the writer leaves it. The tail is read and checked
    only once every committed record has been taken (replay applies each
    record before it asks for the next), and cut only after that, so a log
    refused in either part is left untouched.
    """
    kept = 0
    tail_iter = None
    try:
        for event in store.read_events():
            it = event["iter"]
            if tail_iter is None:
                if not it > last_committed:
                    kept += 1
                    yield event
                    continue
            elif it < tail_iter:
                raise IntegrityError(
                    f"event iter goes backwards at seq {event.get('seq')}: {it} after {tail_iter}"
                )
            tail_iter = it
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed event record: no comparable iter ({exc!r})") from exc
    if tail_iter is not None:
        store.truncate_events(kept)


def build_simulated_engine(
    config: EngineConfig, env, graph: KnowledgeGraph | None = None, index: bool = True
) -> Engine:
    """Wire simulated backends and, when ``index``, an exemplar index built
    from ``graph`` into one engine; ``graph`` None is a fresh empty graph."""
    if graph is None:
        graph = KnowledgeGraph(
            principles_per_skill_cap=config.principles_per_skill_cap,
            skill_growth_cap=config.skill_growth_cap,
            snapshot_history_limit=config.snapshot_history_limit,
        )
    backends = simulated_backend_set(env.question, seed=config.seed)
    memory_index = None
    if index:
        memory_index = rebuild_index(
            graph,
            backends.embedder.dimension,
            backends.embedder.embed,
            config.type_strategy_min_similarity,
        )
    return Engine(graph, memory_index, backends, config, env)


def load_engine(store: RunStore) -> Engine:
    """Rebuild the engine for a run directory by replaying its event log."""
    return _load_engine(store, *read_committed(store))


def _load_engine(
    store: RunStore,
    committed: int,
    last_accuracy: float | None,
    index: bool = True,
    pool: str | None = None,
) -> Engine:
    """``load_engine`` on what ``read_committed`` read from the run's reports.

    Of the reports it needs only their count ``committed`` and the last
    committed accuracy; everything else is in the replayed graph. The engine
    gets an exemplar index when ``index``: a frozen eval without retrieval
    needs none. An engine loaded without an index must not train or retrieve.
    ``pool`` names the pool a frozen eval will ask of the env: one the env
    does not have is refused before replay, which may cut the log.
    """
    store.require()
    config, meta = load_run_config(store)
    env = make_env(meta["env"], seed=config.seed, pool_size=config.pool_size)
    if pool is not None:
        env.pool(pool)

    # closing: a replay refused part way leaves the log open in the stream
    with closing(_committed_events(store, committed - 1)) as events:
        graph = KnowledgeGraph.replay(
            events,
            principles_per_skill_cap=config.principles_per_skill_cap,
            skill_growth_cap=config.skill_growth_cap,
            snapshot_history_limit=config.snapshot_history_limit,
        )
    engine = build_simulated_engine(config, env, graph, index)
    engine.prev_accuracy = last_accuracy
    graph.set_event_sink(store.event_sink)
    # a write killed before its rename leaves only a temp file
    store.discard_partial_writes()
    return engine


def bootstrap_run(store: RunStore) -> Engine:
    """First load of a fresh run: seed the graph and flush the bootstrap.

    Loading a run with an empty log gives the empty graph, index and engine.
    """
    engine = load_engine(store)
    engine.bootstrap()
    store.flush_events()
    return engine


def run_training(
    store: RunStore,
    iterations: int | None = None,
    engine: Engine | None = None,
    on_iteration=None,
    committed: tuple[int, float | None] | None = None,
) -> int:
    """Run (or continue) training until ``iterations`` are committed, and
    return the number of iterations this call committed.

    An ``engine`` given must log into ``store``: the one ``load_engine`` or
    ``bootstrap_run`` built it on. Its events would otherwise wait in another
    store's buffer, and the run would hold reports and boundary snapshots
    that no event in its log backs. A caller that has read the reports
    already passes what ``read_committed`` returned as ``committed``, and
    they are not read again.
    """
    store.require()
    # bound methods are equal only when bound to the same store
    if engine is not None and engine.graph._sink != store.event_sink:
        raise ValidationError(
            "the engine's graph does not log into this run store; "
            "load the engine with load_engine(store)"
        )
    start, last_accuracy = committed if committed is not None else read_committed(store)
    if engine is None:
        fresh = not start and not store.has_events()
        engine = _load_engine(store, start, last_accuracy)
        if fresh:
            engine.bootstrap()
            store.flush_events()
    total = iterations if iterations is not None else engine.config.iterations
    if total < start:
        raise ValidationError(
            f"run already has {start} committed iterations, cannot target {total}"
        )
    for k in range(start, total):
        report = engine.run_iteration(k)
        store.flush_events()
        store.write_snapshot(k, engine.graph.canonical_bytes())
        store.append_report(report.to_dict())
        if on_iteration is not None:
            on_iteration(report)
    return total - start


def run_eval(
    store: RunStore,
    pool: str = "held_out",
    retrieval: bool = True,
    tag: str | None = None,
) -> dict[str, Any]:
    """Frozen evaluation against the committed graph; writes eval-<tag>.json.

    The engine is replayed from the run's log, and the run's reports are
    read once, for their count and the last committed accuracy; none of them
    is held through the eval. The record's ``graph_hash_before`` names the
    committed state: when the last committed boundary file is there, it is
    that file's sha256, the hash of the ``canonical_bytes`` the commit
    wrote, and the replayed graph is not encoded. A run with no committed
    iteration, or a missing file, hashes the graph instead.
    ``graph_hash_after`` is the same digest unless the graph's
    ``state_mark`` moved during the eval, and then an eval that changed the
    graph raises. A pool the run's env does not have is refused before
    the run's files are touched.
    """
    if not store.has_events():
        raise ValidationError("run has no training record yet; run training first")
    committed, last_accuracy = read_committed(store)
    engine = _load_engine(store, committed, last_accuracy, index=retrieval, pool=pool)
    digest = store.snapshot_digest(committed - 1) if committed else None
    record = engine.eval_run(pool_name=pool, retrieval=retrieval, graph_hash_before=digest)
    if record["graph_hash_before"] != record["graph_hash_after"]:
        raise ValidationError("evaluation mutated the graph")
    record["committed_iterations"] = committed
    label = tag or f"{pool}-{'ret' if retrieval else 'noret'}-{record['committed_iterations']:05d}"
    store.write_eval(label, record)
    return record


def stats_rows(store: RunStore) -> list[dict[str, Any]]:
    """Per-iteration growth counters for the stats table."""
    rows = []
    for report in store.read_reports():
        protected = report["protected_counts_post"]
        selected = report["coverage"]["selected"]
        observed = report["coverage"]["observed"]
        rows.append(
            {
                "iter": report["iteration"],
                "skills": report["skills_count"],
                "failure_memories": protected.get("failure_memory", 0),
                "success_memories": protected.get("success_memory", 0),
                "coverage": (selected / observed) if observed else 0.0,
            }
        )
    return rows
