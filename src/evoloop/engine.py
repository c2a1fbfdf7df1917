"""Six-agent evolution loop over the knowledge graph.

One iteration runs five phases against a frozen model tier:

  PLAN      curriculum frontier, refined by one navigator call that may
            only reorder or subset it
  EXPLORE   sequential environments only: one episode, writing observation
            nodes, abstracted patterns, and trailing-action recipes; each
            step asks the explorer through ``_explorer_step``
  EVALUATE  the learner answers the evolution pool with retrieved bundles;
            the critic judges one batch per task type; every graph or
            bandit write this phase produces is queued. On a sequential
            env the pool is its achievements, scored by the EXPLORE
            episode. Either way EVALUATE hands UPDATE and EVOLVE one
            record per answered question: the question itself, its
            result and its reasoning trace
  UPDATE    queued writes apply serially in question order, then the
            mastery ratchet runs per attempted skill over whole-pool
            success rates, and low-confidence patterns are pruned
  EVOLVE    round-robin over observed task types picks at most
            ``max_evolve_targets``; guidance writes failure memories for
            their errors plus one rotation action per selected type,
            cycling principle extraction, prompt refinement, tool
            authoring, skill splitting by iteration index

then the iteration snapshots the graph and the delta guard compares the
measured accuracy with the previous committed accuracy: a drop past
``delta_guard`` rolls mutable slots back to the previous boundary snapshot
(past ``catastrophic_threshold`` it is additionally flagged), while
protected nodes appended during the iteration always survive. Unless
``remeasure_after_update`` scores the pool again after EVOLVE, the
measured accuracy is EVALUATE's, taken before UPDATE and EVOLVE write: a
score of the graph iteration k-1 committed. So a rollback at k undoes k's
writes on evidence about the graph they were written to, not about them.

Guidance-tier agents (skill_discovery, navigator, critic, curator) never
run during inference: ``eval_run`` freezes the graph, selects bandit arms
by posterior mean, scores answers against environment gold directly, and
leaves the graph hash unchanged.

An answering pass (training EVALUATE, the re-measure pass, frozen eval)
answers a static pool through ``_answers``, one (question, unjudged
result, completion) record per question on the routes its caller picks;
in training the critic judges them through ``_judge``, one batch per task
type. The two read-only passes, re-measure and frozen eval, are
``_score``, the one place they branch on the env. Each pass reads a graph
that does not change under it: EVALUATE queues its writes and frozen eval
freezes the graph. So the cascade context (skill lattice, principle
notes, action recipe) is computed once per (task type, skill) per graph
version, the graph's ``last_seq``, which every write advances. The
exemplar bundle is kept longer. It depends only on the task type, the
question text and which side of ``long_context_threshold`` the context
length falls (a pool of 200 questions holds about 130 such keys), and the
engine keeps the last bundle of each key across passes and iterations
until a write changes what its retrieval read (``_bundle``).

Every prompt, the learner's and the explorer's, in training, re-measure
and frozen eval, is assembled by ``_prompt`` under one rule: with retrieval
it carries its bundle from ``_bundle`` and its graph-derived notes, and
without retrieval neither.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Sequence

from . import bandits, memory
from .backends import BackendSet, GUIDANCE_AGENTS, stable_hash64
from .curriculum import RatchetParams, SelectorParams, mastery_update, round_robin_select
from .errors import BackendError, CapError, ValidationError
from .graph import KnowledgeGraph
from .memory import (
    FailurePayload,
    MemoryIndex,
    SuccessPayload,
    cascade_principles,
    curriculum_override,
    format_bundle,
    harvest_failure,
    harvest_success,
    latest_action_recipe,
    record_action_recipe,
    render_skill_lattice,
    skill_frontier,
)

ROTATION = ("principle_extraction", "prompt_refinement", "tool_authoring", "skill_splitting")

GUIDANCE_NOTE_CAP = 6


def rotation_action(iteration: int) -> str:
    if iteration < 0:
        raise ValidationError("iteration must be >= 0")
    return ROTATION[iteration % len(ROTATION)]


def delta_guard_decision(
    prev_accuracy: float | None,
    new_accuracy: float,
    delta_guard: float,
    catastrophic_threshold: float,
) -> str:
    """Classify an accuracy transition: none, delta, or catastrophic."""
    if prev_accuracy is None:
        return "none"
    drop = prev_accuracy - new_accuracy
    if drop > catastrophic_threshold:
        return "catastrophic"
    if drop > delta_guard:
        return "delta"
    return "none"


# the least value of each config field that has only a lower bound
_CONFIG_LEAST = {
    "max_evolve_targets": 1,
    "retrieval_top_k": 1,
    "long_context_threshold": 0,
    "principles_per_skill_cap": 1,
    "skill_growth_cap": 1,
    "bandit_warmup_pulls": 0,
    "delta_guard": 0,
    "pool_size": 1,
    "iterations": 1,
    "trace_char_cap": 1,
    # an iteration's own snapshot must not evict the boundary it may roll back to
    "snapshot_history_limit": 2,
    "eval_workers": 1,
}


@dataclass
class EngineConfig:
    mastery_rise_rate: float = 0.6
    mastery_decay_rate: float = 0.1
    mastery_threshold: float = 0.5
    recency_weight: float = 0.3
    max_evolve_targets: int = 3
    retrieval_top_k: int = 3
    long_context_threshold: int = 500
    type_strategy_min_similarity: float = 0.55
    principles_per_skill_cap: int = 12
    skill_growth_cap: int = 30
    bandit_warmup_pulls: int = 20
    delta_guard: float = 0.03
    catastrophic_threshold: float = 0.05
    eval_temperature: float = 0.0
    train_temperature: float = 0.3
    pool_size: int = 200
    iterations: int = 20
    seed: int = 42
    trace_char_cap: int = 4000
    prune_confidence_threshold: float = 0.3
    snapshot_history_limit: int = 64
    routing_strategies: tuple[str, ...] = ("direct", "chain", "decompose")
    search_strategies: tuple[str, ...] = ("base", "cascade")
    # retired: accepted and ignored, as every run's config.json holds it,
    # format 3 included, and perfbench passes it; EVALUATE answers serially.
    # Dropping it is a run-format step (ROADMAP item 5)
    eval_workers: int = 1
    remeasure_after_update: bool = False

    def validate(self) -> None:
        for name in ("mastery_rise_rate", "mastery_decay_rate"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in (0, 1)")
        if self.mastery_rise_rate <= self.mastery_decay_rate:
            raise ValidationError(
                "mastery_rise_rate must exceed mastery_decay_rate "
                f"(got rise={self.mastery_rise_rate}, decay={self.mastery_decay_rate})"
            )
        for name in ("mastery_threshold", "type_strategy_min_similarity", "prune_confidence_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")
        if self.recency_weight <= 0:
            raise ValidationError("recency_weight must be positive")
        for name, least in _CONFIG_LEAST.items():
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}")
        if self.catastrophic_threshold < self.delta_guard:
            raise ValidationError("catastrophic_threshold must be >= delta_guard")
        if self.eval_temperature < 0 or self.train_temperature < 0:
            raise ValidationError("temperatures must be >= 0")
        for name in ("routing_strategies", "search_strategies"):
            arms = getattr(self, name)
            if not arms or len(set(arms)) != len(arms):
                raise ValidationError(f"{name} must be non-empty and unique")

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["routing_strategies"] = list(self.routing_strategies)
        data["search_strategies"] = list(self.search_strategies)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """A validated config from a JSON object; a value of the wrong type
        is refused with a ``ValidationError`` naming its key."""
        if not isinstance(data, Mapping):
            raise ValidationError("config must be an object of config keys")
        fields_by_name = cls.__dataclass_fields__
        unknown = set(data) - set(fields_by_name)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**{
            key: _config_value(key, value, fields_by_name[key].default)
            for key, value in data.items()
        })
        config.validate()
        return config


def _config_value(key: str, value: Any, default: Any) -> Any:
    """``value`` for the field whose default is ``default``: an int field takes
    an int, a float field a finite int or float, a bool field only a bool, an arm
    field a list of strings."""
    if isinstance(default, tuple):
        fits = isinstance(value, list) and all(isinstance(arm, str) for arm in value)
        expected = "a list of strings"
    elif isinstance(default, bool):
        fits = isinstance(value, bool)
        expected = "true or false"
    elif isinstance(default, int):
        fits = isinstance(value, int) and not isinstance(value, bool)
        expected = "an integer"
    else:
        # validate's lower bounds let NaN through (a NaN delta_guard turns the guard off)
        fits = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        expected = "a finite number"
    if not fits:
        raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")
    return tuple(value) if isinstance(default, tuple) else value


@dataclass
class QuestionResult:
    qid: str
    task_type_id: int
    skill_id: int
    reward: int
    predicted: str
    search_arm: str
    routing_arm: str
    bundle_success: int
    bundle_failure: int

    def to_dict(self) -> dict[str, Any]:
        # shallow, as IterationReport.to_dict: every field is a scalar
        return {name: getattr(self, name) for name in _RESULT_FIELDS}


# one per answered question, so the field names are looked up once
_RESULT_FIELDS = tuple(f.name for f in fields(QuestionResult))


@dataclass
class IterationReport:
    iteration: int
    accuracy: float
    committed_accuracy: float
    rollback: str
    selected_frontier: list[int]
    selected_task_types: list[int]
    task_stats_pre: list[dict[str, Any]]
    per_question: list[dict[str, Any]]
    per_skill_evidence: dict[str, dict[str, Any]]
    bandit_selections: dict[str, str]
    appended: dict[str, list[int]]
    pruned_ids: list[int]
    cap_errors: list[str]
    tier_calls: dict[str, int]
    agent_calls: dict[str, int]
    masteries_post: dict[str, float]
    protected_counts_post: dict[str, int]
    skills_count: int
    coverage: dict[str, int]
    snapshot_id: int
    boundary_snapshot_id: int

    def to_dict(self) -> dict[str, Any]:
        # shallow: the fields are already plain data, and asdict would
        # deep-copy every per-question dict just to have them serialised
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Engine:
    """Owns one graph, one memory index, one backend set, one environment.

    Every fact that outlives an iteration is in the graph: the previous
    boundary is its latest snapshot, and selection coverage counts the task
    types with a committed selection (``k_last >= 0``; a rollback restores
    it). The engine itself adds only ``prev_accuracy``, the last committed
    accuracy the delta guard compares with. A frozen eval without retrieval
    runs with no index (``index`` None).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        index: MemoryIndex | None,
        backends: BackendSet,
        config: EngineConfig,
        env,
    ):
        config.validate()
        self.graph = graph
        self.index = index
        self.backends = backends
        self.config = config
        self.env = env
        self.prev_accuracy: float | None = None
        # (graph version, {(task type id, skill id): cascade context})
        self._pass_memo: tuple[int, dict] = (-1, {})
        # the last bundle of each (task type id, question text, long context)
        self._bundles: dict[tuple[int, str, bool], memory.MemoryBundle] = {}

    # ------------------------------------------------------------------
    # phase 0

    def bootstrap(self) -> None:
        """Seed the empty graph from the environment's declared ontology."""
        if self.graph.skills or self.graph.task_types:
            raise ValidationError("bootstrap requires an empty graph")
        self.graph.current_iter = -1
        self._call_guidance("skill_discovery", {"kind": "ontology"}, prompt="ontology")
        skill_ids: dict[str, int] = {}
        for name, _prereqs in self.env.SKILLS:
            skill_ids[name] = self.graph.add_skill(name)
        for name, prereqs in self.env.SKILLS:
            for p in prereqs:
                self.graph.add_prerequisite(skill_ids[p], skill_ids[name])
        for tt_name in self.env.TASK_TYPES:
            tt_id = self.graph.add_task_type(tt_name)
            self.graph.set_resolver(tt_id, skill_ids[self.env.RESOLVER[tt_name]])
            self.graph.add_env_node("task_context", {"task_type": tt_name})
            self.graph.bandit_init(
                f"search/{tt_id}",
                list(self.config.search_strategies),
                self.config.bandit_warmup_pulls,
                stable_hash64(self.config.seed, "search", tt_name) % 2**31,
            )
        for name, sid in skill_ids.items():
            self._init_routing_bandit(sid, name)
        self.graph.snapshot()

    def _init_routing_bandit(self, skill_id: int, skill_name: str) -> None:
        self.graph.bandit_init(
            f"route/{skill_id}",
            list(self.config.routing_strategies),
            self.config.bandit_warmup_pulls,
            stable_hash64(self.config.seed, "route", skill_name) % 2**31,
        )

    # ------------------------------------------------------------------
    # backend call helpers (every call is tracked with agent and phase)

    def _count(self, phase: str, agent: str, backend: Any) -> None:
        """Record the call just made on ``backend``: one per attempt when it
        reports ``last_attempts`` (a retried HTTP call), else one."""
        self.backends.tracker.record(phase, agent, backend.role, getattr(backend, "last_attempts", 1))

    def _call_guidance(self, agent: str, meta: dict, prompt: str) -> str:
        backend = self.backends.guidance
        try:
            return backend.complete(prompt, meta=meta, temperature=0.0)
        finally:
            self._count("train", agent, backend)

    def _call_judge(self, items: list[tuple[str, str]]) -> list[int]:
        """One verdict per (predicted, gold) item; a reply that is not one
        ``0`` or ``1`` per item is a ``BackendError``."""
        backend = self.backends.judge
        try:
            verdicts = backend.complete("judge", meta={"items": items}).strip()
        finally:
            self._count("train", "critic", backend)
        if len(verdicts) != len(items) or not set(verdicts) <= {"0", "1"}:
            raise BackendError(
                f"judge reply {verdicts[:80]!r} is not one 0/1 verdict for each of {len(items)} items"
            )
        return [int(ch) for ch in verdicts]

    def _call_execution(self, agent: str, phase: str, prompt: str, meta: dict, temperature: float) -> str:
        backend = self.backends.execution
        try:
            return backend.complete(prompt, meta=meta, temperature=temperature)
        finally:
            self._count(phase, agent, backend)

    # ------------------------------------------------------------------
    # one full iteration

    def run_iteration(self, k: int) -> IterationReport:
        snapshot_ids = self.graph.snapshot_ids()
        if not snapshot_ids:
            raise ValidationError("bootstrap must run before iterations")
        # bootstrap and every iteration end on a snapshot: the boundary a
        # rollback restores
        prev_boundary = snapshot_ids[-1]
        self.graph.current_iter = k
        tracker_before = self.backends.tracker.counts()

        frontier = self._plan(k)
        if self.env.mode == "sequential":
            evaluation = self._evaluate_sequential(self._explore(k))
        else:
            evaluation = self._evaluate_static()
        per_skill_evidence, pruned_ids = self._update(evaluation)
        selected, task_stats_pre, appended, cap_errors = self._evolve(k, evaluation["answered"])

        accuracy = evaluation["accuracy"]
        if self.config.remeasure_after_update:
            accuracy = self._remeasure()
        snapshot_id = self.graph.snapshot()
        decision = delta_guard_decision(
            self.prev_accuracy,
            accuracy,
            self.config.delta_guard,
            self.config.catastrophic_threshold,
        )
        if decision == "none":
            boundary_id = snapshot_id
            committed = accuracy
        else:
            # restores every mutable slot, selection history included; the
            # audit's waiting clock skips rolled-back iterations for the
            # same reason
            self.graph.rollback_mutable(prev_boundary)
            boundary_id = self.graph.snapshot()
            committed = self.prev_accuracy if self.prev_accuracy is not None else accuracy
        self.prev_accuracy = committed

        tier_calls, agent_calls = self._call_deltas(tracker_before)
        report = IterationReport(
            iteration=k,
            accuracy=accuracy,
            committed_accuracy=committed,
            rollback=decision,
            selected_frontier=frontier,
            selected_task_types=list(selected),
            task_stats_pre=task_stats_pre,
            per_question=[result.to_dict() for _q, result, _trace in evaluation["answered"]],
            per_skill_evidence=per_skill_evidence,
            bandit_selections=dict(
                sorted(
                    {**evaluation["search_arms"], **evaluation["routing_arms"]}.items()
                )
            ),
            appended=appended,
            pruned_ids=pruned_ids,
            cap_errors=cap_errors,
            tier_calls=tier_calls,
            agent_calls=agent_calls,
            masteries_post={
                str(sid): self.graph.skills[sid].mastery for sid in sorted(self.graph.skills)
            },
            protected_counts_post=self.graph.protected_counts(),
            skills_count=len(self.graph.skills),
            coverage={
                "selected": sum(tt.k_last >= 0 for tt in self.graph.task_types.values()),
                "observed": len(self.graph.task_types),
            },
            snapshot_id=snapshot_id,
            boundary_snapshot_id=boundary_id,
        )
        return report

    def _call_deltas(self, before: dict) -> tuple[dict[str, int], dict[str, int]]:
        """Model-call deltas for one iteration, by tier and by agent.

        Embedder traffic is deliberately absent: its counts depend on cache
        state, which a resumed run rebuilds differently, and the accounting
        contract excludes it anyway.
        """
        tier: dict[str, int] = {}
        agents: dict[str, int] = {}
        for (_phase, agent, role), delta in self.backends.tracker.since(before).items():
            tier[role] = tier.get(role, 0) + delta
            agents[agent] = agents.get(agent, 0) + delta
        return dict(sorted(tier.items())), dict(sorted(agents.items()))

    # ------------------------------------------------------------------
    # PLAN

    def _plan(self, k: int) -> list[int]:
        masteries, frontier = skill_frontier(self.graph, self.config.mastery_threshold)
        frontier = sorted(frontier)
        reply = self._call_guidance(
            "navigator",
            {
                "kind": "navigator",
                "frontier": frontier,
                "masteries": masteries,
                "iteration": k,
            },
            prompt="refine frontier",
        )
        refined = []
        allowed = set(frontier)
        for token in reply.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                sid = int(token)
            except ValueError:
                continue
            # navigator may only reorder or subset, never add
            if sid in allowed and sid not in refined:
                refined.append(sid)
        return refined if refined else frontier

    # ------------------------------------------------------------------
    # EXPLORE (sequential only)

    def _explore(self, k: int):
        """One training episode; returns its final state for EVALUATE."""

        def record_recipe(state, unlocked: str) -> None:
            skill = self.graph.skill_by_name(self.env.RESOLVER[unlocked])
            record_action_recipe(self.graph, skill.id, state.actions_taken)

        state = self._episode("train", on_unlock=record_recipe)
        self.graph.add_env_node(
            "observation",
            {"iteration": k, "actions": list(state.actions_taken), "unlocked": list(state.unlocked)},
        )
        self.graph.append_experience(
            outcome="abstracted_pattern",
            payload={"iteration": k, "actions": list(state.actions_taken)},
            confidence=len(state.unlocked) / len(self.env.ACHIEVEMENTS),
        )
        return state

    def _episode(self, phase: str, retrieval: bool = True, on_unlock=None):
        """Play one bounded episode, each step asked through ``_explorer_step``;
        ``on_unlock(state, achievement)`` follows every unlocking step."""
        env = self.env
        state = env.reset()
        for _ in range(env.EPISODE_STEPS):
            target = env.intended_action(state)
            if target is None:
                break
            unlocked = env.step(state, self._explorer_step(state, target, phase, retrieval))
            if unlocked is not None and on_unlock is not None:
                on_unlock(state, unlocked)
        return state

    def _explorer_step(self, state, target: str, phase: str, retrieval: bool) -> str:
        """Ask the explorer for one episode step's action toward ``target``;
        its note is the last action of the resolver skill's recipe."""

        def recipe_note():
            skill = self.graph.skill_by_name(self.env.RESOLVER[target])
            recipe = latest_action_recipe(self.graph, skill.id)
            # the recipe's final action is the one that fired the unlock
            return None, [f"next-action {recipe[-1]}"] if recipe else []

        goal = f"achieve {target}"
        prompt, _ = self._prompt(
            goal,
            f"unlocked: {', '.join(state.unlocked) or 'none'}",
            (goal, self.graph.task_type_by_name(target).id, 0),
            retrieval,
            recipe_note,
        )
        backend = self.backends.execution
        try:
            return backend.act(
                prompt,
                meta={"state_id": state.state_id, "intended_action": target},
                actions=self.env.actions(),
            )
        finally:
            self._count(phase, "explorer", backend)

    # ------------------------------------------------------------------
    # EVALUATE

    def _draw(self, ctx: str, arms: dict[str, str], queue: list) -> str:
        """Select bandit ``ctx``'s arm into ``arms`` and return it, queueing a
        Thompson draw for UPDATE to log."""
        arm, thompson = bandits.select_arm(self.graph.bandits[ctx])
        if thompson:
            queue.append((ctx, arm))
        arms[ctx] = arm
        return arm

    def _answers(self, pool, pick, phase: str, retrieval: bool = True) -> list:
        """Answer ``pool``: one (question, unjudged result, completion) record
        per question. A task type's route is its search arm ``pick(tt)`` and
        the skill that answers under it: its resolver, which the cascade arm
        redirects by the curriculum override. ``pick`` is called in task type
        id order, so the draws it queues are too."""
        tts = [self.graph.task_type_by_name(name) for name in {q.task_type for q in pool}]
        routes = {}
        for tt in sorted(tts, key=lambda tt: tt.id):
            search_arm = pick(tt)
            skill_id = tt.resolver_skill_id
            if search_arm == "cascade":
                skill_id = curriculum_override(self.graph, skill_id, self.config.mastery_threshold)
            routes[tt.name] = (tt.id, skill_id, search_arm)
        return [
            (q, *self._answer_question(q, *routes[q.task_type], phase=phase, retrieval=retrieval))
            for q in pool
        ]

    def _answer_question(
        self,
        q,
        tt_id: int,
        skill_id: int,
        search_arm: str,
        phase: str = "train",
        retrieval: bool = True,
    ) -> tuple[QuestionResult, str]:
        """Ask the learner one question; the phase picks the temperature. A
        cascade prompt's lattice and notes are its cascade context. Returns
        the unjudged result (reward 0, no routing arm) and the completion."""
        prompt, bundle = self._prompt(
            self.graph.skills[skill_id].prompt_template.replace("{question}", q.text),
            q.context,
            (q.text, tt_id, len(q.context)),
            retrieval,
            (lambda: self._cascade_context(tt_id, skill_id)) if search_arm == "cascade" else None,
        )
        temperature = (
            self.config.train_temperature if phase == "train" else self.config.eval_temperature
        )
        raw = self._call_execution("learner", phase, prompt, {"question_id": q.qid}, temperature)
        result = QuestionResult(
            qid=q.qid,
            task_type_id=tt_id,
            skill_id=skill_id,
            reward=0,
            predicted=extract_answer(raw),
            search_arm=search_arm,
            routing_arm="",
            bundle_success=len(bundle.success),
            bundle_failure=len(bundle.failure),
        )
        return result, raw

    def _prompt(
        self, question: str, context: str, key: tuple, retrieval: bool, notes=None
    ) -> tuple[str, memory.MemoryBundle]:
        """Every prompt, the learner's and the explorer's, and the bundle it
        carries. With retrieval that is the bundle ``_bundle(*key)``, with
        the skill lattice and guidance notes ``notes()`` returns (None: none);
        without retrieval it carries neither."""
        if retrieval:
            bundle = self._bundle(*key)
            lattice, guidance = notes() if notes else (None, ())
        else:
            bundle, lattice, guidance = memory.MemoryBundle(allocation=(0, 0)), None, ()
        prompt = format_bundle(bundle, question, context=context, lattice=lattice, guidance=guidance)
        return prompt, bundle

    def _bundle(self, text: str, tt_id: int, context_length: int) -> memory.MemoryBundle:
        """The exemplar bundle of question ``text`` under task type ``tt_id``
        with a context of ``context_length`` characters.

        The last bundle of each key is kept across passes and iterations,
        with its rendered exemplar blocks, and retrieved again only once a
        write may have changed what its retrieval read
        (``MemoryIndex.is_current``): a new row in one of its two blocks, or
        a node list the walk read growing while it held fewer than ``k``.
        A bandit update, a rollback or a group of ``k`` or more gaining a
        node leaves it standing. What a kept entry copies (payload,
        similarity, task type and skill names) is fixed once its node and
        the node's referents exist; a bundle with an entry whose referent
        was missing, as a replayed log may leave one, is retrieved afresh
        on every call. The embedder, ``retrieval_top_k`` and the
        long-context threshold are fixed for the engine, so the key fixes
        the query."""
        threshold = self.config.long_context_threshold
        key = (tt_id, text, context_length >= threshold)
        bundle = self._bundles.get(key)
        if bundle is None or not self.index.is_current(bundle):
            bundle = self._bundles[key] = self.index.retrieve_bundle(
                self.backends.embedder.embed(text),
                tt_id,
                context_length=context_length,
                k=self.config.retrieval_top_k,
                long_context_threshold=threshold,
            )
        return bundle

    def _cascade_context(self, tt_id: int, skill_id: int) -> tuple[str | None, tuple[str, ...]]:
        """Skill lattice and guidance notes of a cascade prompt, computed
        once per (task type, skill) while the graph version stands."""
        version = self.graph.last_seq
        memo_version, memo = self._pass_memo
        if memo_version != version:
            memo = {}
            self._pass_memo = (version, memo)
        context = memo.get((tt_id, skill_id))
        if context is None:
            lattice = render_skill_lattice(self.graph, tt_id) or None
            notes = [
                self.graph.experience[pid].payload.get("text", "")
                for pid in cascade_principles(self.graph, skill_id)[:GUIDANCE_NOTE_CAP]
            ]
            recipe = latest_action_recipe(self.graph, skill_id)
            if recipe:
                notes.append("recipe: " + " -> ".join(recipe))
            context = memo[(tt_id, skill_id)] = (lattice, tuple(notes))
        return context

    def _evaluate_static(self) -> dict[str, Any]:
        pool = self.env.pool("evolution")[: self.config.pool_size]
        # selections read current bandit state; the draw-counter advances are
        # queued so EVALUATE itself stays write-free. The queue order is
        # logged: every search draw, then the route draws by skill id
        draw_queue: list[tuple[str, str]] = []
        search_arms: dict[str, str] = {}
        answered = self._answers(
            pool, lambda tt: self._draw(f"search/{tt.id}", search_arms, draw_queue), "train"
        )
        routing_arms: dict[str, str] = {}
        for skill_id in sorted({result.skill_id for _q, result, _raw in answered}):
            self._draw(f"route/{skill_id}", routing_arms, draw_queue)
        for _q, result, _raw in answered:
            result.routing_arm = routing_arms[f"route/{result.skill_id}"]
        self._judge(answered)
        return self._evaluation(answered, search_arms, routing_arms, draw_queue)

    def _judge(self, answered: list) -> None:
        """Set each answered result's reward to the critic's verdict: one
        judge batch per task type, in task type id order."""
        batches: dict[int, list] = {}
        for q, result, _raw in answered:
            batches.setdefault(result.task_type_id, []).append((q, result))
        for tt_id in sorted(batches):
            batch = batches[tt_id]
            verdicts = self._call_judge([(result.predicted, q.answer) for q, result in batch])
            for (_q, result), verdict in zip(batch, verdicts, strict=True):
                result.reward = verdict

    def _evaluate_sequential(self, state) -> dict[str, Any]:
        """Score each achievement by whether the EXPLORE episode unlocked it."""
        search_arms: dict[str, str] = {}
        routing_arms: dict[str, str] = {}
        draw_queue: list[tuple[str, str]] = []
        answered = []
        # the queue order is logged: per achievement its search draw, then
        # its skill's first route draw
        for q in self.env.pool("evolution"):
            tt = self.graph.task_type_by_name(q.task_type)
            arm = self._draw(f"search/{tt.id}", search_arms, draw_queue)
            skill_id = tt.resolver_skill_id
            rctx = f"route/{skill_id}"
            if rctx not in routing_arms:
                self._draw(rctx, routing_arms, draw_queue)
            unlocked = q.task_type in state.unlocked
            result = QuestionResult(
                qid=q.qid,
                task_type_id=tt.id,
                skill_id=skill_id,
                reward=int(unlocked),
                predicted=q.answer if unlocked else "locked",
                search_arm=arm,
                routing_arm=routing_arms[rctx],
                bundle_success=0,
                bundle_failure=0,
            )
            answered.append((q, result, "followed the unlocked action chain"))
        return self._evaluation(answered, search_arms, routing_arms, draw_queue)

    @staticmethod
    def _evaluation(answered: list, search_arms, routing_arms, draw_queue) -> dict[str, Any]:
        """What EVALUATE hands on: one (question, result, trace) record per
        answered question, the pool accuracy, and the arms and queued draws."""
        return {
            "answered": answered,
            "accuracy": sum(result.reward for _q, result, _trace in answered) / len(answered),
            "search_arms": search_arms,
            "routing_arms": routing_arms,
            "draw_queue": draw_queue,
        }

    # ------------------------------------------------------------------
    # UPDATE

    def _update(
        self, evaluation: dict[str, Any]
    ) -> tuple[dict[str, dict[str, Any]], list[int]]:
        """Apply EVALUATE's queued writes; returns the per-skill evidence of
        the mastery ratchet and the ids of the pruned patterns."""
        # queued bandit draws first, then per-question effects in pool order
        for ctx, arm in evaluation["draw_queue"]:
            self.graph.bandit_record_draw(ctx, arm)
        for q, result, trace in evaluation["answered"]:
            if result.reward == 1:
                payload = SuccessPayload(
                    question=q.text,
                    reasoning_trace=trace or self._trace_for(q),
                    answer=q.answer,
                    decomposition=[tuple(step) for step in q.decomposition],
                )
                harvest_success(
                    self.index,
                    self.backends.embedder.embed,
                    result.task_type_id,
                    result.skill_id,
                    payload,
                    trace_char_cap=self.config.trace_char_cap,
                )
            else:
                self.graph.record_task_failure(result.task_type_id)
            self.graph.bandit_update(
                f"search/{result.task_type_id}", result.search_arm, result.reward
            )
            self.graph.bandit_update(
                f"route/{result.skill_id}", result.routing_arm, result.reward
            )

        # mastery ratchet: whole-pool success rate per attempted skill
        attempts: dict[int, list[int]] = {}
        for _q, result, _trace in evaluation["answered"]:
            attempts.setdefault(result.skill_id, []).append(result.reward)
        params = RatchetParams(
            rise_rate=self.config.mastery_rise_rate,
            decay_rate=self.config.mastery_decay_rate,
        )
        evidence_out: dict[str, dict[str, Any]] = {}
        for skill_id in sorted(attempts):
            rewards = attempts[skill_id]
            evidence = sum(rewards) / len(rewards)
            before = self.graph.skills[skill_id].mastery
            after = mastery_update(before, evidence, params)
            self.graph.set_mastery(skill_id, after)
            evidence_out[str(skill_id)] = {
                "attempts": len(rewards),
                "correct": sum(rewards),
                "evidence": evidence,
                "mastery_before": before,
                "mastery_after": after,
            }

        # strategy slot follows the routing arm the skill just used
        for ctx, arm in sorted(evaluation["routing_arms"].items()):
            skill_id = int(ctx.split("/", 1)[1])
            if self.graph.skills[skill_id].strategy != arm:
                self.graph.set_strategy(skill_id, arm)

        pruned_ids = self.graph.prune_low_confidence(self.config.prune_confidence_threshold)
        return evidence_out, pruned_ids

    def _trace_for(self, q) -> str:
        lines = [f"Step {i}: {text}" for i, (_s, text) in enumerate(q.decomposition, start=1)]
        lines.append(f"Answer: {q.answer}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # EVOLVE

    def _evolve(
        self, k: int, answered: list
    ) -> tuple[list[int], list[dict[str, Any]], dict[str, list[int]], list[str]]:
        task_stats_pre = [
            {
                "task_type_id": tt.id,
                "name": tt.name,
                "n_fail": tt.n_fail,
                "k_last": tt.k_last,
                "observed_iter": tt.observed_iter,
            }
            for tt in (self.graph.task_types[tid] for tid in sorted(self.graph.task_types))
        ]
        selector = SelectorParams(
            recency_weight=self.config.recency_weight,
            max_targets=self.config.max_evolve_targets,
        )
        selected = round_robin_select(
            [(s["task_type_id"], s["n_fail"], s["k_last"]) for s in task_stats_pre],
            k,
            selector,
        )
        errors_by_tt: dict[int, list] = {}
        for q, result, _trace in answered:
            if result.reward == 0:
                errors_by_tt.setdefault(result.task_type_id, []).append((q, result))

        appended: dict[str, list[int]] = {"principle": [], "failure_memory": [], "retrieval_recipe": []}
        cap_errors: list[str] = []
        action = rotation_action(k)
        for tt_id in selected:
            self.graph.mark_selected(tt_id, k)
            tt = self.graph.task_types[tt_id]
            resolver_id = tt.resolver_skill_id
            skill_name = self.graph.skills[resolver_id].name if resolver_id else ""
            errors = errors_by_tt.get(tt_id, [])
            if errors:
                first_q, first = errors[0]
                correction = self._call_guidance(
                    "skill_discovery",
                    {
                        "kind": "correction",
                        "task_type": tt.name,
                        "wrong_answer": first.predicted,
                        "correct_answer": first_q.answer,
                    },
                    prompt="write corrections",
                )
                strategy_text = self._call_guidance(
                    "skill_discovery",
                    {"kind": "type_strategy", "task_type": tt.name, "skill": skill_name},
                    prompt="write type strategy",
                )
                payloads = [
                    FailurePayload(
                        question=q.text,
                        wrong_answer=err.predicted,
                        corrective_reasoning=correction,
                        correct_answer=q.answer,
                        kind="specific",
                    )
                    for q, err in errors
                ]
                payloads.append(
                    FailurePayload(
                        question=f"{tt.name} questions in general",
                        wrong_answer="recurring errors",
                        corrective_reasoning=strategy_text,
                        correct_answer="follow the pattern strategy",
                        kind="type_strategy",
                    )
                )
                embed = self.backends.embedder.embed
                for payload in payloads:
                    nid = harvest_failure(self.index, embed, tt_id, resolver_id, payload)
                    appended["failure_memory"].append(nid)
            self._apply_rotation(action, tt, resolver_id, skill_name, appended, cap_errors)
        return selected, task_stats_pre, appended, cap_errors

    def _apply_rotation(
        self,
        action: str,
        tt,
        resolver_id: int | None,
        skill_name: str,
        appended: dict[str, list[int]],
        cap_errors: list[str],
    ) -> None:
        if resolver_id is None:
            return
        if action == "principle_extraction":
            text = self._call_guidance(
                "skill_discovery",
                {"kind": "principle", "task_type": tt.name, "skill": skill_name},
                prompt="extract principle",
            )
            pid = self.graph.append_experience(
                outcome="principle",
                payload={"text": text},
                task_type_id=tt.id,
                skill_id=resolver_id,
            )
            self.graph.add_principle_ref(resolver_id, pid)
            appended["principle"].append(pid)
        elif action == "prompt_refinement":
            template = self._call_guidance(
                "skill_discovery",
                {"kind": "prompt_refinement", "task_type": tt.name},
                prompt="refine prompt",
            )
            self.graph.set_prompt_template(resolver_id, template)
        elif action == "tool_authoring":
            tool = self._call_guidance(
                "skill_discovery",
                {"kind": "tool", "task_type": tt.name},
                prompt="author tool",
            )
            nid = self.graph.append_experience(
                outcome="retrieval_recipe",
                payload={"tool": tool},
                task_type_id=tt.id,
                skill_id=resolver_id,
            )
            appended["retrieval_recipe"].append(nid)
        elif action == "skill_splitting":
            name = self._call_guidance(
                "skill_discovery",
                {"kind": "skill_split", "task_type": tt.name, "skill": skill_name},
                prompt="split skill",
            )
            try:
                new_id = self.graph.add_skill(name)
            except CapError as exc:
                cap_errors.append(str(exc))
                return
            self.graph.add_prerequisite(resolver_id, new_id)
            self.graph.set_resolver(tt.id, new_id)
            self._init_routing_bandit(new_id, name)
        else:
            raise ValidationError(f"unknown rotation action {action!r}")

    # ------------------------------------------------------------------
    # read-only passes: the re-measure for the delta guard, and frozen eval

    def _remeasure(self) -> float:
        """Score the pool again, read-only, against the post-UPDATE graph: a
        sequential env's by one more episode, which records no recipe."""
        pool = self.env.pool("evolution")[: self.config.pool_size]
        return self._score(pool, lambda tt: "base", "train")[0]

    def _score(self, pool, pick, phase: str, retrieval: bool = True) -> tuple[float, int]:
        """A read-only pass's accuracy and question count: one episode of a
        sequential env, or ``pool`` answered (see ``_answers``) and judged by
        the critic in training, against gold in a frozen eval."""
        if self.env.mode == "sequential":
            n = len(self.env.ACHIEVEMENTS)
            return len(self._episode(phase, retrieval).unlocked) / n, n
        answered = self._answers(pool, pick, phase, retrieval)
        if phase == "train":
            self._judge(answered)
            correct = sum(result.reward for _q, result, _raw in answered)
        else:
            correct = sum(
                result.predicted.strip() == q.answer.strip() for q, result, _raw in answered
            )
        return correct / len(answered), len(answered)

    # ------------------------------------------------------------------
    # frozen inference

    def eval_run(
        self,
        pool_name: str = "held_out",
        retrieval: bool = True,
        graph_hash_before: str | None = None,
    ) -> dict[str, Any]:
        """Frozen evaluation; zero guidance calls, zero graph writes.

        ``graph_hash_before`` is the caller's sha256 of the graph's
        ``canonical_bytes``, such as the digest of the boundary file it was
        replayed to; None hashes the graph. ``graph_hash_after`` is that same
        digest when the graph's ``state_mark`` did not move through the eval,
        and a full ``graph_hash`` otherwise, so a record whose two hashes
        differ names an eval that changed the graph.
        """
        # a pool the env does not have is refused before anything is hashed
        pool = self.env.pool(pool_name)
        hash_before = graph_hash_before or self.graph.graph_hash()
        mark = self.graph.state_mark()
        was_frozen = self.graph.frozen
        self.graph.freeze()
        tracker_before = self.backends.tracker.counts()
        try:
            # the frozen graph fixes one route per task type for the whole
            # pass, on the search arm of highest posterior mean
            accuracy, n = self._score(
                pool,
                lambda tt: bandits.exploit_arm(self.graph.bandits[f"search/{tt.id}"]),
                "infer",
                retrieval,
            )
        finally:
            if not was_frozen:
                self.graph.unfreeze()
        hash_after = hash_before if self.graph.state_mark() == mark else self.graph.graph_hash()
        calls = self.backends.tracker.since(tracker_before)
        return {
            "pool": pool_name,
            "frozen": True,
            "retrieval_enabled": retrieval,
            "accuracy": accuracy,
            "questions": n,
            "calls": dict(sorted(("/".join(key), delta) for key, delta in calls.items())),
            "graph_hash_before": hash_before,
            "graph_hash_after": hash_after,
        }


def extract_answer(raw: str) -> str:
    """Last Answer: line of a completion; the whole text when absent."""
    answer = raw.strip()
    for line in raw.splitlines():
        line = line.strip()
        if line.startswith("Answer:"):
            answer = line.removeprefix("Answer:").strip()
    return answer


def call_audit(
    reports: Sequence[Mapping[str, Any]],
    eval_records: Sequence[Mapping[str, Any]] = (),
) -> dict[str, Any]:
    """Guidance-call accounting over a run record.

    Guidance fraction counts calls made by the guidance roster agents over
    all non-embedder calls. The engine counts every attempt of a backend
    request (``Engine._count``), so the retries of an HTTP backend are in
    the counts.
    """
    train_guidance = 0
    train_total = 0
    for report in reports:
        for agent, count in report.get("agent_calls", {}).items():
            if agent in GUIDANCE_AGENTS:
                train_guidance += count
        for role, count in report.get("tier_calls", {}).items():
            if role != "embedder":
                train_total += count
    infer_guidance = 0
    infer_total = 0
    for record in eval_records:
        for key, count in record.get("calls", {}).items():
            phase, agent, role = key.split("/")
            if role == "embedder":
                continue
            if phase == "infer":
                infer_total += count
                if agent in GUIDANCE_AGENTS:
                    infer_guidance += count
    return {
        "train_guidance_calls": train_guidance,
        "train_total_calls": train_total,
        "train_guidance_fraction": (train_guidance / train_total) if train_total else 0.0,
        "infer_guidance_calls": infer_guidance,
        "infer_total_calls": infer_total,
        "infer_guidance_fraction": (infer_guidance / infer_total) if infer_total else 0.0,
    }
