"""Event-sourced knowledge graph with four co-evolving subgraphs.

The graph is the single mutable aggregate of the engine. It holds:

  * capability nodes (skills with mastery, prompt template, strategy,
    principle references, prerequisite DAG),
  * task-type nodes (cumulative failure count, last-selected iteration,
    resolver skill edge),
  * experience nodes (five outcome classes; principle, failure_memory and
    success_memory are protected: append-only and immutable, since the
    only writer that removes nodes, ``prune_low_confidence``, takes
    abstracted patterns alone),
  * environment nodes (thin payload store).

Every mutation goes through ``_commit``, which applies the state
transition and, when an event sink is attached, hands it the record
``{seq, iter, op, payload}`` as its log line: JSON with sorted keys and no
whitespace, encoded here through one reused encoder. An
``append_experience`` payload holds exactly the node's record, so its body
is encoded once and serves as both the middle of the line and the node's
canonical fragment (below). UPDATE writes a ``bandit_update`` record for
every answered question; its line is filled into a fixed template, each
string through the function the encoder itself escapes strings with and
each int with ``%d``, which is byte for byte what the encoder writes.
Every other record goes through the encoder. Replaying a log into an
empty graph reproduces the final state bit-exactly: ids are allocated by
the writer and embedded in payloads, the apply step is a pure function of
(state, payload), and records carry no timestamps. The
apply step finds each record's handler, ``_on_<op>``, in one table
lookup, which matters to replay: a log holds thousands of records, most
of them ``bandit_update``.

Snapshots capture only the mutable slots (masteries, prompt templates,
strategies, task counters, bandit states). Rolling back restores those slots
and nothing else, so protected nodes appended after a snapshot always
survive a rollback. At most ``snapshot_history_limit`` snapshots are
retained, oldest dropped first.

Experience nodes, environment nodes and in-graph snapshot records never
change once applied. Their payloads are frozen at commit: the writer copies
a caller's payload once, as the JSON tree the log records (dicts and lists
copied, tuples turned into lists, other values shared), and nothing mutates
it afterwards (replay builds its nodes from the fresh dicts of the decoded
log). The one payload the writer does not copy is one ``share_payload``
handed out: an experience node's own payload, given back for a record that
repeats it type for type, which the new node shares. The graph keeps that
payload's encoding, and fills the new record's line and fragment into a
fixed template around it, as it fills the bandit update lines (above).
So each such record is encoded once, at commit or on the first
``canonical_bytes``, and the fragment stays in a derived cache that is
never serialised; a prune or a ring eviction drops the fragment with its
record. Each ``canonical_bytes`` call encodes only the small mutable
sections (skills, task types, bandits, prerequisite edges, counters), lays
them and the cached fragments with their braces and commas out in one list,
and joins that list once: byte for byte what a single
``json.dumps(sort_keys=True)`` of the whole state would write, in one
state-sized allocation. No joined section is cached, so a graph holds each
record's canonical bytes once, as its fragment. ``state_mark`` takes what
such a call reads anew (the small sections and the record sections' id
sets), so a frozen eval tells that the state did not move without encoding
it a second time.

One engine drives a graph from one thread. The graph takes no lock and is
not thread-safe: a caller that shares one across threads must serialise
every call itself.

The per-outcome counts of protected nodes are kept up to date by the apply
step (an append adds one, a prune or a replayed append that replaces a node
under the same id subtracts one), so neither ``protected_counts`` nor the
watermark a snapshot records scans the experience nodes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .bandits import BanditSlot, check_reward, new_slot, update_arm
from .errors import (
    CapError,
    CycleError,
    FrozenGraphError,
    IntegrityError,
    NotFoundError,
    ValidationError,
)

PROTECTED_OUTCOMES = frozenset({"principle", "failure_memory", "success_memory"})
EXPERIENCE_OUTCOMES = PROTECTED_OUTCOMES | {"abstracted_pattern", "retrieval_recipe"}
# the outcomes the exemplar index files by their question text
EXEMPLAR_OUTCOMES = ("success_memory", "failure_memory")
FAILURE_KINDS = frozenset({"specific", "type_strategy"})
ENV_CLASSES = frozenset({"entity", "relation", "observation", "task_context"})

DEFAULT_PROMPT_TEMPLATE = "{question}"
DEFAULT_STRATEGY = "direct"


@dataclass
class SkillNode:
    id: int
    name: str
    mastery: float = 0.0
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    strategy: str = DEFAULT_STRATEGY
    principle_ids: list[int] = field(default_factory=list)


@dataclass
class TaskTypeNode:
    id: int
    name: str
    n_fail: int = 0
    k_last: int = -1
    resolver_skill_id: int | None = None
    observed_iter: int = 0


@dataclass
class ExperienceNode:
    id: int
    outcome: str
    task_type_id: int | None = None
    skill_id: int | None = None
    kind: str | None = None
    confidence: float = 1.0
    payload: dict[str, Any] = field(default_factory=dict)
    created_iter: int = 0


@dataclass
class EnvNode:
    id: int
    node_class: str
    payload: dict[str, Any] = field(default_factory=dict)


# receives each committed event as its log line: the record's canonical JSON,
# without the newline
EventSink = Callable[[str], None]


class KnowledgeGraph:
    def __init__(
        self,
        event_sink: EventSink | None = None,
        principles_per_skill_cap: int = 12,
        skill_growth_cap: int = 30,
        snapshot_history_limit: int = 64,
    ):
        self._sink = event_sink
        self.principles_per_skill_cap = principles_per_skill_cap
        self.skill_growth_cap = skill_growth_cap
        self.snapshot_history_limit = snapshot_history_limit

        self._next_id = 1
        self._seq = 0
        self._frozen = False
        self.current_iter = -1

        self.skills: dict[int, SkillNode] = {}
        self.task_types: dict[int, TaskTypeNode] = {}
        self.experience: dict[int, ExperienceNode] = {}
        # derived, not serialised: protected experience nodes per outcome
        self._protected = {outcome: 0 for outcome in sorted(PROTECTED_OUTCOMES)}
        # derived, not serialised: retrieval_recipe ids per skill, oldest first
        self._recipe_ids: dict[int, list[int]] = {}
        self.env_nodes: dict[int, EnvNode] = {}
        # prerequisite edge (a, b): a must be mastered before b
        self._prereq_edges: set[tuple[int, int]] = set()
        self.bandits: dict[str, BanditSlot] = {}
        self._snapshots: dict[int, dict[str, Any]] = {}
        # derived, not serialised: canonical JSON of each immutable record
        self._experience_json = _FragmentCache(_experience_record)
        self._env_json = _FragmentCache(_env_record)
        self._snapshot_json = _FragmentCache(lambda rec: rec)
        # derived, not serialised: each payload object ``share_payload`` has
        # handed out, with its canonical JSON, by the object's id (the entry
        # keeps the object alive, so no other object takes that id)
        self._shared_json: dict[int, tuple[Any, str]] = {}

    # ------------------------------------------------------------------
    # event plumbing

    def set_event_sink(self, sink: EventSink | None) -> None:
        self._sink = sink

    @property
    def last_seq(self) -> int:
        return self._seq

    def freeze(self) -> None:
        self._frozen = True

    def unfreeze(self) -> None:
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _commit(self, op: str, payload: dict[str, Any]) -> None:
        if self._frozen:
            raise FrozenGraphError(f"graph is frozen, refused op {op!r}")
        self._seq += 1
        self._apply(op, payload)
        if self._sink is None:
            return
        it = self.current_iter
        if type(it) is not int:
            line = _ENCODE({"seq": self._seq, "iter": it, "op": op, "payload": payload})
        elif op == "append_experience":
            # the payload is the node's record, so its encoding is the node's
            # canonical fragment as well as the middle of its log line, whose
            # sorted keys put it between "op" and "seq"
            body = _experience_body(payload, self._shared_json) or _ENCODE(payload)
            self._experience_json.put(payload["id"], body.encode())
            line = '{"iter":%d,"op":"append_experience","payload":%s,"seq":%d}' % (it, body, self._seq)
        elif op == "bandit_update":
            line = _bandit_update_line(payload, it, self._seq)
        else:
            line = _ENCODE({"seq": self._seq, "iter": it, "op": op, "payload": payload})
        self._sink(line)

    def _claim_id(self, node_id: int) -> None:
        # ids come from the payload so replay reproduces them exactly
        if node_id >= self._next_id:
            self._next_id = node_id + 1

    def allocate_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    # ------------------------------------------------------------------
    # capability subgraph

    def add_skill(
        self,
        name: str,
        mastery: float = 0.0,
        prompt_template: str = DEFAULT_PROMPT_TEMPLATE,
        strategy: str = DEFAULT_STRATEGY,
    ) -> int:
        if not name:
            raise ValidationError("skill name must be non-empty")
        _check_unit_interval("mastery", mastery)
        if len(self.skills) >= self.skill_growth_cap:
            raise CapError(
                f"skill cap reached ({self.skill_growth_cap}), refused {name!r}"
            )
        nid = self.allocate_id()
        self._commit(
            "add_skill",
            {
                "id": nid,
                "name": name,
                "mastery": mastery,
                "prompt_template": prompt_template,
                "strategy": strategy,
            },
        )
        return nid

    def set_mastery(self, skill_id: int, value: float) -> None:
        self.skill(skill_id)
        _check_unit_interval("mastery", value)
        self._commit("set_mastery", {"skill_id": skill_id, "value": value})

    def set_prompt_template(self, skill_id: int, template: str) -> None:
        self.skill(skill_id)
        if "{question}" not in template:
            raise ValidationError("prompt template must contain {question}")
        self._commit("set_prompt_template", {"skill_id": skill_id, "value": template})

    def set_strategy(self, skill_id: int, strategy: str) -> None:
        self.skill(skill_id)
        self._commit("set_strategy", {"skill_id": skill_id, "value": strategy})

    def add_principle_ref(self, skill_id: int, principle_id: int) -> None:
        """Reference a principle from a skill; oldest ref is dropped at the cap."""
        self.skill(skill_id)
        node = self.experience.get(principle_id)
        if node is None or node.outcome != "principle":
            raise ValidationError(f"node {principle_id} is not a principle")
        self._commit(
            "add_principle_ref", {"skill_id": skill_id, "principle_id": principle_id}
        )

    def add_prerequisite(self, prereq_skill_id: int, skill_id: int) -> None:
        self.skill(prereq_skill_id)
        self.skill(skill_id)
        if prereq_skill_id == skill_id:
            raise CycleError("skill cannot be its own prerequisite")
        if (prereq_skill_id, skill_id) in self._prereq_edges:
            return
        if self._reaches(skill_id, prereq_skill_id):
            raise CycleError(
                f"edge {prereq_skill_id}->{skill_id} would close a prerequisite cycle"
            )
        self._commit(
            "add_prerequisite", {"from_id": prereq_skill_id, "to_id": skill_id}
        )

    def _reaches(self, start: int, target: int) -> bool:
        stack = [start]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == target:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(b for (a, b) in self._prereq_edges if a == cur)
        return False

    def prereq_edges(self) -> set[tuple[int, int]]:
        return set(self._prereq_edges)

    # ------------------------------------------------------------------
    # task subgraph

    def add_task_type(self, name: str) -> int:
        if not name:
            raise ValidationError("task type name must be non-empty")
        nid = self.allocate_id()
        self._commit(
            "add_task_type",
            {"id": nid, "name": name, "observed_iter": max(self.current_iter, 0)},
        )
        return nid

    def set_resolver(self, task_type_id: int, skill_id: int) -> None:
        self.task_type(task_type_id)
        self.skill(skill_id)
        self._commit(
            "set_resolver", {"task_type_id": task_type_id, "skill_id": skill_id}
        )

    def record_task_failure(self, task_type_id: int) -> None:
        self.task_type(task_type_id)
        self._commit("task_failure", {"task_type_id": task_type_id})

    def mark_selected(self, task_type_id: int, k: int) -> None:
        tt = self.task_type(task_type_id)
        if k < tt.k_last:
            raise ValidationError(
                f"selection iteration {k} precedes k_last={tt.k_last}"
            )
        self._commit("mark_selected", {"task_type_id": task_type_id, "k": k})

    # ------------------------------------------------------------------
    # experience subgraph

    def append_experience(
        self,
        outcome: str,
        payload: dict[str, Any],
        task_type_id: int | None = None,
        skill_id: int | None = None,
        kind: str | None = None,
        confidence: float = 1.0,
    ) -> int:
        if outcome not in EXPERIENCE_OUTCOMES:
            raise ValidationError(f"unknown outcome class {outcome!r}")
        if outcome == "failure_memory":
            if kind not in FAILURE_KINDS:
                raise ValidationError(
                    f"failure_memory requires kind in {sorted(FAILURE_KINDS)}"
                )
        elif kind is not None:
            raise ValidationError(f"kind is only valid for failure_memory, got {outcome!r}")
        _check_unit_interval("confidence", confidence)
        _check_experience_payload(outcome, payload)
        if task_type_id is not None:
            self.task_type(task_type_id)
        if skill_id is not None:
            self.skill(skill_id)
        nid = self.allocate_id()
        self._commit(
            "append_experience",
            {
                "id": nid,
                "outcome": outcome,
                "task_type_id": task_type_id,
                "skill_id": skill_id,
                "kind": kind,
                "confidence": confidence,
                # a payload share_payload handed out is held already, frozen
                "payload": payload if id(payload) in self._shared_json else _json_copy(payload),
                "created_iter": self.current_iter,
            },
        )
        return nid

    def share_payload(self, node_id: int) -> dict[str, Any]:
        """Experience node ``node_id``'s payload, for a caller whose new
        record repeats it, type for type, to append in its place.

        Appended, it is not copied: the new node holds the same frozen
        object, and the record's line and fragment are filled in around the
        payload's encoding, made on its first share and kept while the graph
        lives. The log records the object appended, so the log and the state
        agree whatever the caller compared; an entry is kept per object
        shared, so a graph that appends one payload again and again keeps one.
        """
        payload = self.experience_node(node_id).payload
        if id(payload) not in self._shared_json:
            self._shared_json[id(payload)] = (payload, _ENCODE(payload))
        return payload

    def prune_low_confidence(self, threshold: float) -> list[int]:
        """Drop abstracted_pattern nodes below the confidence threshold.

        Protected nodes and retrieval recipes are never eligible, whatever
        their confidence.
        """
        _check_unit_interval("threshold", threshold)
        removed = sorted(
            nid
            for nid, node in self.experience.items()
            if node.outcome == "abstracted_pattern" and node.confidence < threshold
        )
        self._commit("prune", {"threshold": threshold, "removed_ids": removed})
        return removed

    def recipe_ids(self, skill_id: int) -> list[int]:
        """Ids of the skill's retrieval_recipe nodes, oldest first."""
        return list(self._recipe_ids.get(skill_id, ()))

    def protected_counts(self) -> dict[str, int]:
        return dict(self._protected)

    # ------------------------------------------------------------------
    # environment subgraph

    def add_env_node(self, node_class: str, payload: dict[str, Any]) -> int:
        if node_class not in ENV_CLASSES:
            raise ValidationError(f"unknown env node class {node_class!r}")
        nid = self.allocate_id()
        self._commit(
            "add_env_node",
            {"id": nid, "node_class": node_class, "payload": _json_copy(payload)},
        )
        return nid

    # ------------------------------------------------------------------
    # bandit slots

    def bandit_init(
        self, context_id: str, arm_ids: Iterable[str], warmup_pulls: int, rng_seed: int
    ) -> None:
        arms = list(arm_ids)
        new_slot(context_id, arms, warmup_pulls, rng_seed)  # validates; _apply builds it
        if context_id in self.bandits:
            raise ValidationError(f"bandit context {context_id!r} already exists")
        self._commit(
            "bandit_init",
            {
                "context_id": context_id,
                "arm_ids": arms,
                "warmup_pulls": warmup_pulls,
                "rng_seed": rng_seed,
            },
        )

    def _require_arm(self, context_id: str, arm_id: str) -> None:
        slot = self.bandits.get(context_id)
        if slot is None:
            raise NotFoundError(f"bandit context {context_id!r} not found")
        if arm_id not in slot.arm_ids:
            raise ValidationError(f"unknown arm {arm_id!r}")

    def bandit_record_draw(self, context_id: str, arm_id: str) -> None:
        self._require_arm(context_id, arm_id)
        self._commit("bandit_draw", {"context_id": context_id, "arm_id": arm_id})

    def bandit_update(self, context_id: str, arm_id: str, reward: int) -> None:
        self._require_arm(context_id, arm_id)
        check_reward(reward)
        self._commit(
            "bandit_update",
            {"context_id": context_id, "arm_id": arm_id, "reward": reward},
        )

    # ------------------------------------------------------------------
    # snapshots

    def snapshot(self) -> int:
        sid = self.allocate_id()
        self._commit("snapshot", {"snapshot_id": sid})
        return sid

    def rollback_mutable(self, snapshot_id: int) -> None:
        if snapshot_id not in self._snapshots:
            raise NotFoundError(f"snapshot {snapshot_id} not found")
        self._commit("rollback", {"snapshot_id": snapshot_id})

    def snapshot_ids(self) -> list[int]:
        return sorted(self._snapshots)

    def _capture_mutable_state(self) -> dict[str, Any]:
        return {
            "skills": {
                str(sid): {
                    "mastery": s.mastery,
                    "prompt_template": s.prompt_template,
                    "strategy": s.strategy,
                }
                for sid, s in self.skills.items()
            },
            "task_types": {
                str(tid): {"n_fail": t.n_fail, "k_last": t.k_last}
                for tid, t in self.task_types.items()
            },
            "bandits": {cid: slot.to_dict() for cid, slot in self.bandits.items()},
        }

    # ------------------------------------------------------------------
    # apply: the only place state changes

    def _apply(self, op: str, payload: dict[str, Any]) -> None:
        try:
            apply = _APPLY[op]
        except (KeyError, TypeError):
            # TypeError: an op that is not hashable, such as a list
            raise IntegrityError(f"unknown op {op!r}") from None
        apply(self, payload)

    # one handler per op, ``_on_<op>``: ``_APPLY`` finds it by the op's name

    def _on_add_skill(self, payload: dict[str, Any]) -> None:
        self._claim_id(payload["id"])
        self.skills[payload["id"]] = SkillNode(
            id=payload["id"],
            name=payload["name"],
            mastery=payload["mastery"],
            prompt_template=payload["prompt_template"],
            strategy=payload["strategy"],
        )

    def _on_set_mastery(self, payload: dict[str, Any]) -> None:
        self.skills[payload["skill_id"]].mastery = payload["value"]

    def _on_set_prompt_template(self, payload: dict[str, Any]) -> None:
        self.skills[payload["skill_id"]].prompt_template = payload["value"]

    def _on_set_strategy(self, payload: dict[str, Any]) -> None:
        self.skills[payload["skill_id"]].strategy = payload["value"]

    def _on_add_principle_ref(self, payload: dict[str, Any]) -> None:
        skill = self.skills[payload["skill_id"]]
        if payload["principle_id"] in skill.principle_ids:
            return
        skill.principle_ids.append(payload["principle_id"])
        while len(skill.principle_ids) > self.principles_per_skill_cap:
            skill.principle_ids.pop(0)

    def _on_add_prerequisite(self, payload: dict[str, Any]) -> None:
        self._prereq_edges.add((payload["from_id"], payload["to_id"]))

    def _on_add_task_type(self, payload: dict[str, Any]) -> None:
        self._claim_id(payload["id"])
        self.task_types[payload["id"]] = TaskTypeNode(
            id=payload["id"],
            name=payload["name"],
            observed_iter=payload.get("observed_iter", 0),
        )

    def _on_set_resolver(self, payload: dict[str, Any]) -> None:
        self.task_types[payload["task_type_id"]].resolver_skill_id = payload["skill_id"]

    def _on_task_failure(self, payload: dict[str, Any]) -> None:
        self.task_types[payload["task_type_id"]].n_fail += 1

    def _on_mark_selected(self, payload: dict[str, Any]) -> None:
        self.task_types[payload["task_type_id"]].k_last = payload["k"]

    def _on_append_experience(self, payload: dict[str, Any]) -> None:
        nid = payload["id"]
        self._claim_id(nid)
        # positional, in field order
        node = ExperienceNode(
            nid,
            payload["outcome"],
            payload["task_type_id"],
            payload["skill_id"],
            payload["kind"],
            payload["confidence"],
            payload["payload"],
            payload["created_iter"],
        )
        _check_experience_payload(node.outcome, node.payload)
        replaced = self.experience.get(nid)
        if replaced is not None:
            self._count_protected(replaced.outcome, -1)
            # a fragment is cached only for a record the graph holds
            self._experience_json.discard(nid)
        self.experience[nid] = node
        self._count_protected(node.outcome, 1)
        if node.outcome == "retrieval_recipe" and node.skill_id is not None:
            self._recipe_ids.setdefault(node.skill_id, []).append(nid)

    def _on_prune(self, payload: dict[str, Any]) -> None:
        # removed ids applied verbatim: the writer already validated them,
        # and replay applies whatever ids a record names, recipes included
        for nid in payload["removed_ids"]:
            node = self.experience.pop(nid, None)
            self._experience_json.discard(nid)
            if node is None:
                continue
            self._count_protected(node.outcome, -1)
            if nid in self._recipe_ids.get(node.skill_id, ()):
                self._recipe_ids[node.skill_id].remove(nid)

    def _on_add_env_node(self, payload: dict[str, Any]) -> None:
        self._claim_id(payload["id"])
        self.env_nodes[payload["id"]] = EnvNode(
            id=payload["id"],
            node_class=payload["node_class"],
            payload=payload["payload"],
        )
        self._env_json.discard(payload["id"])

    def _on_bandit_init(self, payload: dict[str, Any]) -> None:
        self.bandits[payload["context_id"]] = new_slot(
            payload["context_id"],
            payload["arm_ids"],
            payload["warmup_pulls"],
            payload["rng_seed"],
        )

    def _on_bandit_draw(self, payload: dict[str, Any]) -> None:
        self.bandits[payload["context_id"]].draws += 1

    def _on_bandit_update(self, payload: dict[str, Any]) -> None:
        update_arm(self.bandits[payload["context_id"]], payload["arm_id"], payload["reward"])

    def _on_snapshot(self, payload: dict[str, Any]) -> None:
        sid = payload["snapshot_id"]
        self._claim_id(sid)
        self._snapshots[sid] = {
            "snapshot_id": sid,
            "iter": self.current_iter,
            "mutable_state": self._capture_mutable_state(),
            "protected_watermark": dict(self._protected),
        }
        self._snapshot_json.discard(sid)
        while len(self._snapshots) > self.snapshot_history_limit:
            oldest = min(self._snapshots)
            del self._snapshots[oldest]
            self._snapshot_json.discard(oldest)

    def _on_rollback(self, payload: dict[str, Any]) -> None:
        state = self._snapshots[payload["snapshot_id"]]["mutable_state"]
        for sid_str, slots in state["skills"].items():
            skill = self.skills.get(int(sid_str))
            if skill is not None:
                skill.mastery = slots["mastery"]
                skill.prompt_template = slots["prompt_template"]
                skill.strategy = slots["strategy"]
        for tid_str, slots in state["task_types"].items():
            tt = self.task_types.get(int(tid_str))
            if tt is not None:
                tt.n_fail = slots["n_fail"]
                tt.k_last = slots["k_last"]
        for cid, slot_data in state["bandits"].items():
            if cid in self.bandits:
                self.bandits[cid] = BanditSlot.from_dict(slot_data)

    def _count_protected(self, outcome: str, step: int) -> None:
        if outcome in self._protected:
            self._protected[outcome] += step

    # ------------------------------------------------------------------
    # lookups

    def skill(self, skill_id: int) -> SkillNode:
        node = self.skills.get(skill_id)
        if node is None:
            raise NotFoundError(f"skill {skill_id} not found")
        return node

    def task_type(self, task_type_id: int) -> TaskTypeNode:
        node = self.task_types.get(task_type_id)
        if node is None:
            raise NotFoundError(f"task type {task_type_id} not found")
        return node

    def experience_node(self, node_id: int) -> ExperienceNode:
        node = self.experience.get(node_id)
        if node is None:
            raise NotFoundError(f"experience node {node_id} not found")
        return node

    def skill_by_name(self, name: str) -> SkillNode:
        for node in self.skills.values():
            if node.name == name:
                return node
        raise NotFoundError(f"skill named {name!r} not found")

    def task_type_by_name(self, name: str) -> TaskTypeNode:
        for node in self.task_types.values():
            if node.name == name:
                return node
        raise NotFoundError(f"task type named {name!r} not found")

    # ------------------------------------------------------------------
    # serialization

    def state_dict(self) -> dict[str, Any]:
        """The canonical state as fresh plain data."""
        return json.loads(self.canonical_bytes())

    def canonical_bytes(self) -> bytes:
        """The whole state as JSON with sorted keys and no whitespace.

        The sections go into one list of pieces in their sorted key order:
        each small mutable section encoded whole, and each record section as
        its cached fragments between their separators. One join then
        allocates the state once.
        """
        bandits, last_seq, next_id, edges, skills, task_types = self._small_sections()
        pieces = [b'{"bandits":', bandits, b',"env_nodes":{']
        self._env_json.extend(pieces, self.env_nodes)
        pieces.append(b'},"experience":{')
        self._experience_json.extend(pieces, self.experience)
        pieces += (
            b'},"last_seq":',
            last_seq,
            b',"next_id":',
            next_id,
            b',"prereq_edges":',
            edges,
            b',"skills":',
            skills,
            b',"snapshots":{',
        )
        self._snapshot_json.extend(pieces, self._snapshots)
        pieces += (b'},"task_types":', task_types, b"}")
        return b"".join(pieces)

    def _small_sections(self) -> tuple[bytes, ...]:
        """What ``canonical_bytes`` encodes afresh on every call, in key
        order: the bandits, ``last_seq``, ``next_id``, the prerequisite
        edges, the skills and the task types."""
        return (
            _dumps({cid: slot.to_dict() for cid, slot in self.bandits.items()}),
            _dumps(self._seq),
            _dumps(self._next_id),
            _dumps(sorted([list(e) for e in self._prereq_edges])),
            _dumps(
                {
                    str(s.id): {
                        "id": s.id,
                        "name": s.name,
                        "mastery": s.mastery,
                        "prompt_template": s.prompt_template,
                        "strategy": s.strategy,
                        "principle_ids": s.principle_ids,
                    }
                    for s in self.skills.values()
                }
            ),
            _dumps(
                {
                    str(t.id): {
                        "id": t.id,
                        "name": t.name,
                        "n_fail": t.n_fail,
                        "k_last": t.k_last,
                        "resolver_skill_id": t.resolver_skill_id,
                        "observed_iter": t.observed_iter,
                    }
                    for t in self.task_types.values()
                }
            ),
        )

    def state_mark(self) -> tuple[Any, ...]:
        """What a repeated ``canonical_bytes`` call reads anew: the small
        sections, encoded, and the id sets of the experience, env-node and
        snapshot sections, whose members it takes from cached fragments.

        Two equal marks of one graph mean ``canonical_bytes`` returns the
        same bytes at both times, short of a record replaced or edited in
        place under its id without a commit, which its cached fragment hides
        from ``canonical_bytes`` too. A mark costs the small sections'
        encode and three id sets, not the state's.
        """
        return (
            self._small_sections(),
            set(self.experience),
            set(self.env_nodes),
            set(self._snapshots),
        )

    def graph_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # ------------------------------------------------------------------
    # replay

    @classmethod
    def replay(
        cls,
        records: Iterable[dict[str, Any]],
        principles_per_skill_cap: int = 12,
        skill_growth_cap: int = 30,
        snapshot_history_limit: int = 64,
        on_iteration: Callable[["KnowledgeGraph", int | None], None] | None = None,
    ) -> "KnowledgeGraph":
        """Rebuild a graph from an event log.

        Records must arrive in strictly increasing seq order starting at 1,
        and their iter never goes backwards. The apply step runs verbatim
        (no write-side validation) so the rebuilt state matches the writer's
        state bit-exactly. It refuses only what would break the state it
        builds: a bandit record that ``bandits.new_slot`` or ``update_arm``
        refuses, and an ``append_experience`` whose payload is not an object
        or is a success or failure memory whose ``question`` is present and
        not a str (the exemplar index embeds that text). Each refusal, and
        each record that lacks a key its apply reads, fails as "replay failed
        at seq N (op)". ``on_iteration(graph, it)`` sees
        the graph each time the log moves on to a later iteration ``it``,
        before that iteration's first record, and once more with ``it=None``
        at the end.
        """
        graph = cls(
            event_sink=None,
            principles_per_skill_cap=principles_per_skill_cap,
            skill_growth_cap=skill_growth_cap,
            snapshot_history_limit=snapshot_history_limit,
        )
        expected_seq = 1
        for record in records:
            try:
                seq, it, op, payload = (
                    record["seq"],
                    record["iter"],
                    record["op"],
                    record["payload"],
                )
                backwards = it < graph.current_iter
            except (KeyError, TypeError) as exc:
                raise IntegrityError(f"malformed event record at seq {expected_seq}") from exc
            if seq != expected_seq:
                raise IntegrityError(f"event seq gap: expected {expected_seq}, got {seq}")
            if backwards:
                raise IntegrityError(
                    f"event iter goes backwards at seq {seq}: {it} after {graph.current_iter}"
                )
            if on_iteration is not None and it > graph.current_iter:
                on_iteration(graph, it)
            graph.current_iter = it
            try:
                graph._apply(op, payload)
            except IntegrityError:
                raise
            except Exception as exc:
                raise IntegrityError(f"replay failed at seq {seq} ({op})") from exc
            graph._seq = seq
            expected_seq += 1
        if on_iteration is not None:
            on_iteration(graph, None)
        return graph


# the apply handler of each op
_APPLY: dict[str, Callable[[KnowledgeGraph, dict[str, Any]], None]] = {
    name.removeprefix("_on_"): handler
    for name, handler in vars(KnowledgeGraph).items()
    if name.startswith("_on_")
}


def _check_experience_payload(outcome: str, payload: Any) -> None:
    """Refuse an experience payload that is not an object, and an exemplar's
    whose ``question`` is present and not a str: the exemplar index embeds
    that text."""
    if not isinstance(payload, dict):
        raise ValidationError(
            f"experience payload must be an object, got {type(payload).__name__}"
        )
    if outcome in EXEMPLAR_OUTCOMES and not isinstance(payload.get("question", ""), str):
        raise ValidationError(
            f"{outcome} question must be a str, got {type(payload['question']).__name__}"
        )


def _json_copy(value: Any) -> Any:
    """A copy of ``value`` as JSON holds it: dicts and lists are copied,
    tuples become lists, and every other value is shared."""
    if isinstance(value, dict):
        return {
            key: item if type(item) in _SHARED else _json_copy(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SHARED else _json_copy(item) for item in value]
    return value


# the leaf types of a payload, shared without a call per leaf
_SHARED = frozenset({str, int, float, bool, type(None)})


# one encoder for every log line and canonical fragment; json.dumps would
# build a fresh one per call
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dumps(value: Any) -> bytes:
    return _ENCODE(value).encode()


# json.dumps writes a str through this function (ensure_ascii is on)
_STR = json.encoder.encode_basestring_ascii


def _bandit_update_line(payload: dict[str, Any], it: int, seq: int) -> str:
    """The log line of a ``bandit_update`` record (UPDATE writes one per
    answered question), filled into a fixed template: byte for byte what
    ``_ENCODE`` writes for the record, whose sorted keys fix the order
    (every context and arm id is a str, since ``bandits.new_slot`` refuses
    any other, and the reward is the int 0 or 1, since ``bandit_update``
    refuses any other)."""
    return (
        '{"iter":%d,"op":"bandit_update","payload":{"arm_id":%s,"context_id":%s,"reward":%d},"seq":%d}'
        % (it, _STR(payload["arm_id"]), _STR(payload["context_id"]), payload["reward"], seq)
    )


# an append_experience record, keys sorted, as _experience_body fills it
_EXPERIENCE_BODY = (
    '{"confidence":%r,"created_iter":%d,"id":%d,"kind":%s,"outcome":%s,'
    '"payload":%s,"skill_id":%s,"task_type_id":%s}'
)


def _experience_body(record: dict[str, Any], shared: dict[int, tuple[Any, str]]) -> str | None:
    """The canonical JSON of an ``append_experience`` record whose payload
    ``share_payload`` handed out, filled into a fixed template around the
    payload's kept encoding: byte for byte what ``_ENCODE`` writes for the
    record, whose sorted keys fix the order (``%r`` of a float is its repr,
    and ``%d`` or ``%s`` of an int its digits). None for any other record,
    or for one the template would not write as the encoder does: a
    confidence that is not a float, or an id, kind or referent id of
    another type than the writer's (``True`` passes the writer's task type
    lookup, as ``True == 1``; a replayed log can make the next id a float).
    The caller has checked that ``created_iter`` is an int."""
    held = shared.get(id(record["payload"]))
    if held is None:
        return None
    kind, skill_id, task_type_id = record["kind"], record["skill_id"], record["task_type_id"]
    if (
        type(record["confidence"]) is not float
        or type(record["id"]) is not int
        or not (kind is None or type(kind) is str)
        or not (skill_id is None or type(skill_id) is int)
        or not (task_type_id is None or type(task_type_id) is int)
    ):
        return None
    return _EXPERIENCE_BODY % (
        record["confidence"],
        record["created_iter"],
        record["id"],
        "null" if kind is None else _STR(kind),
        _STR(record["outcome"]),
        held[1],
        "null" if skill_id is None else skill_id,
        "null" if task_type_id is None else task_type_id,
    )


def _member(record_id: int, body: bytes) -> bytes:
    """``"<id>":<body>``, a member of a section as json.dumps writes it."""
    return _dumps(str(record_id)) + b":" + body


def _experience_record(e: ExperienceNode) -> dict[str, Any]:
    return {
        "id": e.id,
        "outcome": e.outcome,
        "task_type_id": e.task_type_id,
        "skill_id": e.skill_id,
        "kind": e.kind,
        "confidence": e.confidence,
        "payload": e.payload,
        "created_iter": e.created_iter,
    }


def _env_record(n: EnvNode) -> dict[str, Any]:
    return {"id": n.id, "node_class": n.node_class, "payload": n.payload}


class _FragmentCache:
    """Canonical JSON members of one section of immutable records, by id.

    A fragment is ``"<id>":{...}`` exactly as ``json.dumps(sort_keys=True)``
    writes that member inside its section. It is encoded on first use and
    must be discarded whenever the record under its id leaves or is
    replaced. The fragments are the only copy of the section kept: no
    joined section is cached, so each ``canonical_bytes`` call sorts the ids
    again and its one join copies the fragments into the state.
    """

    def __init__(self, to_plain: Callable[[Any], Any]):
        self._to_plain = to_plain
        self._fragments: dict[int, bytes] = {}

    def discard(self, record_id: int) -> None:
        self._fragments.pop(record_id, None)

    def put(self, record_id: int, body: bytes) -> None:
        """Cache the canonical JSON ``body`` of the record now under the int
        ``record_id``, as ``_member`` would join it."""
        self._fragments[record_id] = b'"%d":%s' % (record_id, body)

    def extend(self, pieces: list[bytes], records: dict[int, Any]) -> None:
        """Append the members of the section holding ``records`` to
        ``pieces``, comma-separated, without the enclosing braces."""
        fragments = self._fragments
        # sort_keys orders the members by their string keys
        for rid in sorted(records, key=str):
            fragment = fragments.get(rid)
            if fragment is None:
                fragment = fragments[rid] = _member(rid, _dumps(self._to_plain(records[rid])))
            pieces += (fragment, b",")
        if records:
            pieces.pop()


def _check_unit_interval(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
