"""Dual exemplar memory: embedding stores, bundles, and cascade context.

Success memories and failure memories live in separate stores, and each
store keeps one block per task type id: a node is filed under
``(node.outcome, node.task_type_id)``, and the block holds the graph's own
``ExperienceNode``, no copy. The experience subgraph is append-only, so a
block fills with exemplars that repeat a vector; it keeps one row per
distinct L2-normalized vector, in the order the vectors first arrive,
keyed by the vector's bytes, and for each row the nodes that share it in
node id order, plus separately those of them whose kind is not
``type_strategy``. A node is filed after every node of its group, so a
group only grows at its end; a node older than its group's last one is
refused. Retrieval scores the query against its task type's distinct rows
with an exact per-row dot product (no approximate index), so the scan
costs one row per distinct vector however many copies are stored, and it
fills a success block and a failure block from the best ``k`` nodes of
each store. A block keeps its rows stacked in one matrix, restacked only
when a row is added. The rows are few (a static_qa 14x200 run, seed 42,
files 2,765 exemplars under 163 rows in 12 blocks).
The slot split depends on how much context the question already carries:
short contexts get two success slots and one failure slot, long contexts
(at or past ``long_context_threshold`` characters) flip to one success
and two failures. Underfilled slots are backfilled from the other store.
Failure memories of kind ``type_strategy`` are admitted only at or above a
similarity floor, because a generic strategy pasted onto a dissimilar
question misleads more than it helps.

The top ``k`` of a store is taken at group level: walking the distinct
rows best first, a row below the floor offers only its non-strategy
nodes, the k-th best similarity is where the nodes offered reach ``k``,
and every row at or above it offers its first ``k`` nodes. Those
candidates are ordered on (-similarity, node id), so ties, across rows
too, break on node id ascending and retrieval is deterministic; the list
is the one a ranking of every stored node gives. The walk takes the rows
in one stable numpy sort by descending similarity.

Every vector the index stores or queries with goes through
``MemoryIndex._unit``, which checks its dimension and normalises it.
``rebuild_index`` gives the blocks that filing the graph's exemplars one
by one in node id order through ``index_memory`` gives, but files them a
group at a time: the nodes of one block that share a vector go in
together, and each distinct question text is embedded once. The index is
derived state: a run's embedder is fixed, so the blocks are a function of
the graph, and only ``rebuild_index`` (after replay, or to swap the
embedder) builds them again.

A bundle keeps what its retrieval read (``MemoryBundle.reads``): its two
blocks, their row counts, and the node lists the walk read while they
held fewer than ``k``. Blocks only grow, and groups only at their end, so
``MemoryIndex.is_current`` tells from those alone whether retrieving the
same query again would give an equal bundle, and a caller may keep a
bundle across graph writes until one changes what it read.
``format_bundle`` renders a bundle's exemplar blocks once and keeps them
on it.

A success memory whose payload, all strs, repeats one harvested before is
appended with that node's payload object: the graph neither copies nor
encodes it again (``KnowledgeGraph.share_payload``), and the index files
the node under the vector it already holds for the text, without
embedding it again.

``format_bundle`` renders the byte-stable prompt contract:

    [SUCCESS i]   blocks with Q: / Reasoning: / A: lines
    [CORRECTION j] blocks with conditions: / correction: lines
    [SKILL LATTICE] optional block
    [QUESTION]    Context: line when present, Note: guidance lines
                  when present, then the Q: line

Blocks are joined by one blank line. An empty bundle with no lattice and no
guidance degrades to the bare [QUESTION] block.

The cascade helpers assemble graph-derived context: principle closures in
prerequisite-first topological order, trailing-action recipes, a rendered
skill lattice, and the curriculum override that redirects an already
mastered skill to the weakest frontier skill.

Only the functions that compute with vectors import ``numpy``, so a
process that builds no index and retrieves nothing never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .curriculum import learnable_frontier
from .errors import NotFoundError, ValidationError
from .graph import EXEMPLAR_OUTCOMES, ExperienceNode, KnowledgeGraph

if TYPE_CHECKING:
    import numpy as np

LATTICE_DEPTH_CAP = 8


@dataclass
class SuccessPayload:
    question: str
    reasoning_trace: str
    answer: str
    decomposition: list[tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "question": self.question,
            "reasoning_trace": self.reasoning_trace,
            "answer": self.answer,
            "decomposition": [list(step) for step in self.decomposition],
        }


@dataclass
class FailurePayload:
    question: str
    wrong_answer: str
    corrective_reasoning: str
    correct_answer: str
    kind: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "question": self.question,
            "wrong_answer": self.wrong_answer,
            "corrective_reasoning": self.corrective_reasoning,
            "correct_answer": self.correct_answer,
            "kind": self.kind,
        }


@dataclass
class BundleEntry:
    node_id: int
    similarity: float
    outcome: str
    kind: str | None
    task_type_id: int | None
    skill_id: int | None
    payload: dict[str, Any]
    task_type_name: str = ""
    skill_name: str = ""


@dataclass
class MemoryBundle:
    """The exemplars a prompt carries. Two derived slots stay out of its
    equality: ``reads``, what the retrieval that made it read of the index
    (``MemoryIndex.is_current``), and ``exemplars``, its rendered exemplar
    blocks, which ``format_bundle`` fills on first use and reuses after,
    so a bundle is not edited once rendered."""

    success: list[BundleEntry] = field(default_factory=list)
    failure: list[BundleEntry] = field(default_factory=list)
    allocation: tuple[int, int] = (0, 0)
    reads: tuple | None = field(default=None, compare=False, repr=False)
    exemplars: str | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.success) + len(self.failure)


def allocation_for(context_length: int, k: int, long_context_threshold: int = 500) -> tuple[int, int]:
    """Pre-backfill slot targets (n_success, n_failure); at k=3 this is
    (2, 1) for short contexts and (1, 2) for long ones."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if context_length < 0:
        raise ValidationError(f"context_length must be >= 0, got {context_length}")
    if context_length < long_context_threshold:
        n_success = math.ceil(2 * k / 3)
    else:
        n_success = k // 3
    return n_success, k - n_success


def normalize(vector: np.ndarray) -> np.ndarray:
    import numpy as np

    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"vector must be 1-d, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("vector must have finite nonzero norm")
    return arr / norm


def _rank(pair: tuple[float, ExperienceNode]) -> tuple[float, int]:
    """Sort key of a (similarity, node) candidate: most similar first, then
    node id."""
    return -pair[0], pair[1].id


class _Block:
    """The exemplar nodes filed under one ``(node.outcome, node.task_type_id)``,
    with one scored row per distinct vector.

    It holds the graph's own nodes, which never change once applied (no
    prune removes an exemplar). ``rows[g]`` is a distinct normalised vector,
    found by its bytes in ``_group_of``. ``members[g]`` lists the nodes with
    that vector in node id order, and ``plain[g]`` the ones among them whose
    kind is not ``type_strategy``. ``add`` only appends to a group, so a
    group's first ``k`` nodes change only while it holds fewer than ``k``,
    with its length.

    ``_stacked`` holds the rows as one matrix and stands while the row
    count does.
    """

    __slots__ = ("rows", "members", "plain", "_group_of", "_stacked")

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.members: list[list[ExperienceNode]] = []
        self.plain: list[list[ExperienceNode]] = []
        self._group_of: dict[bytes, int] = {}
        self._stacked: np.ndarray | None = None

    def add(self, unit: np.ndarray, nodes: list[ExperienceNode]) -> None:
        """Append ``nodes``, in node id order, to the group of their
        normalised vector ``unit``; an unseen vector opens a new group and
        adds its row. A node older than the group's last one is refused."""
        key = unit.tobytes()
        g = self._group_of.get(key)
        if g is None:
            g = self._group_of[key] = len(self.rows)
            self.rows.append(unit)
            self.members.append([])
            self.plain.append([])
        members, plain = self.members[g], self.plain[g]
        if members and members[-1].id > nodes[0].id:
            raise ValidationError(
                f"node {nodes[0].id} is older than node {members[-1].id} of its group"
            )
        members += nodes
        for node in nodes:
            if node.kind != "type_strategy":
                plain.append(node)

    @property
    def vectors(self) -> np.ndarray:
        stacked = self._stacked
        if stacked is None or len(stacked) != len(self.rows):
            import numpy as np

            stacked = self._stacked = np.stack(self.rows)
            stacked.flags.writeable = False
        return stacked

    def scores(self, query: np.ndarray) -> tuple[list[int], list[float]]:
        """The rows best first by similarity to the normalised ``query``
        (ties in row order), and their similarities in that order."""
        import numpy as np

        # vecdot runs the per-row kernel of ``vector @ query``, so a row's
        # similarity does not depend on the rows scanned with it; a BLAS
        # matvec (``M @ query``) rounds by row position
        sims = np.vecdot(self.vectors, query)
        order = np.argsort(-sims, kind="stable")
        return order.tolist(), sims[order].tolist()


class MemoryIndex:
    """Exact-scan dual store over the graph's protected exemplar nodes."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        dimension: int,
        type_strategy_min_similarity: float = 0.55,
    ):
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.graph = graph
        self.dimension = dimension
        self.type_strategy_min_similarity = type_strategy_min_similarity
        self._blocks: dict[tuple[str, int | None], _Block] = {}
        self._indexed: set[int] = set()
        # the first node ``harvest_success`` appended with each payload of
        # strs, by (question, trace, answer, decomposition steps), with the
        # question's normalised vector
        self._repeats: dict[tuple, tuple[ExperienceNode, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._indexed)

    def _unit(self, vector: np.ndarray) -> np.ndarray:
        """``normalize(vector)``, read-only, for a vector of the index's
        dimension."""
        import numpy as np

        arr = np.asarray(vector, dtype=np.float64)
        if arr.shape != (self.dimension,):
            raise ValidationError(
                f"vector dimension {arr.shape} does not match index dimension {self.dimension}"
            )
        unit = normalize(arr)
        unit.flags.writeable = False
        return unit

    def index_memory(self, node_id: int, vector: np.ndarray) -> None:
        """File one protected exemplar under ``(node.outcome,
        node.task_type_id)``.

        Only success and failure memories are exemplar-retrievable;
        principles reach prompts through skill references, patterns and
        recipes through the cascade helpers. Nodes are filed in node id
        order: one older than the last node already filed with its vector
        in its block is refused.
        """
        node = self.graph.experience_node(node_id)
        if node.outcome not in EXEMPLAR_OUTCOMES:
            raise ValidationError(
                f"outcome {node.outcome!r} is not exemplar-retrievable"
            )
        unit = self._unit(vector)
        if node_id in self._indexed:
            raise ValidationError(f"node {node_id} is already indexed")
        self._file((node.outcome, node.task_type_id), unit, [node])

    def _file(
        self, key: tuple[str, int | None], unit: np.ndarray, nodes: list[ExperienceNode]
    ) -> None:
        """File ``nodes``, in node id order, under the block ``key`` and the
        normalised vector ``unit`` they share."""
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = _Block()
        block.add(unit, nodes)
        for node in nodes:
            self._indexed.add(node.id)

    def _candidates(
        self,
        outcome: str,
        query: np.ndarray,
        task_type_id: int | None,
        k: int,
        reads: list | None = None,
    ) -> list[tuple[float, ExperienceNode]]:
        """The ``k`` best eligible exemplar nodes of one store for a query,
        with their similarities, best first.

        Eligible are the nodes of the query's task type, a ``type_strategy``
        node only at or above the similarity floor. Ties on similarity break
        on node id ascending. ``reads``, when given, gets what the walk read
        that a write could change (see ``is_current``).
        """
        key = (outcome, task_type_id)
        block = self._blocks.get(key)
        if block is None:
            if reads is not None:
                reads.append((key, None, 0, ()))
            return []
        order, ranked = block.scores(query)
        floor = self.type_strategy_min_similarity
        # ranked by similarity, a group past the k-th best node has nothing
        # to add, and one at or above it adds at most its first k nodes
        picked: list[tuple[float, ExperienceNode]] = []
        # the node lists read that hold fewer than k, with their lengths
        short = []
        seen = 0
        kth = None
        # best row first, ties in row order
        for g, sim in zip(order, ranked):
            if kth is not None and sim < kth:
                break
            rows = block.plain[g] if sim < floor else block.members[g]
            n = len(rows)
            if n < k:
                short.append((rows, n))
                if not n:
                    continue
            picked.extend([(sim, node) for node in rows[:k]])
            seen += n
            if kth is None and seen >= k:
                kth = sim
        if reads is not None:
            reads.append((key, block, len(block.rows), tuple(short)))
        picked.sort(key=_rank)
        return picked[:k]

    def is_current(self, bundle: MemoryBundle) -> bool:
        """Whether retrieving ``bundle``'s query again, with the same ``k``
        and context length, would give an equal bundle.

        A walk of ``_candidates`` can see a write only through its block: a
        new row (which may rank anywhere), or a node list it read growing
        while it held fewer than ``k``. Nodes are only appended to a list
        (``_Block.add``), so a list of ``k`` or more grows past its first
        ``k`` nodes, after the walk's count reached ``k``, and its growth
        changes neither what the walk picks nor where it stops. Every value
        a bundle entry copies is fixed once its node is applied, which
        needs its task type and skill: the payload is frozen at commit, the
        similarity is the query's against the node's row, and no write
        renames a task type or a skill. A bundle that no retrieval made
        (``reads`` None) is never current.
        """
        reads = bundle.reads
        if reads is None:
            return False
        blocks = self._blocks
        for key, block, n_rows, short in reads:
            if blocks.get(key) is not block:
                return False
            if block is not None and len(block.rows) != n_rows:
                return False
            for rows, n in short:
                if len(rows) != n:
                    return False
        return True

    def retrieve_bundle(
        self,
        query_vector: np.ndarray,
        task_type_id: int | None,
        context_length: int,
        k: int = 3,
        long_context_threshold: int = 500,
    ) -> MemoryBundle:
        query = self._unit(query_vector)
        n_success, n_failure = allocation_for(context_length, k, long_context_threshold)
        reads: list = []
        # no store contributes more than k, backfill included
        succ = self._candidates("success_memory", query, task_type_id, k, reads)
        fail = self._candidates("failure_memory", query, task_type_id, k, reads)
        take_s = succ[:n_success]
        take_f = fail[:n_failure]
        # leftover budget backfills from the other store
        spare = k - len(take_s) - len(take_f)
        if spare > 0:
            if len(take_s) < n_success:
                take_f = fail[: n_failure + spare]
            elif len(take_f) < n_failure:
                take_s = succ[: n_success + spare]
        success = [self._bundle_entry(sim, node) for sim, node in take_s]
        failure = [self._bundle_entry(sim, node) for sim, node in take_f]
        return MemoryBundle(
            success=success,
            failure=failure,
            allocation=(n_success, n_failure),
            reads=tuple(reads),
        )

    def _bundle_entry(self, similarity: float, node: ExperienceNode) -> BundleEntry:
        tt = self.graph.task_types.get(node.task_type_id)
        skill = self.graph.skills.get(node.skill_id)
        return BundleEntry(
            node_id=node.id,
            similarity=similarity,
            outcome=node.outcome,
            kind=node.kind,
            task_type_id=node.task_type_id,
            skill_id=node.skill_id,
            payload=node.payload,
            task_type_name=tt.name if tt is not None else "",
            skill_name=skill.name if skill is not None else "",
        )


# ----------------------------------------------------------------------
# harvest

def harvest_success(
    index: MemoryIndex,
    embed: Callable[[str], np.ndarray],
    task_type_id: int,
    skill_id: int | None,
    payload: SuccessPayload,
    trace_char_cap: int = 4000,
) -> int:
    """Append a success memory to ``index.graph``, its reasoning trace cut
    to ``trace_char_cap`` characters, and index it for retrieval.

    A payload of strs that repeats one harvested before is appended as that
    node's payload object, which the graph neither copies nor encodes again
    (``KnowledgeGraph.share_payload``), and filed under that node's vector,
    the embedder being fixed for the index. The repeat is found by the
    payload's content, not by the newest node of the question's group: one
    question text can carry several contexts, and so several answers.
    """
    record = payload.to_dict()
    record["reasoning_trace"] = trace = record["reasoning_trace"][:trace_char_cap]
    steps = tuple(map(tuple, record["decomposition"]))
    key = (record["question"], trace, record["answer"], steps)
    # equal strs are the same JSON; equal values of other types need not
    # be (``1 == 1.0 == True`` encode three ways, a subclass as it likes)
    if not all(type(text) is str for text in (*key[:3], *chain.from_iterable(steps))):
        key = None
    graph = index.graph
    repeat = index._repeats.get(key)
    if repeat is None:
        unit = index._unit(embed(payload.question))
    else:
        held, unit = repeat
        record = graph.share_payload(held.id)
    node_id = graph.append_experience(
        outcome="success_memory",
        payload=record,
        task_type_id=task_type_id,
        skill_id=skill_id,
    )
    node = graph.experience[node_id]
    if key is not None and repeat is None:
        index._repeats[key] = (node, unit)
    index._file(("success_memory", task_type_id), unit, [node])
    return node_id


def harvest_failure(
    index: MemoryIndex,
    embed: Callable[[str], np.ndarray],
    task_type_id: int,
    skill_id: int | None,
    payload: FailurePayload,
) -> int:
    """Append a failure memory to ``index.graph`` and index it for retrieval.

    The question's vector is checked before the append, so a vector the
    index refuses leaves the graph as it was."""
    vector = embed(payload.question)
    index._unit(vector)
    node_id = index.graph.append_experience(
        outcome="failure_memory",
        payload=payload.to_dict(),
        task_type_id=task_type_id,
        skill_id=skill_id,
        kind=payload.kind,
    )
    index.index_memory(node_id, vector)
    return node_id


def rebuild_index(
    graph: KnowledgeGraph,
    dimension: int,
    embed: Callable[[str], np.ndarray],
    type_strategy_min_similarity: float = 0.55,
) -> MemoryIndex:
    """Derive the index from graph contents (used after event-log replay):
    the blocks ``index_memory`` gives for each exemplar in node id order,
    with ``embed`` called once per distinct question text, in the order the
    texts first arrive.

    The exemplars are grouped by block and vector in one pass, and each
    group is filed whole: its row is looked up once, not once per node.
    Groups are filed in the order of their first node, so each row still
    opens at the first node with its vector, and two texts that embed to
    one vector share one group, so no node is filed before an older one.
    """
    index = MemoryIndex(graph, dimension, type_strategy_min_similarity)
    # each text's normalised vector, with its bytes
    unit_of: dict[str, tuple[np.ndarray, bytes]] = {}
    groups: dict[tuple[str, int | None, bytes], tuple[np.ndarray, list[ExperienceNode]]] = {}
    experience = graph.experience
    for node_id in sorted(experience):
        node = experience[node_id]
        if node.outcome not in EXEMPLAR_OUTCOMES:
            continue
        text = node.payload.get("question", "")
        entry = unit_of.get(text)
        if entry is None:
            unit = index._unit(embed(text))
            entry = unit_of[text] = (unit, unit.tobytes())
        key = (node.outcome, node.task_type_id, entry[1])
        group = groups.get(key)
        if group is None:
            group = groups[key] = (entry[0], [])
        group[1].append(node)
    for (outcome, task_type_id, _), (unit, nodes) in groups.items():
        index._file((outcome, task_type_id), unit, nodes)
    return index


# ----------------------------------------------------------------------
# bundle formatting

def format_bundle(
    bundle: MemoryBundle,
    question: str,
    context: str = "",
    lattice: str | None = None,
    guidance: Iterable[str] = (),
) -> str:
    """Render the prompt contract; identical inputs yield identical bytes.

    The bundle's exemplar blocks are rendered on its first call and kept on
    it (``MemoryBundle.exemplars``); each call adds the lattice and the
    question block."""
    exemplars = bundle.exemplars
    if exemplars is None:
        exemplars = bundle.exemplars = _render_exemplars(bundle)
    blocks = [exemplars] if exemplars else []
    if lattice:
        blocks.append(f"[SKILL LATTICE]\n{lattice}")
    question_lines = ["[QUESTION]"]
    if context:
        question_lines.append(f"Context: {context}")
    for note in guidance:
        question_lines.append(f"Note: {note}")
    question_lines.append(f"Q: {question}")
    blocks.append("\n".join(question_lines))
    return "\n\n".join(blocks)


def _render_exemplars(bundle: MemoryBundle) -> str:
    """The [SUCCESS i] and [CORRECTION j] blocks of ``bundle``, joined as
    ``format_bundle`` joins its blocks; empty for an empty bundle."""
    blocks: list[str] = []
    for i, entry in enumerate(bundle.success, start=1):
        p = entry.payload
        blocks.append(
            f"[SUCCESS {i}]\n"
            f"Q: {p.get('question', '')}\n"
            f"Reasoning: {p.get('reasoning_trace', '')}\n"
            f"A: {p.get('answer', '')}"
        )
    for j, entry in enumerate(bundle.failure, start=1):
        p = entry.payload
        conditions = (
            f"q={p.get('question', '')}; "
            f"task_type={entry.task_type_name or entry.task_type_id}; "
            f"skill={entry.skill_name or entry.skill_id}; "
            f"kind={entry.kind}"
        )
        blocks.append(
            f"[CORRECTION {j}]\n"
            f"conditions: {conditions}\n"
            f"correction: {p.get('corrective_reasoning', '')}"
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# cascade context assembly

def _topo_order_into(graph: KnowledgeGraph, skill_id: int) -> list[int]:
    """Transitive prerequisite closure of a skill, prerequisites first.

    Deterministic: Kahn's algorithm popping the smallest ready id.
    """
    if skill_id not in graph.skills:
        raise NotFoundError(f"skill {skill_id} not found")
    edges = graph.prereq_edges()
    closure = {skill_id}
    frontier = [skill_id]
    while frontier:
        cur = frontier.pop()
        for a, b in edges:
            if b == cur and a not in closure:
                closure.add(a)
                frontier.append(a)
    indegree = {sid: 0 for sid in closure}
    for a, b in edges:
        if a in closure and b in closure:
            indegree[b] += 1
    order = []
    ready = sorted(sid for sid, d in indegree.items() if d == 0)
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        changed = False
        for a, b in sorted(edges):
            if a == cur and b in indegree:
                indegree[b] -= 1
                if indegree[b] == 0:
                    ready.append(b)
                    changed = True
        if changed:
            ready.sort()
    return order


def cascade_principles(graph: KnowledgeGraph, skill_id: int) -> list[int]:
    """Principle ids of the skill and all transitive prerequisites.

    Prerequisite skills' principles come first; duplicates are kept once at
    their first position.
    """
    order = _topo_order_into(graph, skill_id)
    seen: set[int] = set()
    out: list[int] = []
    for sid in order:
        for pid in graph.skills[sid].principle_ids:
            if pid not in seen and pid in graph.experience:
                seen.add(pid)
                out.append(pid)
    return out


def record_action_recipe(
    graph: KnowledgeGraph,
    skill_id: int,
    trailing_actions: Sequence[str],
    window: int = 3,
) -> int:
    """Store the last ``window`` actions before a success as a recipe node."""
    if not trailing_actions:
        raise ValidationError("trailing_actions must be non-empty")
    actions = list(trailing_actions)[-window:]
    return graph.append_experience(
        outcome="retrieval_recipe",
        payload={"actions": actions, "window": window},
        skill_id=skill_id,
    )


def latest_action_recipe(graph: KnowledgeGraph, skill_id: int) -> list[str]:
    """Most recent recipe with actions recorded for a skill; empty when none
    exists."""
    for node_id in reversed(graph.recipe_ids(skill_id)):
        actions = graph.experience[node_id].payload.get("actions")
        if actions:
            return list(actions)
    return []


def render_skill_lattice(graph: KnowledgeGraph, task_type_id: int) -> str:
    """Resolver skill plus its prerequisite DAG as an indented listing.

    One line per skill in topological order, prerequisites first, indented
    by dependency depth (capped at LATTICE_DEPTH_CAP levels). Degrades to an
    empty string when the task type has no resolver.
    """
    tt = graph.task_type(task_type_id)
    if tt.resolver_skill_id is None or tt.resolver_skill_id not in graph.skills:
        return ""
    order = _topo_order_into(graph, tt.resolver_skill_id)
    edges = graph.prereq_edges()
    in_closure = set(order)
    depth: dict[int, int] = {}
    for sid in order:
        deps = [a for (a, b) in edges if b == sid and a in in_closure]
        depth[sid] = 0 if not deps else min(max(depth[a] + 1 for a in deps), LATTICE_DEPTH_CAP)
    lines = []
    for sid in order:
        skill = graph.skills[sid]
        lines.append(f"{'  ' * depth[sid]}- {skill.name} (mastery {skill.mastery:.2f})")
    return "\n".join(lines)


def skill_frontier(graph: KnowledgeGraph, threshold: float) -> tuple[dict[int, float], set[int]]:
    """The masteries of the graph's skills and their learnable frontier: the
    skills below ``threshold`` whose prerequisites are all at or above it."""
    masteries = {sid: s.mastery for sid, s in graph.skills.items()}
    prereqs: dict[int, set[int]] = {sid: set() for sid in masteries}
    for a, b in graph.prereq_edges():
        prereqs[b].add(a)
    return masteries, learnable_frontier(masteries, prereqs, threshold)


def curriculum_override(
    graph: KnowledgeGraph, requested_skill_id: int, threshold: float
) -> int:
    """Redirect an already mastered skill to the weakest frontier skill.

    Returns the requested skill when it is still below threshold or when
    the frontier is empty. Ties on mastery break by skill id.
    """
    requested = graph.skill(requested_skill_id)
    if requested.mastery < threshold:
        return requested_skill_id
    masteries, frontier = skill_frontier(graph, threshold)
    if not frontier:
        return requested_skill_id
    return min(frontier, key=lambda sid: (masteries[sid], sid))
