"""Synthetic environments for desk-scale runs.

``StaticQAEnv`` is a question-answering world: six task types resolved by
eight skills whose prerequisite DAG is a diamond feeding a chain. Question
pools are generated once from the seed and then fixed, so the evolution
pool is the same 200 questions every iteration and the held-out pool never
leaks into training. A pool is generated on its first use, and a lookup
by id builds only the pool of the id it is asked. Two of the six types
carry long narrative contexts to exercise the long-context retrieval split.

``SequentialChainEnv`` is a five-achievement progression world. An episode
is a bounded action sequence; each achievement unlocks when its action is
taken after its predecessor is already unlocked. Achievements double as
task types, and as the questions of its evolution pool ("achieve <name>",
answered "unlocked"), so the curriculum, memory, and bandit plumbing run
unchanged. Its one fixed world has no held-out pool.

Each env is the one owner of its questions: ``question(qid)``, the lookup
the simulated learner answers through, returns the pool's own ``Question``
and raises ``KeyError`` for an id no pool of the env holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import stable_hash64
from .errors import ValidationError


@dataclass(frozen=True)
class Question:
    qid: str
    task_type: str
    text: str
    context: str
    answer: str
    decomposition: tuple[tuple[str, str], ...] = ()


def _fill(seed: int, qid: str, lo: int, hi: int, tag: str) -> int:
    return lo + stable_hash64(seed, qid, tag) % (hi - lo + 1)


_LONG_FILLER = (
    "Inventory report for the northern depot. The morning shift logged every "
    "incoming pallet against the manifest and flagged two clerical mismatches "
    "that were later reconciled by the floor supervisor. Forklift three was "
    "out of service between nine and eleven, so aisle staging ran behind "
    "schedule and the afternoon recount covered both receiving bays. Lighting "
    "in bay two was dimmed for maintenance, which slowed label scanning but "
    "did not affect the tally sheets. All figures below were double-checked "
    "against the ledger before filing. "
)


class StaticQAEnv:
    """Fixed-pool QA world with deterministic integer-answer questions."""

    name = "static_qa"
    mode = "static"

    SKILLS: list[tuple[str, tuple[str, ...]]] = [
        ("parse_values", ()),
        ("linear_solve", ("parse_values",)),
        ("ratio_chain", ("parse_values",)),
        ("combine_totals", ("linear_solve", "ratio_chain")),
        ("multi_step", ("combine_totals",)),
        ("verify_answer", ("multi_step",)),
        ("units_convert", ("parse_values",)),
        ("compare_quantities", ("parse_values", "units_convert")),
    ]

    TASK_TYPES: list[str] = [
        "value_extraction",
        "linear_equation",
        "ratio_scaling",
        "combined_total",
        "multi_step_chain",
        "quantity_compare",
    ]

    RESOLVER: dict[str, str] = {
        "value_extraction": "parse_values",
        "linear_equation": "linear_solve",
        "ratio_scaling": "ratio_chain",
        "combined_total": "combine_totals",
        "multi_step_chain": "multi_step",
        "quantity_compare": "compare_quantities",
    }

    LONG_CONTEXT_TYPES = frozenset({"combined_total", "multi_step_chain"})

    # the split each pool's questions are drawn from, by pool name
    SPLITS = {"evolution": "train", "held_out": "heldout"}
    # the pool of each id prefix ``_make_question`` gives a split's questions
    _ID_PREFIXES = tuple((f"q-{split}-", name) for name, split in SPLITS.items())

    def __init__(self, seed: int, pool_size: int = 200):
        if pool_size < 1:
            raise ValidationError("pool_size must be >= 1")
        self.seed = seed
        self.pool_size = pool_size
        self._pools: dict[str, list[Question]] = {}
        # by pool name, each built pool's questions by id
        self._by_id: dict[str, dict[str, Question]] = {}

    def pool(self, name: str) -> list[Question]:
        """The pool called ``name``, "evolution" or "held_out", generated on
        its first use."""
        split = self.SPLITS.get(name)
        if split is None:
            raise ValidationError(f"env {self.name!r} has no pool {name!r}; its pools: evolution, held_out")
        if name not in self._pools:
            questions = [self._make_question(split, i) for i in range(self.pool_size)]
            self._pools[name] = questions
            self._by_id[name] = {q.qid: q for q in questions}
        return self._pools[name]

    def question(self, qid: str) -> Question:
        """The question ``qid`` names, ``q-<split>-<index>``, from the pool of
        that split, which is built on its first use and no other is.

        Any other id, such as one that is not a str, an unpadded index or one
        past the pool, raises ``KeyError``.
        """
        if isinstance(qid, str):
            for prefix, name in self._ID_PREFIXES:
                if qid.startswith(prefix):
                    self.pool(name)
                    return self._by_id[name][qid]
        raise KeyError(qid)

    def _make_question(self, split: str, i: int) -> Question:
        task_type = self.TASK_TYPES[i % len(self.TASK_TYPES)]
        qid = f"q-{split}-{i:04d}"
        builder = getattr(self, "_build_" + task_type)
        return builder(qid, task_type)

    def _build_value_extraction(self, qid: str, tt: str) -> Question:
        a = _fill(self.seed, qid, 3, 12, "a")
        b = _fill(self.seed, qid, 4, 9, "b")
        text = (
            f"A crate holds {a} boxes and every box holds {b} parts. "
            f"How many parts are in the crate?"
        )
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context="",
            answer=str(a * b),
            decomposition=(
                ("parse_values", f"boxes={a}, parts per box={b}"),
                ("parse_values", f"total = {a} * {b} = {a * b}"),
            ),
        )

    def _build_linear_equation(self, qid: str, tt: str) -> Question:
        x = _fill(self.seed, qid, 2, 11, "x")
        a = _fill(self.seed, qid, 2, 7, "a")
        b = _fill(self.seed, qid, 1, 19, "b")
        c = a * x + b
        text = f"Solve for x: {a}x + {b} = {c}."
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context="",
            answer=str(x),
            decomposition=(
                ("parse_values", f"a={a}, b={b}, c={c}"),
                ("linear_solve", f"x = ({c} - {b}) / {a} = {x}"),
            ),
        )

    def _build_ratio_scaling(self, qid: str, tt: str) -> Question:
        a = _fill(self.seed, qid, 2, 9, "a")
        m = _fill(self.seed, qid, 2, 8, "m")
        c = _fill(self.seed, qid, 3, 14, "c")
        b = a * m
        text = f"{a} tokens cost {b} coins. How many coins do {c} tokens cost?"
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context="",
            answer=str(m * c),
            decomposition=(
                ("parse_values", f"rate = {b} / {a} = {m} coins per token"),
                ("ratio_chain", f"cost = {m} * {c} = {m * c}"),
            ),
        )

    def _build_combined_total(self, qid: str, tt: str) -> Question:
        x = _fill(self.seed, qid, 10, 60, "x")
        y = _fill(self.seed, qid, 10, 60, "y")
        context = (
            _LONG_FILLER
            + f"Bay one recorded {x} sealed units. Bay two recorded {y} sealed units."
        )
        text = "Using the report, how many sealed units did both bays record together?"
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context=context,
            answer=str(x + y),
            decomposition=(
                ("parse_values", f"bay one = {x}, bay two = {y}"),
                ("combine_totals", f"total = {x} + {y} = {x + y}"),
            ),
        )

    def _build_multi_step_chain(self, qid: str, tt: str) -> Question:
        x = _fill(self.seed, qid, 5, 30, "x")
        y = _fill(self.seed, qid, 5, 30, "y")
        f = _fill(self.seed, qid, 2, 5, "f")
        context = (
            _LONG_FILLER
            + f"Rack A holds {x} cartons and rack B holds {y} cartons. Next "
            f"quarter the combined stock is planned to grow to {f} times its "
            f"current size."
        )
        text = "Per the report, how many cartons are planned for next quarter?"
        total = (x + y) * f
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context=context,
            answer=str(total),
            decomposition=(
                ("combine_totals", f"current = {x} + {y} = {x + y}"),
                ("multi_step", f"planned = {x + y} * {f} = {total}"),
            ),
        )

    def _build_quantity_compare(self, qid: str, tt: str) -> Question:
        a = _fill(self.seed, qid, 3, 12, "a")
        c = _fill(self.seed, qid, 10, 80, "c")
        d = _fill(self.seed, qid, 10, 80, "d")
        text = (
            f"Which quantity is larger: {a} dozens ({a} * 12) or the sum "
            f"{c} + {d}? Answer with the larger value."
        )
        bigger = max(a * 12, c + d)
        return Question(
            qid=qid,
            task_type=tt,
            text=text,
            context="",
            answer=str(bigger),
            decomposition=(
                ("units_convert", f"{a} dozens = {a * 12}"),
                ("compare_quantities", f"max({a * 12}, {c + d}) = {bigger}"),
            ),
        )


@dataclass
class EpisodeState:
    step: int = 0
    unlocked: list[str] = field(default_factory=list)
    actions_taken: list[str] = field(default_factory=list)

    @property
    def state_id(self) -> str:
        return f"s{self.step}-u{len(self.unlocked)}"


class SequentialChainEnv:
    """Five-achievement progression; achievements unlock strictly in order."""

    name = "sequential"
    mode = "sequential"

    ACHIEVEMENTS = [
        "gather_wood",
        "craft_plank",
        "build_bench",
        "forge_tool",
        "complete_quest",
    ]
    EXTRA_ACTIONS = ["wait", "scout"]
    EPISODE_STEPS = 12

    SKILLS: list[tuple[str, tuple[str, ...]]] = [
        ("gather_wood", ()),
        ("craft_plank", ("gather_wood",)),
        ("build_bench", ("craft_plank",)),
        ("forge_tool", ("build_bench",)),
        ("complete_quest", ("forge_tool",)),
    ]

    TASK_TYPES = list(ACHIEVEMENTS)
    RESOLVER = {name: name for name in ACHIEVEMENTS}
    LONG_CONTEXT_TYPES: frozenset[str] = frozenset()

    def __init__(self, seed: int, pool_size: int = 200):
        self.seed = seed
        self.pool_size = pool_size

    def pool(self, name: str) -> list[Question]:
        """The pool called ``name``, only "evolution": one question per
        achievement, in unlock order."""
        if name != "evolution":
            raise ValidationError(f"env {self.name!r} has no pool {name!r}; its pools: evolution")
        return [
            Question(qid=f"ach-{ach}", task_type=ach, text=f"achieve {ach}", context="", answer="unlocked")
            for ach in self.ACHIEVEMENTS
        ]

    def actions(self) -> list[str]:
        return list(self.ACHIEVEMENTS) + list(self.EXTRA_ACTIONS)

    def reset(self) -> EpisodeState:
        return EpisodeState()

    def intended_action(self, state: EpisodeState) -> str | None:
        nxt = len(state.unlocked)
        if nxt >= len(self.ACHIEVEMENTS):
            return None
        return self.ACHIEVEMENTS[nxt]

    def step(self, state: EpisodeState, action: str) -> str | None:
        """Apply one action; returns the achievement unlocked, if any."""
        if action not in self.actions():
            raise ValidationError(f"unknown action {action!r}")
        state.step += 1
        state.actions_taken.append(action)
        unlocked = None
        if action == self.intended_action(state):
            state.unlocked.append(action)
            unlocked = action
        return unlocked

    def question(self, qid: str) -> Question:
        """The question of the achievement ``qid`` names, ``ach-<name>``; any
        other id raises ``KeyError``."""
        for q in self.pool("evolution"):
            if q.qid == qid:
                return q
        raise KeyError(qid)


ENVS = {
    StaticQAEnv.name: StaticQAEnv,
    SequentialChainEnv.name: SequentialChainEnv,
}


def make_env(name: str, seed: int, pool_size: int = 200):
    cls = ENVS.get(name)
    if cls is None:
        raise ValidationError(f"unknown env {name!r}, expected one of {sorted(ENVS)}")
    return cls(seed=seed, pool_size=pool_size)
