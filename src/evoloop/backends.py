"""Model backends behind one call interface, plus call accounting.

Every backend exposes ``complete(prompt, meta, temperature) -> str``. The
engine tags each call with the agent making it and the phase it runs in,
and records one tracker call per attempt of each ``complete`` or ``act``
(a backend without ``last_attempts`` makes one), so audits can
separate guidance-tier from execution-tier traffic. Embedder calls are
tracked but excluded from audit fractions.

The simulated backends make the whole engine deterministic without any
model server:

  * execution: answers correctly when a fixed per-question uniform draw
    lands under ``base(q) + 0.15 * min(exemplar_blocks, 3)`` clamped to
    0.98. Both the draw and the base difficulty derive from the backend
    seed and the question id alone, so the learner is a pure function of
    (question, rendered prompt): more exemplars never flip a correct
    answer to wrong, which is what the retrieval-error bound needs. The
    backend hashes the two once per question id and keeps them. It holds
    no copy of the questions: each call looks its question up once through
    the env's ``question(qid)``, so a ``static_qa`` env builds only the
    split whose questions are asked.
  * guidance: template-fills corrections, principles, refined prompts and
    tool notes from structured metadata.
  * judge: exact string match per item.
  * embedder: seeded hash projection of token bags into a fixed dimension.
    A vector is a pure function of (seed, dimension, text), so the embedder
    memoizes it by text and hands out the one read-only array each time;
    ``calls`` still counts every request, memo hits included.

The HTTP backend speaks a minimal chat wire protocol: POST
``{"model", "messages", "temperature", "max_tokens"}`` and read
``{"text": ...}`` back. It retries twice with backoff, raises
``BackendError`` when every attempt failed, and leaves the attempt count of
its last call in ``last_attempts``. The engine records that count in its
tracker, so a call answered on its second attempt counts two, and one that
failed every attempt counts ``attempts``.
It imports ``requests`` only when one is built, so a process that runs the
simulated backends never loads the HTTP stack. In the same way the embedder
imports ``numpy`` only when it computes a vector, so a process that embeds
nothing never loads it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .errors import BackendError, ValidationError

if TYPE_CHECKING:
    import numpy as np
    import requests

    from .envs import Question

GUIDANCE_AGENTS = frozenset({"skill_discovery", "navigator", "critic", "curator"})
EXECUTION_AGENTS = frozenset({"explorer", "learner"})

EMBED_DIMENSION = 64


def stable_hash64(*parts: Any) -> int:
    """Platform-stable 64-bit hash of the stringified parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def unit_draw(*parts: Any) -> float:
    """Deterministic uniform in [0, 1) keyed by the parts."""
    return stable_hash64(*parts) / 2.0**64


class CallTracker:
    """Per-(phase, agent, role) call counter. It takes no lock: one engine
    records its calls from one thread."""

    def __init__(self):
        self._counts: dict[tuple[str, str, str], int] = {}

    def record(self, phase: str, agent: str, role: str, attempts: int = 1) -> None:
        key = (phase, agent, role)
        self._counts[key] = self._counts.get(key, 0) + attempts

    def counts(self) -> dict[tuple[str, str, str], int]:
        return dict(self._counts)

    def since(self, before: Mapping[tuple[str, str, str], int]) -> dict[tuple[str, str, str], int]:
        """Calls recorded after ``before``, a ``counts()`` result: the
        nonzero per-key deltas, in first-recorded key order."""
        deltas = {key: count - before.get(key, 0) for key, count in self.counts().items()}
        return {key: delta for key, delta in deltas.items() if delta}


@dataclass
class BackendSet:
    guidance: "Backend"
    execution: "Backend"
    judge: "Backend"
    embedder: "HashEmbedder"
    tracker: CallTracker = field(default_factory=CallTracker)


class Backend:
    role = "unset"

    def complete(self, prompt: str, meta: Mapping[str, Any] | None = None, temperature: float = 0.0) -> str:
        raise NotImplementedError


class SimulatedExecutionBackend(Backend):
    """Frozen learner simulation; see the module docstring for the law."""

    role = "execution"

    def __init__(self, question: Callable[[str], "Question"], seed: int):
        # the env's lookup, which raises KeyError for an id it does not hold
        self.question = question
        self.seed = seed
        # (base difficulty, roll) by question id; pure functions of (seed, id)
        self._draws: dict[str, tuple[float, float]] = {}

    def exemplar_blocks(self, prompt: str) -> int:
        return prompt.count("[SUCCESS ") + prompt.count("[CORRECTION ")

    def _question_draws(self, question_id: str) -> tuple[float, float]:
        draws = self._draws.get(question_id)
        if draws is None:
            # latent per-question solvability in [0.35, 0.75), and the roll
            # that the success probability is compared with
            base = 0.35 + 0.40 * unit_draw(self.seed, "base", question_id)
            draws = self._draws[question_id] = (base, unit_draw(self.seed, "roll", question_id))
        return draws

    def base_difficulty(self, question_id: str) -> float:
        return self._question_draws(question_id)[0]

    def success_probability(self, question_id: str, prompt: str) -> float:
        """Chance this learner answers correctly given the rendered prompt.

        A prompt that carries the question's own solved exemplar, or a
        correction written for this exact question (it states the right
        answer), is always answered correctly. Otherwise each retrieved
        block adds a fixed boost on top of the question's latent
        difficulty, saturating at three blocks. An id the env does not hold
        has no own exemplar.
        """
        try:
            q = self.question(question_id)
        except KeyError:
            q = None
        return self._probability(question_id, q, prompt)

    def _probability(self, question_id: str, q: "Question | None", prompt: str) -> float:
        """``success_probability`` given ``q``, the question the env holds
        under ``question_id``, or None for an id it does not hold."""
        if q is not None:
            if f"Q: {q.text}\nReasoning:" in prompt:
                return 1.0
            if f"conditions: q={q.text};" in prompt:
                return 1.0
        boost = 0.15 * min(self.exemplar_blocks(prompt), 3)
        return min(max(self.base_difficulty(question_id) + boost, 0.0), 0.98)

    def complete(self, prompt: str, meta: Mapping[str, Any] | None = None, temperature: float = 0.0) -> str:
        if not meta or "question_id" not in meta:
            raise ValidationError("simulated execution backend needs meta['question_id']")
        qid = meta["question_id"]
        try:
            q = self.question(qid)
        except KeyError:
            raise ValidationError(f"unknown question id {qid!r}") from None
        correct = self._question_draws(qid)[1] < self._probability(qid, q, prompt)
        trace_lines = [f"Step {i}: {text}" for i, (_skill, text) in enumerate(q.decomposition, start=1)]
        trace_lines.append(f"Answer: {q.answer if correct else self._wrong_answer(q.answer, qid)}")
        return "\n".join(trace_lines)

    def _wrong_answer(self, gold: str, qid: str) -> str:
        try:
            return str(int(gold) + 1 + stable_hash64(self.seed, "off", qid) % 7)
        except ValueError:
            return f"not-{gold}"

    def act(self, prompt: str, meta: Mapping[str, Any], actions: list[str]) -> str:
        """Pick one action for a sequential episode step.

        Follows the first recipe Note: line naming a legal action when one
        is present; otherwise draws from the legal set, biased toward the
        intended action when the state id is easy for this seed.
        """
        if not actions:
            raise ValidationError("no actions to choose from")
        for line in prompt.splitlines():
            if line.startswith("Note: next-action "):
                hinted = line.removeprefix("Note: next-action ").strip()
                if hinted in actions:
                    return hinted
        state_id = meta.get("state_id", "start")
        intended = meta.get("intended_action")
        roll = unit_draw(self.seed, "act", state_id)
        if intended in actions and roll < 0.45:
            return intended
        pick = stable_hash64(self.seed, "pick", state_id, len(actions)) % len(actions)
        return actions[pick]


class SimulatedGuidanceBackend(Backend):
    """Deterministic template filler for the guidance-tier agents."""

    role = "guidance"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def complete(self, prompt: str, meta: Mapping[str, Any] | None = None, temperature: float = 0.0) -> str:
        meta = meta or {}
        kind = meta.get("kind", "")
        if kind == "correction":
            return (
                f"When solving {meta['task_type']} questions, avoid "
                f"{meta['wrong_answer']!r}; recompute carefully and verify the "
                f"result equals {meta['correct_answer']!r} before answering."
            )
        if kind == "type_strategy":
            return (
                f"[Question pattern: {meta['task_type']}] Restate the given "
                f"quantities first, apply the {meta['skill']} procedure step "
                f"by step, and check the final value against the question."
            )
        if kind == "principle":
            return (
                f"For {meta['task_type']} tasks, decompose via {meta['skill']} "
                f"and confirm each intermediate quantity before combining."
            )
        if kind == "prompt_refinement":
            return (
                "Work {task_type} step by step, naming each intermediate "
                "value, then answer: {question}"
            ).replace("{task_type}", meta["task_type"])
        if kind == "tool":
            return (
                f"lookup-{meta['task_type']}: scan retrieved exemplars for "
                f"matching quantities before computing from scratch."
            )
        if kind == "skill_split":
            return f"{meta['skill']}__{meta['task_type']}"
        if kind == "navigator":
            # reorder-only refinement: weakest mastery first, ids break ties
            frontier = list(meta.get("frontier", []))
            masteries = meta.get("masteries", {})
            return ",".join(
                str(sid) for sid in sorted(frontier, key=lambda s: (masteries.get(s, 0.0), s))
            )
        if kind == "ontology":
            return "ack"
        raise ValidationError(f"unknown guidance request kind {kind!r}")


class SimulatedJudgeBackend(Backend):
    """Exact-match verdicts over a batch of (predicted, gold) items."""

    role = "judge"

    def complete(self, prompt: str, meta: Mapping[str, Any] | None = None, temperature: float = 0.0) -> str:
        if not meta or "items" not in meta:
            raise ValidationError("judge backend needs meta['items']")
        verdicts = [
            "1" if str(pred).strip() == str(gold).strip() else "0"
            for pred, gold in meta["items"]
        ]
        return "".join(verdicts)


class HashEmbedder:
    """Seeded deterministic hash projection; cosine-friendly token bags."""

    role = "embedder"

    def __init__(self, dimension: int = EMBED_DIMENSION, seed: int = 0):
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.dimension = dimension
        self.seed = seed
        self.calls = 0
        self._token_cache: dict[str, np.ndarray] = {}
        self._memo: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is None:
            import numpy as np

            rng = np.random.default_rng(stable_hash64(self.seed, "tok", token) % 2**63)
            cached = rng.standard_normal(self.dimension)
            self._token_cache[token] = cached
        return cached

    def embed(self, text: str) -> np.ndarray:
        self.calls += 1
        cached = self._memo.get(text)
        if cached is not None:
            return cached
        import numpy as np

        tokens = [t for t in text.lower().split() if t] or ["<empty>"]
        acc = np.zeros(self.dimension)
        for tok in tokens:
            acc += self._token_vector(tok)
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            acc[0] = 1.0
            norm = 1.0
        vector = acc / norm
        # shared by every caller of this text, so no caller may write into it
        vector.flags.writeable = False
        self._memo[text] = vector
        return vector


class HttpBackend(Backend):
    """Chat-completion wire client with bounded retries.

    A call that fails on every attempt raises ``BackendError``.
    ``last_attempts`` holds the attempt count of the last ``complete``; the
    engine's tracker counts that many calls, so retries are counted.
    """

    def __init__(
        self,
        url: str,
        model: str,
        role: str,
        token: str | None = None,
        max_tokens: int = 1024,
        attempts: int = 3,
        backoff: float = 0.5,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        self.url = url
        self.model = model
        self.role = role
        self.token = token
        self.max_tokens = max_tokens
        self.attempts = attempts
        self.backoff = backoff
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self.last_attempts = 0

    def complete(self, prompt: str, meta: Mapping[str, Any] | None = None, temperature: float = 0.0) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": self.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        import requests

        self.last_attempts = 0
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            self.last_attempts += 1
            try:
                response = self.session.post(
                    self.url, json=body, headers=headers, timeout=self.timeout
                )
                response.raise_for_status()
                return response.json()["text"]
            except (requests.RequestException, KeyError, ValueError) as exc:
                last_error = exc
                if attempt < self.attempts - 1:
                    time.sleep(self.backoff * 2**attempt)
        raise BackendError(f"backend call failed after {self.attempts} attempts: {last_error}")


def simulated_backend_set(question: Callable[[str], "Question"], seed: int) -> BackendSet:
    return BackendSet(
        guidance=SimulatedGuidanceBackend(seed=seed),
        execution=SimulatedExecutionBackend(question, seed=seed),
        judge=SimulatedJudgeBackend(),
        embedder=HashEmbedder(dimension=EMBED_DIMENSION, seed=seed),
    )
