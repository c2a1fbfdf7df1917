"""Beta-Bernoulli Thompson sampling over a fixed arm set.

Arms hold success/failure counts under a Beta(1, 1) prior. Until every arm
has ``warmup_pulls`` recorded pulls, selection is deterministic: the least
pulled arm wins, ties broken by arm id, which walks the id-sorted arm list
round-robin when rewards arrive between selections. After warm-up each
selection draws one sample per arm from a generator derived from
``(rng_seed, draws)``; the draw counter advances by one per Thompson
selection, so a given state always reproduces the same selection sequence.

``BanditSlot`` is the state: only ``new_slot`` builds one and only
``update_arm`` changes its counts, the graph's apply step included. There
is no standalone bandit: a slot lives in a ``KnowledgeGraph``, which the
engine snapshots and rolls back, and is driven the way the engine drives
it: ``graph.bandit_init``, ``select_arm`` on ``graph.bandits[context]``, a
logged ``graph.bandit_record_draw`` after each Thompson pick (the only
thing that advances the draw counter), and ``graph.bandit_update``.
Context and arm ids are strings, so a slot always encodes and sorts.
Only a Thompson draw imports ``numpy``; warm-up picks and updates do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import NotFoundError, ValidationError


@dataclass
class BanditSlot:
    """Serialized Thompson bandit state, stored as a graph mutable slot."""

    context_id: str
    arm_ids: list[str]
    successes: dict[str, int]
    failures: dict[str, int]
    warmup_pulls: int
    rng_seed: int
    draws: int = 0

    def pulls(self, arm_id: str) -> int:
        return self.successes[arm_id] + self.failures[arm_id]

    def to_dict(self) -> dict[str, Any]:
        return {
            "context_id": self.context_id,
            "arm_ids": list(self.arm_ids),
            "successes": dict(self.successes),
            "failures": dict(self.failures),
            "warmup_pulls": self.warmup_pulls,
            "rng_seed": self.rng_seed,
            "draws": self.draws,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BanditSlot":
        return cls(
            context_id=data["context_id"],
            arm_ids=list(data["arm_ids"]),
            successes=dict(data["successes"]),
            failures=dict(data["failures"]),
            warmup_pulls=data["warmup_pulls"],
            rng_seed=data["rng_seed"],
            draws=data["draws"],
        )


def new_slot(
    context_id: str,
    arm_ids: list[str],
    warmup_pulls: int = 20,
    rng_seed: int = 0,
) -> BanditSlot:
    if not isinstance(context_id, str):
        raise ValidationError(f"bandit context id must be a str, got {context_id!r}")
    if not arm_ids:
        raise ValidationError("bandit needs at least one arm")
    for arm_id in arm_ids:
        if not isinstance(arm_id, str):
            raise ValidationError(f"arm id must be a str, got {arm_id!r}")
    if len(set(arm_ids)) != len(arm_ids):
        raise ValidationError("duplicate arm ids")
    if warmup_pulls < 0:
        raise ValidationError("warmup_pulls must be >= 0")
    return BanditSlot(
        context_id=context_id,
        arm_ids=list(arm_ids),
        successes={a: 0 for a in arm_ids},
        failures={a: 0 for a in arm_ids},
        warmup_pulls=warmup_pulls,
        rng_seed=rng_seed,
    )


def select_arm(slot: BanditSlot) -> tuple[str, bool]:
    """Return (arm_id, thompson) without touching the slot.

    ``thompson`` is False for warm-up picks, which consume no randomness.
    After a Thompson pick the caller must advance ``slot.draws`` (the engine
    does this through a logged graph op) before selecting again, or it will
    see the same sample.
    """
    if not slot.arm_ids:
        raise ValidationError("bandit has no arms")
    cold = [a for a in sorted(slot.arm_ids) if slot.pulls(a) < slot.warmup_pulls]
    if cold:
        return min(cold, key=lambda a: (slot.pulls(a), a)), False
    import numpy as np

    rng = np.random.default_rng([slot.rng_seed & 0xFFFFFFFF, slot.draws])
    ordered = sorted(slot.arm_ids)
    samples = [
        rng.beta(1 + slot.successes[a], 1 + slot.failures[a]) for a in ordered
    ]
    best = min(range(len(ordered)), key=lambda i: (-samples[i], ordered[i]))
    return ordered[best], True


def check_reward(reward: int) -> None:
    """Refuse any reward but the int 0 or 1 (``True`` equals 1 in Python,
    but the log would record it as ``true``)."""
    if type(reward) is not int or reward not in (0, 1):
        raise ValidationError(f"reward must be the int 0 or 1, got {reward!r}")


def update_arm(slot: BanditSlot, arm_id: str, reward: int) -> None:
    if arm_id not in slot.arm_ids:
        raise NotFoundError(f"unknown arm {arm_id!r}")
    check_reward(reward)
    if reward == 1:
        slot.successes[arm_id] += 1
    else:
        slot.failures[arm_id] += 1


def posterior_mean(slot: BanditSlot, arm_id: str) -> float:
    if arm_id not in slot.arm_ids:
        raise NotFoundError(f"unknown arm {arm_id!r}")
    s, f = slot.successes[arm_id], slot.failures[arm_id]
    return (1 + s) / (2 + s + f)


def exploit_arm(slot: BanditSlot) -> str:
    """Deterministic frozen-mode pick: highest posterior mean, ties by id."""
    return min(sorted(slot.arm_ids), key=lambda a: (-posterior_mean(slot, a), a))

