"""Let a Thompson bandit find the best strategy arm.

Three arms with hidden success rates, held in a knowledge graph slot and
driven the way the engine drives one: pick an arm, log the draw a Thompson
pick consumes, log the reward. The bandit owes every arm a fixed number of
warmup pulls before it starts sampling from the posterior, so no arm can
be written off on one unlucky draw. After warmup the picks concentrate on
the best arm while the others still get occasional exploration. The draws
are keyed on the slot's logged draw counter, not on global random state,
so replaying the event log rebuilds the same slot and the same next pick.
"""

import json
from collections import Counter

import numpy as np

from evoloop import KnowledgeGraph, posterior_mean, select_arm

TRUE_RATES = {"direct": 0.55, "decompose": 0.82, "verify_twice": 0.35}
CONTEXT = "strategy/demo"


def main():
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)
    graph.bandit_init(CONTEXT, sorted(TRUE_RATES), warmup_pulls=10, rng_seed=3)
    world = np.random.default_rng(3)

    picks = []
    for _ in range(1500):
        arm, thompson = select_arm(graph.bandits[CONTEXT])
        if thompson:
            graph.bandit_record_draw(CONTEXT, arm)
        reward = 1 if world.random() < TRUE_RATES[arm] else 0
        graph.bandit_update(CONTEXT, arm, reward)
        picks.append(arm)

    slot = graph.bandits[CONTEXT]
    warmup = Counter(picks[:30])
    rest = Counter(picks[30:])
    print("warmup pulls per arm:", dict(sorted(warmup.items())))
    for arm in sorted(TRUE_RATES):
        share = rest[arm] / len(picks[30:])
        mean = posterior_mean(slot, arm)
        print(f"  {arm:13s} true {TRUE_RATES[arm]:.2f}  "
              f"posterior {mean:.3f}  picked {share:.1%} after warmup")
    print(f"{len(lines)} events logged, {slot.draws} Thompson draws")

    # the log is the source of truth: replay rebuilds the identical slot,
    # so the next decision is the same too
    twin = KnowledgeGraph.replay(json.loads(line) for line in lines).bandits[CONTEXT]
    same = twin.to_dict() == slot.to_dict() and select_arm(twin) == select_arm(slot)
    print("decisions reproducible from the log:", same)


if __name__ == "__main__":
    main()
