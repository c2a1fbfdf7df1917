"""Walk the knowledge graph through its whole lifecycle.

Builds a small graph by hand: a few skills with prerequisites, two task
types, then experience nodes of every class. Shows which nodes are
protected (append-only: no writer removes one, and even a prune at the
highest threshold leaves them in place), prunes a low-confidence pattern,
takes a snapshot, damages the mutable state, rolls back, and finally
replays the event log into a second graph and compares canonical bytes.
"""

import json

from evoloop import KnowledgeGraph


def main():
    # the graph hands its sink each event as a JSON line, as events.log holds it
    lines = []
    graph = KnowledgeGraph(event_sink=lines.append)

    # capability subgraph: arithmetic feeds algebra, algebra feeds word problems
    arith = graph.add_skill("arithmetic", mastery=0.9)
    algebra = graph.add_skill("algebra", mastery=0.4)
    words = graph.add_skill("word_problems")
    graph.add_prerequisite(arith, algebra)
    graph.add_prerequisite(algebra, words)

    # task subgraph
    tt_sum = graph.add_task_type("sum_chain")
    tt_story = graph.add_task_type("story_math")
    graph.set_resolver(tt_sum, arith)
    graph.set_resolver(tt_story, words)

    # experience subgraph: one node of each class
    principle = graph.append_experience(
        "principle",
        {"text": "carry digits before summing the next column"},
        skill_id=arith,
    )
    graph.add_principle_ref(arith, principle)
    failure = graph.append_experience(
        "failure_memory",
        {"question": "17 + 25?", "wrong_answer": "32",
         "corrective_reasoning": "7 + 5 = 12, write 2 carry 1",
         "correct_answer": "42"},
        task_type_id=tt_sum,
        kind="specific",
    )
    success = graph.append_experience(
        "success_memory",
        {"question": "8 + 9?", "reasoning_trace": "8 + 9 = 17", "answer": "17"},
        task_type_id=tt_sum,
    )
    shaky = graph.append_experience(
        "abstracted_pattern", {"note": "answers ending in 0 are suspicious"}, confidence=0.2
    )
    solid = graph.append_experience(
        "abstracted_pattern", {"note": "restate the question before answering"}, confidence=0.9
    )

    print("protected counts:", graph.protected_counts())

    # pruning only ever touches unprotected low-confidence patterns
    removed = graph.prune_low_confidence(0.5)
    print(f"pruned {removed} (shaky pattern was {shaky}), "
          f"solid pattern {solid} still present: {solid in graph.experience}")

    # no writer deletes a protected node: even the highest threshold prunes
    # only the patterns below it
    removed = graph.prune_low_confidence(1.0)
    kept = all(nid in graph.experience for nid in (principle, failure, success))
    print(f"prune at 1.0 removed {removed} (solid pattern was {solid}), "
          f"every protected node still present: {kept}")
    print("protected counts:", graph.protected_counts())

    # snapshot, wreck the mutable slots, roll back
    snap = graph.snapshot()
    graph.set_mastery(algebra, 0.05)
    graph.set_strategy(algebra, "guess")
    late_failure = graph.append_experience(
        "failure_memory",
        {"question": "3x = 12?", "wrong_answer": "3",
         "corrective_reasoning": "divide both sides by 3",
         "correct_answer": "4"},
        task_type_id=tt_story,
        kind="type_strategy",
    )
    graph.rollback_mutable(snap)
    algebra_node = graph.skills[algebra]
    print(f"after rollback: mastery {algebra_node.mastery}, strategy {algebra_node.strategy!r}")
    print(f"failure appended mid-window survives rollback: {late_failure in graph.experience}")

    # the event log is the source of truth: replay rebuilds the same bytes
    twin = KnowledgeGraph.replay(json.loads(line) for line in lines)
    print("replay matches original:", twin.canonical_bytes() == graph.canonical_bytes())


if __name__ == "__main__":
    main()
