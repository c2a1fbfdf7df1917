"""Retrieve worked examples and corrections for a new question.

Seeds a graph with a handful of success and failure memories about two
task types, indexes them under a deterministic hash embedder, then pulls
exemplar bundles for a fresh question. Short contexts get two successes
and one correction; long contexts flip to one success and two
corrections. The rendered prompt is byte-stable for identical inputs.
"""

from evoloop import (
    FailurePayload,
    HashEmbedder,
    KnowledgeGraph,
    MemoryIndex,
    SuccessPayload,
    format_bundle,
    harvest_failure,
    harvest_success,
)

SUCCESSES = [
    ("what is 12 plus 30", "12 + 30 = 42", "42"),
    ("add 7 and 15 together", "7 + 15 = 22", "22"),
    ("sum of 9 and 9", "9 + 9 = 18", "18"),
]

FAILURES = [
    ("what is 58 plus 17", "65", "8 + 7 = 15, carry the 1 into the tens", "75", "specific"),
    ("what is 29 plus 33", "52", "always carry before moving left", "62", "type_strategy"),
]


def main():
    graph = KnowledgeGraph()
    embedder = HashEmbedder(dimension=64, seed=7)
    index = MemoryIndex(graph, dimension=64)

    tt_add = graph.add_task_type("addition")
    tt_other = graph.add_task_type("sorting")
    skill = graph.add_skill("column_addition", mastery=0.5)

    for question, trace, answer in SUCCESSES:
        harvest_success(
            index, embedder.embed, tt_add, skill,
            SuccessPayload(question=question, reasoning_trace=trace, answer=answer),
        )
    for question, wrong, fix, right, kind in FAILURES:
        harvest_failure(
            index, embedder.embed, tt_add, skill,
            FailurePayload(question=question, wrong_answer=wrong,
                           corrective_reasoning=fix, correct_answer=right, kind=kind),
        )
    # a memory filed under a different task type never leaks into the bundle
    harvest_success(
        index, embedder.embed, tt_other, None,
        SuccessPayload(question="sort 3 1 2", reasoning_trace="1 < 2 < 3", answer="1 2 3"),
    )

    question = "what is 34 plus 48"
    qvec = embedder.embed(question)

    short = index.retrieve_bundle(qvec, tt_add, context_length=80)
    long = index.retrieve_bundle(qvec, tt_add, context_length=2000)
    print(f"short context allocation {short.allocation}: "
          f"{len(short.success)} successes, {len(short.failure)} corrections")
    print(f"long  context allocation {long.allocation}: "
          f"{len(long.success)} successes, {len(long.failure)} corrections")

    prompt = format_bundle(short, question)
    again = format_bundle(index.retrieve_bundle(qvec, tt_add, context_length=80), question)
    print("render is byte-stable:", prompt == again)
    print()
    print(prompt)


if __name__ == "__main__":
    main()
