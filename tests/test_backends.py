"""Simulated backends, call accounting, and the HTTP wire client."""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
import requests

import evoloop
from evoloop import (
    BackendError,
    CallTracker,
    EngineConfig,
    HashEmbedder,
    HttpBackend,
    Question,
    SimulatedExecutionBackend,
    SimulatedGuidanceBackend,
    SimulatedJudgeBackend,
    ValidationError,
    make_env,
    simulated_backend_set,
    stable_hash64,
    unit_draw,
)
from evoloop.runner import build_simulated_engine

KEY = {
    "q1": Question("q1", "t", "what is 2+2", "", "4", (("add", "sum"),)),
    "q2": Question("q2", "t", "double 3", "", "6"),
}
# the learner looks each question up as it does in an env: unknown ids raise KeyError
LOOKUP = KEY.__getitem__


# ----------------------------------------------------------------------
# hashing primitives


def test_stable_hash_is_stable_and_order_sensitive():
    assert stable_hash64("a", 1) == stable_hash64("a", 1)
    assert stable_hash64("a", 1) != stable_hash64(1, "a")
    assert 0 <= stable_hash64("anything") < 2**64


def test_unit_draw_range_and_determinism():
    draws = [unit_draw("seed", i) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert draws == [unit_draw("seed", i) for i in range(200)]
    assert len(set(draws)) == 200


# ----------------------------------------------------------------------
# simulated learner


def test_learner_is_deterministic():
    a = SimulatedExecutionBackend(LOOKUP, seed=42)
    b = SimulatedExecutionBackend(LOOKUP, seed=42)
    prompt = "[QUESTION]\nQ: what is 2+2"
    assert a.complete(prompt, meta={"question_id": "q1"}) == b.complete(
        prompt, meta={"question_id": "q1"}
    )


def test_learner_requires_known_question():
    backend = SimulatedExecutionBackend(LOOKUP, seed=42)
    with pytest.raises(ValidationError):
        backend.complete("p", meta={})
    with pytest.raises(ValidationError):
        backend.complete("p", meta={"question_id": "nope"})


def test_learner_that_kept_its_draws_answers_as_a_fresh_one():
    env = evoloop.make_env("static_qa", seed=3, pool_size=20)
    questions = {q.qid: q for q in env.pool("evolution") + env.pool("held_out")}
    qids = sorted(questions)
    other = "[SUCCESS 1]\nQ: other\nReasoning: r\nA: 1\n\n"
    prompts = {
        qid: [f"[QUESTION]\nQ: {questions[qid].text}"]
        + [other * n + f"[QUESTION]\nQ: {questions[qid].text}" for n in (1, 2, 4)]
        + [f"[SUCCESS 1]\nQ: {questions[qid].text}\nReasoning: r\nA: x\n\n[QUESTION]\nQ: x"]
        for qid in qids
    }
    kept = SimulatedExecutionBackend(env.question, seed=11)
    # every question asked several times, with different prompts, interleaved
    for round_ in range(3):
        for i, qid in enumerate(qids):
            for prompt in prompts[qid][(i + round_) % 5 :] + prompts[qid][: (i + round_) % 5]:
                fresh = SimulatedExecutionBackend(env.question, seed=11)
                meta = {"question_id": qid}
                reply = kept.complete(prompt, meta=meta)
                assert reply == fresh.complete(prompt, meta=meta)
                probability = kept.success_probability(qid, prompt)
                assert probability == fresh.success_probability(qid, prompt)
                # the roll is the hash of (seed, "roll", id)
                solved = unit_draw(11, "roll", qid) < probability
                assert reply.endswith(f"Answer: {questions[qid].answer}") == solved
        assert [kept.base_difficulty(qid) for qid in qids] == [
            0.35 + 0.40 * unit_draw(11, "base", qid) for qid in qids
        ]


def test_learner_looks_its_question_up_once_per_call():
    asked = []

    def lookup(qid):
        asked.append(qid)
        return KEY[qid]

    backend = SimulatedExecutionBackend(lookup, seed=1)
    for qid in ("q1", "q2", "q1"):
        asked.clear()
        backend.complete("[QUESTION]\nQ: x", meta={"question_id": qid})
        assert asked == [qid]


def test_learner_is_not_certain_on_an_id_the_env_does_not_hold():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    p = "[SUCCESS 1]\nQ: what is 2+2\nReasoning: add\nA: 4\n\n[QUESTION]\nQ: what is 2+2"
    assert backend.success_probability("q1", p) == 1.0
    assert backend.success_probability("nope", p) == pytest.approx(
        min(backend.base_difficulty("nope") + 0.15, 0.98)
    )


def test_learner_base_difficulty_band():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    values = [backend.base_difficulty(f"q{i}") for i in range(300)]
    assert all(0.35 <= v < 0.75 for v in values)


def test_learner_block_boost_saturates():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    base = backend.base_difficulty("q2")
    blocks = "[SUCCESS 1]\nQ: other\nReasoning: r\nA: 1\n\n"
    for n, expected in ((0, base), (1, base + 0.15), (3, base + 0.45), (5, base + 0.45)):
        p = blocks * n + "[QUESTION]\nQ: double 3"
        assert backend.success_probability("q2", p) == pytest.approx(
            min(expected, 0.98)
        )


def test_learner_probability_clamped():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    p = ("[SUCCESS 1]\nQ: x\nReasoning: r\nA: 1\n\n" * 3) + "[QUESTION]\nQ: double 3"
    assert backend.success_probability("q2", p) <= 0.98


def test_learner_certain_on_own_exemplar():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    p = "[SUCCESS 1]\nQ: what is 2+2\nReasoning: add\nA: 4\n\n[QUESTION]\nQ: what is 2+2"
    assert backend.success_probability("q1", p) == 1.0
    out = backend.complete(p, meta={"question_id": "q1"})
    assert out.endswith("Answer: 4")


def test_learner_certain_on_own_correction():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    p = (
        "[CORRECTION 1]\nconditions: q=what is 2+2; task_type=t; skill=s; kind=specific\n"
        "correction: recompute\n\n[QUESTION]\nQ: what is 2+2"
    )
    assert backend.success_probability("q1", p) == 1.0


def test_learner_other_questions_exemplar_is_not_certainty():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    p = "[SUCCESS 1]\nQ: double 3\nReasoning: r\nA: 6\n\n[QUESTION]\nQ: what is 2+2"
    assert backend.success_probability("q1", p) < 1.0


def test_learner_monotone_in_blocks():
    backend = SimulatedExecutionBackend(LOOKUP, seed=3)
    block = "[SUCCESS 1]\nQ: other\nReasoning: r\nA: 1\n\n"
    probs = [
        backend.success_probability("q2", block * n + "[QUESTION]\nQ: double 3")
        for n in range(6)
    ]
    assert probs == sorted(probs)


def test_learner_wrong_answer_differs_from_gold():
    backend = SimulatedExecutionBackend(LOOKUP, seed=9)
    assert backend._wrong_answer("4", "q1") != "4"
    assert backend._wrong_answer("oslo", "q1") == "not-oslo"


def test_act_follows_recipe_note():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    prompt = "[QUESTION]\nNote: next-action craft\nQ: step"
    assert backend.act(prompt, {"state_id": "s"}, ["move", "craft"]) == "craft"
    # an illegal hinted action falls through to the seeded pick
    got = backend.act(
        "Note: next-action fly\nQ: step", {"state_id": "s"}, ["move", "craft"]
    )
    assert got in {"move", "craft"}


def test_act_requires_actions():
    backend = SimulatedExecutionBackend(LOOKUP, seed=1)
    with pytest.raises(ValidationError):
        backend.act("p", {}, [])


# ----------------------------------------------------------------------
# guidance and judge


def test_guidance_kinds_render_from_meta():
    g = SimulatedGuidanceBackend(seed=0)
    correction = g.complete(
        "",
        meta={
            "kind": "correction",
            "task_type": "ratio",
            "wrong_answer": "5",
            "correct_answer": "7",
        },
    )
    assert "'5'" in correction and "'7'" in correction
    refined = g.complete("", meta={"kind": "prompt_refinement", "task_type": "ratio"})
    assert "{question}" in refined and "ratio" in refined
    split = g.complete("", meta={"kind": "skill_split", "task_type": "t", "skill": "s"})
    assert split == "s__t"
    assert g.complete("", meta={"kind": "ontology"}) == "ack"
    with pytest.raises(ValidationError):
        g.complete("", meta={"kind": "mystery"})


def test_navigator_orders_frontier_by_mastery():
    g = SimulatedGuidanceBackend(seed=0)
    out = g.complete(
        "",
        meta={
            "kind": "navigator",
            "frontier": [4, 2, 9],
            "masteries": {4: 0.3, 2: 0.3, 9: 0.1},
        },
    )
    assert out == "9,2,4"


def test_judge_exact_match_batch():
    judge = SimulatedJudgeBackend()
    verdicts = judge.complete(
        "judge", meta={"items": [("4", "4"), (" 4 ", "4"), ("5", "4")]}
    )
    assert verdicts == "110"
    with pytest.raises(ValidationError):
        judge.complete("judge", meta={})


# ----------------------------------------------------------------------
# embedder


def test_embedder_deterministic_unit_vectors():
    e = HashEmbedder(dimension=64, seed=0)
    v1 = e.embed("compute the total")
    v2 = HashEmbedder(dimension=64, seed=0).embed("compute the total")
    assert np.allclose(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert v1.shape == (64,)
    other = e.embed("a different sentence")
    assert abs(float(v1 @ other)) < 0.9


def test_embedder_counts_calls_and_handles_empty():
    e = HashEmbedder(dimension=8, seed=1)
    e.embed("")
    e.embed("x")
    assert e.calls == 2


def test_embedder_memo_hands_out_one_read_only_vector():
    e = HashEmbedder(dimension=64, seed=3)
    first = e.embed("memoized text")
    again = e.embed("memoized text")
    assert again is first
    assert np.array_equal(first, HashEmbedder(dimension=64, seed=3).embed("memoized text"))
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert e.calls == 2


def test_embedder_seed_changes_projection():
    a = HashEmbedder(dimension=64, seed=0).embed("same text")
    b = HashEmbedder(dimension=64, seed=1).embed("same text")
    assert not np.allclose(a, b)


# ----------------------------------------------------------------------
# call tracker


def test_tracker_counts_by_phase_agent_role():
    t = CallTracker()
    t.record("train", "learner", "execution")
    t.record("train", "learner", "execution", attempts=2)
    t.record("infer", "learner", "execution")
    t.record("train", "critic", "judge")
    assert t.counts()[("train", "learner", "execution")] == 3
    assert t.counts()[("infer", "learner", "execution")] == 1
    assert t.counts()[("train", "critic", "judge")] == 1


def test_tracker_since_returns_only_nonzero_deltas():
    t = CallTracker()
    t.record("train", "learner", "execution")
    t.record("train", "critic", "judge")
    before = t.counts()
    t.record("train", "critic", "judge", attempts=2)
    t.record("infer", "learner", "execution")
    assert t.since(before) == {
        ("train", "critic", "judge"): 2,
        ("infer", "learner", "execution"): 1,
    }
    assert t.since(t.counts()) == {}
    assert t.since({}) == t.counts()


def test_simulated_backend_set_roles():
    bs = simulated_backend_set(LOOKUP, seed=5)
    assert bs.guidance.role == "guidance"
    assert bs.execution.role == "execution"
    assert bs.judge.role == "judge"
    assert bs.embedder.role == "embedder"


# ----------------------------------------------------------------------
# HTTP wire client against a local stub server


class _StubHandler(BaseHTTPRequestHandler):
    fail_first = 0
    seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps({"text": f"echo: {body['messages'][0]['content']}"})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.fail_first = 0
    _StubHandler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_backend_round_trip(stub_server):
    backend = HttpBackend(stub_server, model="m1", role="execution", token="tok")
    out = backend.complete("hello", temperature=0.3)
    assert out == "echo: hello"
    assert backend.last_attempts == 1
    request = _StubHandler.seen[0]
    assert request["auth"] == "Bearer tok"
    assert request["body"]["model"] == "m1"
    assert request["body"]["temperature"] == 0.3
    assert request["body"]["messages"] == [{"role": "user", "content": "hello"}]


def test_http_backend_retries_then_succeeds(stub_server):
    _StubHandler.fail_first = 2
    backend = HttpBackend(
        stub_server, model="m", role="execution", attempts=3, backoff=0.0
    )
    assert backend.complete("again") == "echo: again"
    assert backend.last_attempts == 3
    assert len(_StubHandler.seen) == 3


def test_http_backend_exhausts_retries(stub_server):
    _StubHandler.fail_first = 99
    backend = HttpBackend(
        stub_server, model="m", role="execution", attempts=2, backoff=0.0
    )
    with pytest.raises(BackendError, match="after 2 attempts"):
        backend.complete("doomed")
    assert backend.last_attempts == 2


class _DownSession:
    """A ``requests.Session`` stand-in whose every POST fails to connect."""

    def __init__(self):
        self.posts = 0

    def post(self, url, **kwargs):
        self.posts += 1
        raise requests.ConnectionError("connection refused")


def test_http_backend_outage_is_a_backend_error_not_a_usage_error():
    session = _DownSession()
    backend = HttpBackend(
        "http://backend.invalid/v1", model="m", role="execution",
        attempts=3, backoff=0.0, session=session,
    )
    with pytest.raises(BackendError, match="after 3 attempts: connection refused") as caught:
        backend.complete("anyone there")
    assert not isinstance(caught.value, ValidationError)
    assert session.posts == backend.last_attempts == 3


class _FlakySession:
    """A ``requests.Session`` stand-in whose first ``fails`` POSTs fail to
    connect and whose later ones answer ``ack``."""

    def __init__(self, fails):
        self.fails = fails
        self.posts = 0

    def post(self, url, **kwargs):
        self.posts += 1
        if self.posts <= self.fails:
            raise requests.ConnectionError("connection refused")
        return _Ack()


class _Ack:
    def raise_for_status(self):
        pass

    def json(self):
        return {"text": "ack"}


def _engine_with_http_guidance(session, attempts=3):
    config = EngineConfig(pool_size=12, iterations=1)
    engine = build_simulated_engine(config, make_env("static_qa", seed=config.seed, pool_size=12))
    engine.backends.guidance = HttpBackend(
        "http://backend.invalid/v1", model="m", role="guidance",
        attempts=attempts, backoff=0.0, session=session,
    )
    return engine


def test_engine_counts_each_attempt_of_a_retried_call():
    # bootstrap makes one guidance call; it fails once, then answers
    engine = _engine_with_http_guidance(_FlakySession(fails=1))
    engine.bootstrap()
    assert engine.backends.tracker.counts()[("train", "skill_discovery", "guidance")] == 2


def test_engine_counts_every_attempt_of_a_failed_call():
    session = _DownSession()
    engine = _engine_with_http_guidance(session, attempts=3)
    with pytest.raises(BackendError, match="after 3 attempts"):
        engine.bootstrap()
    assert session.posts == 3
    assert engine.backends.tracker.counts() == {("train", "skill_discovery", "guidance"): 3}


def test_importing_the_package_loads_no_http_client_or_thread_pool():
    # nor numpy: the embedder, the exemplar index and Thompson draws import
    # it when they first compute
    src = os.path.dirname(os.path.dirname(evoloop.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, evoloop, evoloop.cli; "
        "print(sorted(m for m in ('requests', 'concurrent.futures', 'numpy') if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_http_backend_without_a_session_opens_a_requests_session():
    backend = HttpBackend("http://backend.invalid/v1", model="m", role="execution")
    try:
        assert isinstance(backend.session, requests.Session)
    finally:
        backend.session.close()
