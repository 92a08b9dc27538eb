import json
import re
from importlib import resources

import pytest

from subhop.cli import build_gateway
from subhop.config import Config
from subhop.errors import (
    BackendError,
    BudgetExceeded,
    ParseError,
    StructuredParseError,
    StubExhausted,
    SubhopError,
)
from subhop.gateway import ChatRequest, Gateway
from subhop.remote import RemoteBackend
from subhop.stub import StubBackend, load_stub_script, rule
from subhop.templates import TEMPLATE_NAMES, TemplateRegistry

from helpers import REGISTRY, MockChatServer, raw_reply, stub_gateway, write_script


PACKAGED_TEMPLATES = resources.files("subhop") / "templates"
DECOMPOSE_TEXT = "1. Who directed Inception?\n2. Who is the spouse of #1?"


def test_stub_echo():
    gw = stub_gateway([rule("decompose", DECOMPOSE_TEXT)])
    response = gw.complete(ChatRequest("decompose", {"question": "x", "max_subquestions": 6}))
    assert response.text == DECOMPOSE_TEXT
    assert gw.backend.name == "stub"


def test_unbound_placeholder_raises_before_any_backend_call():
    gw = stub_gateway([])
    with pytest.raises(SubhopError, match=r"template 'decompose' missing bindings for \['question'\]"):
        gw.complete(ChatRequest("decompose", {"max_subquestions": 6}))
    # an actual call would have raised StubExhausted instead
    assert gw.backend.log == []


def test_unknown_template_name():
    gw = stub_gateway([])
    with pytest.raises(SubhopError, match="unknown template 'nonsense'"):
        gw.complete(ChatRequest("nonsense", {}))


def test_stub_exhausted():
    gw = stub_gateway([])
    with pytest.raises(StubExhausted):
        gw.complete(ChatRequest("decompose", {"question": "x", "max_subquestions": 6}))


def test_stub_contains_matcher_and_cursor():
    gw = stub_gateway(
        [
            rule("final_answer", "first", contains="alpha"),
            rule("final_answer", "second", contains="alpha"),
            rule("final_answer", "other", contains="beta"),
        ]
    )

    def ask(q):
        return gw.complete(ChatRequest("final_answer", {"question": q, "memory": "m"})).text

    assert ask("alpha?") == "first"
    assert ask("beta?") == "other"
    assert ask("alpha?") == "second"
    with pytest.raises(StubExhausted):
        ask("alpha?")


def test_stub_repeat_rule():
    gw = stub_gateway([rule("final_answer", "same", repeat=True)])
    for _ in range(3):
        assert gw.complete(ChatRequest("final_answer", {"question": "q", "memory": "m"})).text == "same"


def test_stub_playback_deterministic():
    rules = lambda: [
        rule("final_answer", "a", contains="one"),
        rule("final_answer", "b"),
        rule("final_answer", "c"),
    ]
    seq = [{"question": "one", "memory": "m"}, {"question": "two", "memory": "m"},
           {"question": "one again", "memory": "m"}]
    runs = []
    for _ in range(2):
        gw = stub_gateway(rules())
        runs.append([gw.complete(ChatRequest("final_answer", v)).text for v in seq])
    assert runs[0] == runs[1] == ["a", "b", "c"]


def test_complete_structured_object():
    payload = {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [3]}
    gw = stub_gateway([rule("answer_from_triples", payload)])
    parsed = gw.complete_structured(
        ChatRequest("answer_from_triples", {"question": "q", "triples": "t"}),
        expect=dict,
        required={"answerable": bool, "answer": str, "used_triple_ids": list},
    )
    assert parsed == payload


def test_complete_structured_retries_once_then_succeeds():
    gw = stub_gateway(
        [
            rule("answer_from_docs", "I think the answer is Emma."),
            rule("answer_from_docs", {"answer": "Emma Thomas"}),
        ]
    )
    parsed = gw.complete_structured(
        ChatRequest("answer_from_docs", {"question": "q", "documents": "d"}),
        expect=dict,
        required={"answer": str},
    )
    assert parsed == {"answer": "Emma Thomas"}
    assert len(gw.backend.log) == 2
    assert gw.backend.log[1]["prompt"].endswith("Respond with valid JSON only.")


def test_complete_structured_fails_after_second_prose():
    gw = stub_gateway(
        [rule("answer_from_docs", "prose one"), rule("answer_from_docs", "prose two")]
    )
    with pytest.raises(StructuredParseError) as exc:
        gw.complete_structured(
            ChatRequest("answer_from_docs", {"question": "q", "documents": "d"}),
            expect=dict,
            required={"answer": str},
        )
    assert exc.value.raw == "prose two"
    assert str(exc.value) == "template 'answer_from_docs' did not yield a JSON object"


def test_complete_structured_array_and_fences():
    gw = stub_gateway(
        [rule("extract_triples", "```json\n[[\"A\",\"r\",\"B\"]]\n```")]
    )
    parsed = gw.complete_structured(
        ChatRequest("extract_triples", {"document": "d"}), expect=list
    )
    assert parsed == [["A", "r", "B"]]


def test_structured_object_extraction_from_surrounding_prose():
    gw = stub_gateway(
        [rule("answer_from_docs", 'Sure! {"answer": "Paris"} hope that helps')]
    )
    parsed = gw.complete_structured(
        ChatRequest("answer_from_docs", {"question": "q", "documents": "d"}),
        expect=dict,
        required={"answer": str},
    )
    assert parsed == {"answer": "Paris"}


def test_budget_enforced_and_counted():
    gw = stub_gateway([rule("final_answer", "x", repeat=True)]).with_budget(2)
    req = ChatRequest("final_answer", {"question": "q", "memory": "m"})
    gw.complete(req)
    gw.complete(req)
    with pytest.raises(BudgetExceeded):
        gw.complete(req)
    assert gw.budget.calls == 2
    assert gw.budget.completion_tokens > 0


def test_budget_views_are_independent():
    base = stub_gateway([rule("final_answer", "x", repeat=True)])
    a, b = base.with_budget(1), base.with_budget(1)
    req = ChatRequest("final_answer", {"question": "q", "memory": "m"})
    a.complete(req)
    b.complete(req)
    with pytest.raises(BudgetExceeded):
        a.complete(req)


def test_load_templates_registry_of_six():
    assert sorted(path.name for path in PACKAGED_TEMPLATES.iterdir()
                  if path.name.endswith(".txt")) == sorted(f"{n}.txt" for n in TEMPLATE_NAMES)
    assert len(TEMPLATE_NAMES) == 6
    assert set(TEMPLATE_NAMES) == {
        "extract_triples", "decompose", "rewrite", "answer_from_triples",
        "answer_from_docs", "final_answer",
    }


def test_missing_template_detected_at_load(tmp_path):
    for name in TEMPLATE_NAMES:
        if name != "rewrite":
            (tmp_path / f"{name}.txt").write_text("body {question}", encoding="utf-8")
    with pytest.raises(SubhopError, match="missing template 'rewrite'"):
        TemplateRegistry.load(tmp_path)


def test_render_substitutes_placeholder(tmp_path):
    for name in TEMPLATE_NAMES:
        (tmp_path / f"{name}.txt").write_text("ask {subquestion} now", encoding="utf-8")
    registry = TemplateRegistry.load(tmp_path)
    assert registry.render("rewrite", {"subquestion": "Who?"}) == "ask Who? now"


def test_no_placeholder_survives_rendering():
    bindings = {
        "document": "doc body",
        "question": "What is it?",
        "max_subquestions": 6,
        "answers": "#1: X",
        "triples": "0. A | r | B",
        "documents": "[d1] text",
        "memory": "step 1: A | r | B",
    }
    for name in TEMPLATE_NAMES:
        text = (PACKAGED_TEMPLATES / f"{name}.txt").read_text(encoding="utf-8")
        placeholders = set(re.findall(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", text))
        assert placeholders
        rendered = REGISTRY.render(name, bindings)
        for placeholder in placeholders:
            assert "{%s}" % placeholder not in rendered


def test_stub_script_file_round_trip(tmp_path):
    path = tmp_path / "script.json"
    script = [
        {"template": "decompose", "response": ["q1", "q2"], "contains": "spouse"},
        {"template": "final_answer", "response": "Emma Thomas", "repeat": True},
    ]
    path.write_text(json.dumps(script), encoding="utf-8")
    rules = load_stub_script(path)
    assert rules[0].contains == "spouse"
    assert json.loads(rules[0].response) == ["q1", "q2"]
    assert rules[1].repeat is True


@pytest.mark.parametrize("key, value", [
    ("contains", 5), ("contains", None), ("contains", ["spouse"]),
    ("template", 5), ("repeat", "false"),
])
def test_load_stub_script_rejects_a_field_of_the_wrong_type(tmp_path, key, value):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"template": "final_answer", "response": "x", key: value}]),
                    encoding="utf-8")
    with pytest.raises(ParseError, match=f"stub rule 0: '{key}' must be a"):
        load_stub_script(path)


# -- remote backend ----------------------------------------------------------


def _remote(endpoint, **kw):
    delays = []
    backend = RemoteBackend(
        endpoint=endpoint, model="test-model", api_key="sk-test",
        retry_limit=3, backoff_base=0.01, sleep=delays.append, **kw
    )
    return backend, delays


def test_remote_retries_transient_429_then_succeeds(tmp_path):
    log_path = tmp_path / "wire.jsonl"
    with MockChatServer([(429, "slow down"), (429, "slow down"), (200, "hello")]) as server:
        backend, delays = _remote(server.endpoint)
        gw = Gateway(REGISTRY, backend, wire_log_path=log_path)
        response = gw.complete(ChatRequest("final_answer", {"question": "q", "memory": "m"}))
    assert response.text == "hello"
    assert response.attempts == 3
    assert json.loads(log_path.read_text(encoding="utf-8").splitlines()[0])["attempts"] == 3
    assert delays == sorted(delays) and len(delays) == 2


def test_remote_fails_after_retry_limit():
    with MockChatServer([(429, "x")] * 10) as server:
        backend, delays = _remote(server.endpoint)
        with pytest.raises(BackendError) as exc:
            backend.send("final_answer", "p", {}, 0.0, 16)
    assert exc.value.status == 429
    assert len(delays) == 3  # retry_limit sleeps, nondecreasing
    assert delays == sorted(delays)


def test_remote_does_not_retry_client_errors():
    with MockChatServer([(400, "bad request")]) as server:
        backend, delays = _remote(server.endpoint)
        with pytest.raises(BackendError) as exc:
            backend.send("final_answer", "p", {}, 0.0, 16)
    assert exc.value.status == 400
    assert delays == []


def test_remote_sends_chat_payload_and_auth():
    with MockChatServer([(200, "ok")]) as server:
        backend, _ = _remote(server.endpoint)
        backend.send("final_answer", "the prompt", {}, 0.25, 99)
        payload = server.requests[0]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "the prompt"}]
    assert payload["temperature"] == 0.25
    assert payload["max_tokens"] == 99


def test_build_gateway_sends_configured_max_tokens():
    with MockChatServer([(200, "ok")]) as server:
        gw = build_gateway(Config(backend="remote", endpoint=server.endpoint, max_tokens=99))
        gw.with_budget(1).complete(ChatRequest("final_answer", {"question": "q", "memory": "m"}))
        payload = server.requests[0]
    assert payload["max_tokens"] == 99
    assert payload["temperature"] == 0.0


FINAL_ANSWER = ChatRequest("final_answer", {"question": "q", "memory": "m"})


def _remote_config(server: MockChatServer, **fields) -> Config:
    return Config(backend="remote", endpoint=server.endpoint, **fields)


def test_backend_and_endpoint_pick_who_answers(tmp_path):
    script = write_script(tmp_path / "script.json", [rule("final_answer", "stub")])
    with MockChatServer([(200, "a")]) as a, MockChatServer([(200, "b")]) as b:
        texts = [
            build_gateway(_remote_config(b)).complete(FINAL_ANSWER).text,
            build_gateway(Config(endpoint=a.endpoint, stub_script=str(script)))
            .complete(FINAL_ANSWER).text,
        ]
    assert texts == ["b", "stub"]
    assert (len(a.requests), len(b.requests)) == (0, 1)


def test_build_gateway_sends_configured_model_and_api_key():
    with MockChatServer([(200, "ok")] * 2) as server:
        build_gateway(_remote_config(server, model="m-1", api_key="sk-1")).complete(FINAL_ANSWER)
        build_gateway(_remote_config(server)).complete(FINAL_ANSWER)
    assert [payload["model"] for payload in server.requests] == ["m-1", "gpt-4o-mini"]
    assert server.authorizations == ["Bearer sk-1", None]


@pytest.mark.parametrize("retry_limit", [0, 2])
def test_retry_limit_caps_the_requests(retry_limit):
    with MockChatServer([(503, "busy")] * 4) as server:
        gw = build_gateway(_remote_config(server, retry_limit=retry_limit, backoff_base=0))
        with pytest.raises(BackendError):
            gw.complete(FINAL_ANSWER)
    assert len(server.requests) == retry_limit + 1


def test_backoff_base_spaces_the_retries():
    gaps = {}
    for backoff_base in (0, 0.3):
        with MockChatServer([(503, "busy"), (200, "ok")]) as server:
            gw = build_gateway(_remote_config(server, retry_limit=1, backoff_base=backoff_base))
            assert gw.complete(FINAL_ANSWER).attempts == 2
        gaps[backoff_base] = server.arrivals[1] - server.arrivals[0]
    assert gaps[0] < 0.3 <= gaps[0.3]


def test_request_timeout_gives_up_on_a_stalled_reply():
    with MockChatServer([None, (200, "ok")]) as server:
        gw = build_gateway(
            _remote_config(server, request_timeout=0.2, retry_limit=1, backoff_base=0))
        result = gw.complete(FINAL_ANSWER)
    assert (result.text, result.attempts) == ("ok", 2)
    # the default timeout, 30 s, would still be waiting on the first reply
    assert 0.2 <= server.arrivals[1] - server.arrivals[0] < 5


def test_remote_frees_in_flight_slot_while_backing_off():
    free_during_backoff = []

    def sleep(_delay):
        acquired = backend._semaphore.acquire(blocking=False)
        if acquired:
            backend._semaphore.release()
        free_during_backoff.append(acquired)

    with MockChatServer([(503, "busy"), (503, "busy"), (200, "ok")]) as server:
        backend = RemoteBackend(
            endpoint=server.endpoint, model="test-model", max_in_flight=1, sleep=sleep
        )
        assert backend.send("final_answer", "p", {}, 0.0, 16).text == "ok"
    assert free_during_backoff == [True, True]


def test_remote_malformed_completion_payload():
    backend, _ = _remote("http://localhost:1/v1")
    with pytest.raises(BackendError) as exc:
        backend._parse(b'{"nope": 1}', attempts=1)
    assert exc.value.status == 200


def test_remote_body_that_is_not_utf8_fails_without_retry():
    with MockChatServer([raw_reply(b'{"choices": "\xff"}'), (200, "ok")]) as server:
        backend, delays = _remote(server.endpoint)
        with pytest.raises(BackendError, match="malformed completion payload") as exc:
            backend.send("final_answer", "p", {}, 0.0, 16)
        assert len(server.requests) == 1
    assert exc.value.status == 200
    assert delays == []


_CHAT_OK = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()


@pytest.mark.parametrize("reply", [
    raw_reply(_CHAT_OK[:10], length=len(_CHAT_OK)),  # the body breaks off
    b"not an HTTP reply\r\n\r\n",
], ids=["incomplete-body", "not-http"])
def test_remote_retries_a_broken_reply_like_a_network_error(reply):
    with MockChatServer([reply, (200, "ok")]) as server:
        backend, delays = _remote(server.endpoint)
        result = backend.send("final_answer", "p", {}, 0.0, 16)
    assert (result.text, result.attempts, len(delays)) == ("ok", 2, 1)
    with MockChatServer([reply] * 4) as server:
        backend, delays = _remote(server.endpoint)
        with pytest.raises(BackendError) as exc:
            backend.send("final_answer", "p", {}, 0.0, 16)
        assert len(server.requests) == 4
    assert exc.value.status == 0
    assert len(delays) == 3


@pytest.mark.parametrize("usage", [
    None, [], "12", 7, {"prompt_tokens": None}, {"prompt_tokens": "3", "completion_tokens": 2.0},
    {"prompt_tokens": True, "completion_tokens": [1]},
])
def test_remote_malformed_usage_reads_as_zero_tokens(usage):
    backend = RemoteBackend(endpoint="http://localhost:1/v1", model="m")
    payload = {"choices": [{"message": {"content": "ok"}}], "usage": usage}
    result = backend._parse(json.dumps(payload).encode(), attempts=1)
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("ok", 0, 0)
    payload["usage"] = {"prompt_tokens": 5, "completion_tokens": 2}
    result = backend._parse(json.dumps(payload).encode(), attempts=1)
    assert (result.prompt_tokens, result.completion_tokens) == (5, 2)


def test_wire_log_never_contains_api_key(tmp_path):
    log_path = tmp_path / "wire.jsonl"
    with MockChatServer([(200, "ok")]) as server:
        backend, _ = _remote(server.endpoint)
        gw = Gateway(REGISTRY, backend, wire_log_path=log_path)
        gw.complete(ChatRequest("final_answer", {"question": "q", "memory": "m"}))
    content = log_path.read_text(encoding="utf-8")
    assert "sk-test" not in content
    assert json.loads(content.splitlines()[0])["template"] == "final_answer"


def test_wire_log_with_a_path_keeps_no_entries_in_memory(tmp_path):
    log_path = tmp_path / "wire.jsonl"
    gw = Gateway(REGISTRY, StubBackend([rule("final_answer", "x", repeat=True)]),
                 wire_log_path=log_path)
    view = gw.with_budget(10)
    for i in range(5):
        (view if i % 2 else gw).complete(
            ChatRequest("final_answer", {"question": f"q{i}", "memory": "m"}))
    assert not hasattr(gw, "wire_log") and not hasattr(view, "wire_log")
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["response"] for line in lines] == ["x"] * 5
    assert ["q3" in json.loads(line)["prompt"] for line in lines] == [False] * 3 + [True, False]
