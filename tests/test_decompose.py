import random
import string

import pytest

from subhop.decompose import (
    DecompositionPlan,
    decompose,
    placeholder_refs,
    rewrite,
    single_question_plan,
    substitute_placeholders,
)
from subhop.stub import rule

from helpers import stub_gateway


def test_decompose_two_hop_plan():
    gw = stub_gateway([
        rule("decompose", ["Who directed Inception?", "Who is the spouse of #1?"]),
    ])
    plan = decompose("Who is the spouse of the director of Inception?", gw)
    assert plan.sub_questions == ["Who directed Inception?", "Who is the spouse of #1?"]
    assert not plan.degraded
    assert len(plan.sub_questions) == 2


def test_forward_reference_degrades_to_single_plan():
    gw = stub_gateway([rule("decompose", ["What about #2?", "Second?"])])
    plan = decompose("original question", gw)
    assert plan.sub_questions == ["original question"]
    assert plan.degraded
    assert "decompose:degraded" in plan.warnings


def test_self_reference_in_first_step_degrades():
    gw = stub_gateway([rule("decompose", ["What is #1?"])])
    plan = decompose("original question", gw)
    assert plan.degraded


def test_plan_truncated_to_cap():
    gw = stub_gateway([rule("decompose", [f"step {i}?" for i in range(1, 9)])])
    plan = decompose("big question", gw, cap=6)
    assert len(plan.sub_questions) == 6
    assert "decompose:truncated" in plan.warnings
    assert not plan.degraded


def test_parse_failure_degrades_with_warning():
    gw = stub_gateway([
        rule("decompose", "no json here"),
        rule("decompose", "still prose"),
    ])
    plan = decompose("the question", gw)
    assert plan.sub_questions == ["the question"]
    assert plan.degraded


HIT_QUESTION = "Who sang the #1 hit of 1999?"


@pytest.mark.parametrize("steps", [
    [HIT_QUESTION],
    ["Which song was the #1 hit of 1999?", "Who sang #1?"],
], ids=["one-step", "two-step"])
def test_a_ref_the_question_holds_is_text_in_the_plan(steps):
    plan = decompose(HIT_QUESTION, stub_gateway([rule("decompose", steps)]))
    assert plan.sub_questions == steps
    assert not plan.degraded and plan.warnings == []


def test_a_forward_ref_the_question_does_not_hold_still_degrades():
    steps = ["Which song was the #1 hit of 1999?", "Who sang #3?"]
    plan = decompose(HIT_QUESTION, stub_gateway([rule("decompose", steps)]))
    assert plan.sub_questions == [HIT_QUESTION]
    assert plan.degraded and "decompose:degraded" in plan.warnings


def test_single_element_plan_is_valid():
    gw = stub_gateway([rule("decompose", ["Simple question?"])])
    plan = decompose("Simple question?", gw)
    assert plan.sub_questions == ["Simple question?"]
    assert not plan.degraded


def test_decompose_rejects_empty_question():
    with pytest.raises(ValueError):
        decompose("  ", stub_gateway([]))


def test_rewrite_substitutes_and_smooths():
    gw = stub_gateway([rule("rewrite", "Who is the spouse of Christopher Nolan?")])
    out = rewrite("Who is the spouse of #1?", ["Christopher Nolan"], gw, [])
    assert out == "Who is the spouse of Christopher Nolan?"
    # the prompt carried the literal substitution
    assert "spouse of Christopher Nolan" in gw.backend.log[0]["prompt"]


def test_rewrite_identity_without_placeholders_or_context():
    gw = stub_gateway([])  # any LLM call would raise StubExhausted
    events = []
    assert rewrite("Who directed Inception?", [], gw, events) == "Who directed Inception?"
    assert gw.backend.log == [] and events == []


def test_rewrite_leaves_unanswered_placeholder_as_text():
    gw = stub_gateway([])
    assert rewrite("Spouse of #2?", ["X"], gw, [], enabled=False) == "Spouse of #2?"
    assert gw.backend.log == []


def test_rewrite_with_context_but_no_placeholder_still_calls_llm():
    gw = stub_gateway([rule("rewrite", "Standalone question about Nolan?")])
    out = rewrite("And their spouse?", ["Christopher Nolan"], gw, [])
    assert out == "Standalone question about Nolan?"
    assert len(gw.backend.log) == 1


def test_rewrite_llm_failure_returns_substitution():
    gw = stub_gateway([])  # exhausted stub = LLM failure
    events = []
    out = rewrite("Spouse of #1?", ["Nolan"], gw, events)
    assert out == "Spouse of Nolan?"
    assert events == ["rewrite:llm_failure"]


def test_rewrite_disabled_is_literal_substitution_only():
    gw = stub_gateway([])
    out = rewrite("Spouse of #1?", ["Nolan"], gw, [], enabled=False)
    assert out == "Spouse of Nolan?"
    assert gw.backend.log == []


def test_rewrite_output_with_leftover_placeholder_falls_back():
    gw = stub_gateway([rule("rewrite", "Still talking about #1?")])
    out = rewrite("Spouse of #1?", ["Nolan"], gw, [])
    assert out == "Spouse of Nolan?"


@pytest.mark.parametrize("text_refs, accepted", [({1}, True), (set(), False), ({2}, False)])
def test_rewrite_output_keeps_only_refs_the_question_holds(text_refs, accepted):
    smoothed = "Who wrote the #1 hit Believe?"
    gw = stub_gateway([rule("rewrite", smoothed)])
    events = []
    out = rewrite("Who wrote #1?", ["Believe"], gw, events, text_refs=text_refs)
    assert out == (smoothed if accepted else "Who wrote Believe?")
    assert events == ([] if accepted else ["rewrite:unusable_output"])


def test_rewrite_empty_context_is_identity_property():
    rng = random.Random(13)
    gw = stub_gateway([])
    for _ in range(50):
        chars = [rng.choice(string.ascii_letters + string.digits + " ?#") for _ in range(20)]
        if rng.random() < 0.5:
            chars.insert(rng.randrange(21), f"#{rng.randint(0, 12)}")
        text = "".join(chars)
        events = []
        assert rewrite(text, [], gw, events) == text
        assert events == []  # no failed call to the exhausted stub either
    assert gw.backend.log == []


def test_rewritten_output_never_contains_placeholders_property():
    rng = random.Random(14)
    for _ in range(30):
        refs = sorted(rng.sample(range(1, 6), k=rng.randint(1, 3)))
        answers = [f"answer{i}" for i in range(1, max(refs) + 1)]
        question = "what about " + " and ".join(f"#{j}" for j in refs) + "?"
        out = rewrite(question, answers, stub_gateway([]), [], enabled=True)
        assert not placeholder_refs(out)


def test_substitute_multi_digit_placeholder():
    answers = [f"a{i}" for i in range(1, 13)]
    assert substitute_placeholders("x #12 y #1", answers) == "x a12 y a1"


def test_substitute_resolves_only_answered_steps():
    assert substitute_placeholders("#0 #1 #2 #10", ["a"]) == "#0 a #2 #10"
    assert substitute_placeholders("the #1 hit", []) == "the #1 hit"


def test_plan_dataclass_shape():
    plan = single_question_plan("q", cap=6)
    assert isinstance(plan, DecompositionPlan)
    assert plan.original_question == "q"
    assert len(plan.sub_questions) == 1
