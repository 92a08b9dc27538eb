"""Question decomposition and dependency-aware rewriting.

A plan is an ordered chain of sub-questions; a later one may reference an
earlier answer with a ``#j`` placeholder. Rewriting first substitutes
placeholders literally (so dependency injection works even if the LLM
underperforms), then lets the LLM smooth the result into a self-contained
question. Decomposition failures degrade to a single-element plan so the
pipeline reduces to one-step graph RAG in the worst case.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Collection

from .errors import LLM_FAILURES
from .gateway import ChatRequest, Gateway

logger = logging.getLogger(__name__)

DEFAULT_MAX_SUBQUESTIONS = 6

PLACEHOLDER_RE = re.compile(r"#(\d+)")


class _PlanInvalid(Exception):
    pass


@dataclass
class DecompositionPlan:
    original_question: str
    sub_questions: list[str]
    cap: int = DEFAULT_MAX_SUBQUESTIONS
    degraded: bool = False
    warnings: list[str] = field(default_factory=list)


def placeholder_refs(text: str) -> list[int]:
    return [int(m) for m in PLACEHOLDER_RE.findall(text)]


def single_question_plan(question: str, cap: int,
                         warnings: list[str] | None = None) -> DecompositionPlan:
    return DecompositionPlan(
        original_question=question,
        sub_questions=[question],
        cap=cap,
        degraded=bool(warnings),
        warnings=warnings or [],
    )


def decompose(question: str, gateway: Gateway,
              cap: int = DEFAULT_MAX_SUBQUESTIONS) -> DecompositionPlan:
    """Ask the LLM for an ordered sub-question chain.

    Output is validated (strings only, backward placeholder references)
    and truncated to the cap; a ``#j`` the question holds ("the #1 hit")
    is text. Any parse or validation failure degrades to the single
    original question with a recorded warning.
    """
    question = question.strip()
    if not question:
        raise ValueError("question must be non-empty")
    request = ChatRequest(
        "decompose", {"question": question, "max_subquestions": cap}
    )
    warnings: list[str] = []
    text_refs = set(placeholder_refs(question))
    try:
        raw = gateway.complete_structured(request, expect=list)
        subs = [item.strip() for item in raw if isinstance(item, str) and item.strip()]
        if not subs:
            raise _PlanInvalid("empty plan")
        if len(subs) > cap:
            logger.warning("plan of %d steps truncated to cap %d", len(subs), cap)
            subs = subs[:cap]
            warnings.append("decompose:truncated")
        for position, sub in enumerate(subs):
            for ref in placeholder_refs(sub):
                if ref not in text_refs and not 1 <= ref <= position:
                    raise _PlanInvalid(
                        f"step {position + 1} references #{ref}, which is not an "
                        "earlier step"
                    )
        return DecompositionPlan(question, subs, cap, warnings=warnings)
    except (_PlanInvalid, *LLM_FAILURES) as exc:
        logger.warning("decomposition degraded to single question: %s", exc)
        warnings.append("decompose:degraded")
        return single_question_plan(question, cap, warnings)


def substitute_placeholders(sub_question: str, answers: list[str]) -> str:
    """Replace each ``#j`` with ``answers[j - 1]``, the answer of step j.

    Only a step that has answered resolves: a ``#j`` with j outside
    1..len(answers) is text, as in a question that cites "the #1 hit".
    """
    def _sub(match: re.Match[str]) -> str:
        index = int(match.group(1))
        return answers[index - 1] if 1 <= index <= len(answers) else match.group(0)

    return PLACEHOLDER_RE.sub(_sub, sub_question)


def rewrite(
    sub_question: str,
    answers: list[str],
    gateway: Gateway,
    events: list[str],
    enabled: bool = True,
    text_refs: Collection[int] = (),
) -> str:
    """Turn a raw sub-question into a self-contained one, given the answers
    of the steps before it (step j's answer is ``answers[j - 1]``).

    The first step (no answers yet) has nothing to substitute or smooth and
    returns unchanged with zero LLM calls. Otherwise placeholders are
    substituted literally first; when ``enabled`` is false that is the
    final result (the rewrite ablation), else the LLM smooths it, and an
    LLM failure or an output still holding a ``#j`` outside ``text_refs``
    (the refs the user's question holds, which are text) falls back to it.
    """
    if not answers:
        return sub_question
    substituted = substitute_placeholders(sub_question, answers)
    if not enabled:
        return substituted
    answers_block = "\n".join(f"#{i}: {answer}" for i, answer in enumerate(answers, start=1))
    request = ChatRequest(
        "rewrite", {"question": substituted, "answers": answers_block}
    )
    try:
        response = gateway.complete(request)
    except LLM_FAILURES as exc:
        logger.warning("rewrite failed, using literal substitution: %s", exc)
        events.append("rewrite:llm_failure")
        return substituted
    rewritten = response.text.strip().strip('"')
    if not rewritten or set(placeholder_refs(rewritten)) - set(text_refs):
        logger.warning("rewrite output unusable, using literal substitution")
        events.append("rewrite:unusable_output")
        return substituted
    return rewritten
