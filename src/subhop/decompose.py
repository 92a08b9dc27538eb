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

from .errors import LLM_FAILURES, MissingDependency
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

    def __len__(self) -> int:
        return len(self.sub_questions)


@dataclass
class AnswerContext:
    """Answers of already-resolved sub-questions, in order."""

    answers: list[tuple[int, str]] = field(default_factory=list)

    def add(self, index: int, answer: str) -> None:
        if self.answers and index <= self.answers[-1][0]:
            raise ValueError("answer indices must be strictly increasing")
        self.answers.append((index, answer))

    def get(self, index: int) -> str | None:
        for i, answer in self.answers:
            if i == index:
                return answer
        return None

    def is_empty(self) -> bool:
        return not self.answers


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
    and truncated to the cap. Any parse or validation failure degrades to
    the single original question with a recorded warning.
    """
    question = question.strip()
    if not question:
        raise ValueError("question must be non-empty")
    request = ChatRequest(
        "decompose", {"question": question, "max_subquestions": cap}
    )
    warnings: list[str] = []
    try:
        raw = gateway.complete_structured(request, expect="array")
        subs = [item.strip() for item in raw if isinstance(item, str) and item.strip()]
        if not subs:
            raise _PlanInvalid("empty plan")
        if len(subs) > cap:
            logger.warning("plan of %d steps truncated to cap %d", len(subs), cap)
            subs = subs[:cap]
            warnings.append("decompose:truncated")
        for position, sub in enumerate(subs):
            for ref in placeholder_refs(sub):
                if ref < 1 or ref > position:
                    raise _PlanInvalid(
                        f"step {position + 1} references #{ref}, which is not an "
                        "earlier step"
                    )
        return DecompositionPlan(question, subs, cap, warnings=warnings)
    except (_PlanInvalid, *LLM_FAILURES) as exc:
        logger.warning("decomposition degraded to single question: %s", exc)
        warnings.append("decompose:degraded")
        return single_question_plan(question, cap, warnings)


def substitute_placeholders(sub_question: str, context: AnswerContext) -> str:
    """Replace every ``#j`` with the j-th answer; missing answers are an
    upstream ordering bug and abort the question."""
    def _sub(match: re.Match[str]) -> str:
        index = int(match.group(1))
        answer = context.get(index)
        if answer is None:
            raise MissingDependency(index)
        return answer

    return PLACEHOLDER_RE.sub(_sub, sub_question)


def rewrite(
    sub_question: str,
    context: AnswerContext,
    gateway: Gateway,
    enabled: bool = True,
    events: list[str] | None = None,
) -> str:
    """Turn a raw sub-question into a self-contained one.

    Placeholders are substituted literally first. A sub-question without
    placeholders and with no prior answers is already self-contained and
    returns unchanged with zero LLM calls. When ``enabled`` is false the
    literal substitution is the final result (the rewrite ablation).
    """
    refs = placeholder_refs(sub_question)
    substituted = substitute_placeholders(sub_question, context)
    if not refs and context.is_empty():
        return sub_question
    if not enabled:
        return substituted
    answers_block = "\n".join(f"#{i}: {answer}" for i, answer in context.answers) or "(none)"
    request = ChatRequest(
        "rewrite", {"question": substituted, "answers": answers_block}
    )
    try:
        response = gateway.complete(request)
    except LLM_FAILURES as exc:
        logger.warning("rewrite failed, using literal substitution: %s", exc)
        if events is not None:
            events.append("rewrite:llm_failure")
        return substituted
    rewritten = response.text.strip().strip('"')
    if not rewritten or PLACEHOLDER_RE.search(rewritten):
        logger.warning("rewrite output unusable, using literal substitution")
        if events is not None:
            events.append("rewrite:unusable_output")
        return substituted
    return rewritten
