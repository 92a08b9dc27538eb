"""Per-question solving loop.

Each sub-question runs in up to three stages:

- read: rewrite, retrieve top-k triples, try to answer from them alone;
- fallback, if the graph is insufficient: passage retrieval, an answer
  from the documents and extraction of their facts; it reads only the
  corpus and the passage index, which the first fallback embeds;
- commit: write the new facts back into the graph and, if any landed,
  retry answering from the refreshed graph exactly once. It is the only
  stage that writes the graph and the triple index.

Every triple actually used is collected into an ordered, id-unique graph
memory that grounds the final answer.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .config import Config
from .decompose import DecompositionPlan, decompose, placeholder_refs, rewrite, single_question_plan
from .embedders import Embedder
from .errors import LLM_FAILURES, BudgetExceeded
from .gateway import ChatRequest, Gateway
from .indexer import DEFAULT_CHAR_BUDGET, TripleRow, extract_triples, passage_text
from .kg import DYNAMIC_PREFIX, KnowledgeGraph, Triple
from .stores import Stores
from .vector import verbalize

logger = logging.getLogger(__name__)

UNKNOWN_ANSWER = "UNKNOWN"
EMPTY_MEMORY_MARKER = "(no evidence retrieved)"
TRACE_SCHEMA = "question_trace/v1"


@dataclass
class FallbackEvent:
    retrieved_doc_ids: list[str] = field(default_factory=list)
    new_triples: list[TripleRow] = field(default_factory=list)
    written_back_ids: list[int] = field(default_factory=list)
    document_answer: str = ""


@dataclass(kw_only=True)
class SubAnswer:
    # fields in the trace's key order: trace_to_dict serializes them as they are
    index: int
    sub_question: str
    rewritten_question: str
    retrieved: list[tuple[int, float]]
    retrieved_after_update: list[tuple[int, float]] | None = None
    answerable_from_graph: bool
    answer: str
    used_triple_ids: list[int]
    fallback: FallbackEvent | None = None
    events: list[str] = field(default_factory=list)


@dataclass
class QuestionTrace:
    question_id: str
    question: str
    plan: DecompositionPlan | None = None
    sub_answers: list[SubAnswer] = field(default_factory=list)
    # (step, triple) of each triple used, in the order assemble_graph_memory gives
    memory: list[tuple[int, Triple]] = field(default_factory=list)
    final_answer: str = ""
    status: str = "ok"
    error: str | None = None
    events: list[str] = field(default_factory=list)
    llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0


def retrieve_for_subquestion(
    question: str, stores: Stores, k: int, embedder: Embedder
) -> tuple[list[tuple[int, float]], list[tuple[Triple, float]]]:
    """Exact top-k triples for a rewritten sub-question, read without a
    lock: the ``(id, score)`` hits and their ``(Triple, score)``
    candidates. An empty index yields two empty lists. Only the first
    ``len(stores.graph)`` rows are scored: a write-back appends the index
    row before the graph triple, so every hit is in the graph."""
    hits = stores.triple_index.top_k(question, k, embedder, rows=len(stores.graph))
    return hits, [(stores.graph.lookup(tid), score) for tid, score in hits]


def render_candidates(candidates: list[tuple[Triple, float]]) -> str:
    return "\n".join(f"{t.id}. {t.head} | {t.relation} | {t.tail}" for t, _ in candidates)


def answer_from_triples(
    question: str,
    candidates: list[tuple[Triple, float]],
    gateway: Gateway,
    events: list[str],
) -> tuple[str, list[int]]:
    """Ask the generator to answer from the candidate triples only; the
    answer text and the ids it cites. The question is answered exactly
    when the cited ids are not empty.

    Evidence discipline: reported triple ids outside the candidate set are
    filtered, as are ids that are not integers (JSON ``true`` is not 1), and
    a claimed answer without any surviving evidence id is coerced to
    unanswerable. Used ids come back ordered by retrieval rank.
    """
    if not candidates:
        return "", []
    request = ChatRequest(
        "answer_from_triples",
        {"question": question, "triples": render_candidates(candidates)},
    )
    try:
        payload = gateway.complete_structured(
            request,
            expect=dict,
            required={"answerable": bool, "answer": str, "used_triple_ids": list},
        )
    except LLM_FAILURES:
        logger.warning("triple answering failed, treating as unanswerable")
        events.append("answer:llm_failure")
        return "", []
    rank = {t.id: pos for pos, (t, _) in enumerate(candidates)}
    used: list[int] = []
    for triple_id in payload["used_triple_ids"]:
        if type(triple_id) is int and triple_id in rank and triple_id not in used:
            used.append(triple_id)
        else:
            logger.warning("dropping reported evidence id %r not in candidates", triple_id)
            events.append("answer:evidence_filtered")
    used.sort(key=rank.__getitem__)
    if not payload["answerable"]:
        used = []
    elif not used:
        logger.warning("answer claimed without evidence, coercing to unanswerable")
        events.append("answer:coerced_unanswerable")
    return payload["answer"].strip(), used


def fallback_answer_from_docs(
    question: str,
    stores: Stores,
    gateway: Gateway,
    embedder: Embedder,
    k_docs: int,
    events: list[str],
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> FallbackEvent:
    """The fallback stage: retrieve passages, answer from them, and
    extract candidate triples for the write-back as indexing does. It
    reads only ``stores.corpus`` and the passage index. Its first use
    writes the passage index, embedding the corpus once
    (``Stores.passages``); nothing writes it after that. LLM failures
    degrade to the UNKNOWN answer; the event is recorded either way."""
    event = FallbackEvent(document_answer=UNKNOWN_ANSWER)
    if len(stores.corpus) == 0:
        logger.warning("fallback requested with empty corpus")
        events.append("fallback:empty_corpus")
        return event
    hits = stores.passages(embedder).top_k(question, k_docs, embedder)
    docs = [stores.corpus.documents[key] for key, _ in hits]
    event.retrieved_doc_ids = [doc.id for doc in docs]
    doc_block = "\n\n".join(f"[{doc.id}] {passage_text(doc)}" for doc in docs)
    try:
        payload = gateway.complete_structured(
            ChatRequest("answer_from_docs", {"question": question, "documents": doc_block}),
            expect=dict,
            required={"answer": str},
        )
        event.document_answer = payload["answer"].strip() or UNKNOWN_ANSWER
    except LLM_FAILURES:
        logger.warning("document answering failed during fallback")
        events.append("fallback:answer_failure")
    try:
        event.new_triples = extract_triples(doc_block, gateway, char_budget)
    except LLM_FAILURES:
        logger.warning("triple extraction failed during fallback")
        events.append("fallback:extract_failure")
    return event


def update_graph_with_new_triples(
    stores: Stores,
    event: FallbackEvent,
    question_id: str,
    step: int,
    embedder: Embedder,
) -> None:
    """Write validated fallback triples into the graph and the triple
    index, holding ``stores.write_lock``, so write-backs run one at a time
    while retrievals go on without a lock. Duplicates are silently
    skipped; only genuinely new ids land in ``written_back_ids``.

    Raises ValueError, writing nothing, unless the graph and the triple
    index hold as many rows, as they must for a triple's id to be its
    row. Each new triple's row is appended (``VectorIndex.extend`` embeds
    before it writes) before the graph takes the triple, so a failing
    embedder leaves no graph triple without its index row.
    """
    event.written_back_ids = []
    with stores.write_lock:
        graph, triple_index = stores.graph, stores.triple_index
        if len(graph) != len(triple_index):
            raise ValueError(
                f"graph holds {len(graph)} triples but its index {len(triple_index)} rows"
            )
        for row in event.new_triples:
            fields = graph.new_fields(*row)
            if fields is None:
                continue
            triple_index.extend([verbalize(*fields)], embedder)
            triple_id, _ = graph.insert(
                *fields, provenance=f"{DYNAMIC_PREFIX}{question_id}", step=step
            )
            event.written_back_ids.append(triple_id)


def assemble_graph_memory(
    sub_answers: list[SubAnswer], graph: KnowledgeGraph
) -> list[tuple[int, Triple]]:
    """Ordered union of used triples: by sub-question index, then by that
    step's retrieval rank, deduplicated by id keeping the earliest step."""
    entries: list[tuple[int, Triple]] = []
    seen: set[int] = set()
    for sub in sub_answers:
        for triple_id in sub.used_triple_ids:
            if triple_id in seen:
                continue
            seen.add(triple_id)
            entries.append((sub.index, graph.lookup(triple_id)))
    return entries


def render_memory(memory: list[tuple[int, Triple]]) -> str:
    if not memory:
        return EMPTY_MEMORY_MARKER
    return "\n".join(f"step {step}: {t.head} | {t.relation} | {t.tail}" for step, t in memory)


def generate_final_answer(
    question: str, memory: list[tuple[int, Triple]], gateway: Gateway
) -> str:
    """Final generation over the graph memory. An empty memory still makes
    the call, with an explicit no-evidence marker, so the behavior stays
    observable."""
    request = ChatRequest(
        "final_answer", {"question": question, "memory": render_memory(memory)}
    )
    try:
        response = gateway.complete(request)
    except LLM_FAILURES:
        logger.warning("final answer generation failed")
        return UNKNOWN_ANSWER
    return response.text.strip() or UNKNOWN_ANSWER


def solve(
    question_id: str,
    question: str,
    config: Config,
    stores: Stores,
    gateway: Gateway,
    embedder: Embedder,
) -> QuestionTrace:
    """Run the full loop for one question and return its trace.

    Steps run in plan order; each step's answer is appended to the list
    its successors' ``#j`` placeholders resolve against. Budget exhaustion
    does not raise: it produces a partial trace with status
    ``budget_exceeded`` and the UNKNOWN final answer.
    """
    gw = gateway.with_budget(config.llm_budget)
    trace = QuestionTrace(question_id=question_id, question=question)
    try:
        try:
            if config.decomposition:
                plan = decompose(question, gw, cap=config.max_subquestions)
            else:
                plan = single_question_plan(question, config.max_subquestions)
                plan.warnings.append("decompose:disabled")
            trace.plan = plan
            if plan.degraded:
                trace.events.append("decompose:degraded")

            answers: list[str] = []
            text_refs = set(placeholder_refs(question))
            for index, sub_question in enumerate(plan.sub_questions, start=1):
                sub = _solve_step(index, sub_question, answers, text_refs,
                                  question_id, config, stores, gw, embedder)
                trace.sub_answers.append(sub)
                answers.append(sub.answer)
        finally:
            # the memory of the steps that ran, whether or not every step did
            trace.memory = assemble_graph_memory(trace.sub_answers, stores.graph)
        trace.final_answer = generate_final_answer(question, trace.memory, gw)
    except BudgetExceeded as exc:
        trace.status = "budget_exceeded"
        trace.error = str(exc)
        trace.final_answer = UNKNOWN_ANSWER
        trace.events.append("budget:exceeded")
    trace.llm_calls = gw.budget.calls
    trace.prompt_tokens = gw.budget.prompt_tokens
    trace.completion_tokens = gw.budget.completion_tokens
    return trace


def _solve_step(
    index: int,
    sub_question: str,
    answers: list[str],
    text_refs: set[int],
    question_id: str,
    config: Config,
    stores: Stores,
    gw: Gateway,
    embedder: Embedder,
) -> SubAnswer:
    """One step: the read stage here, then, unless the retrieved triples
    answer it, the fallback stage and ``_commit``."""
    events: list[str] = []
    rewritten = rewrite(sub_question, answers, gw, events, enabled=config.rewriting,
                        text_refs=text_refs)
    hits, candidates = retrieve_for_subquestion(rewritten, stores, config.k_triples, embedder)
    answer, used = answer_from_triples(rewritten, candidates, gw, events)
    sub = SubAnswer(index=index, sub_question=sub_question, rewritten_question=rewritten,
                    retrieved=hits, answerable_from_graph=bool(used), answer=answer,
                    used_triple_ids=used, events=events)
    if not used:
        sub.fallback = fallback_answer_from_docs(
            rewritten, stores, gw, embedder, config.k_docs, events,
            char_budget=config.extract_char_budget,
        )
        _commit(sub, question_id, config, stores, gw, embedder)
    return sub


def _commit(sub: SubAnswer, question_id: str, config: Config, stores: Stores,
            gw: Gateway, embedder: Embedder) -> None:
    """The commit stage of a step that fell back: write the extracted
    triples back, cite the document answer with the triples written, and,
    if any were, retry once over the refreshed graph. A retry that answers
    replaces the answer and its evidence. The only stage that writes the
    graph and the triple index."""
    fallback = sub.fallback
    if config.graph_update:
        update_graph_with_new_triples(stores, fallback, question_id, sub.index, embedder)
    else:
        sub.events.append("update:disabled")
    sub.answer, sub.used_triple_ids = fallback.document_answer, list(fallback.written_back_ids)
    if fallback.written_back_ids:
        sub.retrieved_after_update, candidates = retrieve_for_subquestion(
            sub.rewritten_question, stores, config.k_triples, embedder
        )
        answer, used = answer_from_triples(sub.rewritten_question, candidates, gw, sub.events)
        if used:
            sub.answerable_from_graph, sub.answer, sub.used_triple_ids = True, answer, used


# -- trace serialization ---------------------------------------------------


def trace_to_dict(trace: QuestionTrace) -> dict:
    """Canonical trace form: fixed key order, no wall-clock values, so a
    deterministic run serializes byte-identically. The plan and each
    sub-answer keep their dataclass fields' declaration order."""
    return {
        "schema": TRACE_SCHEMA,
        "question_id": trace.question_id,
        "question": trace.question,
        "status": trace.status,
        "error": trace.error,
        "plan": None if trace.plan is None else asdict(trace.plan),
        "sub_answers": [asdict(sub) for sub in trace.sub_answers],
        "memory": [
            {
                "step": step,
                "id": triple.id,
                "head": triple.head,
                "relation": triple.relation,
                "tail": triple.tail,
            }
            for step, triple in trace.memory
        ],
        "final_answer": trace.final_answer,
        "events": list(trace.events),
        "usage": {
            "llm_calls": trace.llm_calls,
            "prompt_tokens": trace.prompt_tokens,
            "completion_tokens": trace.completion_tokens,
        },
    }


def trace_to_json(trace: QuestionTrace) -> str:
    return json.dumps(trace_to_dict(trace), ensure_ascii=False, indent=2) + "\n"


def write_trace(trace: QuestionTrace, directory: str | Path) -> Path:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{trace.question_id}.json"
    path.write_text(trace_to_json(trace), encoding="utf-8")
    return path


def validate_trace_dict(data: dict) -> None:
    """Raise ValueError when a serialized trace violates the schema."""
    def _need(cond: bool, message: str) -> None:
        if not cond:
            raise ValueError(f"invalid trace: {message}")

    _need(isinstance(data, dict), "not an object")
    _need(data.get("schema") == TRACE_SCHEMA, "bad schema tag")
    for key in ("question_id", "question", "status", "final_answer"):
        _need(isinstance(data.get(key), str), f"{key} must be a string")
    _need(data["status"] in ("ok", "budget_exceeded"), "unknown status")
    plan = data.get("plan")
    _need(plan is None or isinstance(plan, dict), "plan must be object or null")
    if isinstance(plan, dict):
        _need(
            isinstance(plan.get("sub_questions"), list) and plan["sub_questions"],
            "plan needs sub_questions",
        )
    subs = data.get("sub_answers")
    _need(isinstance(subs, list), "sub_answers must be a list")
    if data["status"] == "ok" and isinstance(plan, dict):
        _need(len(subs) == len(plan["sub_questions"]), "incomplete sub_answers in an ok trace")
    for sub in subs:
        _need(isinstance(sub, dict), "sub answer must be object")
        _need(isinstance(sub.get("index"), int), "sub answer needs index")
        _need(isinstance(sub.get("answerable_from_graph"), bool), "needs answerable flag")
        _need(isinstance(sub.get("used_triple_ids"), list), "needs used_triple_ids")
        if not sub["answerable_from_graph"]:
            _need(isinstance(sub.get("fallback"), dict), "unanswerable step needs fallback event")
        if sub.get("fallback") is not None:
            _need(
                isinstance(sub["fallback"].get("retrieved_doc_ids"), list),
                "fallback needs retrieved_doc_ids",
            )
    memory = data.get("memory")
    _need(isinstance(memory, list), "memory must be a list")
    memory_ids = [entry.get("id") for entry in memory]
    _need(len(memory_ids) == len(set(memory_ids)), "memory ids must be unique")
    used_union: set[int] = set()
    for sub in subs:
        used_union.update(sub["used_triple_ids"])
    _need(set(memory_ids) == used_union, "memory ids must equal union of used ids")
    usage = data.get("usage")
    _need(isinstance(usage, dict) and isinstance(usage.get("llm_calls"), int), "usage block missing")
