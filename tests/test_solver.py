import dataclasses
import json
import random

import pytest

from subhop.config import Config
from subhop.embedders import Embedding
from subhop.errors import SubhopError
from subhop.indexer import Corpus, split_for_extraction
from subhop.kg import KnowledgeGraph
from subhop.solver import (
    FallbackEvent,
    SubAnswer,
    answer_from_triples,
    assemble_graph_memory,
    fallback_answer_from_docs,
    generate_final_answer,
    render_memory,
    retrieve_for_subquestion,
    solve,
    trace_to_dict,
    trace_to_json,
    update_graph_with_new_triples,
    validate_trace_dict,
)
from subhop.stores import Stores
from subhop.stub import rule
from subhop.vector import VectorIndex, verbalize_triple

from helpers import (
    REGISTRY,
    TWO_HOP_QID,
    TWO_HOP_QUESTION,
    FixtureEmbedder,
    append_row,
    basis_vector,
    build_two_hop_world,
    index_rows,
    stub_gateway,
    two_hop_ask_rules,
)


def small_stores():
    graph = KnowledgeGraph()
    dim = 4
    embedder = FixtureEmbedder({"q near 1": basis_vector(1, dim)})
    index = VectorIndex(dimension=dim)
    for i, (h, r, t) in enumerate([("A", "r", "B"), ("C", "r", "D"), ("E", "r", "F")]):
        tid, _ = graph.insert(h, r, t, "doc:d", 0)
        embedder.add(verbalize_triple(graph.lookup(tid)), basis_vector(i, dim))
        assert append_row(index, verbalize_triple(graph.lookup(tid)), embedder) == tid
    stores = Stores(graph=graph, triple_index=index, passage_index=VectorIndex(dimension=dim),
                    corpus=Corpus.from_documents([]))
    return stores, embedder


def test_retrieve_nearest_triple():
    stores, embedder = small_stores()
    hits, candidates = retrieve_for_subquestion("q near 1", stores, 1, embedder)
    assert [key for key, _ in hits] == [1]
    assert hits[0][1] == pytest.approx(1.0)
    assert candidates == [(stores.graph.lookup(1), hits[0][1])]


def test_retrieve_k_beyond_size_and_determinism():
    stores, embedder = small_stores()
    hits, candidates = retrieve_for_subquestion("q near 1", stores, 5, embedder)
    assert len(hits) == 3
    assert (hits, candidates) == retrieve_for_subquestion("q near 1", stores, 5, embedder)


def _candidates(graph, ids_scores):
    return [(graph.lookup(tid), score) for tid, score in ids_scores]


def test_answer_from_triples_happy_path():
    graph = KnowledgeGraph()
    graph.insert("Inception", "directed by", "Christopher Nolan", "doc:d1", 0)
    gw = stub_gateway([
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]}),
    ])
    answer, used = answer_from_triples(
        "Who directed Inception?", _candidates(graph, [(0, 1.0)]), gw, []
    )
    assert (answer, used) == ("Christopher Nolan", [0])
    assert "0. Inception | directed by | Christopher Nolan" in gw.backend.log[0]["prompt"]


def test_answer_from_triples_empty_candidates_no_llm_call():
    gw = stub_gateway([])
    assert answer_from_triples("q", [], gw, []) == ("", [])
    assert gw.backend.log == []


def test_answer_from_triples_filters_foreign_ids_and_coerces():
    graph = KnowledgeGraph()
    graph.insert("A", "r", "B", "doc:d", 0)
    gw = stub_gateway([
        rule("answer_from_triples",
             {"answerable": True, "answer": "B", "used_triple_ids": [99]}),
    ])
    events = []
    _, used = answer_from_triples("q", _candidates(graph, [(0, 0.5)]), gw, events)
    assert used == []
    assert "answer:coerced_unanswerable" in events


def test_answer_from_triples_drops_boolean_ids():
    graph = KnowledgeGraph()
    graph.insert("A", "r", "B", "doc:d", 0)
    graph.insert("C", "r", "D", "doc:d", 0)
    candidates = _candidates(graph, [(0, 0.9), (1, 0.5)])
    gw = stub_gateway([
        rule("answer_from_triples",
             {"answerable": True, "answer": "x", "used_triple_ids": [True]}),
        rule("answer_from_triples",
             {"answerable": True, "answer": "x", "used_triple_ids": [False, 1]}),
    ])
    events = []
    assert answer_from_triples("q", candidates, gw, events) == ("x", [])
    assert events == ["answer:evidence_filtered", "answer:coerced_unanswerable"]
    result = answer_from_triples("q", candidates, gw, [])
    assert result == ("x", [1]) and type(result[1][0]) is int


def test_answer_from_triples_orders_used_ids_by_rank():
    graph = KnowledgeGraph()
    for h in ("A", "B", "C"):
        graph.insert(h, "r", h.lower(), "doc:d", 0)
    gw = stub_gateway([
        rule("answer_from_triples",
             {"answerable": True, "answer": "x", "used_triple_ids": [0, 2]}),
    ])
    # candidate rank order: 2 first, then 0
    _, used = answer_from_triples("q", _candidates(graph, [(2, 0.9), (0, 0.1)]), gw, [])
    assert used == [2, 0]


def test_answer_from_triples_parse_failure_is_unanswerable():
    graph = KnowledgeGraph()
    graph.insert("A", "r", "B", "doc:d", 0)
    gw = stub_gateway([
        rule("answer_from_triples", "prose"),
        rule("answer_from_triples", "more prose"),
    ])
    assert answer_from_triples("q", _candidates(graph, [(0, 1.0)]), gw, []) == ("", [])


def test_fallback_answer_from_docs(tmp_path):
    world = build_two_hop_world(tmp_path)
    gw = stub_gateway([
        rule("answer_from_docs", {"answer": "Emma Thomas"}),
        rule("extract_triples", [["Christopher Nolan", "spouse", "Emma Thomas"]]),
    ])
    event = fallback_answer_from_docs(
        "Who is the spouse of Christopher Nolan?", world.stores, gw, world.embedder, 5, []
    )
    assert event.document_answer == "Emma Thomas"
    assert event.retrieved_doc_ids[0] == "d2"
    assert event.new_triples == [("Christopher Nolan", "spouse", "Emma Thomas")]
    assert event.written_back_ids == []


class Untouchable:
    """Fails on any attribute access and on ``len``."""

    def __getattribute__(self, name):
        raise AssertionError(f"the fallback stage read .{name}")

    def __len__(self):
        raise AssertionError("the fallback stage took len()")


def test_fallback_reads_neither_the_graph_nor_the_triple_index(tmp_path):
    # the fallback reads only the corpus and the passage index, which
    # nothing writes after load, so it needs no ordering against write-backs
    world = build_two_hop_world(tmp_path)
    question = "Who is the spouse of Christopher Nolan?"

    def run(stores):
        gw = stub_gateway([
            rule("answer_from_docs", {"answer": "Emma Thomas"}),
            rule("extract_triples", [["Christopher Nolan", "spouse", "Emma Thomas"]]),
        ])
        events = []
        return fallback_answer_from_docs(question, stores, gw, world.embedder, 5, events), events

    blind = dataclasses.replace(world.stores, graph=Untouchable(), triple_index=Untouchable())
    assert run(blind) == run(world.stores)


def test_fallback_extracts_the_document_block_per_chunk(tmp_path):
    world = build_two_hop_world(tmp_path)
    question = "Who is the spouse of Christopher Nolan?"

    def extract_prompts(**budget):
        gw = stub_gateway([
            rule("answer_from_docs", {"answer": "Emma Thomas"}),
            rule("extract_triples", [["A", "r", "B"]], repeat=True),
        ])
        event = fallback_answer_from_docs(
            question, world.stores, gw, world.embedder, 3, [], **budget
        )
        prompts = [e["prompt"] for e in gw.backend.log if e["template"] == "extract_triples"]
        assert event.new_triples == [("A", "r", "B")] * len(prompts)
        return prompts, event.retrieved_doc_ids

    whole, doc_ids = extract_prompts()
    by_id = {d.id: d for d in world.stores.corpus.documents}
    documents = [by_id[d] for d in doc_ids]
    doc_block = "\n\n".join(f"[{d.id}] {d.title}\n{d.text}" for d in documents)
    # within the budget the block goes out whole, as one request
    assert whole == [REGISTRY.render("extract_triples", {"document": doc_block})]
    chunks = split_for_extraction(doc_block, 120)
    assert len(chunks) > 1
    chunked, _ = extract_prompts(char_budget=120)
    assert chunked == [REGISTRY.render("extract_triples", {"document": c}) for c in chunks]


def test_fallback_empty_corpus(tmp_path):
    world = build_two_hop_world(tmp_path)
    world.stores.corpus.documents.clear()
    events = []
    event = fallback_answer_from_docs(
        "q?", world.stores, stub_gateway([]), world.embedder, 5, events
    )
    assert event.document_answer == "UNKNOWN"
    assert event.retrieved_doc_ids == [] and event.new_triples == []
    assert "fallback:empty_corpus" in events


def test_fallback_llm_failure_records_event(tmp_path):
    world = build_two_hop_world(tmp_path)
    world.embedder.add("weird question", basis_vector(6, 8))
    events = []
    event = fallback_answer_from_docs(
        "weird question", world.stores, stub_gateway([]), world.embedder, 2, events
    )
    assert event.document_answer == "UNKNOWN"
    assert event.new_triples == []
    assert "fallback:answer_failure" in events and "fallback:extract_failure" in events
    assert len(event.retrieved_doc_ids) == 2


def test_update_graph_with_new_triples_dedup(tmp_path):
    world = build_two_hop_world(tmp_path)
    graph, index = world.stores.graph, world.stores.triple_index
    before = len(graph)
    world.embedder.add("New Entity relates to Other", basis_vector(7, 8))
    event = FallbackEvent(new_triples=[
        ("Inception", "directed by", "Christopher Nolan"),  # duplicate of id 0
        ("New Entity", "relates to", "Other"),
    ])
    update_graph_with_new_triples(world.stores, event, "q77", 2, world.embedder)
    assert len(graph) == before + 1
    assert len(event.written_back_ids) == 1
    new_id = event.written_back_ids[0]
    assert graph.lookup(new_id).provenance == "dynamic:q77"
    assert graph.lookup(new_id).created_at_step == 2
    assert list(index.entries()) == [(t.id, verbalize_triple(t)) for t in graph]


@pytest.mark.parametrize("failure, error, match", [
    ("raises", RuntimeError, "embedder down"),
    ("wrong_dimension", SubhopError, "vector of dimension 2 does not fit dimension 8"),
], ids=["raises-RuntimeError", "wrong_dimension-DimensionMismatch"])
def test_failed_write_back_embed_keeps_graph_and_index_in_sync(tmp_path, failure, error, match):
    world = build_two_hop_world(tmp_path)
    graph, index = world.stores.graph, world.stores.triple_index
    before = len(graph)
    world.embedder.add("Emma Thomas born in London", basis_vector(6, 8))

    class FailsOnSecondTriple:
        name = world.embedder.name
        dimension = world.embedder.dimension

        def embed(self, text):
            if text == "Emma Thomas studied at UCL":
                if failure == "raises":
                    raise RuntimeError("embedder down")
                return Embedding.of([1.0, 0.0])
            return world.embedder.embed(text)

    event = FallbackEvent(new_triples=[
        ("Emma  Thomas", "born in", "London"),
        ("Emma Thomas", "studied at", "UCL"),
        ("Emma Thomas", "spouse", "Christopher Nolan"),
    ])
    with pytest.raises(error, match=match):
        update_graph_with_new_triples(world.stores, event, "q9", 2, FailsOnSecondTriple())
    assert len(graph) == len(index) == before + 1
    assert event.written_back_ids == [before]
    assert list(index.entries()) == [(t.id, verbalize_triple(t)) for t in graph]


def test_update_noop_on_empty_event(tmp_path):
    world = build_two_hop_world(tmp_path)
    before = len(world.stores.graph)
    event = FallbackEvent()
    update_graph_with_new_triples(world.stores, event, "q1", 1, world.embedder)
    assert event.written_back_ids == [] and len(world.stores.graph) == before


@pytest.mark.parametrize("extra", ["graph", "index"])
def test_write_back_into_stores_of_unequal_length_raises_and_writes_nothing(tmp_path, extra):
    world = build_two_hop_world(tmp_path)
    graph, index = world.stores.graph, world.stores.triple_index
    world.embedder.add("Emma Thomas born in London", basis_vector(6, 8))
    if extra == "graph":
        graph.insert("Emma Thomas", "born in", "London", "doc:d2", 0)
    else:
        index.extend(["Emma Thomas born in London"], world.embedder)
    triples, rows = list(graph), index_rows(index)
    event = FallbackEvent(new_triples=[("Christopher Nolan", "spouse", "Emma Thomas")])
    with pytest.raises(ValueError, match="graph holds"):
        update_graph_with_new_triples(world.stores, event, "q1", 2, world.embedder)
    assert list(graph) == triples and index_rows(index) == rows
    assert event.written_back_ids == []


def test_written_back_triple_is_retrievable(tmp_path):
    world = build_two_hop_world(tmp_path)
    event = FallbackEvent(new_triples=[("Christopher Nolan", "spouse", "Emma Thomas")])
    update_graph_with_new_triples(world.stores, event, "q1", 2, world.embedder)
    hits, _ = retrieve_for_subquestion(
        "Who is the spouse of Christopher Nolan?", world.stores, 1, world.embedder
    )
    assert [key for key, _ in hits] == event.written_back_ids


def _sub(index, used):
    return SubAnswer(
        index=index, sub_question=f"q{index}", rewritten_question=f"q{index}",
        retrieved=[], answerable_from_graph=True, answer="a", used_triple_ids=used,
    )


def test_assemble_graph_memory_earliest_attribution():
    graph = KnowledgeGraph()
    for i in range(10):
        graph.insert(f"H{i}", "r", f"T{i}", "doc:d", 0)
    memory = assemble_graph_memory([_sub(1, [3]), _sub(2, [3, 7])], graph)
    assert [(step, t.id) for step, t in memory] == [(1, 3), (2, 7)]


def test_assemble_graph_memory_empty():
    memory = assemble_graph_memory([_sub(1, []), _sub(2, [])], KnowledgeGraph())
    assert memory == []
    assert render_memory(memory) == "(no evidence retrieved)"


def test_assemble_graph_memory_unknown_id():
    with pytest.raises(SubhopError, match="unknown triple id 0"):
        assemble_graph_memory([_sub(1, [0])], KnowledgeGraph())


def test_memory_id_set_equals_union_property():
    rng = random.Random(17)
    graph = KnowledgeGraph()
    for i in range(40):
        graph.insert(f"H{i}", "r", f"T{i}", "doc:d", 0)
    for _ in range(50):
        subs = []
        for step in range(1, rng.randint(2, 6)):
            ids = rng.sample(range(40), k=rng.randint(0, 6))
            subs.append(_sub(step, ids))
        memory = assemble_graph_memory(subs, graph)
        union = set().union(*[set(s.used_triple_ids) for s in subs]) if subs else set()
        ids = [t.id for _, t in memory]
        assert set(ids) == union
        assert len(ids) == len(set(ids))
        # earliest attribution: a triple's step is the first step listing it
        for step, triple in memory:
            first = min(s.index for s in subs if triple.id in s.used_triple_ids)
            assert step == first


def test_generate_final_answer_renders_memory():
    graph = KnowledgeGraph()
    graph.insert("Inception", "directed by", "Christopher Nolan", "doc:d1", 0)
    graph.insert("Christopher Nolan", "spouse", "Emma Thomas", "dynamic:q1", 2)
    memory = assemble_graph_memory([_sub(1, [0]), _sub(2, [1])], graph)
    gw = stub_gateway([rule("final_answer", "Emma Thomas")])
    answer = generate_final_answer("who?", memory, gw)
    assert answer == "Emma Thomas"
    prompt = gw.backend.log[0]["prompt"]
    assert "step 1: Inception | directed by | Christopher Nolan" in prompt
    assert "step 2: Christopher Nolan | spouse | Emma Thomas" in prompt


def test_generate_final_answer_empty_memory_still_calls():
    gw = stub_gateway([rule("final_answer", "UNKNOWN")])
    assert generate_final_answer("q", [], gw) == "UNKNOWN"
    assert "(no evidence retrieved)" in gw.backend.log[0]["prompt"]


def test_generate_final_answer_llm_failure():
    assert generate_final_answer("q", [], stub_gateway([])) == "UNKNOWN"


# -- end-to-end solve --------------------------------------------------------


def test_solve_two_hop_fixture(tmp_path):
    world = build_two_hop_world(tmp_path)
    gw = world.ask_gateway(two_hop_ask_rules())
    trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw,
                  world.embedder)

    assert trace.status == "ok"
    assert trace.final_answer == "Emma Thomas"
    assert len(trace.sub_answers) == 2

    hop1, hop2 = trace.sub_answers
    assert hop1.answerable_from_graph is True
    assert hop1.fallback is None
    assert hop1.used_triple_ids == [0]

    assert hop2.fallback is not None
    assert hop2.fallback.retrieved_doc_ids[0] == "d2"
    assert hop2.fallback.written_back_ids == [3]
    assert hop2.answerable_from_graph is True  # re-retrieval succeeded
    assert hop2.used_triple_ids == [3]
    assert hop2.retrieved_after_update is not None
    assert hop2.retrieved_after_update[0][0] == 3

    new_triple = world.stores.graph.lookup(3)
    assert new_triple.provenance == f"dynamic:{TWO_HOP_QID}"
    assert new_triple.created_at_step == 2

    assert [t.id for _, t in trace.memory] == [0, 3]
    assert trace.llm_calls == 8
    assert trace.prompt_tokens > 0


def _solve_two_hop(tmp_path, **config):
    """The two-hop question solved under ``config``: its trace and the
    LLM requests, in order."""
    world = build_two_hop_world(tmp_path, **config)
    gw = world.ask_gateway(two_hop_ask_rules())
    trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw,
                  world.embedder)
    return trace, gw.backend.log


@pytest.mark.parametrize("k", [1, 2])
def test_k_triples_sets_the_triples_a_step_retrieves(tmp_path, k):
    trace, _ = _solve_two_hop(tmp_path, k_triples=k)
    assert [len(sub.retrieved) for sub in trace.sub_answers] == [k, k]
    assert len(trace.sub_answers[1].retrieved_after_update) == k


@pytest.mark.parametrize("k", [1, 2])
def test_k_docs_sets_the_passages_a_fallback_retrieves(tmp_path, k):
    trace, _ = _solve_two_hop(tmp_path, k_docs=k)
    assert [len(sub.fallback.retrieved_doc_ids) for sub in trace.sub_answers
            if sub.fallback] == [k]


def test_max_subquestions_caps_the_plan(tmp_path):
    trace, requests = _solve_two_hop(tmp_path, max_subquestions=1)
    assert requests[0]["template"] == "decompose"
    assert "Use at most 1 sub-questions." in requests[0]["prompt"]
    assert trace.plan.sub_questions == ["Who directed Inception?"]
    assert trace.plan.warnings == ["decompose:truncated"]
    assert trace.final_answer == "Emma Thomas"


@pytest.mark.parametrize("rewriting", [True, False])
def test_rewriting_off_makes_no_rewrite_call(tmp_path, rewriting):
    trace, requests = _solve_two_hop(tmp_path, rewriting=rewriting)
    assert [entry["template"] for entry in requests].count("rewrite") == int(rewriting)
    assert trace.sub_answers[1].rewritten_question == "Who is the spouse of Christopher Nolan?"


def test_solve_single_hop_from_graph(tmp_path):
    world = build_two_hop_world(tmp_path)
    gw = world.ask_gateway([
        rule("decompose", ["Who directed Inception?"]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]}),
        rule("final_answer", "Christopher Nolan"),
    ])
    trace = solve("q-single", "Who directed Inception?", world.config, world.stores,
                  gw, world.embedder)
    assert trace.status == "ok"
    assert len(trace.sub_answers) == 1
    assert trace.sub_answers[0].fallback is None
    assert [t.id for _, t in trace.memory] == [0]
    assert trace.final_answer == "Christopher Nolan"
    assert trace.llm_calls == 3


HIT_QUESTION = "Who sang the #1 hit of 1999?"


@pytest.mark.parametrize("decomposition", [False, True])
def test_solve_question_citing_a_number_is_text(tmp_path, decomposition):
    # with decomposition on, the stub's plan keeps "#1" in step 1
    world = build_two_hop_world(tmp_path, decomposition=decomposition)
    world.embedder.add(HIT_QUESTION, basis_vector(0, 8))
    plan = [rule("decompose", [HIT_QUESTION])] if decomposition else []
    gw = world.ask_gateway(plan + [
        rule("answer_from_triples",
             {"answerable": True, "answer": "Prince", "used_triple_ids": [0]}),
        rule("final_answer", "Prince"),
    ])
    trace = solve("q-hit", HIT_QUESTION, world.config, world.stores, gw, world.embedder)
    assert trace.status == "ok"
    assert "dependency:missing" not in trace.events
    assert trace.sub_answers[0].rewritten_question == HIT_QUESTION
    assert "rewrite" not in [entry["template"] for entry in gw.backend.log]
    assert trace.sub_answers[0].events == []
    assert trace.llm_calls == len(gw.backend.log) == 2 + decomposition
    assert trace.final_answer == "Prince"
    validate_trace_dict(trace_to_dict(trace))


def test_solve_keeps_a_ref_the_question_holds_as_text(tmp_path):
    world = build_two_hop_world(tmp_path)
    steps = ["Which song was the #1 hit of 1999?", "Who wrote #1?"]
    smoothed = "Who wrote the #1 hit Believe?"
    for text in (steps[0], smoothed):
        world.embedder.add(text, basis_vector(0, 8))
    gw = world.ask_gateway([
        rule("decompose", steps),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Believe", "used_triple_ids": [0]}),
        rule("rewrite", smoothed),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Cher", "used_triple_ids": [0]}),
        rule("final_answer", "Cher"),
    ])
    trace = solve("q-hit", HIT_QUESTION, world.config, world.stores, gw, world.embedder)
    assert trace.status == "ok" and trace.events == []
    assert trace.plan.sub_questions == steps
    assert [sub.rewritten_question for sub in trace.sub_answers] == [steps[0], smoothed]
    assert [sub.events for sub in trace.sub_answers] == [[], []]
    assert trace.final_answer == "Cher"


def test_solve_budget_exceeded_partial_trace(tmp_path):
    world = build_two_hop_world(tmp_path, llm_budget=2)
    gw = world.ask_gateway(two_hop_ask_rules())
    trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw,
                  world.embedder)
    assert trace.status == "budget_exceeded"
    assert trace.final_answer == "UNKNOWN"
    assert len(trace.sub_answers) == 1  # hop 1 completed before exhaustion
    assert trace.llm_calls == 2
    validate_trace_dict(trace_to_dict(trace))


def test_solve_graph_monotone_and_no_mutation(tmp_path):
    world = build_two_hop_world(tmp_path)
    before = {t.id: t for t in world.stores.graph}
    count_before = len(world.stores.graph)
    gw = world.ask_gateway(two_hop_ask_rules())
    solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw, world.embedder)
    assert len(world.stores.graph) >= count_before
    for tid, triple in before.items():
        assert world.stores.graph.lookup(tid) == triple


def test_trace_serialization_deterministic(tmp_path):
    dumps = []
    for run in range(2):
        run_dir = tmp_path / f"run{run}"
        run_dir.mkdir()
        world = build_two_hop_world(run_dir)
        gw = world.ask_gateway(two_hop_ask_rules())
        trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw,
                      world.embedder)
        dumps.append(trace_to_json(trace))
    assert dumps[0] == dumps[1]
    # the key order follows the dataclasses' field order
    data = json.loads(dumps[0])
    assert list(data) == ["schema", "question_id", "question", "status", "error", "plan",
                          "sub_answers", "memory", "final_answer", "events", "usage"]
    assert list(data["plan"]) == ["original_question", "sub_questions", "cap", "degraded",
                                  "warnings"]
    fell_back = data["sub_answers"][1]
    assert list(fell_back) == [
        "index", "sub_question", "rewritten_question", "retrieved", "retrieved_after_update",
        "answerable_from_graph", "answer", "used_triple_ids", "fallback", "events",
    ]
    assert list(fell_back["fallback"]) == ["retrieved_doc_ids", "new_triples",
                                           "written_back_ids", "document_answer"]


def test_validate_trace_dict_flags_violations(tmp_path):
    world = build_two_hop_world(tmp_path)
    gw = world.ask_gateway(two_hop_ask_rules())
    trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gw,
                  world.embedder)
    data = trace_to_dict(trace)
    validate_trace_dict(data)

    broken = trace_to_dict(trace)
    broken["sub_answers"][1]["fallback"] = None
    broken["sub_answers"][1]["answerable_from_graph"] = False
    with pytest.raises(ValueError):
        validate_trace_dict(broken)

    broken2 = trace_to_dict(trace)
    broken2["memory"] = []
    with pytest.raises(ValueError):
        validate_trace_dict(broken2)
