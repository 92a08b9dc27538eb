import json

import pytest

from subhop.embedders import HashedBagEmbedder
from subhop.errors import ParseError
from subhop.indexer import (
    Corpus,
    Document,
    build_graph_index,
    extract_triples,
    ingest_corpus,
    split_for_extraction,
    validate_triple_rows,
)
from subhop.kg import KnowledgeGraph
from subhop.stores import Stores, load_stores, save_stores
from subhop.stub import rule
from subhop.vector import verbalize_triple

from helpers import TWO_HOP_CORPUS, build_two_hop_world, stub_gateway, write_corpus


def test_ingest_three_lines_in_order(tmp_path):
    path = write_corpus(tmp_path / "c.jsonl", [
        {"id": "a", "title": "A", "text": "text a"},
        {"id": "b", "title": "", "text": "text b"},
        {"id": "c", "title": "C", "text": "text c"},
    ])
    corpus = ingest_corpus(path)
    assert [d.id for d in corpus.documents] == ["a", "b", "c"]
    assert [d.text for d in corpus.documents] == ["text a", "text b", "text c"]


def test_ingest_missing_text_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"id": "a", "title": "A", "text": "ok"}) + "\n"
        + json.dumps({"id": "b", "title": "B"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        ingest_corpus(path)
    assert exc.value.line == 2


def test_ingest_duplicate_id(tmp_path):
    path = write_corpus(tmp_path / "c.jsonl", [
        {"id": "d1", "title": "", "text": "x"},
        {"id": "d1", "title": "", "text": "y"},
    ])
    with pytest.raises(ParseError, match="duplicate document id 'd1'"):
        ingest_corpus(path)


def test_extract_triples_stub_echo():
    gw = stub_gateway([rule("extract_triples", [["Inception", "directed by", "Christopher Nolan"]])])
    assert extract_triples("some text", gw) == [("Inception", "directed by", "Christopher Nolan")]


def test_extract_drops_empty_field_rows():
    gw = stub_gateway([rule("extract_triples", [["A", "r", ""], ["B", "s", "C"]])])
    assert extract_triples("text", gw) == [("B", "s", "C")]


def test_extract_empty_list_is_fine():
    gw = stub_gateway([rule("extract_triples", [])])
    assert extract_triples("text", gw) == []


def test_validate_triple_rows_filters_garbage():
    raw = [["A", "r", "B"], ["bad"], "nope", ["x", 1, "y"], ["  ", "r", "t"], ["C", "r", "D"]]
    assert validate_triple_rows(raw) == [("A", "r", "B"), ("C", "r", "D")]
    assert validate_triple_rows({"not": "a list"}) == []


def test_split_for_extraction_respects_paragraphs():
    text = "para one\n\npara two\n\npara three"
    assert split_for_extraction(text, char_budget=1000) == [text]
    chunks = split_for_extraction(text, char_budget=12)
    assert all(len(c) <= 12 for c in chunks)
    assert "".join(chunks).replace("\n\n", "") == text.replace("\n\n", "")


def test_split_hard_splits_oversized_paragraph():
    text = "x" * 25
    chunks = split_for_extraction(text, char_budget=10)
    assert chunks == ["x" * 10, "x" * 10, "x" * 5]


class NoSplit(str):
    def split(self, *args):
        raise AssertionError("reached the chunking loop")


@pytest.mark.parametrize("budget", [0, -3])
def test_split_rejects_budget_below_one(budget):
    # the loop never ends for such a budget, so the check must come first
    with pytest.raises(ValueError, match="char_budget"):
        split_for_extraction(NoSplit("some text"), char_budget=budget)


def test_long_document_extracted_per_chunk():
    text = "alpha alpha\n\nbeta beta"
    gw = stub_gateway([
        rule("extract_triples", [["A", "is", "first"]], contains="alpha"),
        rule("extract_triples", [["B", "is", "second"]], contains="beta"),
    ])
    rows = extract_triples(text, gw, char_budget=12)
    assert rows == [("A", "is", "first"), ("B", "is", "second")]


def _corpus(records):
    return Corpus.from_documents([Document(**r) for r in records])


def test_build_graph_index_counts_duplicates():
    corpus = _corpus([
        {"id": "d1", "title": "", "text": "first doc"},
        {"id": "d2", "title": "", "text": "second doc"},
    ])
    gw = stub_gateway([
        rule("extract_triples",
             [["A", "r", "B"], ["C", "r", "D"]], contains="first doc"),
        rule("extract_triples",
             [["a", "R", "b"]], contains="second doc"),
    ])
    embedder = HashedBagEmbedder(dimension=32)
    graph, triple_index, passage_index, report = build_graph_index(corpus, gw, embedder)
    assert report.triples_extracted == 3
    assert report.duplicates == 1
    assert report.stored == 2
    assert len(graph) == 2
    assert len(passage_index) == 0  # embedded by the first fallback, not by the build
    assert len(Stores(graph, triple_index, passage_index, corpus).passages(embedder)) == 2
    # dedup kept the first surface form, provenance of the first doc
    assert graph.lookup(0).provenance == "doc:d1"


def test_build_graph_index_empty_corpus():
    corpus = _corpus([])
    gw = stub_gateway([])
    embedder = HashedBagEmbedder(dimension=16)
    graph, triple_index, passage_index, report = build_graph_index(corpus, gw, embedder)
    assert len(graph) == 0 and len(triple_index) == 0 and len(passage_index) == 0
    assert report.documents == 0 and report.failures == []


def test_build_graph_index_records_failures():
    corpus = _corpus([
        {"id": "good", "title": "", "text": "fine doc"},
        {"id": "bad", "title": "", "text": "broken doc"},
    ])
    gw = stub_gateway([
        rule("extract_triples", [["A", "r", "B"]], contains="fine doc"),
        rule("extract_triples", "not json", contains="broken doc"),
        rule("extract_triples", "still not json", contains="broken doc"),
    ])
    embedder = HashedBagEmbedder(dimension=16)
    graph, _, _, report = build_graph_index(corpus, gw, embedder)
    assert report.failures == ["doc:bad"]
    assert len(graph) == 1


def test_index_keys_equal_graph_ids():
    corpus = _corpus([
        {"id": "d1", "title": "", "text": "one"},
        {"id": "d2", "title": "", "text": "two"},
    ])
    gw = stub_gateway([
        rule("extract_triples", [["A", "r", "B"], ["C", "r", "D"]], contains="one"),
        rule("extract_triples", [["E", "r", "F"]], contains="two"),
    ])
    embedder = HashedBagEmbedder(dimension=16)
    graph, triple_index, passage_index, _ = build_graph_index(corpus, gw, embedder)
    assert list(triple_index.entries()) == [(t.id, verbalize_triple(t)) for t in graph]
    passages = Stores(graph, triple_index, passage_index, corpus).passages(embedder)
    assert passages is passage_index
    assert list(passage_index.entries()) == [(0, "one"), (1, "two")]
    for t in graph:
        assert t.provenance.startswith("doc:")
        assert t.provenance.removeprefix("doc:") in {d.id for d in corpus.documents}


def test_rebuild_is_deterministic():
    corpus = _corpus([
        {"id": "d1", "title": "T", "text": "one"},
        {"id": "d2", "title": "", "text": "two"},
    ])
    embedder = HashedBagEmbedder(dimension=16)

    def build():
        gw = stub_gateway([
            rule("extract_triples", [["A", "r", "B"]], contains="one"),
            rule("extract_triples", [["C", "r", "D"]], contains="two"),
        ])
        return build_graph_index(corpus, gw, embedder)

    graph1, _, _, report1 = build()
    graph2, _, _, report2 = build()
    assert graph1 == graph2
    assert report1 == report2


def test_concurrent_extraction_preserves_corpus_order():
    records = [{"id": f"d{i}", "title": "", "text": f"doc number {i}"} for i in range(8)]
    corpus = _corpus(records)
    embedder = HashedBagEmbedder(dimension=16)
    rules = [
        rule("extract_triples", [[f"E{i}", "in", f"doc{i}"]], contains=f"doc number {i}")
        for i in range(8)
    ]
    graph_seq, *_ = build_graph_index(corpus, stub_gateway(rules), embedder, workers=1)
    rules2 = [
        rule("extract_triples", [[f"E{i}", "in", f"doc{i}"]], contains=f"doc number {i}")
        for i in range(8)
    ]
    graph_par, *_ = build_graph_index(corpus, stub_gateway(rules2), embedder, workers=4)
    assert graph_seq == graph_par


def test_each_document_is_inserted_before_the_next_is_extracted(monkeypatch):
    corpus = _corpus([{"id": f"d{i}", "title": "", "text": f"doc number {i}"} for i in range(3)])
    gw = stub_gateway([
        rule("extract_triples", [[f"E{i}", "in", f"doc{i}"], [f"F{i}", "in", f"doc{i}"]],
             contains=f"doc number {i}")
        for i in range(3)
    ])
    events = []
    send, insert = gw.backend.send, KnowledgeGraph.insert

    def spy_send(template, prompt, variables, *args):
        events.append(("send", variables["document"][-1]))
        return send(template, prompt, variables, *args)

    def spy_insert(self, head, relation, tail, provenance, step):
        events.append(("insert", provenance[-1]))
        return insert(self, head, relation, tail, provenance, step)

    monkeypatch.setattr(gw.backend, "send", spy_send)
    monkeypatch.setattr(KnowledgeGraph, "insert", spy_insert)
    build_graph_index(corpus, gw, HashedBagEmbedder(dimension=16), workers=1)
    assert events == [event for i in "012"
                      for event in [("send", i), ("insert", i), ("insert", i)]]


def test_snapshot_pins_the_corpus_bytes_that_were_parsed(tmp_path):
    world = build_two_hop_world(tmp_path)
    edited = [dict(TWO_HOP_CORPUS[0], text="Rewritten after it was parsed.")]
    write_corpus(world.corpus_path, edited + TWO_HOP_CORPUS[1:])
    save_stores(world.stores, tmp_path / "snap", world.embedder, world.corpus_path)
    with pytest.raises(ParseError, match="changed since the snapshot was indexed"):
        load_stores(tmp_path / "snap", world.embedder)


def test_saving_a_corpus_built_in_memory_is_refused(tmp_path):
    world = build_two_hop_world(tmp_path)
    world.stores.corpus = Corpus.from_documents(list(world.stores.corpus.documents))
    with pytest.raises(ValueError, match="not read from a file"):
        save_stores(world.stores, tmp_path / "snap", world.embedder, world.corpus_path)
    assert not (tmp_path / "snap").exists()


def test_load_stores_rejects_changed_corpus(tmp_path):
    world = build_two_hop_world(tmp_path)
    save_stores(world.stores, tmp_path / "snap", world.embedder, world.corpus_path)
    write_corpus(world.corpus_path, TWO_HOP_CORPUS[:1])
    with pytest.raises(ParseError, match="changed since the snapshot was indexed"):
        load_stores(tmp_path / "snap", world.embedder)
