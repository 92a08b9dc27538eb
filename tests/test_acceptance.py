"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import functools
import json
import os
import time

import numpy as np
import pytest

from subhop.benchmark import load_dataset, run_benchmark
from subhop.cli import run
from subhop.config import Config, load_config
from subhop.embedders import HashedBagEmbedder
from subhop.kg import KnowledgeGraph
from subhop.metrics import exact_match, token_f1
from subhop.solver import (
    SubAnswer,
    assemble_graph_memory,
    solve,
    trace_to_dict,
    validate_trace_dict,
    write_trace,
)
from subhop.stores import Stores, load_graph, load_stores, save_stores
from subhop.stub import rule
from subhop.vector import VectorIndex

from helpers import (
    TWO_HOP_QID,
    TWO_HOP_QUESTION,
    FixtureEmbedder,
    append_row,
    basis_vector,
    build_benchmark_fixture,
    build_benchmark_world,
    build_two_hop_world,
    fresh_rules,
    index_rows,
    oracle_cosine_top_k,
    oracle_dedup_key,
    stub_gateway,
    two_hop_ask_rules,
    two_hop_index_rules,
    write_corpus,
    write_script,
)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")
            return result

        return wrapper

    return deco


@criterion(1, "retrieval matches brute-force oracle")
def test_retrieval_oracle():
    rng = np.random.default_rng(160801)
    started = time.perf_counter()
    for _ in range(100):
        size = int(rng.integers(1, 2001))
        vectors = {}
        texts = {}
        for key in range(size):
            vec = rng.normal(size=16)
            roll = rng.random()
            if roll < 0.01:
                vec = np.zeros(16)  # zero-norm rows must score 0
            elif roll < 0.05 and key > 0:
                vec = np.array(vectors[key - 1])  # exact duplicate -> tie
            vectors[key] = vec.tolist()
            texts[f"e{key}"] = vectors[key]
        query = rng.normal(size=16).tolist()
        texts["q"] = query
        embedder = FixtureEmbedder(texts)
        index = VectorIndex(dimension=16)
        for key in range(size):
            append_row(index, f"e{key}", embedder)
        k = int(rng.integers(1, 11))
        got = index.top_k("q", k, embedder)
        want = oracle_cosine_top_k(vectors, query, k)
        assert [key for key, _ in got] == [key for key, _ in want]
        for (_, gs), (_, ws) in zip(got, want):
            assert abs(gs - ws) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"retrieval oracle took {elapsed:.1f}s"


@criterion(2, "dedup and idempotence against independent key oracle")
def test_dedup_idempotence():
    import random as pyrandom

    rng = pyrandom.Random(160802)
    started = time.perf_counter()
    heads = [f"Entity {i}" for i in range(25)] + ["Barack  Obama", "barack obama"]
    relations = ["born in", "directed by", "spouse", "Located  In"]
    tails = [f"Place {i}" for i in range(25)]

    def variant(text):
        out = []
        for ch in text:
            if ch == " " and rng.random() < 0.4:
                out.append("  " if rng.random() < 0.5 else "\t ")
            elif rng.random() < 0.3:
                out.append(ch.swapcase())
            else:
                out.append(ch)
        return "".join(out)

    for _ in range(20):
        sequence = []
        for _ in range(300):
            h, r, t = rng.choice(heads), rng.choice(relations), rng.choice(tails)
            if rng.random() < 0.5:
                h, r, t = variant(h), variant(r), variant(t)
            sequence.append((h, r, t))

        graph = KnowledgeGraph()
        first_ids = [graph.insert(h, r, t, "doc:x", 0)[0] for h, r, t in sequence]
        expected = {oracle_dedup_key(h, r, t) for h, r, t in sequence}
        assert len(graph) == len(expected)

        size_before = len(graph)
        snapshot = list(graph)
        second_ids = [graph.insert(h, r, t, "doc:y", 0)[0] for h, r, t in sequence]
        assert second_ids == first_ids
        assert len(graph) == size_before
        assert list(graph) == snapshot
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"dedup suite took {elapsed:.1f}s"


@criterion(3, "graph memory equals union of per-step used ids")
def test_memory_set_identity():
    import random as pyrandom

    rng = pyrandom.Random(160803)
    started = time.perf_counter()
    graph = KnowledgeGraph()
    for i in range(200):
        graph.insert(f"H{i}", "r", f"T{i}", "doc:x", 0)
    for _ in range(300):
        subs = []
        for step in range(1, rng.randint(2, 8)):
            ids = rng.sample(range(200), k=rng.randint(0, 8))
            subs.append(
                SubAnswer(index=step, sub_question=f"q{step}", rewritten_question=f"q{step}",
                          retrieved=[], answerable_from_graph=bool(ids), answer="a",
                          used_triple_ids=ids)
            )
        memory = assemble_graph_memory(subs, graph)
        union = set()
        for sub in subs:
            union |= set(sub.used_triple_ids)
        ids = [t.id for _, t in memory]
        assert set(ids) == union
        assert len(ids) == len(set(ids))
        for step, triple in memory:
            assert step == min(s.index for s in subs if triple.id in s.used_triple_ids)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"memory identity suite took {elapsed:.1f}s"


@criterion(4, "two-hop fixture with fallback write-back, byte-identical traces")
def test_two_hop_end_to_end(tmp_path):
    trace_bytes = []
    for run_index in range(3):
        run_dir = tmp_path / f"run{run_index}"
        run_dir.mkdir()
        world = build_two_hop_world(run_dir)
        gateway = world.ask_gateway(two_hop_ask_rules())
        trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores,
                      gateway, world.embedder)

        hop1, hop2 = trace.sub_answers
        assert hop1.answerable_from_graph and hop1.fallback is None
        assert hop2.fallback is not None
        assert hop2.fallback.written_back_ids == [3]
        dynamic = world.stores.graph.lookup(3)
        assert dynamic.provenance == f"dynamic:{TWO_HOP_QID}"
        assert hop2.retrieved_after_update[0][0] == 3  # re-retrieval found it
        assert hop2.answerable_from_graph
        assert trace.final_answer == "Emma Thomas"
        assert trace.llm_calls <= world.config.llm_budget

        path = write_trace(trace, run_dir)
        validate_trace_dict(json.loads(path.read_text(encoding="utf-8")))
        trace_bytes.append(path.read_bytes())
    assert trace_bytes[0] == trace_bytes[1] == trace_bytes[2]


# (prediction, golds, em, f1) computed by hand per the normative rules:
# lowercase -> drop whole-word articles -> delete punctuation -> collapse.
METRIC_TABLE = [
    ("Emma Thomas", ["Emma Thomas"], 1, 1.0),
    ("emma  thomas", ["Emma Thomas"], 1, 1.0),
    ("The Emma Thomas", ["emma thomas."], 1, 1.0),
    ("The Eiffel Tower!", ["eiffel tower"], 1, 1.0),
    ("an  apple", ["apple"], 1, 1.0),
    ("", [""], 1, 1.0),                      # both empty -> EM 1, F1 1
    ("", ["x"], 0, 0.0),                     # exactly one empty -> 0
    ("x", [""], 0, 0.0),
    ("Emma", ["Emma Thomas"], 0, 2 / 3),     # P=1, R=1/2
    ("Obama", ["Barack Obama"], 0, 2 / 3),
    ("x", ["y"], 0, 0.0),
    ("a b b", ["b b c"], 0, 0.8),            # article "a" drops: [b,b] vs [b,b,c]
    ("x b b", ["b b c"], 0, 2 / 3),          # multiset overlap 2: P=R=2/3
    ("b b c", ["b b c"], 1, 1.0),
    ("b c b", ["b b c"], 0, 1.0),            # EM 0 but multiset-equal -> F1 1
    ("a.b", ["b"], 1, 1.0),                  # article removed before punctuation
    ("New-York", ["new york"], 0, 0.0),      # punctuation deletion joins tokens
    ("The answer is Paris", ["Paris"], 0, 0.5),
    ("Paris, France", ["Paris"], 0, 2 / 3),
    ("42", ["42"], 1, 1.0),
    ("forty two", ["42"], 0, 0.0),
    ("Emma Thomas", ["emma", "Emma Thomas"], 1, 1.0),
    ("emma", ["Emma Thomas", "EMMA"], 1, 1.0),  # max over golds
    ("the a an", ["x"], 0, 0.0),             # prediction normalizes to empty
    ("U.S.A.", ["us"], 1, 1.0),              # dot-bounded "a" is a whole word
]


@criterion(5, "EM/F1 match the 25-case hand-computed table")
def test_metric_oracle_table():
    assert len(METRIC_TABLE) == 25
    for prediction, golds, want_em, want_f1 in METRIC_TABLE:
        got_em = exact_match(prediction, golds)
        got_f1 = token_f1(prediction, golds)
        assert got_em == want_em, (prediction, golds)
        assert abs(got_f1 - want_f1) <= 1e-9, (prediction, golds, got_f1)


def _run_benchmark_world(tmp_path, **config_overrides):
    from subhop.benchmark import QAExample

    fixture = build_benchmark_fixture(n=20, fallback_every=4)
    world = build_benchmark_world(tmp_path, fixture, **config_overrides)
    gateway = stub_gateway(fresh_rules(fixture.ask_rules))
    dataset = [
        QAExample(r["id"], r["question"], r["answers"]) for r in fixture.dataset_records
    ]
    return fixture, world, gateway, dataset


@criterion(6, "graph monotone and dynamic provenance across 20-question run")
def test_benchmark_monotonicity_and_provenance(tmp_path):
    fixture, world, gateway, dataset = _run_benchmark_world(tmp_path)
    graph = world.stores.graph
    baseline = {t.id: t for t in graph}
    counts = [len(graph)]

    def solve_fn(example):
        trace = solve(example.id, example.question, world.config, world.stores,
                      gateway, world.embedder)
        counts.append(len(graph))
        return trace

    report = run_benchmark(dataset, solve_fn, parallelism=1)
    assert report.n == 20
    assert report.em == pytest.approx(100.0, abs=1e-9)
    assert all(a <= b for a, b in zip(counts, counts[1:]))  # nondecreasing
    for tid, triple in baseline.items():
        assert graph.lookup(tid) == triple  # no pre-existing triple mutated
    question_ids = {e.id for e in dataset}
    dynamic = [t for t in graph if t.is_dynamic]
    assert len(dynamic) == len(fixture.fallback_indices)
    for triple in dynamic:
        assert triple.provenance.removeprefix("dynamic:") in question_ids
        assert triple.created_at_step >= 1


@criterion(7, "degradation paths: parse failure, budget, empty retrieval")
def test_degradation_paths(tmp_path):
    # a) decomposition parse failure -> single-element plan, completed answer
    world = build_two_hop_world(tmp_path / "a")
    gateway = world.ask_gateway([
        rule("decompose", "not json at all"),
        rule("decompose", "second prose answer"),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]}),
        rule("final_answer", "Christopher Nolan"),
    ])
    trace = solve("q-degraded", "Who directed Inception?", world.config, world.stores,
                  gateway, world.embedder)
    assert trace.plan.degraded
    assert trace.plan.sub_questions == ["Who directed Inception?"]
    assert trace.status == "ok"
    assert trace.final_answer == "Christopher Nolan"
    validate_trace_dict(trace_to_dict(trace))

    # b) budget exhaustion -> partial, schema-valid trace, UNKNOWN answer
    world_b = build_two_hop_world(tmp_path / "b", llm_budget=2)
    gateway_b = world_b.ask_gateway(two_hop_ask_rules())
    trace_b = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world_b.config, world_b.stores,
                    gateway_b, world_b.embedder)
    assert trace_b.status == "budget_exceeded"
    assert trace_b.final_answer == "UNKNOWN"
    assert len(trace_b.sub_answers) < len(trace_b.plan.sub_questions)
    assert trace_b.llm_calls == 2
    validate_trace_dict(trace_to_dict(trace_b))

    # c) empty retrieval -> fallback event with documents recorded
    dim = 4
    corpus_path = write_corpus(tmp_path / "c.jsonl", [
        {"id": "doc-a", "title": "", "text": "A r B is stated here."},
    ])
    from subhop.indexer import build_graph_index, ingest_corpus

    corpus = ingest_corpus(corpus_path)
    embedder = FixtureEmbedder({
        "What is A?": basis_vector(0, dim),
        "A r B is stated here.": basis_vector(0, dim),
        "A r B": basis_vector(0, dim),
    })
    graph, triple_index, passage_index, _ = build_graph_index(
        corpus, stub_gateway([rule("extract_triples", [])]), embedder
    )
    assert len(triple_index) == 0
    stores = Stores(graph=graph, triple_index=triple_index,
                    passage_index=passage_index, corpus=corpus)
    gateway_c = stub_gateway([
        rule("decompose", ["What is A?"]),
        rule("answer_from_docs", {"answer": "B"}),
        rule("extract_triples", [["A", "r", "B"]]),
        rule("answer_from_triples",
             {"answerable": False, "answer": "", "used_triple_ids": []}),
        rule("final_answer", "B"),
    ])
    trace_c = solve("q-empty", "What is A?", Config(), stores, gateway_c, embedder)
    step = trace_c.sub_answers[0]
    assert step.retrieved == []  # nothing to retrieve from an empty index
    assert step.fallback is not None
    assert step.fallback.retrieved_doc_ids == ["doc-a"]
    assert step.fallback.written_back_ids == [0]
    assert step.answerable_from_graph is False
    assert step.answer == "B"  # document-grounded answer stands
    assert step.used_triple_ids == [0]  # written-back ids are the evidence
    assert trace_c.status == "ok"
    validate_trace_dict(trace_to_dict(trace_c))


@criterion(8, "persistence round-trips and CLI exit-code contract")
def test_persistence_and_cli_contract(tmp_path, capsys):
    # store round-trips, including a dynamic triple
    world = build_two_hop_world(tmp_path / "w")
    gateway = world.ask_gateway(two_hop_ask_rules())
    solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gateway,
          world.embedder)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    reloaded = load_stores(snap, world.embedder)
    assert reloaded.graph == world.stores.graph
    assert index_rows(reloaded.triple_index) == index_rows(world.stores.triple_index)
    passages = reloaded.passages(world.embedder)
    assert len(passages) == len(reloaded.corpus) > 0
    assert index_rows(passages) == index_rows(world.stores.passages(world.embedder))
    snap2 = tmp_path / "snap2"
    save_stores(reloaded, snap2, world.embedder, world.corpus_path)
    assert (snap / "graph.jsonl").read_bytes() == (snap2 / "graph.jsonl").read_bytes()

    # CLI walkthrough with the exit-code contract
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    corpus = write_corpus(cli_dir / "corpus.jsonl", [
        {"id": "d1", "title": "Inception",
         "text": "Inception is a 2010 science fiction film directed by Christopher Nolan."},
    ])
    index_script = write_script(cli_dir / "index.json", [
        rule("extract_triples", [["Inception", "directed by", "Christopher Nolan"]]),
    ])
    ask_script = write_script(cli_dir / "ask.json", [
        rule("decompose", ["Who directed Inception?"]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]}),
        rule("final_answer", "Christopher Nolan"),
    ])
    dataset = cli_dir / "dataset.jsonl"
    dataset.write_text(json.dumps({
        "id": "q1", "question": "Who directed Inception?",
        "answers": ["Christopher Nolan"]}) + "\n", encoding="utf-8")
    snap_dir, run_dir = cli_dir / "snapshot", cli_dir / "runs"

    def cli(script, *args):
        return run(["--snapshot-dir", str(snap_dir), "--run-dir", str(run_dir),
                    "--stub-script", str(script), *args])

    assert cli(index_script, "index") == 2                      # usage: no --corpus
    assert cli(index_script, "index", "--corpus",
               str(cli_dir / "missing.jsonl")) == 3             # missing artifact
    assert cli(ask_script, "ask", "Who directed Inception?") == 3  # no snapshot yet
    assert cli(ask_script, "eval", "--dataset", str(dataset)) == 3
    assert cli(ask_script, "graph", "stats") == 3
    assert cli(index_script, "index", "--corpus", str(corpus)) == 0
    assert cli(index_script, "index", "--corpus", str(corpus)) == 3  # overwrite guard
    assert cli(ask_script, "ask", "Who directed Inception?") == 0
    ask_script_2 = write_script(cli_dir / "ask2.json", [
        rule("decompose", ["Who directed Inception?"]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]}),
        rule("final_answer", "Christopher Nolan"),
    ])
    assert cli(ask_script_2, "eval", "--dataset", str(dataset)) == 0
    assert cli(ask_script, "eval", "--dataset", str(dataset),
               "--format", "bogus") == 2                        # argparse choice
    assert cli(ask_script, "graph", "stats") == 0

    # export -> reload equality
    capsys.readouterr()
    assert cli(ask_script, "graph", "export", "--format", "json") == 0
    exported = cli_dir / "export.jsonl"
    exported.write_text(capsys.readouterr().out, encoding="utf-8")
    assert exported.read_bytes() == (snap_dir / "graph.jsonl").read_bytes()
    graph_sha256 = json.loads((snap_dir / "manifest.json").read_text())["graph_sha256"]
    assert KnowledgeGraph.load(exported, graph_sha256) == load_graph(snap_dir)

    (snap_dir / "graph.jsonl").write_text("broken\n", encoding="utf-8")
    assert cli(ask_script, "graph", "stats") == 4               # runtime error


@criterion(9, "ablation arms run the 20-question benchmark to completion")
def test_ablation_hooks(tmp_path):
    arms = {
        "no_decomposition": {"decomposition": False},
        "no_rewriting": {"rewriting": False},
        "no_update": {"graph_update": False},
    }
    from subhop.benchmark import QAExample

    for arm, overrides in arms.items():
        fixture = build_benchmark_fixture(n=20, fallback_every=4)
        world = build_benchmark_world(tmp_path / arm, fixture, **overrides)
        gateway = stub_gateway(fresh_rules(fixture.ask_rules))
        dataset = [QAExample(r["id"], r["question"], r["answers"])
                   for r in fixture.dataset_records]

        def solve_fn(example):
            return solve(example.id, example.question, world.config, world.stores,
                         gateway, world.embedder)

        report = run_benchmark(dataset, solve_fn, parallelism=1)
        assert report.n == 20
        assert not any(r.failed for r in report.per_example), arm
        assert report.em == pytest.approx(100.0, abs=1e-9), arm
        dynamic = [t for t in world.stores.graph if t.is_dynamic]
        if arm == "no_update":
            assert dynamic == []  # fallback answers without write-back
        else:
            assert len(dynamic) == len(fixture.fallback_indices)


@pytest.mark.skipif(
    "SUBHOP_LIVE_ENDPOINT" not in os.environ,
    reason="live smoke test requires SUBHOP_LIVE_ENDPOINT (and credentials)",
)
@criterion(10, "live smoke test against a real endpoint")
def test_live_smoke(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", [
        {"id": "d1", "title": "Inception",
         "text": "Inception is a 2010 film directed by Christopher Nolan."},
        {"id": "d2", "title": "Christopher Nolan",
         "text": "Christopher Nolan is married to the producer Emma Thomas."},
    ])
    config = load_config(overrides={
        "backend": "remote",
        "endpoint": os.environ["SUBHOP_LIVE_ENDPOINT"],
        "model": os.environ.get("SUBHOP_LIVE_MODEL", "gpt-4o-mini"),
        "snapshot_dir": str(tmp_path / "snapshot"),
        "run_dir": str(tmp_path / "runs"),
    })
    from subhop.cli import build_gateway
    from subhop.embedders import make_embedder
    from subhop.indexer import build_graph_index, ingest_corpus

    embedder = make_embedder("hash", config.embedding_dim)
    gateway = build_gateway(config)
    graph, ti, pi, report = build_graph_index(ingest_corpus(corpus), gateway, embedder)
    stores = Stores(graph=graph, triple_index=ti, passage_index=pi,
                    corpus=ingest_corpus(corpus))
    trace = solve("live-1", "Who is the spouse of the director of Inception?",
                  config, stores, gateway, embedder)
    assert trace.llm_calls <= config.llm_budget
    validate_trace_dict(trace_to_dict(trace))
