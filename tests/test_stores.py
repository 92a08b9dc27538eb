import builtins
import io
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from subhop import vector
from subhop.benchmark import QAExample, run_benchmark
from subhop.embedders import HashedBagEmbedder
from subhop.errors import ParseError, SubhopError
from subhop.indexer import Corpus, build_graph_index, ingest_corpus
from subhop.kg import KnowledgeGraph
from subhop.solver import (
    FallbackEvent,
    fallback_answer_from_docs,
    retrieve_for_subquestion,
    solve,
    trace_to_dict,
    update_graph_with_new_triples,
    validate_trace_dict,
)
from subhop.stores import (
    GRAPH_FILE,
    MANIFEST_FILE,
    Stores,
    load_stores,
    save_stores,
    snapshot_exists,
)
from subhop.stub import rule
from subhop.vector import VectorIndex

from helpers import (
    TWO_HOP_CORPUS,
    TWO_HOP_QID,
    TWO_HOP_QUESTION,
    FixtureEmbedder,
    append_row,
    build_benchmark_fixture,
    build_benchmark_world,
    build_two_hop_world,
    dense,
    fresh_rules,
    index_rows,
    save_hash_snapshot,
    stub_gateway,
    two_hop_ask_rules,
    two_hop_index_rules,
    write_corpus,
)


def snapshot_bytes(snap: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(snap.iterdir())}


def drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


# -- concurrent readers and one writer -----------------------------------------


def test_readers_get_exact_scores_while_a_writer_grows_the_index(monkeypatch):
    embedder = HashedBagEmbedder(dimension=32)
    stores = Stores(
        graph=KnowledgeGraph(),
        triple_index=VectorIndex(dimension=32),
        passage_index=VectorIndex(dimension=32),
        corpus=Corpus.from_documents([]),
    )
    index = stores.triple_index
    texts: dict[int, str] = {}

    def text_of(i: int) -> str:
        return f"fact {i} about w{i % 13} and w{i % 7} near v{i % 5}"

    for i in range(5):
        texts[i] = text_of(i)
        append_row(index, texts[i], embedder)
    queries = ["about w3 and w4", "near v2", "fact 17 w1", "w12 w6 v0", "w5 near v3"]
    done = threading.Event()
    failures: list[str] = []
    reads = [0] * len(queries)
    # the cut of each read: above 0 when it selected from the best entries
    cuts: list[float] = []
    real_cut = vector._cut

    def recording_cut(scores, need):
        cuts.append(real_cut(scores, need))
        return cuts[-1]

    monkeypatch.setattr(vector, "_cut", recording_cut)

    def writer() -> None:
        try:
            for i in range(5, 3000):  # crosses every capacity from 16 to 2048 rows
                texts[i] = text_of(i)
                append_row(index, texts[i], embedder)
        finally:
            done.set()

    def reader(slot: int, bounded: bool = False) -> None:
        query = embedder.embed(queries[slot])
        while not done.is_set() or reads[slot] == 0:
            size = len(index)
            # a bounded reader passes a row count below the index's length,
            # as a reader that resolves keys in a shorter store does
            bound = size // 2 + 1 if bounded else None
            result = index.top_k(queries[slot], 5, embedder, rows=bound)
            reads[slot] += 1
            if len(result) != min(5, bound or size):
                failures.append(f"{len(result)} results from {bound or size} rows")
            for key, score in result:
                if bounded and key >= bound:
                    failures.append(f"key {key} at or beyond the bound {bound}")
                if key not in texts:
                    failures.append(f"unknown key {key}")
                    continue
                row = embedder.embed(texts[key])
                want = float(dense(row) @ dense(query)) / (row.norm * query.norm)
                if abs(score - want) > 1e-12:
                    failures.append(f"key {key}: score {score} != {want}")

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
    threads.append(threading.Thread(target=reader, args=(4, True)))
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(index) == 3000 and all(count > 0 for count in reads)
    assert any(cut > 0.0 for cut in cuts)


class SlowInsertGraph(KnowledgeGraph):
    """A graph that sleeps before every 16th insert, so readers run between
    a write-back's index row and its graph triple."""

    def insert(self, *args, **kwargs):
        if len(self) % 16 == 0:
            time.sleep(1e-4)
        return super().insert(*args, **kwargs)


def test_write_backs_race_lock_free_retrievals():
    """Two writers append through ``update_graph_with_new_triples`` while
    three readers retrieve without a lock: every hit resolves in the graph,
    and the graph and the index end at the same length."""
    embedder = HashedBagEmbedder(dimension=32)
    stores = Stores(
        graph=SlowInsertGraph(),
        triple_index=VectorIndex(dimension=32),
        passage_index=VectorIndex(dimension=32),
        corpus=Corpus.from_documents([]),
    )
    calls = 1500
    queries = ["alpha knows beta 3", "gamma near delta 1", "beta 7 knows"]
    failures: list[str] = []
    reads = [0] * len(queries)
    done = threading.Event()

    def writer(w: int) -> None:
        try:
            for i in range(calls):
                event = FallbackEvent(new_triples=[
                    (f"alpha {w} {i}", "knows", f"beta {i % 9}"),
                    (f"gamma {w} {i}", "near", f"delta {i % 5}"),
                ])
                update_graph_with_new_triples(stores, event, f"q{w}", 1, embedder)
                if len(event.written_back_ids) != 2:
                    failures.append(f"writer {w} wrote {event.written_back_ids}")
        except Exception as exc:
            failures.append(f"writer {w}: {exc!r}")

    def reader(slot: int) -> None:
        try:
            while not done.is_set() or reads[slot] == 0:
                hits, candidates = retrieve_for_subquestion(queries[slot], stores, 5, embedder)
                reads[slot] += 1
                if [t.id for t, _ in candidates] != [tid for tid, _ in hits]:
                    failures.append(f"candidates {candidates} for hits {hits}")
        except Exception as exc:
            failures.append(f"reader {slot}: {exc!r}")

    writers = [threading.Thread(target=writer, args=(w,)) for w in range(2)]
    readers = [threading.Thread(target=reader, args=(s,)) for s in range(len(queries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        done.set()
        for thread in readers:
            thread.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert failures == []
    assert len(stores.graph) == len(stores.triple_index) == 2 * calls * 2
    assert all(count > 0 for count in reads)


def test_parallel_eval_keeps_the_store_contract(tmp_path):
    """The 20-question fixture at the default parallelism, several times:
    no question fails, every trace is valid, and every write-back's row
    and triple both land."""
    fixture = build_benchmark_fixture(n=20, fallback_every=4)
    dataset = [QAExample(r["id"], r["question"], r["answers"]) for r in fixture.dataset_records]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(10):
            world = build_benchmark_world(tmp_path / f"run{run}", fixture, parallelism=4)
            gateway = stub_gateway(fresh_rules(fixture.ask_rules))
            traces = []

            def solve_fn(example):
                trace = solve(example.id, example.question, world.config, world.stores,
                              gateway, world.embedder)
                traces.append(trace)
                return trace

            report = run_benchmark(dataset, solve_fn, parallelism=world.config.parallelism)
            assert not any(result.failed for result in report.per_example)
            assert len(traces) == len(dataset)
            for trace in traces:
                validate_trace_dict(trace_to_dict(trace))
            assert len(world.stores.graph) == len(world.stores.triple_index)
            assert sum(t.is_dynamic for t in world.stores.graph) == len(fixture.fallback_indices)
    finally:
        sys.setswitchinterval(interval)


# -- snapshot consistency ------------------------------------------------------


def test_load_stores_rejects_graph_cut_at_a_line_boundary(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    drop_last_line(snap / GRAPH_FILE)
    with pytest.raises(ParseError, match="changed since the snapshot was saved"):
        load_stores(snap, world.embedder)


def test_load_stores_reads_the_corpus_once(tmp_path, monkeypatch):
    # the bytes that match the manifest's corpus_sha256 are the bytes parsed
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    opened: list[Path] = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file).resolve())
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    loaded = load_stores(snap, world.embedder)
    monkeypatch.undo()
    assert opened.count(world.corpus_path.resolve()) == 1
    assert (snap / GRAPH_FILE).resolve() in opened
    assert loaded.corpus == world.stores.corpus


@pytest.mark.parametrize("field", ["triples", "passages"])
def test_load_stores_checks_manifest_counts(tmp_path, field):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    manifest = snap / MANIFEST_FILE
    text = manifest.read_text(encoding="utf-8")
    count = len(world.stores.graph) if field == "triples" else len(world.stores.corpus)
    recorded = f'"{field}": {count}'
    assert recorded in text
    manifest.write_text(text.replace(recorded, f'"{field}": 99'), encoding="utf-8")
    with pytest.raises(ParseError, match="manifest records 99"):
        load_stores(snap, world.embedder)


@pytest.mark.parametrize("other", [
    FixtureEmbedder({"x": [1.0] * 8}, name="other"),
    FixtureEmbedder({"x": [1.0] * 4}),
], ids=["name", "dimension"])
def test_load_stores_rejects_other_embedder(tmp_path, other):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    with pytest.raises(SubhopError, match="snapshot built with fixture/8"):
        load_stores(snap, other)


def solved_two_hop_world(tmp_path):
    world = build_two_hop_world(tmp_path)
    solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores,
          world.ask_gateway(two_hop_ask_rules()), world.embedder)
    return world


def solved_benchmark_world(tmp_path):
    fixture = build_benchmark_fixture(n=20, fallback_every=4)
    world = build_benchmark_world(tmp_path, fixture)
    gateway = stub_gateway(fresh_rules(fixture.ask_rules))
    dataset = [QAExample(r["id"], r["question"], r["answers"]) for r in fixture.dataset_records]
    report = run_benchmark(dataset, lambda example: solve(
        example.id, example.question, world.config, world.stores, gateway, world.embedder))
    assert report.em == 100.0
    return world


@pytest.mark.parametrize("solved_world", [solved_two_hop_world, solved_benchmark_world],
                         ids=["two-hop", "benchmark"])
def test_load_stores_rebuilds_the_indexes_bit_for_bit(tmp_path, solved_world):
    world = solved_world(tmp_path)
    assert any(t.is_dynamic for t in world.stores.graph)  # write-backs are in
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    loaded = load_stores(snap, world.embedder)
    assert loaded.graph == world.stores.graph
    assert index_rows(loaded.triple_index) == index_rows(world.stores.triple_index)
    passages = loaded.passages(world.embedder)
    assert len(passages) == len(loaded.corpus) > 0
    assert index_rows(passages) == index_rows(world.stores.passages(world.embedder))


class CountingEmbedder(HashedBagEmbedder):
    """The ``hash`` embedder, counting the texts it embeds in batches
    (``embed_many``, as an index fill does) and one at a time (``embed``,
    as a query is embedded). While ``hold`` is set, ``embed_many`` sets
    ``entered`` and then waits for ``release``."""

    def __init__(self, dimension: int):
        super().__init__(dimension)
        self.batched = 0
        self.single = 0
        self.hold = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def embed(self, text):
        self.single += 1
        return super().embed(text)

    def embed_many(self, texts):
        if self.hold:
            self.entered.set()
            assert self.release.wait(timeout=60)
        self.batched += len(texts)
        return super().embed_many(texts)


class MeetingLock:
    """A lock that sets ``met`` when a second caller arrives at it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._arrivals = 0
        self.met = threading.Event()

    def __enter__(self):
        self._arrivals += 1
        if self._arrivals == 2:
            self.met.set()
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


def test_load_embeds_the_graph_and_the_first_fallback_the_corpus_once(tmp_path):
    corpus_path = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    corpus = ingest_corpus(corpus_path)
    embedder = CountingEmbedder(dimension=64)
    graph, triple_index, passage_index, _ = build_graph_index(
        corpus, stub_gateway(two_hop_index_rules()), embedder)
    assert len(graph) == 3 and len(passage_index) == 0
    assert (embedder.batched, embedder.single) == (len(graph), 0)  # no passage
    save_stores(Stores(graph, triple_index, passage_index, corpus), tmp_path / "snap",
                embedder, corpus_path)

    embedder = CountingEmbedder(dimension=64)
    stores = load_stores(tmp_path / "snap", embedder)
    assert (embedder.batched, embedder.single) == (len(graph), 0)  # no passage
    assert len(stores.passage_index) == 0

    # two first fallbacks meet: the second arrives at the passage lock while
    # the first is embedding the corpus under it
    stores.passage_lock = lock = MeetingLock()
    gateway = stub_gateway([rule("answer_from_docs", {"answer": "Christopher Nolan"}, repeat=True),
                            rule("extract_triples", [], repeat=True)])
    events: list[FallbackEvent | None] = [None, None, None]

    def fall_back(slot: int) -> None:
        events[slot] = fallback_answer_from_docs("Who directed Inception?", stores, gateway,
                                                 embedder, 2, [])

    embedder.hold = True
    first = threading.Thread(target=fall_back, args=(0,))
    first.start()
    assert embedder.entered.wait(timeout=60)
    second = threading.Thread(target=fall_back, args=(1,))
    second.start()
    assert lock.met.wait(timeout=60)
    embedder.release.set()
    for thread in (first, second):
        thread.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert embedder.batched == len(graph) + len(corpus)
    assert embedder.single == 2  # each fallback's query
    assert events[0] == events[1] and events[0].retrieved_doc_ids[0] == "d1"
    # a later fallback embeds its query alone
    fall_back(2)
    assert (embedder.batched, embedder.single) == (len(graph) + len(corpus), 3)
    assert events[2] == events[0]
    assert len(stores.passage_index) == len(corpus)


def test_a_loaded_graph_builds_its_key_index_at_the_first_write_back(tmp_path):
    embedder = HashedBagEmbedder(dimension=64)
    loaded = load_stores(save_hash_snapshot(tmp_path, 40), embedder)
    graph = loaded.graph
    graph.stats(), list(graph), graph.lookup(3)  # what graph stats and export read
    assert graph._key_index is None
    # a restated fact, in other case and spacing, gets no new id; the
    # stored "ß" casefolds to "ss"
    assert graph.lookup(3)[1:4] == ("entity 3", "r", "entity 1 ß")
    restated = FallbackEvent(new_triples=[("  ENTITY\t3", "R", "entity 1 SS")])
    update_graph_with_new_triples(loaded, restated, "q1", 1, embedder)
    assert restated.written_back_ids == [] and len(graph) == 40
    new = FallbackEvent(new_triples=[("entity 3", "r", "entity 2")])
    update_graph_with_new_triples(loaded, new, "q1", 1, embedder)
    assert new.written_back_ids == [40]
    # the key index equals the one a graph built by insert holds
    inserted = KnowledgeGraph()
    for key in range(40):
        inserted.insert(f"entity {key}", "r", f"entity {key // 2} ß", "doc:d1", 0)
    inserted.insert("entity 3", "r", "entity 2", "dynamic:q1", 1)
    assert graph == inserted and graph._key_index == inserted._key_index


# -- safe save -----------------------------------------------------------------


def test_failed_save_leaves_previous_snapshot_untouched(tmp_path, monkeypatch):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    before = snapshot_bytes(snap)
    siblings = sorted(tmp_path.iterdir())
    world.stores.graph.insert("Emma Thomas", "born in", "London", "dynamic:q1", 1)

    # fail the last write, once the new graph is complete in staging
    original = Path.write_text
    calls: list[Path] = []

    def write_then_fail(self, data, *args, **kwargs):
        if self.name != MANIFEST_FILE:
            return original(self, data, *args, **kwargs)
        calls.append(self)
        original(self, data[:9], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_stores(world.stores, snap, world.embedder, world.corpus_path)
    assert len(calls) == 1 and calls[0].parent.parent == snap  # written in staging
    assert snapshot_bytes(snap) == before
    assert sorted(tmp_path.iterdir()) == siblings
    assert len(load_stores(snap, world.embedder).graph) == len(world.stores.graph) - 1


def test_failed_move_leaves_no_manifest(tmp_path, monkeypatch):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    world.stores.graph.insert("Emma Thomas", "born in", "London", "dynamic:q1", 1)
    original = os.replace
    moved: list[str] = []

    def replace(source, target):
        if len(moved) == 1:  # the graph is in, the manifest is not
            raise OSError("move failed")
        moved.append(Path(target).name)
        original(source, target)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="move failed"):
        save_stores(world.stores, snap, world.embedder, world.corpus_path)
    assert moved == [GRAPH_FILE]
    assert not snapshot_exists(snap)
    assert sorted(p.name for p in snap.iterdir()) == [GRAPH_FILE]


def test_save_leaves_other_files_in_snapshot_dir(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    snap.mkdir()
    corpus = snap / "corpus.jsonl"
    corpus.write_bytes(world.corpus_path.read_bytes())
    (snap / "notes").mkdir()
    (snap / "notes" / "todo.txt").write_text("keep me\n", encoding="utf-8")
    # an index file that older versions saved is ignored, not read
    (snap / "triples.vec.jsonl").write_text("stale\n", encoding="utf-8")
    save_stores(world.stores, snap, world.embedder, corpus)
    save_stores(world.stores, snap, world.embedder, corpus)
    assert (snap / "notes" / "todo.txt").read_text(encoding="utf-8") == "keep me\n"
    assert corpus.read_bytes() == world.corpus_path.read_bytes()
    assert sorted(p.name for p in snap.iterdir()) == sorted(
        ["corpus.jsonl", "notes", "triples.vec.jsonl", GRAPH_FILE, MANIFEST_FILE]
    )
    assert len(load_stores(snap, world.embedder).graph) == len(world.stores.graph)


def test_save_replaces_previous_snapshot(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    siblings = sorted(tmp_path.iterdir())
    world.stores.graph.insert("Emma Thomas", "born in", "London", "dynamic:q1", 1)
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    assert sorted(tmp_path.iterdir()) == siblings
    assert (snap / GRAPH_FILE).read_text(encoding="utf-8").count("\n") == len(world.stores.graph)
