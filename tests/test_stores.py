import os
import sys
import threading
from pathlib import Path

import pytest

from subhop.embedders import HashedBagEmbedder
from subhop.errors import ParseError
from subhop.indexer import Corpus
from subhop.kg import KnowledgeGraph
from subhop.stores import (
    GRAPH_FILE,
    MANIFEST_FILE,
    PASSAGE_INDEX_FILE,
    TRIPLE_INDEX_FILE,
    Stores,
    load_stores,
    save_stores,
    snapshot_exists,
)
from subhop.vector import VectorIndex

from helpers import build_two_hop_world


def snapshot_bytes(snap: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(snap.iterdir())}


def drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


# -- concurrent readers and one writer -----------------------------------------


def test_readers_get_exact_scores_while_a_writer_grows_the_index():
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
        texts[3 * i] = text_of(i)
        index.upsert(3 * i, texts[3 * i], embedder)
    queries = ["about w3 and w4", "near v2", "fact 17 w1", "w12 w6 v0"]
    done = threading.Event()
    failures: list[str] = []
    reads = [0] * len(queries)

    def writer() -> None:
        try:
            for i in range(5, 3000):  # crosses every capacity from 16 to 2048 rows
                key = 3 * i
                texts[key] = text_of(i)
                with stores.lock.write():
                    index.upsert(key, texts[key], embedder)
        finally:
            done.set()

    def reader(slot: int) -> None:
        query = embedder.embed(queries[slot])
        while not done.is_set() or reads[slot] == 0:
            with stores.lock.read():
                size = len(index)
                result = index.top_k(queries[slot], 5, embedder)
            reads[slot] += 1
            if len(result) != min(5, size):
                failures.append(f"{len(result)} results from {size} rows")
            for key, score in result:
                if key not in texts:
                    failures.append(f"unknown key {key}")
                    continue
                row = embedder.embed(texts[key])
                want = float(row.values @ query.values) / (row.norm * query.norm)
                if abs(score - want) > 1e-12:
                    failures.append(f"key {key}: score {score} != {want}")

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
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


# -- snapshot consistency ------------------------------------------------------


def test_load_stores_rejects_graph_cut_at_a_line_boundary(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    drop_last_line(snap / GRAPH_FILE)
    with pytest.raises(ParseError, match="graph triples"):
        load_stores(snap, world.embedder)


def test_load_stores_rejects_truncated_triple_index(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    drop_last_line(snap / TRIPLE_INDEX_FILE)
    with pytest.raises(ParseError, match="its header says"):
        load_stores(snap, world.embedder)


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


# -- safe save -----------------------------------------------------------------


def test_failed_save_leaves_previous_snapshot_untouched(tmp_path, monkeypatch):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    save_stores(world.stores, snap, world.embedder, world.corpus_path)
    before = snapshot_bytes(snap)
    siblings = sorted(tmp_path.iterdir())
    world.stores.graph.insert("Emma Thomas", "born in", "London", "dynamic:q1", 1)

    original = VectorIndex.save
    calls: list[Path] = []

    def save_then_fail(self, path, embedder):
        calls.append(Path(path))
        if len(calls) == 2:  # the passage index, after graph and triple index
            Path(path).write_text("half a fi", encoding="utf-8")
            raise OSError("disk full")
        original(self, path, embedder)

    monkeypatch.setattr(VectorIndex, "save", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_stores(world.stores, snap, world.embedder, world.corpus_path)
    assert all(path.parent != snap for path in calls)
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
        if len(moved) == 1:  # the graph is in, the indexes are not
            raise OSError("move failed")
        moved.append(Path(target).name)
        original(source, target)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="move failed"):
        save_stores(world.stores, snap, world.embedder, world.corpus_path)
    assert moved == [GRAPH_FILE]
    assert not snapshot_exists(snap)
    assert sorted(p.name for p in snap.iterdir()) == sorted(
        [GRAPH_FILE, TRIPLE_INDEX_FILE, PASSAGE_INDEX_FILE]
    )


def test_save_leaves_other_files_in_snapshot_dir(tmp_path):
    world = build_two_hop_world(tmp_path)
    snap = tmp_path / "snap"
    snap.mkdir()
    corpus = snap / "corpus.jsonl"
    corpus.write_bytes(world.corpus_path.read_bytes())
    (snap / "notes").mkdir()
    (snap / "notes" / "todo.txt").write_text("keep me\n", encoding="utf-8")
    save_stores(world.stores, snap, world.embedder, corpus)
    save_stores(world.stores, snap, world.embedder, corpus)
    assert (snap / "notes" / "todo.txt").read_text(encoding="utf-8") == "keep me\n"
    assert corpus.read_bytes() == world.corpus_path.read_bytes()
    assert sorted(p.name for p in snap.iterdir()) == sorted(
        ["corpus.jsonl", "notes", GRAPH_FILE, TRIPLE_INDEX_FILE, PASSAGE_INDEX_FILE, MANIFEST_FILE]
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
