"""Pipeline store bundle: graph, both vector indexes, corpus, locks.

Retrievals take no lock: the graph and the indexes are append-only, and
a reader sees a consistent prefix of each (see ``VectorIndex``).
Write-backs touch the graph and the triple index together, so they take
``write_lock`` one at a time. The passage index is embedded once, at the
first fallback, under ``passage_lock``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .embedders import Embedder
from .errors import ParseError, SubhopError
from .indexer import Corpus, embed_triples, ingest_corpus, passage_text
from .kg import KnowledgeGraph
from .records import read_json
from .vector import VectorIndex

GRAPH_FILE = "graph.jsonl"
MANIFEST_FILE = "manifest.json"
# the manifest comes last: it is moved in once the graph is
SNAPSHOT_FILES = (GRAPH_FILE, MANIFEST_FILE)


@dataclass
class Stores:
    """What ``solve`` reads and writes.

    ``passage_index`` holds no rows until the first fallback fills it
    from the corpus through ``passages``; only a fallback reads it, and
    most runs never fall back. ``write_lock`` serializes write-backs, and
    ``passage_lock`` the passage index's one fill.
    """

    graph: KnowledgeGraph
    triple_index: VectorIndex
    passage_index: VectorIndex
    corpus: Corpus
    write_lock: threading.Lock = field(default_factory=threading.Lock)
    passage_lock: threading.Lock = field(default_factory=threading.Lock)

    def passages(self, embedder: Embedder) -> VectorIndex:
        """``passage_index``, with one row per document at its corpus
        position: the first call embeds the corpus, and a call that meets
        it waits for it. ``VectorIndex.extend`` moves the row count only
        once every row is in, so a full count outside the lock means a
        finished fill."""
        index = self.passage_index
        if len(index) < len(self.corpus):
            with self.passage_lock:
                if len(index) < len(self.corpus):
                    index.extend(map(passage_text, self.corpus.documents), embedder)
        return index


def snapshot_exists(snapshot_dir: str | Path) -> bool:
    root = Path(snapshot_dir)
    return (root / GRAPH_FILE).exists() and (root / MANIFEST_FILE).exists()


def save_stores(
    stores: Stores,
    snapshot_dir: str | Path,
    embedder: Embedder,
    corpus_path: str | Path,
) -> None:
    """Write the graph and the manifest into a staging directory inside
    ``snapshot_dir``, then move each into place.

    The manifest pins the graph by the sha256 of the bytes written
    (``graph_sha256``), which ``load_graph`` checks. The vector indexes
    are not saved: ``load_stores`` embeds the triple index again from the
    graph, and the first fallback the passage index from the corpus, so
    the manifest counts the corpus's documents as its passages.

    The old manifest is removed first and the new one moved in last, so
    the manifest marks a complete snapshot: an error while writing leaves
    the previous snapshot as it was, and one while moving leaves no
    manifest, so nothing loads a mix of old and new files. Other files in
    ``snapshot_dir`` are left alone.

    The manifest records the corpus by its absolute path, symlinks
    unresolved, so the snapshot loads from any working directory. It pins
    the corpus by the sha256 of the bytes its documents were parsed from
    (``Corpus.sha256``), not by the file as it is now; a corpus built in
    memory has none, and ValueError is raised.
    """
    if stores.corpus.sha256 is None:
        raise ValueError("the corpus was not read from a file, so no digest pins it")
    root = Path(snapshot_dir)
    root.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=root))
    try:
        graph_sha256 = stores.graph.save(staging / GRAPH_FILE)
        manifest = {
            "corpus_path": os.path.abspath(corpus_path),
            "corpus_sha256": stores.corpus.sha256,
            "graph_sha256": graph_sha256,
            "embedder": embedder.name,
            "dimension": embedder.dimension,
            "triples": len(stores.graph),
            "passages": len(stores.corpus),
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        (staging / MANIFEST_FILE).write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
        (root / MANIFEST_FILE).unlink(missing_ok=True)
        for name in SNAPSHOT_FILES:
            os.replace(staging / name, root / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_manifest(snapshot_dir: str | Path) -> dict:
    path = Path(snapshot_dir) / MANIFEST_FILE
    if not path.exists():
        raise FileNotFoundError(f"no snapshot in {snapshot_dir}; run 'subhop index' first")
    return read_json(path, dict)


def _check_count(what: str, found: int, recorded: object) -> None:
    if found != recorded:
        raise ParseError(f"snapshot has {found} {what}, its manifest records {recorded}")


def load_graph(snapshot_dir: str | Path, manifest: dict | None = None) -> KnowledgeGraph:
    """The snapshot's graph, read only if its bytes hash to the manifest's
    ``graph_sha256``. Raises ParseError on a mismatch, for a manifest
    without that digest (one written before snapshots recorded it), and
    if the graph does not hold as many triples as the manifest records."""
    root = Path(snapshot_dir)
    if manifest is None:
        manifest = load_manifest(root)
    sha256 = manifest.get("graph_sha256")
    if not isinstance(sha256, str):
        raise ParseError("the manifest records no 'graph_sha256'; rebuild the snapshot "
                         "with 'subhop index --force'")
    graph = KnowledgeGraph.load(root / GRAPH_FILE, sha256)
    _check_count("graph triples", len(graph), manifest.get("triples"))
    return graph


def load_stores(
    snapshot_dir: str | Path,
    embedder: Embedder,
    corpus_path: str | Path | None = None,
) -> Stores:
    """Rebuild stores from a snapshot directory, with only the work every
    run needs.

    The embedder identity is validated against the manifest; the corpus is
    re-read from its recorded path unless an override is given, once: the
    bytes that hash to the recorded ``corpus_sha256`` are the bytes parsed.
    The graph is read as ``load_graph`` reads it, and its dedup-key index
    waits for the first write-back. The triple index is embedded again
    from the graph, as ``build_graph_index`` embeds it; the passage index
    is left empty for the first fallback to fill (``Stores.passages``).
    """
    root = Path(snapshot_dir)
    manifest = load_manifest(root)
    if manifest.get("embedder") != embedder.name or manifest.get("dimension") != embedder.dimension:
        raise SubhopError(
            f"snapshot built with {manifest.get('embedder')}/{manifest.get('dimension')}, "
            f"configured {embedder.name}/{embedder.dimension}"
        )
    if not corpus_path:
        corpus_path = manifest.get("corpus_path")
        if not isinstance(corpus_path, str):
            raise ParseError("manifest 'corpus_path' must be a string")
    sha256 = manifest.get("corpus_sha256")
    if not isinstance(sha256, str):
        raise ParseError("manifest 'corpus_sha256' must be a string")
    corpus = ingest_corpus(corpus_path, sha256)
    _check_count("corpus documents", len(corpus), manifest.get("passages"))
    graph = load_graph(root, manifest)
    return Stores(
        graph=graph,
        triple_index=embed_triples(graph, embedder),
        passage_index=VectorIndex(dimension=embedder.dimension),
        corpus=corpus,
    )
