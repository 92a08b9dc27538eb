"""The benchmark's tracer wraps subhop entry points by name, and skips a
name that no longer exists instead of failing. This test pins the names it
skips, so a refactor that drops a traced entry point shows here. Its
embedder proxy must load the same indexes as the embedder it wraps."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import Tracer  # noqa: E402
from subhop.embedders import HashedBagEmbedder  # noqa: E402
from subhop.stores import load_stores  # noqa: E402

from helpers import index_rows, save_hash_snapshot  # noqa: E402

# entry points the tracer still names that subhop no longer has; each
# stays traced as missing until the benchmark drops it. "stores.lock" is
# the hook on the reader-writer lock that retrievals no longer take
STALE = {"vector.save", "vector.load", "vector.upsert", "stores.lock"}


def test_the_tracer_misses_exactly_the_stale_entry_points():
    tracer = Tracer()
    tracer.install(SimpleNamespace(send=lambda *args: None))
    try:
        assert set(tracer.missing) == STALE
    finally:
        tracer.uninstall()


def test_the_traced_embedder_loads_the_same_rows(tmp_path):
    # the proxy has only ``embed``, so a traced load fills the triple
    # index, and a traced first fallback the passage index, one text at a
    # time, where an untraced one hashes them in batches
    embedder = HashedBagEmbedder(dimension=64)
    snap = save_hash_snapshot(tmp_path, 300)
    traced = Tracer().embedder(embedder)
    assert not hasattr(traced, "embed_many")
    untraced = load_stores(snap, embedder)
    loaded = load_stores(snap, traced)
    assert index_rows(loaded.triple_index) == index_rows(untraced.triple_index)
    passages = loaded.passages(traced)
    assert len(passages) == len(loaded.corpus) > 0
    assert index_rows(passages) == index_rows(untraced.passages(embedder))
