import hashlib
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from subhop import vector
from subhop.config import Config
from subhop.embedders import Embedding, HashedBagEmbedder, Rows
from subhop.errors import SubhopError
from subhop.gateway import Gateway
from subhop.indexer import ingest_corpus
from subhop.kg import KnowledgeGraph, Triple
from subhop.solver import QuestionTrace, SubAnswer, solve, trace_to_json
from subhop.stores import load_stores, save_stores
from subhop.vector import EXTEND_CHUNK, VectorIndex, verbalize_triple

from helpers import (
    TWO_HOP_CORPUS,
    FixtureEmbedder,
    append_row,
    dense,
    graph_stores,
    index_rows,
    oracle_cosine_top_k,
    oracle_dedup_key,
    save_hash_snapshot,
    write_corpus,
)


def make_index(vectors: dict[int, list[float]]) -> tuple[VectorIndex, FixtureEmbedder]:
    """An index whose row ``key`` embeds ``vectors[key]``; keys run 0..n-1."""
    assert list(vectors) == list(range(len(vectors)))
    texts = {f"t{key}": vec for key, vec in vectors.items()}
    embedder = FixtureEmbedder(texts)
    index = VectorIndex(dimension=embedder.dimension)
    for key in vectors:
        append_row(index, f"t{key}", embedder)
    return index, embedder


def test_verbalize_plain_concatenation():
    t = Triple(0, "Inception", "directed by", "Christopher Nolan", "doc:d1", 0)
    assert verbalize_triple(t) == "Inception directed by Christopher Nolan"


def test_verbalize_collapses_field_whitespace_via_store():
    g = KnowledgeGraph()
    tid, _ = g.insert("A", "b", "C", "doc:d1", 0)
    assert verbalize_triple(g.lookup(tid)) == "A b C"
    tid2, _ = g.insert("A  very", "odd   spaced", "thing", "doc:d1", 0)
    assert verbalize_triple(g.lookup(tid2)) == "A very odd spaced thing"


def test_verbalize_respects_dedup_equivalence_on_random_triples():
    # same dedup key -> same casefolded verbalization; single-token fields
    # additionally make the mapping injective
    rng = random.Random(5)
    g = KnowledgeGraph()
    for _ in range(200):
        g.insert(f"H{rng.randrange(15)}", f"r{rng.randrange(5)}", f"T{rng.randrange(15)}",
                 "doc:x", 0)
    seen: dict[str, tuple] = {}
    for t in g:
        verb = verbalize_triple(t).casefold()
        key = oracle_dedup_key(t.head, t.relation, t.tail)
        assert seen.setdefault(verb, key) == key
    assert len(seen) == len(g)


def test_upsert_then_top_k_returns_key():
    index, embedder = make_index({0: [1.0, 0.0]})
    assert index.top_k("t0", 1, embedder) == [(0, pytest.approx(1.0))]


class _Given:
    """A 2-column embedder that returns the embedding it was given for each
    text, whether or not it fits."""

    name = "given"
    dimension = 2

    def __init__(self, embeddings: dict[str, Embedding]):
        self._embeddings = embeddings

    def embed(self, text: str) -> Embedding:
        return self._embeddings[text]


class _GivenMany(_Given):
    """``_Given`` with ``embed_many``, which returns the same embeddings as
    ``Rows``."""

    def embed_many(self, texts):
        embeddings = [self._embeddings[text] for text in texts]
        return Rows(np.array([len(e.columns) for e in embeddings], dtype=np.intp),
                    np.array([c for e in embeddings for c in e.columns], dtype=np.intp),
                    np.array([w for e in embeddings for w in e.weights], dtype=np.float64),
                    np.array([e.norm for e in embeddings], dtype=np.float64))


class _OneNormShort(_GivenMany):
    """Returns one norm too few for a chunk that holds "x"."""

    def embed_many(self, texts):
        rows = super().embed_many(texts)
        return rows._replace(norms=rows.norms[:-1]) if "x" in texts else rows


_FITS = Embedding.of([0.0, 1.0])
_OUTSIDE = Embedding((0, 2), (1.0, 1.0), math.sqrt(2.0), 2)


# (id, embedder, error, message) for extends that fail at the text "x"
_FAILING_EXTENDS = [
    ("embedder-dimension", FixtureEmbedder({"ok": [0.0, 1.0, 0.0], "x": [1.0, 2.0, 3.0]}),
     SubhopError, "embedder dimension 3 != index dimension 2"),
    ("vector-dimension", _Given({"ok": _FITS, "x": Embedding.of([1.0, 0.0, 0.0])}),
     SubhopError, "vector of dimension 3 does not fit dimension 2"),
    ("column-outside", _Given({"ok": _FITS, "x": _OUTSIDE}),
     SubhopError, "column 2 is outside dimension 2"),
    ("embedder-raises", _Given({"ok": _FITS}), KeyError, None),
    ("batch-column-outside", _GivenMany({"ok": _FITS, "x": _OUTSIDE}),
     SubhopError, "column 2 is outside dimension 2"),
    ("batch-raises", _GivenMany({"ok": _FITS}), KeyError, None),
    ("batch-rows-disagree", _OneNormShort({"ok": _FITS, "x": _FITS}), ValueError, None),
]


@pytest.mark.parametrize("embedder, error, match, later_chunk", [
    pytest.param(embedder, error, match, later_chunk,
                 id=name + ("-later-chunk" if later_chunk else ""))
    for later_chunk in (False, True) for name, embedder, error, match in _FAILING_EXTENDS
])
def test_extend_that_fails_leaves_the_index_unchanged(embedder, error, match, later_chunk):
    # "x" does not fit or cannot be embedded; every "ok" before it fits,
    # and with ``later_chunk`` fills the whole first chunk
    index, _ = make_index({0: [1.0, 0.0]})
    before = index_rows(index)
    with pytest.raises(error, match=match):
        index.extend(["ok"] * (EXTEND_CHUNK if later_chunk else 1) + ["x"], embedder)
    assert index_rows(index) == before
    index.extend(["ok"], _Given({"ok": _FITS}))
    assert list(index.entries()) == [(0, "t0"), (1, "ok")]


def test_top_k_orthogonal_case():
    index, embedder = make_index({0: [1.0, 0.0], 1: [0.0, 1.0]})
    embedder.add("q", [1.0, 0.0])
    assert index.top_k("q", 1, embedder) == [(0, pytest.approx(1.0))]


def test_top_k_tie_breaks_by_ascending_key():
    index, embedder = make_index({0: [1.0, 0.0], 1: [0.0, 1.0]})
    embedder.add("q", [1.0, 1.0])
    result = index.top_k("q", 2, embedder)
    expected = 1.0 / math.sqrt(2.0)
    assert [key for key, _ in result] == [0, 1]
    for _, score in result:
        assert score == pytest.approx(expected, abs=1e-12)


def test_top_k_matches_brute_force_on_random_index():
    rng = np.random.default_rng(42)
    vectors = {key: rng.normal(size=12).tolist() for key in range(200)}
    index, embedder = make_index(vectors)
    query = rng.normal(size=12).tolist()
    embedder.add("q", query)
    got = index.top_k("q", 5, embedder)
    want = oracle_cosine_top_k(vectors, query, 5)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, gs), (_, ws) in zip(got, want):
        assert gs == pytest.approx(ws, abs=1e-9)


def test_top_k_on_empty_index_returns_empty():
    index = VectorIndex(dimension=4)
    embedder = FixtureEmbedder({"q": [1.0, 0.0, 0.0, 0.0]})
    assert index.top_k("q", 3, embedder) == []


def test_top_k_k_larger_than_size():
    index, embedder = make_index({0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 1.0]})
    embedder.add("q", [1.0, 0.0])
    assert len(index.top_k("q", 5, embedder)) == 3


def test_top_k_rejects_k_below_one():
    index, embedder = make_index({0: [1.0, 0.0]})
    with pytest.raises(ValueError):
        index.top_k("t0", 0, embedder)


def test_top_k_deterministic():
    rng = np.random.default_rng(1)
    vectors = {key: rng.normal(size=6).tolist() for key in range(50)}
    index, embedder = make_index(vectors)
    embedder.add("q", rng.normal(size=6).tolist())
    assert index.top_k("q", 7, embedder) == index.top_k("q", 7, embedder)


def test_zero_norm_vectors_score_zero():
    index, embedder = make_index({0: [0.0, 0.0], 1: [1.0, 0.0]})
    embedder.add("q", [1.0, 0.0])
    result = dict(index.top_k("q", 2, embedder))
    assert result[0] == 0.0
    assert result[1] == pytest.approx(1.0)
    embedder.add("zq", [0.0, 0.0])
    assert all(score == 0.0 for _, score in index.top_k("zq", 2, embedder))


def test_scale_invariance():
    rng = np.random.default_rng(3)
    base = rng.normal(size=8).tolist()
    query = rng.normal(size=8).tolist()
    for c in (1e-6, 0.5, 3.0, 1e6):
        scaled = [x * c for x in base]
        index, embedder = make_index({0: base, 1: scaled})
        embedder.add("q", query)
        scores = dict(index.top_k("q", 2, embedder))
        assert scores[0] == pytest.approx(scores[1], abs=1e-9)


def test_scores_bounded_and_sorted():
    rng = np.random.default_rng(11)
    vectors = {key: rng.normal(size=5).tolist() for key in range(80)}
    index, embedder = make_index(vectors)
    embedder.add("q", rng.normal(size=5).tolist())
    result = index.top_k("q", 80, embedder)
    scores = [s for _, s in result]
    assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in scores)
    assert scores == sorted(scores, reverse=True)


def test_embedding_norm_cached_within_tolerance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        values = rng.normal(size=16)
        emb = Embedding.of(values)
        expected = float(np.linalg.norm(values))
        assert emb.norm == pytest.approx(expected, rel=1e-9)


def test_top_k_scans_through_module_level_cosine_scores(monkeypatch):
    # the benchmark's traced mode wraps subhop.vector.cosine_scores by name
    calls = []
    original = vector.cosine_scores

    def counting(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(vector, "cosine_scores", counting)
    index, embedder = make_index({0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 1.0]})
    assert [key for key, _ in index.top_k("t0", 2, embedder)] == [0, 2]
    assert calls == [(2, 2)]  # rows 0 and 2 of column 0's posting: (row, product) pairs


# -- partial selection against a full lexsort --------------------------------


def full_scores(vectors: dict[int, np.ndarray], query: np.ndarray) -> np.ndarray:
    """Cosine of the query against every row by a dense row-major product;
    rows or a query of norm 0 score 0."""
    matrix = np.array([vectors[key] for key in sorted(vectors)], dtype=np.float64)
    denom = np.linalg.norm(matrix, axis=1) * float(np.linalg.norm(query))
    out = np.zeros(len(vectors))
    return np.divide(matrix @ query, denom, out=out, where=denom > 0.0)


def lexsort_oracle(vectors: dict[int, np.ndarray], query: np.ndarray, k: int):
    """Score every row and sort all of them: descending score, then key."""
    keys = np.array(sorted(vectors), dtype=np.int64)
    scores = full_scores(vectors, query)
    order = np.lexsort((keys, -scores))[:k]
    return [(int(keys[i]), float(scores[i])) for i in order]


def tie_heavy_vectors(rng, count: int, dim: int = 4) -> dict[int, np.ndarray]:
    # values in {-1, 0, 1}, as the hashed embedder produces for short
    # texts: many rows share a score, and integer dot products are exact,
    # so index and oracle scores agree bit for bit
    return {key: rng.integers(-1, 2, size=dim).astype(np.float64) for key in range(count)}


def fill(index: VectorIndex, embedder: FixtureEmbedder, vectors) -> None:
    for key, values in vectors.items():
        embedder.add(f"t{key}", values.tolist())
        assert append_row(index, f"t{key}", embedder) == key


def test_top_k_selection_matches_full_lexsort_on_ties():
    rng = np.random.default_rng(7)
    vectors = tie_heavy_vectors(rng, 300)
    embedder = FixtureEmbedder({}, default=[0.0] * 4)
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    for trial in range(40):
        query = rng.integers(-1, 2, size=4).astype(np.float64)
        embedder.add(f"q{trial}", query.tolist())
        for k in (1, 2, 5, 17, 299, 300, 301, 1000):
            got = index.top_k(f"q{trial}", k, embedder)
            assert got == lexsort_oracle(vectors, query, k), (trial, k)


def test_top_k_zero_norm_query_returns_ascending_keys():
    rng = np.random.default_rng(8)
    vectors = tie_heavy_vectors(rng, 50)
    embedder = FixtureEmbedder({"zero": [0.0] * 4})
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    for k in (1, 5, 50, 60):
        want = [(key, 0.0) for key in sorted(vectors)[:k]]
        assert index.top_k("zero", k, embedder) == want
        assert lexsort_oracle(vectors, np.zeros(4), k) == want


def test_top_k_exact_across_growth():
    rng = np.random.default_rng(9)
    embedder = FixtureEmbedder({}, default=[0.0] * 6)
    index = VectorIndex(dimension=6)
    live: dict[int, np.ndarray] = {}
    incoming = tie_heavy_vectors(rng, 700, dim=6)  # crosses 16, 32, ..., 512 rows
    for step, (key, values) in enumerate(incoming.items()):
        fill(index, embedder, {key: values})
        live[key] = values
        if step % 23 == 0 or step == len(incoming) - 1:
            query = rng.integers(-1, 2, size=6).astype(np.float64)
            embedder.add(f"q{step}", query.tolist())
            for k in (1, 5, len(live)):
                assert index.top_k(f"q{step}", k, embedder) == lexsort_oracle(live, query, k)
    assert len(index) == len(live) == 700


def test_top_k_over_the_first_rows_matches_the_oracle_over_them():
    rng = np.random.default_rng(10)
    vectors = tie_heavy_vectors(rng, 200)
    embedder = FixtureEmbedder({}, default=[0.0] * 4)
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    for trial in range(20):
        query = rng.integers(-1, 2, size=4).astype(np.float64)
        embedder.add(f"q{trial}", query.tolist())
        for rows in (0, 1, 7, 16, 17, 150, 199, 200, 250):
            first = {key: vectors[key] for key in range(min(rows, len(vectors)))}
            for k in (1, 5, 17, 300):
                want = lexsort_oracle(first, query, k) if first else []
                assert index.top_k(f"q{trial}", k, embedder, rows=rows) == want, (trial, rows, k)


def test_first_write_back_after_load_does_not_copy_the_rows(tmp_path):
    embedder = HashedBagEmbedder(dimension=64)
    corpus_path = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    corpus = ingest_corpus(corpus_path)
    graph = KnowledgeGraph()
    for key in range(64):
        graph.insert(f"entity {key}", "r", f"entity {key + 1}", "doc:d1", 0)
    stores = graph_stores(graph, corpus, embedder)
    save_stores(stores, tmp_path / "snap", embedder, corpus_path)
    loaded = load_stores(tmp_path / "snap", embedder).triple_index
    postings = list(loaded._postings)
    touched: set[int] = set()
    for key in range(64, 72):
        assert append_row(loaded, f"text {key}", embedder) == key
        touched.update(embedder.embed(f"text {key}").columns)
    copied = {c for c in range(64) if loaded._postings[c] is not postings[c]}
    # a write-back reaches only the postings of its own columns
    assert copied <= touched and len(touched) < 16
    assert len(loaded) == 72 and list(loaded.entries())[70] == (70, "text 70")
    expected = VectorIndex(dimension=64)
    expected.extend([text for _, text in loaded.entries()], embedder)
    assert index_rows(loaded) == index_rows(expected)


# -- the postings scan and selection from the top -----------------------------


def test_scan_matches_oracle_on_sparse_and_dense_queries():
    rng = np.random.default_rng(21)
    vectors = {key: rng.normal(size=16).tolist() for key in range(300)}
    index, embedder = make_index(vectors)
    assert index._fill == [300] * 16  # dense rows: every row in every posting
    sparse = np.zeros(16)
    sparse[[1, 6, 7, 12]] = rng.normal(size=4)
    dense = rng.normal(size=16)
    assert np.all(dense != 0.0)
    for name, query in (("sparse", sparse), ("dense", dense)):
        embedder.add(name, query.tolist())
        got = index.top_k(name, len(vectors), embedder)
        want = oracle_cosine_top_k(vectors, query.tolist(), len(vectors))
        assert [key for key, _ in got] == [key for key, _ in want]
        for (_, gs), (_, ws) in zip(got, want):
            assert abs(gs - ws) <= 1e-12


def test_scan_is_bit_equal_to_a_full_row_major_product_on_integer_vectors():
    rng = np.random.default_rng(22)
    vectors = tie_heavy_vectors(rng, 500, dim=32)
    embedder = FixtureEmbedder({}, default=[0.0] * 32)
    index = VectorIndex(dimension=32)
    fill(index, embedder, vectors)
    sparse = np.zeros(32)
    sparse[[0, 9, 30]] = [2.0, -1.0, 1.0]
    dense = rng.choice([-2.0, -1.0, 1.0, 3.0], size=32)
    for name, query in (("sparse", sparse), ("dense", dense)):
        embedder.add(name, query.tolist())
        got = np.zeros(len(vectors))
        for key, score in index.top_k(name, len(vectors), embedder):
            got[key] = score
        # ``+ 0.0`` turns the product's -0.0 into the +0.0 every zero score is
        want = full_scores(vectors, query) + 0.0
        assert got.tobytes() == want.tobytes()


def test_rows_zero_in_a_negative_query_score_positive_zero():
    dim = 8
    query = [-1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    rows = {0: [0.0, 3.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            1: [0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0, 1.0],
            2: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}
    index, embedder = make_index(rows)
    embedder.add("q", query)
    emb = embedder.embed("q")
    touched, _ = vector.cosine_scores(index._gather(emb), index._norms[: len(index)], emb.norm)
    assert touched.tolist() == [2]
    hits = index.top_k("q", 3, embedder)
    assert hits[:2] == [(0, 0.0), (1, 0.0)] and hits[2][1] < 0.0
    assert not np.signbit([score for _, score in hits[:2]]).any()
    sub = SubAnswer(index=0, sub_question="q", rewritten_question="q", retrieved=hits,
                    answerable_from_graph=False, answer="", used_triple_ids=[])
    text = trace_to_json(QuestionTrace("z", "q", sub_answers=[sub]))
    assert "-0.0" not in text
    assert json.loads(text)["sub_answers"][0]["retrieved"][:2] == [[0, 0.0], [1, 0.0]]


def test_selection_matches_lexsort_when_most_scores_are_zero():
    rng = np.random.default_rng(23)
    dim = 32
    vectors = {}
    for key in range(2000):
        values = np.zeros(dim)
        values[rng.choice(np.arange(4, dim), size=3, replace=False)] = rng.integers(1, 3, 3)
        if rng.random() < 0.06:  # a few rows share a query column
            values[rng.integers(0, 4)] = rng.choice([-1.0, 1.0])
        vectors[key] = values
    embedder = FixtureEmbedder({}, default=[0.0] * dim)
    index = VectorIndex(dimension=dim)
    fill(index, embedder, vectors)
    query = np.zeros(dim)
    query[:4] = [1.0, -1.0, 2.0, 1.0]
    embedder.add("q", query.tolist())
    scores = full_scores(vectors, query)
    assert np.mean(scores == 0.0) > 0.9
    assert (scores < 0.0).any() and (scores > 0.0).any()
    for k in (1, 5, 200, len(vectors)):
        assert index.top_k("q", k, embedder) == lexsort_oracle(vectors, query, k)


def test_fewer_than_k_positive_rows_fill_with_zero_rows_then_negative_rows():
    rng = np.random.default_rng(25)
    dim = 8
    vectors = {}
    for key in range(60):
        values = np.zeros(dim)
        values[rng.integers(1, dim)] = 1.0  # zero in the query's column
        if key % 9 == 4:
            values[0] = rng.choice([-2.0, -1.0, 1.0])  # a few rows score != 0
        vectors[key] = values
    vectors[7] = np.zeros(dim)  # a zero-norm row scores 0 too
    embedder = FixtureEmbedder({"q": [1.0] + [0.0] * (dim - 1)})
    index = VectorIndex(dimension=dim)
    fill(index, embedder, vectors)
    query = np.eye(dim)[0]
    scores = full_scores(vectors, query)
    positive, negative = np.flatnonzero(scores > 0.0), np.flatnonzero(scores < 0.0)
    assert 0 < len(positive) < 5 and len(negative) > 1
    for k in (5, len(vectors) - len(negative) + 1, len(vectors)):
        got = index.top_k("q", k, embedder)
        assert got == lexsort_oracle(vectors, query, k), k
        keys = [key for key, _ in got]
        zeros = [key for key in range(len(vectors)) if scores[key] == 0.0]
        assert keys[len(positive):len(positive) + len(zeros)] == zeros[: k - len(positive)]
    assert [key for key, _ in got][-len(negative):] == sorted(
        negative.tolist(), key=lambda key: (-scores[key], key))


def test_scan_reads_only_the_query_columns():
    rng = np.random.default_rng(24)
    vectors = {key: rng.normal(size=12).tolist() for key in range(100)}
    index, embedder = make_index(vectors)
    query = np.zeros(12)
    query[[2, 5]] = [0.5, -1.5]
    embedder.add("q", query.tolist())
    before = index.top_k("q", 100, embedder)
    for column in np.flatnonzero(query == 0.0):
        index._postings[column][1] = np.nan
    emb = embedder.embed("q")
    rows, scores = vector.cosine_scores(index._gather(emb), index._norms[: len(index)], emb.norm)
    # one entry per row and query column, each with its row's score
    assert sorted(rows.tolist()) == sorted(list(range(100)) * 2)
    assert np.isfinite(scores).all()
    assert index.top_k("q", 100, embedder) == before


def test_top_k_ignores_a_row_still_being_written():
    # a writer fills a row's postings before it moves the row count; a
    # reader that took the count before then must not see the row
    index, embedder = make_index({0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 1.0]})
    embedder.add("q", [1.0, 1.0])
    before = index.top_k("q", 5, embedder)
    index._add_to_posting(0, np.array([[3.0], [5.0]]))
    index._add_to_posting(1, np.array([[3.0], [5.0]]))
    assert len(index) == 3 and index.top_k("q", 5, embedder) == before


def test_cancelling_hash_tokens_store_no_zero_weight():
    embedder = HashedBagEmbedder(dimension=4)
    tokens = [f"w{i}" for i in range(40)]
    by_bucket: dict[tuple[int, float], str] = {}
    for token in tokens:
        emb = embedder.embed(token)
        by_bucket.setdefault((emb.columns[0], emb.weights[0]), token)
    bucket = next(b for b, w in by_bucket if (b, -w) in by_bucket)
    text = f"{by_bucket[(bucket, 1.0)]} {by_bucket[(bucket, -1.0)]}"
    emb = embedder.embed(text)
    assert bucket not in emb.columns and dense(emb)[bucket] == 0.0
    index = VectorIndex(dimension=4)
    index.extend([text], embedder)
    assert index._fill[bucket] == 0
    append_row(index, text, embedder)
    assert index._fill[bucket] == 0
    assert all(0.0 not in index._postings[c][1, : index._fill[c]] for c in range(4))


def test_hash_embedding_equals_the_dense_reference():
    # the embedder before its sparse form and token memo: one sha256 per
    # token occurrence into a dense vector
    def reference(text: str, dimension: int) -> np.ndarray:
        vec = np.zeros(dimension)
        for token in re.findall(r"\w+", text.casefold()):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "little") % dimension
            vec[bucket] += 1.0 if digest[4] & 1 else -1.0
        return vec

    rng = random.Random(26)
    words = ["Émile", "the", "THE", "of", "x1", "ß", "straße", "a_b", "42", "-", "  "]
    for dimension in (3, 16, 256):
        embedder = HashedBagEmbedder(dimension)
        for _ in range(300):
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(12)))
            want = reference(text, dimension)
            emb = embedder.embed(text)
            assert dense(emb).tobytes() == want.tobytes()
            assert list(emb.columns) == np.flatnonzero(want).tolist()
            assert emb.norm.hex() == float(np.linalg.norm(want)).hex()


# -- selection from the best entries -----------------------------------------


def reference_top_k(index: VectorIndex, embedder, text: str, k: int, rows=None):
    """top_k as the scan ranked before it selected from the gathered
    entries, written apart from it: a row-length ``np.bincount`` over the
    query's postings in column order, every touched row with a nonzero dot
    product scored, every other row +0.0, and all rows sorted by (-score,
    row)."""
    n = len(index) if rows is None else min(rows, len(index))
    query = embedder.embed(text)
    ids, products = [np.empty(0)], [np.empty(0)]
    for column, weight in zip(query.columns, query.weights):
        posting = index._postings[column][:, : index._fill[column]]
        ids.append(posting[0])
        products.append(posting[1] * weight)
    dots = np.bincount(np.concatenate(ids).astype(np.intp), np.concatenate(products),
                       minlength=n)[:n]
    scores = np.zeros(n)
    touched = dots != 0.0
    scores[touched] = dots[touched] / (index._norms[:n][touched] * query.norm)
    order = np.lexsort((np.arange(n), -scores))[:k]
    return [(int(row), float(scores[row])) for row in order]


def hexed(hits):
    return [(key, score.hex()) for key, score in hits]


@pytest.fixture()
def cuts(monkeypatch):
    """The cut of every top_k call from here on: above 0 when the prefilter
    applied."""
    seen: list[float] = []
    real = vector._cut

    def recording(scores, need):
        seen.append(real(scores, need))
        return seen[-1]

    monkeypatch.setattr(vector, "_cut", recording)
    return seen


def test_selection_with_exactly_need_positive_entries(cuts):
    # query columns 0 and 1, k = 2: need = 4 entries, and exactly 4 score
    # above 0 (rows 3 and 5, touched in both columns); the rest are negative
    vectors = {key: np.array([-1.0, 0.0, 1.0, 0.0]) for key in range(8)}
    vectors[3] = np.array([1.0, 1.0, 0.0, 0.0])
    vectors[5] = np.array([2.0, 1.0, 1.0, 0.0])
    vectors[6] = np.array([0.0, -1.0, 0.0, 1.0])
    embedder = FixtureEmbedder({"q": [1.0, 1.0, 0.0, 0.0]}, default=[0.0] * 4)
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    query = np.array([1.0, 1.0, 0.0, 0.0])
    assert index.top_k("q", 2, embedder) == lexsort_oracle(vectors, query, 2)
    assert cuts[-1] > 0.0  # the 4th best entry is row 3's
    for k in (1, 3, 8):
        assert index.top_k("q", k, embedder) == lexsort_oracle(vectors, query, k), k


def test_selection_with_ties_across_the_need_th_entry(cuts):
    # rows 0..39 tie, touched in both query columns; a few score higher.
    # The need-th entry falls inside the tie, which must rank by key
    vectors = {key: np.array([1.0, 1.0, 1.0, 0.0]) for key in range(40)}
    for key in (7, 31):
        vectors[key] = np.array([1.0, 1.0, 0.0, 0.0])
    embedder = FixtureEmbedder({"q": [1.0, 1.0, 0.0, 0.0]}, default=[0.0] * 4)
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    query = np.array([1.0, 1.0, 0.0, 0.0])
    for k in (1, 2, 3, 5, 19, 20, 39):
        cuts.clear()
        got = index.top_k("q", k, embedder)
        assert got == lexsort_oracle(vectors, query, k), k
        assert [key for key, _ in got[:2]] == [7, 31][:k]
        assert cuts[0] > 0.0 or 2 * k >= 80


def test_selection_when_every_row_is_touched_by_every_query_column(cuts):
    # each row has one entry per query column, so need entries are exactly
    # k rows' worth
    rng = np.random.default_rng(31)
    vectors = {key: rng.integers(1, 4, size=6).astype(np.float64) for key in range(120)}
    embedder = FixtureEmbedder({}, default=[0.0] * 6)
    index = VectorIndex(dimension=6)
    fill(index, embedder, vectors)
    for trial in range(10):
        query = rng.integers(1, 3, size=6).astype(np.float64)
        embedder.add(f"q{trial}", query.tolist())
        for k in (1, 4, 10, 119, 120):
            assert index.top_k(f"q{trial}", k, embedder) == lexsort_oracle(vectors, query, k)
    assert any(cut > 0.0 for cut in cuts)


def test_selection_with_few_positive_hash_entries_falls_back_exactly(cuts):
    # dimension 4 makes hash tokens share buckets: signs cancel to nothing
    # or to a negative weight, and most entries score 0 or below
    embedder = HashedBagEmbedder(dimension=4)
    rng = random.Random(32)
    words = [f"w{i}" for i in range(12)]
    index = VectorIndex(dimension=4)
    index.extend([" ".join(rng.choices(words, k=rng.randrange(1, 6))) for _ in range(150)],
                 embedder)
    fallbacks = 0
    for trial in range(60):
        text = " ".join(rng.choices(words, k=rng.randrange(1, 5)))
        for k in (1, 3, 10, 60, 149, 150, 400):
            cuts.clear()
            assert hexed(index.top_k(text, k, embedder)) == hexed(
                reference_top_k(index, embedder, text, k)), (text, k)
            fallbacks += cuts[0] == 0.0
    assert fallbacks > 0


def test_selection_for_a_zero_norm_query_and_k_beyond_the_touched_rows():
    rng = np.random.default_rng(33)
    vectors = {key: np.zeros(8) for key in range(50)}
    for key in rng.choice(50, size=6, replace=False):
        vectors[int(key)][rng.integers(0, 8)] = rng.choice([-1.0, 1.0, 2.0])
    embedder = FixtureEmbedder({"zero": [0.0] * 8}, default=[0.0] * 8)
    index = VectorIndex(dimension=8)
    fill(index, embedder, vectors)
    for column in range(8):
        query = np.eye(8)[column]
        embedder.add(f"e{column}", query.tolist())
        touched = sum(vectors[key][column] != 0.0 for key in vectors)
        for k in (1, max(touched, 1), touched + 1, 49, 50, 51, 500):
            assert index.top_k(f"e{column}", k, embedder) == lexsort_oracle(
                vectors, query, k), (column, k)
    for k in (1, 50, 51):
        assert index.top_k("zero", k, embedder) == lexsort_oracle(vectors, np.zeros(8), k)


def test_selection_over_the_first_rows_ignores_later_rows_in_every_column(cuts):
    # the rows past the bound would rank first, in every query column
    rng = np.random.default_rng(34)
    vectors = tie_heavy_vectors(rng, 90)
    for key in range(90, 100):
        vectors[key] = np.array([1.0, 1.0, 1.0, 1.0])
    embedder = FixtureEmbedder({"q": [1.0, 1.0, 1.0, 1.0]}, default=[0.0] * 4)
    index = VectorIndex(dimension=4)
    fill(index, embedder, vectors)
    query = np.ones(4)
    assert [key for key, _ in index.top_k("q", 10, embedder)] == list(range(90, 100))
    for rows in (1, 7, 50, 89, 90, 93):
        first = {key: vectors[key] for key in range(rows)}
        for k in (1, 3, 10, 95):
            got = index.top_k("q", k, embedder, rows=rows)
            assert got == lexsort_oracle(first, query, k), (rows, k)
    assert any(cut > 0.0 for cut in cuts)


def test_selection_is_bit_equal_on_non_integer_fixture_weights(cuts):
    # products and sums round: the scores must come from the same
    # bincount over the same entries in the same order
    rng = np.random.default_rng(35)
    vectors = {}
    for key in range(400):
        values = np.zeros(12)
        picked = rng.choice(12, size=rng.integers(1, 6), replace=False)
        values[picked] = rng.normal(size=len(picked)) / 3.0
        vectors[key] = values
    embedder = FixtureEmbedder({}, default=[0.0] * 12)
    index = VectorIndex(dimension=12)
    fill(index, embedder, vectors)
    for trial in range(30):
        query = np.zeros(12)
        picked = rng.choice(12, size=rng.integers(1, 5), replace=False)
        query[picked] = rng.normal(size=len(picked)) * 1.7
        embedder.add(f"q{trial}", query.tolist())
        for k in (1, 5, 10, 399, 400):
            for rows in (None, 333):
                assert hexed(index.top_k(f"q{trial}", k, embedder, rows=rows)) == hexed(
                    reference_top_k(index, embedder, f"q{trial}", k, rows)), (trial, k, rows)
    assert any(cut > 0.0 for cut in cuts) and any(cut == 0.0 for cut in cuts)


def test_top_k_equals_the_reference_on_every_benchmark_sub_question(tmp_path, monkeypatch):
    # every retrieval a smoke reads-50k pool makes, on both indexes
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.harness import Run
    from perfbench.standin import StandInBackend
    from perfbench.workloads import WORKLOADS

    run = Run(WORKLOADS["reads-50k"].smoke(), 1, 0.01, False, tmp_path)
    run.index()
    run.load()
    stores, embedder = run.stores, run.embedder
    asked: list[str] = []
    real_top_k = VectorIndex.top_k

    def recording(self, query_text, *args, **kwargs):
        asked.append(query_text)
        return real_top_k(self, query_text, *args, **kwargs)

    monkeypatch.setattr(VectorIndex, "top_k", recording)
    gateway = Gateway(run.registry, StandInBackend())
    for i, question in enumerate(run.inputs.questions):
        solve(f"q{i}", question.question, Config(parallelism=1), stores, gateway, embedder)
    monkeypatch.undo()
    assert len(set(asked)) >= 2 * len(run.inputs.questions)
    passage_index = stores.passages(embedder)
    assert len(passage_index) == len(stores.corpus) > 0
    for text in sorted(set(asked)):
        for index in (stores.triple_index, passage_index):
            for k in (1, 5, 10):
                assert hexed(index.top_k(text, k, embedder)) == hexed(
                    reference_top_k(index, embedder, text, k)), (text, k)


# -- the bulk fill -----------------------------------------------------------


def test_bulk_fill_equals_upserts(tmp_path):
    embedder = HashedBagEmbedder(dimension=16)
    texts = [f"entity {key} related to entity {key % 7}" for key in range(1100)]
    filled = VectorIndex(dimension=16)
    filled.extend(texts[:5], embedder)  # grows from empty
    filled.extend(iter(texts[5:]), embedder)  # appends to every posting again
    upserted = VectorIndex(dimension=16)
    for text in texts:
        append_row(upserted, text, embedder)
    assert index_rows(filled) == index_rows(upserted)
    assert list(filled.entries()) == list(enumerate(texts))
    for column in range(16):
        rows = filled._postings[column][0, : filled._fill[column]]
        assert (np.diff(rows) > 0).all()

    corpus_path = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    corpus = ingest_corpus(corpus_path)
    graph = KnowledgeGraph()
    for key in range(40):
        graph.insert(f"entity {key}", "r", f"entity {key + 1}", "doc:d1", 0)
    stores = graph_stores(graph, corpus, embedder)
    save_stores(stores, tmp_path / "snap", embedder, corpus_path)
    loaded = load_stores(tmp_path / "snap", embedder)
    assert index_rows(loaded.triple_index) == index_rows(stores.triple_index)


# Texts that the batched hashing must embed exactly as ``embed`` does one
# at a time: no tokens at all, tokens that cancel in a bucket (found per
# dimension below), a NUL inside a text, casefold expansions, non-ASCII
# word characters and repeated tokens.
_EDGE_TEXTS = ["", "?!. ,;", "a\x00b", "x\x00\x00y z\x00", "Straße STRASSE strasse", "ß ẞ ﬁ ǅ",
               "Émile 東京 İstanbul ΣΑΣ Ωmega", "٣٤ x_1 _", "the the the THE of of",
               "tab\tnew\nline\r\u3000ideographic\u2028sep"]


def _cancelling_pair(embedder: HashedBagEmbedder) -> str:
    """Two tokens with opposite signs in one bucket, as one text."""
    seen: dict[tuple[int, float], str] = {}
    for i in range(10_000):
        emb = embedder.embed(f"w{i}")
        key = (emb.columns[0], emb.weights[0])
        partner = seen.get((key[0], -key[1]))
        if partner is not None:
            return f"{partner} w{i}"
        seen.setdefault(key, f"w{i}")
    raise AssertionError("no cancelling pair")


@pytest.mark.parametrize("dimension", [1, 3, 16, 256])
def test_embed_many_equals_embed_row_by_row(dimension):
    embedder = HashedBagEmbedder(dimension)
    rng = random.Random(dimension)
    words = ["Émile", "the", "THE", "ß", "straße", "a_b", "42", "-", " ", "\x00", "東京", "ﬁ"]
    cancel = _cancelling_pair(embedder)
    texts = _EDGE_TEXTS + [cancel, cancel + " " + cancel] + [
        " ".join(rng.choice(words) for _ in range(rng.randrange(15))) for _ in range(300)]
    rows = embedder.embed_many(texts)
    assert [a.dtype for a in rows] == [np.intp, np.intp, np.float64, np.float64]
    assert len(rows.counts) == len(rows.norms) == len(texts)
    assert rows.counts.sum() == len(rows.columns) == len(rows.weights)
    ends = np.cumsum(rows.counts).tolist()
    for text, end, count, norm in zip(texts, ends, rows.counts.tolist(), rows.norms.tolist()):
        emb = embedder.embed(text)
        assert rows.columns[end - count:end].tolist() == list(emb.columns), text
        assert (rows.weights[end - count:end].tobytes()
                == np.array(emb.weights, dtype=np.float64).tobytes()), text
        assert norm.hex() == emb.norm.hex(), text
    assert rows.counts[len(_EDGE_TEXTS)] == 0  # the cancelling pair
    empty = embedder.embed_many([])
    assert [len(a) for a in empty] == [0, 0, 0, 0]


def test_extend_in_chunks_equals_one_text_extends():
    embedder = HashedBagEmbedder(dimension=32)
    sizes = [0, 1, EXTEND_CHUNK - 1, EXTEND_CHUNK, EXTEND_CHUNK + 1, 2 * EXTEND_CHUNK + 3]
    texts = [f"entity {key} of {key % 13} {_EDGE_TEXTS[key % len(_EDGE_TEXTS)]}"
             for key in range(sizes[-1])]
    one_by_one = VectorIndex(dimension=32)
    expected = {0: index_rows(one_by_one)}
    for text in texts:
        append_row(one_by_one, text, embedder)
        if len(one_by_one) in sizes:
            expected[len(one_by_one)] = index_rows(one_by_one)
    for size in sizes:
        filled = VectorIndex(dimension=32)
        filled.extend(texts[:size], embedder)
        assert index_rows(filled) == expected[size], size
    # chunks counted from a row that is not 0
    filled = VectorIndex(dimension=32)
    filled.extend(texts[:1], embedder)
    filled.extend(texts[1:], embedder)
    assert index_rows(filled) == expected[sizes[-1]]


class _EmbedOnly:
    """An embedder with only ``name``, ``dimension`` and ``embed``, as a
    user's embedder or the benchmark's tracing proxy may be."""

    def __init__(self, inner):
        self.name = inner.name
        self.dimension = inner.dimension
        self.embed = inner.embed


def test_an_embedder_without_embed_many_loads_the_same_rows(tmp_path):
    embedder = HashedBagEmbedder(dimension=64)
    snap = save_hash_snapshot(tmp_path, EXTEND_CHUNK + 5)
    assert not hasattr(_EmbedOnly(embedder), "embed_many")
    batched = load_stores(snap, embedder)
    one_by_one = load_stores(snap, _EmbedOnly(embedder))
    assert index_rows(one_by_one.triple_index) == index_rows(batched.triple_index)
    passages = one_by_one.passages(_EmbedOnly(embedder))
    assert len(passages) == len(one_by_one.corpus) > 0
    assert index_rows(passages) == index_rows(batched.passages(embedder))
