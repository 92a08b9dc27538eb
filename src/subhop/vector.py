"""Exact cosine top-k index over verbalized triples and corpus passages.

Rows are stored as per-column postings, an inverted file: for each
column, the rows that are nonzero there and their weights. A query reads
only the postings of its own nonzero columns, which for a hashed
bag-of-words query are a few of the 256, and so scores exactly the rows
it touches; every other row scores 0. Ties break by ascending key;
zero-norm vectors score 0.

Selection reads only the gathered posting entries, not a row-length
array. A row has at most one entry per query column, so the best
``k * len(query.columns)`` entries name at least k rows, and the score
of the last of them is a lower bound on the k-th best row's. When that
bound is above 0, every row that can rank, ties at the k-th score
included, has all its entries at or above it, and only those entries
are sorted. Otherwise the positive entries are sorted, and the rows
scoring 0 and then the negative ones fill the rest.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .embedders import Embedder, Embedding, Rows, embed_rows
from .errors import SubhopError
from .kg import Triple


def cosine_scores(
    postings: np.ndarray, norms: np.ndarray, query_norm: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each gathered entry's row, and that row's cosine score.

    ``postings`` is the query's gathered postings, shape ``(2, m)``: row
    numbers and ``weight * query weight`` products, summed per row, in
    entry order, into the dot product. A row appears once per query
    column it is nonzero in, each time with the same score bits; a row no
    entry names scores 0. Entries of rows at or beyond ``len(norms)`` are
    dropped. On integer vectors such as the ``hash`` embedder's every sum
    is exact, so the order of the terms does not matter.
    """
    n = len(norms)
    rows = postings[0].astype(np.intp)
    dots = np.bincount(rows, postings[1])
    if len(dots) > n:
        # each row's sum is its own, so the dots of the rows below n stand
        rows = rows[rows < n]
    return rows, dots[rows] / (norms[rows] * query_norm)


def _cut(scores: np.ndarray, need: int) -> float:
    """The ``need``-th best of the entry scores, or 0.0 if there are no
    more entries than that. Above 0 it bounds the k-th best row's score
    from below when ``need`` is k times the number of query columns."""
    if need >= len(scores):
        return 0.0
    return float(-np.partition(-scores, need - 1)[need - 1])


def _ranked(
    rows: np.ndarray, scores: np.ndarray, count: int, columns: int
) -> list[tuple[int, float]]:
    """The first ``count`` distinct rows of the entries, by descending
    score and then ascending row, with their scores. A row has at most
    ``columns`` entries, all with the same score, so they are adjacent
    after the sort and the first ``count * columns`` entries name enough
    rows."""
    order = np.lexsort((rows, -scores))[: count * columns]
    ranked: list[tuple[int, float]] = []
    last = -1
    for row, score in zip(rows[order].tolist(), scores[order].tolist()):
        if row != last:
            ranked.append((row, score))
            last = row
            if len(ranked) == count:
                break
    return ranked


def verbalize(head: str, relation: str, tail: str) -> str:
    """Flat text form of a triple, the string that gets embedded."""
    return f"{head} {relation} {tail}"


def verbalize_triple(t: Triple) -> str:
    return verbalize(t.head, t.relation, t.tail)


# texts embedded at a time by ``VectorIndex.extend``
EXTEND_CHUNK = 4096


def _with_room(array: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``array`` if its last axis holds ``needed`` entries, else a copy of
    its first ``used`` entries with room for at least ``needed`` and at
    least twice the old capacity."""
    capacity = array.shape[-1]
    if needed <= capacity:
        return array
    grown = np.empty(array.shape[:-1] + (max(16, needed, 2 * capacity),))
    grown[..., :used] = array[..., :used]
    return grown


class VectorIndex:
    """Append-only map from row numbers to (text, embedding). Rows enter
    only through ``extend``, at the next row numbers, so a row's key is
    its position: the triple id in the triple index, the corpus position
    in the passage index.

    Each of the ``dimension`` columns has a posting: a float64 array of
    shape ``(2, capacity)`` holding, in its first ``fill`` places, the
    ascending numbers of the rows that are nonzero in that column and
    their weights. Row norms sit in one more array. An array that is full
    is replaced by a copy of twice the capacity, so appending never
    invalidates anything. Readers take no lock, beside at most one writer
    at a time: the writer fills an entry before its posting's fill count
    moves, and writes every posting and the norm of a row before the row
    count moves; a reader takes the row count first and each fill count
    before its posting, and ignores rows at or beyond its count.
    """

    def __init__(self, dimension: int):
        self._dimension = dimension
        self._n = 0
        empty = np.empty((2, 0))
        self._postings = [empty] * dimension
        self._fill = [0] * dimension
        self._norms = np.empty(0)
        self._texts: list[str] = []

    def __len__(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._dimension

    def entries(self) -> Iterator[tuple[int, str]]:
        return enumerate(self._texts[: self._n])

    def _check_embedder(self, embedder: Embedder) -> None:
        if embedder.dimension != self._dimension:
            raise SubhopError(
                f"embedder dimension {embedder.dimension} != index dimension {self._dimension}"
            )

    def extend(self, texts: Iterable[str], embedder: Embedder) -> None:
        """Append one row per text, keyed by the next row numbers.

        The texts are embedded ``EXTEND_CHUNK`` at a time (``embed_rows``),
        so the embedder's working memory does not grow with their number.
        Every chunk is embedded, and checked to fit the dimension, before
        anything is written: an embedder that raises, or a vector that
        does not fit (SubhopError), leaves the index unchanged. Each
        chunk's (column, weight) entries are stably sorted by column, which
        keeps each column's rows ascending, and each posting grows once per
        chunk.
        """
        self._check_embedder(embedder)
        texts = list(texts)
        start, end = self._n, self._n + len(texts)
        chunks = []
        for first in range(start, end, EXTEND_CHUNK):
            part = texts[first - start:first - start + EXTEND_CHUNK]
            rows = embed_rows(embedder, part)
            chunks.append((first, rows.norms, *self._entries(rows, first, len(part))))
        for _, _, entries, per_column in chunks:
            bounds = np.concatenate(([0], np.cumsum(per_column))).tolist()
            for column in np.flatnonzero(per_column).tolist():
                self._add_to_posting(column, entries[:, bounds[column]:bounds[column + 1]])
        self._norms = _with_room(self._norms, start, end)
        for first, norms, _, _ in chunks:
            self._norms[first:first + len(norms)] = norms
        self._texts += texts
        self._n = end

    def _entries(self, rows: Rows, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The (row, weight) entries of ``n`` embedded rows numbered from
        ``first``, shape (2, m), sorted by column, and how many fall in each
        column. Raises SubhopError if a column lies outside the
        dimension, and ValueError if the arrays disagree on their sizes."""
        counts, columns, weights, norms = rows
        if not len(counts) == len(norms) == n or not counts.sum() == len(columns) == len(weights):
            raise ValueError(f"embedded rows do not describe {n} rows")
        per_column = np.bincount(columns, minlength=self._dimension)
        if len(per_column) > self._dimension:
            raise SubhopError(
                f"column {len(per_column) - 1} is outside dimension {self._dimension}"
            )
        order = np.argsort(columns, kind="stable")
        entries = np.empty((2, len(columns)))
        entries[0] = np.repeat(np.arange(first, first + n, dtype=np.float64), counts)[order]
        entries[1] = weights[order]
        return entries, per_column

    def _add_to_posting(self, column: int, new: np.ndarray) -> None:
        fill = self._fill[column]
        end = fill + new.shape[1]
        posting = self._postings[column] = _with_room(self._postings[column], fill, end)
        posting[:, fill:end] = new
        self._fill[column] = end

    def _gather(self, query: Embedding) -> np.ndarray:
        """The postings of the query's columns side by side, each weight
        multiplied by the query's weight in that column: shape (2, m)."""
        # a fill count is read before its posting: every array the posting
        # has been since then holds that many entries
        fills = [self._fill[column] for column in query.columns]
        parts = [self._postings[column][:, :fill]
                 for column, fill in zip(query.columns, fills)]
        gathered = np.concatenate(parts, axis=1) if parts else np.empty((2, 0))
        gathered[1] *= np.array(query.weights).repeat(fills)
        return gathered

    def top_k(
        self, query_text: str, k: int, embedder: Embedder, rows: int | None = None
    ) -> list[tuple[int, float]]:
        """Exact top-k by cosine score, descending, ties by ascending key,
        over the first ``min(rows, len(self))`` rows (all if ``rows`` is
        None). Takes no lock; a reader that resolves keys in another store
        passes that store's length, which a write-back grows last.

        Returns min(k, size) results; an empty index yields [] rather
        than an error.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = self._n if rows is None else min(rows, self._n)
        if n == 0:
            return []
        self._check_embedder(embedder)
        query = embedder.embed(query_text)
        rows, scores = cosine_scores(self._gather(query), self._norms[:n], query.norm)
        k = min(k, n)
        # every row that can rank has all its entries at or above a
        # positive cut (module docstring); else every positive row can
        cut = _cut(scores, k * len(query.columns))
        keep = scores >= cut if cut > 0.0 else scores > 0.0
        hits = _ranked(rows[keep], scores[keep], k, len(query.columns))
        if len(hits) < k:
            # fewer than k rows score above 0. The rows scoring 0 rank next:
            # every row without a nonzero entry. Only the first of them by
            # key can rank, and those lie below k + len(nonzero)
            nonzero = rows[scores != 0.0]
            free = np.ones(min(n, k + len(nonzero)), dtype=bool)
            free[nonzero[nonzero < len(free)]] = False
            hits += [(row, 0.0) for row in np.flatnonzero(free)[: k - len(hits)].tolist()]
        if len(hits) < k:
            # and the negative rows last
            negative = scores < 0.0
            hits += _ranked(rows[negative], scores[negative], k - len(hits), len(query.columns))
        return hits
