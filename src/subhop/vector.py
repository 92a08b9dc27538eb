"""Exact cosine top-k index over verbalized triples and corpus passages.

Rows are stored as per-column postings, an inverted file: for each
column, the rows that are nonzero there and their weights. A query reads
only the postings of its own nonzero columns, which for a hashed
bag-of-words query are a few of the 256, and so scores exactly the rows
it touches; every other row scores 0. Ties break by ascending key;
zero-norm vectors score 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .embedders import Embedder, Embedding, Rows, embed_rows
from .errors import DimensionMismatch
from .kg import Triple


def cosine_scores(
    postings: np.ndarray, norms: np.ndarray, query_norm: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rows with a nonzero dot product against the query, ascending,
    and their cosine scores; every other row scores 0.

    ``postings`` is the query's gathered postings, shape ``(2, m)``: row
    numbers and ``weight * query weight`` products, summed per row into
    the dot product. Rows at or beyond ``len(norms)`` are left out. On
    integer vectors such as the ``hash`` embedder's every sum is exact, so
    the order of the terms does not matter.
    """
    n = len(norms)
    dots = np.bincount(postings[0].astype(np.intp), postings[1], minlength=n)[:n]
    # a boolean mask is several times faster to search than the floats
    rows = np.flatnonzero(dots != 0.0)
    return rows, dots[rows] / (norms[rows] * query_norm)


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
            raise DimensionMismatch(
                f"embedder dimension {embedder.dimension} != index dimension {self._dimension}"
            )

    def extend(self, texts: Iterable[str], embedder: Embedder) -> None:
        """Append one row per text, keyed by the next row numbers.

        The texts are embedded ``EXTEND_CHUNK`` at a time (``embed_rows``),
        so the embedder's working memory does not grow with their number.
        Every chunk is embedded, and checked to fit the dimension, before
        anything is written: an embedder that raises, or a vector that
        does not fit (DimensionMismatch), leaves the index unchanged. Each
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
        column. Raises DimensionMismatch if a column lies outside the
        dimension, and ValueError if the arrays disagree on their sizes."""
        counts, columns, weights, norms = rows
        if not len(counts) == len(norms) == n or not counts.sum() == len(columns) == len(weights):
            raise ValueError(f"embedded rows do not describe {n} rows")
        per_column = np.bincount(columns, minlength=self._dimension)
        if len(per_column) > self._dimension:
            raise DimensionMismatch(
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
        gathered[1] *= np.repeat(query.weights, fills)
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
        if np.count_nonzero(scores > 0.0) < k:
            # the rows scoring 0 rank next: every row outside ``rows``.
            # Only the first k of them by key can rank, and those lie below
            # k + len(rows)
            free = np.ones(min(n, k + len(rows)), dtype=bool)
            free[rows[rows < len(free)]] = False
            zeros = np.flatnonzero(free)[:k]
            rows = np.concatenate((rows, zeros))
            scores = np.concatenate((scores, np.zeros(len(zeros))))
            by_key = np.argsort(rows)
            rows, scores = rows[by_key], scores[by_key]
        if len(rows) > k:
            # every row ranked above the k-th score, and every row tied
            # with it, is a candidate; sorting only those gives the same
            # prefix as sorting all of them. With k positive scores this
            # leaves out every row at or below 0
            kth = -np.partition(-scores, k - 1)[k - 1]
            keep = scores >= kth
            rows, scores = rows[keep], scores[keep]
        # rows ascend, so a stable sort keeps tied rows by ascending key
        order = np.argsort(-scores, kind="stable")[:k]
        return list(zip(rows[order].tolist(), scores[order].tolist()))
