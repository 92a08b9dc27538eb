"""Exact cosine top-k index over verbalized triples and corpus passages.

A deliberate exact scan: every row is scored, but only in the columns
where the query is nonzero, which is all a dot product needs and, for a
hashed bag-of-words query, a few of the 256. Ties break by ascending key;
zero-norm vectors score 0.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .embedders import Embedder, Embedding
from .errors import DimensionMismatch
from .kg import Triple

# rows ``extend`` embeds before copying them into the matrix at once
FILL_BLOCK_ROWS = 512


def cosine_scores(
    matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, query_norm: float
) -> np.ndarray:
    """Cosine of the query against every row; zero-norm rows or a zero-norm
    query score 0 instead of NaN.

    Only the matrix columns where the query is nonzero are read: on a
    column-major matrix each is one contiguous run. Leaving out the zero
    terms changes a dot product at most by the order of its sum, and not
    at all on integer vectors such as the ``hash`` embedder's. A query with
    no zero entry multiplies the whole matrix, without a gathered copy.
    """
    n = matrix.shape[0]
    out = np.zeros(n, dtype=np.float64)
    if n == 0 or query_norm == 0.0:
        return out
    columns = np.flatnonzero(query)
    if len(columns) == len(query):
        dots = matrix @ query
    else:
        dots = matrix[:, columns] @ query[columns]
    denom = norms * query_norm
    return np.divide(dots, denom, out=out, where=denom > 0.0)


def verbalize(head: str, relation: str, tail: str) -> str:
    """Flat text form of a triple, the string that gets embedded."""
    return f"{head} {relation} {tail}"


def verbalize_triple(t: Triple) -> str:
    return verbalize(t.head, t.relation, t.tail)


class VectorIndex:
    """Append-only map from row numbers to (text, embedding). A row's key
    is its position: the triple id in the triple index, the corpus
    position in the passage index.

    Rows live in preallocated arrays (a float64 matrix and its row norms)
    that double in capacity when full, so an append never invalidates
    anything. The row and its norm are written before the row count moves,
    so a reader that takes the count once and slices ``[:n]`` sees only
    complete rows. Growing swaps in larger copies.

    The matrix is column-major, so the scan reads each column it needs as
    one contiguous run; ``extend`` fills many rows a block at a time.
    """

    def __init__(self, dimension: int | None = None):
        self._dimension = dimension
        self._n = 0
        self._matrix = np.empty((0, dimension or 0), dtype=np.float64, order="F")
        self._norms = np.empty(0, dtype=np.float64)
        self._texts: list[str] = []

    def __len__(self) -> int:
        return self._n

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def entries(self) -> Iterator[tuple[int, str]]:
        return enumerate(self._texts[: self._n])

    def _check_embedder(self, embedder: Embedder) -> None:
        if self._dimension is None:
            self._dimension = embedder.dimension
        elif embedder.dimension != self._dimension:
            raise DimensionMismatch(
                f"embedder dimension {embedder.dimension} != index dimension {self._dimension}"
            )

    def embed(self, text: str, embedder: Embedder) -> Embedding:
        """The embedding of ``text`` that a row stores; raises
        DimensionMismatch, before anything is written, if it does not fit."""
        self._check_embedder(embedder)
        emb = embedder.embed(text)
        if emb.values.shape != (self._dimension,):
            raise DimensionMismatch(
                f"vector of shape {emb.values.shape} does not fit dimension {self._dimension}"
            )
        return emb

    def upsert(self, key: int, text: str, embedding: Embedding) -> None:
        """Append ``text`` as row ``key``, which must be the next row,
        ``len(self)``; any other key raises ValueError, so the index cannot
        drift apart from the list it mirrors. ``embedding`` must be
        ``embed(text, embedder)``; it is not checked again."""
        pos = self._n
        if key != pos:
            raise ValueError(f"upsert of key {key}, the next row is {pos}")
        if pos == len(self._norms):
            self._grow(max(16, 2 * pos))
        self._matrix[pos] = embedding.values
        self._norms[pos] = embedding.norm
        self._texts.append(text)
        self._n = pos + 1

    def extend(self, texts: Iterable[str], embedder: Embedder) -> None:
        """Append one row per text, each the row ``upsert`` would write.

        Each embedding is copied into a small row-major block as soon as
        it is made, so its memory is reused while still in cache, and the
        block is copied into the matrix in one assignment: stored one at a
        time, each row of a column-major matrix is ``dimension`` scattered
        writes.
        """
        self._check_embedder(embedder)
        block = np.empty((FILL_BLOCK_ROWS, self._dimension), dtype=np.float64)
        texts = iter(texts)
        while batch := list(islice(texts, FILL_BLOCK_ROWS)):
            start, end = self._n, self._n + len(batch)
            norms = []
            for row, text in enumerate(batch):
                emb = self.embed(text, embedder)
                block[row] = emb.values
                norms.append(emb.norm)
            if end > len(self._norms):
                self._grow(max(16, 2 * start, end))
            self._matrix[start:end] = block[: len(batch)]
            self._norms[start:end] = norms
            self._texts.extend(batch)
            self._n = end

    def reserve(self, capacity: int) -> None:
        """Make room for ``capacity`` rows, so inserting that many never
        copies the arrays."""
        if capacity > len(self._norms):
            self._grow(capacity)

    def _grow(self, capacity: int) -> None:
        """Copy the filled rows into arrays of ``capacity`` rows."""
        n = self._n
        matrix = np.empty((capacity, self._dimension), dtype=np.float64, order="F")
        norms = np.empty(capacity, dtype=np.float64)
        matrix[:n] = self._matrix[:n]
        norms[:n] = self._norms[:n]
        self._matrix, self._norms = matrix, norms

    def top_k(self, query_text: str, k: int, embedder: Embedder) -> list[tuple[int, float]]:
        """Exact top-k by cosine score, descending, ties by ascending key.

        Returns min(k, size) results; an empty index yields [] rather
        than an error.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = self._n
        if n == 0:
            return []
        self._check_embedder(embedder)
        query = embedder.embed(query_text)
        scores = cosine_scores(self._matrix[:n], self._norms[:n], query.values, query.norm)
        k = min(k, n)
        if k < n:
            # every row ranked above the k-th score, and every row tied
            # with it, is a candidate; sorting only those gives the same
            # prefix as sorting all n rows. Selecting from the top is the
            # same value, and much faster when most rows tie at 0.
            kth = -np.partition(-scores, k - 1)[k - 1]
            candidates = np.flatnonzero(scores >= kth)
        else:
            candidates = np.arange(n)
        # candidates ascend, so a stable sort keeps tied rows by ascending key
        order = np.argsort(-scores[candidates], kind="stable")[:k]
        return [(int(i), float(scores[i])) for i in candidates[order]]
