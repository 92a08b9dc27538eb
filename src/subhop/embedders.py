"""Embedding backends.

The retrieval layer only needs a deterministic ``embed(text)`` with a
fixed dimension. The default is a hashed bag-of-words embedder: fully
offline, stable across processes, and good enough for token-overlap
ranking. A real sentence-encoder can be plugged in by implementing the
same protocol.

An embedder may also have ``embed_many(texts)``, which returns ``Rows``:
the same vectors as ``embed`` of each text, bit for bit, as flat arrays.
Filling an index calls it when it is there (see ``embed_rows``). A query
always goes through ``embed``, which for one text is the faster of the two.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .errors import ConfigError, SubhopError

_TOKEN_RE = re.compile(r"\w+")

# distinct tokens whose bucket and sign stay memoized (a few MB at most):
# a corpus's frequent words fit, and rare ones are hashed again on reuse
_TOKEN_MEMO_SIZE = 1 << 14


@dataclass(frozen=True)
class Embedding:
    """A vector in sparse form: its nonzero ``columns`` in ascending order,
    their ``weights``, and its Euclidean norm, computed once.

    Every embedder returns this form; a dense vector lists each of its
    nonzero columns.
    """

    columns: tuple[int, ...]
    weights: tuple[float, ...]
    norm: float
    dimension: int

    @classmethod
    def of(cls, values: Sequence[float] | np.ndarray) -> "Embedding":
        arr = np.asarray(values, dtype=np.float64)
        columns = np.flatnonzero(arr)
        return cls(tuple(columns.tolist()), tuple(arr[columns].tolist()),
                   float(np.linalg.norm(arr)), len(arr))


class Rows(NamedTuple):
    """Many embeddings as flat arrays: row i has ``counts[i]`` entries,
    which follow row i - 1's in ``columns`` (ascending within the row) and
    ``weights``, and the norm ``norms[i]``."""

    counts: np.ndarray  # intp, one per row
    columns: np.ndarray  # intp
    weights: np.ndarray  # float64
    norms: np.ndarray  # float64, one per row


class Embedder(Protocol):
    """Behavioral contract: deterministic text-to-vector mapping. An
    optional ``embed_many`` is described in the module docstring."""

    name: str
    dimension: int

    def embed(self, text: str) -> Embedding: ...


def embed_rows(embedder: Embedder, texts: Sequence[str]) -> Rows:
    """Every text's embedding, as ``Rows``: ``embedder.embed_many(texts)``
    when the embedder has that method, else ``embed`` of each text
    gathered into the same arrays. An ``embed`` result of another
    dimension than the embedder's raises SubhopError."""
    embed_many = getattr(embedder, "embed_many", None)
    if embed_many is not None:
        return embed_many(texts)
    counts: list[int] = []
    columns: list[int] = []
    weights: list[float] = []
    norms: list[float] = []
    for text in texts:
        emb = embedder.embed(text)
        if emb.dimension != embedder.dimension:
            raise SubhopError(
                f"vector of dimension {emb.dimension} does not fit dimension {embedder.dimension}"
            )
        counts.append(len(emb.columns))
        columns += emb.columns
        weights += emb.weights
        norms.append(emb.norm)
    return Rows(np.array(counts, dtype=np.intp), np.array(columns, dtype=np.intp),
                np.array(weights, dtype=np.float64), np.array(norms, dtype=np.float64))


class HashedBagEmbedder:
    """sha256 feature hashing over lowercased word tokens.

    Each token contributes +/-1 to one bucket; the bucket and sign are
    derived from the token digest, so identical text maps to an identical
    vector in every process. Recent tokens' buckets and signs are
    memoized, so a recurring token is hashed once.
    """

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ConfigError("embedding dimension must be >= 1")
        self.name = "hash"
        self.dimension = dimension

    def embed(self, text: str) -> Embedding:
        counts: dict[int, int] = {}
        for token in _TOKEN_RE.findall(text.casefold()):
            bucket, sign = _bucket_and_sign(token, self.dimension)
            counts[bucket] = counts.get(bucket, 0) + sign
        columns = sorted(bucket for bucket, count in counts.items() if count)
        # an integer sum of squares is exact, so this is the dense
        # vector's ``np.linalg.norm`` bit for bit
        norm = math.sqrt(sum(count * count for count in counts.values()))
        return Embedding(tuple(columns), tuple(float(counts[c]) for c in columns),
                         norm, self.dimension)

    def embed_many(self, texts: Sequence[str]) -> Rows:
        """``embed`` of every text, as ``Rows``, bit for bit.

        Each text is tokenized on its own, and each distinct token is
        hashed once. Each token occurrence becomes one integer that orders
        by (row, bucket, sign); after one sort, each (row, bucket) is one
        run, whose sum of signs is the weight.

        Where two numpy operations would do, it uses the one an index fill
        already runs (a stable argsort, not ``np.sort`` or ``np.unique``;
        a difference, not ``!=``): the first call of any other one pages
        in more of numpy, which stays in the process's resident memory.
        """
        dimension = self.dimension
        code_of = _TokenCodes(dimension).__getitem__
        occurrences: list[int] = []  # every token's code, text after text
        lengths: list[int] = []  # tokens per text
        for text in texts:
            tokens = _TOKEN_RE.findall(text.casefold())
            occurrences += map(code_of, tokens)
            lengths.append(len(tokens))
        n = len(lengths)
        rows = np.repeat(np.arange(n), lengths)
        keys = rows * (2 * dimension) + np.array(occurrences, dtype=np.intp)
        # a row's keys stay in the row's own span, so ``rows`` still
        # holds the row of each sorted key
        keys = keys[np.argsort(keys, kind="stable")]
        cells = keys >> 1  # row * dimension + bucket
        starts = np.concatenate(([0], np.flatnonzero(cells[1:] - cells[:-1]) + 1))
        signs = _SIGNS[keys - 2 * cells]
        sums = np.add.reduceat(signs, starts) if len(keys) else signs
        nonzero = np.flatnonzero(sums)
        starts, sums = starts[nonzero], sums[nonzero]
        rows = rows[starts]
        # weights are small integers, so the sums of their squares are
        # exact, and these are ``embed``'s norms bit for bit
        norms = np.sqrt(np.bincount(rows, weights=sums * sums, minlength=n))
        return Rows(np.bincount(rows, minlength=n), cells[starts] - rows * dimension, sums, norms)


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _bucket_and_sign(token: str, dimension: int) -> tuple[int, int]:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % dimension, 1 if digest[4] & 1 else -1


# a token code's low bit picks its sign
_SIGNS = np.array([-1.0, 1.0])


class _TokenCodes(dict):
    """token -> 2 * bucket + 1 if its sign is +1, else 2 * bucket; a token
    missing is hashed and stored on first lookup."""

    def __init__(self, dimension: int):
        super().__init__()
        self._dimension = dimension

    def __missing__(self, token: str) -> int:
        bucket, sign = _bucket_and_sign(token, self._dimension)
        code = self[token] = 2 * bucket + (sign > 0)
        return code


def make_embedder(name: str, dimension: int) -> Embedder:
    """The embedder called ``name`` (only ``hash`` is built in) of this
    dimension."""
    if name == "hash":
        return HashedBagEmbedder(dimension)
    raise ConfigError(f"unknown embedder {name!r} (available: hash)")
