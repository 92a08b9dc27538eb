"""Embedding backends.

The retrieval layer only needs a deterministic ``embed(text)`` with a
fixed dimension. The default is a hashed bag-of-words embedder: fully
offline, stable across processes, and good enough for token-overlap
ranking. Tests use FixtureEmbedder to pin exact vectors per string. A
real sentence-encoder can be plugged in by implementing the same
protocol.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigError

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

    @property
    def values(self) -> np.ndarray:
        """The dense vector."""
        out = np.zeros(self.dimension, dtype=np.float64)
        out[list(self.columns)] = self.weights
        return out


class Embedder(Protocol):
    """Behavioral contract: deterministic text-to-vector mapping."""

    name: str
    dimension: int

    def embed(self, text: str) -> Embedding: ...


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


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _bucket_and_sign(token: str, dimension: int) -> tuple[int, int]:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % dimension, 1 if digest[4] & 1 else -1


class FixtureEmbedder:
    """Maps exact strings to preset vectors; used to pin retrieval ranks
    in tests. Unknown text raises unless a default vector is given."""

    def __init__(
        self,
        vectors: Mapping[str, Sequence[float]],
        default: Sequence[float] | None = None,
        name: str = "fixture",
    ):
        if not vectors and default is None:
            raise ConfigError("fixture embedder needs at least one vector")
        dims = {len(v) for v in vectors.values()}
        if default is not None:
            dims.add(len(default))
        if len(dims) != 1:
            raise ConfigError(f"fixture vectors disagree on dimension: {sorted(dims)}")
        self.name = name
        self.dimension = dims.pop()
        self._vectors = {text: Embedding.of(v) for text, v in vectors.items()}
        self._default = Embedding.of(default) if default is not None else None

    def add(self, text: str, values: Sequence[float]) -> None:
        if len(values) != self.dimension:
            raise ConfigError("vector dimension mismatch")
        self._vectors[text] = Embedding.of(values)

    def embed(self, text: str) -> Embedding:
        found = self._vectors.get(text)
        if found is not None:
            return found
        if self._default is not None:
            return self._default
        raise KeyError(f"fixture embedder has no vector for {text!r}")


def make_embedder(name: str, dimension: int) -> Embedder:
    """Build an embedder from config values."""
    if name == "hash":
        return HashedBagEmbedder(dimension)
    raise ConfigError(f"unknown embedder {name!r} (available: hash)")


def basis_vector(index: int, dimension: int) -> list[float]:
    """Unit vector helper for fixture construction."""
    if not 0 <= index < dimension:
        raise ValueError("basis index out of range")
    vec = [0.0] * dimension
    vec[index] = 1.0
    return vec
