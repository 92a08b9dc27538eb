"""Embedding backends.

The retrieval layer only needs a deterministic ``embed(text)`` with a
fixed dimension. The default is a hashed bag-of-words embedder: fully
offline, stable across processes, and good enough for token-overlap
ranking. Tests use FixtureEmbedder to pin exact vectors per string. A
real sentence-encoder can be plugged in by implementing the same
protocol.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class Embedding:
    """A vector with its Euclidean norm cached at construction."""

    values: np.ndarray
    norm: float

    @classmethod
    def of(cls, values: Sequence[float] | np.ndarray) -> "Embedding":
        arr = np.asarray(values, dtype=np.float64)
        return cls(arr, float(np.linalg.norm(arr)))


class Embedder(Protocol):
    """Behavioral contract: deterministic text-to-vector mapping."""

    name: str
    dimension: int

    def embed(self, text: str) -> Embedding: ...


class HashedBagEmbedder:
    """sha256 feature hashing over lowercased word tokens.

    Each token contributes +/-1 to one bucket; the bucket and sign are
    derived from the token digest, so identical text maps to an identical
    vector in every process.
    """

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ConfigError("embedding dimension must be >= 1")
        self.name = "hash"
        self.dimension = dimension

    def embed(self, text: str) -> Embedding:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token in _TOKEN_RE.findall(text.casefold()):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "little") % self.dimension
            sign = 1.0 if digest[4] & 1 else -1.0
            vec[bucket] += sign
        return Embedding.of(vec)


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
