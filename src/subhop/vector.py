"""Exact cosine top-k index over verbalized triples and corpus passages.

A deliberate full scan: at the corpus sizes this engine targets an exact
numpy/BLAS scan is fast and keeps ranking exactly reproducible. Ties
break by ascending key; zero-norm vectors score 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .embedders import Embedder, Embedding
from .errors import DimensionMismatch, EmbedderMismatch, ParseError
from .kg import Triple


def cosine_scores(
    matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, query_norm: float
) -> np.ndarray:
    """Cosine of the query against every row; zero-norm rows or a zero-norm
    query score 0 instead of NaN."""
    n = matrix.shape[0]
    out = np.zeros(n, dtype=np.float64)
    if n == 0 or query_norm == 0.0:
        return out
    dots = matrix @ query
    denom = norms * query_norm
    nonzero = denom > 0.0
    out[nonzero] = dots[nonzero] / denom[nonzero]
    return out


def verbalize_triple(t: Triple) -> str:
    """Flat text form of a triple, the string that gets embedded."""
    return f"{t.head} {t.relation} {t.tail}"


class VectorIndex:
    """In-memory map from integer keys to (text, embedding).

    Re-upserting a key replaces its entry. The score matrix is rebuilt
    lazily after writes; reads between writes share the cached matrix.
    """

    def __init__(self, dimension: int | None = None):
        self._dimension = dimension
        self._keys: list[int] = []
        self._texts: list[str] = []
        self._vectors: list[np.ndarray] = []
        self._norms: list[float] = []
        self._pos: dict[int, int] = {}
        self._matrix: np.ndarray | None = None
        self._norm_arr: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def entries(self) -> Iterator[tuple[int, str]]:
        return zip(self._keys, self._texts)

    def text_for(self, key: int) -> str:
        return self._texts[self._pos[key]]

    def _check_embedder(self, embedder: Embedder) -> None:
        if self._dimension is None:
            self._dimension = embedder.dimension
        elif embedder.dimension != self._dimension:
            raise DimensionMismatch(
                f"embedder dimension {embedder.dimension} != index dimension {self._dimension}"
            )

    def upsert(self, key: int, text: str, embedder: Embedder) -> None:
        self._check_embedder(embedder)
        emb = embedder.embed(text)
        self._insert_embedding(key, text, emb)

    def _insert_embedding(self, key: int, text: str, emb: Embedding) -> None:
        if emb.values.shape != (self._dimension,):
            raise DimensionMismatch(
                f"vector of shape {emb.values.shape} does not fit dimension {self._dimension}"
            )
        values = np.asarray(emb.values, dtype=np.float64)
        pos = self._pos.get(key)
        if pos is None:
            self._pos[key] = len(self._keys)
            self._keys.append(key)
            self._texts.append(text)
            self._vectors.append(values)
            self._norms.append(emb.norm)
        else:
            self._texts[pos] = text
            self._vectors[pos] = values
            self._norms[pos] = emb.norm
        self._matrix = None
        self._norm_arr = None

    def _scan_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # concurrent readers may race to rebuild; keep locals so a reader
        # never observes a half-updated cache pair
        matrix, norms = self._matrix, self._norm_arr
        if matrix is None or norms is None:
            matrix = np.vstack(self._vectors)
            norms = np.asarray(self._norms, dtype=np.float64)
            self._matrix, self._norm_arr = matrix, norms
        return matrix, norms

    def top_k(self, query_text: str, k: int, embedder: Embedder) -> list[tuple[int, float]]:
        """Exact top-k by cosine score, descending, ties by ascending key.

        Returns min(k, size) results; an empty index yields [] rather
        than an error.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self._keys:
            return []
        self._check_embedder(embedder)
        query = embedder.embed(query_text)
        matrix, norms = self._scan_arrays()
        scores = cosine_scores(matrix, norms, query.values, query.norm)
        keys = np.asarray(self._keys, dtype=np.int64)
        order = np.lexsort((keys, -scores))
        top = order[: min(k, len(self._keys))]
        return [(int(keys[i]), float(scores[i])) for i in top]

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path, embedder: Embedder) -> None:
        """Write a header line with the embedder identity followed by one
        JSON record per entry."""
        header = {
            "embedder": embedder.name,
            "dimension": self._dimension if self._dimension is not None else embedder.dimension,
            "count": len(self._keys),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
            for key, text, vec in zip(self._keys, self._texts, self._vectors):
                record = {"key": key, "text": text, "values": vec.tolist()}
                fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
                fh.write("\n")

    @classmethod
    def load(cls, path: str | Path, embedder: Embedder) -> "VectorIndex":
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise ParseError("missing index header", line=1)
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid header: {exc.msg}", line=1) from None
            if header.get("embedder") != embedder.name or header.get("dimension") != embedder.dimension:
                raise EmbedderMismatch(
                    f"index built with {header.get('embedder')}/{header.get('dimension')}, "
                    f"loading with {embedder.name}/{embedder.dimension}"
                )
            index = cls(dimension=embedder.dimension)
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    text = record["text"]
                    values = record["values"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ParseError(f"invalid index record: {exc}", line=lineno) from None
                if not isinstance(key, int) or not isinstance(text, str):
                    raise ParseError("key must be int and text a string", line=lineno)
                index._insert_embedding(key, text, Embedding.of(values))
        return index
