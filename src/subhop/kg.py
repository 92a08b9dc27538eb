"""Deduplicated, provenance-tracking triple store.

The graph is append-only: triples are never mutated or deleted, ids are
dense integers in insertion order, and a case/whitespace-insensitive
dedup key guarantees that the same fact is stored once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import ParseError, SubhopError
from .records import read_json_lines

DYNAMIC_PREFIX = "dynamic:"

DedupKey = tuple[str, str, str]


def normalize_field(value: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(value.split())


def _normalize(head: str, relation: str, tail: str) -> tuple[tuple[str, str, str], DedupKey]:
    """Normalized fields and dedup key; SubhopError if a field trims to nothing."""
    # normalize_field, written out: an index build runs this once per extracted row
    h = " ".join(head.split())
    r = " ".join(relation.split())
    t = " ".join(tail.split())
    if not h or not r or not t:
        raise SubhopError(f"empty field in triple ({head!r}, {relation!r}, {tail!r})")
    return (h, r, t), (h.casefold(), r.casefold(), t.casefold())


class Triple(NamedTuple):
    """One (head, relation, tail) fact with provenance; immutable.

    ``provenance`` is either ``doc:<document-id>`` for triples extracted
    during offline indexing or ``dynamic:<question-id>`` for triples
    written back while answering. ``created_at_step`` is 0 for offline
    triples and the 1-based sub-question index for write-backs.

    A tuple, because a snapshot load builds one per line, and a tuple is
    several times cheaper to build than a frozen dataclass.
    """

    id: int
    head: str
    relation: str
    tail: str
    provenance: str
    created_at_step: int

    @property
    def is_dynamic(self) -> bool:
        return self.provenance.startswith(DYNAMIC_PREFIX)


@dataclass(frozen=True)
class GraphStats:
    triple_count: int
    entity_count: int
    dynamic_count: int


class KnowledgeGraph:
    """Append-only collection of deduplicated triples.

    Thread-safety is by contract, not enforced here: callers serialize
    writes through a single writer path and may read concurrently.

    The dedup-key index serves only writes. A loaded graph holds none
    until its first ``insert`` or ``new_fields`` builds it, so a run
    that never writes never pays for it.
    """

    def __init__(self) -> None:
        self._triples: list[Triple] = []
        self._key_index: dict[DedupKey, int] | None = {}

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._triples == other._triples

    def _keys(self) -> dict[DedupKey, int]:
        """The dedup-key index, built from the stored triples at the first
        call after a load. Stored fields are already normalized, so each
        key is the casefolded fields."""
        if self._key_index is None:
            self._key_index = {
                (t.head.casefold(), t.relation.casefold(), t.tail.casefold()): t.id
                for t in self._triples
            }
        return self._key_index

    def insert(
        self, head: str, relation: str, tail: str, provenance: str, step: int
    ) -> tuple[int, bool]:
        """Insert a triple, deduplicating on the normalized key.

        Returns ``(id, True)`` for a new triple or ``(existing_id, False)``
        when an equivalent triple is already stored. Raises SubhopError if
        any field trims to nothing, as no row ``validate_triple_rows``
        keeps does.
        """
        fields, key = _normalize(head, relation, tail)
        keys = self._keys()
        existing = keys.get(key)
        if existing is not None:
            return existing, False
        triple_id = len(self._triples)
        self._triples.append(Triple(triple_id, *fields, provenance, step))
        keys[key] = triple_id
        return triple_id, True

    def new_fields(self, head: str, relation: str, tail: str) -> tuple[str, str, str] | None:
        """The normalized fields ``insert`` would store, or None when an
        equivalent triple is already stored. Raises SubhopError as
        ``insert`` does."""
        fields, key = _normalize(head, relation, tail)
        return None if key in self._keys() else fields

    def lookup(self, triple_id: int) -> Triple:
        """The triple with this id; SubhopError unless 0 <= id < len(self)."""
        if 0 <= triple_id < len(self._triples):
            return self._triples[triple_id]
        raise SubhopError(f"unknown triple id {triple_id}")

    def stats(self) -> GraphStats:
        # an entity is a head or tail under the dedup key's casefolding;
        # stored fields are already whitespace-normalized
        entities = {e.casefold() for t in self._triples for e in (t.head, t.tail)}
        dynamic = sum(1 for t in self._triples if t.is_dynamic)
        return GraphStats(len(self._triples), len(entities), dynamic)

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> str:
        """Write one JSON record per triple, fixed field order, and return
        the sha256 of the bytes written, which ``load`` checks.

        The field order is part of the format so that save -> load -> save
        round-trips byte-identically.
        """
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for t in self._triples:
                line = (encode_record(t) + "\n").encode("utf-8")
                digest.update(line)
                fh.write(line)
        return digest.hexdigest()

    @classmethod
    def load(cls, path: str | Path, sha256: str) -> "KnowledgeGraph":
        """Read what ``save`` wrote, given the digest ``save`` returned.

        The file is read once. Bytes that do not hash to ``sha256`` raise
        ParseError before anything is parsed. Bytes that do are what
        ``save`` wrote from triples that had all passed ``insert``, so each
        record becomes its ``Triple`` as it stands: no normalization, no
        dedup keys and no id checks. Such a file can be malformed only
        under a forged digest; a line that is not a JSON object, or lacks
        a field, still raises ParseError naming the line.
        """
        data = Path(path).read_bytes()
        if hashlib.sha256(data).hexdigest() != sha256:
            raise ParseError(f"graph {path} changed since the snapshot was saved")
        graph = cls()
        triples = graph._triples
        try:
            for lineno, r in read_json_lines(path, data):
                triples.append(Triple(r["id"], r["head"], r["relation"], r["tail"],
                                      r["provenance"], r["step"]))
        except KeyError as exc:
            raise ParseError(f"missing field {exc.args[0]!r}", line=lineno) from None
        graph._key_index = None
        return graph


# one encoder for every line: ``json.dumps`` with these options builds a
# new one per call, and the output is the same
_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def encode_record(t: Triple) -> str:
    """One triple as its snapshot line (compact JSON, fixed field order)."""
    record = {
        "id": t.id,
        "head": t.head,
        "relation": t.relation,
        "tail": t.tail,
        "provenance": t.provenance,
        "step": t.created_at_step,
    }
    return _ENCODE(record)
