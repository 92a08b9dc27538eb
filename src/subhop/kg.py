"""Deduplicated, provenance-tracking triple store.

The graph is append-only: triples are never mutated or deleted, ids are
dense integers in insertion order, and a case/whitespace-insensitive
dedup key guarantees that the same fact is stored once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import DuplicateKeyError, EmptyField, ParseError, UnknownId
from .records import read_json_lines

DYNAMIC_PREFIX = "dynamic:"

DedupKey = tuple[str, str, str]


def normalize_field(value: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(value.split())


def dedup_key(head: str, relation: str, tail: str) -> DedupKey:
    """Case- and whitespace-insensitive identity of a triple."""
    return (
        normalize_field(head).casefold(),
        normalize_field(relation).casefold(),
        normalize_field(tail).casefold(),
    )


def _normalize(head: str, relation: str, tail: str) -> tuple[tuple[str, str, str], DedupKey]:
    """Normalized fields and dedup key; EmptyField if a field trims to nothing."""
    # normalize_field, written out: a snapshot load runs this once per line
    h = " ".join(head.split())
    r = " ".join(relation.split())
    t = " ".join(tail.split())
    if not h or not r or not t:
        raise EmptyField(f"empty field in triple ({head!r}, {relation!r}, {tail!r})")
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
    """

    def __init__(self) -> None:
        self._triples: list[Triple] = []
        self._key_index: dict[DedupKey, int] = {}

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._triples == other._triples

    def insert(
        self, head: str, relation: str, tail: str, provenance: str, step: int
    ) -> tuple[int, bool]:
        """Insert a triple, deduplicating on the normalized key.

        Returns ``(id, True)`` for a new triple or ``(existing_id, False)``
        when an equivalent triple is already stored. Raises EmptyField if
        any field trims to nothing; callers skip the triple and log it.
        """
        fields, key = _normalize(head, relation, tail)
        existing = self._key_index.get(key)
        if existing is not None:
            return existing, False
        triple_id = len(self._triples)
        self._triples.append(Triple(triple_id, *fields, provenance, step))
        self._key_index[key] = triple_id
        return triple_id, True

    def new_fields(self, head: str, relation: str, tail: str) -> tuple[str, str, str] | None:
        """The normalized fields ``insert`` would store, or None when an
        equivalent triple is already stored. Raises EmptyField as
        ``insert`` does."""
        fields, key = _normalize(head, relation, tail)
        return None if key in self._key_index else fields

    def lookup(self, triple_id: int) -> Triple:
        """The triple with this id; UnknownId unless 0 <= id < len(self)."""
        if 0 <= triple_id < len(self._triples):
            return self._triples[triple_id]
        raise UnknownId(triple_id)

    def stats(self) -> GraphStats:
        # an entity is a head or tail under the dedup key's casefolding;
        # stored fields are already whitespace-normalized
        entities = {e.casefold() for t in self._triples for e in (t.head, t.tail)}
        dynamic = sum(1 for t in self._triples if t.is_dynamic)
        return GraphStats(len(self._triples), len(entities), dynamic)

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write one JSON record per triple, fixed field order.

        The field order is part of the format so that save -> load -> save
        round-trips byte-identically.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for t in self._triples:
                fh.write(encode_record(t))
                fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        """Read what ``save`` wrote, storing each line through ``insert``.

        Ids must run 0..n-1 in file order; a gap, a repeat or a reordering
        raises ParseError, as does a field that is empty once normalized.
        A line that ``insert`` finds already stored, once normalized,
        raises DuplicateKeyError naming the line.
        """
        graph = cls()
        for lineno, record in read_json_lines(path):
            triple_id, fields, provenance, step = _decode_record(record, lineno)
            if triple_id != len(graph):
                raise ParseError(f"triple id {triple_id}, expected {len(graph)}", line=lineno)
            try:
                existing, new = graph.insert(*fields, provenance, step)
            except EmptyField:
                raise ParseError("empty triple field", line=lineno) from None
            if not new:
                raise DuplicateKeyError(f"line {lineno}: duplicates triple {existing}")
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


def _decode_record(record: dict, lineno: int) -> tuple[int, tuple[str, str, str], str, int]:
    """A snapshot line's id, (head, relation, tail), provenance and step,
    type-checked but not normalized."""
    try:
        triple_id = record["id"]
        head = record["head"]
        relation = record["relation"]
        tail = record["tail"]
        provenance = record["provenance"]
        step = record["step"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}", line=lineno) from None
    if type(triple_id) is not int or type(step) is not int:  # JSON true is not 1
        raise ParseError("id and step must be integers", line=lineno)
    for name, value in (("head", head), ("relation", relation), ("tail", tail),
                        ("provenance", provenance)):
        if not isinstance(value, str):
            raise ParseError(f"{name} must be a string", line=lineno)
    return triple_id, (head, relation, tail), provenance, step
