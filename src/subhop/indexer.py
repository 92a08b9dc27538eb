"""Offline indexing: corpus ingestion, per-document triple extraction and
construction of the graph and its triple index.

Indexing is best-effort per document: one document failing extraction is
recorded in the report and never aborts the build. Triples are inserted
as extractions return, in corpus order whatever order they finish in,
so rebuilding from the same corpus and script yields an identical graph.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .embedders import Embedder
from .errors import ParseError, StructuredParseError
from .gateway import ChatRequest, Gateway
from .kg import KnowledgeGraph, normalize_field
from .records import read_json_lines
from .vector import VectorIndex, verbalize_triple

logger = logging.getLogger(__name__)

DEFAULT_CHAR_BUDGET = 8000

TripleRow = tuple[str, str, str]


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str


@dataclass
class Corpus:
    documents: list[Document]
    # sha256 of the file bytes the documents were parsed from, which a
    # snapshot records; None for a corpus built in memory
    sha256: str | None = field(default=None, compare=False)

    @classmethod
    def from_documents(cls, documents: list[Document], sha256: str | None = None) -> "Corpus":
        seen: set[str] = set()
        for doc in documents:
            if doc.id in seen:
                raise ParseError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        return cls(documents=documents, sha256=sha256)

    def __len__(self) -> int:
        return len(self.documents)


def passage_text(doc: Document) -> str:
    """The string embedded for a document in the passage index."""
    return f"{doc.title}\n{doc.text}" if doc.title else doc.text


def ingest_corpus(path: str | Path, sha256: str | None = None) -> Corpus:
    """Load a line-JSON corpus file: {"id": ..., "title": ..., "text": ...}.

    The file is read once, and the corpus records the sha256 of the bytes
    parsed, so a snapshot pins what was indexed even if the file changes
    later. ``sha256``, if given, is the digest a snapshot recorded: the
    bytes must hash to it, else ParseError is raised before parsing.
    """
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if sha256 is not None and digest != sha256:
        raise ParseError(f"corpus {path} changed since the snapshot was indexed")
    documents: list[Document] = []
    for lineno, record in read_json_lines(path, data):
        doc_id = record.get("id")
        text = record.get("text")
        title = record.get("title", "")
        if not isinstance(doc_id, str) or not doc_id:
            raise ParseError("missing or invalid 'id'", line=lineno)
        if not isinstance(text, str) or not text.strip():
            raise ParseError("missing or empty 'text'", line=lineno)
        if not isinstance(title, str):
            raise ParseError("'title' must be a string", line=lineno)
        documents.append(Document(id=doc_id, title=title, text=text))
    return Corpus.from_documents(documents, digest)


def split_for_extraction(text: str, char_budget: int = DEFAULT_CHAR_BUDGET) -> list[str]:
    """Split long text on paragraph boundaries into budget-sized chunks;
    a single oversized paragraph is hard-split at the budget."""
    if char_budget < 1:
        raise ValueError("char_budget must be >= 1")
    if len(text) <= char_budget:
        return [text]
    chunks: list[str] = []
    current = ""
    for para in text.split("\n\n"):
        while len(para) > char_budget:
            if current:
                chunks.append(current)
                current = ""
            chunks.append(para[:char_budget])
            para = para[char_budget:]
        if not para:
            continue
        candidate = f"{current}\n\n{para}" if current else para
        if len(candidate) > char_budget:
            chunks.append(current)
            current = para
        else:
            current = candidate
    if current:
        chunks.append(current)
    return chunks


def validate_triple_rows(raw: object) -> list[TripleRow]:
    """Keep only well-formed rows: 3-element lists of non-empty strings.
    Malformed rows are dropped with a warning, never fatal."""
    rows: list[TripleRow] = []
    if not isinstance(raw, list):
        logger.warning("extraction output is not a list, dropping")
        return rows
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 3
            or not all(isinstance(part, str) for part in item)
        ):
            logger.warning("dropping malformed triple row %r", item)
            continue
        head, relation, tail = (normalize_field(part) for part in item)
        if not head or not relation or not tail:
            logger.warning("dropping triple row with empty field %r", item)
            continue
        rows.append((head, relation, tail))
    return rows


def extract_triples(
    text: str, gateway: Gateway, char_budget: int = DEFAULT_CHAR_BUDGET
) -> list[TripleRow]:
    """Ask the LLM for the triples stated in ``text``, one request per
    chunk of ``split_for_extraction``.

    StructuredParseError (after the gateway's own retry) propagates so the
    caller can record the text as unextracted.
    """
    triples: list[TripleRow] = []
    for chunk in split_for_extraction(text, char_budget):
        raw = gateway.complete_structured(
            ChatRequest("extract_triples", {"document": chunk}), expect=list
        )
        triples.extend(validate_triple_rows(raw))
    return triples


@dataclass
class IndexReport:
    documents: int = 0
    triples_extracted: int = 0
    stored: int = 0
    duplicates: int = 0
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"documents={self.documents} extracted={self.triples_extracted} "
            f"stored={self.stored} duplicates={self.duplicates} "
            f"failures={len(self.failures)}"
        )


def embed_triples(graph: KnowledgeGraph, embedder: Embedder) -> VectorIndex:
    """The triple index: one row per graph triple, at its id.

    Every row is ``embedder.embed`` of text the graph holds, so building
    an index and loading a snapshot both call this."""
    triple_index = VectorIndex(dimension=embedder.dimension)
    triple_index.extend(map(verbalize_triple, graph), embedder)
    return triple_index


def build_graph_index(
    corpus: Corpus,
    gateway: Gateway,
    embedder: Embedder,
    char_budget: int = DEFAULT_CHAR_BUDGET,
    workers: int = 1,
) -> tuple[KnowledgeGraph, VectorIndex, VectorIndex, IndexReport]:
    """Extract every document, build the deduplicated graph and its
    triple index, inserting each document's rows as its extraction returns,
    in corpus order. The passage index comes back empty: the first
    fallback embeds it (``Stores.passages``)."""
    report = IndexReport(documents=len(corpus.documents))
    graph = KnowledgeGraph()

    def _extract(doc: Document) -> list[TripleRow] | None:
        try:
            return extract_triples(doc.text, gateway, char_budget)
        except StructuredParseError:
            logger.warning("extraction failed for document %s", doc.id)
            return None

    def _extractions() -> Iterator[list[TripleRow] | None]:
        if workers <= 1 or len(corpus.documents) <= 1:
            yield from map(_extract, corpus.documents)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(_extract, corpus.documents)

    for doc, rows in zip(corpus.documents, _extractions()):
        if rows is None:
            report.failures.append(f"doc:{doc.id}")
            continue
        report.triples_extracted += len(rows)
        for row in rows:
            _, inserted = graph.insert(*row, provenance=f"doc:{doc.id}", step=0)
            report.stored += inserted
    report.duplicates = report.triples_extracted - report.stored
    passage_index = VectorIndex(dimension=embedder.dimension)
    return graph, embed_triples(graph, embedder), passage_index, report
