"""Shared test fixtures: scripted worlds, independent oracles, mock HTTP."""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from subhop.config import Config
from subhop.embedders import Embedder, Embedding, HashedBagEmbedder
from subhop.errors import ConfigError
from subhop.gateway import Gateway
from subhop.indexer import Corpus, build_graph_index, embed_triples, ingest_corpus
from subhop.kg import KnowledgeGraph
from subhop.stores import Stores, save_stores
from subhop.stub import StubBackend, StubRule, rule
from subhop.templates import TemplateRegistry
from subhop.vector import VectorIndex

REGISTRY = TemplateRegistry.load()


class RecordingStub(StubBackend):
    """A stub backend that keeps each request it answers, in order, as
    ``{"template": ..., "prompt": ...}``."""

    def __init__(self, rules: list[StubRule]):
        super().__init__(rules)
        self.log: list[dict] = []

    def send(self, template, prompt, variables, temperature, max_tokens):
        result = super().send(template, prompt, variables, temperature, max_tokens)
        self.log.append({"template": template, "prompt": prompt})
        return result


def stub_gateway(rules: list[StubRule]) -> Gateway:
    return Gateway(REGISTRY, RecordingStub(rules))


class FixtureEmbedder:
    """Maps exact strings to preset vectors; pins retrieval ranks in
    tests. Unknown text raises unless a default vector is given."""

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


def basis_vector(index: int, dimension: int) -> list[float]:
    """Unit vector helper for fixture construction."""
    if not 0 <= index < dimension:
        raise ValueError("basis index out of range")
    vec = [0.0] * dimension
    vec[index] = 1.0
    return vec


def dense(embedding: Embedding) -> np.ndarray:
    """The dense vector of an embedding."""
    out = np.zeros(embedding.dimension, dtype=np.float64)
    out[list(embedding.columns)] = embedding.weights
    return out


# -- independent oracles -----------------------------------------------------


def oracle_cosine_top_k(
    vectors: dict[int, list[float]], query: list[float], k: int
) -> list[tuple[int, float]]:
    """Brute-force cosine ranking in pure Python: full scan, sort by
    (-score, key), slice."""
    qnorm = math.sqrt(sum(x * x for x in query))
    scored = []
    for key, vec in vectors.items():
        vnorm = math.sqrt(sum(x * x for x in vec))
        if qnorm == 0.0 or vnorm == 0.0:
            score = 0.0
        else:
            score = sum(a * b for a, b in zip(vec, query)) / (vnorm * qnorm)
        scored.append((key, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: min(k, len(scored))]


def append_row(index: VectorIndex, text: str, embedder: Embedder) -> int:
    """Append ``text`` as the index's next row, as a write-back does, and
    return its key."""
    key = len(index)
    index.extend([text], embedder)
    return key


def index_rows(index: VectorIndex) -> tuple[list[tuple[int, str]], list[bytes], bytes]:
    """Keys, texts, the filled part of every column's posting and the row
    norms of an index, for a bit-for-bit comparison."""
    postings = [index._postings[column][:, : index._fill[column]].tobytes()
                for column in range(index.dimension)]
    return list(index.entries()), postings, index._norms[: len(index)].tobytes()


_WS_RE = re.compile(r"\s+")


def oracle_dedup_key(head: str, relation: str, tail: str) -> str:
    """Hand-rolled dedup key, written independently of the store: regex
    whitespace collapse, casefold, NUL-joined."""
    parts = []
    for value in (head, relation, tail):
        parts.append(_WS_RE.sub(" ", value).strip().casefold())
    return "\x00".join(parts)


def oracle_token_overlap(pred: list[str], gold: list[str]) -> int:
    """Multiset intersection size by consuming matches from a copy."""
    remaining = list(gold)
    overlap = 0
    for token in pred:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    return overlap


# -- scripted mock HTTP backend ----------------------------------------------


class MockChatServer:
    """Plays back a list of responses in order. A ``(status, text)`` entry
    is a chat completion of ``text`` (status 200) or an error body; a
    ``bytes`` entry is written to the socket as the whole reply, status
    line and headers included, and the connection is closed; a ``None``
    entry stalls: no reply comes before the server shuts down.

    Each request's body, ``Authorization`` header (None if absent) and
    arrival time (``time.monotonic()``) are kept, in arrival order."""

    def __init__(self, script: list[tuple[int, str] | bytes | None]):
        self.script = list(script)
        self.requests: list[dict] = []
        self.authorizations: list[str | None] = []
        self.arrivals: list[float] = []
        self._closing = threading.Event()
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else {}
                with lock:
                    outer.arrivals.append(time.monotonic())
                    outer.requests.append(body)
                    outer.authorizations.append(self.headers.get("Authorization"))
                    entry = outer.script.pop(0) if outer.script else (500, "exhausted")
                if entry is None:
                    outer._closing.wait()
                    self.close_connection = True
                    return
                if isinstance(entry, bytes):
                    self.wfile.write(entry)
                    self.close_connection = True
                    return
                status, text = entry
                if status == 200:
                    payload = {
                        "choices": [{"message": {"content": text}}],
                        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
                    }
                    raw = json.dumps(payload).encode()
                else:
                    raw = json.dumps({"error": text}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):  # keep test output quiet
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval, so that ``shutdown`` does not wait up to 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "MockChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._closing.set()
        self._server.shutdown()
        self._server.server_close()


def raw_reply(body: bytes, length: int | None = None) -> bytes:
    """A raw HTTP 200 reply carrying ``body`` under a ``Content-Length``
    of ``length`` bytes (default: the body's own length)."""
    length = len(body) if length is None else length
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % length + body


# -- two-hop fixture world ---------------------------------------------------

TWO_HOP_QUESTION = "Who is the spouse of the director of Inception?"
TWO_HOP_QID = "q-twohop"

_D1_TEXT = "Inception is a 2010 science fiction film directed by Christopher Nolan."
_D2_TEXT = (
    "Christopher Nolan is a British-American film director. "
    "He is married to the producer Emma Thomas."
)
_D3_TEXT = "Interstellar is a 2014 film directed by Christopher Nolan."

TWO_HOP_CORPUS = [
    {"id": "d1", "title": "Inception", "text": _D1_TEXT},
    {"id": "d2", "title": "Christopher Nolan", "text": _D2_TEXT},
    {"id": "d3", "title": "Interstellar", "text": _D3_TEXT},
]


def two_hop_index_rules() -> list[StubRule]:
    return [
        rule("extract_triples", [["Inception", "directed by", "Christopher Nolan"]],
             contains="2010 science fiction"),
        rule("extract_triples", [["Christopher Nolan", "born in", "London"]],
             contains="British-American"),
        rule("extract_triples", [["Interstellar", "directed by", "Christopher Nolan"]],
             contains="2014 film"),
    ]


def two_hop_ask_rules() -> list[StubRule]:
    return [
        rule("decompose", ["Who directed Inception?", "Who is the spouse of #1?"]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Christopher Nolan", "used_triple_ids": [0]},
             contains="Who directed Inception?"),
        rule("rewrite", "Who is the spouse of Christopher Nolan?"),
        rule("answer_from_triples",
             {"answerable": False, "answer": "", "used_triple_ids": []},
             contains="spouse of Christopher Nolan"),
        rule("answer_from_docs", {"answer": "Emma Thomas"}),
        rule("extract_triples", [["Christopher Nolan", "spouse", "Emma Thomas"]]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Emma Thomas", "used_triple_ids": [3]},
             contains="spouse of Christopher Nolan"),
        rule("final_answer", "Emma Thomas"),
    ]


def two_hop_embedder() -> FixtureEmbedder:
    dim = 8
    vectors = {
        "Who directed Inception?": basis_vector(0, dim),
        "Inception directed by Christopher Nolan": basis_vector(0, dim),
        "Christopher Nolan born in London": basis_vector(1, dim),
        "Interstellar directed by Christopher Nolan": basis_vector(2, dim),
        "Who is the spouse of Christopher Nolan?": basis_vector(3, dim),
        "Christopher Nolan spouse Emma Thomas": basis_vector(3, dim),
        f"Inception\n{_D1_TEXT}": basis_vector(4, dim),
        f"Christopher Nolan\n{_D2_TEXT}": basis_vector(3, dim),
        f"Interstellar\n{_D3_TEXT}": basis_vector(5, dim),
    }
    return FixtureEmbedder(vectors)


def write_corpus(path: Path, records: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return path


def save_hash_snapshot(tmp_path: Path, triples: int) -> Path:
    """A snapshot, built with the 64-dimension ``hash`` embedder, of
    ``triples`` chain triples and the two-hop corpus; returns its
    directory."""
    embedder = HashedBagEmbedder(dimension=64)
    corpus_path = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    corpus = ingest_corpus(corpus_path)
    graph = KnowledgeGraph()
    for key in range(triples):
        graph.insert(f"entity {key}", "r", f"entity {key // 2} ß", "doc:d1", 0)
    save_stores(graph_stores(graph, corpus, embedder), tmp_path / "snap", embedder, corpus_path)
    return tmp_path / "snap"


def graph_stores(graph: KnowledgeGraph, corpus: Corpus, embedder: Embedder) -> Stores:
    """Stores over a graph built by hand, as ``load_stores`` returns them:
    the triple index embedded, the passage index left to the first
    fallback."""
    return Stores(graph, embed_triples(graph, embedder),
                  VectorIndex(dimension=embedder.dimension), corpus)


def file_sha256(path: Path) -> str:
    """The sha256 of a file's bytes, as ``KnowledgeGraph.load`` checks it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class World:
    """A built pipeline environment for solver-level tests."""

    stores: Stores
    embedder: FixtureEmbedder
    config: Config
    corpus_path: Path

    def ask_gateway(self, rules: list[StubRule]) -> Gateway:
        return stub_gateway(rules)


def build_two_hop_world(tmp_path: Path, **config_overrides) -> World:
    corpus_path = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    corpus = ingest_corpus(corpus_path)
    embedder = two_hop_embedder()
    gateway = stub_gateway(two_hop_index_rules())
    graph, triple_index, passage_index, report = build_graph_index(
        corpus, gateway, embedder
    )
    assert report.failures == []
    stores = Stores(
        graph=graph, triple_index=triple_index, passage_index=passage_index, corpus=corpus
    )
    config = Config(**config_overrides)
    return World(stores=stores, embedder=embedder, config=config, corpus_path=corpus_path)


# -- 20-question benchmark fixture -------------------------------------------


@dataclass
class BenchmarkFixture:
    corpus_records: list[dict]
    dataset_records: list[dict]
    index_rules: list[StubRule] = field(default_factory=list)
    ask_rules: list[StubRule] = field(default_factory=list)
    embedder: FixtureEmbedder | None = None
    fallback_indices: set[int] = field(default_factory=set)
    expected_writeback_ids: dict[int, int] = field(default_factory=dict)

    def question_id(self, i: int) -> str:
        return f"q{i:02d}"


def build_benchmark_fixture(n: int = 20, fallback_every: int = 4) -> BenchmarkFixture:
    """n single-hop questions over n documents. Every ``fallback_every``-th
    question has its fact missing from the index so it must fall back,
    extract it from the passage, and write it back."""
    fallback_indices = {i for i in range(n) if (i + 1) % fallback_every == 0}
    fixture = BenchmarkFixture(
        corpus_records=[], dataset_records=[], fallback_indices=fallback_indices
    )
    dim = max(32, n)
    vectors: dict[str, list[float]] = {}

    graph_id = 0
    id_by_question: dict[int, int] = {}
    for i in range(n):
        film, director = f"Film{i:02d}", f"Director{i:02d}"
        question = f"Who directed {film}?"
        text = f"{film} is a movie directed by {director}."
        fixture.corpus_records.append({"id": f"d{i:02d}", "title": film, "text": text})
        fixture.dataset_records.append(
            {"id": fixture.question_id(i), "question": question, "answers": [director]}
        )
        vectors[question] = basis_vector(i, dim)
        vectors[f"{film} directed by {director}"] = basis_vector(i, dim)
        vectors[f"{film}\n{text}"] = basis_vector(i, dim)
        if i not in fallback_indices:
            fixture.index_rules.append(
                rule("extract_triples", [[film, "directed by", director]],
                     contains=f"{film} is")
            )
            id_by_question[i] = graph_id
            graph_id += 1
        else:
            fixture.index_rules.append(
                rule("extract_triples", [], contains=f"{film} is")
            )

    # write-back ids continue after the indexed triples, in question order
    next_id = graph_id
    for i in sorted(fallback_indices):
        fixture.expected_writeback_ids[i] = next_id
        next_id += 1

    for i in range(n):
        film, director = f"Film{i:02d}", f"Director{i:02d}"
        question = f"Who directed {film}?"
        fixture.ask_rules.append(rule("decompose", [question], contains=question))
        if i not in fallback_indices:
            fixture.ask_rules.append(
                rule("answer_from_triples",
                     {"answerable": True, "answer": director,
                      "used_triple_ids": [id_by_question[i]]},
                     contains=question)
            )
        else:
            new_id = fixture.expected_writeback_ids[i]
            fixture.ask_rules.append(
                rule("answer_from_triples",
                     {"answerable": False, "answer": "", "used_triple_ids": []},
                     contains=question)
            )
            fixture.ask_rules.append(
                rule("answer_from_docs", {"answer": director}, contains=question)
            )
            # fallback extractions happen in question order; no contains
            # needed because the doc block is not otherwise distinguishable
            fixture.ask_rules.append(
                rule("extract_triples", [[film, "directed by", director]])
            )
            fixture.ask_rules.append(
                rule("answer_from_triples",
                     {"answerable": True, "answer": director,
                      "used_triple_ids": [new_id]},
                     contains=question)
            )
        fixture.ask_rules.append(rule("final_answer", director, contains=question))

    fixture.embedder = FixtureEmbedder(vectors)
    return fixture


def build_benchmark_world(tmp_path: Path, fixture: BenchmarkFixture,
                          **config_overrides) -> World:
    corpus_path = write_corpus(tmp_path / "bench_corpus.jsonl", fixture.corpus_records)
    corpus = ingest_corpus(corpus_path)
    gateway = stub_gateway([StubRule(r.template, r.response, r.contains, r.repeat)
                            for r in fixture.index_rules])
    graph, triple_index, passage_index, report = build_graph_index(
        corpus, gateway, fixture.embedder
    )
    assert report.failures == []
    stores = Stores(
        graph=graph, triple_index=triple_index, passage_index=passage_index, corpus=corpus
    )
    overrides = {"parallelism": 1, **config_overrides}
    config = Config(**overrides)
    return World(stores=stores, embedder=fixture.embedder, config=config,
                 corpus_path=corpus_path)


def fresh_rules(rules: list[StubRule]) -> list[StubRule]:
    """Deep-copy rules so cursor state never leaks between runs."""
    return [StubRule(r.template, r.response, r.contains, r.repeat) for r in rules]


def write_script(path: Path, rules: list[StubRule]) -> Path:
    """Write ``rules`` as a stub script file that ``load_stub_script`` reads."""
    entries = []
    for r in rules:
        entry: dict[str, object] = {"template": r.template, "response": r.response}
        if r.contains is not None:
            entry["contains"] = r.contains
        if r.repeat:
            entry["repeat"] = True
        entries.append(entry)
    path.write_text(json.dumps(entries, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return path
