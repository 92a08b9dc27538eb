"""Span tracing installed from outside subhop.

``Tracer.install`` replaces public entry points of each subhop module with
wrappers that record one span per call: name, start, end, parent span,
question id and phase, plus a small per-call detail (rows scanned, the
template, whether an insert was new). ``uninstall`` puts the originals
back, so untraced phases run the unmodified program. Spans stay in memory
and are written out when the run ends.

A span's self time is its duration minus the union of the intervals its
child spans cover. Children normally run on the parent's thread; the
question solves of a ``run_benchmark`` batch run on pool threads and are
parented to the batch explicitly.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import subhop.benchmark
import subhop.gateway
import subhop.indexer
import subhop.kg
import subhop.solver
import subhop.stores
import subhop.templates
import subhop.vector

# (owner, attribute, span name, detail function or None). The detail
# function receives (args, result) and returns a small JSON-able value.
_TARGETS = (
    (subhop.solver, "solve", "solver.solve", None),
    (subhop.solver, "retrieve_for_subquestion", "solver.retrieve", None),
    (subhop.solver, "answer_from_triples", "solver.answer_from_triples", None),
    (subhop.solver, "fallback_answer_from_docs", "solver.fallback", None),
    (subhop.solver, "update_graph_with_new_triples", "solver.update_graph", None),
    (subhop.solver, "generate_final_answer", "solver.final_answer", None),
    (subhop.solver, "decompose", "decompose.decompose", None),
    (subhop.solver, "rewrite", "decompose.rewrite", None),
    (subhop.vector.VectorIndex, "top_k", "vector.top_k",
     lambda args, result: [id(args[0]), len(args[0])]),
    (subhop.vector.VectorIndex, "upsert", "vector.upsert", lambda args, result: id(args[0])),
    (subhop.vector.VectorIndex, "save", "vector.save", None),
    (subhop.vector.VectorIndex, "load", "vector.load", None),
    (subhop.vector, "cosine_scores", "kernels.scan", lambda args, result: list(args[0].shape)),
    (subhop.kg.KnowledgeGraph, "insert", "kg.insert", lambda args, result: result[1]),
    (subhop.kg.KnowledgeGraph, "save", "kg.save", None),
    (subhop.kg.KnowledgeGraph, "load", "kg.load", None),
    (subhop.gateway.Gateway, "complete", "gateway.complete",
     lambda args, result: [args[1].template_name, result.prompt_tokens]),
    (subhop.gateway.Gateway, "complete_structured", "gateway.complete_structured", None),
    (subhop.templates.TemplateRegistry, "render", "templates.render", None),
    (subhop.stores, "save_stores", "stores.save", None),
    (subhop.stores, "load_stores", "stores.load", None),
    (subhop.stores, "ingest_corpus", "indexer.ingest", None),
    (subhop.indexer, "build_graph_index", "indexer.build", None),
    (subhop.benchmark, "run_benchmark", "benchmark.run", None),
)

_ABSENT = object()

# layers whose self time is reported; "backend" is the benchmark's LLM
# stand-in and "embedders" the embedder proxy
LAYERS = ("solver", "decompose", "vector", "kernels", "embedders", "kg", "indexer",
          "stores", "templates", "gateway", "benchmark", "backend")


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, start, end, question id, phase, detail)
        self.spans: list[tuple] = []
        # (name, seconds, phase) for lock hold times, which are not call spans
        self.holds: list[tuple[str, float, str]] = []
        self.phase = "setup"
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._batch: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn, detail=None, args=(), kwargs=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._batch
        stack.append(span_id)
        info = None
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if detail is not None:
                info = detail(args, result)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end,
                               getattr(self._local, "qid", None), self.phase, info))

    def _wrapper(self, name: str, fn, detail):
        tracer = self
        if name == "solver.solve":
            @functools.wraps(fn)
            def solve(*args, **kwargs):
                tracer._local.qid = args[0] if args else kwargs.get("question_id")
                try:
                    return tracer.record(name, fn, detail, args, kwargs)
                finally:
                    tracer._local.qid = None
            return solve
        if name == "benchmark.run":
            @functools.wraps(fn)
            def run(*args, **kwargs):
                span_id = next(tracer._ids)
                tracer._batch = span_id
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._batch = None
                    tracer.spans.append((span_id, None, name, start, perf_counter(),
                                         None, tracer.phase, None))
            return run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.record(name, fn, detail, args, kwargs)
        return wrapper

    def _lock_wrapper(self, kind: str, original):
        tracer = self

        @contextmanager
        def acquire(lock_self):
            inner = original(lock_self)
            tracer.record(f"stores.lock.{kind}_wait", inner.__enter__)
            held_from = perf_counter()
            try:
                yield
            finally:
                tracer.holds.append(
                    (f"stores.lock.{kind}_hold", perf_counter() - held_from, tracer.phase)
                )
                inner.__exit__(None, None, None)
        return acquire

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self, backend) -> None:
        """Wrap every target that exists; missing ones are listed in
        ``missing`` rather than failing, so a refactor that removes one
        still leaves the rest traced."""
        for owner, attr, name, detail in _TARGETS:
            raw = owner.__dict__.get(attr)
            if raw is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrapper(name, raw.__func__, detail)))
            else:
                self._patch(owner, attr, self._wrapper(name, raw, detail))
        lock = getattr(subhop.stores, "ReadWriteLock", None)
        if lock is None:
            self.missing.append("stores.lock")
        else:
            for kind in ("read", "write"):
                self._patch(lock, kind, self._lock_wrapper(kind, lock.__dict__[kind]))
        self._patch(backend, "send", self._wrapper("backend.send", backend.send, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)  # an instance attribute over a class method
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def embedder(self, inner) -> "TracedEmbedder":
        return TracedEmbedder(inner, self)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "question_id", "phase", "detail")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


class TracedEmbedder:
    """Embedder proxy: same identity, every ``embed`` recorded as a span."""

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        self.dimension = inner.dimension
        self._inner = inner
        self._tracer = tracer

    def embed(self, text: str):
        return self._tracer.record("embedders.embed", self._inner.embed, None, (text,))


# -- analysis -------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - _union_length(children.get(span[0], []))
        for span in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def cold_top_k(spans: list[tuple]) -> list[tuple]:
    """top_k spans that start after an upsert of the same index and before
    any top_k started after that upsert has finished: each of them can
    meet a matrix that still has to be rebuilt."""
    by_index: dict[int, tuple[list[float], list[tuple]]] = {}
    for span in spans:
        if span[2] == "vector.top_k":
            by_index.setdefault(span[7][0], ([], []))[1].append(span)
        elif span[2] == "vector.upsert":
            by_index.setdefault(span[7], ([], []))[0].append(span[4])
    cold = []
    for upsert_ends, reads in by_index.values():
        upsert_ends.sort()
        reads.sort(key=lambda s: s[3])
        next_upsert = 0
        after_upsert = False
        first_end = float("inf")  # earliest end of a read started since the upsert
        for span in reads:
            while next_upsert < len(upsert_ends) and upsert_ends[next_upsert] < span[3]:
                next_upsert += 1
                after_upsert = True
                first_end = float("inf")
            if after_upsert and first_end >= span[3]:
                cold.append(span)
            first_end = min(first_end, span[4])
    return cold
