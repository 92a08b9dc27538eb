"""One workload run: index -> load -> eval through subhop's public API,
with correctness gates, end-to-end metrics and, when traced, per-layer
metrics.

Phases:

- index: ``build_graph_index`` then ``save_stores``, repeated while the
  builds take under ``REPEAT_SHARE`` of the run length; the median counts.
- load: ``load_stores`` on that snapshot, at least ``MIN_LOADS`` times and
  while the loads take under ``REPEAT_SHARE`` of the run length;
  ``setup_s`` is the median, because every ``ask``/``eval`` pays it.
- eval: ``run_benchmark`` over ``solve`` in batches until the run length
  has passed and at least ``MIN_QUESTIONS`` questions are solved. Each
  worker of a batch takes its next question only after the previous one
  returned (a closed loop of ``workers`` clients). Traces are checked and
  reduced to small summaries between batches, outside the timed wall,
  so that memory does not grow with throughput.

A traced run splits eval in two halves: the first runs the unmodified
program, the second runs with the tracer installed. The ratio of their
median question times is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import subhop.benchmark
import subhop.indexer
import subhop.solver
import subhop.stores
from subhop.benchmark import QAExample
from subhop.config import Config
from subhop.embedders import make_embedder
from subhop.gateway import Gateway
from subhop.stores import Stores
from subhop.templates import TemplateRegistry

from . import layers
from .standin import StandInBackend
from .tracer import Tracer
from .workloads import Inputs, Workload, generate

MIN_QUESTIONS = 200
REPEAT_SHARE = 2 / 15  # 2 s of index builds and 2 s of loads in a 15 s run
MIN_LOADS = 3
MAX_REPEATS = 25
BATCH_PER_WORKER = 16
# the stand-in is right whenever retrieval finds the asked fact, and the
# name vocabulary keeps hashed-retrieval misses well under this
EM_FLOOR = 90.0

# name -> (unit, definition); printed by name with its unit
END_TO_END = {
    "questions_per_s": ("1/s", "questions completed / eval wall time"),
    "question_p50_ms": ("ms", "median wall time of one solve"),
    "question_p95_ms": ("ms", "p95 wall time of one solve"),
    "overhead_p50_ms": ("ms", "median of (solve wall time - time inside the LLM stand-in)"),
    "setup_s": ("s", "median load_stores time on the indexed snapshot"),
    "index_docs_per_s": ("1/s", "documents / median (build_graph_index + save_stores)"),
    "llm_calls_per_question": ("count", "mean trace usage.llm_calls"),
    "prompt_tokens_per_question": ("count", "mean trace usage.prompt_tokens"),
    "em": ("x100", "exact match against the generated gold answers"),
    "peak_rss_mb": ("MB", "ru_maxrss of the workload process when load ends"),
    "snapshot_mb": ("MB", "bytes in the snapshot directory / 1e6"),
}
# printed and recorded; not a bounded metric because it is 0 on a good run
FAILED_FRAC = ("failed_frac", "ratio")


@dataclass
class Phase:
    """Results of one eval phase, accumulated as questions finish so that
    memory does not grow with throughput."""

    seconds: float = 0.0  # timed wall of the phase's batches
    attempted: int = 0
    walls: list[float] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)  # wall - time in the stand-in
    llm_calls: int = 0
    prompt_tokens: int = 0
    steps: int = 0
    repeated_steps: int = 0
    fallbacks: int = 0
    designed_fallbacks: int = 0
    retries: int = 0
    retries_answered: int = 0
    extracted: int = 0
    written: int = 0


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool,
                 workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.repeat_s = REPEAT_SHARE * seconds
        self.inputs: Inputs = generate(workload, seed)
        self.registry = TemplateRegistry.load()
        self.embedder = make_embedder("hash", 256)
        self.tracer = Tracer() if traced else None
        self.gates: list[str] = []
        self.phases: dict[str, Phase] = {}
        self.em_hits = 0
        self.failed = 0
        self.written_ids: set[int] = set()
        self._seen_steps: set[str] = set()
        self._cursor = 0

    def _embedder(self):
        return self.tracer.embedder(self.embedder) if self.tracer else self.embedder

    def gate(self, ok: bool, message: str) -> None:
        if not ok and message not in self.gates:
            self.gates.append(message)

    # -- index and load -----------------------------------------------------

    def index(self) -> dict:
        corpus_path = self.workdir / "corpus.jsonl"
        with open(corpus_path, "w", encoding="utf-8") as fh:
            for doc in self.inputs.documents:
                fh.write(json.dumps(doc) + "\n")
        corpus = subhop.indexer.ingest_corpus(corpus_path)
        backend = StandInBackend(withheld=self.inputs.withheld)
        gateway = Gateway(self.registry, backend)
        self.snapshot = self.workdir / "snapshot"
        if self.tracer:
            self.tracer.phase = "index"
            self.tracer.install(backend)
        times: list[float] = []
        while not times or (sum(times) < self.repeat_s and len(times) < MAX_REPEATS):
            self.indexed = None
            gc.collect()
            started = perf_counter()
            report = self._build(corpus, gateway, corpus_path)
            times.append(perf_counter() - started)
            if self.tracer:
                break  # one traced build is enough for the per-layer numbers
        expected = self.inputs.facts - len(self.inputs.withheld)
        self.gate(not report.failures, f"index: {len(report.failures)} documents failed")
        stored = len(self.indexed.graph)
        self.gate(stored == expected, f"index: {stored} triples stored, {expected} expected")
        return {"times": times, "documents": len(corpus),
                "snapshot_bytes": sum(p.stat().st_size for p in self.snapshot.iterdir())}

    def _build(self, corpus, gateway: Gateway, corpus_path: Path):
        graph, triple_index, passage_index, report = subhop.indexer.build_graph_index(
            corpus, gateway, self._embedder()
        )
        self.indexed = Stores(graph=graph, triple_index=triple_index,
                              passage_index=passage_index, corpus=corpus)
        subhop.stores.save_stores(self.indexed, self.snapshot, self._embedder(), corpus_path)
        return report

    def load(self) -> list[float]:
        if self.tracer:
            self.tracer.phase = "load"
        times: list[float] = []
        while len(times) < MIN_LOADS or (sum(times) < self.repeat_s and len(times) < MAX_REPEATS):
            self.stores = None
            gc.collect()
            started = perf_counter()
            self.stores = subhop.stores.load_stores(self.snapshot, self._embedder())
            times.append(perf_counter() - started)
            self._check_loaded(self.stores)
            if self.tracer:
                break  # one traced load is enough for the per-layer numbers
        if self.tracer:
            self.tracer.uninstall()
        self.indexed = None
        gc.collect()
        return times

    def _check_loaded(self, loaded: Stores) -> None:
        ok = (
            loaded.graph == self.indexed.graph
            and len(loaded.triple_index) == len(self.indexed.triple_index)
            and len(loaded.passage_index) == len(self.indexed.passage_index)
            and list(loaded.triple_index.entries()) == list(self.indexed.triple_index.entries())
        )
        self.gate(ok, "load: loaded snapshot differs from the indexed stores")

    # -- eval -----------------------------------------------------------------

    def evaluate(self, seconds: float, min_questions: int, name: str) -> Phase:
        """Solve batches until ``seconds`` of solving passed and
        ``min_questions`` were solved."""
        workers = self.workload.workers
        backend = StandInBackend(latency_s=self.workload.latency_ms / 1e3)
        gateway = Gateway(self.registry, backend)
        config = Config(parallelism=workers)
        embedder = self.embedder
        traced = self.tracer is not None and name == "traced"
        if traced:
            self.tracer.phase = "eval"
            self.tracer.install(backend)
            embedder = self.tracer.embedder(self.embedder)
        stores = self.stores
        finished: dict[str, tuple] = {}

        def solve_fn(example: QAExample):
            backend.take_seconds()
            started = perf_counter()
            trace = subhop.solver.solve(example.id, example.question, config, stores,
                                        gateway, embedder)
            wall = perf_counter() - started
            finished[example.id] = (trace, wall, backend.take_seconds())
            return trace

        phase = self.phases[name] = Phase()
        gc.collect()
        while phase.seconds < seconds or phase.attempted < min_questions:
            batch = self._next_batch(workers * BATCH_PER_WORKER)
            started = perf_counter()
            report = subhop.benchmark.run_benchmark(
                [example for example, _ in batch], solve_fn, parallelism=workers
            )
            phase.seconds += perf_counter() - started
            for result, (_, position) in zip(report.per_example, batch):
                self._record(phase, result, finished.pop(result.id, None), position)
        if traced:
            self.tracer.uninstall()
        return phase

    def _next_batch(self, size: int) -> list[tuple[QAExample, int]]:
        pool = self.inputs.questions
        batch = []
        for _ in range(size):
            position = self._cursor % len(pool)
            example = QAExample(f"q{self._cursor:06d}", pool[position].question,
                                [pool[position].answer])
            batch.append((example, position))
            self._cursor += 1
        return batch

    def _record(self, phase: Phase, result, finished: tuple | None, position: int) -> None:
        """Check one question's trace (schema, status, provenance of its
        write-backs) and add it to the phase."""
        phase.attempted += 1
        self.em_hits += result.em
        if result.failed or finished is None:
            self.failed += 1
            return
        trace, wall, llm_seconds = finished
        ok = trace.status == "ok"
        try:
            subhop.solver.validate_trace_dict(subhop.solver.trace_to_dict(trace))
        except ValueError as exc:
            self.gate(False, f"eval: invalid trace ({exc})")
            ok = False
        self.failed += not ok
        phase.walls.append(wall)
        phase.overheads.append(wall - llm_seconds)
        phase.llm_calls += trace.llm_calls
        phase.prompt_tokens += trace.prompt_tokens
        withheld = self.inputs.questions[position].withheld
        for sub in trace.sub_answers:
            phase.steps += 1
            phase.repeated_steps += sub.rewritten_question in self._seen_steps
            self._seen_steps.add(sub.rewritten_question)
            fallback = sub.fallback
            if fallback is None:
                continue
            phase.fallbacks += 1
            phase.designed_fallbacks += withheld and sub.index == len(trace.sub_answers)
            if sub.retrieved_after_update is not None:
                phase.retries += 1
                phase.retries_answered += sub.answerable_from_graph
            phase.extracted += len(fallback.new_triples)
            phase.written += len(fallback.written_back_ids)
            for triple_id in fallback.written_back_ids:
                provenance = self.stores.graph.lookup(triple_id).provenance
                self.gate(provenance == f"dynamic:{trace.question_id}",
                          f"eval: triple {triple_id} has provenance {provenance!r}")
                self.written_ids.add(triple_id)

    def check_growth(self, triples_before: int) -> None:
        graph = self.stores.graph
        growth = len(graph) - triples_before
        self.gate(
            growth == len(self.written_ids)
            and self.written_ids == set(range(triples_before, len(graph))),
            f"eval: graph grew by {growth}, write-backs name {len(self.written_ids)} ids",
        )
        self.gate(len(self.stores.triple_index) == len(graph),
                  "eval: triple index and graph differ in size")


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method of statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> dict:
    run = Run(workload, seed, seconds, traced, workdir)
    index = run.index()
    loads = run.load()
    # before eval: the Gateway keeps every prompt in its in-memory wire log,
    # so RSS during eval grows with the number of questions solved
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    triples_before = len(run.stores.graph)

    if traced:
        untraced = run.evaluate(seconds / 2, MIN_QUESTIONS // 2, "untraced")
        run.evaluate(seconds / 2, MIN_QUESTIONS // 2, "traced")
    else:
        untraced = run.evaluate(seconds, MIN_QUESTIONS, "untraced")
    run.check_growth(triples_before)

    attempted = sum(phase.attempted for phase in run.phases.values())
    em = 100.0 * run.em_hits / attempted
    run.gate(em >= EM_FLOOR, f"eval: em {em:.2f} below {EM_FLOOR}")
    walls = untraced.walls
    p95 = percentile(walls, 95)
    metrics = {
        "questions_per_s": untraced.attempted / untraced.seconds,
        "question_p50_ms": 1e3 * statistics.median(walls),
        "question_p95_ms": 1e3 * p95,
        "overhead_p50_ms": 1e3 * statistics.median(untraced.overheads),
        "setup_s": statistics.median(loads),
        "index_docs_per_s": index["documents"] / statistics.median(index["times"]),
        "llm_calls_per_question": untraced.llm_calls / len(walls),
        "prompt_tokens_per_question": untraced.prompt_tokens / len(walls),
        "em": em,
        "peak_rss_mb": peak_rss_mb,
        "snapshot_mb": index["snapshot_bytes"] / 1e6,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": attempted,
        "failed": run.failed,
        "failed_frac": run.failed / attempted,
        "gates": run.gates,
        "metrics": metrics,
        "samples": {"questions": len(walls), "beyond_p95": sum(w > p95 for w in walls),
                    "index_builds": len(index["times"]), "loads": len(loads)},
        "rss_after_eval_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "timings_s": {"index": index["times"], "loads": loads,
                      "eval": sum(phase.seconds for phase in run.phases.values())},
        "properties": properties(run, triples_before),
    }
    if traced:
        phase = run.phases["traced"]
        overhead_pct = 100.0 * (statistics.median(phase.walls) / statistics.median(walls) - 1)
        per_layer, top = layers.per_layer_metrics(run.tracer, phase, index["snapshot_bytes"],
                                                  overhead_pct)
        record["per_layer"] = per_layer
        record["top_self_layers"] = top
        record["traced_missing"] = run.tracer.missing
        run.tracer.write(workdir / "spans.jsonl.gz")
    return record


def properties(run: Run, triples_before: int) -> dict:
    """Workload properties that later claims can cite as shares."""
    phases = run.phases.values()
    pool = run.inputs.questions
    attempted = sum(phase.attempted for phase in phases)
    steps = sum(phase.steps for phase in phases)
    designed = sum(phase.designed_fallbacks for phase in phases)
    undesigned = sum(phase.fallbacks for phase in phases) - designed
    return {
        "documents": len(run.inputs.documents),
        "questions_in_pool": len(pool),
        "pool_wrapped": attempted > len(pool),
        "triples_before_eval": triples_before,
        "triples_after_eval": len(run.stores.graph),
        "passages": len(run.stores.passage_index),
        "designed_fallback_share": sum(q.withheld for q in pool[:attempted]) / attempted,
        "designed_fallbacks": designed,
        "undesigned_fallbacks": undesigned,
        "undesigned_fallback_share_of_steps": undesigned / steps if steps else 0.0,
        "writebacks": sum(phase.written for phase in phases),
        "steps": steps,
        "repeated_subquestion_share":
            sum(phase.repeated_steps for phase in phases) / steps if steps else 0.0,
    }


def metadata(seed: int, blas_threads: int, root: Path) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        from subhop.kernels import KERNEL_BACKEND
    except ImportError:
        KERNEL_BACKEND = "absent"
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numba_imports": numba_imports,
        "kernel_backend": KERNEL_BACKEND,
    }
