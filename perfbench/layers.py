"""Per-layer metrics from the spans of a traced run.

Eval-phase metrics are per question of the traced eval half (unit
``.../q``), except ``p50`` times, which are per call, and fractions.
Index- and load-phase metrics are totals of the one traced index build
and the one traced load.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING

from subhop.templates import TEMPLATE_NAMES

from .tracer import LAYERS, Tracer, cold_top_k, layer_of, self_times

if TYPE_CHECKING:
    from .harness import Phase


def _ms(spans: list[tuple]) -> float:
    return 1e3 * sum(s[4] - s[3] for s in spans)


def _p50_ms(spans: list[tuple]) -> float:
    return 1e3 * statistics.median(s[4] - s[3] for s in spans) if spans else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, phase: Phase, snapshot_bytes: int,
                      overhead_pct: float) -> tuple[dict, dict]:
    """Returns ({name: (value, unit)}, {phase: top-3 [(layer, self share)]})."""
    own = self_times(tracer.spans)
    phases: dict[str, dict[str, list[tuple]]] = {}
    for span in tracer.spans:
        phases.setdefault(span[6], {}).setdefault(span[2], []).append(span)
    ev = phases.get("eval", {})
    ix = phases.get("index", {})
    ld = phases.get("load", {})
    n_q = max(1, len(phase.walls))

    def get(group: dict, name: str) -> list[tuple]:
        return group.get(name, [])

    def self_ms(group: dict, name: str) -> float:
        return 1e3 * sum(own[s[0]] for s in get(group, name))

    def held_ms(name: str) -> float:
        return 1e3 * sum(sec for hold, sec, phase in tracer.holds
                         if hold == name and phase == "eval")

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    scans = get(ev, "kernels.scan")
    put("kernels.scan.calls", len(scans) / n_q, "count/q")
    put("kernels.scan.ms", _ms(scans) / n_q, "ms/q")
    put("kernels.scan.bytes", sum(r * c * 8 for r, c in (s[7] for s in scans)) / n_q, "B/q")
    top = get(ev, "vector.top_k")
    put("vector.top_k.calls", len(top) / n_q, "count/q")
    put("vector.top_k.p50_ms", _p50_ms(top), "ms")
    put("vector.top_k.self_ms", self_ms(ev, "vector.top_k") / n_q, "ms/q")
    put("vector.top_k.rows_scanned", statistics.fmean(s[7][1] for s in top) if top else 0.0,
        "rows")
    cold = cold_top_k([s for s in tracer.spans if s[6] == "eval"])
    put("vector.cold_top_k.calls", len(cold) / n_q, "count/q")
    put("vector.cold_top_k.p50_ms", _p50_ms(cold), "ms")
    put("vector.upsert.calls", len(get(ev, "vector.upsert")) / n_q, "count/q")
    put("vector.upsert.ms", _ms(get(ev, "vector.upsert")) / n_q, "ms/q")

    put("stores.save.ms", _ms(get(ix, "stores.save")), "ms")
    put("stores.load.ms", _ms(get(ld, "stores.load")), "ms")
    put("stores.snapshot_bytes", snapshot_bytes, "B")

    for prefix, group, per in (("", ev, n_q), ("index.", ix, 1)):
        unit = "/q" if per == n_q else ""
        embeds = get(group, "embedders.embed")
        put(f"{prefix}embedders.embed.calls", len(embeds) / per, "count" + unit)
        put(f"{prefix}embedders.embed.ms", _ms(embeds) / per, "ms" + unit)
        inserts = get(group, "kg.insert")
        put(f"{prefix}kg.insert.calls", len(inserts) / per, "count" + unit)
        put(f"{prefix}kg.insert.ms", _ms(inserts) / per, "ms" + unit)
        put(f"{prefix}kg.insert.new_frac", _frac(sum(bool(s[7]) for s in inserts), len(inserts)),
            "ratio")
    put("index.vector.upsert.calls", len(get(ix, "vector.upsert")), "count")
    put("index.vector.upsert.ms", _ms(get(ix, "vector.upsert")), "ms")
    put("indexer.build.self_ms", self_ms(ix, "indexer.build"), "ms")

    completes = get(ev, "gateway.complete")
    put("gateway.complete.calls", len(completes) / n_q, "count/q")
    put("gateway.complete.self_ms", self_ms(ev, "gateway.complete") / n_q, "ms/q")
    put("templates.render.calls", len(get(ev, "templates.render")) / n_q, "count/q")
    put("templates.render.ms", _ms(get(ev, "templates.render")) / n_q, "ms/q")
    put("decompose.decompose.self_ms", self_ms(ev, "decompose.decompose") / n_q, "ms/q")
    put("decompose.rewrite.self_ms", self_ms(ev, "decompose.rewrite") / n_q, "ms/q")
    put("solver.solve.self_ms", self_ms(ev, "solver.solve") / n_q, "ms/q")

    put("stores.lock.read_wait_ms", _ms(get(ev, "stores.lock.read_wait")) / n_q, "ms/q")
    put("stores.lock.write_wait_ms", _ms(get(ev, "stores.lock.write_wait")) / n_q, "ms/q")
    put("stores.lock.write_hold_ms", held_ms("stores.lock.write_hold") / n_q, "ms/q")
    put("solver.update_graph.ms", _ms(get(ev, "solver.update_graph")) / n_q, "ms/q")
    put("backend.send.calls", len(get(ev, "backend.send")) / n_q, "count/q")
    put("backend.send.ms", _ms(get(ev, "backend.send")) / n_q, "ms/q")

    for template in TEMPLATE_NAMES:
        mine = [s for s in completes if s[7] and s[7][0] == template]
        put(f"gateway.calls.{template}", len(mine) / n_q, "count/q")
        put(f"gateway.prompt_tokens.{template}", sum(s[7][1] for s in mine) / n_q, "count/q")
    structured = {s[0] for s in get(ev, "gateway.complete_structured")}
    per_structured: dict[int, int] = {}
    for span in completes:
        if span[1] in structured:
            per_structured[span[1]] = per_structured.get(span[1], 0) + 1
    put("gateway.structured.retries", sum(c - 1 for c in per_structured.values()) / n_q,
        "count/q")

    put("solver.steps", phase.steps / n_q, "count/q")
    put("solver.graph_answered_frac", _frac(phase.steps - phase.fallbacks, phase.steps), "ratio")
    put("solver.fallbacks", phase.fallbacks / n_q, "count/q")
    put("solver.retry_answered_frac", _frac(phase.retries_answered, phase.retries), "ratio")
    put("solver.writeback.triples", phase.written / n_q, "count/q")
    put("solver.writeback.yield", _frac(phase.written, phase.extracted), "ratio")

    top3: dict[str, list] = {}
    for phase in ("index", "load", "eval"):
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for span in tracer.spans:
            if span[6] == phase and layer_of(span[2]) in by_layer:
                by_layer[layer_of(span[2])] += own[span[0]]
        total = sum(by_layer.values())
        shares = {layer: _frac(sec, total) for layer, sec in by_layer.items()}
        if phase == "eval":
            for layer, share in shares.items():
                put(f"eval.self_share.{layer}", share, "ratio")
        top3[phase] = sorted(shares.items(), key=lambda item: -item[1])[:3]
    put("trace.overhead_pct", overhead_pct, "%")
    put("trace.spans", sum(len(v) for v in ev.values()) / n_q, "count/q")
    return out, top3
