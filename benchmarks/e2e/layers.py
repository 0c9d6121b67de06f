"""Per-layer metrics of one traced repeat.

Timings come from the spans (``trace.analyze``), counts from the
``stats()`` deltas and acks the repeat collected. Every name in
``spec.PER_LAYER`` gets a value; a layer the workload never enters
reads 0 — that zero is the prediction "should *not* move" made
checkable, not a missing measurement.
"""

from __future__ import annotations

from typing import Dict

import spec
from stats import percentile
from trace import LayerStat
from workloads import Repeat

_NONE = LayerStat()


def layer_metrics(repeat: Repeat, spans: Dict[str, LayerStat]) -> Dict[str, float]:
    """``spans`` is ``trace.analyze`` over the repeat's timed windows."""
    counts = repeat.counts

    def span(name: str) -> LayerStat:
        return spans.get(name, _NONE)

    def count(name: str) -> float:
        return float(counts.get(name, 0.0))

    build = span("qkbfly.build_kb")
    ingest = span("ingest.ingest")
    annotate = span("nlp.annotate")
    graph_stats = span("graph.stats")
    open_phase = repeat.phases.get("open", {})
    closed_phase = repeat.phases.get("closed", {})

    metrics = {
        "gateway.overhead_p50_ms": _gateway_overhead_p50_ms(repeat),
        "gateway.response_bytes_p50": count("gateway.response_bytes_p50"),
        "gateway.non_200": count("gateway.non_200"),
        "api.request_decode_us": span("api.request_decode").p50_us(),
        "api.result_encode_us": span("api.result_encode").p50_us(),
        "admission.admit_us": span("admission.admit").p50_us(),
        "admission.rejected": count("admission.rejected"),
        "service.serve_self_us.hit": span("service.serve#cache").p50_us(self_time=True),
        "service.serve_self_us.store": span("service.serve#store").p50_us(self_time=True),
        "service.serve_self_ms.executor": span("service.serve#executor").p50_us(self_time=True) / 1e3,
        "service.kb_copy_us": span("service.kb_copy").p50_us(),
        "cache.get_us": span("cache.get").p50_us(),
        "cache.put_us": span("cache.put").p50_us(),
        "cache.hit_ratio": count("cache.hit_ratio"),
        "cache.evictions": count("cache.evictions"),
        "cache.invalidate_ms": span("cache.invalidate").total_ms,
        "cache.invalidated_entries": count("cache.invalidations"),
        "versions.for_query_us": span("versions.for_query").p50_us(),
        "versions.vector_size": count("versions.entities"),
        "store.load_p50_ms": span("store.load").p50_us() / 1e3,
        "store.save_p50_ms": span("store.save").p50_us() / 1e3,
        "store.hit_ratio": count("store.hit_ratio"),
        "store.delete_for_entities_ms": span("store.delete_for_entities").total_ms,
        "store.bytes_per_kb_byte": count("store.bytes_per_kb_byte"),
        "store.entries": count("store.entries"),
        "stage_cache.hit_ratio.retrieval": count("stage_cache.hit_ratio.retrieval"),
        "stage_cache.hit_ratio.nlp": count("stage_cache.hit_ratio.nlp"),
        "stage_cache.hit_ratio.extract": count("stage_cache.hit_ratio.extract"),
        "stage_cache.get_us": span("stage_cache.get").p50_us(),
        "stage_cache.put_us": span("stage_cache.put").p50_us(),
        "stage_cache.evictions": count("stage.evictions"),
        "stage_cache.discard_tagged_ms": span("stage_cache.discard_tagged").total_ms,
        "executor.queue_wait_p50_ms": count("executor.queue_wait_p50_ms"),
        "executor.pipeline_runs": count("executor.pipeline_runs"),
        "executor.dedup_joins": count("executor.deduplicated"),
        "qkbfly.build_kb_ms": build.total_ms,
        "qkbfly.unattributed_ratio": (
            build.self_ms / build.total_ms if build.total_ms else 0.0
        ),
        "retrieval.search_ms": span("retrieval.search").total_ms,
        "retrieval.engine_build_ms": span("retrieval.engine_build").total_ms,
        "retrieval.docs_indexed": span("retrieval.engine_build").value_sum(),
        "nlp.annotate_ms": annotate.total_ms,
        "nlp.parse_ms": span("nlp.parse").total_ms,
        "nlp.sentences": annotate.value_sum(0),
        "nlp.tokens": annotate.value_sum(1),
        "openie.extract_ms": span("openie.extract").total_ms,
        "openie.clauses": span("openie.extract").value_sum(),
        "graph.build_self_ms": span("graph.build").self_ms,
        "graph.nodes": graph_stats.value_sum(0),
        "graph.edges": graph_stats.value_sum(1),
        "graph.densify_ms": span("graph.densify").total_ms,
        "graph.densify_calls": span("graph.densify").calls,
        "canonicalize.ms": (
            span("canonicalize.canonicalize").total_ms
            + span("canonicalize.merge").total_ms
        ),
        "canonicalize.facts": span("canonicalize.canonicalize").value_sum(),
        "ingest.total_ms": ingest.total_ms,
        "ingest.self_ms": ingest.self_ms,
        "ingest.compute_touched_ms": span("ingest.compute_touched").total_ms,
        "ingest.invalidate_ms": (
            span("cache.invalidate").total_ms
            + span("store.delete_for_entities").total_ms
            + span("stage_cache.discard_tagged").total_ms
        ),
        "ingest.touched_entities_mean": count("ingest.touched_entities_mean"),
        "ingest.invalidated.cache": count("ingest.invalidated.cache"),
        "ingest.invalidated.store": count("ingest.invalidated.store"),
        "ingest.invalidated.stage": count("ingest.invalidated.stage"),
        "subscriptions.notify_ms": span("subscriptions.notify").total_ms,
        "subscriptions.poll_ms": span("subscriptions.poll").total_ms,
        "subscriptions.deltas_delivered": count("subscriptions.deltas_delivered"),
        "search.page_ms": span("search.page").total_ms,
        "search.shard_query_ms": span("search.shard_query").total_ms,
        "search.rows_per_page": (
            span("search.page").value_sum() / span("search.page").calls
            if span("search.page").calls
            else 0.0
        ),
        "loadgen.open.sent": open_phase.get("sent", 0),
        "loadgen.open.ok": open_phase.get("ok", 0),
        "loadgen.open.failed": open_phase.get("failed", 0),
        "loadgen.closed.sent": closed_phase.get("sent", 0),
        "loadgen.closed.ok": closed_phase.get("ok", 0),
        "loadgen.closed.failed": closed_phase.get("failed", 0),
        "loadgen.late_p99_ms": count("loadgen.late_p99_ms"),
        "loadgen.open_p99_ms": count("loadgen.open_p99_ms"),
        "loadgen.achieved_rate": count("loadgen.achieved_rate"),
        "trace.spans": float(sum(stat.calls for name, stat in spans.items() if "#" not in name)),
    }
    # The two the runner adds itself compare repeats with each other.
    missing = (
        {metric.name for metric in spec.PER_LAYER}
        - set(metrics)
        - {"trace.overhead_ratio", "ingest.drifted_serves"}
    )
    if missing:
        raise RuntimeError(f"layer metrics without a definition: {sorted(missing)}")
    return {name: float(value) for name, value in metrics.items()}


def timing_table(spans: Dict[str, LayerStat]) -> Dict[str, Dict[str, float]]:
    """Every span name as total ms, self ms, calls and p50 per call —
    the long form behind the headline numbers above."""
    return {
        name: {
            "total_ms": stat.total_ms,
            "self_ms": stat.self_ms,
            "calls": stat.calls,
            "p50_us": stat.p50_us(),
        }
        for name, stat in sorted(spans.items())
    }


def _gateway_overhead_p50_ms(repeat: Repeat) -> float:
    """Client-observed latency minus the server-side ``serve`` span,
    joined by arrival order on the single open-loop connection."""
    if "open" not in repeat.phases:
        return 0.0
    low, high = repeat.windows[0]
    serves = sorted(
        (record[1], record[2] - record[1])
        for record in repeat.records
        if record[0] == "service.serve" and low <= record[1] <= high
    )
    overheads = [
        latency - duration / 1e6
        for latency, (_, duration) in zip(repeat.latencies_ms, serves)
    ]
    return percentile(overheads, 0.5)
