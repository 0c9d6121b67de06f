"""The benchmark's declared surface: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root repeats the workload list,
the five end-to-end metrics the driver gates on, and the per-layer
list; ``test_e2e_smoke.py`` checks the two stay in step. The names are
normative (ISSUE 11): every later performance claim cites one
end-to-end metric and one workload from this file.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # allowed worsening of the median (end-to-end only)
    workloads: Tuple[str, ...] = ()  # empty = every workload


WORKLOADS: Dict[str, str] = {
    "cold_distinct": (
        "every request is a first-touch build through the full pipeline; "
        "cache, store and gateway do nothing"
    ),
    "overlap_variants": (
        "query-cache and retrieval miss but NLP/extract stage-cache hit: "
        "graph build, densify and canonicalize do the work"
    ),
    "gateway_hot": (
        "Zipf traffic over HTTP on answers already known: gateway, "
        "envelopes, admission, query cache and store reads; no pipeline"
    ),
    "ingest_mixed": (
        "live ingests beside reads and fact search over the same cache, "
        "store, stage cache and FTS index the other workloads only read"
    ),
}

INGEST_ONLY = ("ingest_mixed",)

#: The eleven end-to-end metrics of ISSUE 11. The issue gives them
#: 10 % (15 % for the two p95s) and rules that a metric which cannot
#: hold its bound gets a longer run or is demoted, never a bound past
#: 15 %. The bounds below are sized from two driver-style sets (ten
#: seeds per workload each, ``--seconds 10``) on the reference box; the
#: widest spread (IQR / median of the ten values) any workload showed
#: was 9.4 % for ``latency_p50_ms``, 7.6 % for ``throughput_ops_s``,
#: 7.2 % for ``cpu_ms_per_op`` (all ``gateway_hot``; in process nothing
#: passed 6 %), 2.2 % for ``peak_rss_mb`` and 21 % for
#: ``latency_p95_ms`` on ``gateway_hot``. So those three timings take
#: the issue's cap instead of its 10 %, and ``latency_p95_ms`` is
#: demoted from the manifest: more repeats do not steady it, the box
#: runs whole minutes 10-25 % slow. The ``ingest_mixed``-only metrics,
#: which the driver does not gate on, keep the issue's bounds.
#:
#: The first five are the ``end_to_end`` block of ``BENCHMARK.json``,
#: which the benchmark driver gates on: defined on every workload,
#: never 0, and steady enough here. The manifest carries the other six
#: in ``per_layer`` (``error_rate`` is 0 by construction and travels
#: as failed/attempted; four exist only on ``ingest_mixed``);
#: ``run.py --compare`` applies all eleven bounds.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.15),
    Metric("latency_p50_ms", "ms", "lower", 0.15),
    Metric("throughput_ops_s", "ops/s", "higher", 0.15),
    Metric("cpu_ms_per_op", "ms", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("latency_p95_ms", "ms", "lower", 0.15),
    Metric("error_rate", "fraction", "lower", 0.0),
    Metric("ingest_p50_ms", "ms", "lower", 0.10, INGEST_ONLY),
    Metric("ingest_p95_ms", "ms", "lower", 0.15, INGEST_ONLY),
    Metric("requery_p50_ms", "ms", "lower", 0.10, INGEST_ONLY),
    Metric("search_p50_ms", "ms", "lower", 0.10, INGEST_ONLY),
]

#: How many of END_TO_END the manifest's ``end_to_end`` block holds.
IN_MANIFEST = 5

_L, _H = "lower", "higher"

#: Per-layer metrics of the traced run, ``<layer>.<metric>``. Suffix
#: convention: ``*_us`` / ``*_p50_ms`` are the p50 of one call;
#: ``*_ms`` without ``p50`` is the total per repeat; everything else
#: is a count or a ratio.
PER_LAYER: List[Metric] = [
    Metric("gateway.overhead_p50_ms", "ms", _L),
    Metric("gateway.response_bytes_p50", "bytes", _L),
    Metric("gateway.non_200", "count", _L),
    Metric("api.request_decode_us", "us", _L),
    Metric("api.result_encode_us", "us", _L),
    Metric("admission.admit_us", "us", _L),
    Metric("admission.rejected", "count", _L),
    Metric("service.serve_self_us.hit", "us", _L),
    Metric("service.serve_self_us.store", "us", _L),
    Metric("service.serve_self_ms.executor", "ms", _L),
    Metric("service.kb_copy_us", "us", _L),
    Metric("cache.get_us", "us", _L),
    Metric("cache.put_us", "us", _L),
    Metric("cache.hit_ratio", "fraction", _H),
    Metric("cache.evictions", "count", _L),
    Metric("cache.invalidate_ms", "ms", _L),
    Metric("cache.invalidated_entries", "count", _L),
    Metric("versions.for_query_us", "us", _L),
    Metric("versions.vector_size", "count", _L),
    Metric("store.load_p50_ms", "ms", _L),
    Metric("store.save_p50_ms", "ms", _L),
    Metric("store.hit_ratio", "fraction", _H),
    Metric("store.delete_for_entities_ms", "ms", _L),
    Metric("store.bytes_per_kb_byte", "ratio", _L),
    Metric("store.entries", "count", _L),
    Metric("stage_cache.hit_ratio.retrieval", "fraction", _H),
    Metric("stage_cache.hit_ratio.nlp", "fraction", _H),
    Metric("stage_cache.hit_ratio.extract", "fraction", _H),
    Metric("stage_cache.get_us", "us", _L),
    Metric("stage_cache.put_us", "us", _L),
    Metric("stage_cache.evictions", "count", _L),
    Metric("stage_cache.discard_tagged_ms", "ms", _L),
    Metric("executor.queue_wait_p50_ms", "ms", _L),
    Metric("executor.pipeline_runs", "count", _L),
    Metric("executor.dedup_joins", "count", _H),
    Metric("qkbfly.build_kb_ms", "ms", _L),
    Metric("qkbfly.unattributed_ratio", "fraction", _L),
    Metric("retrieval.search_ms", "ms", _L),
    Metric("retrieval.engine_build_ms", "ms", _L),
    Metric("retrieval.docs_indexed", "count", _L),
    Metric("nlp.annotate_ms", "ms", _L),
    Metric("nlp.parse_ms", "ms", _L),
    Metric("nlp.sentences", "count", _L),
    Metric("nlp.tokens", "count", _L),
    Metric("openie.extract_ms", "ms", _L),
    Metric("openie.clauses", "count", _L),
    Metric("graph.build_self_ms", "ms", _L),
    Metric("graph.nodes", "count", _L),
    Metric("graph.edges", "count", _L),
    Metric("graph.densify_ms", "ms", _L),
    Metric("graph.densify_calls", "count", _L),
    Metric("canonicalize.ms", "ms", _L),
    Metric("canonicalize.facts", "count", _L),
    Metric("ingest.total_ms", "ms", _L),
    Metric("ingest.self_ms", "ms", _L),
    Metric("ingest.compute_touched_ms", "ms", _L),
    Metric("ingest.invalidate_ms", "ms", _L),
    Metric("ingest.touched_entities_mean", "count", _L),
    Metric("ingest.invalidated.cache", "count", _L),
    Metric("ingest.invalidated.store", "count", _L),
    Metric("ingest.invalidated.stage", "count", _L),
    Metric("ingest.drifted_serves", "count", _L),
    Metric("subscriptions.notify_ms", "ms", _L),
    Metric("subscriptions.poll_ms", "ms", _L),
    Metric("subscriptions.deltas_delivered", "count", _H),
    Metric("search.page_ms", "ms", _L),
    Metric("search.shard_query_ms", "ms", _L),
    Metric("search.rows_per_page", "count", _L),
    Metric("loadgen.open.sent", "count", _H),
    Metric("loadgen.open.ok", "count", _H),
    Metric("loadgen.open.failed", "count", _L),
    Metric("loadgen.closed.sent", "count", _H),
    Metric("loadgen.closed.ok", "count", _H),
    Metric("loadgen.closed.failed", "count", _L),
    Metric("loadgen.late_p99_ms", "ms", _L),
    Metric("loadgen.open_p99_ms", "ms", _L),
    Metric("loadgen.achieved_rate", "1/s", _H),
    Metric("trace.overhead_ratio", "ratio", _L),
    Metric("trace.spans", "count", _L),
]


def manifest_per_layer() -> List[Metric]:
    """The manifest's ``per_layer`` block: the traced layers plus the
    end-to-end metrics its ``end_to_end`` block cannot hold."""
    return PER_LAYER + END_TO_END[IN_MANIFEST:]


def defined_on(metric: Metric, workload: str) -> bool:
    return not metric.workloads or workload in metric.workloads
