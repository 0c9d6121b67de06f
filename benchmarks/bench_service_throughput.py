"""Serving throughput: cold/warm/batched/sharded/process/async/gateway.

Models a serving workload where trending queries repeat (each distinct
query appears ``DUP_FACTOR`` times, round-robin interleaved) and
measures seven regimes over one shared session:

- **cold** — empty cache, each distinct query once, sequential: the
  full pipeline cost, and the source of p50/p95 latency;
- **warm** — the same queries again on the hot cache;
- **batched** — a fresh service fed the full duplicated workload
  through the batch executor (thread pool + single-flight dedup);
- **sharded** — a fresh service persisting into a ``ShardedKbStore``
  (per-shard locks), then serving the same queries from the store with
  a cold cache: the restart/second-tier path;
- **process** — batched *distinct* queries on the thread executor vs.
  the multiprocessing executor, same worker count. The process tier
  escapes the GIL, so with enough idle cores distinct-query QPS
  improves over the thread baseline; on one or two shared cores it
  only adds IPC overhead, so the ratio is reported, not asserted (the
  committed numbers record ``cpu_count`` for exactly this reason —
  see the "thread vs process" note in the README);
- **async** — the head-of-line-blocking check for the asyncio front
  end: cache-hit p50 latency on the event loop, measured alone and
  then again while slow cold queries run concurrently on the executor
  tier. The two p50s must agree within ±10% — a slow pipeline run
  stalling hit traffic is exactly the failure mode the front end
  exists to remove;
- **gateway** — the cost of the v1 HTTP transport: the same cache-hit
  traffic as direct event-loop envelope calls and then over real
  loopback HTTP through ``HttpGateway`` (keep-alive, full JSON
  envelopes). Gated on correctness (every response 200, every hit from
  the cache); the HTTP-vs-direct overhead ratio is informational;
- **stage cache** — the partial-reuse check for stage-level pipeline
  caching (docs/PIPELINE.md): distinct-but-overlapping queries ("X",
  then "X spouse") hit different query-cache keys but retrieve the
  same documents, so the NLP/extraction stage products must be reused.
  Gated on the deterministic stage-cache reuse ratio over the
  base+variant workload and on bit-parity of every stage-cached KB
  against an uncached sequential run; the cold/overlap p50s and the
  speedup over a stage-cache-disabled control are informational (they
  measure the host);
- **fabric** — the multi-process shard fabric (docs/FABRIC.md): the
  same cold-fill-then-store-hit workload as the sharded regime but
  with the shards behind socket shard servers and 2-way replica
  groups. Gated on correctness (every store-served KB bit-identical
  to the pipeline run; after replication drains, every read lands on
  a replica — the fan-out rate is a deterministic counter ratio, not
  a timing). The remote-vs-local read p50s and their overhead ratio
  are informational: they price the loopback socket + JSON framing
  per read on the host, exactly as the gateway scenario prices its
  transport;
- **search** — the fact-search subsystem (docs/SEARCH.md): a sharded
  store filled with indexed facts, then (a) a full-table-scan control
  (one MAX-limit page), (b) a keyset-paginated walk of the whole
  corpus *while a writer thread keeps landing new saves*, and (c) FTS5
  ranked lookups. Gated on walk completeness — every fact present when
  the walk started must come back exactly once, the invariant keyset
  cursors exist to provide (OFFSET pagination loses or repeats rows
  under concurrent writes). The scan/page/FTS latencies are
  informational: they price SQLite on the host;
- **cost admission** — the load-management check for cost budgeting: a
  well-behaved client's cache-hit p50 is measured alone and again
  while an adversarial client hammers the service with expensive
  distinct multi-document cold queries under a tiny
  ``cost_budget_per_second``. The budget must actually shed the
  adversary (at least one ``CostLimited``/429, the reader never
  rejected — gated absolutely) and the reader's hit p50 must stay flat
  (same ±10% acceptance as the async scenario): cost-aware shedding is
  what keeps adversarially expensive cold traffic from bleeding into
  hit latency.

Emits ``BENCH_service.json`` when run as a script; CI gates on the
*relative* metrics (speedups, hit/parity/dedup rates — stable across
machines, capped so gigantic cache speedups don't add noise) via
``benchmarks/check_perf_regression.py``. Correctness is asserted
inline: served results must be byte-identical to sequential ``QKBfly``
runs in every regime.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

try:
    import repro  # noqa: F401  (probe: is the package importable?)
except ImportError:  # standalone `python benchmarks/...` without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.qkbfly import QKBfly, SessionState  # noqa: E402
from repro.corpus.world import World, WorldConfig  # noqa: E402
from repro.service.api import (  # noqa: E402
    IngestRequest,
    QueryRequest,
    WatchRequest,
)
from repro.service.async_service import AsyncQKBflyService  # noqa: E402
from repro.service.gateway import HttpGateway  # noqa: E402
from repro.service.service import QKBflyService, ServiceConfig  # noqa: E402

BENCH_SEED = 7
NUM_UNIQUE_QUERIES = 12
DUP_FACTOR = 3
MAX_WORKERS = 4
NUM_SHARDS = 4
PROCESS_WORKERS = 2
# Async scenario: hits measured alone, then while this many cold
# queries (at this document count, to keep each run slow) occupy the
# executor tier.
ASYNC_ALONE_HITS = 400
ASYNC_MIN_OVERLAP_HITS = 50
ASYNC_MAX_HITS = 5000
ASYNC_COLD_QUERIES = 8
ASYNC_COLD_DOCUMENTS = 3
# Acceptance: p50 during concurrent cold work within ±10% of p50
# alone, plus a 10µs absolute allowance so sub-100µs hit timings don't
# gate on timer/scheduler granularity (the enforced bound is the
# tolerance or the allowance, whichever is larger at the measured
# scale — reference runs sit at ~4-5% with p50s around 17-18µs).
ASYNC_ISOLATION_TOLERANCE = 0.10
ASYNC_ISOLATION_EPSILON_MS = 0.01
# Gateway scenario: cache hits measured per transport (direct envelope
# calls on the loop vs. loopback HTTP through HttpGateway).
GATEWAY_HITS = 300
# Cost-admission scenario: a reader's cache hits vs. an adversarial
# client issuing expensive distinct cold queries (this many documents
# each) under a deliberately tiny cost budget. The adversary runs until
# the budget has demonstrably shed it (COST_MIN_REJECTIONS) or the
# request cap is reached; the reader keeps hitting for the duration.
COST_BUDGET_PER_SECOND = 0.05
COST_BUDGET_BURST = 0.25
COST_COLD_DOCUMENTS = 3
COST_MIN_REJECTIONS = 5
COST_MAX_REQUESTS = 200
COST_ALONE_HITS = 300
COST_MAX_HITS = 5000
# Fabric scenario: replica group width for the fabric-backed store.
FABRIC_REPLICATION = 2
# Search scenario: entries saved into the sharded store (each carrying
# SEARCH_FACTS_PER_ENTRY facts), the page size of the keyset walk, how
# many saves the concurrent writer lands while the walk runs, and how
# many passes time the full-scan control / FTS lookups.
SEARCH_ENTRIES = 100
SEARCH_FACTS_PER_ENTRY = 3
SEARCH_PAGE_LIMIT = 25
SEARCH_CONCURRENT_WRITES = 20
SEARCH_TIMING_PASSES = 5
# Stage-cache scenario: base queries plus an overlapping variant per
# base query ("<name> spouse" retrieves the same documents under a
# different query-cache key, so only the stage cache can help).
STAGE_UNIQUE_QUERIES = 8
# Ingest scenario: warm queries, then breaking documents mentioning
# the first INGEST_TARGET_QUERIES of them (INGEST_DOCS total). Only
# the intersecting warm entries may cool (docs/INGEST.md).
INGEST_WARM_QUERIES = 10
INGEST_TARGET_QUERIES = 2
INGEST_DOCS = 4
# Speedups are capped before gating: beyond this they only measure timer
# noise on near-instant cache hits, not serving-layer health.
GATE_CAP = 20.0
# The store-hit path must beat the pipeline by at least this much
# anywhere; capping the gate low keeps it robust across machines.
SHARDED_GATE_CAP = 3.0


def _queries(session: SessionState, count: int) -> List[str]:
    entities = sorted(
        session.entity_repository.entities(),
        key=lambda e: (-e.prominence, e.entity_id),
    )
    return [e.canonical_name for e in entities[:count]]


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_throughput_benchmark(
    world: World,
    num_unique: int = NUM_UNIQUE_QUERIES,
    dup_factor: int = DUP_FACTOR,
    max_workers: int = MAX_WORKERS,
    session: SessionState = None,
) -> Dict[str, float]:
    """Measure the cold/warm/batched regimes; returns the metrics."""
    session = session or SessionState.from_world(world)
    unique = _queries(session, num_unique)
    workload = [unique[i % len(unique)] for i in range(num_unique * dup_factor)]

    # Cold: fresh service, one pass over the distinct queries.
    cold_service = QKBflyService(
        session, service_config=ServiceConfig(max_workers=max_workers)
    )
    latencies = []
    t0 = time.perf_counter()
    cold_results = []
    for query in unique:
        result = cold_service.serve(QueryRequest(query=query))
        latencies.append(result.seconds)
        cold_results.append(result)
    cold_seconds = time.perf_counter() - t0
    assert not any(r.cache_hit for r in cold_results)

    # Warm: same queries on the now-hot cache.
    t0 = time.perf_counter()
    warm_results = [
        cold_service.serve(QueryRequest(query=query)) for query in unique
    ]
    warm_seconds = time.perf_counter() - t0
    assert all(r.cache_hit for r in warm_results)

    # Batched: fresh service, the duplicated workload in one batch.
    batch_service = QKBflyService(
        session, service_config=ServiceConfig(max_workers=max_workers)
    )
    t0 = time.perf_counter()
    batch_results = batch_service.serve_batch(
        [QueryRequest(query=query) for query in workload]
    )
    batch_seconds = time.perf_counter() - t0

    # Correctness: batched results byte-identical to sequential runs.
    reference = QKBfly.from_session(session)
    expected = {
        query: reference.build_kb(
            query, source="wikipedia", num_documents=1
        ).to_dict()
        for query in unique
    }
    for query, result in zip(workload, batch_results):
        assert result.kb.to_dict() == expected[query], (
            f"batched KB for {query!r} differs from the sequential run"
        )

    qps_cold = len(unique) / cold_seconds
    qps_warm = len(unique) / warm_seconds
    qps_batched = len(workload) / batch_seconds
    warm_speedup = qps_warm / qps_cold
    batched_speedup = qps_batched / qps_cold
    # Hit rate over the cold+warm passes (N misses then N hits -> 0.5);
    # batched duplicates are absorbed by single-flight dedup before they
    # reach the cache, so they are reported as a dedup ratio instead.
    hit_rate = cold_service.cache.stats()["hit_rate"]
    dedup_ratio = 1.0 - batch_service.pipeline_runs / len(workload)
    cold_service.close()
    batch_service.close()
    return {
        "num_unique_queries": len(unique),
        "workload_size": len(workload),
        "dup_factor": dup_factor,
        "max_workers": max_workers,
        "qps_cold": round(qps_cold, 2),
        "qps_warm": round(qps_warm, 2),
        "qps_batched": round(qps_batched, 2),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
        "mean_cold_ms": round(statistics.mean(latencies) * 1000, 3),
        "warm_speedup": round(warm_speedup, 2),
        "batched_speedup": round(batched_speedup, 2),
        "cache_hit_rate": round(hit_rate, 4),
        "batched_dedup_ratio": round(dedup_ratio, 4),
        "pipeline_runs_batched": batch_service.pipeline_runs,
        # Gate metrics: what CI compares against the committed baseline.
        "gate_warm_speedup": round(min(warm_speedup, GATE_CAP), 2),
        "gate_batched_speedup": round(min(batched_speedup, GATE_CAP), 2),
        "gate_cache_hit_rate": round(hit_rate, 4),
        "gate_batched_dedup_ratio": round(dedup_ratio, 4),
    }


def run_sharded_store_benchmark(
    session: SessionState,
    num_unique: int = NUM_UNIQUE_QUERIES,
    max_workers: int = MAX_WORKERS,
    num_shards: int = NUM_SHARDS,
) -> Dict[str, float]:
    """Second-tier serving through a sharded store: cold fill, then a
    cache-cleared pass that must be answered entirely from the shards."""
    unique = _queries(session, num_unique)
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            max_workers=max_workers,
            store_path=str(Path(tmp) / "shards"),
            store_shards=num_shards,
        )
        with QKBflyService(session, service_config=config) as service:
            t0 = time.perf_counter()
            cold_results = [
                service.serve(QueryRequest(query=query)) for query in unique
            ]
            cold_seconds = time.perf_counter() - t0
            assert not any(r.cache_hit or r.store_hit for r in cold_results)

            # Restart path: cold cache, warm shards.
            service.cache.clear()
            t0 = time.perf_counter()
            store_results = [
                service.serve(QueryRequest(query=query)) for query in unique
            ]
            store_seconds = time.perf_counter() - t0
            store_hit_rate = sum(
                1 for r in store_results if r.store_hit
            ) / len(store_results)
            for cold, stored in zip(cold_results, store_results):
                assert stored.kb.to_dict() == cold.kb.to_dict(), (
                    "store-served KB differs from the pipeline run"
                )
            occupied = sum(
                1 for c in service.store.shard_entry_counts() if c > 0
            )
    qps_cold = len(unique) / cold_seconds
    qps_store = len(unique) / store_seconds
    speedup = qps_store / qps_cold
    return {
        "num_shards": num_shards,
        "shards_occupied": occupied,
        "qps_sharded_cold": round(qps_cold, 2),
        "qps_sharded_store_hit": round(qps_store, 2),
        "sharded_store_speedup": round(speedup, 2),
        "sharded_store_hit_rate": round(store_hit_rate, 4),
        "gate_sharded_store_speedup": round(
            min(speedup, SHARDED_GATE_CAP), 2
        ),
        "gate_sharded_store_hit_rate": round(store_hit_rate, 4),
    }


def run_fabric_benchmark(
    session: SessionState,
    num_unique: int = NUM_UNIQUE_QUERIES,
    max_workers: int = MAX_WORKERS,
    num_shards: int = NUM_SHARDS,
    replication_factor: int = FABRIC_REPLICATION,
) -> Dict[str, float]:
    """Second-tier serving through the multi-process shard fabric.

    Same shape as the sharded regime — cold fill, cache clear, a pass
    that must be answered entirely from the store — but every store
    operation crosses a loopback socket to a shard server, writes fan
    out to replicas asynchronously, and reads go replica-first. Two
    correctness gates (both deterministic): every store-served KB is
    bit-identical to its pipeline run, and once replication has
    drained, a full read pass lands entirely on replicas (counter
    ratio, not a timing). The read-cost comparison — the same loads
    timed through the fabric and again on the *same primary files*
    reopened locally after shutdown — is informational: it prices the
    socket + JSON framing per read on the host.
    """
    from repro.service.sharding import ShardedKbStore

    unique = _queries(session, num_unique)
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = str(Path(tmp) / "fabric")
        config = ServiceConfig(
            max_workers=max_workers,
            store_path=store_dir,
            store_shards=num_shards,
            store_backend="fabric",
            replication_factor=replication_factor,
        )
        with QKBflyService(session, service_config=config) as service:
            t0 = time.perf_counter()
            cold_results = [
                service.serve(QueryRequest(query=query)) for query in unique
            ]
            cold_seconds = time.perf_counter() - t0
            assert not any(r.cache_hit or r.store_hit for r in cold_results)

            # Restart path: cold cache, warm fabric.
            service.cache.clear()
            t0 = time.perf_counter()
            store_results = [
                service.serve(QueryRequest(query=query)) for query in unique
            ]
            store_seconds = time.perf_counter() - t0
            matched = sum(
                1
                for cold, stored in zip(cold_results, store_results)
                if stored.store_hit
                and stored.kb.to_dict() == cold.kb.to_dict()
            )
            parity = matched / len(unique)

            # Replica fan-out: with replication drained, a full pass of
            # raw loads must land on replicas. Counter deltas make the
            # rate deterministic (earlier serves may legitimately have
            # missed a lagging replica and fallen back to the primary).
            assert service.fabric is not None
            assert service.fabric.flush_replication(timeout=60.0)
            signatures = sorted(
                service.store.signatures(), key=lambda sig: sig.query
            )
            assert len(signatures) == len(unique)
            load_kwargs = [
                dict(
                    corpus_version=sig.corpus_version,
                    mode=sig.mode,
                    algorithm=sig.algorithm,
                    source=sig.source,
                    num_documents=sig.num_documents,
                    config_digest=sig.config_digest,
                )
                for sig in signatures
            ]
            before = service.fabric.stats()
            remote: List[float] = []
            for sig, kwargs in zip(signatures, load_kwargs):
                t0 = time.perf_counter()
                kb = service.store.load(sig.query, **kwargs)
                remote.append(time.perf_counter() - t0)
                assert kb is not None
            after = service.fabric.stats()
            reads = sum(
                a["replica_reads"] - b["replica_reads"]
                for a, b in zip(after["shards"], before["shards"])
            )
            hits = sum(
                a["replica_hits"] - b["replica_hits"]
                for a, b in zip(after["shards"], before["shards"])
            )
            fanout = hits / reads if reads else 0.0

        # The primaries are plain SQLite shards: reopen the same files
        # locally and time the identical loads — the delta is the wire.
        with ShardedKbStore(store_dir) as local:
            local_reads: List[float] = []
            for sig, kwargs in zip(signatures, load_kwargs):
                t0 = time.perf_counter()
                kb = local.load(sig.query, **kwargs)
                local_reads.append(time.perf_counter() - t0)
                assert kb is not None

    remote_p50_ms = _percentile(remote, 0.50) * 1000
    local_p50_ms = _percentile(local_reads, 0.50) * 1000
    return {
        "fabric_shards": num_shards,
        "fabric_replication_factor": replication_factor,
        "qps_fabric_cold": round(len(unique) / cold_seconds, 2),
        "qps_fabric_store_hit": round(len(unique) / store_seconds, 2),
        "fabric_remote_read_p50_ms": round(remote_p50_ms, 4),
        "fabric_local_read_p50_ms": round(local_p50_ms, 4),
        # Socket + JSON cost per store read relative to an in-process
        # SQLite read of the same shard files.
        "fabric_remote_overhead_ratio": round(
            remote_p50_ms / local_p50_ms if local_p50_ms else 1.0, 2
        ),
        "fabric_replica_reads": reads,
        "fabric_replica_hits": hits,
        "gate_fabric_store_parity": round(parity, 4),
        "gate_fabric_replica_fanout": round(fanout, 4),
    }


def run_process_executor_benchmark(
    session: SessionState,
    num_unique: int = NUM_UNIQUE_QUERIES,
    process_workers: int = PROCESS_WORKERS,
    num_documents: int = 2,
) -> Dict[str, float]:
    """Batched *distinct*-query QPS: thread executor vs. process pool.

    Distinct queries are the regime dedup and caching cannot help with
    — the pipeline must actually run N times, so this measures raw
    execution-tier scaling. One warm-up query per service keeps pool
    bootstrap out of the timed window. Byte-parity with the sequential
    pipeline is asserted for every process-tier result.
    """
    queries = _queries(session, num_unique + 1)
    warmup, workload = queries[0], queries[1:]
    timings: Dict[str, float] = {}
    process_results = None
    executor_kind = None
    for kind in ("thread", "process"):
        # Identical width on both tiers: the thread service runs the
        # pipeline on its max_workers threads, the process service
        # funnels the same number of front threads into as many worker
        # processes — so the comparison is N threads vs. N processes.
        config = ServiceConfig(
            max_workers=process_workers,
            executor=kind,
            process_workers=process_workers,
            num_documents=num_documents,
        )
        with QKBflyService(session, service_config=config) as service:
            # Bootstrap workers outside the clock.
            service.serve(QueryRequest(query=warmup))
            t0 = time.perf_counter()
            results = service.serve_batch(
                [QueryRequest(query=query) for query in workload]
            )
            timings[kind] = time.perf_counter() - t0
            assert service.pipeline_runs == len(workload) + 1
            if kind == "process":
                process_results = results
                executor_kind = service.stats()["pipeline_executor"]["kind"]

    reference = QKBfly.from_session(session)
    matched = sum(
        1
        for query, result in zip(workload, process_results)
        if result.kb.to_dict()
        == reference.build_kb(
            query, source="wikipedia", num_documents=num_documents
        ).to_dict()
    )
    parity = matched / len(workload)
    qps_thread = len(workload) / timings["thread"]
    qps_process = len(workload) / timings["process"]
    speedup = qps_process / qps_thread
    return {
        # The CPUs this process may run on (its affinity mask), not
        # the machine's: what decides whether a pool can pay for IPC.
        "cpu_count": len(os.sched_getaffinity(0)),
        "process_workers": process_workers,
        "process_executor_kind": executor_kind,
        "num_distinct_queries": len(workload),
        "qps_thread_distinct": round(qps_thread, 2),
        "qps_process_distinct": round(qps_process, 2),
        # > 1.0 means the process tier beat the thread tier here;
        # informational on every host (_assert_scaleout_metrics).
        "process_speedup": round(speedup, 2),
        "gate_process_parity": round(parity, 4),
    }


def run_async_front_end_benchmark(
    session: SessionState,
    alone_hits: int = ASYNC_ALONE_HITS,
    num_cold: int = ASYNC_COLD_QUERIES,
) -> Dict[str, float]:
    """Event-loop cache-hit p50, alone vs. under concurrent cold work.

    The sync facade serializes a caller behind whatever its thread is
    doing; the asyncio front end promises that cache hits keep
    resolving on the loop while the executor tier grinds through slow
    pipeline runs. Measured directly: one hot query is served
    ``alone_hits`` times on an idle service (baseline p50), then served
    again in a loop that runs for exactly as long as a background batch
    of ``num_cold`` distinct cold queries (``ASYNC_COLD_DOCUMENTS``
    documents each, so every run is slow) is in flight — the gated p50
    is computed over those genuinely contended hits
    (``async_overlap_hits`` reports how many there were; uncontended
    top-up samples are used only if a starved loop thread measured
    almost nothing during the batch). The two p50s must agree within
    ``ASYNC_ISOLATION_TOLERANCE`` (plus a 10µs granularity allowance).

    On a single-CPU host this is the *strictest* regime: the loop and
    the pipeline threads share one core, so the p50 (not the tail) is
    the honest isolation signal — individual hits that straddle a GIL
    preemption slice land in the p9x outliers.
    """
    queries = _queries(session, num_cold + 1)
    hot, cold = queries[0], queries[1:]

    async def hit_once(service: AsyncQKBflyService) -> float:
        t0 = time.perf_counter()
        result = await service.serve(QueryRequest(query=hot))
        elapsed = time.perf_counter() - t0
        assert result.cache_hit, "hot query fell out of the cache"
        return elapsed

    async def scenario():
        service_config = ServiceConfig(max_workers=MAX_WORKERS)
        async with AsyncQKBflyService.from_session(
            session, service_config=service_config
        ) as service:
            warm = await service.serve(QueryRequest(query=hot))
            assert not warm.cache_hit
            # Baseline: hit latency on an otherwise idle loop.
            alone = [await hit_once(service) for _ in range(alone_hits)]

            # Contended: the same hit while cold queries occupy the
            # executor tier. The hit loop runs for the whole lifetime
            # of the background batch (bounded by ASYNC_MAX_HITS).
            background = asyncio.ensure_future(
                service.serve_batch(
                    [
                        QueryRequest(
                            query=query,
                            num_documents=ASYNC_COLD_DOCUMENTS,
                        )
                        for query in cold
                    ]
                )
            )
            overlap: List[float] = []
            while not background.done() and len(overlap) < ASYNC_MAX_HITS:
                overlap.append(await hit_once(service))
                await asyncio.sleep(0)  # let executor callbacks land
            # Degenerate overlap (a starved loop thread can miss most
            # of the batch): top the sample up with post-batch hits so
            # p50 stays meaningful — but keep them out of the overlap
            # count, which must report only genuinely contended hits.
            topup: List[float] = []
            while len(overlap) + len(topup) < ASYNC_MIN_OVERLAP_HITS:
                topup.append(await hit_once(service))
            cold_results = await background
            assert not any(r.cache_hit for r in cold_results)
            return alone, overlap, topup, cold_results

    alone, overlap, topup, cold_results = asyncio.run(scenario())
    # The gated p50 uses contended samples only, unless overlap was so
    # degenerate that the uncontended top-up is all there is.
    during = (
        overlap if len(overlap) >= ASYNC_MIN_OVERLAP_HITS
        else overlap + topup
    )

    # Correctness: concurrently served cold KBs match sequential runs.
    reference = QKBfly.from_session(session)
    for query, result in zip(cold, cold_results):
        expected = reference.build_kb(
            query, source="wikipedia", num_documents=ASYNC_COLD_DOCUMENTS
        )
        assert result.kb.to_dict() == expected.to_dict(), (
            f"async cold KB for {query!r} differs from the sequential run"
        )

    p50_alone_ms = _percentile(alone, 0.50) * 1000
    p50_during_ms = _percentile(during, 0.50) * 1000
    p95_during_ms = _percentile(during, 0.95) * 1000
    ratio = p50_during_ms / p50_alone_ms if p50_alone_ms else 1.0
    # Gate form: 1.0 when hits are unaffected, degrading toward 0 as
    # cold work bleeds into hit latency (check_perf_regression fails
    # when the value drops >20% below the committed baseline).
    isolation = min(
        (p50_alone_ms + ASYNC_ISOLATION_EPSILON_MS)
        / max(p50_during_ms, 1e-9),
        1.0,
    )
    return {
        "async_hit_p50_alone_ms": round(p50_alone_ms, 4),
        "async_hit_p50_during_cold_ms": round(p50_during_ms, 4),
        "async_hit_p95_during_cold_ms": round(p95_during_ms, 4),
        "async_overlap_hits": len(overlap),
        "async_cold_queries": len(cold),
        "async_isolation_ratio": round(ratio, 4),
        "gate_async_isolation": round(isolation, 4),
    }


def run_gateway_benchmark(
    session: SessionState, hits: int = GATEWAY_HITS
) -> Dict[str, float]:
    """HTTP serving cost: cache hits through the gateway vs. direct.

    The same hot query is served ``hits`` times twice — first as direct
    envelope calls on the event loop (:meth:`AsyncQKBflyService.serve`,
    the floor any transport pays), then over real loopback HTTP through
    :class:`HttpGateway` on a keep-alive ``http.client`` connection
    (one request/response cycle each: JSON envelope in, full KB payload
    out). The client runs on a worker thread, so the loop it hammers is
    simultaneously parsing, serving, and framing — the deployment
    shape. Correctness is gated absolutely: every HTTP response must be
    200 and every one must be served from the cache; the overhead ratio
    (HTTP p50 / direct p50) is committed as an informational metric,
    because it measures socket+JSON cost on the host, not serving-layer
    health.
    """
    import http.client

    def http_pass(host: str, port: int, query: str, count: int):
        connection = http.client.HTTPConnection(host, port)
        body = json.dumps({"query": query, "client_id": "bench"})
        headers = {"Content-Type": "application/json"}
        latencies: List[float] = []
        statuses: List[int] = []
        served: List[str] = []
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                connection.request("POST", "/v1/query", body, headers)
                response = connection.getresponse()
                payload = json.loads(response.read())
                latencies.append(time.perf_counter() - t0)
                statuses.append(response.status)
                served.append(payload.get("served_from"))
        finally:
            connection.close()
        return latencies, statuses, served

    async def scenario():
        service_config = ServiceConfig(max_workers=MAX_WORKERS)
        service = AsyncQKBflyService.from_session(
            session, service_config=service_config
        )
        async with HttpGateway(service, own_service=True) as gateway:
            query = _queries(session, 1)[0]
            request = QueryRequest(query=query, client_id="bench")
            warm = await service.serve(request)
            assert warm.served_from == "executor"

            direct: List[float] = []
            for _ in range(hits):
                t0 = time.perf_counter()
                result = await service.serve(request)
                direct.append(time.perf_counter() - t0)
                assert result.served_from == "cache"

            loop = asyncio.get_running_loop()
            latencies, statuses, served = await loop.run_in_executor(
                None, http_pass, gateway.host, gateway.port, query, hits
            )
            return direct, latencies, statuses, served

    direct, latencies, statuses, served = asyncio.run(scenario())
    success_rate = sum(1 for s in statuses if s == 200) / len(statuses)
    cache_rate = sum(1 for s in served if s == "cache") / len(served)
    direct_p50_ms = _percentile(direct, 0.50) * 1000
    gateway_p50_ms = _percentile(latencies, 0.50) * 1000
    return {
        "gateway_hits": len(statuses),
        "qps_direct_async": round(len(direct) / sum(direct), 2),
        "qps_gateway_http": round(len(latencies) / sum(latencies), 2),
        "direct_hit_p50_ms": round(direct_p50_ms, 4),
        "gateway_hit_p50_ms": round(gateway_p50_ms, 4),
        "gateway_hit_p95_ms": round(_percentile(latencies, 0.95) * 1000, 4),
        # HTTP cost per hit relative to the in-process floor: socket
        # round-trip + request parse + envelope JSON both ways.
        "gateway_overhead_ratio": round(
            gateway_p50_ms / direct_p50_ms if direct_p50_ms else 1.0, 2
        ),
        "gate_gateway_success_rate": round(success_rate, 4),
        "gate_gateway_cache_hit_rate": round(cache_rate, 4),
    }


def run_cost_admission_benchmark(
    session: SessionState,
    alone_hits: int = COST_ALONE_HITS,
) -> Dict[str, float]:
    """Cache-hit p50 under adversarially expensive cold traffic, with
    cost-aware admission shedding the adversary.

    One service, two clients, one tiny cost budget
    (``COST_BUDGET_PER_SECOND`` pipeline-seconds/second, burst
    ``COST_BUDGET_BURST``s). The *reader* serves one query cold, then
    hammers it as cache hits — first alone (baseline p50), then for the
    whole lifetime of an *adversary* thread issuing distinct
    ``COST_COLD_DOCUMENTS``-document cold queries (each run is ~3x the
    1-document pipeline cost). The adversary's spend drains its bucket
    within a few requests, after which its traffic is rejected with
    ``CostLimited`` in microseconds instead of occupying the pipeline —
    which is exactly why the reader's p50 must stay inside the same
    ±10% band the async-isolation scenario enforces.

    Gated absolutely: the adversary sees at least one cost rejection
    and the reader sees none (``gate_cost_budget_enforced``); gated
    relatively: the alone/during p50 ratio
    (``gate_cost_hit_isolation``). The shed rate and absolute
    latencies are informational (they measure the host and the chosen
    budget, not serving-layer health).
    """
    import threading

    from repro.service.api import CostLimited, RateLimited

    queries = _queries(session, 24)
    hot, cold_pool = queries[0], queries[1:]
    config = ServiceConfig(
        max_workers=MAX_WORKERS,
        cost_budget_per_second=COST_BUDGET_PER_SECOND,
        cost_budget_burst=COST_BUDGET_BURST,
    )
    counters = {"admitted": 0, "rejected": 0, "requests": 0}

    def adversary(service: QKBflyService) -> None:
        i = 0
        while (
            counters["rejected"] < COST_MIN_REJECTIONS
            and counters["requests"] < COST_MAX_REQUESTS
        ):
            # Fresh (query, num_documents) pairs each pass, so the
            # traffic stays genuinely cold — a repeated key would be a
            # cache hit, refunded as free.
            query = cold_pool[i % len(cold_pool)]
            documents = COST_COLD_DOCUMENTS + i // len(cold_pool)
            i += 1
            counters["requests"] += 1
            try:
                service.serve(
                    QueryRequest(
                        query=query,
                        num_documents=documents,
                        client_id="adversary",
                    )
                )
                counters["admitted"] += 1
            except (CostLimited, RateLimited):
                counters["rejected"] += 1

    reader_rejections = 0
    with QKBflyService(session, service_config=config) as service:
        request = QueryRequest(query=hot, client_id="reader")
        warm = service.serve(request)
        assert warm.served_from == "executor"

        def hit_once() -> float:
            t0 = time.perf_counter()
            result = service.serve(request)
            assert result.cache_hit, "hot query fell out of the cache"
            return time.perf_counter() - t0

        alone = [hit_once() for _ in range(alone_hits)]
        attacker = threading.Thread(target=adversary, args=(service,))
        attacker.start()
        during: List[float] = []
        while attacker.is_alive() and len(during) < COST_MAX_HITS:
            try:
                during.append(hit_once())
            except (CostLimited, RateLimited):
                reader_rejections += 1
        attacker.join(timeout=120)
        # Degenerate overlap (the attacker can finish almost instantly
        # once rejections dominate): top up so p50 stays meaningful.
        while len(during) < ASYNC_MIN_OVERLAP_HITS:
            during.append(hit_once())
        spend = service.stats()["admission"]["client_spend"]

    p50_alone_ms = _percentile(alone, 0.50) * 1000
    p50_during_ms = _percentile(during, 0.50) * 1000
    isolation = min(
        (p50_alone_ms + ASYNC_ISOLATION_EPSILON_MS)
        / max(p50_during_ms, 1e-9),
        1.0,
    )
    enforced = (
        1.0
        if counters["rejected"] >= 1 and reader_rejections == 0
        else 0.0
    )
    return {
        "cost_budget_per_second": COST_BUDGET_PER_SECOND,
        "cost_budget_burst": COST_BUDGET_BURST,
        "cost_adversary_requests": counters["requests"],
        "cost_adversary_admitted": counters["admitted"],
        "cost_adversary_rejected": counters["rejected"],
        "cost_shed_rate": round(
            counters["rejected"] / max(1, counters["requests"]), 4
        ),
        "cost_reader_rejections": reader_rejections,
        "cost_adversary_spend_seconds": round(
            spend.get("adversary", 0.0), 4
        ),
        "cost_hit_p50_alone_ms": round(p50_alone_ms, 4),
        "cost_hit_p50_during_ms": round(p50_during_ms, 4),
        "cost_isolation_ratio": round(
            p50_during_ms / p50_alone_ms if p50_alone_ms else 1.0, 4
        ),
        "gate_cost_hit_isolation": round(isolation, 4),
        "gate_cost_budget_enforced": enforced,
    }


def run_search_benchmark(
    session: SessionState,
    num_entries: int = SEARCH_ENTRIES,
    num_shards: int = NUM_SHARDS,
) -> Dict[str, float]:
    """Fact search over a populated sharded store: scan, walk, FTS.

    ``num_entries`` KBs (each ``SEARCH_FACTS_PER_ENTRY`` facts about
    the session's own entities) are saved into a sharded store, whose
    save hook indexes them incrementally. Three measurements:

    1. *full-scan control* — one MAX-limit page returning the whole
       corpus, the thing pagination replaces (informational p50);
    2. *keyset walk* — the corpus again in ``SEARCH_PAGE_LIMIT``-row
       pages while a writer thread lands ``SEARCH_CONCURRENT_WRITES``
       fresh saves mid-walk. ``gate_search_walk_complete`` is 1.0 only
       when every pre-walk fact came back exactly once and no row was
       duplicated — the correctness contract of ``{sortkey}|{rowid}``
       cursors under concurrent writes;
    3. *FTS lookups* — bm25-ranked queries for known subjects, each of
       which must actually find its fact (informational p50).
    """
    import threading

    from repro.kb.facts import ARG_ENTITY, Argument, Fact, KnowledgeBase
    from repro.service.search.query import (
        MAX_SEARCH_LIMIT,
        search_paginated,
        store_backends,
    )
    from repro.service.sharding import ShardedKbStore

    names = _queries(session, NUM_UNIQUE_QUERIES)

    def entry_kb(index: int) -> KnowledgeBase:
        kb = KnowledgeBase()
        for j in range(SEARCH_FACTS_PER_ENTRY):
            name = names[(index + j) % len(names)]
            kb.add_fact(
                Fact(
                    subject=Argument(
                        ARG_ENTITY, f"E{index}_{j}", f"{name} role {index}.{j}"
                    ),
                    predicate=f"pred_{j}",
                    objects=[
                        Argument(ARG_ENTITY, "E_OBJ", f"object {index}.{j}")
                    ],
                    pattern=f"pat_{j}",
                    confidence=0.9,
                    doc_id=f"doc_{index}",
                    sentence_index=j,
                )
            )
        return kb

    with tempfile.TemporaryDirectory() as tmp:
        with ShardedKbStore(
            str(Path(tmp) / "search"), num_shards=num_shards
        ) as store:
            expected = set()
            for i in range(num_entries):
                store.save(f"search_{i}", entry_kb(i), corpus_version="v1")
                for j in range(SEARCH_FACTS_PER_ENTRY):
                    name = names[(i + j) % len(names)]
                    expected.add((f"search_{i}", f"{name} role {i}.{j}"))

            # Full-table-scan control: the whole corpus as one page.
            fullscan: List[float] = []
            for _ in range(SEARCH_TIMING_PASSES):
                t0 = time.perf_counter()
                page = search_paginated(
                    store_backends(store), "facts", limit=MAX_SEARCH_LIMIT
                )
                fullscan.append(time.perf_counter() - t0)
            assert len(page["results"]) == min(
                len(expected), MAX_SEARCH_LIMIT
            )

            # Keyset walk under concurrent writes.
            def writer() -> None:
                for i in range(SEARCH_CONCURRENT_WRITES):
                    store.save(
                        f"mid_{i}", entry_kb(num_entries + i),
                        corpus_version="v1",
                    )

            walker = threading.Thread(target=writer)
            page_latencies: List[float] = []
            walked: List[Dict] = []
            cursor = None
            t0 = time.perf_counter()
            walker.start()
            try:
                while True:
                    t_page = time.perf_counter()
                    page = search_paginated(
                        store_backends(store),
                        "facts",
                        limit=SEARCH_PAGE_LIMIT,
                        cursor=cursor,
                    )
                    page_latencies.append(time.perf_counter() - t_page)
                    walked.extend(page["results"])
                    if not page["has_more"]:
                        break
                    cursor = page["next_cursor"]
            finally:
                walker.join(timeout=120)
            walk_seconds = time.perf_counter() - t0

            gids = [row["gid"] for row in walked]
            seen = [
                (row["query"], row["subject"])
                for row in walked
                if row["query"].startswith("search_")
            ]
            complete = (
                len(gids) == len(set(gids))
                and len(seen) == len(set(seen))
                and set(seen) == expected
            )

            # FTS lookups: every query must actually find its fact.
            fts: List[float] = []
            found = 0
            for i in range(SEARCH_TIMING_PASSES):
                target = f"role {i}.0"
                t0 = time.perf_counter()
                ranked = search_paginated(
                    store_backends(store),
                    "facts",
                    q=target,
                    sort="rank",
                    limit=5,
                )
                fts.append(time.perf_counter() - t0)
                found += any(
                    target in row["subject"] for row in ranked["results"]
                )
            assert found == SEARCH_TIMING_PASSES, (
                "an FTS lookup failed to find an indexed fact"
            )

    return {
        "search_entries": num_entries,
        "search_facts_indexed": len(expected),
        "search_walk_pages": len(page_latencies),
        "search_concurrent_writes": SEARCH_CONCURRENT_WRITES,
        "qps_search_scan": round(len(walked) / walk_seconds, 2),
        "search_page_p50_ms": round(
            _percentile(page_latencies, 0.50) * 1000, 4
        ),
        "search_fullscan_p50_ms": round(
            _percentile(fullscan, 0.50) * 1000, 4
        ),
        "search_fts_p50_ms": round(_percentile(fts, 0.50) * 1000, 4),
        "gate_search_walk_complete": 1.0 if complete else 0.0,
    }


def run_stage_cache_benchmark(
    session: SessionState,
    num_queries: int = STAGE_UNIQUE_QUERIES,
) -> Dict[str, float]:
    """Partial reuse across overlapping queries via the stage cache.

    The workload is ``num_queries`` base queries plus one variant per
    base ("<name> spouse"): every variant is a *distinct* query-cache
    key, so the result tiers cannot help — but it retrieves the same
    documents, so the stage cache serves its NLP annotation and clause
    extraction from memory and only the graph stages re-run.

    Three passes over the same workload:

    1. an uncached sequential ``QKBfly`` run (the parity reference —
       also what every pre-stage-cache release produced);
    2. a *control* service with ``stage_cache_enabled=False``: the
       overlap pass at full pipeline cost;
    3. the benched service with a fresh stage cache: a cold base pass
       (fills the stage tiers) and the overlap pass (reuses them).

    Gated deterministically: ``gate_overlap_reuse`` is the stage
    cache's hit ratio over the workload (pure lookup counts — BM25,
    annotation, and extraction are deterministic, so this number is
    machine-independent) and ``gate_stage_cold_parity`` is the
    fraction of stage-cached results bit-identical to the uncached
    reference. The p50s and the control speedup are informational.
    """
    base = _queries(session, num_queries)
    variants = [f"{query} spouse" for query in base]

    # Reference: no stage cache anywhere. Earlier scenarios in a full
    # run installed one on the shared session (it is the default), so
    # it is explicitly removed — this scenario must build its own cold
    # cache to measure honestly.
    session.stage_cache = None
    reference = QKBfly.from_session(session)
    expected = {
        query: reference.build_kb(
            query, source="wikipedia", num_documents=1
        ).to_dict()
        for query in base + variants
    }

    # Control: stage caching off, overlap pass at full pipeline cost.
    control_config = ServiceConfig(
        max_workers=MAX_WORKERS, stage_cache_enabled=False
    )
    with QKBflyService(session, service_config=control_config) as control:
        for query in base:
            control.serve(QueryRequest(query=query))
        control_latencies = [
            control.serve(QueryRequest(query=query)).seconds
            for query in variants
        ]
    assert session.stage_cache is None, (
        "a stage_cache_enabled=False service must not install a cache"
    )

    # Benched: a fresh stage cache, installed by the service itself.
    config = ServiceConfig(max_workers=MAX_WORKERS)
    with QKBflyService(session, service_config=config) as service:
        assert session.stage_cache is not None
        cold_results = [
            service.serve(QueryRequest(query=query)) for query in base
        ]
        overlap_results = [
            service.serve(QueryRequest(query=query)) for query in variants
        ]
        assert not any(
            r.cache_hit or r.store_hit
            for r in cold_results + overlap_results
        ), "stage-cache workload leaked into the result tiers"
        stage_stats = service.stats()["stage_cache"]

    matched = sum(
        1
        for query, result in zip(
            base + variants, cold_results + overlap_results
        )
        if result.kb.to_dict() == expected[query]
    )
    parity = matched / len(expected)
    cold_latencies = [r.seconds for r in cold_results]
    overlap_latencies = [r.seconds for r in overlap_results]
    control_p50_ms = _percentile(control_latencies, 0.50) * 1000
    overlap_p50_ms = _percentile(overlap_latencies, 0.50) * 1000
    return {
        "stage_queries": len(base),
        "stage_workload_size": len(expected),
        "stage_cold_p50_ms": round(
            _percentile(cold_latencies, 0.50) * 1000, 3
        ),
        "stage_overlap_p50_ms": round(overlap_p50_ms, 3),
        "stage_nocache_overlap_p50_ms": round(control_p50_ms, 3),
        # How much the overlap pass gains over the uncached control;
        # informational (graph/densify still run, and on a loaded host
        # the two timed passes see different noise).
        "stage_overlap_speedup": round(
            control_p50_ms / overlap_p50_ms if overlap_p50_ms else 1.0, 2
        ),
        "stage_cache_hits": stage_stats["hits"],
        "stage_cache_misses": stage_stats["misses"],
        # Deterministic lookup-count ratio over the whole workload.
        "gate_overlap_reuse": round(stage_stats["reuse_ratio"], 4),
        "gate_stage_cold_parity": round(parity, 4),
    }


def run_ingest_benchmark(session: SessionState) -> Dict[str, float]:
    """Live ingest: entity-granular invalidation across a warm tier.

    Warm INGEST_WARM_QUERIES query-cache entries, subscribe to the
    first INGEST_TARGET_QUERIES of them, then feed INGEST_DOCS
    breaking documents that mention only those targets. Each warm
    query is then re-served: entries touched by a bumped entity must
    be cold (rebuilt), every other entry must still be a cache hit.

    ``gate_ingest_selective_invalidation`` is the fraction of warm
    queries whose post-ingest state matches that prediction — a pure
    count over deterministic matching (the same `query_touches` rule
    every tier applies), so the gate is machine-independent. Ingest
    and re-query latencies are informational.
    """
    from repro.service.ingest import query_touches

    # A private session: ingest swaps the session's search engine
    # (copy-on-write), and later scenarios must see the shared
    # session's corpus untouched.
    session = SessionState(
        entity_repository=session.entity_repository,
        pattern_repository=session.pattern_repository,
        statistics=session.statistics,
        search_engine=session.search_engine,
    )
    config = ServiceConfig(max_workers=MAX_WORKERS, num_documents=1)
    with QKBflyService(session, service_config=config) as service:
        warm = _queries(session, INGEST_WARM_QUERIES)
        targets = warm[:INGEST_TARGET_QUERIES]
        for query in warm:
            service.serve(QueryRequest(query=query))

        subscription = service.watch(
            WatchRequest(entities=targets, client_id="bench-monitor")
        )
        bumped: set = set()
        ingest_latencies = []
        for index in range(INGEST_DOCS):
            target = targets[index % len(targets)]
            started = time.perf_counter()
            ack = service.ingest(
                IngestRequest(
                    doc_id=f"bench-live-{index}",
                    text=f"{target} announced a new venture.",
                    source="news",
                )
            )
            ingest_latencies.append(time.perf_counter() - started)
            bumped.update(ack.touched_entities)

        correct = 0
        survivors = 0
        expected_cold = 0
        requery_latencies = []
        for query in warm:
            result = service.serve(QueryRequest(query=query))
            requery_latencies.append(result.seconds)
            observed_warm = result.served_from == "cache"
            expected_warm = not any(
                query_touches(query, entity) for entity in bumped
            )
            expected_cold += not expected_warm
            survivors += observed_warm
            correct += observed_warm == expected_warm
        deltas = service.poll_deltas(
            subscription["subscription_id"], after=0, timeout=1.0
        )["deltas"]

    return {
        "ingest_docs": INGEST_DOCS,
        "ingest_warm_queries": len(warm),
        "ingest_touched_queries": expected_cold,
        "ingest_cache_survivors": survivors,
        "ingest_deltas_delivered": len(deltas),
        "ingest_p50_ms": round(
            _percentile(ingest_latencies, 0.50) * 1000, 3
        ),
        "ingest_requery_p50_ms": round(
            _percentile(requery_latencies, 0.50) * 1000, 3
        ),
        # Fraction of warm queries whose post-ingest cache state
        # matches the query_touches prediction (1.0 = exactly the
        # intersecting entries cooled, everything else survived).
        "gate_ingest_selective_invalidation": round(
            correct / len(warm), 4
        ),
    }


def run_full_benchmark(world: World) -> Dict[str, float]:
    """All scenarios over one shared session, merged into one dict."""
    session = SessionState.from_world(world)
    metrics = run_throughput_benchmark(world, session=session)
    metrics.update(run_sharded_store_benchmark(session))
    metrics.update(run_fabric_benchmark(session))
    metrics.update(run_process_executor_benchmark(session))
    metrics.update(run_async_front_end_benchmark(session))
    metrics.update(run_gateway_benchmark(session))
    metrics.update(run_cost_admission_benchmark(session))
    metrics.update(run_ingest_benchmark(session))
    # The search scenario must run before the stage-cache one: that
    # scenario removes the shared session's stage cache to measure
    # honestly, and this ordering keeps the session untouched here.
    metrics.update(run_search_benchmark(session))
    metrics.update(run_stage_cache_benchmark(session))
    return metrics


def test_service_throughput(world):
    """Pytest entry point: warm and batched must be >= 2x cold."""
    metrics = run_full_benchmark(world)
    print("\nServing-layer throughput:")
    for key, value in metrics.items():
        print(f"  {key:>24}: {value}")
    assert metrics["warm_speedup"] >= 2.0, (
        "warm-cache throughput must be at least 2x cold throughput"
    )
    assert metrics["batched_speedup"] >= 2.0, (
        "batched throughput must be at least 2x cold throughput"
    )
    # Only one pipeline run per distinct query in the batched regime.
    assert metrics["pipeline_runs_batched"] == metrics["num_unique_queries"]
    _assert_scaleout_metrics(metrics)


def _assert_scaleout_metrics(metrics: Dict[str, float]) -> None:
    """Floors for the sharded-store and process-executor scenarios."""
    assert metrics["sharded_store_hit_rate"] == 1.0, (
        "every cache-cleared query must be served from the shards"
    )
    assert metrics["sharded_store_speedup"] >= 2.0, (
        "store-hit serving must be at least 2x the pipeline path"
    )
    assert metrics["shards_occupied"] > 1, "workload landed on one shard"
    assert metrics["gate_fabric_store_parity"] == 1.0, (
        "every cache-cleared query must be served from the fabric, "
        "bit-identical to its pipeline run"
    )
    assert metrics["gate_fabric_replica_fanout"] == 1.0, (
        "with replication drained, every raw read must land on a "
        f"replica (hit {metrics['fabric_replica_hits']} of "
        f"{metrics['fabric_replica_reads']})"
    )
    assert metrics["gate_process_parity"] == 1.0, (
        "process-tier KBs must be byte-identical to sequential runs"
    )
    assert metrics["gate_gateway_success_rate"] == 1.0, (
        "every gateway request must be answered 200"
    )
    assert metrics["gate_gateway_cache_hit_rate"] == 1.0, (
        "every repeated gateway query must be served from the cache"
    )
    floor = 1.0 / (1.0 + ASYNC_ISOLATION_TOLERANCE)
    assert metrics["gate_async_isolation"] >= round(floor, 4), (
        f"async cache-hit p50 degraded beyond ±10% under concurrent "
        f"cold queries: alone={metrics['async_hit_p50_alone_ms']}ms, "
        f"during={metrics['async_hit_p50_during_cold_ms']}ms"
    )
    assert metrics["gate_cost_budget_enforced"] == 1.0, (
        "the cost budget must shed the adversary "
        f"({metrics['cost_adversary_rejected']} rejections over "
        f"{metrics['cost_adversary_requests']} requests) without ever "
        f"rejecting the reader "
        f"({metrics['cost_reader_rejections']} rejections)"
    )
    assert metrics["gate_cost_hit_isolation"] >= round(floor, 4), (
        f"cache-hit p50 degraded beyond ±10% under adversarially "
        f"expensive cold traffic despite cost shedding: "
        f"alone={metrics['cost_hit_p50_alone_ms']}ms, "
        f"during={metrics['cost_hit_p50_during_ms']}ms"
    )
    assert metrics["gate_ingest_selective_invalidation"] >= 0.8, (
        "an ingest cooled warm entries it does not touch (or left a "
        "touched entry warm): "
        f"{metrics['ingest_cache_survivors']} survivors of "
        f"{metrics['ingest_warm_queries']} warm queries with "
        f"{metrics['ingest_touched_queries']} touched"
    )
    assert metrics["ingest_deltas_delivered"] == metrics["ingest_docs"], (
        "every breaking document must deliver exactly one delta to "
        "the watching subscription"
    )
    assert metrics["gate_search_walk_complete"] == 1.0, (
        "the paginated search walk must return every pre-walk fact "
        "exactly once despite concurrent writes"
    )
    assert metrics["gate_stage_cold_parity"] == 1.0, (
        "stage-cached KBs must be byte-identical to uncached runs"
    )
    assert metrics["gate_overlap_reuse"] > 0.0, (
        "overlapping queries produced no stage-cache reuse at all"
    )
    # One timing ratio over a short workload: on few or shared cores the
    # process tier's IPC overhead outweighs the parallelism it buys
    # (0.54-0.62 measured on a 2-vCPU runner), so it gates nothing on
    # any host. gate_process_parity is the binding check.
    print(
        f"NOTE: process_speedup={metrics['process_speedup']} on "
        f"{metrics['cpu_count']} CPUs is informational, not asserted."
    )


def main() -> None:
    output = "BENCH_service.json"
    args = sys.argv[1:]
    if args and args[0] == "--output":
        output = args[1]
    world = World(WorldConfig(), seed=BENCH_SEED)
    metrics = run_full_benchmark(world)
    for key, value in metrics.items():
        print(f"{key:>28}: {value}")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {output}")
    if metrics["warm_speedup"] < 2.0 or metrics["batched_speedup"] < 2.0:
        print("FAIL: serving layer below the 2x throughput floor")
        raise SystemExit(1)
    try:
        _assert_scaleout_metrics(metrics)
    except AssertionError as error:
        print(f"FAIL: {error}")
        raise SystemExit(1) from error


if __name__ == "__main__":
    main()
