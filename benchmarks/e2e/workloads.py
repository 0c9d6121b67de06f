"""The four workloads: schedule generation and one measured deployment.

Every ``run`` builds a **fresh deployment** (world, session, service,
and for ``gateway_hot`` a child server process), books that to
``setup_s``, then executes a fixed, seed-generated operation list —
fixed op counts, not a wall-clock box, so both sides of a comparison
do identical work — once per repeat: one repeat in process (serving
changes what the service knows), several against one ``gateway_hot``
server (reads do not). The corpus (world seeds) is a constant:
``--seed`` draws the *traffic* — request order, popularity draws,
ingest targets and texts — so two seeds give statistically equal but
provably different request lists (``schedule_digest``). Deriving the
worlds from the seed too was measured first and moved
``latency_p50_ms`` by 10 % and ``latency_p95_ms`` by 18 % between seeds
on ``cold_distinct`` — wider than the regression bounds the numbers
are meant to carry.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import accumulate
from time import perf_counter, perf_counter_ns, process_time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import paths
import loadgen
from oracle import Oracle, canonical
from stats import percentile
from trace import Record, Recorder, read_jsonl

from repro.core.qkbfly import SessionState
from repro.corpus.world import World, WorldConfig
from repro.service.api import (
    FactSearchRequest,
    IngestRequest,
    QueryRequest,
    ServiceError,
    WatchRequest,
)
from repro.service.ingest.match import query_touches
from repro.service.service import QKBflyService, ServiceConfig
from repro.service.sharding import ShardedKbStore

CHANNELS = ("wikipedia", "news")
NUM_DOCUMENTS = 2
#: The benchmark corpus. The default world has 200 entities / 240
#: documents and its name pools do not scale, so ``cold_distinct``
#: gets its volume from three worlds, not from a bigger WorldConfig.
COLD_WORLD_SEEDS = (7, 8, 9)
WORLD_SEED = 7
VARIANT_SUFFIXES = ("spouse", "born", "award", "founded")
STORE_SHARDS = 4

# gateway_hot
GATEWAY_CACHE_SIZE = 128  # < the 400-key working set: store reads stay in the p95
OPEN_RATE = 400.0  # req/s; ~1/3 of closed-loop capacity, no growing backlog
OPEN_SECONDS = 8.0
CLOSED_REQUESTS = 4000
CLOSED_CONNECTIONS = 2
GATEWAY_WARMUP_REQUESTS = 300

# ingest_mixed
INGEST_CACHE_SIZE = 512
INGEST_CYCLES = 60
INGEST_TARGET_POOL = 100
WATCHED_ENTITIES = 20
SERVES_PER_CYCLE = 10
SEARCH_LIMIT = 20
INGEST_TEMPLATES = (
    "{a} met {b} at a conference.",
    "{a} praised {b} during a ceremony.",
    "{a} joined {b} for a public debate.",
    "{a} thanked {b} in a televised interview.",
)
#: The oracle replays the serves of every Nth ingest cycle.
ORACLE_CYCLE_STRIDE = 5
ORACLE_REQUEST_STRIDE = 10


# ---- shared pieces ---------------------------------------------------------

#: The CPUs this process may run on, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def pin_to_own_cpu() -> None:
    """Keep this process — the in-process service host, and the load
    generator of ``gateway_hot`` — on the last CPU it may use; the
    ``gateway_hot`` server child takes the first (``server.py --cpu``).

    With the scheduler free to place them, client and server of
    ``gateway_hot`` chase each other across both cores: over 8
    interleaved repeats the spread of a single repeat's p95 was 128 %
    unpinned and 8 % pinned (p50 15 % -> 9 %). In process the gain is
    smaller (p50 8 % -> 3 %) but never a loss.
    """
    os.sched_setaffinity(0, {CPUS[-1]})


def entity_names(world: World) -> List[str]:
    """Canonical names, most prominent first (the popularity order)."""
    entities = sorted(
        world.entity_repository.entities(),
        key=lambda entity: (-entity.prominence, entity.entity_id),
    )
    return [entity.canonical_name for entity in entities]


def scaled(count: float, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def zipf_draws(rng: random.Random, population: int, count: int) -> List[int]:
    """``count`` ranks from Zipf(1.0) over ``population`` ranks."""
    cumulative = list(accumulate(1.0 / rank for rank in range(1, population + 1)))
    return rng.choices(range(population), cum_weights=cumulative, k=count)


def gateway_service_config(store_dir: str) -> ServiceConfig:
    """The ``gateway_hot`` deployment: admission on but non-binding
    (any 429/503 is a failure of the run, not of a client)."""
    return ServiceConfig(
        num_documents=NUM_DOCUMENTS,
        cache_size=GATEWAY_CACHE_SIZE,
        store_path=store_dir,
        store_shards=STORE_SHARDS,
        rate_limit_qps=1e6,
        rate_limit_burst=1e6,
        max_queue_depth=10_000,
    )


def gateway_keys(names: Sequence[str]) -> List[Tuple[str, str]]:
    """The 400-key working set in popularity-rank order."""
    return [(name, channel) for name in names for channel in CHANNELS]


@dataclass
class Schedule:
    """The generated request list of one workload (JSON-safe)."""

    workload: str
    ops: Dict[str, Any]

    @property
    def digest(self) -> str:
        text = json.dumps([self.workload, self.ops], sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Repeat:
    """Everything one repeat measured."""

    #: Of the deployment; 0.0 on a repeat that reuses one.
    setup_s: float = 0.0
    ok: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: Timed wall of the ops that count toward ``throughput_ops_s``
    #: (every op in process; phase B in gateway_hot) and how many of
    #: them succeeded.
    wall_s: float = 0.0
    throughput_ops: int = 0
    #: CPU ms of the hosting process, in schedule order: per op in
    #: process, per phase for the gateway_hot child.
    cpu_ms: List[float] = field(default_factory=list)
    #: Client-observed latency of the workload's query op.
    latencies_ms: List[float] = field(default_factory=list)
    #: Other op kinds (``ingest``, ``requery``, ``search``), in ms.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Canonical KB of every serve, in request order.
    served: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly across repeats and runs.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Layer counts read from ``stats()`` deltas and the acks.
    counts: Dict[str, float] = field(default_factory=dict)
    #: sent / ok / failed per phase.
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    #: Broken workload invariants (e.g. a pipeline run in gateway_hot).
    violations: List[str] = field(default_factory=list)
    noisy: bool = False
    #: Traced repeats only: finished spans and the timed windows.
    records: List[Record] = field(default_factory=list)
    windows: List[Tuple[int, int]] = field(default_factory=list)


def flat_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """The counters the layer table needs, from one ``stats()`` dict
    (the sync service's, or the gateway's ``/v1/stats`` body)."""
    out = {
        "executor.pipeline_runs": stats["pipeline_runs"],
        "executor.queue_wait_p50_ms": float(stats["queue_wait"].get("p50_ms") or 0.0),
        "cache.evictions": stats["cache"]["evictions"],
        "cache.invalidations": stats["cache"]["invalidations"],
        "executor.deduplicated": stats["executor"]["deduplicated"]
        + stats.get("async", {}).get("deduplicated", 0),
        "versions.entities": stats["ingest"]["entity_versions"]["entities"],
        "subscriptions.delivered": stats["ingest"]["subscriptions"]
        .get("states", {})
        .get("delivery", 0),
        "store.entries": stats.get("store", {}).get("kb_entries", 0),
        "stage.evictions": 0,
    }
    admission = stats.get("admission", {})
    out["admission.rejected"] = sum(
        admission.get(key, 0)
        for key in ("rate_limited", "cost_limited", "overloaded", "deadline_rejected")
    )
    for stage in ("retrieval", "nlp", "extract"):
        block = stats.get("stage_cache", {}).get("stages", {}).get(stage, {})
        out[f"stage.{stage}.hits"] = block.get("hits", 0)
        out[f"stage.{stage}.misses"] = block.get("misses", 0)
        out["stage.evictions"] += block.get("evictions", 0)
    return out


#: Gauges (a level, not a running total): reported as read after the
#: timed phase instead of as a before/after difference.
_GAUGES = ("versions.entities", "store.entries", "executor.queue_wait_p50_ms")


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    return {
        key: after[key] if key in _GAUGES else after[key] - before[key]
        for key in after
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def tier_counts(tiers: Sequence[Optional[str]]) -> Dict[str, float]:
    """Hit ratios from what was actually served (``served_from``)."""
    cache = sum(tier == "cache" for tier in tiers)
    store = sum(tier == "store" for tier in tiers)
    executor = sum(tier == "executor" for tier in tiers)
    return {
        "cache.hit_ratio": cache / max(1, len(tiers)),
        "store.hit_ratio": _ratio(store, executor),
        "rebuild_share": executor / max(1, len(tiers)),
    }


#: Counts that are a pure function of the schedule for one sequential
#: caller, and so must repeat exactly across repeats and runs.
_EXACT = (
    "executor.pipeline_runs",
    "cache.hit_ratio",
    "store.hit_ratio",
    "rebuild_share",
    "stage_cache.hit_ratio.retrieval",
    "stage_cache.hit_ratio.nlp",
    "stage_cache.hit_ratio.extract",
)


def _settle_counts(
    repeat: Repeat, counts: Dict[str, float], tiers: Sequence[Optional[str]]
) -> None:
    """Close an in-process repeat's books: add the ratios derived from
    what was served and from the stage counters, and pick the exact ones."""
    counts.update(tier_counts(tiers))
    for stage in ("retrieval", "nlp", "extract"):
        counts[f"stage_cache.hit_ratio.{stage}"] = _ratio(
            counts[f"stage.{stage}.hits"], counts[f"stage.{stage}.misses"]
        )
    repeat.counts.update(counts)
    repeat.exact = {key: counts[key] for key in _EXACT}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_bytes_per_kb_byte(store: Any, directory: str) -> float:
    """Shard files on disk over the JSON bytes of the KBs they hold."""
    payload = 0
    for signature in store.signatures():
        kb = store.load(
            signature.query,
            corpus_version=signature.corpus_version,
            mode=signature.mode,
            algorithm=signature.algorithm,
            source=signature.source,
            num_documents=signature.num_documents,
            config_digest=signature.config_digest,
        )
        if kb is not None:
            payload += len(canonical(kb.to_dict()))
    on_disk = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(directory)
        for name in files
    )
    return on_disk / payload if payload else 0.0


class _Timed:
    """The timed section of an in-process repeat: per-op wall and CPU,
    the span window, and the ordinal each op hands the recorder."""

    def __init__(self, repeat: Repeat, recorder: Optional[Recorder]) -> None:
        self._repeat = repeat
        self._recorder = recorder
        self.ordinal = 0

    def __enter__(self) -> "_Timed":
        if self._recorder is not None:
            self._recorder.enabled = True
        self._window_start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._repeat.windows.append((self._window_start, perf_counter_ns()))
        if self._recorder is not None:
            self._recorder.enabled = False

    def call(self, fn, request, sink: List[float]):
        """Time one op; a typed service error is a failed op."""
        if self._recorder is not None:
            self._recorder.request_id = self.ordinal
        self.ordinal += 1
        cpu = process_time()
        started = perf_counter()
        try:
            result = fn(request)
        except ServiceError:
            result = None
        wall_ms = (perf_counter() - started) * 1e3
        self._repeat.cpu_ms.append((process_time() - cpu) * 1e3)
        self._repeat.wall_s += wall_ms / 1e3
        sink.append(wall_ms)
        if result is None:
            self._repeat.failed += 1
        else:
            self._repeat.ok += 1
            self._repeat.throughput_ops += 1
        return result


def _absorb_serves(repeat: Repeat, results: Sequence[Any]) -> List[Optional[str]]:
    """After timing: canonicalize what was served; returns the tiers."""
    tiers = []
    for result in results:
        ok = result is not None and result.kb is not None
        repeat.served.append(canonical(result.kb.to_dict()) if ok else "")
        tiers.append(result.served_from if ok else None)
    return tiers


def _check(repeat: Repeat, served: str, reference: str) -> None:
    repeat.oracle_checked += 1
    if served != reference:
        repeat.oracle_mismatches += 1


def _work_dir(prefix: str) -> str:
    paths.WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=paths.WORK)


# ---- cold_distinct ---------------------------------------------------------


class ColdDistinct:
    """In-process ``serve``, one closed-loop caller, no store: every
    name of three worlds once on ``wikipedia`` then once on ``news``,
    each a first-touch build through the whole pipeline."""

    name = "cold_distinct"
    #: Timed seconds of one full-scale repeat on the reference box.
    nominal_seconds = 4.4
    hosted_in_child = False
    contract_repeats = 5
    contract_seconds_factor = 1.0

    def schedule(self, seed: int, scale: float) -> Schedule:
        rng = random.Random(seed)
        worlds = []
        for world_seed in COLD_WORLD_SEEDS:
            names = entity_names(World(WorldConfig(), seed=world_seed))
            names = names[: scaled(len(names), scale)]
            rng.shuffle(names)
            worlds.append(
                [[name, channel] for channel in CHANNELS for name in names]
            )
        return Schedule(self.name, {"worlds": worlds})

    def run(
        self, schedule: Schedule, recorder: Optional[Recorder], verify: bool
    ) -> List[Repeat]:
        repeat = Repeat()
        per_world: List[Dict[str, float]] = []
        tiers: List[Optional[str]] = []
        checks = []
        timed = _Timed(repeat, recorder)
        for world_seed, ops in zip(COLD_WORLD_SEEDS, schedule.ops["worlds"]):
            started = perf_counter()
            world = World(WorldConfig(), seed=world_seed)
            service = QKBflyService(
                SessionState.from_world(world),
                service_config=ServiceConfig(num_documents=NUM_DOCUMENTS),
            )
            repeat.setup_s += perf_counter() - started
            requests = [
                QueryRequest(query=name, source=channel) for name, channel in ops
            ]
            with service:
                with timed:
                    results = [
                        timed.call(service.serve, request, repeat.latencies_ms)
                        for request in requests
                    ]
                # A fresh service per world: its counters are the delta.
                per_world.append(flat_counters(service.stats()))
            checks.append((world, ops, len(repeat.served)))
            tiers += _absorb_serves(repeat, results)
        repeat.peak_rss_mb = peak_rss_mb()
        totals = {
            key: per_world[-1][key]
            if key in _GAUGES
            else sum(counters[key] for counters in per_world)
            for key in per_world[-1]
        }
        _settle_counts(repeat, totals, tiers)
        if repeat.counts["executor.pipeline_runs"] != len(repeat.served):
            repeat.violations.append("a cold_distinct serve did not build")
        if verify:
            for world, ops, offset in checks:
                oracle = Oracle(world)
                for index in range(0, len(ops), ORACLE_REQUEST_STRIDE):
                    name, channel = ops[index]
                    _check(
                        repeat,
                        repeat.served[offset + index],
                        oracle.reference(name, channel, NUM_DOCUMENTS),
                    )
        return [repeat]


# ---- overlap_variants ------------------------------------------------------


class OverlapVariants:
    """Same deployment as ``cold_distinct``, but set-up has already
    served every base name, so the timed ``"<name> <suffix>"`` variants
    miss the query cache and the retrieval stage yet hit the NLP and
    extract stages: graph build, densify and canonicalize do the work."""

    name = "overlap_variants"
    nominal_seconds = 3.9
    hosted_in_child = False
    contract_repeats = 5
    contract_seconds_factor = 1.0

    def schedule(self, seed: int, scale: float) -> Schedule:
        rng = random.Random(seed)
        names = entity_names(World(WorldConfig(), seed=WORLD_SEED))
        variants = [
            [f"{name} {suffix}", channel]
            for name in names[: scaled(len(names), scale)]
            for suffix in VARIANT_SUFFIXES
            for channel in CHANNELS
        ]
        rng.shuffle(variants)
        # Set-up serves *every* base name whatever the scale: a suffix
        # token pulls in documents of other entities, and all 240 must
        # be annotated (240 < 512 stage entries) for the NLP stage to hit.
        return Schedule(self.name, {"base": names, "variants": variants})

    def run(
        self, schedule: Schedule, recorder: Optional[Recorder], verify: bool
    ) -> List[Repeat]:
        repeat = Repeat()
        started = perf_counter()
        world = World(WorldConfig(), seed=WORLD_SEED)
        service = QKBflyService(
            SessionState.from_world(world),
            service_config=ServiceConfig(num_documents=NUM_DOCUMENTS),
        )
        with service:
            for name in schedule.ops["base"]:
                for channel in CHANNELS:
                    service.serve(QueryRequest(query=name, source=channel))
            repeat.setup_s = perf_counter() - started
            variants = schedule.ops["variants"]
            requests = [
                QueryRequest(query=query, source=channel)
                for query, channel in variants
            ]
            before = flat_counters(service.stats())
            timed = _Timed(repeat, recorder)
            with timed:
                results = [
                    timed.call(service.serve, request, repeat.latencies_ms)
                    for request in requests
                ]
            repeat.peak_rss_mb = peak_rss_mb()
            stats = service.stats()
        tiers = _absorb_serves(repeat, results)
        _settle_counts(repeat, counter_delta(before, flat_counters(stats)), tiers)
        if repeat.exact["stage_cache.hit_ratio.nlp"] < 0.95:
            repeat.violations.append(
                "overlap_variants is mis-built: NLP stage hit ratio "
                f"{repeat.exact['stage_cache.hit_ratio.nlp']:.3f} < 0.95"
            )
        if verify:
            oracle = Oracle(world)
            for index in range(0, len(variants), ORACLE_REQUEST_STRIDE):
                query, channel = variants[index]
                _check(
                    repeat,
                    repeat.served[index],
                    oracle.reference(query, channel, NUM_DOCUMENTS),
                )
        return [repeat]


# ---- ingest_mixed ----------------------------------------------------------


class IngestMixed:
    """Writes beside reads: each cycle ingests one news document naming
    two popular entities, polls the subscription, force-re-queries the
    first target, serves ten Zipf-drawn names and runs one FTS page —
    all over the same cache, sharded store, stage cache and search
    index. State is non-stationary by design, hence a fresh deployment
    per repeat."""

    name = "ingest_mixed"
    nominal_seconds = 3.6
    hosted_in_child = False
    contract_repeats = 5
    contract_seconds_factor = 1.0

    def schedule(self, seed: int, scale: float) -> Schedule:
        rng = random.Random(seed)
        names = entity_names(World(WorldConfig(), seed=WORLD_SEED))
        pool = names[:INGEST_TARGET_POOL]
        cycles = []
        for cycle in range(scaled(INGEST_CYCLES, scale)):
            first, second = rng.sample(pool, 2)
            cycles.append(
                {
                    "doc_id": f"live-{cycle}",
                    "text": rng.choice(INGEST_TEMPLATES).format(a=first, b=second),
                    "target": first,
                    "serves": [
                        names[rank]
                        for rank in zipf_draws(rng, len(names), SERVES_PER_CYCLE)
                    ],
                    "search": rng.choice(first.lower().split()),
                }
            )
        return Schedule(self.name, {"names": names, "cycles": cycles})

    def run(
        self, schedule: Schedule, recorder: Optional[Recorder], verify: bool
    ) -> List[Repeat]:
        repeat = Repeat()
        directory = _work_dir("ingest-")
        try:
            self._run(schedule, recorder, verify, repeat, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return [repeat]

    def _run(
        self,
        schedule: Schedule,
        recorder: Optional[Recorder],
        verify: bool,
        repeat: Repeat,
        directory: str,
    ) -> None:
        names = schedule.ops["names"]
        cycles = schedule.ops["cycles"]
        started = perf_counter()
        world = World(WorldConfig(), seed=WORLD_SEED)
        service = QKBflyService(
            SessionState.from_world(world),
            service_config=ServiceConfig(
                num_documents=NUM_DOCUMENTS,
                cache_size=INGEST_CACHE_SIZE,
                store_path=directory,
                store_shards=STORE_SHARDS,
            ),
        )
        with service:
            prefilled = [
                service.serve(QueryRequest(query=name, source="news"))
                for name in names
            ]
            subscription = service.watch(
                WatchRequest(entities=names[:WATCHED_ENTITIES], client_id="bench-watch")
            )["subscription_id"]
            repeat.setup_s = perf_counter() - started

            ingests = [
                IngestRequest(doc_id=c["doc_id"], text=c["text"], source="news")
                for c in cycles
            ]
            requeries = [QueryRequest(query=c["target"], source="news") for c in cycles]
            serves = [
                [QueryRequest(query=name, source="news") for name in c["serves"]]
                for c in cycles
            ]
            searches = [
                FactSearchRequest(q=c["search"], sort="rank", limit=SEARCH_LIMIT)
                for c in cycles
            ]
            samples = repeat.samples
            ingest_ms = samples.setdefault("ingest", [])
            requery_ms = samples.setdefault("requery", [])
            search_ms = samples.setdefault("search", [])
            poll_ms: List[float] = []
            acks, results, deltas = [], [], 0
            cursor = 0

            def poll(_request):
                return service.poll_deltas(subscription, after=cursor, timeout=0.0)

            before = flat_counters(service.stats())
            timed = _Timed(repeat, recorder)
            with timed:
                for index in range(len(cycles)):
                    acks.append(timed.call(service.ingest, ingests[index], ingest_ms))
                    page = timed.call(poll, None, poll_ms)
                    if page is not None and page["deltas"]:
                        cursor = page["deltas"][-1]["delta_id"]
                        deltas += len(page["deltas"])
                    requeried = timed.call(service.serve, requeries[index], requery_ms)
                    results.append(requeried)
                    for request in serves[index]:
                        results.append(
                            timed.call(service.serve, request, repeat.latencies_ms)
                        )
                    timed.call(service.search_facts, searches[index], search_ms)
            repeat.peak_rss_mb = peak_rss_mb()
            # The query op of this workload is every serve of the cycle,
            # the forced re-query included.
            repeat.latencies_ms.extend(requery_ms)
            stats = service.stats()
            tiers = _absorb_serves(repeat, results)
            counts = counter_delta(before, flat_counters(stats))
            acked = [ack for ack in acks if ack is not None]
            counts["subscriptions.deltas_delivered"] = deltas
            counts["ingest.touched_entities_mean"] = (
                sum(len(ack.touched_entities) for ack in acked) / max(1, len(acked))
            )
            for tier in ("cache", "store", "stage"):
                counts[f"ingest.invalidated.{tier}"] = sum(
                    ack.invalidated.get(tier, 0) for ack in acked
                )
            _settle_counts(repeat, counts, tiers)
            for tier in ("cache", "store", "stage"):
                repeat.exact[f"ingest.invalidated.{tier}"] = counts[
                    f"ingest.invalidated.{tier}"
                ]
            if recorder is not None:
                counts["store.bytes_per_kb_byte"] = store_bytes_per_kb_byte(
                    service.store, directory
                )
            if verify:
                self._verify(
                    repeat, world, service, schedule, prefilled, acks, tiers
                )

    @staticmethod
    def _verify(repeat, world, service, schedule, prefilled, acks, tiers) -> None:
        """Check every serve against the ingest contract (docs/INGEST.md).

        A rebuild must be bit-identical to a fresh build over the corpus
        as of that serve (sampled: every Nth cycle, reference builds are
        not free). A survivor — a cache or store hit — must be
        bit-identical to the last build of its query, and no ingest that
        *touches* the query (the program's own ``query_touches`` rule)
        may have committed since. Finally every name is re-served after
        the last ingest under the same two rules, so a stale survivor of
        any invalidation shows up.

        Separately counted, not failed: serves whose content differs
        from a fresh build over the *current* corpus although the
        contract holds. BM25 ranks by shared tokens (surnames, "F.C."),
        so an ingest can change a query's top-k without touching its
        entities; entity-granular invalidation lets that entry survive.
        """
        names, cycles = schedule.ops["names"], schedule.ops["cycles"]
        oracle = Oracle(world)
        live = service.session.search_engine.news_docs
        log = [live[cycle["doc_id"]] for cycle in cycles]
        built = {
            name: (canonical(result.kb.to_dict()), 0)
            for name, result in zip(names, prefilled)
        }
        for name in names[::ORACLE_REQUEST_STRIDE]:
            _check(repeat, built[name][0], oracle.reference(name, "news", NUM_DOCUMENTS))
        touched_at: Dict[str, int] = {}
        drifted = 0

        def observe(query: str, tier: Optional[str], served: str, state: int, sampled: bool) -> int:
            if tier == "executor":
                built[query] = (served, state)
                if not sampled:
                    return 0
                fresh = oracle.reference(query, "news", NUM_DOCUMENTS, log[:state])
                _check(repeat, served, fresh)
                return 0
            content, built_state = built[query]
            fresh_enough = touched_at.get(query, 0) <= built_state
            _check(repeat, served if fresh_enough else "", content)
            if not sampled:
                return 0
            fresh = oracle.reference(query, "news", NUM_DOCUMENTS, log[:state])
            return int(served != fresh)

        per_cycle = 1 + SERVES_PER_CYCLE
        for index, (cycle, ack) in enumerate(zip(cycles, acks)):
            state = index + 1
            for entity in ack.touched_entities if ack is not None else ():
                for name in names:
                    if query_touches(name, entity):
                        touched_at[name] = state
            queries = [cycle["target"]] + cycle["serves"]
            for slot, query in enumerate(queries):
                position = index * per_cycle + slot
                drifted += observe(
                    query,
                    tiers[position],
                    repeat.served[position],
                    state,
                    sampled=index % ORACLE_CYCLE_STRIDE == 0,
                )
        for name in names:
            result = service.serve(QueryRequest(query=name, source="news"))
            drifted += observe(
                name,
                result.served_from,
                canonical(result.kb.to_dict()),
                len(log),
                sampled=True,
            )
        repeat.counts["ingest.drifted_serves"] = drifted


# ---- gateway_hot -----------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class GatewayHot:
    """``HttpGateway`` over ``AsyncQKBflyService`` in a child process
    with an on-disk 4-shard store; Zipf(1.0) over a prefilled 400-key
    working set that exceeds the 128-entry cache, so traffic is cache
    hits and store hits and the pipeline never runs. Phase A: open
    loop at 400 req/s for latency; phase B: closed loop on two
    connections for saturation throughput."""

    name = "gateway_hot"
    nominal_seconds = 11.5
    #: The service lives in a child process, which warms itself over
    #: HTTP before the first phase A (an untimed warm-up deployment
    #: would warm nothing) and has its own peak RSS.
    hosted_in_child = True
    #: A deployment costs ~3.5 s of set-up, and reads do not change what
    #: the server knows, so one server takes several repeats. One
    #: repeat's p50 moves by 6 % and its phase-B rate by 12 % from one
    #: repeat to the next on an idle box, so the median needs many.
    repeats_per_deployment = 4
    contract_repeats = 12
    #: ... and the driver form times this workload for 3.5x its
    #: ``--seconds``: 12 repeats of a phase A long enough for a p95
    #: (800 requests, 2 s) do not fit in less.
    contract_seconds_factor = 3.5

    def schedule(self, seed: int, scale: float) -> Schedule:
        rng = random.Random(seed)
        names = entity_names(World(WorldConfig(), seed=WORLD_SEED))
        keys = gateway_keys(names)
        draw = lambda count: zipf_draws(rng, len(keys), count)  # noqa: E731
        return Schedule(
            self.name,
            {
                "keys": [list(key) for key in keys],
                "warmup": draw(GATEWAY_WARMUP_REQUESTS),
                "open": draw(scaled(OPEN_RATE * OPEN_SECONDS, scale)),
                "closed": draw(scaled(CLOSED_REQUESTS, scale)),
            },
        )

    def run(
        self, schedule: Schedule, recorder: Optional[Recorder], verify: bool
    ) -> List[Repeat]:
        directory = _work_dir("gateway-")
        try:
            return asyncio.run(
                self._run(schedule, recorder is not None, verify, directory)
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    async def _run(
        self, schedule: Schedule, traced: bool, verify: bool, directory: str
    ) -> List[Repeat]:
        keys = schedule.ops["keys"]
        payloads = [loadgen.query_payload(name, channel) for name, channel in keys]
        trace_path = os.path.join(directory, "spans.jsonl")
        store_dir = os.path.join(directory, "store")
        command = [
            sys.executable,
            str(paths.HERE / "server.py"),
            "--world-seed", str(WORLD_SEED),
            "--store-dir", store_dir,
            "--cpu", str(CPUS[0]),
        ]
        if traced:
            command += ["--trace-out", trace_path]
        started = perf_counter()
        child = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            # The child inherits this interpreter's pinned hash seed
            # (run.py), so both sides build bit-identical KBs.
            env={**os.environ, "PYTHONPATH": str(paths.SRC)},
        )
        try:
            port = _await_ready(child)
            warm = await loadgen.closed_loop(
                "127.0.0.1", port, [payloads[k] for k in schedule.ops["warmup"]], 1
            )
            setup_s = perf_counter() - started
            # The child's trace file covers its whole life, so a traced
            # deployment runs the one repeat the layer table is made of.
            repeats = [
                await self._repeat(child.pid, port, schedule, payloads)
                for _ in range(1 if traced else self.repeats_per_deployment)
            ]
        finally:
            _stop(child)
        repeats[0].setup_s = setup_s
        if warm.ok != warm.sent:
            repeats[0].violations.append("gateway warm-up saw a non-200")
        if traced:
            repeats[0].records = read_jsonl(trace_path)
            repeats[0].counts["store.bytes_per_kb_byte"] = _closed_store_ratio(store_dir)
        if verify:
            oracle = Oracle(World(WorldConfig(), seed=WORLD_SEED))
            ranks = schedule.ops["open"] + schedule.ops["closed"]
            for index in range(0, len(ranks), ORACLE_REQUEST_STRIDE):
                name, channel = keys[ranks[index]]
                _check(
                    repeats[0],
                    repeats[0].served[index],
                    oracle.reference(name, channel, NUM_DOCUMENTS),
                )
        return repeats

    @staticmethod
    async def _repeat(
        pid: int, port: int, schedule: Schedule, payloads: Sequence[bytes]
    ) -> Repeat:
        """Phase A then phase B against the running server."""
        host = "127.0.0.1"
        stats_0 = flat_counters(await loadgen.get_json(host, port, "/v1/stats"))
        cpu_0 = _proc_cpu_seconds(pid)
        opened = await loadgen.open_loop(
            host, port, [payloads[k] for k in schedule.ops["open"]], OPEN_RATE
        )
        cpu_1 = _proc_cpu_seconds(pid)
        closed = await loadgen.closed_loop(
            host, port, [payloads[k] for k in schedule.ops["closed"]], CLOSED_CONNECTIONS
        )
        cpu_2 = _proc_cpu_seconds(pid)
        repeat = Repeat()
        repeat.peak_rss_mb = _proc_peak_rss_mb(pid)
        raw_stats = await loadgen.get_json(host, port, "/v1/stats")

        repeat.windows = [opened.window_ns, closed.window_ns]
        repeat.latencies_ms = opened.latencies_ms
        repeat.wall_s = closed.wall_s
        repeat.throughput_ops = closed.ok
        repeat.cpu_ms = [(cpu_1 - cpu_0) * 1e3, (cpu_2 - cpu_1) * 1e3]
        repeat.ok = opened.ok + closed.ok
        repeat.failed = opened.sent - opened.ok + closed.sent - closed.ok
        for phase, result in (("open", opened), ("closed", closed)):
            repeat.phases[phase] = {
                "sent": result.sent,
                "ok": result.ok,
                "failed": result.sent - result.ok,
            }
        late_p99 = percentile(opened.late_ms, 0.99)
        repeat.noisy = late_p99 > 5.0

        envelopes = [_envelope(body) for body in opened.bodies + closed.bodies]
        tiers = [envelope.get("served_from") for envelope in envelopes]
        repeat.served = [
            canonical(envelope["kb"]) if envelope.get("kb") else ""
            for envelope in envelopes
        ]
        counts = counter_delta(stats_0, flat_counters(raw_stats))
        counts.update(tier_counts(tiers))
        counts["gateway.non_200"] = repeat.failed
        counts["gateway.response_bytes_p50"] = percentile(
            [len(body) for body in opened.bodies], 0.5
        )
        counts["loadgen.late_p99_ms"] = late_p99
        counts["loadgen.open_p99_ms"] = percentile(opened.latencies_ms, 0.99)
        counts["loadgen.achieved_rate"] = opened.sent / opened.wall_s
        repeat.counts.update(counts)
        # Phase B's two connections interleave freely and leave the
        # cache in an order no other repeat starts from, so which tier
        # answers does not repeat exactly; that none is the pipeline does.
        repeat.exact = {"executor.pipeline_runs": counts["executor.pipeline_runs"]}
        if counts["executor.pipeline_runs"] != 0:
            repeat.violations.append(
                f"gateway_hot ran the pipeline {counts['executor.pipeline_runs']} times"
            )
        return repeat


def _envelope(body: bytes) -> Dict[str, Any]:
    try:
        parsed = json.loads(body)
    except ValueError:
        return {}
    return parsed if isinstance(parsed, dict) else {}


def _await_ready(child: subprocess.Popen, timeout: float = 120.0) -> int:
    """Block until the child prints ``READY <port>``."""
    readable, _, _ = select.select([child.stdout], [], [], timeout)
    line = child.stdout.readline().decode("ascii", "replace") if readable else ""
    if not line.startswith("READY "):
        raise RuntimeError(f"gateway child did not come up (said {line!r})")
    return int(line.split()[1])


def _stop(child: subprocess.Popen) -> None:
    """SIGTERM (the child writes its trace and exits), then make sure."""
    if child.poll() is None:
        child.send_signal(signal.SIGTERM)
    try:
        child.wait(timeout=30)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    for pipe in (child.stdin, child.stdout):
        if pipe is not None:
            pipe.close()


def _closed_store_ratio(store_dir: str) -> float:
    with ShardedKbStore(store_dir, num_shards=STORE_SHARDS) as store:
        return store_bytes_per_kb_byte(store, store_dir)


WORKLOADS = {
    workload.name: workload
    for workload in (ColdDistinct(), OverlapVariants(), GatewayHot(), IngestMixed())
}
