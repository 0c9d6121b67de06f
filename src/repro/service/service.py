"""QKBflyService: the query-serving facade.

Wires the serving tiers together in front of the one-shot pipeline:

1. in-memory :class:`~repro.service.cache.QueryCache` (LRU + TTL),
2. persistent :class:`~repro.service.kb_store.KbStore` (SQLite/WAL),
3. :class:`~repro.service.executor.BatchExecutor` (thread pool with
   single-flight deduplication) over a shared
   :class:`~repro.core.qkbfly.SessionState`.

A query falls through cache -> store -> full pipeline; every tier it
misses is filled on the way back. All tiers key on the query signature
including the session's ``corpus_version``, so advancing the corpus
(:meth:`QKBflyService.refresh_corpus`) atomically invalidates both the
cache and the stale store rows. Below the result tiers, a
:class:`~repro.service.stage_cache.StageCache` (installed on the
shared session; ``ServiceConfig.stage_cache_enabled``) lets *distinct*
queries that overlap in their retrieved documents reuse the
retrieval/NLP/extraction products and each document's finished KB
fragment — see ``docs/PIPELINE.md``.

The pipeline runs inline on a fixed pool of ``ServiceConfig.max_workers``
request worker threads. The asyncio front end
(:class:`~repro.service.async_service.AsyncQKBflyService`) layers on
top of this facade and shares all of its tiers.

Since the v1 API (:mod:`repro.service.api`), the primary entry points
are the envelope methods :meth:`QKBflyService.serve` /
:meth:`QKBflyService.serve_batch`: one validated
:class:`~repro.service.api.QueryRequest` in, one
:class:`~repro.service.api.QueryResult` envelope out (status, serving
tier, timing breakdown, typed errors), with per-client admission
control (:mod:`repro.service.admission`) enforced on the way in. Both,
and the asyncio front end, drive one ladder — :meth:`QKBflyService.
_begin` decides which tier answers, the driver waits on a flight its
own way, :meth:`QKBflyService._finish` turns it into the envelope.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.qkbfly import QKBfly, QKBflyConfig, SessionState
from repro.corpus.retrieval import SearchEngine
from repro.corpus.world import World
from repro.faultinject.history import HistoryRecorder
from repro.faultinject.points import fault_point
from repro.kb.facts import KnowledgeBase
from repro.service.admission import AdmissionController, QueueWaitWindow
from repro.service.api import (
    DeadlineUnmet,
    FactSearchRequest,
    FactSearchResult,
    IngestRequest,
    IngestResult,
    Overloaded,
    PipelineFailure,
    QueryRequest,
    QueryResult,
    QueryStatus,
    SearchUnavailable,
    ServiceError,
    WatchRequest,
    classify_timeout,
    invalid_request,
    wrap_failure,
)
from repro.service.cache import CacheKey, QueryCache
from repro.service.executor import BatchExecutor
from repro.service.fabric.cluster import Fabric
from repro.service.ingest.pipeline import IngestPipeline
from repro.service.ingest.subscriptions import SubscriptionRegistry
from repro.service.ingest.versions import EntityVersionVector
from repro.service.kb_store import KbStore, load_signature
from repro.service.search.query import search_paginated, store_backends
from repro.service.sharding import ShardedKbStore
from repro.service.stage_cache import (
    STAGE_RETRIEVAL,
    StageCache,
    StagePolicy,
)


@dataclass
class ServiceConfig:
    """Knobs of the serving layer (the pipeline has its own config)."""

    source: str = "wikipedia"
    num_documents: int = 1
    cache_size: int = 256
    cache_ttl_seconds: Optional[float] = None
    max_workers: int = 4
    # None disables persistence; ":memory:" gives an ephemeral store.
    # With store_shards > 1 this is a *directory* of shard files.
    store_path: Optional[str] = None
    # 1 keeps the single-file KbStore; N > 1 partitions entries across
    # N SQLite files with per-shard locks (ShardedKbStore).
    store_shards: int = 1
    # Refill the in-memory cache from the store on service start (up to
    # warm_limit entries, newest first; capped by cache_size).
    warm_cache_on_start: bool = False
    warm_limit: Optional[int] = None
    # Store compaction policy for long-running deployments: entries
    # older than store_max_age_seconds, or beyond the newest
    # store_max_entries, are reclaimed by compact_store() — on start
    # when compact_store_on_start is set, and on every call thereafter.
    store_max_age_seconds: Optional[float] = None
    store_max_entries: Optional[int] = None
    compact_store_on_start: bool = False
    # Admission control (see repro.service.admission): sustained
    # per-client request rate and burst allowance (None disables rate
    # limiting), and the distinct-in-flight executor computations
    # beyond which new cold work is shed with Overloaded/503 (None
    # disables shedding). Enforced identically by the sync, asyncio,
    # and HTTP front ends. With either set, queue-wait-aware deadline
    # admission (docs/API.md) is on too: a request whose remaining
    # `timeout` cannot survive the measured p95 queue wait gets a fast
    # 504 at admission instead of a doomed enqueue; joiners and
    # store-servable keys are never rejected.
    rate_limit_qps: Optional[float] = None
    rate_limit_burst: Optional[float] = None
    max_queue_depth: Optional[int] = None
    # Stage-level pipeline caching (docs/PIPELINE.md): content-
    # addressed reuse of retrieval/NLP/extraction products across
    # overlapping queries. The cache is installed on the shared
    # SessionState, so every service, front end, and QKBfly over one
    # session shares it (a session that already carries one keeps it).
    stage_cache_enabled: bool = True
    # Per-stage entry ceiling, optional wall-clock TTL, and per-stage
    # byte budget (None disables the respective bound); see
    # StagePolicy and the tuning chapter in docs/OPERATIONS.md.
    stage_cache_entries: int = 512
    stage_cache_ttl_seconds: Optional[float] = None
    stage_cache_max_bytes: Optional[int] = 64 * 1024 * 1024
    # Optional per-stage policy overrides ({"nlp": StagePolicy(...)});
    # stages not named fall back to the three knobs above.
    stage_cache_policies: Optional[Dict[str, StagePolicy]] = None
    # KB-store backend (docs/FABRIC.md). "local" opens the store
    # in-process (KbStore, or ShardedKbStore when store_shards > 1);
    # "fabric" puts every shard behind a socket shard server with
    # replication_factor-way replica groups (primary writes, replica
    # reads) and online rebalance. With fabric_addresses unset the
    # service launches in-process servers over store_path; set it to
    # one address group per shard (primary first) to connect to
    # servers launched by scripts/run_fabric.py instead.
    store_backend: str = "local"
    replication_factor: int = 1
    fabric_addresses: Optional[List[List[str]]] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject invalid combinations loudly, at construction.

        Every rule here used to fail deep inside the first query (or
        silently misconfigure a tier); validating the moment the config
        exists points the traceback at the actual mistake. The service
        calls this again at its own construction, so a config mutated
        after being built (this is a plain mutable dataclass) cannot
        smuggle an invalid combination past the dataclass hook.
        """
        if self.store_shards < 1:
            raise ValueError(
                f"store_shards must be >= 1, got {self.store_shards}"
            )
        if self.store_backend not in ("local", "fabric"):
            raise ValueError(
                f"unknown store_backend: {self.store_backend!r} "
                "(choose 'local' or 'fabric')"
            )
        if self.replication_factor < 1:
            raise ValueError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )
        if self.store_backend == "fabric" and self.store_path is None:
            raise ValueError(
                "store_backend='fabric' needs store_path: the fabric "
                "serves shard files under that directory"
            )
        if self.store_backend == "local":
            if self.replication_factor != 1:
                raise ValueError(
                    "replication_factor > 1 needs store_backend='fabric' "
                    "(a local store has nothing to replicate to)"
                )
            if self.fabric_addresses is not None:
                raise ValueError(
                    "fabric_addresses is set but store_backend is 'local'"
                )
        if self.fabric_addresses is not None:
            if len(self.fabric_addresses) != self.store_shards:
                raise ValueError(
                    f"fabric_addresses names {len(self.fabric_addresses)} "
                    f"shard groups but store_shards is {self.store_shards}"
                )
            for group in self.fabric_addresses:
                if len(group) != self.replication_factor:
                    raise ValueError(
                        "every fabric address group must list "
                        f"replication_factor={self.replication_factor} "
                        f"members (primary first), got {group!r}"
                    )
        if self.warm_limit is not None and self.store_path is None:
            raise ValueError(
                "warm_limit is set but store_path is not: there is no "
                "store to warm the cache from"
            )
        if self.warm_limit is not None and self.warm_limit < 0:
            raise ValueError(f"warm_limit must be >= 0, got {self.warm_limit}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be > 0, got {self.cache_size}")
        if self.max_workers <= 0:
            raise ValueError(f"max_workers must be > 0, got {self.max_workers}")
        if self.num_documents < 1:
            raise ValueError(
                f"num_documents must be >= 1, got {self.num_documents}"
            )
        if (
            self.cache_ttl_seconds is not None
            and self.cache_ttl_seconds <= 0
        ):
            raise ValueError("cache_ttl_seconds must be positive when set")
        if self.stage_cache_enabled:
            # One authoritative rule set for the stage-cache bounds:
            # StagePolicy validates its own combination (the service
            # builds the real StageCache from these same fields).
            StagePolicy(
                max_entries=self.stage_cache_entries,
                ttl_seconds=self.stage_cache_ttl_seconds,
                max_bytes=self.stage_cache_max_bytes,
            )
            if self.stage_cache_policies:
                for stage, override in self.stage_cache_policies.items():
                    if not isinstance(override, StagePolicy):
                        raise ValueError(
                            "stage_cache_policies values must be "
                            f"StagePolicy, got {override!r} for {stage!r}"
                        )
        if (
            self.rate_limit_qps is not None
            or self.rate_limit_burst is not None
            or self.max_queue_depth is not None
        ):
            # One authoritative rule set for the admission parameters:
            # the controller validates its own combination (the service
            # builds the real one from these same fields).
            AdmissionController(
                rate_limit_qps=self.rate_limit_qps,
                rate_limit_burst=self.rate_limit_burst,
                max_queue_depth=self.max_queue_depth,
            )


class QKBflyService:
    """Serving layer over a shared QKBfly session.

    Exposes the same ``build_kb`` / ``entity_repository`` /
    ``search_engine`` surface as :class:`~repro.core.qkbfly.QKBfly`, so
    existing consumers (e.g. :class:`repro.qa.answering.QaSystem`) can
    point at a service instance and transparently gain caching.
    """

    def __init__(
        self,
        session: SessionState,
        config: Optional[QKBflyConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        cache: Optional[QueryCache] = None,
        store: Optional[KbStore] = None,
    ) -> None:
        self.session = session
        self.service_config = service_config or ServiceConfig()
        # Re-validate before any pool/store is allocated (a bad config
        # must never leak worker threads or SQLite handles): the
        # dataclass validated itself at construction, but it is
        # mutable and may have been edited since.
        self.service_config.validate()
        self.qkbfly = QKBfly.from_session(session, config=config)
        # Per-entity version vector (docs/INGEST.md): installed on the
        # session so the retrieval stage folds the relevant version
        # slice into its signatures. A session that already carries one
        # keeps it — two services over one session must share the
        # vector, like they share the stage cache below.
        if getattr(session, "entity_versions", None) is None:
            session.entity_versions = EntityVersionVector()
        self.entity_versions: EntityVersionVector = session.entity_versions
        # Stage-level pipeline cache (docs/PIPELINE.md): installed on
        # the *session*, so every QKBfly bound to it — including the
        # rebind in refresh_corpus — shares one policy. A session that
        # already carries a cache keeps it (the operator installed it
        # deliberately, possibly shared across services).
        if (
            self.service_config.stage_cache_enabled
            and session.stage_cache is None
        ):
            session.stage_cache = StageCache(
                policy=StagePolicy(
                    max_entries=self.service_config.stage_cache_entries,
                    ttl_seconds=self.service_config.stage_cache_ttl_seconds,
                    max_bytes=self.service_config.stage_cache_max_bytes,
                ),
                overrides=self.service_config.stage_cache_policies,
            )
        self.cache = cache or QueryCache(
            max_size=self.service_config.cache_size,
            ttl_seconds=self.service_config.cache_ttl_seconds,
        )
        self.fabric: Optional[Fabric] = None
        if store is None and self.service_config.store_path is not None:
            if self.service_config.store_backend == "fabric":
                if self.service_config.fabric_addresses is not None:
                    self.fabric = Fabric.connect(
                        self.service_config.store_path,
                        self.service_config.fabric_addresses,
                    )
                else:
                    self.fabric = Fabric.launch_local(
                        self.service_config.store_path,
                        num_shards=self.service_config.store_shards,
                        replication_factor=(
                            self.service_config.replication_factor
                        ),
                    )
                store = self.fabric.store
            elif self.service_config.store_shards > 1:
                store = ShardedKbStore(
                    self.service_config.store_path,
                    num_shards=self.service_config.store_shards,
                )
            else:
                store = KbStore(self.service_config.store_path)
        self.store = store
        if self.store is not None:
            stored_version = self.store.corpus_version
            if stored_version != session.corpus_version:
                # A reopened store from an older corpus: its rows can
                # never match the new version's keys, so reclaim them.
                if stored_version:
                    self.store.delete_stale(session.corpus_version)
                self.store.set_corpus_version(session.corpus_version)
        self.queue_wait = QueueWaitWindow()
        self._executor = BatchExecutor(
            self._serve,
            max_workers=self.service_config.max_workers,
            queue_wait_hook=self.queue_wait.record,
        )
        if (
            self.service_config.rate_limit_qps is not None
            or self.service_config.max_queue_depth is not None
        ):
            self.admission: Optional[AdmissionController] = (
                AdmissionController(
                    rate_limit_qps=self.service_config.rate_limit_qps,
                    rate_limit_burst=self.service_config.rate_limit_burst,
                    max_queue_depth=self.service_config.max_queue_depth,
                    queue_wait=self.queue_wait,
                )
            )
        else:
            self.admission = None
        self._counter_lock = threading.Lock()
        # Optional history recorder (fault-injection harness): when
        # attached, every OK envelope leaving a front end and every
        # corpus refresh is logged for offline freshness checking.
        self.history: Optional[HistoryRecorder] = None
        # Live-corpus ingest (docs/INGEST.md): the ingest transaction
        # and the watch(entity) subscription registry.
        self.subscriptions = SubscriptionRegistry()
        self.ingest_pipeline = IngestPipeline(self)
        self._config_digest = self.qkbfly.config_digest
        self.pipeline_runs = 0
        if self.service_config.compact_store_on_start:
            self.compact_store()
        if self.service_config.warm_cache_on_start:
            self.warm_cache(self.service_config.warm_limit)

    @classmethod
    def from_world(
        cls,
        world: World,
        config: Optional[QKBflyConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        with_search: bool = True,
    ) -> "QKBflyService":
        """Build session state for a world and serve it."""
        parser = (config or QKBflyConfig()).parser
        session = SessionState.from_world(
            world, parser=parser, with_search=with_search
        )
        return cls(session, config=config, service_config=service_config)

    # ---- QKBfly-compatible surface ----------------------------------------

    @property
    def config(self) -> QKBflyConfig:
        """The pipeline configuration served by this instance."""
        return self.qkbfly.config

    @property
    def entity_repository(self):
        """Shared entity repository (QKBfly-compatible attribute)."""
        return self.session.entity_repository

    @property
    def pattern_repository(self):
        """Shared pattern repository (QKBfly-compatible attribute)."""
        return self.session.pattern_repository

    @property
    def statistics(self):
        """Shared background statistics (QKBfly-compatible attribute)."""
        return self.session.statistics

    @property
    def search_engine(self) -> Optional[SearchEngine]:
        """Shared search engine (QKBfly-compatible attribute)."""
        return self.session.search_engine

    @property
    def corpus_version(self) -> str:
        """The corpus snapshot currently served."""
        return self.session.corpus_version

    def build_kb(
        self,
        query: str,
        source: Optional[str] = None,
        num_documents: Optional[int] = None,
    ) -> KnowledgeBase:
        """Drop-in replacement for :meth:`QKBfly.build_kb`, but cached.

        Part of the QKBfly-compatible surface (not deprecated): omitted
        arguments fall back to :class:`ServiceConfig`, and pipeline
        exceptions propagate raw, exactly like :class:`QKBfly` itself.
        Admission control, when configured, still applies.
        """
        request = QueryRequest(
            query=query, source=source, num_documents=num_documents
        )
        try:
            return self.serve(request).kb
        except PipelineFailure as failure:
            if failure.__cause__ is not None:
                raise failure.__cause__
            raise

    # ---- serving (v1 envelope) ---------------------------------------------

    def attach_history(self, recorder: HistoryRecorder) -> HistoryRecorder:
        """Attach a :class:`~repro.faultinject.history.HistoryRecorder`.

        All front ends sharing this service (sync, batch; the asyncio
        tier attaches to its own reference of the same recorder) start
        logging serve/refresh events for offline consistency checking.
        Returns the recorder for chaining. Detach with
        ``service.history = None``.
        """
        self.history = recorder
        # The subscription registry records delta deliveries into the
        # same history, so the checker can track per-subscriber
        # entity-version watermarks alongside the query serves.
        self.subscriptions.history = recorder
        return recorder

    def serve(self, request: QueryRequest) -> QueryResult:
        """Serve one v1 envelope: admission -> cache -> store -> pipeline.

        The primary sync entry point. Cache hits are answered on the
        calling thread; misses go through the executor, so a burst of
        concurrent identical requests collapses onto a single pipeline
        run (single-flight), shared with :meth:`serve_batch` and the
        asyncio front end.

        Raises the typed taxonomy of :mod:`repro.service.api`:
        :class:`~repro.service.api.RateLimited` when the client is over
        its token-bucket budget, :class:`~repro.service.api.Overloaded`
        when new cold work would exceed ``max_queue_depth``,
        :class:`~repro.service.api.DeadlineUnmet` when the request's
        remaining ``timeout`` cannot survive the measured p95 queue
        wait (a fast 504 at admission),
        :class:`~repro.service.api.PipelineFailure` (original exception
        chained as ``__cause__``) when the pipeline raises, and a
        ``timeout``-coded :class:`~repro.service.api.ServiceError` when
        ``request.timeout`` expires first (the in-flight computation
        keeps running and will still fill the cache).
        """
        started = time.perf_counter()
        key = self._admit(request)
        result = self._finish(
            request, key, started, self._begin(request, key, started)
        )
        if self.history is not None:
            self.history.record_serve(result, front_end="sync")
        return result

    def serve_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Serve many envelopes concurrently; one envelope per slot.

        Results come back in input order; duplicated requests are
        computed once — also across a *different* concurrent batch that
        joined the same in-flight computation — and every slot gets its
        own envelope around the one shared, immutable KB.

        Unlike :meth:`serve`, nothing raises: admission rejections,
        timeouts, and pipeline failures each become an *error envelope
        in their own slot* (``status`` set, ``kb=None``), so one
        over-budget client or one poisoned query cannot void the rest
        of the batch. Every slot's deadline counts from batch entry.
        """
        started = time.perf_counter()
        slots = []
        for request in requests:
            key = None  # stays None for pre-admission failures
            try:
                key = self._admit(request)
                outcome = self._begin(request, key, started)
            except ServiceError as error:
                outcome = self._failure(request, error, key, started)
            except Exception as error:
                # A raw infrastructure failure must poison only its
                # own slot, never the batch — the documented contract.
                outcome = self._failure(
                    request,
                    wrap_failure(request, error, "serving"),
                    key,
                    started,
                )
            slots.append((request, key, outcome))
        results: List[QueryResult] = []
        for request, key, outcome in slots:
            try:
                result = self._finish(request, key, started, outcome)
            except ServiceError as error:
                result = self._failure(request, error, key, started)
            if self.history is not None and result.status is QueryStatus.OK:
                self.history.record_serve(result, front_end="sync_batch")
            results.append(result)
        return results

    # ---- the serve ladder: begin -> (driver's wait) -> finish --------------

    def _admit(self, request: QueryRequest) -> CacheKey:
        """Validate and admit ``request`` (its client's rate bucket),
        then derive its key."""
        self._validate_request(request)
        if self.admission is not None:
            self.admission.admit(request.client_id)
        return self._key(request.query, request.source, request.num_documents)

    def _begin(
        self,
        request: QueryRequest,
        key: CacheKey,
        started: float,
        loop_probe: Optional[
            Callable[[QueryRequest, CacheKey, float], Optional[QueryResult]]
        ] = None,
    ) -> Union[QueryResult, Future]:
        """Decide which tier answers an admitted request — the one
        ladder every front end drives.

        Returns a finished envelope (cache hit, or a store hit found
        by a probe) or the executor flight the request started or
        joined; the driver waits on a flight its own way and hands it
        to :meth:`_finish`. ``loop_probe`` is an event-loop front
        end's non-blocking store lookup: such a caller reads the store
        *before* the gates (a blocking caller leaves that read to the
        worker) and may never block, so the probe also replaces the
        blocking rescue read below.

        When the queue is saturated (or the request's deadline cannot
        survive the measured queue wait), the store gets one last word
        before the request is shed: a store-servable key costs a
        single read, not a pipeline run, so it is answered directly —
        hits are never shed, on any front end (best-effort through a
        loop probe: a writer holding the shard lock at both probes
        loses the rescue). Only a genuine cold miss raises
        :class:`Overloaded` (queue depth) or :class:`DeadlineUnmet`
        (queue wait vs. remaining timeout).
        """
        try:
            cached = self.cache.get(key)
            if cached is not None:
                return self.hit_result(request, key, cached, started)
            if loop_probe is not None:
                stored = loop_probe(request, key, started)
                if stored is not None:
                    return stored
            try:
                self._check_capacity(key)
                self._check_deadline(request, key, started)
            except (Overloaded, DeadlineUnmet) as rejection:
                stored = (loop_probe or self._load_from_store)(
                    request, key, started
                )
                if stored is not None:
                    return stored
                if isinstance(rejection, DeadlineUnmet):
                    self.admission.count_deadline_rejected()
                else:
                    self.admission.count_overloaded()
                raise
        except ServiceError:
            raise
        except Exception as error:
            # The contract is the typed taxonomy, fast paths included:
            # a raw store failure in the overload rescue (or a cache
            # error) must not escape untyped.
            raise wrap_failure(request, error, "serving") from error
        if loop_probe is not None:
            fault_point("async_service.dispatch")
        # The miss was counted by the lookup above, so the worker's
        # cache double-check (_serve) does not count it again.
        return self._executor.submit(key, (request, key))

    def _finish(
        self,
        request: QueryRequest,
        key: CacheKey,
        started: float,
        outcome: Union[QueryResult, Future],
        on_loop: bool = False,
    ) -> QueryResult:
        """Turn what :meth:`_begin` returned into the caller's envelope.

        An already finished envelope passes through. A flight is read
        with what remains of the request's deadline — or, for an
        event-loop driver (``on_loop``) that has already awaited it,
        without blocking at all — and gets the caller's envelope; a
        flight still running means the deadline expired (the
        computation keeps going and will still fill the cache).
        """
        if isinstance(outcome, QueryResult):
            return outcome
        try:
            shared = outcome.result(
                timeout=0 if on_loop else self._remaining(request, started)
            )
        except FuturesTimeoutError as error:
            # On 3.11+ a TimeoutError raised *inside* the pipeline
            # arrives here too: only a flight that finished by raising
            # pins the error on the pipeline.
            raise classify_timeout(
                request,
                error,
                outcome.exception() if outcome.done() else None,
            )
        except ServiceError:
            raise
        except Exception as error:
            raise wrap_failure(request, error) from error
        return self._result_copy(shared, request, started)

    @staticmethod
    def _remaining(request: QueryRequest, started: float) -> Optional[float]:
        """What is left of ``request.timeout`` (None without one).

        Deadlines are absolute from ``started`` — request entry, or
        batch entry for a batch slot: time already spent in admission,
        the fast paths (e.g. a saturated store rescue waiting on the
        store lock), or a predecessor slot's wait consumes budget
        instead of silently extending it.
        """
        if request.timeout is None:
            return None
        return max(0.0, request.timeout - (time.perf_counter() - started))

    def hit_result(
        self,
        request: QueryRequest,
        key: CacheKey,
        kb: KnowledgeBase,
        started: float,
    ) -> QueryResult:
        """Per-consumer envelope for a cache hit, shared by both front
        ends (sync thread and event loop)."""
        return QueryResult(
            query=request.query,
            normalized_query=key.query,
            kb=kb,
            corpus_version=key.corpus_version,
            cache_hit=True,
            seconds=time.perf_counter() - started,
            client_id=request.client_id,
            request_key=key.signature(),
            entity_versions=self._versions_stamp(key.query),
        )

    def _versions_stamp(self, query: str) -> Optional[Dict[str, int]]:
        """The per-entity version slice to stamp on a result served
        for ``query`` right now — None (not ``{}``) when no ingested
        entity touches the query, so pre-ingest wire forms stay
        byte-identical."""
        return self.entity_versions.versions_for_query(query) or None

    @staticmethod
    def _result_copy(
        shared: QueryResult, request: QueryRequest, started: float
    ) -> QueryResult:
        """The caller's envelope around a possibly shared in-flight
        result: its own raw query string, identity and wall time — a
        shared result carries whichever caller happened to compute it.
        The KB itself is immutable and shared."""
        return replace(
            shared,
            query=request.query,
            client_id=request.client_id,
            seconds=time.perf_counter() - started,
        )

    def _failure(
        self,
        request: QueryRequest,
        error: ServiceError,
        key: Optional[CacheKey],
        started: float,
    ) -> QueryResult:
        """An error envelope for ``request``, stamped with this
        deployment's corpus version, the wall time elapsed since
        ``started``, and the request key (if one was derived before
        the failure)."""
        return QueryResult.failure(
            request,
            error,
            corpus_version=self.session.corpus_version,
            request_key=key.signature() if key is not None else "",
            seconds=time.perf_counter() - started,
        )

    def _validate_request(self, request: QueryRequest) -> None:
        """Reject variant pins this deployment cannot honor.

        A request naming a different mode/algorithm than the served
        pipeline config would be answered by the wrong system variant —
        an *invalid request* (HTTP 400), not a different answer.
        """
        config = self.qkbfly.config
        if request.mode is not None and request.mode != config.mode:
            raise invalid_request(
                f"this deployment serves mode={config.mode!r}, "
                f"not {request.mode!r}"
            )
        if (
            request.algorithm is not None
            and request.algorithm != config.algorithm
        ):
            raise invalid_request(
                f"this deployment serves algorithm={config.algorithm!r}, "
                f"not {request.algorithm!r}"
            )

    def _check_capacity(self, key: CacheKey) -> None:
        """Queue-depth load shedding for new cold work.

        Requests whose key is already in flight join that computation
        and add no load, so they are exempt — under saturation the
        service keeps absorbing repeats while shedding *new* work.
        Every front end's flights live in the one executor table, so
        its ``pending`` is the deployment's whole queue depth.
        """
        if self.admission is None:
            return
        self.admission.check_queue(
            self._executor.pending, joining=self._executor.has_flight(key)
        )

    def _check_deadline(
        self, request: QueryRequest, key: CacheKey, started: float
    ) -> None:
        """Queue-wait-aware deadline admission (fast 504).

        A request whose remaining ``timeout`` budget cannot survive the
        measured p95 queue wait is overwhelmingly likely to expire in
        the queue — admitting it burns a worker slot on an answer
        nobody will receive. Rejecting at admission returns the 504 in
        microseconds instead of after ``timeout`` seconds and keeps the
        doomed work out of the queue entirely. Joiners are exempt
        (they add no queue load and may be answered early by the
        shared flight); requests without a timeout never reject.
        """
        if self.admission is None:
            return
        self.admission.check_deadline(
            self._remaining(request, started),
            joining=self._executor.has_flight(key),
        )

    def _load_from_store(
        self, request: QueryRequest, key: CacheKey, started: float
    ) -> Optional[QueryResult]:
        """Blocking store-only lookup (the sync twin of the async
        front end's ``_try_store_on_loop``): on a hit, fills the cache
        and returns a per-consumer envelope; None on miss or no store.
        """
        if self.store is None:
            return None
        tier_started = time.perf_counter()
        versions = self.entity_versions.versions_for_query(key.query)
        kb = self.store.load(
            key.query,
            corpus_version=key.corpus_version,
            mode=key.mode,
            algorithm=key.algorithm,
            source=key.source,
            num_documents=key.num_documents,
            config_digest=key.config_digest,
        )
        if kb is None:
            return None
        return self.store_hit_result(
            request,
            key,
            kb,
            started,
            store_seconds=time.perf_counter() - tier_started,
            versions=versions,
        )

    def store_hit_result(
        self,
        request: QueryRequest,
        key: CacheKey,
        kb: KnowledgeBase,
        started: float,
        store_seconds: Optional[float] = None,
        versions: Optional[Dict[str, int]] = None,
    ) -> QueryResult:
        """Per-consumer envelope for a store hit, shared by every
        probe (the sync saturation rescue and the event-loop fast
        path): fills the cache for the next repeat — unless a
        concurrent corpus refresh or a concurrent ingest made the key
        stale.

        ``versions`` is the per-entity version slice snapshotted
        *before* the store read: if the vector advanced past it while
        the row was in flight, an ingest's invalidation sweep may
        already have deleted the row, and refilling the cache from it
        would resurrect a stale entry.
        """
        if versions is None:
            versions = self.entity_versions.versions_for_query(key.query)
        if (
            key.corpus_version == self.session.corpus_version
            and self.entity_versions.versions_for_query(key.query)
            == versions
        ):
            self.cache.put(key, kb)
        return QueryResult(
            query=request.query,
            normalized_query=key.query,
            kb=kb,
            corpus_version=key.corpus_version,
            store_hit=True,
            seconds=time.perf_counter() - started,
            client_id=request.client_id,
            request_key=key.signature(),
            store_seconds=store_seconds,
            entity_versions=versions or None,
        )

    def _serve(self, request_tuple) -> QueryResult:
        """Executor entry point for one (request, key) tuple.

        Returns the *canonical* ``KnowledgeBase`` (also held by the
        cache); the result may be shared by every caller that joined
        this in-flight computation, so ``serve``/``serve_batch`` give
        each caller its own envelope via :meth:`_result_copy`. The KB
        is immutable, so every caller shares it.
        """
        request, key = request_tuple
        started = time.perf_counter()
        # Double-check only: _begin already counted this miss. A hit
        # here means another flight landed the key in between.
        cached = self.cache.get(key, count=False)
        if cached is not None:
            return QueryResult(
                query=request.query,
                normalized_query=key.query,
                kb=cached,
                corpus_version=key.corpus_version,
                cache_hit=True,
                seconds=time.perf_counter() - started,
                request_key=key.signature(),
                entity_versions=self._versions_stamp(key.query),
            )
        result = self._serve_key(request, key)
        result.seconds = time.perf_counter() - started
        return result

    def _serve_key(
        self, request: QueryRequest, key: CacheKey
    ) -> QueryResult:
        """Cache-miss path: consult the store, else run the pipeline.

        Times each tier separately so the envelope can report where the
        wall time went (``store_seconds`` covers the lookup whether it
        hit or missed; ``pipeline_seconds`` covers the pipeline stage
        as observed from the facade, including executor-tier dispatch).
        """
        query = request.query
        store_hit = False
        store_seconds: Optional[float] = None
        pipeline_seconds: Optional[float] = None
        # Per-entity snapshot before any tier is consulted: the result
        # is stamped with it, and the cache/store fills below are
        # skipped if an ingest advanced the query's slice mid-flight
        # (they would resurrect an entry the ingest just invalidated).
        versions_before = self.entity_versions.versions_for_query(key.query)
        kb = None
        if self.store is not None:
            tier_started = time.perf_counter()
            kb = self.store.load(
                key.query,
                corpus_version=key.corpus_version,
                mode=key.mode,
                algorithm=key.algorithm,
                source=key.source,
                num_documents=key.num_documents,
                config_digest=key.config_digest,
            )
            store_seconds = time.perf_counter() - tier_started
            store_hit = kb is not None
        if kb is None:
            tier_started = time.perf_counter()
            kb = self._run_pipeline(
                query, source=key.source, num_documents=key.num_documents
            )
            pipeline_seconds = time.perf_counter() - tier_started
            with self._counter_lock:
                self.pipeline_runs += 1
            # Don't persist results keyed under a corpus version that a
            # concurrent refresh_corpus already invalidated: they would
            # be unreachable dead weight in both tiers.
            if (
                self.store is not None
                and key.corpus_version == self.session.corpus_version
                and self.entity_versions.versions_for_query(key.query)
                == versions_before
            ):
                self.store.save(
                    key.query,
                    kb,
                    corpus_version=key.corpus_version,
                    mode=key.mode,
                    algorithm=key.algorithm,
                    source=key.source,
                    num_documents=key.num_documents,
                    config_digest=key.config_digest,
                )
                current_versions = self.entity_versions.versions_for_query(
                    key.query
                )
                if current_versions != versions_before:
                    # An ingest committed between the pre-save check
                    # and the commit: the row just written was built
                    # under the old engine and may have landed after
                    # the ingest's delete_for_entities sweep. Re-sweep
                    # the advanced entities (over-deletion is safe,
                    # exactly like the version re-sweep below).
                    self.store.delete_for_entities(
                        [
                            entity
                            for entity, version in current_versions.items()
                            if versions_before.get(entity) != version
                        ]
                    )
                if key.corpus_version != self.session.corpus_version:
                    # A refresh_corpus completed between the pre-save
                    # check and the commit: the row just written may
                    # have landed *after* the refresh's delete_stale
                    # sweep and would otherwise survive as dead weight
                    # (version-keyed loads can never serve it, but it
                    # breaks the "no stale rows after refresh"
                    # invariant). Re-sweep; if instead the refresh's
                    # own sweep is still ahead, this is a harmless
                    # no-op. (Found by the fabric fault harness, where
                    # the save's socket round trip widens the race.)
                    self.store.delete_stale(self.session.corpus_version)
        # Label the result with the version its content actually came
        # from: a store hit is keyed (and was built) under the key's
        # version, while a fresh pipeline run used the session as it
        # stands *now* — which may be newer if a refresh_corpus
        # completed while this request was in flight. The key mismatch
        # below also keeps such a result out of the cache and store.
        built_under = (
            key.corpus_version if store_hit else self.session.corpus_version
        )
        if (
            key.corpus_version == self.session.corpus_version
            and self.entity_versions.versions_for_query(key.query)
            == versions_before
        ):
            self.cache.put(key, kb)
        return QueryResult(
            query=query,
            normalized_query=key.query,
            kb=kb,
            corpus_version=built_under,
            store_hit=store_hit,
            client_id=request.client_id,
            request_key=key.signature(),
            store_seconds=store_seconds,
            pipeline_seconds=pipeline_seconds,
            entity_versions=versions_before or None,
        )

    def _run_pipeline(
        self, query: str, source: str, num_documents: int
    ) -> KnowledgeBase:
        """One uncached pipeline run, inline on the request worker thread."""
        return self.qkbfly.build_kb(
            query, source=source, num_documents=num_documents
        )

    # ---- request identity --------------------------------------------------

    def request_key(
        self,
        query: str,
        source: Optional[str] = None,
        num_documents: Optional[int] = None,
    ) -> CacheKey:
        """The full cache/store signature this request serves under.

        Public because every front end (sync, asyncio, warm-up) must
        derive identical keys; omitted arguments fall back to the
        :class:`ServiceConfig` defaults exactly like :meth:`build_kb`.
        """
        return self._key(query, source, num_documents)

    def _key(
        self,
        query: str,
        source: Optional[str],
        num_documents: Optional[int],
    ) -> CacheKey:
        return CacheKey.for_request(
            query,
            mode=self.qkbfly.config.mode,
            algorithm=self.qkbfly.config.algorithm,
            corpus_version=self.session.corpus_version,
            source=source if source is not None else self.service_config.source,
            num_documents=(
                num_documents
                if num_documents is not None
                else self.service_config.num_documents
            ),
            config_digest=self._config_digest,
        )

    # ---- fact search -------------------------------------------------------

    def search_facts(self, request: FactSearchRequest) -> FactSearchResult:
        """One page of the stored-fact search (``GET /v1/facts``).

        Read-only: never touches the cache, the executor, or the
        pipeline — pages come straight from the store's FTS5 index
        (fanned out and merge-sorted across shards; see
        ``docs/SEARCH.md``). The client's rate limit applies exactly
        like :meth:`serve`.
        Raises :class:`~repro.service.api.SearchUnavailable` (503) when
        this deployment has no store or its SQLite build lacks FTS5,
        and an ``invalid_request`` (400) on a bad sort/cursor.
        """
        return self._search("facts", request)

    def search_entities(self, request: FactSearchRequest) -> FactSearchResult:
        """One page of the stored-entity search (``GET /v1/entities``).

        Same contract as :meth:`search_facts`; the ``entity`` filter
        matches the entity id or its display text, and results carry
        the record ``kind`` (``linked`` or ``emerging``).
        """
        return self._search("entities", request)

    def _search(
        self, kind: str, request: FactSearchRequest
    ) -> FactSearchResult:
        started = time.perf_counter()
        if self.admission is not None:
            self.admission.admit(request.client_id)
        if self.store is None:
            raise SearchUnavailable(
                "this deployment has no KB store to search "
                "(store_path is not configured)"
            )
        try:
            page = search_paginated(
                store_backends(self.store),
                kind,
                q=request.q,
                entity=request.entity,
                pattern=request.pattern,
                corpus_version=request.corpus_version,
                created_after=request.created_after,
                created_before=request.created_before,
                sort=request.sort,
                limit=request.limit,
                cursor=request.cursor,
            )
        except ServiceError:
            raise
        except ValueError as error:
            raise invalid_request(str(error)) from error
        return FactSearchResult(
            kind=kind,
            results=page["results"],
            next_cursor=page["next_cursor"],
            has_more=page["has_more"],
            seconds=time.perf_counter() - started,
            client_id=request.client_id,
            api_version=request.api_version,
        )

    # ---- live ingest / subscriptions ---------------------------------------

    def ingest(self, request: IngestRequest) -> IngestResult:
        """Apply one document to the live corpus (``POST /v1/ingest``).

        Runs the document through the NLP/extraction stages to compute
        its touched-entity set, swaps the search engine, bumps the
        per-entity version vector, and invalidates exactly the warm
        entries whose query intersects the touched set — the global
        ``corpus_version`` (and every unrelated warm entry) survives
        bit-identical. See docs/INGEST.md for the dataflow and the
        crash-safety protocol around the ``ingest.commit`` /
        ``ingest.invalidate`` fault points.

        The client's rate limit applies like :meth:`serve`. Raises
        ``invalid_request``
        (400) on a bad source and the admission taxonomy otherwise;
        returns the acknowledgment envelope once the ingest is durable
        and subscribers have been notified.
        """
        started = time.perf_counter()
        if self.admission is not None:
            self.admission.admit(request.client_id)
        try:
            outcome = self.ingest_pipeline.ingest(request)
        except ServiceError:
            raise
        except ValueError as error:
            raise invalid_request(str(error)) from error
        return IngestResult(
            doc_id=outcome["doc_id"],
            source=outcome["source"],
            corpus_version=outcome["corpus_version"],
            updated=outcome["updated"],
            touched_entities=list(outcome["touched_entities"]),
            entity_versions=dict(outcome["entity_versions"]),
            invalidated=dict(outcome["invalidated"]),
            subscribers=outcome["subscribers"],
            deliveries=dict(outcome["deliveries"]),
            seconds=time.perf_counter() - started,
            client_id=request.client_id,
            api_version=request.api_version,
        )

    def watch(self, request: WatchRequest) -> Dict[str, Any]:
        """Register a ``watch(entities)`` subscription
        (``POST /v1/watch``); returns its wire form, including the
        ``subscription_id`` long-pollers pass to :meth:`poll_deltas`.
        """
        try:
            subscription = self.subscriptions.watch(
                request.client_id,
                request.entities,
                mode=request.mode,
                callback_url=request.callback_url,
            )
        except ValueError as error:
            raise invalid_request(str(error)) from error
        return subscription.to_dict()

    def unwatch(self, subscription_id: str) -> bool:
        """Drop a subscription; True when it existed."""
        return self.subscriptions.unwatch(subscription_id)

    def poll_deltas(
        self,
        subscription_id: str,
        after: int = 0,
        timeout: float = 0.0,
    ) -> Dict[str, Any]:
        """Long-poll a subscription's pending KB deltas
        (``GET /v1/deltas``). ``after=N`` acknowledges every delta with
        id ≤ N; the call blocks up to ``timeout`` seconds (capped by
        the registry) when nothing is pending.
        """
        try:
            return self.subscriptions.poll(
                subscription_id, after=after, timeout=timeout
            )
        except KeyError as error:
            raise invalid_request(
                f"unknown subscription {subscription_id!r}"
            ) from error
        except ValueError as error:
            raise invalid_request(str(error)) from error

    def _rebind_after_ingest(self) -> None:
        """Rebind the pipeline over the session's just-swapped search
        engine *without* rotating the corpus version.

        The ingest path's slice of :meth:`refresh_corpus`: a QKBfly
        rebind so the new document is retrievable. The NLP pipeline is
        kept: its gazetteer is a snapshot of the entity repository,
        which an ingest never changes (the memoised repository
        fingerprint assumes the same). No blanket invalidation — the
        caller invalidates the touched slice.
        """
        self.qkbfly = QKBfly.from_session(
            self.session, config=self.qkbfly.config
        )

    # ---- corpus lifecycle --------------------------------------------------

    def refresh_corpus(
        self,
        search_engine: Optional[SearchEngine] = None,
        statistics=None,
        pattern_repository=None,
        version: Optional[str] = None,
    ) -> str:
        """Advance the corpus snapshot and invalidate stale results.

        Pass the pieces that changed — a new ``search_engine`` when
        documents changed, new ``statistics`` when the background corpus
        was rebuilt, a new ``pattern_repository`` when the pattern
        inventory changed. The pipeline is rebound to the updated
        session, the version stamp is recomputed (or set to ``version``
        explicitly), the cache drops entries from older versions, and
        the store deletes its stale rows. Returns the new version.

        Exception: a refresh that *only* swaps the search engine (no
        statistics, no patterns, no explicit version pin) is a batch of
        document changes — exactly what the live-ingest path models —
        and routes through entity-granular invalidation instead: the
        documents that differ between the old and new engines are
        diffed, their touched entities are bumped on the version
        vector, and only the intersecting warm state is invalidated.
        The corpus version and every unrelated warm entry survive
        bit-identical (docs/INGEST.md). Pass ``version`` explicitly to
        force the full rotation.
        """
        if (
            search_engine is not None
            and version is None
            and statistics is None
            and pattern_repository is None
        ):
            self.ingest_pipeline.refresh_engine(search_engine)
            return self.session.corpus_version
        previous_version = self.session.corpus_version
        if search_engine is not None:
            self.session.search_engine = search_engine
        if statistics is not None:
            self.session.statistics = statistics
        if pattern_repository is not None:
            self.session.pattern_repository = pattern_repository
        # Any piece may also have changed in place: every stage key and
        # the version stamp below must see fresh fingerprints.
        self.session.forget_fingerprints()
        # Rebuild the NER gazetteer snapshot and rebind the pipeline:
        # the session's nlp and QKBfly captured references to the old
        # corpus pieces at construction, and refresh_corpus with no
        # arguments signals an in-place mutation (e.g. entities added
        # directly to the repository).
        self.session.rebuild_nlp()
        self.qkbfly = QKBfly.from_session(
            self.session, config=self.qkbfly.config
        )
        self.session.corpus_version = (
            version or self.session.compute_corpus_version()
        )
        self.cache.invalidate_corpus_version(self.session.corpus_version)
        if self.store is not None:
            self.store.delete_stale(self.session.corpus_version)
            self.store.set_corpus_version(self.session.corpus_version)
        # Stage-cache hygiene after the version bump: retrieval entries
        # are keyed on the old corpus version, so they are unreachable
        # dead weight — reclaim them. NLP/extract/fragment entries are
        # keyed on document *content* and the fingerprints of what they
        # were computed from (not the version), so whatever the refresh
        # left valid deliberately survives it; see docs/PIPELINE.md.
        if self.session.stage_cache is not None:
            self.session.stage_cache.clear(STAGE_RETRIEVAL)
        if self.history is not None:
            self.history.record_refresh(
                previous_version, self.session.corpus_version
            )
        return self.session.corpus_version

    # ---- warm-up / compaction ---------------------------------------------

    def warm_cache(self, limit: Optional[int] = None) -> int:
        """Refill the in-memory cache from the store; returns the count.

        Long-running deployments restart with a cold cache but a warm
        store — this promotes stored entries back into memory so the
        first wave of traffic after a restart is served at cache speed.
        Only entries that are servable *now* qualify (current corpus
        version, current mode/algorithm/config digest); newest first,
        up to ``limit`` (default: the cache's own capacity). Already
        cached keys are skipped, so warming never demotes recency.
        """
        if self.store is None:
            return 0
        budget = self.cache.max_size if limit is None else limit
        budget = min(budget, self.cache.max_size)
        # Servability is filtered in SQL, so a warm-up over a huge
        # store reads O(budget) rows; the extra len(cache) headroom
        # covers candidates that turn out to be cached already.
        candidates = self.store.signatures(
            corpus_version=self.session.corpus_version,
            mode=self.qkbfly.config.mode,
            algorithm=self.qkbfly.config.algorithm,
            config_digest=self._config_digest,
            limit=budget + len(self.cache),
        )
        selected = []
        for sig in candidates:  # newest first
            if len(selected) >= budget:
                break
            key = CacheKey(
                query=sig.query,
                mode=sig.mode,
                algorithm=sig.algorithm,
                corpus_version=sig.corpus_version,
                source=sig.source,
                num_documents=sig.num_documents,
                config_digest=sig.config_digest,
            )
            if key not in self.cache:
                selected.append((key, sig))
        loaded = 0
        # Insert oldest-first so the newest entry ends up
        # most-recently-used: newest-first insertion would put the
        # hottest candidates first in line for LRU eviction.
        for key, sig in reversed(selected):
            kb = load_signature(self.store, sig)
            if kb is None:  # deleted between listing and load
                continue
            self.cache.put(key, kb)
            loaded += 1
        return loaded

    def compact_store(
        self,
        max_age_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> int:
        """Apply the store TTL/size policy; returns removed entries.

        Explicit arguments override the :class:`ServiceConfig` policy;
        with neither configured nor passed this is a no-op, so it is
        always safe to call from a maintenance cron.
        """
        if self.store is None:
            return 0
        if max_age_seconds is None:
            max_age_seconds = self.service_config.store_max_age_seconds
        if max_entries is None:
            max_entries = self.service_config.store_max_entries
        if max_age_seconds is None and max_entries is None:
            return 0
        return self.store.compact(
            max_age_seconds=max_age_seconds, max_entries=max_entries
        )

    # ---- lifecycle / monitoring -------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving counters across all tiers.

        Every request counts exactly one cache lookup (in
        :meth:`_begin`), whatever front end it came through; the
        executor's ``submitted`` / ``deduplicated`` / ``pending`` are
        the deployment-wide flight counters (one single-flight table
        serves ``serve``, ``serve_batch`` and the asyncio front end).
        """
        out: Dict[str, Any] = {
            "corpus_version": self.session.corpus_version,
            "pipeline_runs": self.pipeline_runs,
            "pool_workers": self._executor.max_workers,
            "cache": self.cache.stats(),
            "executor": {
                "submitted": self._executor.submitted,
                "deduplicated": self._executor.deduplicated,
                "pending": self._executor.pending,
                "max_workers": self._executor.max_workers,
            },
            "queue_wait": self.queue_wait.stats(),
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        if self.fabric is not None:
            out["fabric"] = self.fabric.stats()
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        ingest_stats: Dict[str, Any] = self.ingest_pipeline.stats()
        ingest_stats["entity_versions"] = self.entity_versions.stats()
        ingest_stats["subscriptions"] = self.subscriptions.stats()
        out["ingest"] = ingest_stats
        stage_cache = self.session.stage_cache
        if stage_cache is not None:
            out["stage_cache"] = stage_cache.stats()
        return out

    def close(self) -> None:
        """Shut down the executor and close the store."""
        # Wake blocked long-pollers before the pool drains: a poller
        # parked on the registry condition would otherwise wait out its
        # full timeout during shutdown.
        self.subscriptions.close()
        fault_point("service.close")
        self._executor.shutdown()
        if self.fabric is not None:
            # Drains queued replica deliveries, closes the routed
            # store, then stops the shard servers (store.close() is
            # idempotent, so the plain branch below would be a no-op).
            self.fabric.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "QKBflyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["QKBflyService", "QueryRequest", "QueryResult", "ServiceConfig"]
