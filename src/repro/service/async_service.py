"""Asyncio front end: slow pipeline runs never stall cache-hit traffic.

The sync :class:`~repro.service.service.QKBflyService` answers a cache
hit in microseconds — but a caller thread that happens to be behind a
cold query waits for a full pipeline run. An event-loop front end
removes that head-of-line blocking, the same fast-path/slow-path split
hybrid transactional/analytical systems use: cheap lookups stay on the
latency-critical path while heavy work is isolated on its own
execution tier.

:class:`AsyncQKBflyService` serves three paths per request:

- **cache hit** — answered synchronously on the event loop (the LRU
  lookup is a microsecond-scale critical section, never disk or
  pipeline work);
- **store hit** — attempted on the loop through the stores'
  non-blocking accessors (:meth:`~repro.service.kb_store.KbStore.
  try_load`): if the routed store lock is free, the SQLite read happens
  inline and the cache is filled; if a writer holds it, the request
  falls through to the slow path instead of stalling the loop;
- **miss** — the request starts or joins a flight in the sync
  service's :class:`~repro.service.executor.BatchExecutor` (and through
  it the process tier, when selected) and awaits that flight's future,
  so the pipeline's CPU-bound stages run on worker threads/processes
  while the loop keeps answering hits. No thread is parked on the wait.

The tier decision itself is not written here: :meth:`serve` drives the
sync service's ladder (``_begin`` → await → ``_finish``) with the
non-blocking store probe plugged in, so concurrent requests for one
cold query collapse in the executor's single-flight table — the same
table ``serve`` and ``serve_batch`` use — and a burst of N identical
cold queries costs one pipeline run, whether the copies arrive via
this front end, the sync API, or both.

One instance belongs to one event loop. All mutable front-end state
(the counters) is touched only from loop callbacks, which is what
makes the front end lock-free.

The primary entry points are the envelope methods
:meth:`AsyncQKBflyService.serve` / :meth:`AsyncQKBflyService.serve_batch`
(:class:`~repro.service.api.QueryRequest` in,
:class:`~repro.service.api.QueryResult` out, admission control and the
typed error taxonomy enforced exactly like the sync facade); the HTTP
gateway (:mod:`repro.service.gateway`) is a thin transport over them.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.core.qkbfly import QKBflyConfig, SessionState
from repro.corpus.world import World
from repro.service.admission import CostCharge
from repro.service.api import (
    FactSearchRequest,
    FactSearchResult,
    IngestRequest,
    IngestResult,
    QueryRequest,
    QueryResult,
    ServiceError,
    WatchRequest,
    wrap_failure,
)
from repro.service.cache import CacheKey
from repro.service.service import QKBflyService, ServiceConfig


class AsyncQKBflyService:
    """Event-loop serving facade over a :class:`QKBflyService`.

    All serving tiers (cache, store, executors, autoscaler) are the
    wrapped sync service's — the two front ends can serve the same
    deployment concurrently and share every tier, including
    single-flight dedup across the sync/async boundary.

    Args:
        service: The sync service to front. Closed by :meth:`aclose`
            only when ``own_service`` is set (:meth:`from_world` sets
            it; wrap an externally managed service with the default).
        own_service: Whether :meth:`aclose` also closes ``service``.
        dispatch_workers: Threads in the pool that runs the blocking
            calls (``ingest``, ``search_*``, ``watch``, long-polls and
            autoscale resizes) off the loop. Queries never occupy one:
            a cold query awaits its executor flight directly.
            Defaults to the service's ``max_workers``.
    """

    def __init__(
        self,
        service: QKBflyService,
        own_service: bool = False,
        dispatch_workers: Optional[int] = None,
    ) -> None:
        self.service = service
        self._own_service = own_service
        workers = (
            dispatch_workers
            if dispatch_workers is not None
            else service.service_config.max_workers
        )
        if workers <= 0:
            raise ValueError("dispatch_workers must be positive")
        self._dispatch_workers = workers
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="qkbfly-async"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        # Front-end counters (loop-confined, hence unlocked).
        self.answered = 0
        self.loop_cache_hits = 0
        self.loop_store_hits = 0
        self.store_busy_fallthroughs = 0

    @classmethod
    def from_world(
        cls,
        world: World,
        config: Optional[QKBflyConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        with_search: bool = True,
        dispatch_workers: Optional[int] = None,
    ) -> "AsyncQKBflyService":
        """Build and own a sync service for ``world``, then front it."""
        service = QKBflyService.from_world(
            world,
            config=config,
            service_config=service_config,
            with_search=with_search,
        )
        return cls(
            service, own_service=True, dispatch_workers=dispatch_workers
        )

    @classmethod
    def from_session(
        cls,
        session: SessionState,
        config: Optional[QKBflyConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        dispatch_workers: Optional[int] = None,
    ) -> "AsyncQKBflyService":
        """Build and own a sync service over ``session``, then front it."""
        service = QKBflyService(
            session, config=config, service_config=service_config
        )
        return cls(
            service, own_service=True, dispatch_workers=dispatch_workers
        )

    # ---- QKBflyService-compatible surface ----------------------------------

    @property
    def cache(self):
        """The shared in-memory query cache."""
        return self.service.cache

    @property
    def store(self):
        """The shared persistent KB store (None when persistence is off)."""
        return self.service.store

    @property
    def admission(self):
        """The shared admission controller (None when not configured)."""
        return self.service.admission

    @property
    def session(self) -> SessionState:
        """The shared session state."""
        return self.service.session

    @property
    def corpus_version(self) -> str:
        """The corpus snapshot currently served."""
        return self.service.corpus_version

    # ---- serving -----------------------------------------------------------

    async def serve(self, request: QueryRequest) -> QueryResult:
        """Serve one v1 envelope; hits resolve on the loop, misses off it.

        The primary asyncio entry point, the exact event-loop
        counterpart of :meth:`QKBflyService.serve`: the same admission
        control (rate *and* cost budgets checked before any tier is
        consulted, queue-depth shedding before a new flight is
        started), the same typed error taxonomy, the same envelope out.
        The returned :class:`QueryResult`'s KB is the shared immutable
        value the cache holds.
        """
        started = time.perf_counter()
        self._check_loop()
        charge, key = self.service._admit(request)
        return await self._serve_admitted(request, key, charge, started)

    async def _serve_admitted(
        self,
        request: QueryRequest,
        key: CacheKey,
        charge: Optional[CostCharge],
        started: float,
    ) -> QueryResult:
        """Drive the sync service's ladder for one admitted request:
        ``_begin`` with the loop-side store probe, await the flight
        (if any) up to the deadline counted from ``started``, then
        ``_finish`` — the same two calls the sync drivers make."""
        sync = self.service
        self.answered += 1
        try:
            outcome = sync._begin(
                request, key, started, loop_probe=self._try_store_on_loop
            )
            if isinstance(outcome, QueryResult):
                if outcome.cache_hit:
                    self.loop_cache_hits += 1
                result = outcome
            else:
                try:
                    # A cancelled consumer cannot cancel the shared
                    # flight: executor futures refuse cancel().
                    await asyncio.wait_for(
                        asyncio.wrap_future(outcome),
                        sync._remaining(request, started),
                    )
                except Exception:
                    # Expired or failed — _finish reads the flight
                    # itself and types either outcome.
                    pass
                result = sync._finish(
                    request, key, started, outcome, on_loop=True
                )
                if sync._sizer is not None and not self._closed:
                    # The pool resize a cold flight may call for (a
                    # process bootstrap takes hundreds of
                    # milliseconds) is decided and applied off the
                    # loop, fire-and-forget.
                    self._dispatch_pool.submit(sync.autoscale_tick)
        except BaseException:
            # Measured cost unknown (shed, deadline, pipeline failure):
            # the estimated reservation stays charged — identical to
            # the sync facade's settle discipline.
            sync._settle(charge)
            raise
        sync._settle(charge, result)
        if sync.history is not None:
            # The async tier records on the shared sync recorder, so
            # one attach_history() covers every front end (the HTTP
            # gateway's serves ride through here as well).
            sync.history.record_serve(result, front_end="async")
        return result

    async def serve_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Serve many envelopes concurrently; results in input order.

        Duplicates within the batch (and against any other in-flight
        request) collapse onto one pipeline run via the executor's
        single-flight table; every result slot gets its own envelope
        around the one shared KB. Like the sync :meth:`QKBflyService.serve_batch`, nothing
        raises: each slot independently carries its status/error
        envelope, and every slot's deadline counts from batch entry.
        """
        started = time.perf_counter()
        self._check_loop()
        sync = self.service

        async def serve_slot(request: QueryRequest) -> QueryResult:
            key = None  # stays None for pre-admission failures
            try:
                charge, key = sync._admit(request)
                return await self._serve_admitted(
                    request, key, charge, started
                )
            except ServiceError as error:
                return sync._failure(request, error, key, started)
            except Exception as error:
                # Raw infrastructure failures poison only their own
                # slot, never the batch.
                return sync._failure(
                    request,
                    wrap_failure(request, error, "serving"),
                    key,
                    started,
                )

        return list(
            await asyncio.gather(*(serve_slot(r) for r in requests))
        )

    # ---- fact search -------------------------------------------------------

    async def search_facts(
        self, request: FactSearchRequest
    ) -> FactSearchResult:
        """One page of the stored-fact search, off the event loop.

        The whole sync :meth:`QKBflyService.search_facts` (admission
        included) runs on a dispatch-pool thread: a page read is a
        blocking SQLite (or fabric socket) round trip, which must never
        stall loop-side cache hits. Same taxonomy as the sync method
        (:class:`~repro.service.api.SearchUnavailable` → 503, bad
        sort/cursor → 400).
        """
        loop = self._check_loop()
        return await loop.run_in_executor(
            self._dispatch_pool, self.service.search_facts, request
        )

    async def search_entities(
        self, request: FactSearchRequest
    ) -> FactSearchResult:
        """One page of the stored-entity search, off the event loop."""
        loop = self._check_loop()
        return await loop.run_in_executor(
            self._dispatch_pool, self.service.search_entities, request
        )

    # ---- live ingest / subscriptions ---------------------------------------

    async def ingest(self, request: IngestRequest) -> IngestResult:
        """One live-corpus ingest (``POST /v1/ingest``), off the loop.

        The whole sync :meth:`QKBflyService.ingest` (admission, NLP +
        extraction, engine swap, selective invalidation, subscriber
        notification) runs on a dispatch-pool thread — an ingest is
        seconds of CPU-bound stage work plus store writes, which must
        never stall loop-side cache hits.
        """
        loop = self._check_loop()
        return await loop.run_in_executor(
            self._dispatch_pool, self.service.ingest, request
        )

    async def watch(self, request: WatchRequest) -> Dict[str, Any]:
        """Register a subscription (``POST /v1/watch``), off the loop
        (registration is cheap but takes the registry lock, which
        long-poll serving also holds)."""
        loop = self._check_loop()
        return await loop.run_in_executor(
            self._dispatch_pool, self.service.watch, request
        )

    async def poll_deltas(
        self,
        subscription_id: str,
        after: int = 0,
        timeout: float = 0.0,
    ) -> Dict[str, Any]:
        """Long-poll a subscription's KB deltas (``GET /v1/deltas``),
        off the loop: the poll may block up to its capped timeout on
        the registry condition, so it occupies a dispatch thread, not
        the event loop."""
        loop = self._check_loop()
        return await loop.run_in_executor(
            self._dispatch_pool,
            lambda: self.service.poll_deltas(
                subscription_id, after=after, timeout=timeout
            ),
        )

    # ---- internals ---------------------------------------------------------

    def _check_loop(self) -> asyncio.AbstractEventLoop:
        """Pin the instance to the first loop that uses it."""
        if self._closed:
            raise RuntimeError("AsyncQKBflyService is closed")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif loop is not self._loop:
            raise RuntimeError(
                "AsyncQKBflyService is bound to another event loop; "
                "create one instance per loop"
            )
        return loop

    def _try_store_on_loop(
        self, request: QueryRequest, key: CacheKey, started: float
    ) -> Optional[QueryResult]:
        """Non-blocking store lookup; None when busy, missing, or off.

        A hit fills the cache (mirroring the sync miss path) so the
        next repeat is a cache hit; a busy lock counts as a
        fall-through and leaves the lookup to the off-loop slow path.
        """
        store = self.service.store
        if store is None:
            return None
        tier_started = time.perf_counter()
        attempted, kb = store.try_load(
            key.query,
            corpus_version=key.corpus_version,
            mode=key.mode,
            algorithm=key.algorithm,
            source=key.source,
            num_documents=key.num_documents,
            config_digest=key.config_digest,
        )
        if not attempted:
            self.store_busy_fallthroughs += 1
            return None
        if kb is None:
            return None
        self.loop_store_hits += 1
        return self.service.store_hit_result(
            request,
            key,
            kb,
            started,
            store_seconds=time.perf_counter() - tier_started,
        )

    # ---- lifecycle / monitoring --------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Sync-service counters plus this front end's loop-side view."""
        out = self.service.stats()
        out["async"] = self.front_end_stats()
        return out

    def front_end_stats(self) -> Dict[str, Any]:
        """Just this front end's loop-confined counters.

        Split out so the gateway can snapshot them *on the loop* while
        the blocking sync-tier stats run on a worker thread — the
        counters are only ever touched from loop callbacks.
        """
        return {
            "answered": self.answered,
            "loop_cache_hits": self.loop_cache_hits,
            "loop_store_hits": self.loop_store_hits,
            "store_busy_fallthroughs": self.store_busy_fallthroughs,
            "dispatch_workers": self._dispatch_workers,
        }

    async def aclose(self) -> None:
        """Shut the front end down.

        The dispatch pool — and, when owned, the sync service with all
        its pools and store handles — is shut down off the loop.
        Closing an owned service drains its executor, so consumers
        still awaiting a flight get their results.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_blocking)

    def _shutdown_blocking(self) -> None:
        self._dispatch_pool.shutdown(wait=True)
        if self._own_service:
            self.service.close()

    async def __aenter__(self) -> "AsyncQKBflyService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


__all__ = ["AsyncQKBflyService"]
