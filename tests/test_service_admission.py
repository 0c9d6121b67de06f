"""Admission control: token buckets, queue shedding, config validation.

Unit-level coverage with an injected clock (no sleeps), plus
integration through both front ends: the same `AdmissionController`
instance must enforce the same budgets whether a request arrives via
`QKBflyService.serve`, the deprecated `query()` shim, or the asyncio
`AsyncQKBflyService.serve` — the HTTP path is covered end-to-end in
`test_service_gateway.py`.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.admission import (
    AdmissionController,
    QueueWaitWindow,
    TokenBucket,
)
from repro.service.api import Overloaded, QueryRequest, RateLimited
from repro.service.async_service import AsyncQKBflyService
from repro.service.service import QKBflyService, ServiceConfig


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _top_queries(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


# ---- token bucket ----------------------------------------------------------


def test_bucket_burst_then_exact_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, now=clock())
    assert [bucket.try_acquire(clock()) for _ in range(3)] == [0.0, 0.0, 0.0]
    wait = bucket.try_acquire(clock())
    # Empty bucket at 2 tokens/second: the next token is 0.5s away.
    assert wait == pytest.approx(0.5)
    clock.advance(0.25)  # half a token: still short
    assert bucket.try_acquire(clock()) == pytest.approx(0.25)
    clock.advance(0.25)
    assert bucket.try_acquire(clock()) == 0.0


def test_bucket_never_exceeds_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2, now=clock())
    clock.advance(3600)  # an hour idle must not bank 360k tokens
    assert bucket.try_acquire(clock()) == 0.0
    assert bucket.try_acquire(clock()) == 0.0
    assert bucket.try_acquire(clock()) > 0.0


def test_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0, burst=1, now=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0.5, now=0.0)


# ---- controller ------------------------------------------------------------


def test_per_client_isolation():
    clock = FakeClock()
    controller = AdmissionController(
        rate_limit_qps=1.0, rate_limit_burst=1, clock=clock
    )
    controller.admit("alice")
    with pytest.raises(RateLimited) as excinfo:
        controller.admit("alice")
    assert excinfo.value.retry_after == pytest.approx(1.0)
    assert excinfo.value.http_status == 429
    # A different client has its own full bucket.
    controller.admit("bob")
    stats = controller.stats()
    assert stats["admitted"] == 2
    assert stats["rate_limited"] == 1
    assert stats["tracked_clients"] == 2


def test_rate_limit_disabled_admits_everything():
    controller = AdmissionController(max_queue_depth=4)
    for _ in range(100):
        controller.admit("anyone")
    assert controller.stats()["rate_limited"] == 0


def test_queue_shedding_and_joining_exemption():
    controller = AdmissionController(
        max_queue_depth=2, overload_retry_after=0.25
    )
    controller.check_queue(1)
    with pytest.raises(Overloaded) as excinfo:
        controller.check_queue(2)
    assert excinfo.value.http_status == 503
    assert excinfo.value.retry_after == 0.25
    # Joining an in-flight computation adds no load: always admitted.
    controller.check_queue(50, joining=True)
    # check_queue is a pure probe; only a shed that actually
    # propagates is recorded, via count_overloaded (the serving layer
    # may still rescue the request from the store).
    assert controller.stats()["overloaded"] == 0
    controller.count_overloaded()
    assert controller.stats()["overloaded"] == 1


def test_stale_client_buckets_are_evicted():
    clock = FakeClock()
    controller = AdmissionController(
        rate_limit_qps=10.0,
        max_tracked_clients=3,
        clock=clock,
    )
    for i in range(3):
        controller.admit(f"client-{i}")
        clock.advance(1.0)
    controller.admit("client-3")  # evicts client-0, the stalest
    stats = controller.stats()
    assert stats["tracked_clients"] == 3
    assert "client-0" not in controller._buckets
    assert "client-3" in controller._buckets


def test_controller_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AdmissionController(rate_limit_qps=0)
    with pytest.raises(ValueError):
        AdmissionController(rate_limit_burst=4)  # burst without a rate
    with pytest.raises(ValueError):
        AdmissionController(rate_limit_qps=1, rate_limit_burst=0)
    with pytest.raises(ValueError):
        AdmissionController(max_queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionController(overload_retry_after=0)


# ---- ServiceConfig validation (loud, at construction) ----------------------


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"store_shards": 0}, "store_shards"),
        ({"warm_limit": 10}, "store_path"),  # warm_limit without a store
        ({"store_path": ":memory:", "warm_limit": -1}, "warm_limit"),
        ({"cache_size": 0}, "cache_size"),
        ({"max_workers": 0}, "max_workers"),
        ({"num_documents": 0}, "num_documents"),
        ({"cache_ttl_seconds": 0}, "cache_ttl_seconds"),
        ({"rate_limit_qps": 0}, "rate_limit_qps"),
        ({"rate_limit_burst": 5}, "rate_limit_qps"),  # burst without rate
        ({"rate_limit_qps": 1, "rate_limit_burst": 0}, "rate_limit_burst"),
        ({"max_queue_depth": 0}, "max_queue_depth"),
    ],
)
def test_service_config_rejects_invalid_combos_loudly(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ServiceConfig(**kwargs)


def test_service_config_accepts_valid_admission_combo():
    config = ServiceConfig(
        rate_limit_qps=5.0, rate_limit_burst=10, max_queue_depth=8
    )
    assert config.rate_limit_qps == 5.0


# ---- integration: sync front end -------------------------------------------


def test_sync_rate_limit_enforced_even_on_cache_hits(service_session):
    config = ServiceConfig(rate_limit_qps=0.001, rate_limit_burst=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        first = service.serve(QueryRequest(query=name, client_id="c1"))
        second = service.serve(QueryRequest(query=name, client_id="c1"))
        assert first.served_from == "executor"
        assert second.served_from == "cache"
        # Budget exhausted: even a would-be cache hit is rejected —
        # admission happens before any tier is consulted.
        with pytest.raises(RateLimited) as excinfo:
            service.serve(QueryRequest(query=name, client_id="c1"))
        assert excinfo.value.retry_after > 0
        # An independent client still gets served.
        other = service.serve(QueryRequest(query=name, client_id="c2"))
        assert other.served_from == "cache"
        assert service.stats()["admission"]["rate_limited"] == 1


def test_sync_rate_limit_applies_to_build_kb(service_session):
    """The QKBfly-compatible surface is not a side door around
    admission control."""
    config = ServiceConfig(rate_limit_qps=0.001, rate_limit_burst=1)
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        service.build_kb(name)
        with pytest.raises(RateLimited):
            service.build_kb(name)


def test_sync_queue_shedding_spares_joiners_and_hits(service_session):
    config = ServiceConfig(max_queue_depth=1, max_workers=4)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        hot = service.serve(QueryRequest(query=names[0]))  # cached below
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            # Queue full (1 in flight): new cold work is shed...
            with pytest.raises(Overloaded):
                service.serve(QueryRequest(query=names[2]))
            # ...but a cache hit is still served under overload...
            assert (
                service.serve(QueryRequest(query=names[0])).served_from
                == "cache"
            )
            assert hot.served_from == "executor"
            # ...and a request for the in-flight key joins the flight.
            joiner = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            joiner.start()
            release.set()
            blocker.join(timeout=30)
            joiner.join(timeout=30)
        finally:
            release.set()
            service._run_pipeline = original
        assert service.stats()["admission"]["overloaded"] == 1
        # After the queue drained, shed work is admitted again.
        result = service.serve(QueryRequest(query=names[2]))
        assert result.served_from == "executor"


def test_store_hits_are_never_shed_under_saturation(
    service_session, tmp_path
):
    """A saturated queue gives the store one last read: anything the
    deployment already knows is answered, on serve() and serve_batch()
    alike — only genuine cold misses are shed."""
    config = ServiceConfig(
        max_queue_depth=1,
        max_workers=4,
        store_path=str(tmp_path / "store.sqlite"),
    )
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        stored = service.serve(QueryRequest(query=names[0]))  # persisted
        service.cache.clear()  # cold cache, warm store
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            from_store = service.serve(QueryRequest(query=names[0]))
            assert from_store.served_from == "store"
            assert from_store.kb.to_dict() == stored.kb.to_dict()
            service.cache.clear()
            batch_store, batch_shed = service.serve_batch(
                [QueryRequest(query=names[0]), QueryRequest(query=names[2])]
            )
            assert batch_store.served_from == "store"
            assert batch_shed.status.value == "overloaded"
        finally:
            release.set()
            service._run_pipeline = original
            blocker.join(timeout=30)


def test_store_error_in_rescue_probe_poisons_only_its_slot(
    service_session, tmp_path
):
    """serve_batch's 'nothing raises' contract covers infrastructure
    failures too: an SQLite error in the saturated-queue store probe
    becomes a failed envelope for that slot, not a batch-wide raise."""
    import sqlite3

    config = ServiceConfig(
        max_queue_depth=1,
        max_workers=4,
        store_path=str(tmp_path / "store.sqlite"),
    )
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        service.serve(QueryRequest(query=names[0]))  # cached below
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        def broken_load(*args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        service._run_pipeline = gated
        original_load = service.store.load
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            service.store.load = broken_load
            poisoned, cached = service.serve_batch(
                [QueryRequest(query=names[2]), QueryRequest(query=names[0])]
            )
        finally:
            service.store.load = original_load
            release.set()
            service._run_pipeline = original
            blocker.join(timeout=30)
        assert poisoned.status.value == "failed"
        assert isinstance(poisoned.error.__cause__, sqlite3.OperationalError)
        assert cached.served_from == "cache"


def test_serve_batch_deadline_counts_from_batch_entry(service_session):
    """A slot's timeout is an absolute deadline from batch submission,
    not a fresh clock that starts when its turn to be awaited comes."""
    import time as time_module

    config = ServiceConfig(max_workers=1)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        original = service._run_pipeline

        def slow(query, source, num_documents):
            time_module.sleep(0.5)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = slow
        try:
            # One worker: the second query cannot even start before
            # t=0.5, so its 0.6s deadline (from batch entry) must
            # expire — a per-wait clock would have let it finish at
            # t=1.0 having "waited" only 0.5s.
            first, second = service.serve_batch(
                [
                    QueryRequest(query=names[0]),
                    QueryRequest(query=names[1], timeout=0.6),
                ]
            )
        finally:
            service._run_pipeline = original
        assert first.status.value == "ok"
        assert second.status.value == "failed"
        assert second.error.code == "timeout"


def test_serve_batch_serves_cached_keys_under_saturation(service_session):
    """The batch path must honor the same contract as serve(): a
    cache-hittable request is never shed, even at full queue depth."""
    config = ServiceConfig(max_queue_depth=1, max_workers=4)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        service.serve(QueryRequest(query=names[0]))  # now cached
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            results = service.serve_batch(
                [QueryRequest(query=names[0]), QueryRequest(query=names[2])]
            )
        finally:
            release.set()
            service._run_pipeline = original
            blocker.join(timeout=30)
        cached, shed = results
        assert cached.served_from == "cache"
        assert shed.status.value == "overloaded"
        # Post-admission failures carry the derived key for
        # correlation, matching the async front end's envelopes.
        assert shed.request_key != ""


def test_serve_batch_turns_admission_rejections_into_envelopes(
    service_session,
):
    config = ServiceConfig(rate_limit_qps=0.001, rate_limit_burst=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        results = service.serve_batch(
            [QueryRequest(query=name, client_id="c1") for _ in range(4)]
        )
        statuses = [r.status.value for r in results]
        # Two admitted (collapsing to one pipeline run), two rejected
        # in their own slots without voiding the batch.
        assert statuses.count("ok") == 2
        assert statuses.count("rate_limited") == 2
        assert all(
            r.error.retry_after > 0
            for r in results
            if r.status.value == "rate_limited"
        )
        assert service.pipeline_runs == 1


# ---- integration: asyncio front end ----------------------------------------


def test_async_rate_limit_enforced_on_loop(service_session):
    async def scenario():
        config = ServiceConfig(rate_limit_qps=0.001, rate_limit_burst=2)
        async with AsyncQKBflyService(
            QKBflyService(service_session, service_config=config),
            own_service=True,
        ) as service:
            name = _top_queries(service_session, 1)[0]
            await service.serve(QueryRequest(query=name, client_id="c1"))
            await service.serve(QueryRequest(query=name, client_id="c1"))
            with pytest.raises(RateLimited):
                await service.serve(QueryRequest(query=name, client_id="c1"))
            other = await service.serve(
                QueryRequest(query=name, client_id="c2")
            )
            return other, service.stats()

    other, stats = asyncio.run(scenario())
    assert other.served_from == "cache"
    assert stats["admission"]["rate_limited"] == 1


def test_async_shedding_counts_registry_not_just_executor(service_session):
    """Async flights queue in the dispatch pool before reaching the
    executor, so depth must include the front end's registry: with 2
    dispatch workers and max_queue_depth=3, a 4th distinct cold query
    must be shed even though executor.pending can never exceed 2."""

    async def scenario():
        sync_service = QKBflyService(
            service_session,
            service_config=ServiceConfig(max_queue_depth=3, max_workers=2),
        )
        async with AsyncQKBflyService(
            sync_service, own_service=True, dispatch_workers=2
        ) as service:
            names = _top_queries(service_session, 5)
            release = threading.Event()
            original = sync_service._run_pipeline

            def gated(query, source, num_documents):
                release.wait(timeout=30)
                return original(
                    query, source=source, num_documents=num_documents
                )

            sync_service._run_pipeline = gated
            try:
                flights = [
                    asyncio.ensure_future(
                        service.serve(QueryRequest(query=name))
                    )
                    for name in names[:3]
                ]
                await asyncio.sleep(0.01)  # registry fills to 3
                with pytest.raises(Overloaded):
                    await service.serve(QueryRequest(query=names[3]))
                release.set()
                results = await asyncio.gather(*flights)
            finally:
                release.set()
                sync_service._run_pipeline = original
            return results, service.service.stats()["admission"]

    results, admission = asyncio.run(scenario())
    assert all(r.status.value == "ok" for r in results)
    assert admission["overloaded"] == 1


def test_overloaded_counter_ignores_store_rescues(
    service_session, tmp_path
):
    """The counter measures actual rejections: a saturated-queue probe
    answered from the store must not look like a shed in stats."""
    config = ServiceConfig(
        max_queue_depth=1,
        max_workers=4,
        store_path=str(tmp_path / "store.sqlite"),
    )
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        service.serve(QueryRequest(query=names[0]))  # persisted
        service.cache.clear()
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            rescued = service.serve(QueryRequest(query=names[0]))
            assert rescued.served_from == "store"
        finally:
            release.set()
            service._run_pipeline = original
            blocker.join(timeout=30)
        assert service.stats()["admission"]["overloaded"] == 0


def test_classify_timeout_semantics():
    """Work that finished by raising is a pipeline failure (chaining
    the work's own exception); a pending or successfully-landed flight
    means the caller's deadline."""
    from repro.service.api import PipelineFailure, classify_timeout

    request = QueryRequest(query="q", timeout=5.0)
    wait_error = TimeoutError("wait expired")
    work_error = ValueError("pipeline blew up")
    failure = classify_timeout(request, wait_error, work_error)
    assert isinstance(failure, PipelineFailure)
    # The *work's* exception is chained, never the wait's TimeoutError.
    assert failure.__cause__ is work_error
    deadline = classify_timeout(request, wait_error, None)
    assert deadline.code == "timeout"
    # No deadline set: the error can only be the work's own.
    no_deadline = QueryRequest(query="q")
    undeadlined = classify_timeout(no_deadline, wait_error, None)
    assert isinstance(undeadlined, PipelineFailure)
    assert undeadlined.__cause__ is wait_error


def test_async_queue_shedding_spares_joiners(service_session):
    async def scenario():
        sync_service = QKBflyService(
            service_session,
            service_config=ServiceConfig(max_queue_depth=1, max_workers=4),
        )
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            names = _top_queries(service_session, 3)
            release = threading.Event()
            entered = threading.Event()
            original = sync_service._run_pipeline

            def gated(query, source, num_documents):
                entered.set()
                release.wait(timeout=30)
                return original(
                    query, source=source, num_documents=num_documents
                )

            sync_service._run_pipeline = gated
            try:
                flight = asyncio.ensure_future(
                    service.serve(QueryRequest(query=names[1]))
                )
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                with pytest.raises(Overloaded):
                    await service.serve(QueryRequest(query=names[2]))
                # Joining the in-flight key is exempt from shedding.
                joiner = asyncio.ensure_future(
                    service.serve(QueryRequest(query=names[1]))
                )
                await asyncio.sleep(0.01)
                assert not joiner.done()
                release.set()
                first, joined = await asyncio.gather(flight, joiner)
            finally:
                release.set()
                sync_service._run_pipeline = original
            return first, joined, sync_service._executor.deduplicated

    first, joined, deduplicated = asyncio.run(scenario())
    assert first.kb.to_dict() == joined.kb.to_dict()
    assert deduplicated == 1


# ---- queue-wait-aware deadline admission -----------------------------------


def test_check_deadline_probe_semantics():
    from repro.service.admission import QueueWaitWindow
    from repro.service.api import DeadlineUnmet

    window = QueueWaitWindow(size=16)
    controller = AdmissionController(
        max_queue_depth=8, queue_wait=window
    )
    # Conservatively inactive: nothing measured yet.
    controller.check_deadline(0.001)
    # No deadline: never rejected, whatever the waits look like.
    for _ in range(16):
        window.record(5.0)
    controller.check_deadline(None)
    # Plenty of remaining budget: admitted.
    controller.check_deadline(10.0)
    # Doomed: p95 (5s) exceeds the remaining 0.5s budget.
    with pytest.raises(DeadlineUnmet) as excinfo:
        controller.check_deadline(0.5)
    assert excinfo.value.http_status == 504
    assert excinfo.value.code == "deadline_unmet"
    assert excinfo.value.retry_after == 5.0
    # Joining an in-flight computation pays no queue wait: exempt.
    controller.check_deadline(0.5, joining=True)
    # A probe, like check_queue: nothing counted until the serving
    # layer reports the rejection actually propagated.
    assert controller.stats()["deadline_rejected"] == 0
    controller.count_deadline_rejected()
    assert controller.stats()["deadline_rejected"] == 1


def test_check_deadline_without_window_is_inactive():
    controller = AdmissionController(max_queue_depth=8)
    controller.check_deadline(0.0)  # no window wired in: no-op


def test_sync_deadline_rejects_doomed_requests_fast(service_session):
    """A request whose timeout cannot survive the measured p95 queue
    wait gets its 504 at admission, in microseconds — not after its
    full timeout expires in the queue."""
    import time as time_module

    from repro.service.api import DeadlineUnmet

    config = ServiceConfig(max_queue_depth=8, max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        service.serve(QueryRequest(query=names[0]))  # cached below
        for _ in range(20):
            service.queue_wait.record(5.0)
        t0 = time_module.perf_counter()
        with pytest.raises(DeadlineUnmet) as excinfo:
            service.serve(QueryRequest(query=names[1], timeout=0.2))
        elapsed = time_module.perf_counter() - t0
        assert elapsed < 1.0  # rejected at admission, not after 0.2s+
        assert excinfo.value.retry_after == 5.0
        assert service.stats()["admission"]["deadline_rejected"] == 1
        # A cache hit never reaches the deadline gate: served even
        # with a hopeless timeout.
        hit = service.serve(QueryRequest(query=names[0], timeout=0.2))
        assert hit.served_from == "cache"
        # No timeout means no deadline to miss.
        ok = service.serve(QueryRequest(query=names[1]))
        assert ok.status.value == "ok"


def test_deadline_rejection_is_rescued_by_the_store(
    service_session, tmp_path
):
    """The store gets the same last word as under queue saturation: a
    store-servable key is answered, not 504'd, and the rejection
    counter stays honest."""
    config = ServiceConfig(
        max_queue_depth=8,
        max_workers=2,
        store_path=str(tmp_path / "store.sqlite"),
    )
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        service.serve(QueryRequest(query=name))  # persisted
        service.cache.clear()
        for _ in range(20):
            service.queue_wait.record(5.0)
        rescued = service.serve(QueryRequest(query=name, timeout=0.2))
        assert rescued.served_from == "store"
        assert service.stats()["admission"]["deadline_rejected"] == 0


def test_deadline_joiners_are_exempt(service_session):
    """A request merging into an in-flight flight pays no queue wait,
    so a pessimistic window must not reject it."""
    config = ServiceConfig(max_queue_depth=8, max_workers=4)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        for _ in range(20):
            service.queue_wait.record(5.0)
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            blocker = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[1]),)
            )
            blocker.start()
            assert entered.wait(timeout=30)
            joined: list = []
            joiner = threading.Thread(
                target=lambda: joined.append(
                    service.serve(
                        QueryRequest(query=names[1], timeout=30.0)
                    )
                )
            )
            joiner.start()
            release.set()
            blocker.join(timeout=30)
            joiner.join(timeout=30)
        finally:
            release.set()
            service._run_pipeline = original
        assert joined and joined[0].status.value == "ok"
        assert service.stats()["admission"]["deadline_rejected"] == 0


def test_serve_batch_deadline_rejection_is_an_envelope(service_session):
    config = ServiceConfig(max_queue_depth=8, max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        service.serve(QueryRequest(query=names[0]))  # cached below
        for _ in range(20):
            service.queue_wait.record(5.0)
        cached, doomed = service.serve_batch(
            [
                QueryRequest(query=names[0], timeout=0.2),
                QueryRequest(query=names[1], timeout=0.2),
            ]
        )
        assert cached.served_from == "cache"
        assert doomed.status.value == "failed"
        assert doomed.error.code == "deadline_unmet"
        assert doomed.error.http_status == 504
        assert service.stats()["admission"]["deadline_rejected"] == 1


def test_async_deadline_rejection_and_batch_envelope(service_session):
    from repro.service.api import DeadlineUnmet

    async def scenario():
        sync_service = QKBflyService(
            service_session,
            service_config=ServiceConfig(max_queue_depth=8, max_workers=2),
        )
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            names = _top_queries(service_session, 2)
            await service.serve(QueryRequest(query=names[0]))
            for _ in range(20):
                sync_service.queue_wait.record(5.0)
            with pytest.raises(DeadlineUnmet):
                await service.serve(
                    QueryRequest(query=names[1], timeout=0.2)
                )
            # Cache hits skip the gate on the async path too.
            hit = await service.serve(
                QueryRequest(query=names[0], timeout=0.2)
            )
            (doomed,) = await service.serve_batch(
                [QueryRequest(query=names[1], timeout=0.2)]
            )
            return hit, doomed, service.service.stats()["admission"]

    hit, doomed, admission = asyncio.run(scenario())
    assert hit.served_from == "cache"
    assert doomed.status.value == "failed"
    assert doomed.error.code == "deadline_unmet"
    assert doomed.request_key != ""  # post-admission: key correlated
    assert admission["deadline_rejected"] == 2


# ---- queue-wait window -----------------------------------------------------


def test_empty_window_falls_back_to_policy_hint():
    """Cold start: nothing measured yet, so the configured fixed hint
    is the only honest Retry-After."""
    window = QueueWaitWindow(size=8)
    assert window.p50() is None
    assert window.p95() is None
    assert window.suggest_retry_after(default=1.25) == 1.25
    stats = window.stats()
    assert stats["samples"] == 0
    assert stats["p50_ms"] is None


def test_window_derives_clamped_p95_hint():
    window = QueueWaitWindow(size=16, min_retry_after=0.05, max_retry_after=5.0)
    for wait in (0.1, 0.2, 0.3, 0.4):
        window.record(wait)
    hint = window.suggest_retry_after(default=99.0)
    assert hint == pytest.approx(0.4)  # p95 of the samples, not the default
    window.record(1000.0)  # one pathological wait
    assert window.suggest_retry_after(default=99.0) == 5.0  # ceiling
    tiny = QueueWaitWindow(size=4, min_retry_after=0.05)
    tiny.record(0.0001)
    assert tiny.suggest_retry_after(default=9.0) == 0.05  # floor


def test_monotonic_clock_regression_clamps_to_zero():
    """A regressing time source (suspended VM, injected test clock)
    corrupts one sample at worst, never the distribution."""
    window = QueueWaitWindow(size=4)
    window.record(-0.5)
    window.record(0.2)
    assert window.p95() == pytest.approx(0.2)
    assert window.p50() in (0.0, 0.2)
    assert min(window._waits) == 0.0


def test_window_is_bounded_and_slides():
    window = QueueWaitWindow(size=3)
    for wait in (1.0, 2.0, 3.0, 4.0):
        window.record(wait)
    assert len(window) == 3
    assert window.recorded == 4
    assert window.p50() == 3.0  # 1.0 slid out


def test_overloaded_retry_after_uses_measured_waits():
    window = QueueWaitWindow(size=8)
    controller = AdmissionController(
        max_queue_depth=1, overload_retry_after=1.0, queue_wait=window
    )
    from repro.service.api import Overloaded

    # Cold window: the fixed policy hint.
    with pytest.raises(Overloaded) as excinfo:
        controller.check_queue(1)
    assert excinfo.value.retry_after == 1.0
    # Measured waits take over.
    for _ in range(8):
        window.record(0.8)
    with pytest.raises(Overloaded) as excinfo:
        controller.check_queue(1)
    assert excinfo.value.retry_after == pytest.approx(0.8)


def test_executor_measures_queue_waits(service_session):
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        for query in names:
            service.serve(QueryRequest(query=query))
        stats = service.stats()["queue_wait"]
        assert stats["samples"] == 3  # one per distinct cold miss
        assert stats["p95_ms"] is not None and stats["p95_ms"] >= 0.0
        # Cache hits never touch the executor: no new samples.
        service.serve(QueryRequest(query=names[0]))
        assert service.stats()["queue_wait"]["samples"] == 3
