"""AsyncQKBflyService: loop fast paths, single-flight dedup, lifecycle.

No pytest-asyncio dependency: each test drives its own event loop with
``asyncio.run`` — the front end under test is exactly as portable.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.qkbfly import QKBfly
from repro.service.api import PipelineFailure, QueryRequest
from repro.service.async_service import AsyncQKBflyService
from repro.service.service import QKBflyService, ServiceConfig


def _service(service_session, **config_kwargs) -> QKBflyService:
    config_kwargs.setdefault("max_workers", 4)
    return QKBflyService(
        service_session, service_config=ServiceConfig(**config_kwargs)
    )


def _requests(queries):
    return [QueryRequest(query=query) for query in queries]


def _query_names(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


# ---- fast paths ------------------------------------------------------------


def test_cache_hit_served_on_loop(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session), own_service=True
        ) as service:
            name = _query_names(service_session, 1)[0]
            cold = await service.serve(QueryRequest(query=name))
            hot = await service.serve(QueryRequest(query=name))
            return cold, hot, service.loop_cache_hits

    cold, hot, loop_hits = asyncio.run(scenario())
    assert not cold.cache_hit
    assert hot.cache_hit
    assert loop_hits == 1
    assert hot.kb.to_dict() == cold.kb.to_dict()


def test_store_hit_served_on_loop_and_fills_cache(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session, store_path=":memory:"),
            own_service=True,
        ) as service:
            name = _query_names(service_session, 1)[0]
            cold = await service.serve(QueryRequest(query=name))
            service.cache.clear()
            stored = await service.serve(QueryRequest(query=name))
            rehot = await service.serve(QueryRequest(query=name))
            return cold, stored, rehot, service.loop_store_hits

    cold, stored, rehot, loop_store_hits = asyncio.run(scenario())
    assert stored.store_hit and not stored.cache_hit
    assert loop_store_hits == 1
    assert stored.kb.to_dict() == cold.kb.to_dict()
    # The loop-side store hit refilled the cache.
    assert rehot.cache_hit


def test_busy_store_lock_falls_through_to_slow_path(service_session):
    """A writer holding the store lock must not stall the loop: the
    request falls through to the executor path and still succeeds."""

    async def scenario():
        sync_service = _service(service_session, store_path=":memory:")
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            name = _query_names(service_session, 1)[0]
            await service.serve(QueryRequest(query=name))  # populate the store
            service.cache.clear()

            release = threading.Event()
            acquired = threading.Event()

            def hold_lock():
                with sync_service.store._lock:
                    acquired.set()
                    release.wait(timeout=30)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            acquired.wait(timeout=30)
            try:
                task = asyncio.ensure_future(service.serve(QueryRequest(query=name)))
                # Let the coroutine hit the busy lock and dispatch.
                while service.store_busy_fallthroughs == 0:
                    await asyncio.sleep(0.001)
            finally:
                release.set()
            result = await task
            holder.join(timeout=30)
            return result, service.store_busy_fallthroughs

    result, fallthroughs = asyncio.run(scenario())
    assert fallthroughs == 1
    # The blocking slow path waited out the writer and found the row.
    assert result.store_hit


# ---- single-flight dedup ---------------------------------------------------


def test_concurrent_identical_cold_queries_run_pipeline_once(
    service_session,
):
    """Two coroutines, one cold query: exactly one pipeline run, both
    get the answer — the overlap is forced, not timing-dependent."""

    async def scenario():
        sync_service = _service(service_session)
        entered = threading.Event()
        proceed = threading.Event()
        original = sync_service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            assert proceed.wait(timeout=30), "pipeline gate never opened"
            return original(query, source, num_documents)

        sync_service._run_pipeline = gated
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            name = _query_names(service_session, 1)[0]
            first = asyncio.ensure_future(service.serve(QueryRequest(query=name)))
            # The flight is guaranteed in progress once the gate trips.
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait
            )
            second = asyncio.ensure_future(service.serve(QueryRequest(query=name)))
            while sync_service.stats()["executor"]["deduplicated"] == 0:
                await asyncio.sleep(0.001)
            proceed.set()
            results = await asyncio.gather(first, second)
            return results, sync_service.stats()

    (first, second), stats = asyncio.run(scenario())
    assert stats["pipeline_runs"] == 1
    # One flight in the shared executor table; the joiner counted once.
    assert stats["executor"]["submitted"] == 1
    assert stats["executor"]["deduplicated"] == 1
    assert first.kb.to_dict() == second.kb.to_dict()
    # Shared flight, one immutable KB, an envelope per caller.
    assert first.kb is second.kb and first is not second


def test_batch_deduplicates_and_preserves_order(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session), own_service=True
        ) as service:
            names = _query_names(service_session, 3)
            workload = [names[0], names[1], names[0], names[2], names[1]]
            results = await service.serve_batch(_requests(workload))
            return workload, results, service.service.pipeline_runs

    workload, results, pipeline_runs = asyncio.run(scenario())
    assert pipeline_runs == 3  # one per distinct query
    assert [r.query for r in results] == workload
    by_query = {}
    for query, result in zip(workload, results):
        by_query.setdefault(query, result.kb.to_dict())
        assert result.kb.to_dict() == by_query[query]


def test_mixed_hot_cold_batch(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session), own_service=True
        ) as service:
            names = _query_names(service_session, 3)
            await service.serve(QueryRequest(query=names[0]))  # make one query hot
            results = await service.serve_batch(_requests(names))
            return results

    results = asyncio.run(scenario())
    assert results[0].cache_hit
    assert not results[1].cache_hit and not results[2].cache_hit


def test_async_results_match_sync_pipeline(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session), own_service=True
        ) as service:
            names = _query_names(service_session, 3)
            results = await service.serve_batch(_requests(names))
            return names, results

    names, results = asyncio.run(scenario())
    reference = QKBfly.from_session(service_session)
    for name, result in zip(names, results):
        expected = reference.build_kb(name, source="wikipedia", num_documents=1)
        assert result.kb.to_dict() == expected.to_dict()


# ---- failure and lifecycle -------------------------------------------------


def test_pipeline_failure_propagates_and_clears_flight(service_session):
    async def scenario():
        sync_service = _service(service_session)

        def boom(query, source, num_documents):
            raise RuntimeError("pipeline exploded")

        original = sync_service._run_pipeline
        sync_service._run_pipeline = boom
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            name = _query_names(service_session, 1)[0]
            with pytest.raises(PipelineFailure) as excinfo:
                await service.serve(QueryRequest(query=name))
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            assert "pipeline exploded" in str(excinfo.value)
            assert sync_service.stats()["executor"]["pending"] == 0
            # Flight table clean: the repaired pipeline serves the key.
            sync_service._run_pipeline = original
            result = await service.serve(QueryRequest(query=name))
            return result

    result = asyncio.run(scenario())
    assert not result.cache_hit


def test_closed_service_rejects_requests(service_session):
    async def scenario():
        service = AsyncQKBflyService(
            _service(service_session), own_service=True
        )
        name = _query_names(service_session, 1)[0]
        await service.serve(QueryRequest(query=name))
        await service.aclose()
        await service.aclose()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            await service.serve(QueryRequest(query=name))

    asyncio.run(scenario())


def test_instance_is_pinned_to_one_loop(service_session):
    service = AsyncQKBflyService(
        _service(service_session), own_service=True
    )
    name = _query_names(service_session, 1)[0]
    asyncio.run(service.serve(QueryRequest(query=name)))
    with pytest.raises(RuntimeError, match="another event loop"):
        asyncio.run(service.serve(QueryRequest(query=name)))
    asyncio.run(service.aclose())


def test_invalid_dispatch_workers_rejected(service_session):
    sync_service = _service(service_session)
    try:
        with pytest.raises(ValueError):
            AsyncQKBflyService(sync_service, dispatch_workers=0)
    finally:
        sync_service.close()


def test_stats_surface(service_session):
    async def scenario():
        async with AsyncQKBflyService(
            _service(service_session), own_service=True
        ) as service:
            names = _query_names(service_session, 2)
            await service.serve(QueryRequest(query=names[0]))
            await service.serve(QueryRequest(query=names[0]))
            await service.serve(QueryRequest(query=names[1]))
            return service.stats()

    stats = asyncio.run(scenario())
    assert stats["async"]["answered"] == 3
    assert stats["async"]["loop_cache_hits"] == 1
    assert stats["executor"]["submitted"] == 2
    assert stats["executor"]["pending"] == 0
    assert stats["pipeline_runs"] == 2


def test_cache_hits_never_wait_on_a_slow_cold_query(service_session):
    """The tentpole property: a deliberately slow pipeline run must not
    block loop-side cache hits (head-of-line blocking is gone)."""

    async def scenario():
        sync_service = _service(service_session)
        release = threading.Event()
        original = sync_service._run_pipeline

        def slow(query, source, num_documents):
            release.wait(timeout=30)
            return original(query, source, num_documents)

        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            names = _query_names(service_session, 2)
            hot = names[0]
            await service.serve(QueryRequest(query=hot))  # warm one query
            sync_service._run_pipeline = slow
            cold_task = asyncio.ensure_future(
                service.serve(QueryRequest(query=names[1]))
            )
            await asyncio.sleep(0.01)  # the cold flight is now blocked
            assert not cold_task.done()
            hit_latencies = []
            for _ in range(50):
                t0 = time.perf_counter()
                result = await service.serve(QueryRequest(query=hot))
                hit_latencies.append(time.perf_counter() - t0)
                assert result.cache_hit
            release.set()
            cold = await cold_task
            return hit_latencies, cold

    hit_latencies, cold = asyncio.run(scenario())
    assert not cold.cache_hit
    # Every hit resolved while the cold pipeline was still held open;
    # the generous ceiling only guards against seconds-scale stalls.
    assert max(hit_latencies) < 1.0
