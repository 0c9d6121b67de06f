"""The v1 envelope: validation, JSON round-trips, taxonomy, shims.

Covers the contract layer of the serving API (`repro.service.api`) and
its integration into both front ends: envelope fields (`status`,
`served_from`, `request_key`, timing breakdown) threaded through every
tier, property-based JSON round-tripping, the typed error taxonomy,
and the parity of the four drivers of the one serve ladder.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.api import (
    API_VERSION,
    Overloaded,
    PipelineFailure,
    QueryRequest,
    QueryResult,
    QueryStatus,
    RateLimited,
    ServiceError,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.service import QKBflyService, ServiceConfig


def _top_queries(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


# ---- request envelope validation -------------------------------------------


def test_request_defaults_and_identity():
    request = QueryRequest(query="Alice Stone")
    assert request.api_version == API_VERSION
    assert request.client_id == "anonymous"
    assert request.num_documents is None and request.timeout is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"query": ""},
        {"query": "   "},
        {"query": "ok", "api_version": "v2"},
        {"query": "ok", "client_id": ""},
        {"query": "ok", "num_documents": 0},
        {"query": "ok", "num_documents": True},
        {"query": "ok", "timeout": 0},
        {"query": "ok", "timeout": -1.5},
        {"query": "ok", "timeout": float("inf")},
        {"query": "ok", "source": 3},
        {"query": "ok", "mode": 1},
        {"query": "ok", "algorithm": b"greedy"},
    ],
)
def test_invalid_requests_rejected_at_construction(kwargs):
    with pytest.raises(ServiceError) as excinfo:
        QueryRequest(**kwargs)
    assert excinfo.value.http_status == 400
    assert excinfo.value.code == "invalid_request"


def test_from_dict_rejects_unknown_fields_and_non_objects():
    with pytest.raises(ServiceError, match="unknown request field"):
        QueryRequest.from_dict({"query": "ok", "quary": "typo"})
    with pytest.raises(ServiceError, match="JSON object"):
        QueryRequest.from_dict(["not", "an", "object"])
    with pytest.raises(ServiceError, match="missing 'query'"):
        QueryRequest.from_dict({"client_id": "c1"})


# ---- JSON round-trips (property-based) -------------------------------------

_IDENTIFIERS = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), min_codepoint=32
    ),
    min_size=1,
    max_size=24,
)

_REQUESTS = st.builds(
    QueryRequest,
    query=st.text(min_size=1, max_size=60).filter(lambda s: s.strip()),
    mode=st.one_of(st.none(), _IDENTIFIERS),
    algorithm=st.one_of(st.none(), _IDENTIFIERS),
    source=st.one_of(st.none(), _IDENTIFIERS),
    num_documents=st.one_of(st.none(), st.integers(1, 50)),
    client_id=_IDENTIFIERS,
    timeout=st.one_of(
        st.none(),
        st.floats(
            min_value=0.001,
            max_value=3600,
            allow_nan=False,
            allow_infinity=False,
        ),
    ),
)


@given(request=_REQUESTS)
@settings(max_examples=60, deadline=None)
def test_request_round_trips_through_json(request):
    wire = json.loads(json.dumps(request.to_dict()))
    assert QueryRequest.from_dict(wire) == request


_ERRORS = st.one_of(
    st.builds(
        RateLimited,
        st.text(max_size=40),
        retry_after=st.floats(
            min_value=0.01, max_value=100, allow_nan=False
        ),
    ),
    st.builds(
        Overloaded,
        st.text(max_size=40),
        retry_after=st.floats(min_value=0.01, max_value=100, allow_nan=False),
    ),
    st.builds(PipelineFailure, st.text(max_size=40)),
    st.builds(
        ServiceError,
        st.text(max_size=40),
        code=st.sampled_from(["invalid_request", "timeout", "internal"]),
        http_status=st.sampled_from([400, 500, 504]),
    ),
)

_RESULTS = st.builds(
    QueryResult,
    query=st.text(min_size=1, max_size=60),
    normalized_query=st.text(max_size=60),
    kb=st.none(),
    corpus_version=_IDENTIFIERS,
    cache_hit=st.booleans(),
    store_hit=st.booleans(),
    seconds=st.floats(min_value=0, max_value=100, allow_nan=False),
    status=st.sampled_from(list(QueryStatus)),
    client_id=_IDENTIFIERS,
    request_key=st.text(alphabet="0123456789abcdef", max_size=16),
    store_seconds=st.one_of(
        st.none(), st.floats(min_value=0, max_value=10, allow_nan=False)
    ),
    pipeline_seconds=st.one_of(
        st.none(), st.floats(min_value=0, max_value=10, allow_nan=False)
    ),
    error=st.one_of(st.none(), _ERRORS),
)


@given(result=_RESULTS)
@settings(max_examples=60, deadline=None)
def test_result_envelope_round_trips_through_json(result):
    """Wire -> object -> wire is the identity (durations stay in
    seconds on the wire, so no float is ever scaled and lost)."""
    wire = json.loads(json.dumps(result.to_dict()))
    rebuilt = QueryResult.from_dict(wire)
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.status is result.status
    assert rebuilt.served_from == result.served_from
    if result.error is not None:
        assert type(rebuilt.error) is type(result.error)
        assert rebuilt.error.code == result.error.code
        assert rebuilt.error.http_status == result.error.http_status


def test_result_with_kb_round_trips(service_session):
    with QKBflyService(service_session) as service:
        name = _top_queries(service_session, 1)[0]
        result = service.serve(QueryRequest(query=name, client_id="c1"))
    wire = json.loads(json.dumps(result.to_dict()))
    rebuilt = QueryResult.from_dict(wire)
    assert rebuilt.kb.to_dict() == result.kb.to_dict()
    assert rebuilt.served_from == "executor"
    assert rebuilt.request_key == result.request_key
    assert result.to_dict(include_kb=False)["kb"] is None


def test_pipeline_envelopes_round_trip(service_session):
    """The executor-tier envelopes share the v1 wire discipline: every
    field survives to_dict/from_dict (a future multi-node transport
    reuses this form, so it must not rot)."""
    from dataclasses import fields

    from repro.service.process_executor import (
        PipelineRequest,
        PipelineResponse,
    )

    request = PipelineRequest(query="Alice", source="news", num_documents=3)
    assert PipelineRequest.from_dict(request.to_dict()) == request
    assert set(request.to_dict()) == {
        f.name for f in fields(PipelineRequest)
    }

    with QKBflyService(service_session) as service:
        name = _top_queries(service_session, 1)[0]
        kb = service.build_kb(name)
    response = PipelineResponse(
        kb_payload=kb.to_dict(), worker_pid=123, seconds=0.25
    )
    rebuilt = PipelineResponse.from_dict(
        json.loads(json.dumps(response.to_dict()))
    )
    assert rebuilt.to_kb().to_dict() == kb.to_dict()
    assert (rebuilt.worker_pid, rebuilt.seconds) == (123, 0.25)
    assert set(response.to_dict()) == {
        f.name for f in fields(PipelineResponse)
    }


# ---- error taxonomy --------------------------------------------------------


def test_error_taxonomy_statuses_and_codes():
    assert RateLimited("x").http_status == 429
    assert RateLimited("x").status is QueryStatus.RATE_LIMITED
    assert Overloaded("x").http_status == 503
    assert Overloaded("x").status is QueryStatus.OVERLOADED
    assert PipelineFailure("x").http_status == 500
    assert PipelineFailure("x").status is QueryStatus.FAILED
    rebuilt = ServiceError.from_dict(RateLimited("x", retry_after=2.5).to_dict())
    assert isinstance(rebuilt, RateLimited)
    assert rebuilt.retry_after == 2.5


# ---- envelope fields through the serving tiers -----------------------------


def test_served_from_and_timings_across_tiers(service_session, tmp_path):
    config = ServiceConfig(store_path=str(tmp_path / "store.sqlite"))
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        request = QueryRequest(query=name, client_id="tier-client")

        cold = service.serve(request)
        assert cold.status is QueryStatus.OK
        assert cold.served_from == "executor"
        assert cold.pipeline_seconds is not None and cold.pipeline_seconds > 0
        # The store was consulted (and missed) before the pipeline ran.
        assert cold.store_seconds is not None
        assert cold.client_id == "tier-client"
        expected_key = service.request_key(name).signature()
        assert cold.request_key == expected_key

        hot = service.serve(request)
        assert hot.served_from == "cache"
        assert hot.pipeline_seconds is None
        assert hot.request_key == expected_key

        service.cache.clear()
        stored = service.serve(request)
        assert stored.served_from == "store"
        assert stored.store_seconds is not None and stored.store_seconds > 0
        assert stored.pipeline_seconds is None
        assert stored.kb.to_dict() == cold.kb.to_dict()


def test_variant_pins_enforced(service_session):
    with QKBflyService(service_session) as service:
        name = _top_queries(service_session, 1)[0]
        served_mode = service.config.mode
        ok = service.serve(QueryRequest(query=name, mode=served_mode))
        assert ok.status is QueryStatus.OK
        with pytest.raises(ServiceError, match="mode"):
            service.serve(QueryRequest(query=name, mode="definitely-other"))
        with pytest.raises(ServiceError, match="algorithm"):
            service.serve(
                QueryRequest(query=name, algorithm="definitely-other")
            )


def test_request_timeout_maps_to_timeout_error(service_session):
    with QKBflyService(service_session) as service:
        release = threading.Event()
        original = service._run_pipeline

        def slow(query, source, num_documents):
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = slow
        name = _top_queries(service_session, 1)[0]
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.serve(QueryRequest(query=name, timeout=0.05))
            assert excinfo.value.code == "timeout"
            assert excinfo.value.http_status == 504
        finally:
            release.set()
            service._run_pipeline = original


def test_pipeline_failure_wraps_original_exception(service_session):
    with QKBflyService(service_session) as service:

        def boom(query, source, num_documents):
            raise RuntimeError("pipeline exploded")

        service._run_pipeline = boom
        name = _top_queries(service_session, 1)[0]
        with pytest.raises(PipelineFailure) as excinfo:
            service.serve(QueryRequest(query=name))
        assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_pipeline_timeout_error_is_not_misread_as_deadline(service_session):
    """A TimeoutError raised *inside* the pipeline (e.g. a retrieval
    socket timeout — the builtin aliases futures/asyncio TimeoutError
    on 3.11+) is a PipelineFailure, not a client deadline: the request
    set no deadline."""

    def flaky(query, source, num_documents):
        raise TimeoutError("upstream retrieval timed out")

    with QKBflyService(service_session) as service:
        service._run_pipeline = flaky
        name = _top_queries(service_session, 1)[0]
        with pytest.raises(PipelineFailure) as excinfo:
            service.serve(QueryRequest(query=name))
        assert excinfo.value.code == "pipeline_failure"
        assert isinstance(excinfo.value.__cause__, TimeoutError)
        # Same classification slot-wise in the batch path.
        [result] = service.serve_batch([QueryRequest(query=name)])
        assert result.error.code == "pipeline_failure"

    async def scenario():
        sync_service = QKBflyService(service_session)
        sync_service._run_pipeline = flaky
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            name = _top_queries(service_session, 1)[0]
            with pytest.raises(PipelineFailure) as excinfo:
                await service.serve(QueryRequest(query=name))
            return excinfo.value

    error = asyncio.run(scenario())
    assert error.code == "pipeline_failure"


def test_pipeline_timeout_with_deadline_set_is_still_pipeline_failure(
    service_session,
):
    """Even with a generous deadline configured, a TimeoutError that
    the pipeline itself raised (the work *finished*, by failing) must
    not masquerade as the client's deadline expiring."""

    def flaky(query, source, num_documents):
        raise TimeoutError("upstream retrieval timed out")

    with QKBflyService(service_session) as service:
        service._run_pipeline = flaky
        name = _top_queries(service_session, 1)[0]
        with pytest.raises(PipelineFailure) as excinfo:
            service.serve(QueryRequest(query=name, timeout=30.0))
        assert isinstance(excinfo.value.__cause__, TimeoutError)

    async def scenario():
        sync_service = QKBflyService(service_session)
        sync_service._run_pipeline = flaky
        async with AsyncQKBflyService(
            sync_service, own_service=True
        ) as service:
            name = _top_queries(service_session, 1)[0]
            with pytest.raises(PipelineFailure):
                await service.serve(QueryRequest(query=name, timeout=30.0))

    asyncio.run(scenario())


def test_deadline_retry_hint_stays_small():
    """The computation keeps running after a timeout and fills the
    cache, so the retry hint must not scale with long deadlines."""
    from repro.service.api import deadline_exceeded

    assert deadline_exceeded(30.0).retry_after == 1.0
    assert deadline_exceeded(0.05).retry_after == 0.05


def test_mutated_config_is_revalidated_by_the_service(service_session):
    config = ServiceConfig()
    config.executor = "fiber"  # mutation after the dataclass hook ran
    with pytest.raises(ValueError, match="executor"):
        QKBflyService(service_session, service_config=config)


def test_serve_batch_isolates_error_slots(service_session):
    with QKBflyService(service_session) as service:
        names = _top_queries(service_session, 2)
        poisoned = "poison pill"
        original = service._run_pipeline

        def selective(query, source, num_documents):
            if "poison" in query:
                raise RuntimeError("bad query")
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = selective
        try:
            results = service.serve_batch(
                [
                    QueryRequest(query=names[0]),
                    QueryRequest(query=poisoned),
                    QueryRequest(query=names[1]),
                ]
            )
        finally:
            service._run_pipeline = original
        assert [r.status for r in results] == [
            QueryStatus.OK,
            QueryStatus.FAILED,
            QueryStatus.OK,
        ]
        assert results[1].kb is None
        assert results[1].error.code == "pipeline_failure"
        assert results[0].kb is not None and results[2].kb is not None


# ---- QKBfly-compatible surface ----------------------------------------------


def test_build_kb_reraises_raw_pipeline_exception(service_session):
    """``build_kb`` stands in for ``QKBfly.build_kb``: the pipeline's
    own exception, not the PipelineFailure that wrapped it."""
    with QKBflyService(service_session) as service:

        def boom(query, source, num_documents):
            raise ValueError("original error")

        service._run_pipeline = boom
        with pytest.raises(ValueError, match="original error"):
            service.build_kb("some uncached query")


# ---- driver parity: one ladder, four drivers -------------------------------

DRIVERS = ("serve", "serve_batch", "async_serve", "async_serve_batch")
COUNTERS = (
    "hits",
    "misses",
    "submitted",
    "deduplicated",
    "overloaded",
    "deadline_rejected",
)


def _drive(driver, service, request):
    """One request through one driver, reduced to what all four can
    report: a raised error and an error envelope look the same, except
    that only an envelope can carry a request key."""
    try:
        if driver == "serve":
            result = service.serve(request)
        elif driver == "serve_batch":
            (result,) = service.serve_batch([request])
        else:

            async def on_loop():
                async with AsyncQKBflyService(service) as front:
                    if driver == "async_serve":
                        return await front.serve(request)
                    (slot,) = await front.serve_batch([request])
                    return slot

            result = asyncio.run(on_loop())
    except ServiceError as error:
        return {"status": error.status, "code": error.code}
    if result.status is QueryStatus.OK:
        assert result.client_id == request.client_id
        assert result.request_key == service.request_key(
            request.query
        ).signature()
    return {
        "status": result.status,
        "code": result.error.code if result.error is not None else None,
        "served_from": result.served_from,
        "has_key": bool(result.request_key),
    }


def _counters(service):
    stats = service.stats()
    admission = stats.get("admission", {})
    return {
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "submitted": stats["executor"]["submitted"],
        "deduplicated": stats["executor"]["deduplicated"],
        "overloaded": admission.get("overloaded", 0),
        "deadline_rejected": admission.get("deadline_rejected", 0),
    }


def _measure(driver, service, request):
    before = _counters(service)
    observed = _drive(driver, service, request)
    after = _counters(service)
    return observed, {name: after[name] - before[name] for name in COUNTERS}


@contextlib.contextmanager
def _gated_pipeline(service):
    """Hold every pipeline run open until the yielded event is set."""
    entered, release = threading.Event(), threading.Event()
    original = service._run_pipeline

    def gated(query, source, num_documents):
        entered.set()
        assert release.wait(timeout=30), "pipeline gate never opened"
        return original(query, source=source, num_documents=num_documents)

    service._run_pipeline = gated
    try:
        yield entered, release
    finally:
        release.set()
        service._run_pipeline = original


@contextlib.contextmanager
def _blocked_flight(service, query):
    """One cold flight for ``query``, parked inside the pipeline."""
    with _gated_pipeline(service) as (entered, release):
        flight = threading.Thread(
            target=service.serve, args=(QueryRequest(query=query),)
        )
        flight.start()
        assert entered.wait(timeout=30)
        try:
            yield release
        finally:
            release.set()
            flight.join(timeout=30)
            assert not flight.is_alive()


def _parity_cache_hit(session, driver, names):
    with QKBflyService(session) as service:
        service.serve(QueryRequest(query=names[0]))
        return _measure(driver, service, QueryRequest(query=names[0]))


def _parity_store_hit(session, driver, names):
    config = ServiceConfig(store_path=":memory:")
    with QKBflyService(session, service_config=config) as service:
        service.serve(QueryRequest(query=names[0]))
        service.cache.clear()
        return _measure(driver, service, QueryRequest(query=names[0]))


def _parity_cold_miss(session, driver, names):
    with QKBflyService(session) as service:
        return _measure(
            driver, service, QueryRequest(query=names[0], client_id="c")
        )


def _parity_join(session, driver, names):
    with QKBflyService(session) as service:
        with _blocked_flight(service, names[0]) as release:
            joined = service._executor.deduplicated

            def release_once_joined():
                deadline = time.monotonic() + 30
                while (
                    service._executor.deduplicated == joined
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                release.set()

            watcher = threading.Thread(target=release_once_joined)
            watcher.start()
            try:
                return _measure(
                    driver, service, QueryRequest(query=names[0])
                )
            finally:
                watcher.join(timeout=30)


def _parity_overloaded_store_rescue(session, driver, names):
    config = ServiceConfig(max_queue_depth=1, store_path=":memory:")
    with QKBflyService(session, service_config=config) as service:
        service.serve(QueryRequest(query=names[1]))
        service.cache.clear()
        with _blocked_flight(service, names[0]):
            return _measure(driver, service, QueryRequest(query=names[1]))


def _parity_overloaded_shed(session, driver, names):
    config = ServiceConfig(max_queue_depth=1, store_path=":memory:")
    with QKBflyService(session, service_config=config) as service:
        with _blocked_flight(service, names[0]):
            return _measure(driver, service, QueryRequest(query=names[1]))


def _parity_deadline_unmet(session, driver, names):
    config = ServiceConfig(max_queue_depth=8)
    with QKBflyService(session, service_config=config) as service:
        for _ in range(8):
            service.queue_wait.record(5.0)
        return _measure(
            driver, service, QueryRequest(query=names[0], timeout=0.5)
        )


def _parity_timeout(session, driver, names):
    with QKBflyService(session) as service:
        with _gated_pipeline(service) as (_, release):
            measured = _measure(
                driver, service, QueryRequest(query=names[0], timeout=0.05)
            )
            # Only the caller stopped waiting: the flight is still
            # parked in the pipeline, and lands once released.
            assert service.stats()["executor"]["pending"] == 1
            release.set()
            deadline = time.monotonic() + 30
            while service._executor.pending and time.monotonic() < deadline:
                time.sleep(0.001)
        assert service.pipeline_runs == 1
        assert service.request_key(names[0]) in service.cache
        return measured


def _parity_pipeline_failure(session, driver, names):
    with QKBflyService(session) as service:

        def boom(query, source, num_documents):
            raise RuntimeError("pipeline exploded")

        service._run_pipeline = boom
        return _measure(driver, service, QueryRequest(query=names[0]))


#: scenario -> (run, expected outcome, expected counter deltas,
#: counters that legitimately differ between blocking and event-loop
#: drivers).
PARITY_SCENARIOS = {
    "cache_hit": (
        _parity_cache_hit,
        (QueryStatus.OK, None, "cache"),
        {"hits": 1, "misses": 0, "submitted": 0},
        (),
    ),
    "store_hit": (
        _parity_store_hit,
        (QueryStatus.OK, None, "store"),
        {"hits": 0, "misses": 1},
        # The event loop reads the store itself through its
        # non-blocking probe; a blocking caller leaves the read to
        # the worker, which costs a flight.
        ("submitted",),
    ),
    "cold_miss": (
        _parity_cold_miss,
        (QueryStatus.OK, None, "executor"),
        {"hits": 0, "misses": 1, "submitted": 1, "deduplicated": 0},
        (),
    ),
    "join": (
        _parity_join,
        (QueryStatus.OK, None, "executor"),
        {"misses": 1, "submitted": 0, "deduplicated": 1},
        (),
    ),
    "overloaded_store_rescue": (
        _parity_overloaded_store_rescue,
        (QueryStatus.OK, None, "store"),
        {"misses": 1, "submitted": 0, "overloaded": 0},
        (),
    ),
    "overloaded_shed": (
        _parity_overloaded_shed,
        (QueryStatus.OVERLOADED, "overloaded", None),
        {"misses": 1, "submitted": 0, "overloaded": 1},
        (),
    ),
    "deadline_unmet": (
        _parity_deadline_unmet,
        (QueryStatus.FAILED, "deadline_unmet", None),
        {"misses": 1, "submitted": 0, "deadline_rejected": 1},
        (),
    ),
    "timeout": (
        _parity_timeout,
        (QueryStatus.FAILED, "timeout", None),
        {"misses": 1, "submitted": 1},
        (),
    ),
    "pipeline_failure": (
        _parity_pipeline_failure,
        (QueryStatus.FAILED, "pipeline_failure", None),
        {"misses": 1, "submitted": 1},
        (),
    ),
}


@pytest.mark.parametrize("scenario", sorted(PARITY_SCENARIOS))
def test_every_driver_takes_the_same_ladder(service_session, scenario):
    """serve, a serve_batch slot, async serve and an async serve_batch
    slot answer one request from the same tier, with the same typed
    outcome, and move the shared counters by the same amounts."""
    run, (status, code, served_from), deltas, loop_differs = PARITY_SCENARIOS[
        scenario
    ]
    names = _top_queries(service_session, 2)
    observed = {}
    counted = {}
    for driver in DRIVERS:
        observed[driver], counted[driver] = run(service_session, driver, names)
        assert observed[driver]["status"] is status, driver
        assert observed[driver]["code"] == code, driver
        # A raised error has no envelope to read a tier or a key from.
        assert observed[driver].get("served_from") == served_from, driver
        for name, delta in deltas.items():
            assert counted[driver][name] == delta, (driver, name)
    assert counted["serve_batch"] == counted["serve"]
    assert counted["async_serve_batch"] == counted["async_serve"]
    for name in COUNTERS:
        if name not in loop_differs:
            assert counted["async_serve"][name] == counted["serve"][name], name
    # Every envelope past admission carries the key, failed or not.
    assert observed["serve_batch"]["has_key"]
    assert observed["async_serve_batch"]["has_key"]
    if status is QueryStatus.OK:
        assert observed["serve"]["has_key"]
        assert observed["async_serve"]["has_key"]


def test_batch_slot_deadline_admission_counts_from_batch_entry(
    service_session,
):
    """A slot whose timeout its predecessors' begin phase already spent
    is rejected at admission (fast 504), never queued: admission and
    the wait read the same clock, started at batch entry."""
    config = ServiceConfig(max_queue_depth=8)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        for _ in range(8):
            service.queue_wait.record(0.05)
        admit = service.admission.admit

        def slow_admit(client_id, shape=None):
            if client_id == "slow":
                time.sleep(0.3)
            return admit(client_id, shape)

        service.admission.admit = slow_admit
        first, second = service.serve_batch(
            [
                QueryRequest(query=names[0], client_id="slow"),
                QueryRequest(query=names[1], timeout=0.2),
            ]
        )
        stats = service.stats()
    assert first.status is QueryStatus.OK
    assert second.error is not None and second.error.code == "deadline_unmet"
    assert stats["executor"]["submitted"] == 1
    assert stats["admission"]["deadline_rejected"] == 1
