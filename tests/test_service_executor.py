"""Batch executor and service facade: concurrency, dedup, equivalence."""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.qkbfly import QKBfly
from repro.kb.facts import KnowledgeBase
from repro.service.api import PipelineFailure, QueryRequest
from repro.service.cache import QueryCache
from repro.service.executor import BatchExecutor
from repro.service.kb_store import KbStore
from repro.service.service import QKBflyService, ServiceConfig


def _requests(queries):
    return [QueryRequest(query=query) for query in queries]


def _service(service_session, **kwargs) -> QKBflyService:
    kwargs.setdefault(
        "service_config", ServiceConfig(max_workers=4, num_documents=1)
    )
    return QKBflyService(service_session, **kwargs)


def _query_names(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


# ---- BatchExecutor in isolation -------------------------------------------


def test_run_batch_preserves_order_and_completes():
    with BatchExecutor(lambda x: x * 2, max_workers=3) as executor:
        results = executor.run_batch(list(range(10)))
    assert results == [x * 2 for x in range(10)]


def test_duplicate_keys_in_batch_computed_once():
    calls = []
    lock = threading.Lock()

    def run(request):
        with lock:
            calls.append(request)
        return request.upper()

    with BatchExecutor(run, max_workers=4) as executor:
        results = executor.run_batch(["a", "b", "a", "a", "b"])
    assert results == ["A", "B", "A", "A", "B"]
    assert sorted(calls) == ["a", "b"]
    assert executor.submitted == 2
    assert executor.deduplicated == 3


def test_in_flight_dedup_shares_one_computation():
    started = threading.Event()
    release = threading.Event()
    calls = []

    def slow(request):
        calls.append(request)
        started.set()
        release.wait(timeout=5)
        return request

    with BatchExecutor(slow, max_workers=4) as executor:
        first = executor.submit("k", "payload")
        assert started.wait(timeout=5)
        second = executor.submit("k", "payload")
        assert second is first  # joined the in-flight computation
        release.set()
        assert first.result(timeout=5) == "payload"
    assert calls == ["payload"]


def test_key_released_after_completion_allows_recompute():
    calls = []
    with BatchExecutor(lambda request: calls.append(request), max_workers=2) as ex:
        ex.submit("k", 1).result(timeout=5)
        ex.submit("k", 2).result(timeout=5)
    assert calls == [1, 2]


def test_shared_flight_cannot_be_cancelled_by_one_caller():
    """A flight's future may be shared by many deduplicated callers, so
    no single caller's cancel() may poison the others' results."""
    started = threading.Event()
    release = threading.Event()

    def slow(request):
        started.set()
        release.wait(timeout=5)
        return request

    with BatchExecutor(slow, max_workers=2) as executor:
        first = executor.submit("k", "payload")
        assert started.wait(timeout=5)
        second = executor.submit("k", "payload")
        assert second is first
        assert not first.cancel()  # flights are uncancellable
        release.set()
        assert first.result(timeout=5) == "payload"
        assert second.result(timeout=5) == "payload"


class _EagerFuture(Future):
    """A pool future that completes immediately but whose done-callbacks
    are deferred until :meth:`release` — the exact interleaving where a
    computation finishes between ``pool.submit`` returning and
    ``add_done_callback`` being registered."""

    def __init__(self) -> None:
        super().__init__()
        self.deferred = []

    def add_done_callback(self, fn) -> None:  # defer instead of firing
        self.deferred.append(fn)

    def release(self) -> None:
        for fn in self.deferred:
            fn(self)


class _EagerPool:
    """Pool stub running submissions synchronously on the caller."""

    def __init__(self) -> None:
        self.futures = []

    def submit(self, fn, *args) -> _EagerFuture:
        future = _EagerFuture()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # pragma: no cover - defensive
            future.set_exception(error)
        self.futures.append(future)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


def test_single_flight_key_never_maps_to_finished_future():
    """Regression: a computation finishing before its done-callback was
    registered used to leave the key mapped to a *completed* future, so
    later submissions joined a stale finished flight instead of seeing
    a live one (and the key could leak past its computation)."""
    executor = BatchExecutor(lambda request: request * 2, max_workers=1)
    executor._pool.shutdown()
    executor._pool = _EagerPool()
    with executor:
        first = executor.submit("k", 1)
        # The pool already ran the computation, but the completion
        # signal has not been delivered: callers must still observe a
        # pending (never a finished) in-flight future.
        assert not first.done()
        second = executor.submit("k", 99)
        assert second is first
        assert executor.deduplicated == 1
        executor._pool.futures[0].release()
        assert first.result(timeout=5) == 2
        assert "k" not in executor._in_flight
        # After completion the key is free: a new submit recomputes.
        third = executor.submit("k", 5)
        assert third is not first
        executor._pool.futures[1].release()
        assert third.result(timeout=5) == 10


def test_exceptions_propagate():
    def boom(request):
        raise ValueError(request)

    with BatchExecutor(boom, max_workers=2) as executor:
        future = executor.submit("k", "bad")
        try:
            future.result(timeout=5)
        except ValueError as error:
            assert str(error) == "bad"
        else:  # pragma: no cover - the test must not reach here
            raise AssertionError("expected ValueError")


# ---- Service facade --------------------------------------------------------


def test_batch_results_identical_to_sequential_runs(service_session):
    queries = _query_names(service_session, 6)
    reference = QKBfly.from_session(service_session)
    expected = [
        reference.build_kb(q, source="wikipedia", num_documents=1).to_dict()
        for q in queries
    ]
    with _service(service_session) as service:
        results = service.serve_batch(_requests(queries))
    assert [r.kb.to_dict() for r in results] == expected


def test_batch_deduplicates_repeated_queries(service_session):
    queries = _query_names(service_session, 2)
    workload = queries * 3  # each query appears three times
    with _service(service_session) as service:
        results = service.serve_batch(_requests(workload))
        assert len(results) == len(workload)
        # Only one pipeline run per distinct query.
        assert service.pipeline_runs == len(queries)
        for i, result in enumerate(results):
            assert result.kb.to_dict() == results[i % len(queries)].kb.to_dict()


def test_query_flows_cache_then_store_then_pipeline(service_session, tmp_path):
    store = KbStore(str(tmp_path / "kb.sqlite"))
    query = _query_names(service_session, 1)[0]
    with _service(service_session, store=store) as service:
        cold = service.serve(QueryRequest(query=query))
        assert not cold.cache_hit and not cold.store_hit
        warm = service.serve(QueryRequest(query=query))
        assert warm.cache_hit
        service.cache.clear()
        from_store = service.serve(QueryRequest(query=query))
        assert from_store.store_hit and not from_store.cache_hit
        assert cold.kb.to_dict() == warm.kb.to_dict() == from_store.kb.to_dict()
        assert service.pipeline_runs == 1


def test_build_kb_is_cached_drop_in(service_session):
    query = _query_names(service_session, 1)[0]
    with _service(service_session) as service:
        first = service.build_kb(query, source="wikipedia", num_documents=1)
        second = service.build_kb(query, source="wikipedia", num_documents=1)
        assert second is first  # the cached, immutable value itself
        assert second.to_dict() == first.to_dict()
        assert service.pipeline_runs == 1


def test_served_kb_mutation_cannot_poison_cache(service_session):
    """A served KB cannot be mutated, so it cannot poison the cache:
    every attempt raises, and merging a duplicate with a higher
    confidence into it makes a new value."""
    query = _query_names(service_session, 1)[0]
    with _service(service_session) as service:
        first = service.build_kb(query, source="wikipedia", num_documents=1)
        baseline = first.to_dict()
        fact = first.facts[0]
        for attempt in (
            lambda: setattr(fact, "confidence", 1.0),
            lambda: first.facts.append(fact),
            lambda: first.add_fact(fact),
            lambda: setattr(first, "facts", ()),
            lambda: first.entity_mentions.__setitem__("E_POISON", {"poison"}),
        ):
            with pytest.raises((FrozenInstanceError, TypeError, AttributeError)):
                attempt()
        bumped = KnowledgeBase([replace(fact, confidence=1.0)])
        merged = KnowledgeBase.merge([first, bumped])
        assert merged is not first and merged.facts[0].confidence == 1.0
        again = service.build_kb(query, source="wikipedia", num_documents=1)
        assert again is first and again.to_dict() == baseline


def test_refresh_corpus_invalidates_cache_and_store(service_session, tmp_path):
    store = KbStore(str(tmp_path / "kb.sqlite"))
    query = _query_names(service_session, 1)[0]
    with _service(service_session, store=store) as service:
        original_version = service.corpus_version
        service.serve(QueryRequest(query=query))
        new_version = service.refresh_corpus(version="test-v2")
        assert new_version == "test-v2" != original_version
        assert len(service.cache) == 0
        assert store.stats()["kb_entries"] == 0
        refreshed = service.serve(QueryRequest(query=query))
        assert not refreshed.cache_hit and not refreshed.store_hit
        assert service.pipeline_runs == 2
        # Restore the session's natural version for other tests.
        service.refresh_corpus(version=original_version)


def test_corpus_version_covers_patterns_and_statistics():
    """Pattern or statistics changes must advance the corpus version."""
    from repro.core.qkbfly import SessionState
    from repro.corpus.world import World, WorldConfig
    from repro.kb.pattern_repository import Relation

    world = World(WorldConfig.tiny(), seed=5)
    session = SessionState.from_world(world, with_search=False)
    v0 = session.corpus_version
    assert session.compute_corpus_version() == v0  # deterministic

    session.pattern_repository.add(
        Relation("test_rel", "testRel", patterns=["testify about"])
    )
    v1 = session.compute_corpus_version()
    assert v1 != v0

    session.statistics.num_docs += 1
    assert session.compute_corpus_version() != v1


def test_concurrent_queries_share_session_safely(service_session):
    """Many threads over one session yield the same KBs as sequential."""
    queries = _query_names(service_session, 8)
    reference = QKBfly.from_session(service_session)
    expected = {
        q: reference.build_kb(q, source="wikipedia", num_documents=1).to_dict()
        for q in queries
    }
    service = _service(
        service_session,
        cache=QueryCache(max_size=4),  # force evictions under concurrency
        service_config=ServiceConfig(max_workers=8),
    )
    with service:
        results = service.serve_batch(_requests(queries * 2))
    for query, result in zip(queries * 2, results):
        assert result.kb.to_dict() == expected[query]


# ---- the fixed request pool ------------------------------------------------


def test_pool_width_is_fixed_at_max_workers(service_session):
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        service.serve(QueryRequest(query=_query_names(service_session, 1)[0]))
        stats = service.stats()
        assert "autoscale" not in stats
        assert stats["pool_workers"] == 2
        assert stats["executor"]["max_workers"] == 2


def test_genuine_pipeline_error_is_not_swallowed(service_session, monkeypatch):
    """A RuntimeError from the pipeline surfaces as a typed
    PipelineFailure carrying the original error as its cause."""
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _query_names(service_session, 1)[0]

        def broken_build_kb(query, source, num_documents):
            raise RuntimeError("cannot schedule: pool shutdown")

        monkeypatch.setattr(service.qkbfly, "build_kb", broken_build_kb)
        with pytest.raises(PipelineFailure, match="pool shutdown") as excinfo:
            service.serve(QueryRequest(query=name))
        assert isinstance(excinfo.value.__cause__, RuntimeError)
