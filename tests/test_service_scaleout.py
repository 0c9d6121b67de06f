"""End-to-end scale-out serving: sharded store + process executor +
cache warm-up + compaction, asserting parity with the uncached pipeline."""

from __future__ import annotations

import pytest

from repro.core.qkbfly import QKBfly
from repro.service.api import QueryRequest
from repro.service.service import QKBflyService, ServiceConfig
from repro.service.sharding import ShardedKbStore


def _requests(queries):
    return [QueryRequest(query=query) for query in queries]


def _top_queries(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


def _expected_kbs(service_session, queries):
    reference = QKBfly.from_session(service_session)
    return {
        q: reference.build_kb(q, source="wikipedia", num_documents=1).to_dict()
        for q in queries
    }


def test_sharded_process_service_cold_warm_parity(service_session, tmp_path):
    """The full scale-out stack must serve byte-identical answers to the
    uncached QKBfly path, cold and warm, for a repeated/overlapping
    batch workload."""
    queries = _top_queries(service_session, 6)
    expected = _expected_kbs(service_session, queries)
    workload = queries * 2 + queries[:3]  # repeats and overlaps
    config = ServiceConfig(
        max_workers=4,
        executor="process",
        process_workers=2,
        store_path=str(tmp_path / "shards"),
        store_shards=3,
    )
    with QKBflyService(service_session, service_config=config) as service:
        cold = service.serve_batch(_requests(workload))
        assert len(cold) == len(workload)
        for query, result in zip(workload, cold):
            assert result.kb.to_dict() == expected[query], query
        assert service.pipeline_runs == len(queries)  # dedup held
        warm = [service.serve(QueryRequest(query=q)) for q in queries]
        assert all(r.cache_hit for r in warm)
        for query, result in zip(queries, warm):
            assert result.kb.to_dict() == expected[query]
        stats = service.stats()
        assert stats["pipeline_executor"]["kind"] == "process"
        assert stats["store"]["shards"] == 3
        assert stats["store"]["kb_entries"] == len(queries)


def test_restart_with_warm_cache_serves_hits_without_pipeline(
    service_session, tmp_path
):
    queries = _top_queries(service_session, 4)
    expected = _expected_kbs(service_session, queries)
    store_dir = str(tmp_path / "shards")
    base = dict(store_path=store_dir, store_shards=2, max_workers=2)
    with QKBflyService(
        service_session, service_config=ServiceConfig(**base)
    ) as service:
        service.serve_batch(_requests(queries))

    # "Restart": a fresh service over the same store, warmed on start.
    warm_config = ServiceConfig(**base, warm_cache_on_start=True)
    with QKBflyService(
        service_session, service_config=warm_config
    ) as restarted:
        assert len(restarted.cache) == len(queries)
        for query in queries:
            result = restarted.serve(QueryRequest(query=query))
            assert result.cache_hit
            assert result.kb.to_dict() == expected[query]
        assert restarted.pipeline_runs == 0


def test_warm_cache_respects_limit_and_servability(service_session, tmp_path):
    queries = _top_queries(service_session, 5)
    store_dir = str(tmp_path / "shards")
    base = dict(store_path=store_dir, store_shards=2, max_workers=2)
    with QKBflyService(
        service_session, service_config=ServiceConfig(**base)
    ) as service:
        service.serve_batch(_requests(queries))
        # Plant a stale-version row: warm-up must skip it.
        from repro.service.cache import normalize_query

        stale_kb = service.store.load(
            normalize_query(queries[0]),
            corpus_version=service.corpus_version,
            config_digest=service._config_digest,
        )
        assert stale_kb is not None
        service.store.save(
            "stale query",
            stale_kb,
            corpus_version="ancient-version",
            config_digest=service._config_digest,
        )

    with QKBflyService(
        service_session, service_config=ServiceConfig(**base)
    ) as restarted:
        loaded = restarted.warm_cache(limit=3)
        assert loaded == 3
        assert len(restarted.cache) == 3
        # A second warm-up adds only what is missing, never duplicates.
        loaded_again = restarted.warm_cache()
        assert loaded_again == len(queries) - 3
        assert len(restarted.cache) == len(queries)


def test_warmed_entries_evict_oldest_first(service_session, tmp_path):
    """Warm-up must leave the *newest* stored entries most-recently-used:
    post-restart traffic then evicts the oldest warmed entry first."""
    queries = _top_queries(service_session, 5)
    store_dir = str(tmp_path / "shards")
    base = dict(store_path=store_dir, store_shards=2, max_workers=2)
    with QKBflyService(
        service_session, service_config=ServiceConfig(**base)
    ) as service:
        for query in queries:  # q[4] is saved last -> newest
            service.serve(QueryRequest(query=query))

    small = ServiceConfig(**base, cache_size=3, warm_cache_on_start=True)
    with QKBflyService(service_session, service_config=small) as restarted:
        assert len(restarted.cache) == 3  # the three newest: q[2..4]
        # One new cold query fills the cache past capacity...
        restarted.serve(QueryRequest(query="brand new query nobody stored"))
        # ...evicting the *oldest* warmed entry, not the newest.
        assert restarted.serve(QueryRequest(query=queries[4])).cache_hit
        assert restarted.serve(QueryRequest(query=queries[3])).cache_hit
        assert not restarted.serve(QueryRequest(query=queries[2])).cache_hit


def test_service_compaction_policy_applies_from_config(
    service_session, tmp_path
):
    queries = _top_queries(service_session, 5)
    config = ServiceConfig(
        store_path=str(tmp_path / "shards"),
        store_shards=2,
        max_workers=2,
        store_max_entries=2,
    )
    with QKBflyService(service_session, service_config=config) as service:
        service.serve_batch(_requests(queries))
        assert service.store.stats()["kb_entries"] == len(queries)
        removed = service.compact_store()
        assert removed == len(queries) - 2
        assert service.store.stats()["kb_entries"] == 2
        # No policy, no arguments: a safe no-op.
        service.service_config.store_max_entries = None
        assert service.compact_store() == 0


def test_compact_store_on_start_trims_reopened_store(
    service_session, tmp_path
):
    queries = _top_queries(service_session, 4)
    store_dir = str(tmp_path / "shards")
    with QKBflyService(
        service_session,
        service_config=ServiceConfig(
            store_path=store_dir, store_shards=2, max_workers=2
        ),
    ) as service:
        service.serve_batch(_requests(queries))

    reopened_config = ServiceConfig(
        store_path=store_dir,
        store_shards=2,
        max_workers=2,
        store_max_entries=1,
        compact_store_on_start=True,
    )
    with QKBflyService(
        service_session, service_config=reopened_config
    ) as restarted:
        assert restarted.store.stats()["kb_entries"] == 1


def test_refresh_corpus_rebuilds_process_workers(service_session, tmp_path):
    query = _top_queries(service_session, 1)[0]
    config = ServiceConfig(
        max_workers=2,
        executor="process",
        process_workers=2,
        store_path=str(tmp_path / "shards"),
        store_shards=2,
    )
    with QKBflyService(service_session, service_config=config) as service:
        original_version = service.corpus_version
        before = service.serve(QueryRequest(query=query))
        assert not before.cache_hit
        old_executor = service._pipeline_executor
        service.refresh_corpus(version="scaleout-v2")
        try:
            assert service._pipeline_executor is not old_executor
            refreshed = service.serve(QueryRequest(query=query))
            assert not refreshed.cache_hit and not refreshed.store_hit
            assert refreshed.kb.to_dict() == before.kb.to_dict()
            assert service.pipeline_runs == 2
        finally:
            service.refresh_corpus(version=original_version)


def test_unknown_executor_kind_is_rejected(service_session):
    with pytest.raises(ValueError, match="executor"):
        QKBflyService(
            service_session,
            service_config=ServiceConfig(executor="fiber"),
        )


def test_service_accepts_preopened_sharded_store(service_session, tmp_path):
    queries = _top_queries(service_session, 3)
    expected = _expected_kbs(service_session, queries)
    store = ShardedKbStore(str(tmp_path / "shards"), num_shards=2)
    with QKBflyService(
        service_session,
        service_config=ServiceConfig(max_workers=2),
        store=store,
    ) as service:
        for query in queries:
            result = service.serve(QueryRequest(query=query))
            assert result.kb.to_dict() == expected[query]
        service.cache.clear()
        hit = service.serve(QueryRequest(query=queries[0]))
        assert hit.store_hit and not hit.cache_hit
