"""Concurrency stress: hammer the sharded store and the query cache
from many threads and check that no update is lost, no entry leaks
across keys/shards, and the aggregate statistics stay consistent.

These tests are about interleavings, not load: operation counts are
sized to finish in seconds while still mixing save/load/delete_stale/
compact (store) and put/get/invalidate (cache) across 8+ threads.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.cache import CacheKey, QueryCache
from repro.service.sharding import ShardedKbStore

NUM_THREADS = 8
OPS_PER_THREAD = 120


def _kb_for(query: str, revision: int) -> KnowledgeBase:
    """A KB whose every field encodes its (query, revision) identity, so
    a load can detect torn writes and cross-key leakage."""
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, f"E_{query}", query),
            predicate=f"rev{revision}",
            objects=[Argument(ARG_ENTITY, f"O_{query}", f"{query}/{revision}")],
            pattern=f"p_{query}",
            confidence=0.5,
            doc_id=f"doc_{query}_{revision}",
            sentence_index=revision,
        )
    )
    kb.observe_mention(f"E_{query}", query)
    return kb.build()


def _check_kb_identity(query: str, kb: KnowledgeBase) -> None:
    """A loaded KB must be exactly one (untorn) revision of its query."""
    assert len(kb.facts) == 1, f"torn write for {query}: {len(kb.facts)} facts"
    fact = kb.facts[0]
    assert fact.subject.value == f"E_{query}", "cross-key leakage"
    revision = fact.sentence_index
    assert fact.predicate == f"rev{revision}"
    assert fact.doc_id == f"doc_{query}_{revision}"
    assert fact.objects[0].display == f"{query}/{revision}"


def test_sharded_store_mixed_ops_under_8_threads(tmp_path):
    store = ShardedKbStore(str(tmp_path / "shards"), num_shards=4)
    queries = [f"q{i}" for i in range(16)]
    errors = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(worker_no: int) -> None:
        rng = random.Random(1000 + worker_no)
        try:
            barrier.wait(timeout=30)
            for op_no in range(OPS_PER_THREAD):
                query = rng.choice(queries)
                dice = rng.random()
                if dice < 0.55:
                    store.save(
                        query,
                        _kb_for(query, worker_no * OPS_PER_THREAD + op_no),
                        corpus_version="v1",
                    )
                elif dice < 0.85:
                    loaded = store.load(query, corpus_version="v1")
                    if loaded is not None:
                        _check_kb_identity(query, loaded)
                elif dice < 0.95:
                    store.delete_stale("v1")  # drops nothing but contends
                else:
                    store.compact(max_entries=12)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress worker deadlocked"
    assert not errors, errors

    # Aggregate consistency: every surviving entry is whole (1 fact, 1
    # object, 1 entity record — no orphans, no partial cascades).
    stats = store.stats()
    assert stats["kb_entries"] <= 16
    assert stats["facts"] == stats["kb_entries"]
    assert stats["fact_objects"] == stats["kb_entries"]
    assert stats["entity_records"] == stats["kb_entries"]
    for query, *_ in store.entries():
        loaded = store.load(query, corpus_version="v1")
        assert loaded is not None, f"listed entry {query} vanished"
        _check_kb_identity(query, loaded)

    # No lost updates: a final save of every key must be readable.
    for query in queries:
        store.save(query, _kb_for(query, 999_999), corpus_version="v1")
    for query in queries:
        loaded = store.load(query, corpus_version="v1")
        assert loaded is not None
        _check_kb_identity(query, loaded)
    assert store.stats()["kb_entries"] == 16
    store.close()


def test_sharded_store_concurrent_disjoint_writers_lose_nothing(tmp_path):
    """Writers on disjoint key ranges: every single write must land."""
    store = ShardedKbStore(str(tmp_path / "shards"), num_shards=4)
    per_thread = 24
    errors = []

    def writer(worker_no: int) -> None:
        try:
            for i in range(per_thread):
                query = f"w{worker_no}-k{i}"
                store.save(query, _kb_for(query, i), corpus_version="v1")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(n,)) for n in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors
    assert store.stats()["kb_entries"] == NUM_THREADS * per_thread
    for worker_no in range(NUM_THREADS):
        for i in range(per_thread):
            query = f"w{worker_no}-k{i}"
            loaded = store.load(query, corpus_version="v1")
            assert loaded is not None, f"lost update: {query}"
            _check_kb_identity(query, loaded)
    store.close()


def test_query_cache_hammered_from_8_threads():
    cache = QueryCache(max_size=24)
    keys = [
        CacheKey.for_request(
            f"q{i}", mode="joint", algorithm="greedy", corpus_version="v1"
        )
        for i in range(40)
    ]
    stale_keys = [
        CacheKey.for_request(
            f"s{i}", mode="joint", algorithm="greedy", corpus_version="v0"
        )
        for i in range(8)
    ]
    errors = []
    gets_done = [0] * NUM_THREADS
    barrier = threading.Barrier(NUM_THREADS)

    def worker(worker_no: int) -> None:
        rng = random.Random(2000 + worker_no)
        try:
            barrier.wait(timeout=30)
            for _ in range(OPS_PER_THREAD):
                dice = rng.random()
                if dice < 0.45:
                    key = rng.choice(keys)
                    cache.put(key, key.query)  # value == its own key
                elif dice < 0.85:
                    key = rng.choice(keys + stale_keys)
                    value = cache.get(key)
                    gets_done[worker_no] += 1
                    if value is not None:
                        assert value == key.query, "value leaked across keys"
                elif dice < 0.95:
                    stale = rng.choice(stale_keys)
                    cache.put(stale, stale.query)
                    cache.invalidate_corpus_version("v1")
                else:
                    assert len(cache) <= cache.max_size
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "cache stress worker deadlocked"
    assert not errors, errors

    stats = cache.stats()
    assert stats["size"] == len(cache) <= cache.max_size
    # Counter ledger: every counted lookup is exactly one hit or miss.
    assert cache.hits + cache.misses == sum(gets_done)
    # Only v1 entries can remain after the final invalidation sweep.
    cache.invalidate_corpus_version("v1")
    for key in stale_keys:
        assert cache.get(key, count=False) is None


def test_engine_snapshots_survive_concurrent_ingests(tiny_world, background):
    """Readers search ``session.search_engine`` snapshots and serve
    queries while one writer ingests 50 documents (adds and replaces
    on both channels). Copy-on-write engines are never edited after
    construction: nothing raises (no "dictionary changed size during
    iteration"), and every snapshot answers a search exactly as it did
    when it was taken, after all the later ingests."""
    import sys

    from repro.core.qkbfly import SessionState
    from repro.corpus.retrieval import SearchEngine
    from repro.service.api import IngestRequest, QueryRequest
    from repro.service.service import QKBflyService, ServiceConfig

    session = SessionState(
        entity_repository=tiny_world.entity_repository,
        pattern_repository=tiny_world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(tiny_world, background.documents),
    )
    service = QKBflyService(
        session, service_config=ServiceConfig(max_workers=2, num_documents=2)
    )
    names = [
        entity.canonical_name
        for entity in sorted(
            session.entity_repository.entities(), key=lambda e: -e.prominence
        )[:6]
    ]
    done = threading.Event()
    errors = []
    snapshots = []  # (engine, query, source, first answer)

    def answer(engine, query, source):
        return [(doc.doc_id, doc.title, doc.text) for doc in engine.search(query, source, k=5)]

    def reader(reader_no: int) -> None:
        rng = random.Random(3000 + reader_no)
        try:
            while not done.is_set():
                engine = session.search_engine
                query = rng.choice(names)
                source = rng.choice(["wikipedia", "news"])
                snapshots.append((engine, query, source, answer(engine, query, source)))
                if rng.random() < 0.2:
                    service.serve(QueryRequest(query=query, source=source))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def writer() -> None:
        try:
            for i in range(50):
                subject, other = names[i % 6], names[(i + 1) % 6]
                service.ingest(
                    IngestRequest(
                        doc_id=f"live-{i % 20}",
                        title=f"{subject} bulletin {i}",
                        text=f"{subject} announced a merger with {other}.",
                        source="news" if i % 3 else "wikipedia",
                    )
                )
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "ingest stress thread deadlocked"
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not errors, errors
    assert service.ingest_pipeline.stats()["ingested"] == 50
    engines = {id(engine) for engine, *_ in snapshots}
    assert len(engines) > 1, "readers never saw an ingest land"
    for engine, query, source, first in snapshots:
        assert answer(engine, query, source) == first


def test_one_hot_key_is_one_shared_value_across_8_threads(service_session):
    """Eight threads — four through ``serve``, four each driving the
    async front end on a loop of their own — hammer one cold key. They
    all receive the one cached KB object (no defensive copy per
    caller), every write attempt on it raises, and its content after
    the storm equals a fresh build's."""
    import asyncio
    from dataclasses import FrozenInstanceError

    from repro.core.qkbfly import QKBfly
    from repro.service.api import QueryRequest
    from repro.service.async_service import AsyncQKBflyService
    from repro.service.service import QKBflyService, ServiceConfig

    name = max(
        service_session.entity_repository.entities(), key=lambda e: e.prominence
    ).canonical_name
    expected = QKBfly.from_session(service_session).build_kb(name, num_documents=2)
    serves_per_thread = 10
    service = QKBflyService(
        service_session, service_config=ServiceConfig(max_workers=4, num_documents=2)
    )
    start = threading.Barrier(NUM_THREADS)
    kbs, errors = [], []

    def check(kb) -> None:
        with pytest.raises(FrozenInstanceError):
            kb.facts[0].confidence = 0.0
        with pytest.raises(TypeError):
            kb.entity_types["E_POISON"] = ("poison",)
        kbs.append(kb)

    def sync_caller() -> None:
        try:
            start.wait()
            for _ in range(serves_per_thread):
                check(service.serve(QueryRequest(query=name)).kb)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def async_caller() -> None:
        async def run() -> None:
            front = AsyncQKBflyService(service, dispatch_workers=1)
            try:
                start.wait()
                for _ in range(serves_per_thread):
                    check((await front.serve(QueryRequest(query=name))).kb)
            finally:
                await front.aclose()

        try:
            asyncio.run(run())
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    with service:
        threads = [threading.Thread(target=sync_caller) for _ in range(4)]
        threads += [threading.Thread(target=async_caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "hot-key thread deadlocked"
        assert not errors, errors
        assert len(kbs) == NUM_THREADS * serves_per_thread
        assert len({id(kb) for kb in kbs}) == 1
        assert service.pipeline_runs == 1
        assert kbs[0].to_dict() == expected.to_dict()
