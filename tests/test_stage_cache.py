"""Stage-level pipeline caching: signatures, policy, reuse correctness.

Three layers of coverage:

1. unit — `stage_signature` stability/separation and the `StageCache`
   container semantics (LRU, TTL with an injected clock, byte budgets,
   clear, stats) with no pipeline in sight;
2. integration — a `QKBfly` over a session with a stage cache must
   produce *bit-identical* KBs to an uncached run (the cache is a pure
   memoization layer), reuse NLP/extraction across overlapping
   queries, and react to a corpus bump exactly as documented in
   docs/PIPELINE.md (retrieval keys rotate, content-addressed NLP
   entries keep hitting for unchanged documents);
3. concurrency — a hammer over one small cache must never corrupt the
   LRU bookkeeping (the cache is shared by every worker thread of a
   deployment);
4. the fragment stage — each document's KB is built once per config,
   not once per query that retrieves it: the exact count fence, config
   isolation, no write-through from a served KB to a cached fragment,
   the ILP bypass, and a statistics swap making old fragments
   unreachable.
"""

from __future__ import annotations

import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.core.qkbfly import QKBfly, QKBflyConfig, SessionState
from repro.corpus.retrieval import SearchEngine
from repro.corpus.statistics import compute_statistics
from repro.corpus.world import World, WorldConfig
from repro.service.api import QueryRequest
from repro.service.service import QKBflyService, ServiceConfig
from repro.service.stage_cache import (
    STAGE_EXTRACT,
    STAGE_FRAGMENT,
    STAGE_NLP,
    STAGE_RETRIEVAL,
    StageCache,
    StagePolicy,
    normalized_query_text,
    stage_signature,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def stage_session(tiny_world, background) -> SessionState:
    """A private session per test: stage-cache tests mutate session
    state (corpus_version, the installed cache), which must never leak
    into the shared session-scoped fixtures."""
    return SessionState(
        entity_repository=tiny_world.entity_repository,
        pattern_repository=tiny_world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(
            tiny_world, background.documents
        ),
    )


def _query_names(session, count: int):
    entities = sorted(
        session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


# ---- signatures ------------------------------------------------------------


def test_stage_signature_is_stable_and_separates_parts():
    a = stage_signature("nlp", "config", "doc")
    assert a == stage_signature("nlp", "config", "doc")
    assert len(a) == 16 and int(a, 16) >= 0
    # Different stage, same parts: different namespace.
    assert a != stage_signature("extract", "config", "doc")
    # Any part change changes the signature.
    assert a != stage_signature("nlp", "config2", "doc")
    # Parts cannot collide into their neighbors ("ab"+"c" vs "a"+"bc").
    assert stage_signature("s", "ab", "c") != stage_signature("s", "a", "bc")


def test_normalized_query_text_folds_case_and_whitespace():
    assert normalized_query_text("  Brad   PITT \n") == "brad pitt"
    assert normalized_query_text("brad pitt") == "brad pitt"


def test_stage_policy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StagePolicy(max_entries=0)
    with pytest.raises(ValueError):
        StagePolicy(ttl_seconds=0)
    with pytest.raises(ValueError):
        StagePolicy(max_bytes=0)
    # None disables the optional bounds rather than failing.
    StagePolicy(ttl_seconds=None, max_bytes=None)


# ---- container semantics ---------------------------------------------------


def test_lru_eviction_prefers_recently_used():
    cache = StageCache(policy=StagePolicy(max_entries=2))
    cache.put("nlp", "a", 1, size_bytes=1)
    cache.put("nlp", "b", 2, size_bytes=1)
    assert cache.get("nlp", "a") == 1  # refreshes a's recency
    cache.put("nlp", "c", 3, size_bytes=1)  # evicts b, the LRU
    assert cache.get("nlp", "b") is None
    assert cache.get("nlp", "a") == 1
    assert cache.get("nlp", "c") == 3
    assert cache.stats()["stages"]["nlp"]["evictions"] == 1


def test_ttl_expires_lazily_on_lookup():
    clock = FakeClock()
    cache = StageCache(
        policy=StagePolicy(ttl_seconds=10.0), clock=clock
    )
    cache.put("retrieval", "sig", ["d1"], size_bytes=8)
    clock.advance(9.0)
    assert cache.get("retrieval", "sig") == ["d1"]
    clock.advance(2.0)  # 11s after insertion: expired
    assert cache.get("retrieval", "sig") is None
    stats = cache.stats()["stages"]["retrieval"]
    assert stats["expirations"] == 1
    assert stats["entries"] == 0
    # An expired lookup is also a miss (reuse_ratio stays honest).
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_byte_budget_evicts_and_rejects_oversized_values():
    cache = StageCache(
        policy=StagePolicy(max_entries=100, max_bytes=100)
    )
    cache.put("nlp", "a", "x", size_bytes=60)
    cache.put("nlp", "b", "y", size_bytes=60)  # 120 > 100: evicts a
    assert cache.get("nlp", "a") is None
    assert cache.get("nlp", "b") == "y"
    # A single value larger than the whole budget must not flush the
    # shard; it is rejected outright.
    cache.put("nlp", "c", "huge", size_bytes=500)
    assert cache.get("nlp", "c") is None
    assert cache.get("nlp", "b") == "y"
    stats = cache.stats()["stages"]["nlp"]
    assert stats["rejected"] == 1
    assert stats["bytes"] == 60


def test_per_stage_policy_overrides():
    cache = StageCache(
        policy=StagePolicy(max_entries=100),
        overrides={"retrieval": StagePolicy(max_entries=1)},
    )
    assert cache.policy_for("retrieval").max_entries == 1
    assert cache.policy_for("nlp").max_entries == 100
    cache.put("retrieval", "a", 1, size_bytes=1)
    cache.put("retrieval", "b", 2, size_bytes=1)
    assert cache.get("retrieval", "a") is None  # evicted at 1 entry


def test_clear_reclaims_entries_but_keeps_counters():
    cache = StageCache()
    cache.put("nlp", "a", 1, size_bytes=4)
    cache.put("extract", "b", 2, size_bytes=4)
    assert cache.get("nlp", "a") == 1
    assert cache.clear("retrieval") == 0  # untouched stage: no-op
    assert cache.clear("nlp") == 1
    assert cache.get("nlp", "a") is None
    stats = cache.stats()
    assert stats["stages"]["nlp"]["hits"] == 1  # counters survive
    assert stats["stages"]["extract"]["entries"] == 1
    assert cache.clear() == 1  # all stages
    assert cache.stats()["entries"] == 0


def test_stats_totals_and_reuse_ratio():
    cache = StageCache()
    assert cache.reuse_ratio == 0.0  # idle, not a division error
    cache.put("nlp", "a", 1, size_bytes=4)
    cache.get("nlp", "a")
    cache.get("nlp", "missing")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["puts"] == 1 and stats["bytes"] == 4
    assert stats["reuse_ratio"] == pytest.approx(1 / 2)
    assert cache.reuse_ratio == pytest.approx(1 / 2)


# ---- pipeline integration --------------------------------------------------


def test_cross_query_reuse_is_bit_identical(stage_session):
    names = _query_names(stage_session, 2)
    queries = [names[0], f"{names[0]} spouse", names[1]]

    stage_session.stage_cache = None
    reference = QKBfly.from_session(stage_session)
    expected = [reference.build_kb(q).to_dict() for q in queries]

    stage_session.stage_cache = StageCache()
    cached_run = QKBfly.from_session(stage_session)
    # Two passes: the second is served almost entirely from the cache.
    for _ in range(2):
        actual = [cached_run.build_kb(q).to_dict() for q in queries]
        assert actual == expected
    stats = stage_session.stage_cache.stats()
    # The overlapping query pair shares its document's NLP and
    # extraction products; the second pass reuses everything.
    assert stats["stages"][STAGE_NLP]["hits"] > 0
    assert stats["stages"][STAGE_EXTRACT]["hits"] > 0
    assert stats["stages"][STAGE_RETRIEVAL]["hits"] > 0
    assert stage_session.stage_cache.reuse_ratio > 0.0


def test_overlap_workload_reuse_is_an_exact_lookup_count():
    """Eight names then "<name> spouse" on the reference world, served
    by a service that installs its own stage cache: the variants miss
    every result tier and retrieval (new query text), and hit nlp,
    extract and fragment once per document — exactly 24 of 64 stage
    lookups — with every KB bit-identical to a stage-cache-free build.
    A ``stage_cache_enabled=False`` service over the same session
    installs no cache."""
    session = SessionState.from_world(World(WorldConfig(), seed=7))
    session.stage_cache = None
    names = _query_names(session, 8)
    queries = names + [f"{name} spouse" for name in names]
    reference = QKBfly.from_session(session)
    expected = [
        reference.build_kb(query, num_documents=1).to_dict()
        for query in queries
    ]
    control = ServiceConfig(max_workers=2, stage_cache_enabled=False)
    with QKBflyService(session, service_config=control) as service:
        service.serve(QueryRequest(query=queries[0]))
    assert session.stage_cache is None

    with QKBflyService(
        session, service_config=ServiceConfig(max_workers=2)
    ) as service:
        results = [service.serve(QueryRequest(query=q)) for q in queries]
        stats = service.stats()["stage_cache"]
    assert [r.served_from for r in results] == ["executor"] * len(queries)
    assert [r.kb.to_dict() for r in results] == expected
    assert (stats["hits"], stats["hits"] + stats["misses"]) == (24, 64)
    assert stats["stages"][STAGE_RETRIEVAL]["hits"] == 0


def test_corpus_bump_rotates_retrieval_keys_but_not_nlp(stage_session):
    stage_session.stage_cache = StageCache()
    qkbfly = QKBfly.from_session(stage_session)
    name = _query_names(stage_session, 1)[0]
    first = qkbfly.build_kb(name).to_dict()
    stats = stage_session.stage_cache.stats()["stages"]
    assert stats[STAGE_RETRIEVAL]["misses"] == 1

    # Bump the version without changing any document content: the
    # retrieval signature rotates (a fresh miss), but the NLP stage is
    # keyed on document *content*, so the annotation still hits.
    stage_session.corpus_version = "bumped-version"
    second = qkbfly.build_kb(name).to_dict()
    stats = stage_session.stage_cache.stats()["stages"]
    assert stats[STAGE_RETRIEVAL]["misses"] == 2
    assert stats[STAGE_RETRIEVAL]["hits"] == 0
    assert stats[STAGE_NLP]["hits"] == 1
    assert stats[STAGE_EXTRACT]["hits"] == 1
    assert second == first  # unchanged corpus content, unchanged KB


def test_uncached_session_never_touches_a_cache(stage_session):
    stage_session.stage_cache = None
    qkbfly = QKBfly.from_session(stage_session)
    name = _query_names(stage_session, 1)[0]
    assert qkbfly.build_kb(name).facts  # runs clean with no cache


def test_retrieval_entries_resolve_against_live_search(stage_session):
    """A retrieval hit replays *document ids*, not documents: the
    realized docs come from the live search engine, so a cached id
    that no longer resolves falls back to a fresh search."""
    stage_session.stage_cache = StageCache()
    qkbfly = QKBfly.from_session(stage_session)
    name = _query_names(stage_session, 1)[0]
    qkbfly.build_kb(name)
    before = stage_session.stage_cache.stats()["stages"][STAGE_RETRIEVAL]
    assert before["puts"] == 1
    # Same query again: the id list hits and resolves.
    qkbfly.build_kb(name)
    after = stage_session.stage_cache.stats()["stages"][STAGE_RETRIEVAL]
    assert after["hits"] == 1


# ---- the fragment stage ----------------------------------------------------


def test_fragment_count_fence_on_the_overlap_variants_op_list(
    process_document_calls,
):
    """ROADMAP item 2's first fence, exact: the reference world has 240
    documents, so however many queries retrieve them the graph stages
    run at most 240 times — and not at all for the 1 600 variant
    queries once every base name has been served (3 139 at the parent
    of this test)."""
    calls = process_document_calls
    session = SessionState.from_world(World(WorldConfig(), seed=7))
    session.stage_cache = StageCache()
    qkbfly = QKBfly.from_session(session)
    names = _query_names(session, len(session.entity_repository.entities()))
    channels = ("wikipedia", "news")
    for name in names:
        for channel in channels:
            qkbfly.build_kb(name, source=channel, num_documents=2)
    after_base = len(calls)
    variants = [
        (f"{name} {suffix}", channel)
        for name in names
        for suffix in ("spouse", "born", "award", "founded")
        for channel in channels
    ]
    assert len(variants) == 1600
    for query, channel in variants:
        qkbfly.build_kb(query, source=channel, num_documents=2)
    assert len(calls) == after_base  # 0 in the variant window
    assert len(calls) == len(set(calls)) <= 240  # once per document
    stats = session.stage_cache.stats()["stages"][STAGE_FRAGMENT]
    assert stats["puts"] == stats["misses"] == len(calls)
    assert stats["evictions"] == 0


def test_two_configs_over_one_session_never_share_fragments(
    stage_session, process_document_calls
):
    name = _query_names(stage_session, 1)[0]
    configs = [
        QKBflyConfig(),
        QKBflyConfig(tau=0.9),
        QKBflyConfig(triples_only=True),
        QKBflyConfig(mode="noun"),
    ]
    stage_session.stage_cache = None
    expected = [
        QKBfly.from_session(stage_session, config)
        .build_kb(name, num_documents=2)
        .to_dict()
        for config in configs
    ]
    stage_session.stage_cache = StageCache()
    del process_document_calls[:]  # the reference builds above
    for _ in range(2):
        actual = [
            QKBfly.from_session(stage_session, config)
            .build_kb(name, num_documents=2)
            .to_dict()
            for config in configs
        ]
        assert actual == expected
    stats = stage_session.stage_cache.stats()["stages"]
    # Every config built its own fragments (the first pass never hit)
    # while all four shared one annotation and one extraction.
    documents = stats[STAGE_NLP]["puts"]
    assert (
        len(process_document_calls)
        == stats[STAGE_FRAGMENT]["puts"]
        == 4 * documents
    )
    assert stats[STAGE_FRAGMENT]["hits"] == 4 * documents
    assert stats[STAGE_EXTRACT]["puts"] == documents


def test_served_kb_never_writes_through_to_a_cached_fragment(stage_session):
    """The answer shares its cached fragments' rows, and no part of it
    can be written: every mutation attempt raises."""
    stage_session.stage_cache = StageCache()
    qkbfly = QKBfly.from_session(stage_session)
    name = _query_names(stage_session, 1)[0]
    first = qkbfly.build_kb(name, num_documents=2)
    assert stage_session.stage_cache.stats()["stages"][STAGE_FRAGMENT]["puts"] == 2
    expected = first.to_dict()
    fragments = [
        qkbfly.document_fragment(document)
        for document in qkbfly._retrieval_stage(name, "wikipedia", 2)
    ]
    shared = {id(fact) for fragment in fragments for fact in fragment.facts}
    assert first.facts and all(id(fact) in shared for fact in first.facts)
    for fact in first.facts:
        with pytest.raises(FrozenInstanceError):
            fact.confidence = 0.0
        with pytest.raises(AttributeError):
            fact.objects.clear()
    for emerging in first.emerging.values():
        with pytest.raises(AttributeError):
            emerging.mentions.append("scribble")
    for mentions in first.entity_mentions.values():
        with pytest.raises(AttributeError):
            mentions.add("scribble")
    for types in first.entity_types.values():
        with pytest.raises(AttributeError):
            types.append("scribble")
    with pytest.raises(TypeError):
        first.entity_types["E_SCRIBBLE"] = ("scribble",)
    with pytest.raises(TypeError):  # merge folds KBs into a new one
        first.merge(qkbfly.build_kb(_query_names(stage_session, 2)[1]))
    assert qkbfly.build_kb(name, num_documents=2).to_dict() == expected


def test_ilp_builds_bypass_the_fragment_stage(stage_session):
    """The ILP solver stops on a wall-clock budget: its fragment is not
    a function of the document alone, so it is never cached."""
    stage_session.stage_cache = StageCache()
    qkbfly = QKBfly.from_session(
        stage_session, QKBflyConfig(algorithm="ilp", ilp_time_budget=2.0)
    )
    name = _query_names(stage_session, 1)[0]
    assert qkbfly.build_kb(name).to_dict() == qkbfly.build_kb(name).to_dict()
    stats = stage_session.stage_cache.stats()["stages"]
    assert stats[STAGE_EXTRACT]["hits"] == 1  # upstream still cached
    assert stats.get(STAGE_FRAGMENT, {}).get("puts", 0) == 0


def test_refresh_with_new_statistics_makes_old_fragments_unreachable(
    tiny_world, background, stage_session
):
    """The fragment key carries the statistics fingerprint: after
    ``refresh_corpus(statistics=...)`` every answer equals a
    stage-cache-free build over the new statistics, while annotation
    and extraction (which never read them) keep hitting."""
    service = QKBflyService(
        stage_session, service_config=ServiceConfig(num_documents=2)
    )
    names = _query_names(stage_session, 2)
    with service:
        for name in names:
            service.serve(QueryRequest(query=name))
        before = service.stats()["stage_cache"]["stages"]
        thinner = compute_statistics(
            tiny_world, background.documents[: len(background.documents) // 2]
        )
        service.refresh_corpus(statistics=thinner)
        served = [
            service.serve(QueryRequest(query=name)).kb.to_dict()
            for name in names
        ]
        after = service.stats()["stage_cache"]["stages"]
    reference = QKBfly(
        entity_repository=stage_session.entity_repository,
        pattern_repository=stage_session.pattern_repository,
        statistics=thinner,
        search_engine=stage_session.search_engine,
    )
    assert served == [
        reference.build_kb(name, num_documents=2).to_dict() for name in names
    ]
    assert after[STAGE_FRAGMENT]["hits"] == before[STAGE_FRAGMENT]["hits"]
    assert after[STAGE_FRAGMENT]["misses"] > before[STAGE_FRAGMENT]["misses"]
    assert after[STAGE_NLP]["misses"] == before[STAGE_NLP]["misses"]


def test_in_place_mutation_announced_by_refresh_rotates_fragment_keys(
    stage_session,
):
    """Static fingerprints are memoised on the session; ``refresh_corpus``
    with no arguments announces an in-place change and must drop them."""
    import copy

    stage_session.statistics = copy.deepcopy(stage_session.statistics)
    service = QKBflyService(stage_session, service_config=ServiceConfig())
    name = _query_names(stage_session, 1)[0]
    with service:
        service.serve(QueryRequest(query=name))
        version = stage_session.corpus_version
        memoised = stage_session.fingerprint_of(stage_session.statistics)
        stage_session.statistics.num_docs += 1000
        assert stage_session.fingerprint_of(stage_session.statistics) == memoised
        assert service.refresh_corpus() != version
        assert stage_session.fingerprint_of(stage_session.statistics) != memoised
        served = service.serve(QueryRequest(query=name))
        stats = service.stats()["stage_cache"]["stages"]
    assert served.served_from == "executor"
    assert stats[STAGE_FRAGMENT]["hits"] == 0
    assert stats[STAGE_FRAGMENT]["misses"] == 2
    assert stats[STAGE_NLP]["hits"] == 1  # annotation never read them


def test_fragment_stage_stats_block_and_policy_override(stage_session):
    service = QKBflyService(
        stage_session,
        service_config=ServiceConfig(
            stage_cache_policies={STAGE_FRAGMENT: StagePolicy(max_entries=1)}
        ),
    )
    with service:
        for name in _query_names(stage_session, 3):
            service.serve(QueryRequest(query=name))
            service.serve(QueryRequest(query=f"{name} spouse"))
        block = service.stats()["stage_cache"]["stages"][STAGE_FRAGMENT]
    assert block["max_entries"] == 1 and block["entries"] == 1
    assert block["misses"] == block["puts"] == 3
    assert block["hits"] == 3  # each variant re-read its base's document
    assert block["evictions"] == 2
    # Sized from the fragment's counts, not by pickling it.
    assert 0 < block["bytes"] < 64 * 1024


# ---- concurrency -----------------------------------------------------------


def test_thread_safety_hammer_keeps_bookkeeping_consistent():
    cache = StageCache(
        policy=StagePolicy(max_entries=8, max_bytes=200)
    )
    errors = []

    def hammer(worker: int) -> None:
        try:
            for i in range(300):
                sig = stage_signature("nlp", str((worker * 7 + i) % 24))
                if i % 3 == 0:
                    cache.put("nlp", sig, i, size_bytes=10)
                elif i % 7 == 0:
                    # Unpicklable values mixed into the contention: they
                    # must be rejected without disturbing bookkeeping.
                    cache.put("nlp", sig, lambda: None)
                else:
                    cache.get("nlp", sig)
                if i % 50 == 0:
                    cache.clear("nlp")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    shard = cache._shards["nlp"]
    assert len(shard.entries) <= 8
    # Budget invariants: accounted bytes exactly mirror the stored
    # sizes and never exceed the stage budget — the bug fixed in
    # _estimate_size was unaccounted weight sneaking past this.
    assert shard.total_bytes == sum(shard.sizes.values())
    assert shard.total_bytes <= 200
    assert shard.unpicklable > 0  # the hammer did exercise rejections
    assert set(shard.entries) == set(shard.inserted_at) == set(shard.sizes)


def test_unpicklable_values_rejected_and_counted():
    """An unpicklable value gets no ``sys.getsizeof`` guess anymore: it
    is refused outright and surfaced in stats (satellite bugfix)."""
    cache = StageCache(policy=StagePolicy(max_entries=4, max_bytes=1000))
    sig = stage_signature("nlp", "unpicklable")
    cache.put("nlp", sig, lambda: None)  # lambdas cannot pickle
    assert cache.get("nlp", sig) is None
    stats = cache.stats()
    assert stats["unpicklable"] == 1
    assert stats["rejected"] == 1
    assert stats["entries"] == 0
    assert stats["bytes"] == 0
    # An explicit size override bypasses estimation entirely — callers
    # that know the payload weight may still cache such values.
    cache.put("nlp", sig, lambda: None, size_bytes=64)
    assert cache.get("nlp", sig) is not None
    assert cache.stats()["bytes"] == 64
