"""Property-based tests (hypothesis): shard routing, rebalancing,
cache LRU+TTL invariants and the ingest fast paths (entity matcher,
indexed version vector, copy-on-write BM25), each checked against a
reference model."""

from __future__ import annotations

import tempfile
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.retrieval import Bm25Index
from repro.faultinject.checker import (
    VIOLATION_DIVERGENT_CONTENT,
    MonotonicFreshnessChecker,
)
from repro.faultinject.history import HistoryRecorder
from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.cache import CacheKey, QueryCache
from repro.service.ingest.match import (
    EntityMatcher,
    normalize_entity,
    query_touches,
)
from repro.service.ingest.versions import EntityVersionVector
from repro.service.sharding import ShardedKbStore, shard_index

# SQLite TEXT and utf-8 hashing both need real characters: no lone
# surrogates, no NUL.
_QUERY_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    min_size=1,
    max_size=24,
)

_SIGNATURES = st.fixed_dictionaries(
    {
        "query": _QUERY_TEXT,
        "mode": st.sampled_from(["joint", "pipeline", "noun"]),
        "algorithm": st.sampled_from(["greedy", "ilp"]),
        "source": st.sampled_from(["wikipedia", "news"]),
        "num_documents": st.integers(min_value=1, max_value=5),
        "config_digest": st.sampled_from(["", "abc123", "ffee00"]),
    }
)


def _kb(tag: str) -> KnowledgeBase:
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, "E", tag),
            predicate="is",
            objects=[Argument(ARG_ENTITY, "O", tag)],
            pattern="is",
            confidence=1.0,
            doc_id=f"doc:{tag}",
            sentence_index=0,
        )
    )
    return kb.build()


# ---- shard routing ----------------------------------------------------------


@given(signature=_SIGNATURES, num_shards=st.integers(1, 64))
def test_shard_index_stable_and_in_range(signature, num_shards):
    """Same signature, same shard — always, and always a legal one."""
    first = shard_index(num_shards=num_shards, **signature)
    assert 0 <= first < num_shards
    for _ in range(3):
        assert shard_index(num_shards=num_shards, **signature) == first


@given(
    queries=st.lists(_QUERY_TEXT, unique=True, min_size=1, max_size=10),
    old_shards=st.integers(1, 6),
    new_shards=st.integers(1, 6),
)
@settings(max_examples=20, deadline=None)
def test_rebalance_preserves_every_entry(queries, old_shards, new_shards):
    """Rebalancing N -> M loses nothing and re-routes everything."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = f"{tmp}/shards"
        with ShardedKbStore(directory, num_shards=old_shards) as store:
            for i, query in enumerate(queries):
                store.save(
                    query,
                    _kb(f"t{i}"),
                    corpus_version="v1",
                    created_at=10.0 + i,
                )
            store.set_corpus_version("v1")
        rebalanced = ShardedKbStore.rebalance(directory, new_shards)
        with rebalanced:
            assert rebalanced.num_shards == new_shards
            assert rebalanced.stats()["kb_entries"] == len(queries)
            for i, query in enumerate(queries):
                loaded = rebalanced.load(query, corpus_version="v1")
                assert loaded is not None, f"entry lost in rebalance: {query!r}"
                assert loaded.to_dict() == _kb(f"t{i}").to_dict()
            stamps = sorted(sig.created_at for sig in rebalanced.signatures())
            assert stamps == [10.0 + i for i in range(len(queries))]


@given(
    signature=_SIGNATURES,
    num_shards=st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_store_load_consults_the_routed_shard(signature, num_shards):
    """save then load through the sharded store round-trips for any
    signature — i.e. both sides agree on the route."""
    with tempfile.TemporaryDirectory() as tmp:
        with ShardedKbStore(
            f"{tmp}/shards", num_shards=num_shards
        ) as store:
            store.save(kb=_kb("x"), corpus_version="v1", **signature)
            loaded = store.load(corpus_version="v1", **signature)
            assert loaded is not None
            assert loaded.to_dict() == _kb("x").to_dict()


# ---- cache LRU + TTL invariants --------------------------------------------


class _ModelClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _CacheModel:
    """Reference semantics: LRU order + strict-greater-than-TTL expiry,
    mirroring the documented QueryCache contract."""

    def __init__(self, max_size: int, ttl: float, clock: _ModelClock) -> None:
        self.max_size = max_size
        self.ttl = ttl
        self.clock = clock
        self.entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()

    def put(self, key, value) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = (value, self.clock())
        while len(self.entries) > self.max_size:
            self.entries.popitem(last=False)

    def get(self, key):
        if key not in self.entries:
            return None
        value, inserted = self.entries[key]
        if self.clock() - inserted > self.ttl:
            del self.entries[key]
            return None
        self.entries.move_to_end(key)
        return value


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 7), st.integers(0, 99)),
        st.tuples(st.just("get"), st.integers(0, 7)),
        st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=6.0)),
    ),
    max_size=60,
)


@given(ops=_OPS, max_size=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_cache_matches_lru_ttl_reference_model(ops, max_size):
    clock = _ModelClock()
    ttl = 10.0
    cache = QueryCache(max_size=max_size, ttl_seconds=ttl, clock=clock)
    model = _CacheModel(max_size, ttl, clock)
    keys = [
        CacheKey.for_request(
            f"k{i}", mode="joint", algorithm="greedy", corpus_version="v1"
        )
        for i in range(8)
    ]
    lookups = 0
    for op in ops:
        if op[0] == "put":
            _, key_no, value = op
            cache.put(keys[key_no], value)
            model.put(keys[key_no], value)
        elif op[0] == "get":
            _, key_no = op
            assert cache.get(keys[key_no]) == model.get(keys[key_no])
            lookups += 1
        else:
            clock.now += op[1]
        # Standing invariants after every operation:
        assert len(cache) <= max_size
    assert cache.hits + cache.misses == lookups
    # Final sweep: cache and model agree on every key's visibility.
    for key in keys:
        assert cache.get(key, count=False) == model.get(key)


@given(
    puts=st.lists(st.integers(0, 9), min_size=1, max_size=30),
    max_size=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_lru_keeps_exactly_the_most_recent_distinct_keys(puts, max_size):
    """Without TTL pressure, the cache holds precisely the last
    ``max_size`` *distinct* keys put, and evicts in LRU order."""
    cache = QueryCache(max_size=max_size)
    keys = [
        CacheKey.for_request(
            f"k{i}", mode="joint", algorithm="greedy", corpus_version="v1"
        )
        for i in range(10)
    ]
    for key_no in puts:
        cache.put(keys[key_no], key_no)
    expected: list = []
    for key_no in reversed(puts):  # newest first, first occurrence wins
        if key_no not in expected:
            expected.append(key_no)
    expected = expected[:max_size]
    for key_no in range(10):
        if key_no in expected:
            assert cache.get(keys[key_no], count=False) == key_no
        else:
            assert cache.get(keys[key_no], count=False) is None


# ---- live-ingest freshness invariants ---------------------------------------
#
# Generated interleavings of ingests and queries over the real
# QueryCache + EntityVersionVector, with every serve recorded into a
# HistoryRecorder and replayed through the MonotonicFreshnessChecker:
#
# - with entity-granular invalidation wired in (the production path),
#   a cache hit never returns an entry filled under an older version
#   slice, stamped per-entity versions are monotone per client, and
#   the checker finds nothing;
# - with invalidation *skipped* (the mutation), every interleaving
#   that produces a stale hit must be caught by the checker — the
#   stale entry stamps the current vector over old content, collides
#   with the oracle's fresh rebuild, and the digests diverge.

_LIVE_ENTITIES = ("alpha corp", "beta group", "gamma")
# The last query touches no entity: its cached entry must survive
# every ingest untouched.
_LIVE_QUERIES = (
    "alpha corp news",
    "beta group latest",
    "gamma",
    "delta unrelated",
)
_LIVE_CLIENTS = ("c1", "c2")

_LIVE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.lists(
                st.sampled_from(_LIVE_ENTITIES),
                unique=True,
                min_size=1,
                max_size=2,
            ).map(tuple),
        ),
        st.tuples(
            st.just("query"),
            st.sampled_from(_LIVE_CLIENTS),
            st.sampled_from(_LIVE_QUERIES),
        ),
    ),
    min_size=2,
    max_size=30,
)


class _ServeEnvelope:
    """Duck-typed QueryResult: just what record_serve reads."""

    def __init__(self, client_id, request_key, kb, entity_versions,
                 served_from):
        self.client_id = client_id
        self.request_key = request_key
        self.corpus_version = "v1"
        self.served_from = served_from
        self.kb = kb
        self.entity_versions = entity_versions or None


def _run_live_interleaving(ops, *, invalidate):
    """Drive one interleaving; return (violations, stale_hits).

    ``stale_hits`` counts cache hits whose entry was filled under an
    older version slice than the current one — the model-level truth
    the checker's verdict is compared against. Besides the generated
    clients, an ``oracle`` client re-builds every answer fresh, so a
    stale hit always has a fresh twin in the same digest bucket.
    """
    vector = EntityVersionVector()
    cache = QueryCache(max_size=32)
    recorder = HistoryRecorder()
    filled_token = {}
    stale_hits = 0
    for step, op in enumerate(ops):
        if op[0] == "ingest":
            entities = list(op[1])
            new_versions = vector.bump(entities)
            if invalidate:
                cache.invalidate_entities(entities)
            recorder.record_ingest(
                doc_id=f"doc-{step}",
                source="news",
                corpus_version="v1",
                entities=entities,
                entity_versions=new_versions,
            )
            continue
        _, client, query = op
        key = CacheKey.for_request(
            query, mode="joint", algorithm="greedy", corpus_version="v1"
        )
        token = vector.token_for_query(query)
        fresh_kb = _kb(f"{query}|{token}")
        kb = cache.get(key)
        if kb is None:
            served_from = "executor"
            kb = fresh_kb
            cache.put(key, kb)
            filled_token[query] = token
        else:
            served_from = "cache"
            if filled_token[query] != token:
                stale_hits += 1
                # The production path never serves an entry filled
                # under an older slice: invalidation removed it.
                assert not invalidate, (
                    "invalidated entry served after ingest"
                )
        slice_now = vector.versions_for_query(query)
        recorder.record_serve(
            _ServeEnvelope(
                client, key.signature(), kb, slice_now, served_from
            ),
            front_end="model",
        )
        # The oracle always rebuilds from the current slice.
        recorder.record_serve(
            _ServeEnvelope(
                "oracle", key.signature(), fresh_kb, slice_now, "executor"
            ),
            front_end="model",
        )
    checker = MonotonicFreshnessChecker(version_order=["v1"])
    return checker.check(recorder.snapshot()), stale_hits


@given(ops=_LIVE_OPS)
@settings(max_examples=60, deadline=None)
def test_ingest_interleavings_stay_fresh_and_monotonic(ops):
    """Entity-granular invalidation keeps every interleaving clean:
    no stale hit ever happens, per-client per-entity stamped versions
    only advance, and the checker replay finds zero violations."""
    violations, stale_hits = _run_live_interleaving(ops, invalidate=True)
    assert stale_hits == 0
    assert violations == []


@given(ops=_LIVE_OPS)
@settings(max_examples=60, deadline=None)
def test_checker_catches_every_skipped_invalidation(ops):
    """Mutation: with invalidate_entities() skipped, the checker's
    verdict tracks the model exactly — violations iff a stale hit
    actually occurred (detection power, no false positives)."""
    violations, stale_hits = _run_live_interleaving(ops, invalidate=False)
    if stale_hits:
        assert any(
            v.kind == VIOLATION_DIVERGENT_CONTENT for v in violations
        ), [v.describe() for v in violations]
    else:
        assert violations == []


# ---- ingest cost: matcher, indexed vector, copy-on-write BM25 ---------------
#
# Each fast path is checked against the brute force it replaced. Names
# and documents draw from a six-token alphabet, so overlapping,
# repeated-token, single-token and empty names are all common.

_TOKEN = st.sampled_from(["ann", "bo", "cy", "ann-bo", "Ann", "BO"])
_NAME = st.lists(_TOKEN, max_size=4).map(" ".join) | st.sampled_from(["", "  "])


@given(entities=st.lists(_NAME, max_size=8), queries=st.lists(_NAME, max_size=8))
@settings(max_examples=200, deadline=None)
def test_entity_matcher_equals_the_pairwise_rule(entities, queries):
    matcher = EntityMatcher(entities)
    for query in queries:
        assert matcher(query) == any(query_touches(query, e) for e in entities)
        assert matcher.touching(query) == [
            e for e in dict.fromkeys(entities) if query_touches(query, e)
        ]


@given(
    ops=st.lists(
        st.tuples(st.just("bump"), st.lists(_NAME, max_size=4))
        | st.tuples(st.just("query"), _NAME),
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_indexed_versions_for_query_equals_the_full_scan(ops):
    vector = EntityVersionVector()
    model: dict = {}  # first-bump order, like the vector's own dict
    for op, arg in ops:
        if op == "bump":
            vector.bump(arg)
            for entity in arg:
                name = normalize_entity(entity)
                if name:
                    model[name] = model.get(name, 0) + 1
            continue
        expected = {e: v for e, v in model.items() if query_touches(arg, e)}
        assert list(vector.versions_for_query(arg).items()) == list(
            expected.items()
        )


def _bm25_state(index: Bm25Index):
    return (
        {token: dict(bucket) for token, bucket in index._postings.items()},
        dict(index._doc_len),
        index._total_len,
    )


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(["d1", "d2", "d3", "d4"]),
            st.lists(_TOKEN, max_size=6),
        ),
        min_size=1,
        max_size=12,
    ),
    queries=st.lists(st.lists(_TOKEN, min_size=1, max_size=3), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_copy_on_write_bm25_equals_a_from_scratch_index(writes, queries):
    index = Bm25Index()
    documents: dict = {}
    for doc_id, tokens in writes:
        before = _bm25_state(index)
        derived = index.with_document(doc_id, tokens, documents.get(doc_id, ()))
        assert _bm25_state(index) == before  # the source is untouched
        documents[doc_id] = tokens
        scratch = Bm25Index()
        for scratch_id, scratch_tokens in documents.items():
            scratch.add(scratch_id, scratch_tokens)
        assert _bm25_state(derived) == _bm25_state(scratch)
        for query in queries:
            # Bit-equal floats, not approximately equal ones.
            assert derived.search(query, k=10) == scratch.search(query, k=10)
        index = derived
