"""Fact-search subsystem: index maintenance, keyset pagination, APIs.

Five clusters:

1. store-level search — FTS ranking, filters, sort orders, rebuild,
   integrity, and the ``search_cleanup`` trigger on delete/compact;
2. property tests (hypothesis) — a full paginated walk is duplicate-
   free and loss-free for every fact present when the walk started,
   under random page sizes, interleaved saves, and 1 or 4 shards;
3. FTS5-absent fallback — a store built without FTS5 keeps serving
   saves/loads and answers searches with typed ``SearchUnavailable``;
4. gateway end-to-end — ``GET /v1/facts?q=...`` over a real socket on
   both the local and the fabric store backend (the acceptance path),
   plus the strict query-string parser;
5. fault injection — a crash armed inside the index-update hook rolls
   the whole save back (no acknowledged fact is ever missing from the
   index), and a crash on the read path never corrupts the store.
"""

from __future__ import annotations

import asyncio
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultAction, FaultSchedule
from repro.kb.facts import (
    ARG_ENTITY,
    Argument,
    EmergingEntity,
    Fact,
    KbBuilder,
    KnowledgeBase,
)
from repro.service.api import (
    FactSearchRequest,
    SearchUnavailable,
    ServiceError,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.gateway import HttpGateway, parse_search_query
from repro.service.kb_store import KbStore
from repro.service.search.query import (
    MAX_SEARCH_LIMIT,
    decode_cursor,
    encode_cursor,
    fts_match_expression,
    search_paginated,
    store_backends,
)
from repro.service.service import QKBflyService, ServiceConfig
from repro.service.sharding import ShardedKbStore
from test_service_gateway import HttpClient, _top_queries


def _kb(tag: str, *, extra: str = "") -> KnowledgeBase:
    """One distinctive fact per KB so walks can account for each save."""
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, f"E_{tag}", f"Subject {tag}"),
            predicate=f"pred_{tag}",
            objects=[Argument(ARG_ENTITY, "E_OBJ", f"Object {tag} {extra}")],
            pattern=f"pat_{tag}",
            confidence=0.9,
            doc_id=f"doc_{tag}",
            sentence_index=0,
        )
    )
    kb.add_emerging(
        EmergingEntity(
            cluster_id=f"doc_{tag}#new",
            display_name=f"Emerging {tag}",
            mentions=[f"Emerging {tag}"],
            guessed_type="MISC",
        )
    )
    kb.observe_mention(f"E_{tag}", f"Subject {tag}")
    kb.set_entity_types(f"E_{tag}", ["PERSON"])
    return kb.build()


def _walk(store, kind="facts", limit=3, **kwargs):
    """Full paginated walk; returns every row across all pages."""
    rows, cursor, pages = [], None, 0
    while True:
        page = search_paginated(
            store_backends(store), kind, limit=limit, cursor=cursor, **kwargs
        )
        rows.extend(page["results"])
        pages += 1
        assert pages <= 10_000, "walk did not terminate"
        if not page["has_more"]:
            return rows
        cursor = page["next_cursor"]


# ---- store-level search -----------------------------------------------------


def test_fts_query_ranks_matching_fact_first(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        for tag in ("alpha", "beta", "gamma"):
            store.save(f"q_{tag}", _kb(tag), corpus_version="v1")
        page = search_paginated(
            [store], "facts", q="Subject beta", sort="rank", limit=10
        )
        assert page["results"], "FTS query must match the saved fact"
        assert page["results"][0]["subject"] == "Subject beta"
        assert page["results"][0]["score"] <= page["results"][-1]["score"]


def test_filters_and_sort_orders(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1", created_at=100.0)
        store.save("q_b", _kb("b"), corpus_version="v2", created_at=200.0)
        store.save("q_c", _kb("c"), corpus_version="v2", created_at=300.0)

        by_pattern = search_paginated([store], "facts", pattern="pat_b")
        assert [r["pattern"] for r in by_pattern["results"]] == ["pat_b"]

        by_version = search_paginated(
            [store], "facts", corpus_version="v2", limit=10
        )
        assert len(by_version["results"]) == 2

        windowed = search_paginated(
            [store], "facts", created_after=150.0, created_before=250.0
        )
        assert [r["subject"] for r in windowed["results"]] == ["Subject b"]

        newest_first = search_paginated(
            [store], "facts", sort="-created_at", limit=10
        )
        stamps = [r["created_at"] for r in newest_first["results"]]
        assert stamps == sorted(stamps, reverse=True)

        by_subject = search_paginated(
            [store], "facts", entity="subject a", limit=10
        )
        assert [r["subject"] for r in by_subject["results"]] == ["Subject a"]
        by_object = search_paginated(
            [store], "facts", entity="Object b", limit=10
        )
        assert [r["subject"] for r in by_object["results"]] == ["Subject b"]


def test_entities_search_covers_linked_and_emerging(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1")
        rows = _walk(store, kind="entities", limit=2)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"linked", "emerging"}
        named = search_paginated(
            [store], "entities", q="Emerging", limit=10
        )
        assert any(r["display"] == "Emerging a" for r in named["results"])


def test_rebuild_matches_incremental_index(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        for tag in ("a", "b", "c"):
            store.save(f"q_{tag}", _kb(tag), corpus_version="v1")
        before = _walk(store, limit=2)
        facts, entities = store.rebuild_search_index()
        assert facts == len(before)
        assert entities > 0
        after = _walk(store, limit=2)
        assert [r["gid"] for r in after] == [r["gid"] for r in before]
        report = store.search_integrity()
        assert report["consistent"] is True
        assert report["search_available"] is True


def test_delete_and_compact_keep_index_consistent(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1")
        store.save("q_b", _kb("b"), corpus_version="v2")
        store.delete_stale("v2")  # drops the v1 entry, trigger fires
        rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject b"]
        assert store.search_integrity()["consistent"] is True
        # Replacement also reindexes: no stale rows for the old entry.
        store.save("q_b", _kb("b2"), corpus_version="v2")
        rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject b2"]
        assert store.search_integrity()["consistent"] is True


def test_cursor_round_trip_and_garbage():
    assert decode_cursor(encode_cursor("id", 7, 7), "id") == (7, 7)
    key, gid = decode_cursor(
        encode_cursor("created_at", 123.456789, 42), "created_at"
    )
    assert key == pytest.approx(123.456789) and gid == 42
    for garbage in ("", "|", "x|y", "1.5", "a|1", "1|b"):
        with pytest.raises(ValueError):
            decode_cursor(garbage, "created_at")


def test_match_expression_neutralizes_fts_syntax():
    assert fts_match_expression("alice bob") == '"alice" "bob"'
    # Operator syntax and quotes become inert phrase tokens.
    assert fts_match_expression('a AND b*') == '"a" "AND" "b*"'
    assert fts_match_expression('say "hi"') == '"say" """hi"""'
    with pytest.raises(ValueError):
        fts_match_expression("   ")


# ---- the walk property (hypothesis) -----------------------------------------


@given(
    num_shards=st.sampled_from([1, 4]),
    initial=st.integers(min_value=0, max_value=10),
    page_sizes=st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=8
    ),
    interleaved=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_walk_is_loss_free_and_duplicate_free(
    num_shards, initial, page_sizes, interleaved
):
    """Every fact present when the walk starts is returned exactly
    once, even when new saves land between pages (keyset cursors are
    immune to the offset drift that would lose or repeat rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedKbStore(tmp, num_shards=num_shards)
        try:
            for i in range(initial):
                store.save(f"pre_{i}", _kb(f"pre{i}"), corpus_version="v1")
            seen_gids, seen_queries = [], []
            cursor, page_index, extra = None, 0, 0
            while True:
                size = page_sizes[page_index % len(page_sizes)]
                page = search_paginated(
                    store_backends(store),
                    "facts",
                    limit=size,
                    cursor=cursor,
                )
                assert len(page["results"]) <= size
                for row in page["results"]:
                    seen_gids.append(row["gid"])
                    seen_queries.append(row["query"])
                page_index += 1
                # Interleave writes mid-walk: they must never disturb
                # the accounting of the pre-walk rows. The total is
                # bounded — an unbounded writer at 1-row pages would
                # (correctly) keep the walk chasing new rows forever.
                for _ in range(interleaved if extra < 6 else 0):
                    store.save(
                        f"mid_{extra}", _kb(f"mid{extra}"), corpus_version="v1"
                    )
                    extra += 1
                if not page["has_more"]:
                    break
                cursor = page["next_cursor"]
                assert page_index <= 1_000, "walk did not terminate"
            assert len(seen_gids) == len(set(seen_gids)), "duplicate rows"
            pre = [q for q in seen_queries if q.startswith("pre_")]
            assert sorted(pre) == sorted(
                f"pre_{i}" for i in range(initial)
            ), "a pre-walk fact was lost or repeated"
        finally:
            store.close()


@given(
    num_shards=st.sampled_from([1, 4]),
    count=st.integers(min_value=1, max_value=8),
    limit=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_newest_first_walk_is_globally_ordered(num_shards, count, limit):
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedKbStore(tmp, num_shards=num_shards)
        try:
            for i in range(count):
                store.save(
                    f"q_{i}",
                    _kb(f"t{i}"),
                    corpus_version="v1",
                    created_at=float(100 + i),
                )
            rows = _walk(store, limit=limit, sort="-created_at")
            stamps = [r["created_at"] for r in rows]
            assert stamps == sorted(stamps, reverse=True)
            assert len(rows) == count
        finally:
            store.close()


# ---- FTS5-absent fallback ---------------------------------------------------


def test_store_without_fts5_degrades_to_search_unavailable(
    tmp_path, monkeypatch
):
    """A SQLite build without FTS5 must not break the store: saves and
    loads keep working, searches raise the typed 503 error."""
    import repro.service.search.index as search_index

    monkeypatch.setattr(search_index, "fts5_supported", lambda conn: False)
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        assert store.search_available is False
        store.save("q_a", _kb("a"), corpus_version="v1")
        assert store.load("q_a", corpus_version="v1") is not None
        with pytest.raises(SearchUnavailable) as excinfo:
            store.search_facts({"kind": "facts", "limit": 5})
        assert excinfo.value.http_status == 503
        with pytest.raises(SearchUnavailable):
            store.rebuild_search_index()
        report = store.search_integrity()
        assert report == {"consistent": True, "search_available": False}
    # Reopening with FTS5 back builds the index for the existing rows.
    monkeypatch.undo()
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        assert store.search_available is True
        assert store.rebuild_search_index() == (1, 2)
        rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject a"]


# ---- gateway end-to-end (local + fabric) ------------------------------------


def _search_gateway(service_session, tmp, **config_kwargs):
    config_kwargs.setdefault("max_workers", 4)
    config_kwargs.setdefault("store_path", tmp)
    service = AsyncQKBflyService(
        QKBflyService(
            service_session, service_config=ServiceConfig(**config_kwargs)
        ),
        own_service=True,
    )
    return HttpGateway(service, own_service=True)


async def _facts_over_http(service_session, tmp, **config_kwargs):
    """Serve two queries to fill the store, then walk /v1/facts."""
    async with _search_gateway(
        service_session, tmp, **config_kwargs
    ) as gateway:
        async with HttpClient(gateway.host, gateway.port) as client:
            for name in _top_queries(service_session, 2):
                status, _, _ = await client.request(
                    "POST", "/v1/query", body={"query": name}
                )
                assert status == 200
            status, _, first = await client.request(
                "GET", "/v1/facts?limit=5&client_id=e2e"
            )
            assert status == 200 and first["results"]
            # A token from a stored subject must be findable via FTS.
            token = first["results"][0]["subject"].split()[0]
            status, _, ranked = await client.request(
                "GET", f"/v1/facts?q={token}&sort=rank&limit=10"
            )
            status_e, _, entities = await client.request(
                "GET", "/v1/entities?limit=5"
            )
            # Full keyset walk over the wire.
            rows, cursor = [], None
            while True:
                path = "/v1/facts?limit=7"
                if cursor:
                    path += f"&cursor={cursor}"
                page_status, _, page = await client.request("GET", path)
                assert page_status == 200
                rows.extend(page["results"])
                if not page["has_more"]:
                    break
                cursor = page["next_cursor"]
            return first, (status, ranked), (status_e, entities), rows


def test_facts_endpoint_e2e_local_backend(service_session, tmp_path):
    first, ranked, entities, rows = asyncio.run(
        _facts_over_http(service_session, str(tmp_path / "store"))
    )
    assert first["status"] == "ok" and first["kind"] == "facts"
    assert first["api_version"] == "v1" and first["client_id"] == "e2e"
    assert first["count"] == len(first["results"])
    status, payload = ranked
    assert status == 200 and payload["results"]
    assert payload["results"][0]["score"] is not None
    status_e, entity_payload = entities
    assert status_e == 200 and entity_payload["kind"] == "entities"
    gids = [row["gid"] for row in rows]
    assert len(gids) == len(set(gids)) and len(gids) >= len(first["results"])


def test_facts_endpoint_e2e_fabric_backend(service_session, tmp_path):
    """The acceptance criterion: the same wire path served by socket
    shard servers with replica groups behind the fabric backend."""
    first, ranked, entities, rows = asyncio.run(
        _facts_over_http(
            service_session,
            str(tmp_path / "fabric"),
            store_backend="fabric",
            store_shards=2,
            replication_factor=2,
        )
    )
    assert first["status"] == "ok" and first["results"]
    assert ranked[0] == 200 and ranked[1]["results"]
    assert entities[0] == 200
    gids = [row["gid"] for row in rows]
    assert len(gids) == len(set(gids))


def test_search_rejects_bad_query_strings(service_session, tmp_path):
    async def scenario():
        async with _search_gateway(
            service_session, str(tmp_path / "store")
        ) as gateway:
            async with HttpClient(gateway.host, gateway.port) as client:
                unknown = await client.request("GET", "/v1/facts?foo=1")
                bad_limit = await client.request("GET", "/v1/facts?limit=0")
                bad_float = await client.request(
                    "GET", "/v1/facts?created_after=yesterday"
                )
                bad_cursor = await client.request(
                    "GET", "/v1/facts?cursor=nonsense"
                )
                bad_sort = await client.request(
                    "GET", "/v1/facts?sort=shuffle"
                )
                rank_without_q = await client.request(
                    "GET", "/v1/facts?sort=rank"
                )
                wrong_method = await client.request("POST", "/v1/facts")
            return (
                unknown,
                bad_limit,
                bad_float,
                bad_cursor,
                bad_sort,
                rank_without_q,
                wrong_method,
            )

    responses = asyncio.run(scenario())
    for status, _, payload in responses[:-1]:
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
    assert responses[2][2]["error"]["message"].count("created_after")
    wrong_method = responses[-1]
    assert wrong_method[0] == 405 and wrong_method[1]["allow"] == "GET"


def test_parse_search_query_units():
    parsed = parse_search_query(
        "q=alice%20stone&limit=5&sort=rank&entity=E1&cursor=3%7C3"
    )
    assert parsed == {
        "q": "alice stone",
        "limit": 5,
        "sort": "rank",
        "entity": "E1",
        "cursor": "3|3",
    }
    assert parse_search_query("") == {}
    assert parse_search_query("q=") == {}  # blank values are absent
    clamped = parse_search_query("limit=99999")
    assert clamped["limit"] == MAX_SEARCH_LIMIT
    floats = parse_search_query("created_after=1.5&created_before=2.5")
    assert floats == {"created_after": 1.5, "created_before": 2.5}
    for bad in ("nope=1", "limit=0", "limit=x", "created_after=x"):
        with pytest.raises(ServiceError) as excinfo:
            parse_search_query(bad)
        assert excinfo.value.http_status == 400


def test_search_request_validation_units():
    with pytest.raises(ServiceError):
        FactSearchRequest(sort="shuffle")
    with pytest.raises(ServiceError):
        FactSearchRequest(sort="rank")  # rank requires q
    with pytest.raises(ServiceError):
        FactSearchRequest(limit=0)
    with pytest.raises(ServiceError):
        FactSearchRequest.from_dict({"quary": "typo"})
    request = FactSearchRequest.from_dict({"q": "x", "sort": "rank"})
    assert request.to_dict()["sort"] == "rank"


# ---- fault injection --------------------------------------------------------


def test_crash_in_index_update_rolls_back_whole_save(tmp_path):
    """The index hook runs inside the save transaction: a crash there
    must leave neither a fact row nor an index row behind, so an
    acknowledged save always implies an indexed fact."""
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(FaultAction("search.index.update", 1, "crash"),)
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.save("q_b", _kb("b"), corpus_version="v1")
        # The crashed save vanished entirely; the survivor is intact.
        assert store.load("q_b", corpus_version="v1") is None
        assert store.stats()["kb_entries"] == 1
        assert store.search_integrity()["consistent"] is True
        rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject a"]
        # The retry after recovery lands and is immediately searchable.
        store.save("q_b", _kb("b"), corpus_version="v1")
        page = search_paginated([store], "facts", q="Subject b", sort="rank")
        assert [r["subject"] for r in page["results"]] == ["Subject b"]
        assert store.search_integrity()["consistent"] is True


def test_crash_on_read_page_leaves_store_unharmed(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(FaultAction("search.read.page", 1, "crash"),)
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.search_facts({"kind": "facts", "limit": 5})
        # Reads recover; nothing was mutated.
        rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject a"]
        assert store.search_integrity()["consistent"] is True


def test_delay_on_read_page_only_slows_the_walk(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as store:
        store.save("q_a", _kb("a"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(FaultAction("search.read.page", 1, "delay", 0.001),)
        )
        with inject(schedule) as injector:
            rows = _walk(store, limit=10)
        assert [r["subject"] for r in rows] == ["Subject a"]
        assert injector.fired, "the delay action must have fired"
