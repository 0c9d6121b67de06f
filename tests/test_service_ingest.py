"""Live-corpus ingest: entity-granular invalidation, subscriptions,
and the gateway write path.

Covers the ingest contract end to end:

- touched-entity computation and the version-vector bump (the global
  ``corpus_version`` never rotates on ingest);
- selective invalidation — the warm entry for an *untouched* query
  survives an ingest bit-identically in cache and store, on both the
  local and the fabric store backend, while every touched entry
  rotates;
- strict request validation (the 400 matrix) for ``IngestRequest`` and
  ``WatchRequest``, in-process and over the wire;
- KB-delta subscriptions: long-poll with cursor acknowledgment and
  webhook delivery against a real loopback receiver, driven through
  ``POST /v1/ingest`` / ``POST /v1/watch`` / ``GET /v1/deltas`` on a
  live :class:`~repro.service.gateway.HttpGateway` socket;
- the ``refresh_corpus(search_engine=...)`` regression: a doc-only
  engine swap now routes through entity-granular invalidation, so an
  unrelated warm query survives it.
"""

from __future__ import annotations

import asyncio
import http.server
import json
import threading
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.qkbfly import QKBfly, QKBflyConfig, SessionState
from repro.corpus.realizer import RealizedDocument
from repro.corpus.retrieval import SearchEngine
from repro.service.api import (
    IngestRequest,
    QueryRequest,
    ServiceError,
    WatchRequest,
)
from repro.service.ingest import (
    EntityVersionVector,
    normalize_entity,
    query_touches,
    touches_any,
    versions_token,
)
from repro.service.service import QKBflyService, ServiceConfig


def _fresh_session(tiny_world, background) -> SessionState:
    """A private session per test: ingest swaps the search engine and
    installs a version vector, so tests must not share the session-
    scoped ``service_session`` fixture."""
    return SessionState(
        entity_repository=tiny_world.entity_repository,
        pattern_repository=tiny_world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(
            tiny_world, background.documents
        ),
    )


def _top_queries(session: SessionState, count: int) -> List[str]:
    entities = sorted(
        session.entity_repository.entities(), key=lambda e: -e.prominence
    )
    return [e.canonical_name for e in entities[:count]]


def _service(session: SessionState, **kwargs) -> QKBflyService:
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("num_documents", 1)
    kwargs.setdefault("store_path", ":memory:")
    return QKBflyService(session, service_config=ServiceConfig(**kwargs))


def _doc(doc_id: str, text: str, source: str = "news") -> RealizedDocument:
    return RealizedDocument(
        doc_id=doc_id,
        title=doc_id,
        sentences=[text],
        emitted=[],
        mentions=[],
        source=source,
    )


def _untouched_query(queries: List[str], touched) -> str:
    """The first query the touched set does not reach (skipping the
    primary target) — the survivor the invalidation tests watch."""
    for query in queries[1:]:
        if not touches_any(query, set(touched)):
            return query
    pytest.skip("tiny world has no untouched query to observe")


# ---- match + version-vector units ------------------------------------------


def test_normalize_and_query_touches_subsequence_rule():
    assert normalize_entity("  Florin  CORP ") == "florin corp"
    # Entity tokens as a contiguous subsequence of the query tokens.
    assert query_touches("what happened to marcus wexford", "Marcus Wexford")
    # And the reverse: the query as a subsequence of the entity.
    assert query_touches("wexford", "Marcus Wexford")
    # Non-contiguous or disjoint token sequences do not match.
    assert not query_touches("marcus the wexford", "Marcus Wexford")
    assert not query_touches("esperia", "Marcus Wexford")
    assert touches_any("marcus wexford", {"marcus wexford", "other"})
    assert not touches_any("esperia", {"marcus wexford"})


def test_version_vector_bump_and_query_slices():
    vector = EntityVersionVector()
    assert vector.versions_for_query("anything") == {}
    bumped = vector.bump(["Florin", "marcus wexford"])
    assert bumped == {"florin": 1, "marcus wexford": 1}
    assert vector.bump(["florin"]) == {"florin": 2}
    assert vector.versions_for_query("news about florin") == {"florin": 2}
    assert vector.version("florin") == 2
    # ``bumps`` counts bump *calls* that advanced something, not
    # per-entity increments.
    assert vector.stats() == {"entities": 2, "bumps": 2}
    token = vector.token_for_query("florin and marcus wexford")
    assert token == "florin=2|marcus wexford=1"
    assert versions_token({}) == ""
    assert versions_token({"b": 2, "a": 1}) == "a=1|b=2"


# ---- touched-entity computation --------------------------------------------


def test_compute_touched_collects_entity_names(tiny_world, background):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 2)
        text = f"{queries[0]} announced a merger with {queries[1]}."
        touched = service.ingest_pipeline.compute_touched(_doc("t-1", text))
        assert normalize_entity(queries[0]) in touched
        assert normalize_entity(queries[1]) in touched
        assert "t-1" in touched  # the title
        # Pronoun surfaces never make it into the touched set.
        assert not touched & {"he", "she", "it", "they"}
    finally:
        service.close()


# ---- the ingest transaction ------------------------------------------------


def test_ingest_bumps_versions_and_keeps_corpus_version(
    tiny_world, background
):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 2)
        version_before = session.corpus_version
        result = service.ingest(
            IngestRequest(
                doc_id="live-1",
                text=f"{queries[0]} announced a merger with {queries[1]}.",
            )
        )
        assert result.status.value == "ok"
        assert result.doc_id == "live-1"
        assert result.source == "news"
        assert result.updated is False
        assert result.corpus_version == version_before
        assert session.corpus_version == version_before
        assert normalize_entity(queries[0]) in result.touched_entities
        assert all(v == 1 for v in result.entity_versions.values())
        assert session.search_engine.news_docs["live-1"].text.startswith(
            queries[0]
        )
        stats = service.stats()["ingest"]
        assert stats["ingested"] == 1
        assert stats["entity_versions"]["entities"] == len(
            result.entity_versions
        )
    finally:
        service.close()


def test_ingest_update_unions_old_and_new_revision_entities(
    tiny_world, background
):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 3)
        service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[0]} resigned.")
        )
        update = service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[1]} resigned.")
        )
        assert update.updated is True
        # Queries anchored on the *old* revision's entity must rotate
        # too, so the touched union covers both revisions.
        assert normalize_entity(queries[0]) in update.touched_entities
        assert normalize_entity(queries[1]) in update.touched_entities
        assert session.search_engine.news_docs["live-1"].text.startswith(
            queries[1]
        )
    finally:
        service.close()


def test_selective_invalidation_untouched_entry_survives_bit_identical(
    tiny_world, background
):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 4)
        target = queries[0]
        text = f"{target} announced a merger."
        predicted = service.ingest_pipeline.compute_touched(
            _doc("live-1", text)
        )
        survivor = _untouched_query(queries, predicted)

        warm: Dict[str, dict] = {}
        for query in (target, survivor):
            service.serve(QueryRequest(query=query, client_id="warmup"))
            hot = service.serve(QueryRequest(query=query, client_id="warmup"))
            assert hot.served_from == "cache"
            warm[query] = hot.kb.to_dict()
        stored_before = {sig.query for sig in service.store.signatures()}
        assert {normalize_entity(target), normalize_entity(survivor)} <= (
            stored_before
        )

        result = service.ingest(IngestRequest(doc_id="live-1", text=text))
        assert result.invalidated["cache"] >= 1
        assert result.invalidated["store"] >= 1

        # The untouched query survives warm and bit-identical — in the
        # cache (a hit) and in the store (same signature row).
        again = service.serve(QueryRequest(query=survivor, client_id="w2"))
        assert again.served_from == "cache"
        assert again.kb.to_dict() == warm[survivor]
        assert again.entity_versions is None  # its slice never bumped
        stored_after = {sig.query for sig in service.store.signatures()}
        assert normalize_entity(survivor) in stored_after
        # The touched query rotated everywhere: store row gone, cache
        # cold, and the rebuild stamps the bumped version slice.
        assert normalize_entity(target) not in stored_after
        rebuilt = service.serve(QueryRequest(query=target, client_id="w2"))
        assert rebuilt.served_from == "executor"
        assert rebuilt.entity_versions
        assert all(v >= 1 for v in rebuilt.entity_versions.values())
    finally:
        service.close()


def test_stage_cache_only_rotates_touched_retrieval_entries(
    tiny_world, background
):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 4)
        target = queries[0]
        text = f"{target} announced a merger."
        predicted = service.ingest_pipeline.compute_touched(
            _doc("live-1", text)
        )
        survivor = _untouched_query(queries, predicted)
        for query in (target, survivor):
            service.serve(QueryRequest(query=query, client_id="stage"))
        before = session.stage_cache.stats()["stages"]
        nlp_before = {
            stage: counters["entries"]
            for stage, counters in before.items()
            if stage != "retrieval"
        }

        result = service.ingest(IngestRequest(doc_id="live-1", text=text))
        assert result.invalidated["stage"] >= 1

        after = session.stage_cache.stats()["stages"]
        # NLP/extraction work for unchanged documents survives; only
        # tagged retrieval entries whose query intersects the touched
        # set were discarded.
        for stage, entries in nlp_before.items():
            assert after[stage]["entries"] >= entries
        assert after["retrieval"]["discarded"] >= 1
    finally:
        service.close()


def test_ingest_builds_the_fragment_queries_then_reuse(
    tiny_world, background, process_document_calls
):
    """``compute_touched`` goes through the fragment stage: the forced
    re-query of a just-ingested document, and a re-ingest of unchanged
    text, find the fragment instead of rebuilding it."""
    session = _fresh_session(tiny_world, background)
    service = _service(session, num_documents=2)
    try:
        target, other = _top_queries(session, 2)
        service.serve(QueryRequest(query=target, source="news"))
        calls = process_document_calls
        del calls[:]  # the warm-up serve above
        request = IngestRequest(
            doc_id="live-1",
            title=target,
            text=f"{target} announced a merger with {other}.",
        )
        service.ingest(request)
        assert calls == ["live-1"]
        requeried = service.serve(QueryRequest(query=target, source="news"))
        assert requeried.served_from == "executor"
        retrieved = session.search_engine.search(target, source="news", k=2)
        assert "live-1" in [document.doc_id for document in retrieved]
        service.ingest(request)  # unchanged text: old and new revision
        assert calls == ["live-1"]
    finally:
        service.close()


def test_ingest_cycle_recomputes_no_static_fingerprint(
    tiny_world, background, monkeypatch
):
    """An ingest rebinds a fresh ``QKBfly`` over the *same* repository
    objects: the millisecond-scale fingerprints behind the stage keys
    are memoised on the session and survive the rebind (1 entity-
    repository recompute per cycle at the parent of this test)."""
    from repro.corpus.statistics import BackgroundStatistics
    from repro.kb.entity_repository import EntityRepository
    from repro.kb.pattern_repository import PatternRepository

    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        target, other = _top_queries(session, 2)
        service.serve(QueryRequest(query=target, source="news"))
        calls: List[str] = []
        for owner in (EntityRepository, BackgroundStatistics, PatternRepository):
            original = owner.fingerprint

            def counted(self, _original=original, _name=owner.__name__):
                calls.append(_name)
                return _original(self)

            monkeypatch.setattr(owner, "fingerprint", counted)
        for cycle in range(3):
            service.ingest(
                IngestRequest(
                    doc_id=f"live-{cycle}",
                    text=f"{target} met {other} at a conference.",
                )
            )
            rebuilt = service.serve(QueryRequest(query=target, source="news"))
            assert rebuilt.served_from == "executor"
        assert calls == []
    finally:
        service.close()


@pytest.mark.parametrize(
    "config",
    [QKBflyConfig(), QKBflyConfig(mode="pipeline", triples_only=True, tau=0.6)],
    ids=["default", "pipeline-triples"],
)
def test_replacing_a_retrieved_document_serves_the_fresh_build(
    tiny_world, background, config
):
    """Bit-identity across an ingest: once a retrieved document is
    replaced, the served KB equals a stage-cache-free build over the
    corpus as it now is — the replaced document's old fragment is
    unreachable (its content is in the key), the untouched document's
    is reused."""
    session = _fresh_session(tiny_world, background)
    service = QKBflyService(
        session,
        config=config,
        service_config=ServiceConfig(num_documents=2, store_path=":memory:"),
    )
    try:
        target, other = _top_queries(session, 2)
        before = service.serve(QueryRequest(query=target)).kb.to_dict()
        replaced = session.search_engine.search(target, k=2)[0]
        service.ingest(
            IngestRequest(
                doc_id=replaced.doc_id,
                title=replaced.title,
                text=f"{target} announced a merger with {other}.",
                source="wikipedia",
            )
        )
        fragments = session.stage_cache.stats()["stages"]["fragment"]["hits"]
        after = service.serve(QueryRequest(query=target))
        assert after.served_from == "executor"
        reference = QKBfly(
            entity_repository=session.entity_repository,
            pattern_repository=session.pattern_repository,
            statistics=session.statistics,
            search_engine=session.search_engine,
            config=config,
        )
        assert reference.stage_cache is None
        expected = reference.build_kb(target, num_documents=2).to_dict()
        assert after.kb.to_dict() == expected
        assert expected != before
        # Both documents of the rebuild came from the fragment stage:
        # the new revision's was put there by the ingest itself.
        assert (
            session.stage_cache.stats()["stages"]["fragment"]["hits"]
            == fragments + 2
        )
    finally:
        service.close()


def test_ingests_cool_exactly_the_touched_warm_entries(tiny_world, background):
    """Warm a tier, watch two targets, ingest four documents naming
    them: every warm query is re-served from the cache unless
    ``query_touches`` says an ingest reached it, and each document
    delivers exactly one delta to the watching subscription."""
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        warm = _top_queries(session, 8)
        targets = warm[:2]
        for query in warm:
            service.serve(QueryRequest(query=query))
        subscription = service.watch(
            WatchRequest(entities=targets, client_id="monitor")
        )
        touched = set()
        for index in range(4):
            ack = service.ingest(
                IngestRequest(
                    doc_id=f"live-{index}",
                    text=f"{targets[index % 2]} announced a new venture.",
                )
            )
            touched.update(ack.touched_entities)
        served = {
            query: service.serve(QueryRequest(query=query)).served_from
            for query in warm
        }
        predicted = {
            query: "executor" if touches_any(query, touched) else "cache"
            for query in warm
        }
        assert served == predicted
        assert set(predicted.values()) == {"executor", "cache"}
        deltas = service.poll_deltas(
            subscription["subscription_id"], after=0, timeout=0.0
        )["deltas"]
        assert [d["doc_id"] for d in deltas] == [f"live-{i}" for i in range(4)]
    finally:
        service.close()


def test_fabric_backend_selective_invalidation(
    tiny_world, background, tmp_path
):
    session = _fresh_session(tiny_world, background)
    service = _service(
        session,
        store_path=str(tmp_path / "fabric"),
        store_backend="fabric",
        store_shards=2,
    )
    try:
        queries = _top_queries(session, 4)
        target = queries[0]
        text = f"{target} announced a merger."
        predicted = service.ingest_pipeline.compute_touched(
            _doc("live-1", text)
        )
        survivor = _untouched_query(queries, predicted)
        for query in (target, survivor):
            service.serve(QueryRequest(query=query, client_id="fab"))
        assert {normalize_entity(target), normalize_entity(survivor)} <= {
            sig.query for sig in service.store.signatures()
        }

        result = service.ingest(IngestRequest(doc_id="live-1", text=text))
        assert result.invalidated["store"] >= 1

        stored = {sig.query for sig in service.store.signatures()}
        assert normalize_entity(survivor) in stored
        assert normalize_entity(target) not in stored
        again = service.serve(QueryRequest(query=survivor, client_id="fab2"))
        assert again.served_from == "cache"
    finally:
        service.close()


# ---- strict request validation (the 400 matrix) ----------------------------


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {},
        {"doc_id": "d"},
        {"text": "t"},
        {"doc_id": "", "text": "t"},
        {"doc_id": "d", "text": ""},
        {"doc_id": "d", "text": "t", "source": "blogs"},
        {"doc_id": "d", "text": "t", "api_version": "v2"},
        {"doc_id": "d", "text": "t", "client_id": ""},
        {"doc_id": "d", "text": "t", "surprise": 1},
        {"doc_id": 7, "text": "t"},
        {"doc_id": "d", "text": ["t"]},
    ],
)
def test_ingest_request_strict_400_matrix(payload):
    with pytest.raises(ServiceError) as excinfo:
        IngestRequest.from_dict(payload)
    assert excinfo.value.http_status == 400


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {},
        {"entities": []},
        {"entities": "florin"},
        {"entities": ["florin"], "mode": "carrier-pigeon"},
        {"entities": ["florin"], "mode": "webhook"},
        {"entities": ["florin"], "api_version": "v2"},
        {"entities": ["florin"], "surprise": 1},
        {"entities": [""], "mode": "longpoll"},
    ],
)
def test_watch_request_strict_400_matrix(payload):
    with pytest.raises(ServiceError) as excinfo:
        WatchRequest.from_dict(payload)
    assert excinfo.value.http_status == 400


# ---- subscriptions: long-poll on the sync front end ------------------------


def test_watch_poll_ack_cycle_and_unwatch(tiny_world, background):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 2)
        subscription = service.watch(
            WatchRequest(entities=[queries[0]], client_id="carol")
        )
        sub_id = subscription["subscription_id"]
        assert subscription["mode"] == "longpoll"
        assert subscription["cursor"] == 0

        empty = service.poll_deltas(sub_id, after=0, timeout=0.0)
        assert empty["deltas"] == []

        result = service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[0]} resigned.")
        )
        assert result.subscribers == 1
        page = service.poll_deltas(sub_id, after=0, timeout=0.0)
        (delta,) = page["deltas"]
        assert delta["doc_id"] == "live-1"
        assert normalize_entity(queries[0]) in delta["entities"]
        assert delta["entity_versions"][normalize_entity(queries[0])] == 1
        assert delta["state"] == "delivery"

        # Unacked deltas re-deliver (at-least-once)...
        replay = service.poll_deltas(sub_id, after=0, timeout=0.0)
        assert [d["delta_id"] for d in replay["deltas"]] == [
            delta["delta_id"]
        ]
        # ...while the cursor acknowledgment drops them for good.
        acked = service.poll_deltas(
            sub_id, after=delta["delta_id"], timeout=0.0
        )
        assert acked["deltas"] == []
        assert acked["cursor"] == delta["delta_id"]

        assert service.unwatch(sub_id) is True
        with pytest.raises(ServiceError) as excinfo:
            service.poll_deltas(sub_id, after=0, timeout=0.0)
        assert excinfo.value.http_status == 400
    finally:
        service.close()


def test_ingest_not_matching_watch_delivers_nothing(tiny_world, background):
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 4)
        text = f"{queries[0]} resigned."
        predicted = service.ingest_pipeline.compute_touched(
            _doc("live-1", text)
        )
        unrelated = _untouched_query(queries, predicted)
        subscription = service.watch(
            WatchRequest(entities=[unrelated], client_id="carol")
        )
        result = service.ingest(IngestRequest(doc_id="live-1", text=text))
        assert result.subscribers == 0
        page = service.poll_deltas(
            subscription["subscription_id"], after=0, timeout=0.0
        )
        assert page["deltas"] == []
    finally:
        service.close()


# ---- refresh_corpus regression ---------------------------------------------


def test_doc_only_refresh_is_entity_granular(tiny_world, background):
    """A ``refresh_corpus(search_engine=...)`` with no explicit version
    used to clear the whole retrieval tier; it now routes through the
    ingest pipeline, so the unrelated warm query survives."""
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        queries = _top_queries(session, 4)
        target = queries[0]
        text = f"{target} announced a merger."
        predicted = service.ingest_pipeline.compute_touched(
            _doc("refresh-1", text)
        )
        survivor = _untouched_query(queries, predicted)
        warm: Dict[str, dict] = {}
        for query in (target, survivor):
            service.serve(QueryRequest(query=query, client_id="warmup"))
            warm[query] = service.serve(
                QueryRequest(query=query, client_id="warmup")
            ).kb.to_dict()

        engine = session.search_engine
        replacement = SearchEngine(
            world=engine.world,
            wikipedia_docs=dict(engine.wikipedia_docs),
            news_docs=dict(
                engine.news_docs, **{"refresh-1": _doc("refresh-1", text)}
            ),
        )
        version_before = session.corpus_version
        returned = service.refresh_corpus(search_engine=replacement)
        assert returned == version_before
        assert session.corpus_version == version_before
        assert session.search_engine is replacement

        again = service.serve(QueryRequest(query=survivor, client_id="w2"))
        assert again.served_from == "cache"
        assert again.kb.to_dict() == warm[survivor]
        assert normalize_entity(target) not in {
            sig.query for sig in service.store.signatures()
        }
        assert service.entity_versions.versions_for_query(target)
    finally:
        service.close()


def test_explicit_version_refresh_still_rotates_globally(
    tiny_world, background
):
    """Passing an explicit version keeps the original contract: the
    corpus version rotates and every warm entry goes cold."""
    session = _fresh_session(tiny_world, background)
    service = _service(session)
    try:
        query = _top_queries(session, 1)[0]
        service.serve(QueryRequest(query=query, client_id="warmup"))
        assert (
            service.serve(
                QueryRequest(query=query, client_id="warmup")
            ).served_from
            == "cache"
        )
        service.refresh_corpus(version="ingest-test-v2")
        assert session.corpus_version == "ingest-test-v2"
        cold = service.serve(QueryRequest(query=query, client_id="w2"))
        assert cold.served_from == "executor"
        assert cold.corpus_version == "ingest-test-v2"
    finally:
        service.close()


# ---- the gateway write path (real sockets) ---------------------------------


class _HttpClient:
    """Minimal keep-alive HTTP/1.1 client over one asyncio socket."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "_HttpClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
        raw_body: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, str], dict]:
        payload = (
            raw_body
            if raw_body is not None
            else (json.dumps(body).encode() if body is not None else b"")
        )
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode()
        self._writer.write(head + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, response_headers, json.loads(raw) if raw else {}


def _gateway(session, **config_kwargs):
    from repro.service.async_service import AsyncQKBflyService
    from repro.service.gateway import HttpGateway

    config_kwargs.setdefault("max_workers", 4)
    config_kwargs.setdefault("num_documents", 1)
    service = AsyncQKBflyService(
        QKBflyService(session, service_config=ServiceConfig(**config_kwargs)),
        own_service=True,
    )
    return HttpGateway(service, own_service=True)


def test_gateway_ingest_watch_longpoll_roundtrip(tiny_world, background):
    """The full subscriber loop over real sockets: watch, long-poll
    (blocking), ingest from a second connection, delta arrives."""
    session = _fresh_session(tiny_world, background)
    queries = _top_queries(session, 2)

    async def scenario():
        async with _gateway(session) as gateway:
            async with _HttpClient(gateway.host, gateway.port) as client:
                status, _, watched = await client.request(
                    "POST",
                    "/v1/watch",
                    body={"entities": [queries[0]], "client_id": "carol"},
                )
                assert status == 200
                sub_id = watched["subscription_id"]

                async def poll_task():
                    async with _HttpClient(
                        gateway.host, gateway.port
                    ) as poller:
                        return await poller.request(
                            "GET",
                            f"/v1/deltas?subscription={sub_id}"
                            "&after=0&timeout=5",
                        )

                pending = asyncio.create_task(poll_task())
                await asyncio.sleep(0.05)  # the poll parks first
                status, _, ack = await client.request(
                    "POST",
                    "/v1/ingest",
                    body={
                        "doc_id": "live-1",
                        "text": f"{queries[0]} resigned today.",
                        "client_id": "feed",
                    },
                )
                assert status == 200
                status, _, page = await pending
                assert status == 200

                status, _, stats = await client.request("GET", "/v1/stats")
                assert status == 200
            return watched, ack, page, stats

    watched, ack, page, stats = asyncio.run(scenario())
    assert watched["mode"] == "longpoll"
    assert ack["status"] == "ok"
    assert ack["doc_id"] == "live-1"
    assert ack["subscribers"] == 1
    assert ack["entity_versions"]
    assert ack["api_version"] == "v1"
    (delta,) = page["deltas"]
    assert delta["doc_id"] == "live-1"
    assert normalize_entity(queries[0]) in delta["entities"]
    assert stats["ingest"]["ingested"] == 1
    assert stats["ingest"]["subscriptions"]["subscriptions"] == 1


def test_gateway_write_path_strict_400s_and_405s(tiny_world, background):
    session = _fresh_session(tiny_world, background)

    async def scenario():
        async with _gateway(session) as gateway:
            async with _HttpClient(gateway.host, gateway.port) as client:
                out = {}
                out["bad_json"] = await client.request(
                    "POST", "/v1/ingest", raw_body=b"{nope"
                )
                out["missing_text"] = await client.request(
                    "POST", "/v1/ingest", body={"doc_id": "d"}
                )
                out["unknown_field"] = await client.request(
                    "POST",
                    "/v1/ingest",
                    body={"doc_id": "d", "text": "t", "surprise": 1},
                )
                out["watch_no_entities"] = await client.request(
                    "POST", "/v1/watch", body={"entities": []}
                )
                out["deltas_no_subscription"] = await client.request(
                    "GET", "/v1/deltas?after=0"
                )
                out["deltas_unknown_param"] = await client.request(
                    "GET", "/v1/deltas?subscription=sub-1&nope=1"
                )
                out["deltas_unknown_subscription"] = await client.request(
                    "GET", "/v1/deltas?subscription=sub-404"
                )
                out["ingest_get"] = await client.request("GET", "/v1/ingest")
                out["deltas_post"] = await client.request(
                    "POST", "/v1/deltas", body={}
                )
                return out

    out = asyncio.run(scenario())
    status, _, body = out["bad_json"]
    assert status == 400
    assert body["error"]["code"] == "invalid_json"
    for case in (
        "missing_text",
        "unknown_field",
        "watch_no_entities",
        "deltas_no_subscription",
        "deltas_unknown_param",
        "deltas_unknown_subscription",
    ):
        status, _, body = out[case]
        assert status == 400, case
        assert body["error"]["code"] == "invalid_request", case
    status, headers, _ = out["ingest_get"]
    assert status == 405 and "POST" in headers.get("allow", "")
    status, headers, _ = out["deltas_post"]
    assert status == 405 and "GET" in headers.get("allow", "")


class _WebhookReceiver:
    """A loopback HTTP receiver that records delta POSTs; the first
    ``fail_first`` requests are answered 500 (delivery must retry)."""

    def __init__(self, fail_first: int = 0) -> None:
        self.received: List[dict] = []
        self.fail_first = fail_first
        receiver = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("content-length", "0"))
                payload = json.loads(self.rfile.read(length))
                if receiver.fail_first > 0:
                    receiver.fail_first -= 1
                    self.send_response(500)
                else:
                    receiver.received.append(payload)
                    self.send_response(200)
                self.end_headers()

            def log_message(self, *args):  # silence test output
                pass

        self._server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), Handler
        )
        self.url = f"http://127.0.0.1:{self._server.server_port}/hook"
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


def test_gateway_webhook_delivery_acks_exactly_once(tiny_world, background):
    session = _fresh_session(tiny_world, background)
    queries = _top_queries(session, 2)
    receiver = _WebhookReceiver()

    async def scenario():
        async with _gateway(session) as gateway:
            async with _HttpClient(gateway.host, gateway.port) as client:
                status, _, watched = await client.request(
                    "POST",
                    "/v1/watch",
                    body={
                        "entities": [queries[0]],
                        "mode": "webhook",
                        "callback_url": receiver.url,
                        "client_id": "hook",
                    },
                )
                assert status == 200
                status, _, ack = await client.request(
                    "POST",
                    "/v1/ingest",
                    body={
                        "doc_id": "live-1",
                        "text": f"{queries[0]} resigned today.",
                    },
                )
                assert status == 200
                # A second ingest triggers another delivery pass; the
                # first (acked) delta must not be POSTed again.
                status, _, second = await client.request(
                    "POST",
                    "/v1/ingest",
                    body={
                        "doc_id": "live-2",
                        "text": f"{queries[0]} was reinstated.",
                    },
                )
                assert status == 200
            return watched, ack, second

    watched, ack, second = asyncio.run(scenario())
    try:
        assert ack["deliveries"]["delivered"] == 1
        assert second["deliveries"]["delivered"] == 1
        assert [d["doc_id"] for d in receiver.received] == [
            "live-1",
            "live-2",
        ]
        assert all(
            d["subscription_id"] == watched["subscription_id"]
            and d["state"] == "delivery"
            for d in receiver.received
        )
        versions = [
            d["entity_versions"][normalize_entity(queries[0])]
            for d in receiver.received
        ]
        assert versions == sorted(versions)  # per-entity monotone
    finally:
        receiver.close()


def test_webhook_failure_leaves_delta_pending_for_retry(
    tiny_world, background
):
    session = _fresh_session(tiny_world, background)
    queries = _top_queries(session, 1)
    receiver = _WebhookReceiver(fail_first=1)
    service = _service(session)
    try:
        service.watch(
            WatchRequest(
                entities=[queries[0]],
                mode="webhook",
                callback_url=receiver.url,
                client_id="hook",
            )
        )
        result = service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[0]} resigned.")
        )
        # First POST answered 500: the delta stays pending, nothing
        # recorded as delivered.
        assert result.deliveries == {
            "attempted": 1,
            "delivered": 0,
            "failed": 1,
        }
        assert receiver.received == []
        retry = service.subscriptions.deliver_webhooks()
        assert retry == {"attempted": 1, "delivered": 1, "failed": 0}
        assert [d["doc_id"] for d in receiver.received] == ["live-1"]
        # Nothing pending: another pass is a no-op.
        assert service.subscriptions.deliver_webhooks()["attempted"] == 0
    finally:
        service.close()
        receiver.close()


# ---- the async front end ---------------------------------------------------


def test_async_front_end_ingest_watch_poll(tiny_world, background):
    from repro.service.async_service import AsyncQKBflyService

    session = _fresh_session(tiny_world, background)
    queries = _top_queries(session, 1)

    async def scenario():
        front = AsyncQKBflyService(_service(session), own_service=True)
        try:
            subscription = await front.watch(
                WatchRequest(entities=[queries[0]], client_id="carol")
            )
            result = await front.ingest(
                IngestRequest(
                    doc_id="live-1", text=f"{queries[0]} resigned."
                )
            )
            page = await front.poll_deltas(
                subscription["subscription_id"], after=0, timeout=0.0
            )
            return result, page
        finally:
            await front.aclose()

    result, page = asyncio.run(scenario())
    assert result.status.value == "ok"
    assert result.subscribers == 1
    (delta,) = page["deltas"]
    assert delta["doc_id"] == "live-1"
