"""Targeted fault schedules against the live-ingest path.

Deterministic, hand-built schedules (not the randomized sweep — that
is ``scripts/run_faultinject.py --scenario ingest``) pinning the crash-safety
contract of docs/INGEST.md:

- a crash at ``ingest.commit`` fires *before any mutation*: the
  engine, the version vector, every warm tier, and the store's FTS5
  search index are untouched, and nothing was acknowledged;
- a crash at ``ingest.invalidate`` fires *after* the engine swap and
  version bump but before the invalidation and the acknowledgment:
  :meth:`~repro.service.ingest.pipeline.IngestPipeline.recover` redoes
  the invalidation from the write-ahead intent, and the retry commits
  cleanly as an update;
- a crash at ``subscribe.deliver`` can force *redelivery of an
  unacked* delta but can never *double-deliver an acked* one, on both
  the long-poll and the webhook transport;
- the seeded ``ingest`` scenario of :mod:`repro.faultinject.harness`
  passes a sweep (its deterministic replay is one case of
  ``tests/test_faultinject.py::test_scenario_seeded_replay_is_identical``).
"""

from __future__ import annotations

import http.server
import json
import threading
from typing import List

import pytest

from repro.core.qkbfly import SessionState
from repro.faultinject import harness
from repro.faultinject.history import EVENT_INGEST, HistoryRecorder
from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultAction, FaultSchedule
from repro.service.api import IngestRequest, QueryRequest, WatchRequest
from repro.service.service import QKBflyService, ServiceConfig


def _top_queries(session: SessionState, count: int) -> List[str]:
    entities = sorted(
        session.entity_repository.entities(), key=lambda e: -e.prominence
    )
    return [e.canonical_name for e in entities[:count]]


def _service(session, tmp_path) -> QKBflyService:
    return QKBflyService(
        session,
        service_config=ServiceConfig(
            max_workers=2,
            num_documents=1,
            store_path=str(tmp_path / "store"),
            store_shards=2,
        ),
    )


def _crash_at(point: str, hit: int = 1) -> FaultSchedule:
    return FaultSchedule(actions=(FaultAction(point, hit, "crash"),))


# ---- crash at ingest.commit: atomic no-op ----------------------------------


def test_crash_mid_commit_rolls_back_atomically(
    fresh_session, tmp_path
):
    session = fresh_session
    service = _service(session, tmp_path)
    recorder = HistoryRecorder()
    service.attach_history(recorder)
    try:
        query = _top_queries(session, 1)[0]
        service.serve(QueryRequest(query=query, client_id="alice"))
        engine_before = session.search_engine
        snapshot_before = service.entity_versions.snapshot()
        stored_before = sorted(
            (sig.query, sig.corpus_version)
            for sig in service.store.signatures()
        )

        request = IngestRequest(doc_id="live-1", text=f"{query} resigned.")
        with inject(_crash_at("ingest.commit")):
            with pytest.raises(SimulatedCrash):
                service.ingest(request)

        # Nothing moved: no engine swap, no version bump, no doc, no
        # invalidation, and the store (FTS5 index included) is intact.
        assert session.search_engine is engine_before
        assert "live-1" not in session.search_engine.news_docs
        assert service.entity_versions.snapshot() == snapshot_before
        assert (
            sorted(
                (sig.query, sig.corpus_version)
                for sig in service.store.signatures()
            )
            == stored_before
        )
        for shard in service.store.shard_backends():
            assert shard.search_integrity()["consistent"]
        assert not any(
            event.kind == EVENT_INGEST for event in recorder.snapshot()
        )
        # The warm entry survived the aborted commit.
        again = service.serve(QueryRequest(query=query, client_id="alice"))
        assert again.served_from == "cache"

        # The retry (no schedule armed) commits the same request.
        result = service.ingest(request)
        assert result.doc_id == "live-1"
        assert session.search_engine.news_docs["live-1"].text.startswith(
            query
        )
    finally:
        service.close()


# ---- crash at ingest.invalidate: recover() redoes the invalidation ---------


def test_crash_mid_invalidate_recovers_idempotently(
    fresh_session, tmp_path
):
    session = fresh_session
    service = _service(session, tmp_path)
    recorder = HistoryRecorder()
    service.attach_history(recorder)
    try:
        query = _top_queries(session, 1)[0]
        service.serve(QueryRequest(query=query, client_id="alice"))
        assert (
            service.serve(
                QueryRequest(query=query, client_id="alice")
            ).served_from
            == "cache"
        )

        request = IngestRequest(doc_id="live-1", text=f"{query} resigned.")
        with inject(_crash_at("ingest.invalidate")):
            with pytest.raises(SimulatedCrash):
                service.ingest(request)

        # The commit half landed (engine swapped, vector bumped) but
        # the ingest was never acknowledged...
        assert "live-1" in session.search_engine.news_docs
        assert service.entity_versions.snapshot()
        assert not any(
            event.kind == EVENT_INGEST for event in recorder.snapshot()
        )
        # ...and the write-ahead intent repairs the missed
        # invalidation before anything else runs.
        assert service.ingest_pipeline.recover() is True
        assert service.ingest_pipeline.recover() is False  # idempotent
        cold = service.serve(QueryRequest(query=query, client_id="bob"))
        assert cold.served_from == "executor"

        # The feeder's retry acknowledges cleanly as an update of the
        # already-applied revision.
        result = service.ingest(request)
        assert result.updated is True
        assert any(
            event.kind == EVENT_INGEST and event.doc_id == "live-1"
            for event in recorder.snapshot()
        )
    finally:
        service.close()


# ---- crash mid-delivery: never double-delivers an acked delta --------------


def test_longpoll_crash_redelivers_unacked_but_never_acked(
    fresh_session, tmp_path
):
    session = fresh_session
    service = _service(session, tmp_path)
    try:
        queries = _top_queries(session, 2)
        subscription = service.watch(
            WatchRequest(entities=[queries[0]], client_id="carol")
        )
        sub_id = subscription["subscription_id"]

        service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[0]} resigned.")
        )
        page = service.poll_deltas(sub_id, after=0, timeout=0.0)
        (first,) = page["deltas"]
        acked = first["delta_id"]
        # Cursor-ack the first delta, then ingest a second.
        service.poll_deltas(sub_id, after=acked, timeout=0.0)
        service.ingest(
            IngestRequest(
                doc_id="live-2", text=f"{queries[0]} was reinstated."
            )
        )

        # The delivery of the second delta crashes mid-poll: the delta
        # stays pending (unacked), and the acked one stays gone.
        with inject(_crash_at("subscribe.deliver")):
            with pytest.raises(SimulatedCrash):
                service.poll_deltas(sub_id, after=acked, timeout=0.0)
            # Injection still armed but exhausted: the retry delivers.
            retry = service.poll_deltas(sub_id, after=acked, timeout=0.0)
        delivered = [d["delta_id"] for d in retry["deltas"]]
        assert delivered == [acked + 1]  # redelivery of the unacked one
        assert acked not in delivered  # the acked delta never returns
    finally:
        service.close()


class _CountingReceiver:
    """Loopback webhook receiver recording every delta POST."""

    def __init__(self) -> None:
        self.received: List[dict] = []
        receiver = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("content-length", "0"))
                receiver.received.append(
                    json.loads(self.rfile.read(length))
                )
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
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


def test_webhook_crash_before_post_never_double_delivers_acked(
    fresh_session, tmp_path
):
    session = fresh_session
    service = _service(session, tmp_path)
    receiver = _CountingReceiver()
    try:
        queries = _top_queries(session, 2)
        service.watch(
            WatchRequest(
                entities=[queries[0]],
                mode="webhook",
                callback_url=receiver.url,
                client_id="hook",
            )
        )
        # First ingest delivers (and acks) delta 1 inline.
        first = service.ingest(
            IngestRequest(doc_id="live-1", text=f"{queries[0]} resigned.")
        )
        assert first.deliveries["delivered"] == 1

        # The second ingest's inline delivery pass crashes at the
        # fault point, which sits *before* the POST: delta 2 was never
        # sent and stays pending.
        with inject(_crash_at("subscribe.deliver")):
            with pytest.raises(SimulatedCrash):
                service.ingest(
                    IngestRequest(
                        doc_id="live-2",
                        text=f"{queries[0]} was reinstated.",
                    )
                )
        assert [d["doc_id"] for d in receiver.received] == ["live-1"]

        # The crash hit delivery, after the acknowledgment: the ingest
        # itself is durable, and a retry pass delivers delta 2 exactly
        # once — the acked delta 1 is never POSTed again.
        assert "live-2" in session.search_engine.news_docs
        retry = service.subscriptions.deliver_webhooks()
        assert retry["delivered"] == 1
        assert [d["doc_id"] for d in receiver.received] == [
            "live-1",
            "live-2",
        ]
        assert [d["delta_id"] for d in receiver.received] == [1, 2]
    finally:
        service.close()
        receiver.close()


# ---- the seeded scenario sweep ---------------------------------------------


def test_ingest_scenario_sweep_passes():
    reports, failing = harness.run_schedules("ingest", list(range(6)))
    assert failing == [], "\n\n".join(
        report.describe() for report in reports if not report.passed
    )
    assert any(report.counts["crashes"] for report in reports)
