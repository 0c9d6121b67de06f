"""Fault injection against the multi-node fabric: kill a shard server
mid-save, drop connections mid-read, crash the online rebalance at its
copy and cutover points — and prove, via the fault harness, that the
freshness checker stays green and every acknowledged write survives
(or the attempt rolls back atomically and is retried).

Clusters:

1. targeted schedules against a live server/client pair — the typed
   failure surfaces (retry absorbs a server crash, a dropped
   connection, a stale write_seq) without any scenario scaffolding;
2. targeted schedules through ``run_schedule("fabric", ...)`` — the
   full serve/refresh/rebalance/verify scenario under one named fault
   each, asserting the scenario's own invariants (no freshness
   violations, no lost acknowledged writes, entries readable from the
   bare shard files after shutdown).

Seeded-replay determinism for this scenario is one case of
``tests/test_faultinject.py::test_scenario_seeded_replay_is_identical``.
"""

from __future__ import annotations

import pytest

from repro.faultinject.harness import run_schedule
from repro.faultinject.points import inject
from repro.faultinject.schedule import FaultAction, FaultSchedule
from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.fabric import RemoteKbStore, ShardServer


def _kb(tag: str) -> KnowledgeBase:
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, f"E_{tag}", tag.title()),
            predicate="about",
            objects=[Argument(ARG_ENTITY, "E_X", "X")],
            pattern="about",
            confidence=0.9,
            doc_id=f"doc_{tag}",
            sentence_index=0,
        )
    )
    return kb.build()


# ---- targeted faults against a server/client pair ---------------------------


@pytest.fixture()
def pair(tmp_path):
    server = ShardServer(str(tmp_path / "shard.sqlite"))
    server.start()
    client = RemoteKbStore(server.address, timeout=5.0)
    yield server, client
    client.close()
    server.stop()


def test_server_crash_mid_save_is_absorbed_by_retry(pair):
    server, client = pair
    schedule = FaultSchedule(
        actions=(FaultAction("fabric.server.handle", 1, "crash"),)
    )
    with inject(schedule) as injector:
        entry_id = client.save("q", _kb("q"), corpus_version="v1")
        assert entry_id > 0
        fired = list(injector.fired)
    # The server-side crash killed the first attempt without a reply;
    # the client retried on a fresh connection and the save landed.
    assert any(point == "fabric.server.handle" for point, _, _ in fired)
    assert server.crashes == 1
    assert client.client_stats()["retried"] >= 1
    assert client.load("q", corpus_version="v1") is not None
    # Exactly one row: the crashed attempt did not double-apply.
    assert client.entry_count() == 1


def test_connection_drop_mid_read_is_absorbed_by_retry(pair):
    server, client = pair
    client.save("q", _kb("q"), corpus_version="v1")
    # Hit counting starts when the schedule is armed, so hit 1 of the
    # transport point is the read's first attempt: the connection is
    # severed mid-flight and the retry recovers on a fresh socket.
    schedule = FaultSchedule(
        actions=(FaultAction("fabric.remote.request", 1, "drop_conn"),)
    )
    with inject(schedule):
        kb = client.load("q", corpus_version="v1")
    assert kb is not None and kb.to_dict() == _kb("q").to_dict()
    stats = client.client_stats()
    assert stats["dropped_connections"] == 1
    assert stats["retried"] == 1
    assert server.crashes == 0  # the server never saw a fault


def test_replica_delivery_crash_is_counted_not_fatal(tmp_path):
    from repro.service.fabric import Fabric

    schedule = FaultSchedule(
        actions=(FaultAction("fabric.replicate.entry", 1, "crash"),)
    )
    with Fabric.launch_local(
        str(tmp_path / "fab"), num_shards=1, replication_factor=2
    ) as fabric:
        with inject(schedule):
            fabric.store.save("q", _kb("q"), corpus_version="v1")
            assert fabric.flush_replication(timeout=30.0)
        # The one delivery crashed: the replica lags forever, the
        # primary still answers, and the drop is visible in stats.
        assert fabric.stats()["replication"]["dropped"] == 1
        assert fabric.store.load("q", corpus_version="v1") is not None


# ---- targeted faults through the full scenario ------------------------------


def _assert_scenario_invariants(report):
    assert report.passed, report.describe()
    assert not report.violations
    assert not report.errors
    assert report.counts["serves"] > 0
    assert report.counts["store_reads"] > 0
    assert report.counts["rebalance_moved"] > 0


def test_scenario_clean_schedule_baseline():
    report = run_schedule("fabric", FaultSchedule(actions=()))
    _assert_scenario_invariants(report)
    assert report.counts["crashes"] == 0
    assert not report.fired


def test_scenario_shard_server_killed_mid_save():
    # Three server-side crashes: each kills one request handler dead
    # (no reply), which the remote client must absorb by retrying.
    report = run_schedule(
        "fabric",
        FaultSchedule(
            actions=(
                FaultAction("fabric.server.handle", 1, "crash"),
                FaultAction("fabric.server.handle", 5, "crash"),
                FaultAction("fabric.remote.request", 9, "drop_conn"),
            )
        )
    )
    _assert_scenario_invariants(report)
    assert {point for point, _, _ in report.fired} == {
        "fabric.server.handle",
        "fabric.remote.request",
    }


def test_scenario_crash_during_online_rebalance_copy_and_cutover():
    report = run_schedule(
        "fabric",
        FaultSchedule(
            actions=(
                FaultAction("sharding.online_rebalance.copy", 1, "crash"),
                FaultAction("sharding.online_rebalance.cutover", 1, "crash"),
            )
        )
    )
    _assert_scenario_invariants(report)
    # Both crashes fired and were survived: the first aborted a copy
    # attempt (window stays open, retry resumes), the second aborted
    # the cutover *before* the manifest commit (retry re-runs it).
    assert report.counts["crashes"] >= 2
    assert {point for point, _, _ in report.fired} == {
        "sharding.online_rebalance.copy",
        "sharding.online_rebalance.cutover",
    }


def test_scenario_replication_crash_with_refresh_in_flight():
    report = run_schedule(
        "fabric",
        FaultSchedule(
            actions=(
                FaultAction("fabric.replicate.entry", 1, "crash"),
                FaultAction("fabric.replicate.entry", 3, "delay"),
            )
        )
    )
    _assert_scenario_invariants(report)
    # Dropped replica deliveries must not cost acknowledged writes:
    # the verify phase reopens the primaries and found every one.
    assert any(
        point == "fabric.replicate.entry" for point, _, _ in report.fired
    )
