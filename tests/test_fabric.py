"""Multi-node KB fabric: protocol, shard servers, replica groups,
online rebalance, and the serving guard on offline rebalance.

Clusters:

1. wire protocol — framing round-trips, torn/oversized/malformed
   frames are typed errors, never half-parsed messages;
2. shard server + remote client — reconnects, bounded retry into
   ``ShardUnavailable``, the ``write_seq`` version check that makes
   replica redelivery order-safe, and the frame-version refusal (the
   full surface runs in ``tests/test_store_contract.py``);
3. replica groups — primary-write/replica-read fan-out, miss and
   failure fallback to the primary, replication lag never serving a
   version the key didn't ask for, and the one ordered write path:
   an invalidation is not overtaken by a queued save, a failed
   delivery fences its replica, compaction deletes by key, a new
   client's writes are not taken for older ones, and concurrent
   writers leave the replica equal to the primary;
4. the fabric — local-vs-fabric backend equivalence (including
   end-to-end through a real service), online rebalance while writes
   continue, resume-after-crash, and the abort path;
5. offline-rebalance serving guard — rebalancing a store that is open
   for serving (in-process or via a live ``serving.pid``) must refuse
   loudly instead of corrupting it;
6. hypothesis properties — backend equivalence, replica-read version
   safety under lag, a replica group never serving what its primary
   dropped, and online rebalance preserving the exact entry set under
   concurrent writes.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultAction, FaultSchedule
from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.fabric import (
    FRAME_VERSION,
    Fabric,
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteKbStore,
    ReplicatedShardClient,
    Replicator,
    ShardServer,
    ShardUnavailable,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.service.kb_store import load_signature
from repro.service.service import ServiceConfig
from repro.service.sharding import SERVING_MARKER_NAME, ShardedKbStore


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


def _keys(store):
    """(query, mode, algorithm, corpus_version) of every stored entry."""
    return sorted(
        (sig.query, sig.mode, sig.algorithm, sig.corpus_version)
        for sig in store.signatures()
    )


def _queries(store):
    return {sig.query for sig in store.signatures()}


@pytest.fixture()
def server(tmp_path):
    srv = ShardServer(str(tmp_path / "shard.sqlite"))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with RemoteKbStore(server.address, timeout=5.0) as remote:
        yield remote


# ---- wire protocol ----------------------------------------------------------


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payload = {"op": "save", "args": {"query": "café ❤"}}
        send_frame(left, payload)
        assert recv_frame(right) == payload
        left.close()
        assert recv_frame(right) is None  # clean EOF at a boundary
    finally:
        right.close()


def test_torn_frame_is_a_protocol_error_not_a_clean_eof():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"op": "x", "args": {"blob": "y" * 500}})
        # Peek the intact length header, then sever mid-body.
        import struct

        header = right.recv(4, socket.MSG_PEEK)
        (length,) = struct.unpack(">I", header)
        assert length > 100
        right.recv(4)
        right.recv(50)  # partial body
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_oversized_and_malformed_frames_are_rejected():
    left, right = socket.socketpair()
    try:
        import struct

        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()
    left, right = socket.socketpair()
    try:
        import struct

        body = b"[1, 2, 3]"  # valid JSON, wrong shape
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_parse_address_forms():
    assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
    assert parse_address(("localhost", 9)) == ("localhost", 9)
    with pytest.raises(ValueError):
        parse_address("no-port-here")


# ---- shard server + remote client -------------------------------------------


def test_client_reconnects_after_pooled_connection_dies(client):
    client.set_corpus_version("v1")
    client.save("q", _kb("q"), corpus_version="v1")
    # Sever the pooled connection behind the client's back; the next
    # request must transparently retry on a fresh one.
    with client._pool_lock:
        assert client._pool
        for sock in client._pool:
            sock.close()
    assert client.load("q", corpus_version="v1") is not None
    assert client.client_stats()["dropped_connections"] >= 1


def test_down_server_yields_shard_unavailable(tmp_path):
    srv = ShardServer(str(tmp_path / "s.sqlite"))
    srv.start()
    address = srv.address
    srv.stop()
    remote = RemoteKbStore(
        address, timeout=0.5, retries=1, backoff_seconds=0.001
    )
    with pytest.raises(ShardUnavailable) as excinfo:
        remote.load("q", corpus_version="v1")
    assert excinfo.value.address == address
    remote.close()


def test_write_seq_rejects_reordered_replication_deliveries(client):
    client.set_corpus_version("v1")
    newer = client.save(
        "q", _kb("newer"), corpus_version="v1", write_seq=5
    )
    assert newer > 0
    # A retried/reordered older delivery for the same key must be
    # ignored server-side, not clobber the newer content.
    assert (
        client.save("q", _kb("older"), corpus_version="v1", write_seq=3)
        == -1
    )
    kb = client.load("q", corpus_version="v1")
    assert kb.to_dict() == _kb("newer").to_dict()
    # Distinct keys track independent sequences.
    assert (
        client.save("r", _kb("r"), corpus_version="v1", write_seq=1) > 0
    )


def test_v1_frame_gets_a_typed_version_error(server):
    # A version-1 client sent the key as seven flat arguments and no
    # "v" field; the server must refuse it by name, not misread it.
    with socket.create_connection(server.address, timeout=5.0) as sock:
        send_frame(
            sock,
            {
                "op": "load",
                "args": {
                    "query": "q", "corpus_version": "v1", "mode": "joint",
                    "algorithm": "greedy", "source": "wikipedia",
                    "num_documents": 1, "config_digest": "",
                },
            },
        )
        response = recv_frame(sock)
    assert response["ok"] is False
    assert response["type"] == "ProtocolError"
    assert "version 1" in response["error"]
    assert f"version {FRAME_VERSION}" in response["error"]


def test_shard_server_standalone_subprocess_announces_and_serves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(
                __import__("pathlib").Path(__file__).resolve().parent.parent
                / "src"
            ),
            env.get("PYTHONPATH"),
        )
        if part
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.fabric.shard_server",
            "--path",
            str(tmp_path / "sub.sqlite"),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        import json

        announced = json.loads(proc.stdout.readline())
        with RemoteKbStore(
            (announced["host"], announced["port"]), timeout=5.0
        ) as remote:
            remote.save("q", _kb("q"), corpus_version="v1")
            assert remote.entry_count() == 1
    finally:
        proc.terminate()
        proc.wait(timeout=10)


# ---- replica groups ---------------------------------------------------------


def _replica_group(tmp_path, count=2):
    servers = [
        ShardServer(str(tmp_path / f"member-{i}.sqlite"))
        for i in range(count)
    ]
    for srv in servers:
        srv.start()
    replicator = Replicator()
    group = ReplicatedShardClient(
        RemoteKbStore(servers[0].address, timeout=5.0),
        [RemoteKbStore(srv.address, timeout=5.0) for srv in servers[1:]],
        replicator,
    )
    return servers, replicator, group


def _hold_replication(monkeypatch):
    """Hold every replica delivery at its fault point until the
    returned event is set."""
    from repro.service.fabric import cluster

    gate = threading.Event()
    real = cluster.fault_point

    def held(name, **context):
        if name == "fabric.replicate.entry":
            assert gate.wait(timeout=30)
        return real(name, **context)

    monkeypatch.setattr(cluster, "fault_point", held)
    return gate


def _teardown_group(servers, replicator, group):
    replicator.stop()
    group.close()
    for srv in servers:
        srv.stop()


def test_replica_reads_hit_after_propagation(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        group.save("q", _kb("q"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        kb = group.load("q", corpus_version="v1")
        assert kb.to_dict() == _kb("q").to_dict()
        assert group.replica_hits == 1 and group.primary_reads == 0
        # The replica member really holds the entry, with the primary's
        # creation stamp (a TTL compaction drops it on both or neither).
        assert servers[1].store.entry_count() == 1
        assert servers[1].store.signatures() == servers[0].store.signatures()
    finally:
        _teardown_group(servers, replicator, group)


def test_lagging_replica_misses_and_primary_answers(tmp_path, monkeypatch):
    servers, replicator, group = _replica_group(tmp_path)
    gate = _hold_replication(monkeypatch)
    try:
        # Propagation is held: the replica stays empty.
        group.save("q", _kb("q"), corpus_version="v1")
        kb = group.load("q", corpus_version="v1")
        assert kb is not None
        assert group.replica_misses == 1 and group.primary_reads == 1
    finally:
        gate.set()
        _teardown_group(servers, replicator, group)


def test_dead_replica_fails_over_to_primary(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        group.save("q", _kb("q"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        servers[1].stop()
        group.replicas[0].retries = 0  # fail fast in this test
        kb = group.load("q", corpus_version="v1")
        assert kb is not None
        assert group.replica_errors == 1 and group.primary_reads == 1
        # The replica sits out the cooldown: the next read goes
        # straight to the primary without another connect attempt.
        kb = group.load("q", corpus_version="v1")
        assert kb is not None and group.primary_reads == 2
    finally:
        replicator.stop()
        group.close()
        servers[0].stop()


def test_replication_lag_never_serves_a_version_the_key_didnt_ask_for(
    tmp_path, monkeypatch
):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        group.save("q", _kb("old"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        gate = _hold_replication(monkeypatch)  # v2 is held from the replica
        group.save("q", _kb("new"), corpus_version="v2")
        # Store keys include the corpus version: the lagging replica
        # *misses* the v2 key and the primary answers — it can never
        # substitute its stale v1 row.
        kb = group.load("q", corpus_version="v2")
        assert kb.to_dict() == _kb("new").to_dict()
        assert group.replica_misses == 1 and group.primary_reads == 1
        gate.set()
    finally:
        _teardown_group(servers, replicator, group)


def test_invalidation_is_not_overtaken_by_a_queued_replica_save(
    tmp_path, monkeypatch
):
    servers, replicator, group = _replica_group(tmp_path)
    gate = _hold_replication(monkeypatch)
    try:
        # The primary acks; the replica's delivery of the save is held.
        group.save("alice spouse", _kb("a"), corpus_version="v1")
        removed = []
        deleter = threading.Thread(
            target=lambda: removed.append(
                group.delete_for_entities(["alice"])
            )
        )
        deleter.start()
        deadline = time.monotonic() + 10.0
        while servers[0].store.entry_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert servers[0].store.entry_count() == 0
        gate.set()
        deleter.join(timeout=30)
        assert not deleter.is_alive()
        assert removed == [1]
        assert replicator.flush(timeout=10.0)
        # The queued save reached the replica before the invalidation
        # did, so the replica holds nothing the primary dropped.
        assert servers[1].store.entry_count() == 0
        assert group.load("alice spouse", corpus_version="v1") is None
    finally:
        gate.set()
        _teardown_group(servers, replicator, group)


def test_dropped_replica_invalidation_fences_the_replica(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        group.save("alice spouse", _kb("a"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        path, port = servers[1].store_path, servers[1].address[1]
        servers[1].stop()
        group.replicas[0].retries = 0
        assert group.delete_for_entities(["alice"]) == 1
        # The replica comes back holding the entry it never saw deleted.
        servers[1] = ShardServer(path, port=port)
        servers[1].start()
        assert servers[1].store.entry_count() == 1
        assert group.load("alice spouse", corpus_version="v1") is None
        assert group.replica_hits == 0 and group.primary_reads == 1
        assert group.fabric_stats()["fenced"] == [group.replicas[0].path]
    finally:
        _teardown_group(servers, replicator, group)


def test_compaction_deletes_the_primarys_keys_on_every_member(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        # Offset the replica's entry ids by one row of its own.
        servers[1].store.save(
            "extra", _kb("extra"), corpus_version="v1", created_at=50.0
        )
        with ShardedKbStore(
            str(tmp_path / "routed"),
            num_shards=1,
            backend_factory=lambda index, path: group,
        ) as store:
            for i, query in enumerate("abcd"):
                store.save(
                    query, _kb(query), corpus_version="v1",
                    created_at=100.0 + i,
                )
            assert replicator.flush(timeout=10.0)
            assert store.compact(max_entries=2) == 2
            assert replicator.flush(timeout=10.0)
        assert _queries(servers[0].store) == {"c", "d"}
        assert _queries(servers[1].store) == {"extra", "c", "d"}
    finally:
        _teardown_group(servers, replicator, group)


def test_a_new_client_writes_through_an_earlier_clients_sequences(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    fresh = None
    try:
        for tag in ("one", "two", "three"):
            group.save("q", _kb(tag), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        # A restarted service attaches a new client to the same servers.
        fresh = ReplicatedShardClient(
            RemoteKbStore(servers[0].address, timeout=5.0),
            [RemoteKbStore(servers[1].address, timeout=5.0)],
            replicator,
        )
        fresh.save("q", _kb("four"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        for server in servers:
            kb = server.store.load("q", corpus_version="v1")
            assert kb.to_dict() == _kb("four").to_dict()
    finally:
        if fresh is not None:
            fresh.close()
        _teardown_group(servers, replicator, group)


def test_concurrent_writers_leave_the_replica_equal_to_the_primary(tmp_path):
    # More writers than cores and a short switch interval: a write
    # queued out of primary-ack order would leave the replica holding
    # content (or an entry) the primary replaced or dropped.
    servers, replicator, group = _replica_group(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def writer(n: int) -> None:
            name = "alice" if n % 2 else "bob"
            for i in range(15):
                group.save(f"{name} {i % 3}", _kb(f"{n}-{i}"), corpus_version="v1")
                if i % 5 == 4:
                    group.delete_for_entities([name])

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert replicator.flush(timeout=30.0)

        def contents(server):
            return sorted(
                (sig.query, load_signature(server.store, sig).to_dict())
                for sig in server.store.signatures()
            )

        assert contents(servers[1]) == contents(servers[0])
        assert group.fabric_stats()["fenced"] == []
    finally:
        sys.setswitchinterval(interval)
        _teardown_group(servers, replicator, group)


# ---- the fabric -------------------------------------------------------------


def test_fabric_equals_local_backend(tmp_path):
    queries = [f"query-{i}" for i in range(12)]
    with ShardedKbStore(str(tmp_path / "local"), num_shards=3) as local:
        local.set_corpus_version("v1")
        for q in queries:
            local.save(q, _kb(q), corpus_version="v1")
        local_keys = _keys(local)
        local_counts = local.shard_entry_counts()
        local_kbs = {
            q: local.load(q, corpus_version="v1").to_dict() for q in queries
        }
    with Fabric.launch_local(
        str(tmp_path / "fab"), num_shards=3, replication_factor=2
    ) as fabric:
        fabric.store.set_corpus_version("v1")
        for q in queries:
            fabric.store.save(q, _kb(q), corpus_version="v1")
        assert fabric.flush_replication(timeout=30.0)
        assert _keys(fabric.store) == local_keys
        for q in queries:
            assert (
                fabric.store.load(q, corpus_version="v1").to_dict()
                == local_kbs[q]
            )
        # Same routing function on both sides: per-shard counts match.
        assert fabric.store.shard_entry_counts() == local_counts


def test_fabric_online_rebalance_under_concurrent_writes(tmp_path):
    with Fabric.launch_local(
        str(tmp_path / "fab"), num_shards=3, replication_factor=2
    ) as fabric:
        store = fabric.store
        store.set_corpus_version("v1")
        for i in range(10):
            store.save(f"pre-{i}", _kb(f"pre-{i}"), corpus_version="v1")

        stop = threading.Event()
        written = []

        def writer() -> None:
            i = 0
            while not stop.is_set():
                query = f"live-{i}"
                store.save(query, _kb(query), corpus_version="v1")
                written.append(query)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            moved = fabric.online_rebalance(4)
        finally:
            stop.set()
            thread.join()
        assert moved >= 10
        assert store.num_shards == 4
        expected = {f"pre-{i}" for i in range(10)} | set(written)
        assert _queries(store) == expected
        for query in expected:
            assert store.load(query, corpus_version="v1") is not None


def test_fabric_stats_shape_and_plan_rebalance(tmp_path):
    with Fabric.launch_local(
        str(tmp_path / "fab"), num_shards=2, replication_factor=2
    ) as fabric:
        fabric.store.set_corpus_version("v1")
        fabric.store.save("q", _kb("q"), corpus_version="v1")
        assert fabric.flush_replication(timeout=30.0)
        fabric.store.load("q", corpus_version="v1")
        stats = fabric.stats()
        assert stats["replication_factor"] == 2
        assert stats["num_shards"] == 2
        assert stats["servers"] == 4
        assert stats["rebalance_in_progress"] is False
        # Both shards' set_corpus_version and the one save reach their
        # group's replica through the ordered write path.
        assert stats["replication"]["propagated"] == 3
        assert len(stats["shards"]) == 2
        group = stats["shards"][0]
        assert set(group) >= {
            "primary",
            "replicas",
            "replica_reads",
            "replica_hits",
            "primary_reads",
            "transport",
        }
        # One entry on two shards is maximally imbalanced but tiny;
        # the advisory planner still flags it past the threshold.
        assert fabric.plan_rebalance(threshold=1.5) == 3
        assert fabric.plan_rebalance(threshold=2.5) is None


def test_fabric_connect_rejects_uneven_groups(tmp_path):
    with pytest.raises(ValueError):
        Fabric.connect(
            str(tmp_path),
            [["127.0.0.1:1", "127.0.0.1:2"], ["127.0.0.1:3"]],
        )
    with pytest.raises(ValueError):
        Fabric.connect(str(tmp_path), [])


def test_crash_mid_copy_leaves_window_open_resume_and_abort(tmp_path):
    with Fabric.launch_local(
        str(tmp_path / "fab"), num_shards=2, replication_factor=1
    ) as fabric:
        store = fabric.store
        store.set_corpus_version("v1")
        for i in range(6):
            store.save(f"q{i}", _kb(f"q{i}"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(
                FaultAction("sharding.online_rebalance.copy", 2, "crash"),
            )
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.online_rebalance(3)
            assert store.rebalance_in_progress()
            # Serving (and the double-write) continues mid-window...
            store.save("during", _kb("during"), corpus_version="v1")
            # ...but compaction is refused until cutover.
            with pytest.raises(RuntimeError):
                store.compact(max_entries=100)
            # Resuming with a different count is refused; the same
            # count picks the open window back up and completes.
            with pytest.raises(RuntimeError):
                store.online_rebalance(4)
            store.online_rebalance(3)
        assert not store.rebalance_in_progress()
        assert store.num_shards == 3
        expected = {f"q{i}" for i in range(6)} | {"during"}
        assert _queries(store) == expected
        # And the abort path: open a fresh window, roll it back.
        schedule = FaultSchedule(
            actions=(
                FaultAction("sharding.online_rebalance.copy", 1, "crash"),
            )
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.online_rebalance(5)
        assert store.abort_online_rebalance()
        assert not store.rebalance_in_progress()
        assert store.num_shards == 3
        assert _queries(store) == expected


# ---- service integration ----------------------------------------------------


def test_service_config_fabric_validation(tmp_path):
    with pytest.raises(ValueError, match="store_backend"):
        ServiceConfig(store_backend="carrier-pigeon")
    with pytest.raises(ValueError, match="store_path"):
        ServiceConfig(store_backend="fabric")
    with pytest.raises(ValueError, match="replication_factor"):
        ServiceConfig(replication_factor=0)
    with pytest.raises(ValueError, match="fabric"):
        ServiceConfig(replication_factor=2)  # local backend
    with pytest.raises(ValueError, match="fabric_addresses"):
        ServiceConfig(fabric_addresses=[["127.0.0.1:1"]])
    with pytest.raises(ValueError, match="shard groups"):
        ServiceConfig(
            store_path=str(tmp_path),
            store_shards=2,
            store_backend="fabric",
            fabric_addresses=[["127.0.0.1:1"]],
        )
    with pytest.raises(ValueError, match="replication_factor=2"):
        ServiceConfig(
            store_path=str(tmp_path),
            store_shards=1,
            store_backend="fabric",
            replication_factor=2,
            fabric_addresses=[["127.0.0.1:1"]],
        )
    # The valid shapes construct.
    ServiceConfig(
        store_path=str(tmp_path), store_backend="fabric",
        store_shards=3, replication_factor=2,
    )


def test_service_serves_identically_on_local_and_fabric_backends(
    service_session, tmp_path
):
    from repro.faultinject.history import kb_digest
    from repro.service.api import QueryRequest
    from repro.service.service import QKBflyService

    queries = ["magnus drayton", "elena drayton"]
    digests = {}
    for backend, extra in (
        ("local", {}),
        ("fabric", {"replication_factor": 2}),
    ):
        service = QKBflyService(
            service_session,
            service_config=ServiceConfig(
                max_workers=2,
                num_documents=1,
                store_path=str(tmp_path / backend),
                store_shards=3,
                store_backend=backend,
                **extra,
            ),
        )
        try:
            digests[backend] = [
                kb_digest(
                    service.serve(QueryRequest(query=query)).kb
                )
                for query in queries
            ]
            # Warm pass: every answer comes from the store tier, with
            # the bits the pipeline produced.
            service.cache.clear()
            stored = [
                service.serve(QueryRequest(query=query)) for query in queries
            ]
            assert [r.served_from for r in stored] == ["store"] * len(queries)
            assert service.pipeline_runs == len(queries)
            digests[backend + "-store"] = [kb_digest(r.kb) for r in stored]
            assert digests[backend + "-store"] == digests[backend]
            if backend == "fabric":
                assert service.fabric is not None
                assert service.stats()["fabric"]["num_shards"] == 3
        finally:
            service.close()
    assert digests["local"] == digests["fabric"]
    assert digests["local-store"] == digests["fabric-store"]


# ---- offline-rebalance serving guard ----------------------------------------


def test_offline_rebalance_refuses_store_open_in_this_process(tmp_path):
    directory = str(tmp_path / "store")
    with ShardedKbStore(directory, num_shards=2) as store:
        store.save("q", _kb("q"), corpus_version="v1")
        with pytest.raises(RuntimeError, match="open for serving"):
            ShardedKbStore.rebalance(directory, 3)
    # Closed: the same call succeeds.
    rebalanced = ShardedKbStore.rebalance(directory, 3)
    assert rebalanced.num_shards == 3
    assert _queries(rebalanced) == {"q"}
    rebalanced.close()


def test_offline_rebalance_refuses_live_foreign_serving_marker(tmp_path):
    directory = tmp_path / "store"
    with ShardedKbStore(str(directory), num_shards=2) as store:
        store.save("q", _kb("q"), corpus_version="v1")
    # Simulate another live process serving this directory (pid 1 is
    # always alive and never us).
    (directory / SERVING_MARKER_NAME).write_text("1\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="live process 1"):
        ShardedKbStore.rebalance(str(directory), 3)
    # A *stale* marker (dead pid) is cleaned up and rebalance proceeds.
    dead = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    (directory / SERVING_MARKER_NAME).write_text(
        dead.stdout, encoding="utf-8"
    )
    rebalanced = ShardedKbStore.rebalance(str(directory), 3)
    assert rebalanced.num_shards == 3
    rebalanced.close()


def test_serving_marker_lifecycle(tmp_path):
    directory = tmp_path / "store"
    store = ShardedKbStore(str(directory), num_shards=2)
    assert (directory / SERVING_MARKER_NAME).exists()
    store.close()
    assert not (directory / SERVING_MARKER_NAME).exists()


# ---- hypothesis properties --------------------------------------------------

_QUERY = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    min_size=1,
    max_size=16,
)


@given(
    queries=st.lists(_QUERY, unique=True, min_size=1, max_size=8),
    num_shards=st.integers(1, 4),
)
@settings(max_examples=10, deadline=None)
def test_property_fabric_backend_equivalent_to_local(queries, num_shards):
    """Same saves through the local and fabric backends produce the
    same observable store: entry sets equal, every load bit-identical."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with ShardedKbStore(
            f"{tmp}/local", num_shards=num_shards
        ) as local, Fabric.launch_local(
            f"{tmp}/fab", num_shards=num_shards, replication_factor=2
        ) as fabric:
            for i, query in enumerate(queries):
                for store in (local, fabric.store):
                    store.save(query, _kb(f"t{i}"), corpus_version="v1")
            assert fabric.flush_replication(timeout=30.0)
            assert _keys(fabric.store) == _keys(local)
            assert fabric.store.entry_count() == local.entry_count()
            for query in queries:
                local_kb = local.load(query, corpus_version="v1")
                fabric_kb = fabric.store.load(query, corpus_version="v1")
                assert fabric_kb.to_dict() == local_kb.to_dict()


@given(
    saves=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=10, deadline=None)
def test_property_replica_read_never_regresses_observed_version(saves):
    """Under arbitrary replication lag (flushed or not after every
    save), a read for a given key+version only ever returns content
    that was saved under exactly that key+version — a lagging replica
    misses and falls back to the primary, it never substitutes content
    from another corpus version. Once replication drains, every
    key+version converges to its last-written content (the write_seq
    check makes delivery order irrelevant)."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with Fabric.launch_local(
            f"{tmp}/fab", num_shards=2, replication_factor=2
        ) as fabric:
            store = fabric.store
            written = {}  # (query, version) -> [tags saved under it]
            tag = 0
            for key_no, version_no, flush in saves:
                query, version = f"k{key_no}", f"v{version_no}"
                store.save(query, _kb(f"t{tag}"), corpus_version=version)
                written.setdefault((query, version), []).append(f"t{tag}")
                tag += 1
                if flush:
                    assert fabric.flush_replication(timeout=30.0)
                kb = store.load(query, corpus_version=version)
                allowed = [
                    _kb(t).to_dict() for t in written[(query, version)]
                ]
                assert kb.to_dict() in allowed
            # Convergence: once replication drains, every key+version
            # reads exactly its last-written content.
            assert fabric.flush_replication(timeout=30.0)
            for (query, version), tags in written.items():
                kb = store.load(query, corpus_version=version)
                assert kb.to_dict() == _kb(tags[-1]).to_dict()


_GROUP_QUERIES = ("alice spouse", "bob spouse", "alice bob", "carol")
_ENTITIES = ("alice", "bob", "carol")


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("save"), st.integers(0, 3), st.integers(0, 1)),
            st.tuples(st.just("delete_for_entities"), st.integers(0, 2)),
            st.tuples(st.just("delete_stale"), st.integers(0, 1)),
            st.tuples(st.just("flush")),
        ),
        min_size=1,
        max_size=10,
    ),
    fault=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["crash", "delay"]), st.integers(1, 4)),
    ),
)
@settings(max_examples=25, deadline=None)
def test_property_replica_group_never_serves_what_the_primary_dropped(
    steps, fault
):
    """Saves, invalidations and flushes in any order, with at most one
    failed or slow replica delivery: once a call returns, a group read
    yields a KB only for a key the primary still holds."""
    import tempfile
    from pathlib import Path

    actions = ()
    if fault is not None:
        kind, hit = fault
        actions = (
            FaultAction("fabric.replicate.entry", hit, kind, seconds=0.05),
        )
    with tempfile.TemporaryDirectory() as tmp:
        servers, replicator, group = _replica_group(Path(tmp))
        try:
            saved = set()

            def check():
                for query, version in saved:
                    if servers[0].store.load(query, corpus_version=version):
                        continue
                    assert group.load(query, corpus_version=version) is None

            with inject(FaultSchedule(actions=actions)):
                for tag, (op, *args) in enumerate(steps + [("flush",)]):
                    if op == "save":
                        key = (_GROUP_QUERIES[args[0]], f"v{args[1]}")
                        group.save(key[0], _kb(f"t{tag}"), corpus_version=key[1])
                        saved.add(key)
                    elif op == "delete_for_entities":
                        group.delete_for_entities([_ENTITIES[args[0]]])
                    elif op == "delete_stale":
                        group.delete_stale(f"v{args[0]}")
                    else:
                        assert replicator.flush(timeout=30.0)
                    check()
        finally:
            _teardown_group(servers, replicator, group)


@given(
    initial=st.lists(_QUERY, unique=True, min_size=1, max_size=6),
    concurrent=st.lists(_QUERY, unique=True, min_size=1, max_size=6),
    old_shards=st.integers(1, 4),
    new_shards=st.integers(1, 4),
)
@settings(max_examples=10, deadline=None)
def test_property_online_rebalance_preserves_exact_entry_set(
    initial, concurrent, old_shards, new_shards
):
    """Online rebalance N -> M under concurrent writes ends with
    exactly the union of pre-existing and concurrently written entries
    — nothing lost, nothing duplicated, nothing resurrected."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with ShardedKbStore(f"{tmp}/s", num_shards=old_shards) as store:
            for i, query in enumerate(initial):
                store.save(query, _kb(f"i{i}"), corpus_version="v1")

            barrier = threading.Barrier(2)

            def writer() -> None:
                barrier.wait(timeout=30)
                for i, query in enumerate(concurrent):
                    store.save(query, _kb(f"c{i}"), corpus_version="v1")

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                barrier.wait(timeout=30)
                store.online_rebalance(new_shards)
            finally:
                thread.join()
            assert store.num_shards == new_shards
            expected = sorted(set(initial) | set(concurrent))
            got = sorted(_queries(store))
            assert got == expected
            for query in expected:
                assert store.load(query, corpus_version="v1") is not None
