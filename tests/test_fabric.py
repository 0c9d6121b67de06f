"""Multi-node KB fabric: protocol, shard servers, replica groups,
online rebalance, and the serving guard on offline rebalance.

Clusters:

1. wire protocol — framing round-trips, torn/oversized/malformed
   frames are typed errors, never half-parsed messages;
2. shard server + remote client — the full KbStore surface over TCP,
   typed remote errors, bounded retry into ``ShardUnavailable``, and
   the ``write_seq`` version check that makes replica redelivery
   order-safe;
3. replica groups — primary-write/replica-read fan-out, miss and
   failure fallback to the primary, replication lag never serving a
   version the key didn't ask for;
4. the fabric — local-vs-fabric backend equivalence (including
   end-to-end through a real service), online rebalance while writes
   continue, resume-after-crash, and the abort path;
5. offline-rebalance serving guard — rebalancing a store that is open
   for serving (in-process or via a live ``serving.pid``) must refuse
   loudly instead of corrupting it;
6. hypothesis properties — backend equivalence, replica-read version
   safety under lag, and online rebalance preserving the exact entry
   set under concurrent writes.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultAction, FaultSchedule
from repro.kb.facts import ARG_ENTITY, Argument, Fact, KnowledgeBase
from repro.service.fabric import (
    Fabric,
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteError,
    RemoteKbStore,
    ReplicatedShardClient,
    Replicator,
    ShardServer,
    ShardUnavailable,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.service.service import ServiceConfig
from repro.service.sharding import SERVING_MARKER_NAME, ShardedKbStore


def _kb(tag: str) -> KnowledgeBase:
    kb = KnowledgeBase()
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
    return kb


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


def test_remote_store_full_surface_round_trip(client):
    client.set_corpus_version("v1")
    assert client.corpus_version == "v1"
    entry_id = client.save("alpha", _kb("alpha"), corpus_version="v1")
    assert entry_id > 0
    client.save("beta", _kb("beta"), corpus_version="v1")

    kb = client.load("alpha", corpus_version="v1")
    assert kb is not None
    assert kb.to_dict() == _kb("alpha").to_dict()
    assert client.load("missing", corpus_version="v1") is None
    attempted, kb = client.try_load("beta", corpus_version="v1")
    assert attempted and kb.to_dict() == _kb("beta").to_dict()

    assert client.entry_count() == 2
    assert {entry[0] for entry in client.entries()} == {"alpha", "beta"}
    sigs = client.signatures()
    assert {sig.query for sig in sigs} == {"alpha", "beta"}
    assert len(client.created_index()) == 2
    assert client.stats()["kb_entries"] == 2

    health = client.healthz()
    assert health["ok"] and health["entries"] == 2

    assert client.delete_entries([entry_id]) == 1
    client.save("old", _kb("old"), corpus_version="v0")
    assert client.delete_stale("v1") == 1
    assert client.compact(max_age_seconds=10_000_000.0) == 0
    assert client.entry_count() == 1


def test_unknown_op_and_server_side_errors_are_remote_errors(client):
    with pytest.raises(RemoteError) as excinfo:
        client._request("no_such_op", {})
    assert excinfo.value.remote_type == "ValueError"
    with pytest.raises(RemoteError) as excinfo:
        client._request("load", {})  # missing required args
    assert excinfo.value.remote_type == "KeyError"


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
        # The replica member really holds the entry.
        assert servers[1].store.entry_count() == 1
    finally:
        _teardown_group(servers, replicator, group)


def test_lagging_replica_misses_and_primary_answers(tmp_path):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        # Block propagation entirely: the replica stays empty.
        replicator.stop()
        group.save("q", _kb("q"), corpus_version="v1")
        kb = group.load("q", corpus_version="v1")
        assert kb is not None
        assert group.replica_misses == 1 and group.primary_reads == 1
    finally:
        group.close()
        for srv in servers:
            srv.stop()


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
    tmp_path,
):
    servers, replicator, group = _replica_group(tmp_path)
    try:
        group.save("q", _kb("old"), corpus_version="v1")
        assert replicator.flush(timeout=10.0)
        replicator.stop()  # v2 never reaches the replica
        group.save("q", _kb("new"), corpus_version="v2")
        # Store keys include the corpus version: the lagging replica
        # *misses* the v2 key and the primary answers — it can never
        # substitute its stale v1 row.
        kb = group.load("q", corpus_version="v2")
        assert kb.to_dict() == _kb("new").to_dict()
        assert group.replica_misses == 1 and group.primary_reads == 1
    finally:
        group.close()
        for srv in servers:
            srv.stop()


# ---- the fabric -------------------------------------------------------------


def test_fabric_equals_local_backend(tmp_path):
    queries = [f"query-{i}" for i in range(12)]
    with ShardedKbStore(str(tmp_path / "local"), num_shards=3) as local:
        local.set_corpus_version("v1")
        for q in queries:
            local.save(q, _kb(q), corpus_version="v1")
        local_entries = sorted(local.entries())
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
        assert sorted(fabric.store.entries()) == local_entries
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
        assert {entry[0] for entry in store.entries()} == expected
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
        assert stats["replication"]["propagated"] == 1
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
        assert {entry[0] for entry in store.entries()} == expected
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
        assert {entry[0] for entry in store.entries()} == expected


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
    assert {entry[0] for entry in rebalanced.entries()} == {"q"}
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
            assert sorted(fabric.store.entries()) == sorted(local.entries())
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
            got = sorted(entry[0] for entry in store.entries())
            assert got == expected
            for query in expected:
                assert store.load(query, corpus_version="v1") is not None
