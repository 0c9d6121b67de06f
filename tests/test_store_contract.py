"""One store contract, four backends, ``KbStore`` as the reference.

Every case runs the same operation sequence on each backend that
implements the ops it uses:

- ``kb_store`` — one SQLite file;
- ``sharded`` — a local ``ShardedKbStore`` over three shards;
- ``remote`` — a ``RemoteKbStore`` over an in-process ``ShardServer``;
- ``replicated`` — a ``ReplicatedShardClient`` over a primary and one
  replica, flushed after every write, so its reads come from the
  replica.

Clusters:

1. the declared surface — each class binds exactly the
   ``KbBackend`` signatures, so the fabric's defaults (taken from the
   protocol) are the local store's defaults;
2. the operation contract — round trip, newest-first signatures,
   keyed deletes, invalidations, compaction, fact search;
3. the remote transport — the health probe and typed errors: a
   server-side failure is a ``RemoteError`` carrying its type,
   ``SearchUnavailable`` keeps its own type, an unknown op or a
   malformed request is refused by name;
4. a hypothesis property — any sequence of saves, invalidations and
   compactions gives the same results and the same final store on
   every backend as on a plain ``KbStore``.
"""

from __future__ import annotations

import contextlib
import inspect
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.api import SearchUnavailable
from repro.service.fabric import (
    FRAME_VERSION,
    OPS,
    RemoteError,
    RemoteKbStore,
    ReplicatedShardClient,
    Replicator,
    ShardServer,
    recv_frame,
    send_frame,
)
from repro.service.kb_store import EntrySignature, KbBackend, KbStore
from repro.service.search.query import search_paginated
from repro.service.sharding import ShardedKbStore

BACKENDS = ("kb_store", "sharded", "remote", "replicated")
#: The backends that serve one shard: they also answer the per-shard
#: ops ``ShardedKbStore`` fans out itself.
SHARD_BACKENDS = ("kb_store", "remote", "replicated")
_PER_SHARD_OPS = ("delete_signatures", "search_facts", "search_entities")


def _kb(tag: str) -> KnowledgeBase:
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, f"E_{tag}", f"Subject {tag}"),
            predicate="about",
            objects=[Argument(ARG_ENTITY, "E_X", "X")],
            pattern="about",
            confidence=0.9,
            doc_id=f"doc_{tag}",
            sentence_index=0,
        )
    )
    kb.observe_mention(f"E_{tag}", f"Subject {tag}")
    return kb.build()


@contextlib.contextmanager
def open_backend(kind: str, directory: Path):
    """Yield ``(store, settle)``; ``settle()`` returns once every
    acknowledged write is visible on every member."""
    directory.mkdir(parents=True, exist_ok=True)
    if kind == "kb_store":
        with KbStore(str(directory / "store.sqlite")) as store:
            yield store, lambda: None
    elif kind == "sharded":
        with ShardedKbStore(str(directory / "sharded"), num_shards=3) as store:
            yield store, lambda: None
    elif kind == "remote":
        server = ShardServer(str(directory / "remote.sqlite"))
        server.start()
        try:
            with RemoteKbStore(server.address, timeout=5.0) as store:
                yield store, lambda: None
        finally:
            server.stop()
    else:
        servers = [
            ShardServer(str(directory / f"member-{i}.sqlite"))
            for i in range(2)
        ]
        for server in servers:
            server.start()
        replicator = Replicator()
        group = ReplicatedShardClient(
            RemoteKbStore(servers[0].address, timeout=5.0),
            [RemoteKbStore(servers[1].address, timeout=5.0)],
            replicator,
        )
        try:
            yield group, lambda: replicator.flush(timeout=30.0)
        finally:
            replicator.stop()
            group.close()
            for server in servers:
                server.stop()


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    with open_backend(request.param, tmp_path / request.param) as opened:
        yield opened


@pytest.fixture(params=SHARD_BACKENDS)
def shard_backend(request, tmp_path):
    with open_backend(request.param, tmp_path / request.param) as opened:
        yield opened


def _state(store):
    """Every stored entry: key, stamp and content, ordered by key."""
    return sorted(
        (
            sig.query,
            sig.corpus_version,
            sig.created_at,
            store.load(sig.query, corpus_version=sig.corpus_version).to_dict(),
        )
        for sig in store.signatures()
    )


# ---- the declared surface ---------------------------------------------------


def _shape(member):
    return [
        (param.name, param.kind, param.default)
        for param in inspect.signature(member).parameters.values()
    ]


@pytest.mark.parametrize(
    "cls", [KbStore, ShardedKbStore, RemoteKbStore, ReplicatedShardClient]
)
def test_backend_classes_bind_the_declared_signatures(cls):
    for name, op in OPS.items():
        if cls is ShardedKbStore and name in _PER_SHARD_OPS:
            assert not hasattr(cls, name)
            continue
        declared = inspect.getattr_static(KbBackend, name)
        member = inspect.getattr_static(cls, name)
        if op.attribute:
            assert isinstance(member, property), name
        else:
            assert _shape(member) == _shape(declared), name
    for name in ("entries", "created_index", "delete_entries"):
        assert not hasattr(cls, name)


# ---- the operation contract -------------------------------------------------


def test_round_trip_invalidation_and_compaction(backend):
    store, settle = backend
    store.set_corpus_version("v1")
    settle()
    assert store.corpus_version == "v1"
    store.save("alpha", _kb("alpha"), corpus_version="v1", created_at=100.0)
    store.save("beta", _kb("beta"), corpus_version="v1", created_at=101.0)
    store.save("old", _kb("old"), corpus_version="v0", created_at=99.0)
    settle()

    assert store.load("alpha", corpus_version="v1").to_dict() == (
        _kb("alpha").to_dict()
    )
    assert store.load("alpha", corpus_version="v0") is None
    assert store.load("missing", corpus_version="v1") is None
    attempted, kb = store.try_load("beta", corpus_version="v1")
    assert attempted and kb.to_dict() == _kb("beta").to_dict()
    assert store.try_load("missing", corpus_version="v1") == (True, None)

    assert store.entry_count() == 3
    assert store.stats()["kb_entries"] == 3
    assert [sig.query for sig in store.signatures()] == [
        "beta", "alpha", "old",
    ]
    assert [
        sig.query for sig in store.signatures(corpus_version="v1", limit=1)
    ] == ["beta"]
    assert store.signatures(mode="noun") == []

    assert store.delete_stale("v1") == 1
    assert store.compact(max_age_seconds=50.0, now=140.0) == 0
    assert store.delete_for_entities(["alpha"]) == 1
    assert store.delete_for_entities([]) == 0
    assert store.load("alpha", corpus_version="v1") is None
    assert [sig.query for sig in store.signatures()] == ["beta"]
    assert store.compact(max_age_seconds=10.0, now=200.0) == 1
    assert store.entry_count() == 0


def test_compaction_keeps_the_newest_entries(backend):
    store, settle = backend
    for i in range(6):
        store.save(f"q{i}", _kb(f"q{i}"), corpus_version="v1",
                   created_at=100.0 + i)
    settle()
    assert store.compact(max_entries=2) == 4
    assert {sig.query for sig in store.signatures()} == {"q4", "q5"}
    assert store.load("q5", corpus_version="v1") is not None
    assert store.load("q0", corpus_version="v1") is None


def test_delete_signatures_matches_the_key_not_the_stamp(shard_backend):
    store, settle = shard_backend
    store.save("a", _kb("a"), corpus_version="v1")
    store.save("a", _kb("a"), corpus_version="v2")
    store.save("b", _kb("b"), corpus_version="v1")
    settle()
    doomed = EntrySignature(
        query="a", mode="joint", algorithm="greedy", corpus_version="v1",
        source="wikipedia", num_documents=1, config_digest="",
    )
    assert store.delete_signatures([doomed]) == 1
    assert store.delete_signatures([doomed]) == 0
    assert store.delete_signatures([]) == 0
    assert sorted(
        (sig.query, sig.corpus_version) for sig in store.signatures()
    ) == [("a", "v2"), ("b", "v1")]
    assert store.load("a", corpus_version="v1") is None


def test_search_slices_answer_over_every_shard_backend(shard_backend):
    store, settle = shard_backend
    for tag in ("a", "b", "c"):
        store.save(f"q {tag}", _kb(tag), corpus_version="v1")
    settle()
    page = search_paginated([store], "facts", limit=2)
    assert [row["subject"] for row in page["results"]] == [
        "Subject a", "Subject b",
    ]
    assert page["has_more"]
    entities = search_paginated([store], "entities", limit=10)
    assert len(entities["results"]) == 3


# ---- the remote transport ---------------------------------------------------


def _raw_request(address, payload):
    with socket.create_connection(address, timeout=5.0) as sock:
        send_frame(sock, payload)
        return recv_frame(sock)


def test_remote_health_probe_and_typed_errors(tmp_path, monkeypatch):
    server = ShardServer(str(tmp_path / "shard.sqlite"))
    server.start()
    try:
        with RemoteKbStore(server.address, timeout=5.0) as client:
            client.save("q", _kb("q"), corpus_version="v1")
            health = client.healthz()
            assert health["ok"] and health["entries"] == 1
            # The server ran the op and it raised: typed, not retried.
            with pytest.raises(RemoteError) as excinfo:
                client.set_corpus_version(None)
            assert excinfo.value.remote_type == "IntegrityError"
            assert client.client_stats()["retried"] == 0
        # An unknown op and a request missing its arguments are
        # refused by name.
        unknown = _raw_request(
            server.address, {"v": FRAME_VERSION, "op": "no_such_op"}
        )
        assert (unknown["ok"], unknown["type"]) == (False, "ValueError")
        partial = _raw_request(
            server.address, {"v": FRAME_VERSION, "op": "load", "args": {}}
        )
        assert (partial["ok"], partial["type"]) == (False, "KeyError")
    finally:
        server.stop()

    # A shard built without FTS5 answers a search with the typed
    # SearchUnavailable, not a generic RemoteError.
    import repro.service.search.index as search_index

    monkeypatch.setattr(search_index, "fts5_supported", lambda conn: False)
    bare = ShardServer(str(tmp_path / "bare.sqlite"))
    bare.start()
    try:
        with RemoteKbStore(bare.address, timeout=5.0) as client:
            with pytest.raises(SearchUnavailable):
                client.search_facts({"kind": "facts", "limit": 5})
    finally:
        bare.stop()


# ---- the property -----------------------------------------------------------

_QUERIES = ("alice spouse", "bob spouse", "alice bob", "carol")
_ENTITIES = ("alice", "bob", "carol")


def _apply(store, step: int, op: str, args):
    """Run one generated op; the result every backend must agree on
    (a save's entry id is private to its shard file)."""
    if op == "save":
        store.save(
            _QUERIES[args[0]],
            _kb(f"t{step}"),
            corpus_version=f"v{args[1]}",
            created_at=float(step),
        )
        return None
    if op == "delete_for_entities":
        return store.delete_for_entities([_ENTITIES[args[0]]])
    if op == "delete_stale":
        return store.delete_stale(f"v{args[0]}")
    return store.compact(max_entries=args[0])


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("save"), st.integers(0, 3), st.integers(0, 1)),
            st.tuples(st.just("delete_for_entities"), st.integers(0, 2)),
            st.tuples(st.just("delete_stale"), st.integers(0, 1)),
            st.tuples(st.just("compact"), st.integers(0, 4)),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=10, deadline=None)
def test_property_every_backend_matches_kb_store(steps):
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        reference = stack.enter_context(KbStore(f"{tmp}/reference.sqlite"))
        backends = {
            kind: stack.enter_context(open_backend(kind, Path(tmp) / kind))
            for kind in BACKENDS
        }
        for step, (op, *args) in enumerate(steps):
            expected = _apply(reference, step, op, args)
            for kind, (store, settle) in backends.items():
                assert _apply(store, step, op, args) == expected, (kind, op)
                settle()
        want = _state(reference)
        for kind, (store, _) in backends.items():
            assert _state(store) == want, kind
