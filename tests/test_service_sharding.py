"""Sharded KB store: routing, aggregation, migration, rebalancing."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase
from repro.service.kb_store import KbStore
from repro.service.sharding import ShardedKbStore, shard_index


def _kb(tag: str) -> KnowledgeBase:
    """A tiny KB whose content encodes ``tag`` (leak detection)."""
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


@pytest.fixture()
def sharded(tmp_path):
    with ShardedKbStore(str(tmp_path / "shards"), num_shards=4) as store:
        yield store


def test_shard_index_is_stable_and_in_range():
    for query in ("alice", "bob", "a longer query string", ""):
        first = shard_index(query, 8)
        assert 0 <= first < 8
        assert shard_index(query, 8) == first  # no randomized hashing


def test_shard_index_varies_with_signature_not_corpus_version():
    base = shard_index("q", 16)
    assert shard_index("q", 16, mode="noun") != base or (
        shard_index("q", 16, num_documents=3) != base
        or shard_index("q", 16, source="news") != base
    )  # at least one signature field moves the route
    # corpus_version is not part of the route at all (no parameter).


def test_save_load_round_trip_across_shards(sharded):
    queries = [f"query {i}" for i in range(20)]
    for query in queries:
        sharded.save(query, _kb(query.replace(" ", "_")), corpus_version="v1")
    for query in queries:
        loaded = sharded.load(query, corpus_version="v1")
        assert loaded is not None
        assert loaded.to_dict() == _kb(query.replace(" ", "_")).to_dict()
    assert sharded.load("absent", corpus_version="v1") is None
    # The 20 entries actually spread over more than one shard file.
    assert sum(1 for c in sharded.shard_entry_counts() if c > 0) > 1


def test_entry_lives_only_in_its_routed_shard(sharded):
    sharded.save("solo query", _kb("solo"), corpus_version="v1")
    routed = shard_index("solo query", sharded.num_shards)
    for index, shard in enumerate(sharded.shard_backends()):
        path = shard.path
        conn = sqlite3.connect(path)
        count = conn.execute("SELECT COUNT(*) FROM kb_entries").fetchone()[0]
        conn.close()
        assert count == (1 if index == routed else 0)


def test_aggregated_stats_entries_and_delete_stale(sharded):
    for i in range(12):
        version = "v1" if i % 3 else "v0"
        sharded.save(f"q{i}", _kb(f"t{i}"), corpus_version=version)
    assert sharded.stats()["kb_entries"] == 12
    assert sharded.stats()["shards"] == 4
    assert len(sharded.signatures()) == 12
    removed = sharded.delete_stale("v1")
    assert removed == 4  # i = 0, 3, 6, 9
    assert sharded.stats()["kb_entries"] == 8
    assert all(sig.corpus_version == "v1" for sig in sharded.signatures())


def test_corpus_version_meta_set_on_every_shard(sharded):
    sharded.set_corpus_version("v9")
    assert sharded.corpus_version == "v9"
    for shard in sharded.shard_backends():
        conn = sqlite3.connect(shard.path)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='corpus_version'"
        ).fetchone()
        conn.close()
        assert row[0] == "v9"


def test_manifest_pins_shard_count(tmp_path):
    directory = str(tmp_path / "shards")
    with ShardedKbStore(directory, num_shards=3) as store:
        store.save("q", _kb("t"), corpus_version="v1")
    with open(tmp_path / "shards" / "shards.json", encoding="utf-8") as fh:
        assert json.load(fh)["num_shards"] == 3
    # Reopen adopting the manifest.
    with ShardedKbStore(directory) as reopened:
        assert reopened.num_shards == 3
        assert reopened.load("q", corpus_version="v1") is not None
    # Mismatched explicit count is refused, not silently mis-routed.
    with pytest.raises(ValueError, match="rebalance"):
        ShardedKbStore(directory, num_shards=5)


def test_compact_enforces_global_entry_budget(sharded):
    for i in range(10):
        sharded.save(
            f"q{i}", _kb(f"t{i}"), corpus_version="v1", created_at=100.0 + i
        )
    removed = sharded.compact(max_entries=4)
    assert removed == 6
    assert sharded.stats()["kb_entries"] == 4
    # The *globally* newest four survive, wherever they were routed.
    survivors = {sig.query for sig in sharded.signatures()}
    assert survivors == {"q6", "q7", "q8", "q9"}


def test_compact_ttl_applies_per_shard(sharded):
    sharded.save("old", _kb("old"), corpus_version="v1", created_at=0.0)
    sharded.save("new", _kb("new"), corpus_version="v1", created_at=900.0)
    removed = sharded.compact(max_age_seconds=500.0, now=1000.0)
    assert removed == 1
    assert sharded.load("old", corpus_version="v1") is None
    assert sharded.load("new", corpus_version="v1") is not None


def test_migrate_from_single_file_store(tmp_path):
    single = KbStore(str(tmp_path / "single.sqlite"))
    kbs = {f"q{i}": _kb(f"t{i}") for i in range(9)}
    for i, (query, kb) in enumerate(kbs.items()):
        single.save(query, kb, corpus_version="v1", created_at=50.0 + i)
    single.set_corpus_version("v1")

    sharded = ShardedKbStore.migrate_from(
        single, str(tmp_path / "shards"), num_shards=4
    )
    single.close()
    with sharded:
        assert sharded.corpus_version == "v1"
        assert sharded.stats()["kb_entries"] == 9
        for query, kb in kbs.items():
            loaded = sharded.load(query, corpus_version="v1")
            assert loaded is not None and loaded.to_dict() == kb.to_dict()
        # created_at stamps carried over (compaction keeps aging right).
        stamps = sorted(sig.created_at for sig in sharded.signatures())
        assert stamps == [50.0 + i for i in range(9)]


def test_rebalance_preserves_every_entry(tmp_path):
    directory = str(tmp_path / "shards")
    kbs = {f"query number {i}": _kb(f"t{i}") for i in range(15)}
    with ShardedKbStore(directory, num_shards=2) as store:
        for query, kb in kbs.items():
            store.save(query, kb, corpus_version="v1")
        store.set_corpus_version("v1")

    rebalanced = ShardedKbStore.rebalance(directory, 5)
    with rebalanced:
        assert rebalanced.num_shards == 5
        assert rebalanced.corpus_version == "v1"
        assert rebalanced.stats()["kb_entries"] == 15
        for query, kb in kbs.items():
            loaded = rebalanced.load(query, corpus_version="v1")
            assert loaded is not None and loaded.to_dict() == kb.to_dict()
            # Every entry sits where the *new* routing expects it.
            routed = rebalanced.shard_backends()[shard_index(query, 5)]
            assert routed.load(query, corpus_version="v1") is not None

    # Rebalancing to the current count is a no-op open.
    again = ShardedKbStore.rebalance(directory, 5)
    with again:
        assert again.stats()["kb_entries"] == 15


def test_rebalance_recovers_from_crash_in_swap_window(tmp_path):
    """A crash between the two directory renames leaves no store at
    the original path; the next rebalance must promote the complete
    sibling copy instead of creating an empty store and reclaiming
    the survivors."""
    import os

    directory = str(tmp_path / "shards")
    kbs = {f"query number {i}": _kb(f"t{i}") for i in range(10)}
    with ShardedKbStore(directory, num_shards=2) as store:
        for query, kb in kbs.items():
            store.save(query, kb, corpus_version="v1")
        store.set_corpus_version("v1")

    # Simulate the crash window: the fully-written staging copy exists,
    # the original directory is gone (first rename happened, second did
    # not — here modeled by the staging copy surviving as the only one).
    os.rename(directory, directory + ".rebalance")

    recovered = ShardedKbStore.rebalance(directory, 3)
    with recovered:
        assert recovered.num_shards == 3
        assert recovered.stats()["kb_entries"] == 10
        for query, kb in kbs.items():
            loaded = recovered.load(query, corpus_version="v1")
            assert loaded is not None and loaded.to_dict() == kb.to_dict()

    # The retired sibling survives a crash window too (staging absent).
    os.rename(directory, directory + ".rebalance-old")
    recovered_again = ShardedKbStore.rebalance(directory, 4)
    with recovered_again:
        assert recovered_again.num_shards == 4
        assert recovered_again.stats()["kb_entries"] == 10
