"""Persistent KB store: round-trips, replacement, stale-version cleanup."""

from __future__ import annotations

import pytest

from repro.core.qkbfly import QKBfly
from repro.kb.facts import (
    ARG_EMERGING,
    ARG_ENTITY,
    ARG_TIME,
    Argument,
    EmergingEntity,
    Fact,
    KbBuilder,
    KnowledgeBase,
)
from repro.service.kb_store import KbStore


@pytest.fixture()
def store(tmp_path):
    with KbStore(str(tmp_path / "kb.sqlite")) as kb_store:
        yield kb_store


def _hand_built_kb() -> KnowledgeBase:
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, "E1", "Alice Stone"),
            predicate="marriedTo",
            objects=[
                Argument(ARG_ENTITY, "E2", "Bob Hill"),
                Argument(ARG_TIME, "2015-06-01", "1 June 2015"),
            ],
            pattern="marry",
            confidence=0.8,
            doc_id="doc1",
            sentence_index=3,
            canonical_predicate=True,
        )
    )
    kb.add_fact(
        Fact(
            subject=Argument(ARG_EMERGING, "doc1#new1", "The Gala"),
            predicate="host",
            objects=[Argument(ARG_ENTITY, "E1", "Alice Stone")],
            pattern="host",
            confidence=0.7,
            doc_id="doc1",
            sentence_index=5,
        )
    )
    kb.add_emerging(
        EmergingEntity(
            cluster_id="doc1#new1",
            display_name="The Gala",
            mentions=["The Gala", "the annual gala"],
            guessed_type="MISC",
        )
    )
    kb.observe_mention("E1", "Alice Stone")
    kb.observe_mention("E1", "she")
    kb.set_entity_types("E1", ["ACTOR", "PERSON"])
    return kb.build()


def test_round_trip_hand_built_kb(store):
    kb = _hand_built_kb()
    store.save("alice stone", kb, corpus_version="v1")
    loaded = store.load("alice stone", corpus_version="v1")
    assert loaded is not None
    assert loaded.to_dict() == kb.to_dict()


def test_round_trip_pipeline_built_kb(store, service_session):
    """A KB built by the real pipeline survives SQLite byte-identically."""
    system = QKBfly.from_session(service_session)
    entity = max(
        service_session.entity_repository.entities(),
        key=lambda e: e.prominence,
    )
    kb = system.build_kb(entity.canonical_name, num_documents=2)
    assert len(kb) > 0, "pipeline must produce facts for a prominent entity"
    store.save(entity.canonical_name.lower(), kb, corpus_version="v1")
    loaded = store.load(entity.canonical_name.lower(), corpus_version="v1")
    assert loaded is not None
    assert loaded.to_dict() == kb.to_dict()


def test_missing_key_and_variant_separation(store):
    kb = _hand_built_kb()
    store.save("q", kb, corpus_version="v1", mode="joint")
    assert store.load("other", corpus_version="v1") is None
    assert store.load("q", corpus_version="v2") is None
    assert store.load("q", corpus_version="v1", mode="noun") is None
    assert store.load("q", corpus_version="v1", source="news") is None
    assert store.load("q", corpus_version="v1") is not None


def test_save_replaces_existing_entry(store):
    kb = _hand_built_kb()
    store.save("q", kb, corpus_version="v1")
    smaller = KnowledgeBase(kb.facts[:1])
    store.save("q", smaller, corpus_version="v1")
    loaded = store.load("q", corpus_version="v1")
    assert loaded.to_dict() == smaller.to_dict()
    assert store.stats()["kb_entries"] == 1


def test_delete_stale_drops_old_versions_and_cascades(store):
    kb = _hand_built_kb()
    store.save("a", kb, corpus_version="v1")
    store.save("b", kb, corpus_version="v2")
    removed = store.delete_stale("v2")
    assert removed == 1
    assert store.load("a", corpus_version="v1") is None
    assert store.load("b", corpus_version="v2") is not None
    stats = store.stats()
    assert stats["kb_entries"] == 1
    assert stats["facts"] == 2  # v1's fact rows cascaded away


def test_corpus_version_meta(store):
    assert store.corpus_version == ""
    store.set_corpus_version("v7")
    assert store.corpus_version == "v7"
    store.set_corpus_version("v8")
    assert store.corpus_version == "v8"


def test_store_reopens_from_disk(tmp_path):
    path = str(tmp_path / "persist.sqlite")
    kb = _hand_built_kb()
    with KbStore(path) as store:
        store.save("q", kb, corpus_version="v1")
        store.set_corpus_version("v1")
    with KbStore(path) as reopened:
        assert reopened.corpus_version == "v1"
        loaded = reopened.load("q", corpus_version="v1")
        assert loaded is not None
        assert loaded.to_dict() == kb.to_dict()
