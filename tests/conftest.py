"""Shared fixtures: one tiny world (and derived artifacts) per session."""

from __future__ import annotations

import pytest

from repro.corpus.background import build_background_corpus
from repro.corpus.realizer import Realizer
from repro.corpus.world import World, WorldConfig
from repro.nlp.pipeline import NlpPipeline, PipelineConfig


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """A miniature deterministic world shared by the whole session."""
    return World(WorldConfig.tiny(), seed=3)


@pytest.fixture(scope="session")
def background(tiny_world):
    """Background corpus + statistics for the tiny world."""
    return build_background_corpus(tiny_world)


@pytest.fixture(scope="session")
def realizer(tiny_world) -> Realizer:
    """A seeded realizer over the tiny world."""
    return Realizer(tiny_world, seed=11)


@pytest.fixture(scope="session")
def nlp(tiny_world) -> NlpPipeline:
    """Greedy-parser pipeline with the tiny world's gazetteer."""
    return NlpPipeline(
        PipelineConfig(
            parser="greedy",
            gazetteer=tiny_world.entity_repository.gazetteer(),
        )
    )


@pytest.fixture(scope="session")
def plain_nlp() -> NlpPipeline:
    """Pipeline without a gazetteer (pure shape-based NER)."""
    return NlpPipeline(PipelineConfig(parser="greedy"))


@pytest.fixture(scope="session")
def chart_nlp(tiny_world) -> NlpPipeline:
    """Chart-parser pipeline (the Stanford-parser stand-in)."""
    return NlpPipeline(
        PipelineConfig(
            parser="chart",
            gazetteer=tiny_world.entity_repository.gazetteer(),
        )
    )


@pytest.fixture(scope="session")
def qkbfly_system(tiny_world):
    """Default QKBfly over the tiny world (no search engine)."""
    from repro.core.qkbfly import QKBfly

    return QKBfly.from_world(tiny_world, with_search=False)


@pytest.fixture(scope="session")
def service_session(tiny_world, background):
    """Shared serving-layer session state (with search) for the tiny world."""
    from repro.core.qkbfly import SessionState
    from repro.corpus.retrieval import SearchEngine

    return SessionState(
        entity_repository=tiny_world.entity_repository,
        pattern_repository=tiny_world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(
            tiny_world, background.documents
        ),
    )


@pytest.fixture()
def fresh_session(tiny_world, background):
    """A private session per test: ingest swaps the search engine and
    installs a version vector, so such tests must not share the
    session-scoped ``service_session`` fixture."""
    from repro.core.qkbfly import SessionState
    from repro.corpus.retrieval import SearchEngine

    return SessionState(
        entity_repository=tiny_world.entity_repository,
        pattern_repository=tiny_world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(
            tiny_world, background.documents
        ),
    )


@pytest.fixture()
def process_document_calls(monkeypatch):
    """The doc id of every ``QKBfly.process_document`` call made while
    the test runs — the graph stages' execution count, which the
    fragment-stage fences are stated in."""
    from repro.core.qkbfly import QKBfly

    calls = []
    original = QKBfly.process_document

    def counted(self, annotated, *args, **kwargs):
        calls.append(annotated.doc_id)
        return original(self, annotated, *args, **kwargs)

    monkeypatch.setattr(QKBfly, "process_document", counted)
    return calls
