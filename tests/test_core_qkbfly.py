"""End-to-end tests for QKBfly and canonicalization."""

import pytest

from repro.core.qkbfly import QKBfly, QKBflyConfig


@pytest.fixture(scope="module")
def article(tiny_world, realizer):
    actor = tiny_world.person_ids_by_profession["ACTOR"][0]
    return realizer.wikipedia_article(actor)


class TestEndToEnd:
    def test_extracts_facts(self, qkbfly_system, article):
        kb, trace = qkbfly_system.process_text(article.text, doc_id=article.doc_id)
        assert len(kb) > 0
        assert trace.total_seconds > 0

    def test_higher_arity_facts_extracted(self, tiny_world, qkbfly_system, realizer):
        # plays_role_in is inherently ternary.
        actor = next(
            f.subject_id for f in tiny_world.facts
            if f.relation_id == "plays_role_in"
        )
        doc = realizer.wikipedia_article(actor)
        kb, _ = qkbfly_system.process_text(doc.text, doc_id=doc.doc_id)
        assert any(not f.is_triple() for f in kb.facts) or len(kb) > 0

    def test_predicates_canonicalized(self, qkbfly_system, article):
        kb, _ = qkbfly_system.process_text(article.text)
        canonical = [f for f in kb.facts if f.canonical_predicate]
        assert canonical
        for fact in canonical:
            assert fact.predicate in qkbfly_system.pattern_repository

    def test_confidence_above_tau(self, qkbfly_system, article):
        kb, _ = qkbfly_system.process_text(article.text)
        for fact in kb.facts:
            assert fact.confidence >= qkbfly_system.config.tau

    def test_deterministic(self, tiny_world, article):
        a = QKBfly.from_world(tiny_world, with_search=False)
        b = QKBfly.from_world(tiny_world, with_search=False)
        kb_a, _ = a.process_text(article.text)
        kb_b, _ = b.process_text(article.text)
        assert [str(f) for f in kb_a.facts] == [str(f) for f in kb_b.facts]

    def test_emerging_entity_for_unknown_person(self, tiny_world, qkbfly_system, realizer):
        emerging_person = next(
            e for e in tiny_world.entities.values()
            if not e.in_repository and tiny_world.facts_of(e.entity_id)
            and e.types[0] in ("ACTOR", "MUSICAL_ARTIST", "FOOTBALLER")
        )
        doc = realizer.wikipedia_article(emerging_person.entity_id)
        kb, _ = qkbfly_system.process_text(doc.text, doc_id=doc.doc_id)
        assert kb.emerging


class TestVariants:
    def test_noun_variant_fewer_extractions(self, tiny_world, article):
        joint = QKBfly.from_world(tiny_world, with_search=False)
        noun = QKBfly.from_world(
            tiny_world, QKBflyConfig(mode="noun"), with_search=False
        )
        kb_joint, _ = joint.process_text(article.text)
        kb_noun, _ = noun.process_text(article.text)
        assert len(kb_noun) <= len(kb_joint)

    def test_pipeline_variant_runs(self, tiny_world, article):
        pipeline = QKBfly.from_world(
            tiny_world, QKBflyConfig(mode="pipeline"), with_search=False
        )
        kb, _ = pipeline.process_text(article.text)
        assert len(kb) >= 0  # runs without error; quality tested in benches

    def test_triples_only(self, tiny_world, article):
        triples = QKBfly.from_world(
            tiny_world, QKBflyConfig(triples_only=True), with_search=False
        )
        kb, _ = triples.process_text(article.text)
        assert all(f.is_triple() for f in kb.facts)

    def test_chart_parser_variant(self, tiny_world, article):
        chart = QKBfly.from_world(
            tiny_world, QKBflyConfig(parser="chart"), with_search=False
        )
        kb, _ = chart.process_text(article.text)
        assert len(kb) > 0


class TestConfigDigest:
    def test_digest_is_the_persisted_store_key_column(self):
        """``QKBflyConfig.digest()`` is written into every store row and
        cache key: these two values are what deployed stores hold (they
        were produced by ``service._config_digest`` before it moved)."""
        assert QKBflyConfig().digest() == "7bc92c1e6f41"
        assert (
            QKBflyConfig(
                parser="chart", tau=0.8, triples_only=True, ilp_time_budget=2.0
            ).digest()
            == "b4e9388e1d35"
        )
        # mode and algorithm are key columns of their own.
        assert QKBflyConfig(mode="noun", algorithm="ilp").digest() == (
            QKBflyConfig().digest()
        )


class TestQueryDriven:
    @pytest.fixture(scope="class")
    def system(self, tiny_world):
        return QKBfly.from_world(tiny_world, with_search=True)

    def test_build_kb_wikipedia(self, tiny_world, system):
        person = tiny_world.entities[
            tiny_world.person_ids_by_profession["MUSICAL_ARTIST"][0]
        ]
        kb = system.build_kb(person.name, source="wikipedia", num_documents=1)
        assert isinstance(len(kb), int)

    def test_build_kb_news(self, tiny_world, system):
        event = tiny_world.events[0]
        name = tiny_world.entities[event.main_entities[0]].name
        kb = system.build_kb(name, source="news", num_documents=3)
        assert isinstance(len(kb), int)

    def test_no_engine_raises(self, qkbfly_system):
        with pytest.raises(RuntimeError):
            qkbfly_system.build_kb("anything")


class TestFragmentStageParity:
    """Oracle 1 across the config matrix: a build assembled from cached
    per-document fragments equals a stage-cache-free ``build_kb``,
    ``to_dict()`` for ``to_dict()`` — over a query sequence with exact
    repeats, variants that share documents, and both channels, with
    every config reading and writing the *same* stage cache."""

    @pytest.fixture(scope="class")
    def sessions(self, tiny_world, background):
        from repro.core.qkbfly import SessionState
        from repro.corpus.retrieval import SearchEngine
        from repro.service.stage_cache import StageCache

        engine = SearchEngine.from_world(tiny_world, background.documents)

        def session(stage_cache):
            return SessionState(
                entity_repository=tiny_world.entity_repository,
                pattern_repository=tiny_world.pattern_repository,
                statistics=background.statistics,
                search_engine=engine,
                stage_cache=stage_cache,
            )

        return session(StageCache()), session(None)

    @pytest.mark.parametrize("tau", [0.5, 0.8])
    @pytest.mark.parametrize("triples_only", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "pipeline", "noun"])
    def test_cached_build_equals_uncached(
        self, sessions, mode, triples_only, tau
    ):
        cached_session, plain_session = sessions
        config = QKBflyConfig(mode=mode, triples_only=triples_only, tau=tau)
        cached = QKBfly.from_session(cached_session, config)
        plain = QKBfly.from_session(plain_session, config)
        entities = sorted(
            cached_session.entity_repository.entities(),
            key=lambda e: -e.prominence,
        )
        first, second = (e.canonical_name for e in entities[:2])
        sequence = [
            (first, "wikipedia"),
            (f"{first} spouse", "wikipedia"),
            (second, "wikipedia"),
            (first, "news"),
            (f"{second} award", "news"),
            (first, "wikipedia"),
        ]
        before = cached_session.stage_cache.stats()["stages"].get(
            "fragment", {"hits": 0}
        )["hits"]
        for query, source in sequence:
            expected = plain.build_kb(query, source=source, num_documents=2)
            actual = cached.build_kb(query, source=source, num_documents=2)
            assert actual.to_dict() == expected.to_dict(), (query, source)
        after = cached_session.stage_cache.stats()["stages"]["fragment"]
        assert after["hits"] > before  # the sequence did reuse fragments
