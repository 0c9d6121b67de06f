"""Tests for background statistics and retrieval."""

import pytest

from repro.corpus.retrieval import Bm25Index, SearchEngine
from repro.corpus.statistics import content_tokens, document_tokens


class TestStatistics:
    def test_priors_are_distributions(self, tiny_world, background):
        stats = background.statistics
        for alias, bucket in stats.anchor_counts.items():
            total = sum(
                stats.prior(alias, entity_id) for entity_id in bucket
            )
            assert abs(total - 1.0) < 1e-9

    def test_prior_unknown_mention(self, background):
        assert background.statistics.prior("zzz unknown", "E00001") == 0.0

    def test_idf_monotone(self, background):
        stats = background.statistics
        rare = stats.idf("zz-never-seen")
        common = min(
            stats.idf(t) for t in list(stats.doc_freq)[:50]
        )
        assert rare >= common

    def test_entity_context_nonempty(self, tiny_world, background):
        stats = background.statistics
        some = [
            e.entity_id for e in tiny_world.entities.values()
            if e.in_repository
        ][:10]
        assert any(len(stats.context_of(eid)) > 0 for eid in some)

    def test_type_signature_discriminates(self, tiny_world, background):
        stats = background.statistics
        good = stats.type_signature("PERSON", "CITY", "be born in")
        bad = stats.type_signature("FILM", "CITY", "be born in")
        assert good > bad

    def test_content_tokens_drop_stopwords(self):
        tokens = content_tokens("The actor was born in the city.")
        assert "the" not in tokens
        assert "actor" in tokens


class TestBm25:
    def test_ranks_exact_match_first(self):
        index = Bm25Index()
        index.add("a", ["alpha", "beta"])
        index.add("b", ["alpha", "alpha", "alpha"])
        index.add("c", ["gamma"])
        ranked = index.search(["alpha"], k=3)
        assert ranked[0][0] == "b"
        assert {doc for doc, _ in ranked} == {"a", "b"}

    def test_duplicate_doc_rejected(self):
        index = Bm25Index()
        index.add("a", ["x"])
        with pytest.raises(ValueError):
            index.add("a", ["y"])

    def test_empty_query(self):
        index = Bm25Index()
        index.add("a", ["x"])
        assert index.search([], k=5) == []


class TestSearchEngine:
    @pytest.fixture(scope="class")
    def engine(self, tiny_world, background):
        return SearchEngine.from_world(tiny_world, background.documents)

    def test_wikipedia_channel_finds_entity_page(self, tiny_world, background, engine):
        entity = next(
            e for e in tiny_world.entities.values()
            if e.in_repository and background.article_of(e.entity_id)
        )
        results = engine.search(entity.name, source="wikipedia", k=3)
        assert any(entity.entity_id in d.about for d in results)

    def test_news_channel(self, tiny_world, engine):
        event = tiny_world.events[0]
        name = tiny_world.entities[event.main_entities[0]].name
        results = engine.search(name, source="news", k=5)
        assert results

    def test_unknown_source(self, engine):
        with pytest.raises(ValueError):
            engine.search("x", source="intranet")


class TestDocumentTokens:
    """One tokenisation per document, shared by the statistics pass and
    every search-engine build."""

    @pytest.fixture()
    def tokenized(self, monkeypatch):
        """Every string handed to the tokenizer, in call order."""
        import repro.nlp.tokenizer as tokenizer

        seen = []
        original = tokenizer.tokenize

        def recording(text, *args, **kwargs):
            seen.append(text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(tokenizer, "tokenize", recording)
        return seen

    def test_memo_is_validated_against_the_text(self, realizer, tiny_world):
        doc = realizer.wikipedia_article(
            tiny_world.person_ids_by_profession["ACTOR"][0]
        )
        first = document_tokens(doc)
        assert first == content_tokens(doc.text)
        assert document_tokens(doc) is first  # memoised, shared
        assert document_tokens(doc, "title") == content_tokens(doc.title)
        # RealizedDocument is mutable: an in-place edit must be noticed.
        doc.sentences.append("Zanzibar exports cloves.")
        assert "zanzibar" in document_tokens(doc)
        assert document_tokens(doc) == content_tokens(doc.text)

    def test_from_world_tokenises_each_document_text_once(self, tokenized):
        from repro.core.qkbfly import SessionState
        from repro.corpus.world import World, WorldConfig

        session = SessionState.from_world(World(WorldConfig.tiny(), seed=11))
        engine = session.search_engine
        texts = [
            doc.text
            for table in (engine.wikipedia_docs, engine.news_docs)
            for doc in table.values()
        ]
        assert len(set(texts)) == len(texts)
        # The statistics pass and the engine build read the same
        # background articles: one call per document, not two.
        assert sorted(t for t in tokenized if t in set(texts)) == sorted(texts)

    def test_engine_rebuild_tokenises_only_the_new_document(
        self, tiny_world, background, tokenized
    ):
        from repro.corpus.realizer import RealizedDocument

        engine = SearchEngine.from_world(tiny_world, background.documents)
        del tokenized[:]
        added = RealizedDocument(
            doc_id="live-1", title="Live one", sentences=["A merger was announced."],
            emitted=[], mentions=[], source="news",
        )
        rebuilt = engine.with_document(added)
        assert tokenized == ["Live one", "A merger was announced."]
        assert len(rebuilt.news_docs) == len(engine.news_docs) + 1
        query = next(iter(engine.wikipedia_docs.values())).title
        assert [d.doc_id for d in rebuilt.search(query, k=3)] == [
            d.doc_id for d in engine.search(query, k=3)
        ]


class TestCopyOnWrite:
    """``with_document`` derives a new engine/index and never edits the
    one it came from (the hypothesis twin over generated add/replace
    sequences is in ``tests/test_service_properties.py``)."""

    @staticmethod
    def _state(index):
        return (
            {token: dict(bucket) for token, bucket in index._postings.items()},
            dict(index._doc_len),
            index._total_len,
        )

    def test_replace_equals_a_from_scratch_engine(self, tiny_world, background):
        from repro.corpus.realizer import RealizedDocument

        engine = SearchEngine.from_world(tiny_world, background.documents)
        before = self._state(engine._wiki_index)
        old = next(iter(engine.wikipedia_docs.values()))
        revision = RealizedDocument(
            doc_id=old.doc_id, title="Renamed page",
            sentences=["A merger was announced in Zanzibar."],
            emitted=[], mentions=[], source="wikipedia",
        )
        derived = engine.with_document(revision)

        scratch = SearchEngine(
            world=tiny_world,
            wikipedia_docs={**engine.wikipedia_docs, old.doc_id: revision},
            news_docs=dict(engine.news_docs),
        )
        assert self._state(derived._wiki_index) == self._state(scratch._wiki_index)
        for query in (old.title, "merger zanzibar", "renamed page"):
            tokens = content_tokens(query)
            assert derived._wiki_index.search(tokens, k=10) == (
                scratch._wiki_index.search(tokens, k=10)
            )
        # The source engine is untouched; the other channel is shared.
        assert self._state(engine._wiki_index) == before
        assert engine.wikipedia_docs[old.doc_id] is old
        assert derived.news_docs is engine.news_docs
        assert derived._news_index is engine._news_index

    def test_replace_needs_the_indexed_revision_tokens(self):
        index = Bm25Index()
        index.add("a", ["x", "y"])
        with pytest.raises(ValueError):
            index.with_document("a", ["z"])
        replaced = index.with_document("a", ["z"], ["x", "y"])
        assert replaced._postings == {"z": {"a": 1}}
        assert index._postings == {"x": {"a": 1}, "y": {"a": 1}}

    def test_unknown_source_rejected(self, tiny_world, background):
        from repro.corpus.realizer import RealizedDocument

        engine = SearchEngine.from_world(tiny_world, background.documents)
        stray = RealizedDocument(
            doc_id="x", title="x", sentences=["x"], emitted=[], mentions=[],
            source="intranet",
        )
        with pytest.raises(ValueError):
            engine.with_document(stray)
