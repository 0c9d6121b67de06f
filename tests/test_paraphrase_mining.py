"""Tests for on-the-fly paraphrase mining (the paper's future work)."""

from dataclasses import replace

import pytest

from repro.core.paraphrase_mining import ParaphraseMiner
from repro.kb.facts import ARG_ENTITY, ARG_LITERAL, Argument, Fact, KbBuilder, KnowledgeBase


def new_fact(pattern, subj, obj, confidence=1.0):
    return Fact(
        subject=Argument(ARG_ENTITY, subj, subj),
        predicate=pattern,
        objects=[Argument(ARG_ENTITY, obj, obj)],
        pattern=pattern,
        confidence=confidence,
        canonical_predicate=False,
    )


def built(*facts):
    builder = KbBuilder()
    for fact in facts:
        builder.add_fact(fact)
    return builder.build()


@pytest.fixture()
def kb():
    return built(
        # "back" and "endorse" connect the same argument pairs.
        *(
            new_fact(pattern, subj, obj)
            for pattern in ("back", "endorse")
            for subj, obj in (("E1", "F1"), ("E2", "F2"), ("E3", "F1"))
        ),
        # "praise" shares only one pair with them.
        new_fact("praise", "E1", "F1"),
        new_fact("praise", "E9", "F9"),
    )


class TestMining:
    def test_merges_matching_patterns(self, kb):
        synsets = ParaphraseMiner().mine(kb)
        clusters = {tuple(s.patterns) for s in synsets}
        assert ("back", "endorse") in clusters

    def test_does_not_over_merge(self, kb):
        synsets = ParaphraseMiner().mine(kb)
        for synset in synsets:
            assert not ("praise" in synset.patterns and "back" in synset.patterns)

    def test_support_counts_pairs(self, kb):
        synsets = ParaphraseMiner().mine(kb)
        merged = next(s for s in synsets if "back" in s.patterns)
        assert merged.support == 3

    def test_canonical_predicates_ignored(self):
        kb = built(replace(new_fact("marry", "E1", "E2"), canonical_predicate=True))
        assert ParaphraseMiner().mine(kb) == []

    def test_literal_only_facts_ignored(self):
        kb = built(Fact(
            subject=Argument(ARG_LITERAL, "x", "x"),
            predicate="foo",
            objects=[Argument(ARG_LITERAL, "y", "y")],
        ))
        assert ParaphraseMiner().mine(kb) == []

    def test_representative_is_shortest(self, kb):
        merged = next(
            s for s in ParaphraseMiner().mine(kb) if "endorse" in s.patterns
        )
        assert merged.representative == "back"


class TestApply:
    def test_rewrites_merged_patterns(self, kb):
        original = kb.to_dict()
        rewritten_kb, rewritten = ParaphraseMiner().apply(kb)
        assert rewritten > 0
        predicates = rewritten_kb.predicates()
        assert "endorse" not in predicates
        assert "back" in predicates
        assert kb.to_dict() == original  # the input is a value, untouched

    def test_singletons_untouched(self, kb):
        rewritten_kb, _ = ParaphraseMiner().apply(kb)
        assert "praise" in rewritten_kb.predicates()

    def test_rewrite_made_duplicates_fold(self):
        """Rewriting "endorse" onto "back" makes each pair's two facts
        identical: they fold into the first row, with the maximum
        confidence, so no key appears twice."""
        kb = built(
            *(new_fact("back", s, o, 0.6) for s, o in (("E1", "F1"), ("E2", "F2"), ("E3", "F1"))),
            *(new_fact("endorse", s, o, 0.9) for s, o in (("E1", "F1"), ("E2", "F2"), ("E3", "F1"))),
        )
        rewritten_kb, rewritten = ParaphraseMiner().apply(kb)
        assert rewritten == 3
        assert len(rewritten_kb.facts) == len({f.key() for f in rewritten_kb.facts}) == 3
        assert [f.confidence for f in rewritten_kb.facts] == [0.9, 0.9, 0.9]
        assert [f.subject.value for f in rewritten_kb.facts] == ["E1", "E2", "E3"]

    def test_end_to_end_on_real_kb(self, tiny_world, qkbfly_system, realizer):
        from repro.datasets.wikia import build_wikia_dataset

        docs = build_wikia_dataset(tiny_world, num_documents=2,
                                   sentences_per_document=20)
        kb = KnowledgeBase.merge(
            qkbfly_system.process_text(doc.text, doc_id=doc.doc_id)[0] for doc in docs
        )
        miner = ParaphraseMiner(min_shared=1, min_jaccard=0.3)
        synsets = miner.mine(kb)
        # Mining runs and produces well-formed synsets.
        for synset in synsets:
            assert synset.patterns
            assert synset.support >= 1
