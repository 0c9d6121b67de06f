"""Cross-module integration: query -> retrieval -> KB -> evaluation -> QA.

These tests exercise the whole stack the way the benchmark harness and
the examples do, over the shared tiny world.
"""

import pytest

from repro.core.qkbfly import QKBfly, QKBflyConfig
from repro.datasets.defie_wikipedia import build_defie_wikipedia
from repro.eval.assess import FactMatcher, SimulatedAssessors, ned_verdicts
from repro.kb.facts import KnowledgeBase


@pytest.fixture(scope="module")
def searchable(tiny_world):
    return QKBfly.from_world(tiny_world, with_search=True)


class TestQueryToKb:
    def test_wikipedia_query_yields_entity_facts(self, tiny_world, searchable):
        entity = max(
            (e for e in tiny_world.entities.values()
             if e.in_repository and tiny_world.facts_of(e.entity_id)),
            key=lambda e: e.prominence,
        )
        kb = searchable.build_kb(entity.name, source="wikipedia", num_documents=1)
        subjects = {f.subject.display for f in kb.facts}
        assert any(entity.name in s or s in entity.aliases for s in subjects)

    def test_multi_document_merge_deduplicates(self, tiny_world, searchable):
        entity = tiny_world.entities[
            tiny_world.person_ids_by_profession["FOOTBALLER"][0]
        ]
        one = searchable.build_kb(entity.name, source="news", num_documents=1)
        many = searchable.build_kb(entity.name, source="news", num_documents=4)
        keys = [f.key() for f in many.facts]
        assert len(keys) == len(set(keys))
        assert len(many) >= len(one)


class TestEvaluationPipeline:
    def test_oracle_assessor_agreement(self, tiny_world, qkbfly_system):
        docs = build_defie_wikipedia(tiny_world, num_documents=12)
        matcher = FactMatcher(tiny_world)
        verdicts = []
        for doc in docs:
            kb, _ = qkbfly_system.process_text(doc.text, doc_id=doc.doc_id)
            verdicts.extend(matcher.is_correct(f, doc, kb) for f in kb.facts)
        assert len(verdicts) > 20
        oracle = sum(verdicts) / len(verdicts)
        assert oracle > 0.5, "most extractions from clean pages must verify"
        assessed = SimulatedAssessors(seed=5).assess(verdicts)
        assert abs(assessed.precision - assessed.oracle_precision) < 0.12

    def test_ned_verdicts_end_to_end(self, tiny_world, qkbfly_system):
        docs = build_defie_wikipedia(tiny_world, num_documents=8)
        verdicts = []
        for doc in docs:
            annotated = qkbfly_system.nlp.annotate_text(
                doc.text, doc_id=doc.doc_id
            )
            _, graph, result = qkbfly_system.process_document(annotated)
            verdicts.extend(ned_verdicts(tiny_world, doc, graph, result))
        assert verdicts
        assert sum(verdicts) / len(verdicts) > 0.6


class TestVariantOrderings:
    """The core Table 3 orderings, asserted at unit scale."""

    def test_noun_subset_of_joint_recall(self, tiny_world):
        docs = build_defie_wikipedia(tiny_world, num_documents=10)
        joint = QKBfly.from_world(tiny_world, with_search=False)
        noun = QKBfly.from_world(
            tiny_world, QKBflyConfig(mode="noun"), with_search=False
        )
        joint_total = noun_total = 0
        for doc in docs:
            kb_j, _ = joint.process_text(doc.text, doc_id=doc.doc_id)
            kb_n, _ = noun.process_text(doc.text, doc_id=doc.doc_id)
            joint_total += len(kb_j)
            noun_total += len(kb_n)
        assert noun_total <= joint_total

    def test_higher_arity_share(self, tiny_world):
        docs = build_defie_wikipedia(tiny_world, num_documents=10)
        system = QKBfly.from_world(tiny_world, with_search=False)
        merged = KnowledgeBase.merge(
            system.process_text(doc.text, doc_id=doc.doc_id)[0] for doc in docs
        )
        # The paper reports roughly a third of extractions are
        # higher-arity; ours should at least produce a healthy share.
        assert len(merged.higher_arity_facts()) > 0
        assert len(merged.higher_arity_facts()) < len(merged.facts)
