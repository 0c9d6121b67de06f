"""Tests for the fact / KB model."""


from repro.kb.facts import (
    ARG_EMERGING,
    ARG_ENTITY,
    ARG_LITERAL,
    Argument,
    EmergingEntity,
    Fact,
    KnowledgeBase,
)


def entity(eid, name):
    return Argument(ARG_ENTITY, eid, name)


def make_fact(pred="married_to", subj=("E1", "Brad Pitt"), obj=("E2", "Angelina Jolie"), **kw):
    return Fact(
        subject=entity(*subj),
        predicate=pred,
        objects=[entity(*obj)],
        canonical_predicate=True,
        **kw,
    )


class TestFact:
    def test_arity(self):
        fact = make_fact()
        assert fact.arity == 2
        assert fact.is_triple()

    def test_higher_arity(self):
        fact = Fact(
            subject=entity("E1", "Pitt"),
            predicate="plays_role_in",
            objects=[entity("E3", "Achilles"), entity("E4", "Troy")],
        )
        assert fact.arity == 3
        assert not fact.is_triple()

    def test_key_ignores_confidence(self):
        assert make_fact(confidence=0.5).key() == make_fact(confidence=0.9).key()


class TestKnowledgeBase:
    def test_dedup_keeps_max_confidence(self):
        kb = KnowledgeBase()
        assert kb.add_fact(make_fact(confidence=0.6))
        assert not kb.add_fact(make_fact(confidence=0.9))
        assert len(kb) == 1
        assert kb.facts[0].confidence == 0.9

    def test_triples_vs_higher_arity(self):
        kb = KnowledgeBase()
        kb.add_fact(make_fact())
        kb.add_fact(Fact(
            subject=entity("E1", "Pitt"), predicate="plays_role_in",
            objects=[entity("E3", "Achilles"), entity("E4", "Troy")],
        ))
        assert len(kb.triples()) == 1
        assert len(kb.higher_arity_facts()) == 1

    def test_search_substring(self):
        kb = KnowledgeBase()
        kb.add_fact(make_fact())
        assert kb.search(subject="pitt")
        assert kb.search(predicate="married")
        assert kb.search(obj="jolie")
        assert not kb.search(subject="dylan")

    def test_search_min_confidence(self):
        kb = KnowledgeBase()
        kb.add_fact(make_fact(confidence=0.4))
        assert not kb.search(subject="pitt", min_confidence=0.5)

    def test_type_search(self):
        kb = KnowledgeBase()
        kb.add_fact(make_fact())
        kb.set_entity_types("E1", ["ACTOR", "PERSON"])
        assert kb.search(subject="Type:ACTOR")
        assert kb.search(subject="Type:actor")  # case-insensitive
        assert not kb.search(subject="Type:CITY")

    def test_type_search_emerging(self):
        kb = KnowledgeBase()
        kb.add_emerging(EmergingEntity("c1", "Jessica Leeds", guessed_type="PERSON"))
        kb.add_fact(Fact(
            subject=Argument(ARG_EMERGING, "c1", "Jessica Leeds"),
            predicate="accuses_of",
            objects=[entity("E9", "Trump")],
        ))
        assert kb.search(subject="Type:PERSON")

    def test_new_relations_counted(self):
        kb = KnowledgeBase()
        kb.add_fact(make_fact())
        kb.add_fact(Fact(
            subject=entity("E1", "Pitt"), predicate="forget",
            objects=[Argument(ARG_LITERAL, "lyrics", "the lyrics")],
            canonical_predicate=False,
        ))
        assert kb.num_new_relations() == 1

    def test_merge(self):
        a, b = KnowledgeBase(), KnowledgeBase()
        a.add_fact(make_fact())
        b.add_fact(make_fact())  # duplicate
        b.add_fact(make_fact(pred="divorced_from"))
        b.observe_mention("E1", "Pitt")
        a.merge(b)
        assert len(a) == 2
        assert "Pitt" in a.entity_mentions["E1"]

    def test_merge_copies_what_it_adopts(self):
        """``merge`` only reads ``other``: the pipeline merges cached,
        shared per-document fragments (docs/PIPELINE.md), so neither a
        later merge into the result nor a mutation of either side may
        reach the other. At the parent of this test ``merge`` adopted
        rows by reference and ``a.merge(b); a.merge(c)`` with a
        duplicate in ``c`` raised the confidence of a row owned by
        ``b``."""
        def fragment_b():
            b = KnowledgeBase()
            b.add_fact(make_fact(confidence=0.6, doc_id="b"))
            b.add_fact(make_fact(pred="divorced_from", confidence=0.7, doc_id="b"))
            b.add_emerging(EmergingEntity("b#new0", "Jessica Leeds", ["Leeds"]))
            b.observe_mention("E1", "Pitt")
            b.set_entity_types("E1", ["ACTOR", "PERSON"])
            return b

        def fragment_c():
            c = KnowledgeBase()
            c.add_fact(make_fact(confidence=0.9, doc_id="c"))  # duplicate of b's
            c.add_emerging(EmergingEntity("b#new0", "shadowed", ["x"]))
            c.observe_mention("E1", "Brad")
            c.set_entity_types("E1", ["shadowed"])
            return c

        b, c = fragment_b(), fragment_c()
        merged = KnowledgeBase()
        merged.merge(b)
        merged.merge(c)

        # The fold itself is the parent's: first occurrence wins, a
        # duplicate only raises the kept row's confidence.
        reference = fragment_b()
        for fact in fragment_c().facts:
            reference.add_fact(fact)
        reference.observe_mention("E1", "Brad")
        assert merged.to_dict() == reference.to_dict()
        assert merged.facts[0].confidence == 0.9 and merged.facts[0].doc_id == "b"

        # ... and neither input was written to.
        assert b.to_dict() == fragment_b().to_dict()
        assert c.to_dict() == fragment_c().to_dict()

        # Mutating the result leaves the inputs alone,
        merged.facts[1].confidence = 0.0
        merged.facts[1].objects.append(entity("E7", "extra"))
        merged.emerging["b#new0"].mentions.append("extra")
        merged.entity_mentions["E1"].add("extra")
        merged.entity_types["E1"].append("extra")
        assert b.to_dict() == fragment_b().to_dict()
        # and mutating an input leaves the result alone.
        fresh = KnowledgeBase()
        fresh.merge(b)
        snapshot = fresh.to_dict()
        b.facts[0].confidence = 0.0
        b.facts[0].objects.append(entity("E7", "extra"))
        b.emerging["b#new0"].mentions.append("extra")
        b.entity_mentions["E1"].add("extra")
        b.entity_types["E1"].append("extra")
        assert fresh.to_dict() == snapshot
