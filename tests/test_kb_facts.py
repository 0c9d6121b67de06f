"""Tests for the fact / KB model."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.facts import (
    ARG_EMERGING,
    ARG_ENTITY,
    ARG_LITERAL,
    Argument,
    EmergingEntity,
    Fact,
    KbBuilder,
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


def built(*facts, types=None):
    builder = KbBuilder()
    for fact in facts:
        builder.add_fact(fact)
    for entity_id, entity_types in (types or {}).items():
        builder.set_entity_types(entity_id, entity_types)
    return builder.build()


def assert_immutable(kb):
    """Every way of writing to a sealed KB raises."""
    fact = kb.facts[0]
    attempts = [
        lambda: setattr(fact, "confidence", 0.0),
        lambda: fact.objects.append(entity("E7", "extra")),
        lambda: kb.facts.append(fact),
        lambda: setattr(kb, "facts", ()),
        lambda: kb.emerging.__setitem__("x", None),
        lambda: kb.entity_mentions.__setitem__("x", frozenset()),
        lambda: kb.entity_types.__setitem__("x", ()),
        lambda: kb.add_fact(fact),
    ]
    attempts += [
        lambda e=e: e.mentions.append("extra") for e in kb.emerging.values()
    ]
    attempts += [lambda m=m: m.add("extra") for m in kb.entity_mentions.values()]
    attempts += [lambda t=t: t.append("extra") for t in kb.entity_types.values()]
    for attempt in attempts:
        with pytest.raises((FrozenInstanceError, TypeError, AttributeError)):
            attempt()


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
        builder = KbBuilder()
        assert builder.add_fact(make_fact(confidence=0.6, doc_id="first"))
        assert builder.add_fact(make_fact(pred="divorced_from"))
        assert not builder.add_fact(make_fact(confidence=0.9, doc_id="second"))
        assert not builder.add_fact(make_fact(confidence=0.7, doc_id="third"))
        kb = builder.build()
        assert len(kb) == 2
        # The raised row keeps its position and provenance.
        assert kb.facts[0].confidence == 0.9 and kb.facts[0].doc_id == "first"

    def test_triples_vs_higher_arity(self):
        kb = built(
            make_fact(),
            Fact(
                subject=entity("E1", "Pitt"), predicate="plays_role_in",
                objects=[entity("E3", "Achilles"), entity("E4", "Troy")],
            ),
        )
        assert len(kb.triples()) == 1
        assert len(kb.higher_arity_facts()) == 1

    def test_search_substring(self):
        kb = built(make_fact())
        assert kb.search(subject="pitt")
        assert kb.search(predicate="married")
        assert kb.search(obj="jolie")
        assert not kb.search(subject="dylan")

    def test_search_min_confidence(self):
        kb = built(make_fact(confidence=0.4))
        assert not kb.search(subject="pitt", min_confidence=0.5)

    def test_type_search(self):
        kb = built(make_fact(), types={"E1": ["ACTOR", "PERSON"]})
        assert kb.search(subject="Type:ACTOR")
        assert kb.search(subject="Type:actor")  # case-insensitive
        assert not kb.search(subject="Type:CITY")

    def test_type_search_emerging(self):
        builder = KbBuilder()
        builder.add_emerging(EmergingEntity("c1", "Jessica Leeds", guessed_type="PERSON"))
        builder.add_fact(Fact(
            subject=Argument(ARG_EMERGING, "c1", "Jessica Leeds"),
            predicate="accuses_of",
            objects=[entity("E9", "Trump")],
        ))
        assert builder.build().search(subject="Type:PERSON")

    def test_new_relations_counted(self):
        kb = built(
            make_fact(),
            Fact(
                subject=entity("E1", "Pitt"), predicate="forget",
                objects=[Argument(ARG_LITERAL, "lyrics", "the lyrics")],
                canonical_predicate=False,
            ),
        )
        assert kb.num_new_relations() == 1

    def test_merge(self):
        b = KbBuilder()
        b.add_fact(make_fact())  # duplicate
        b.add_fact(make_fact(pred="divorced_from"))
        b.observe_mention("E1", "Pitt")
        merged = KnowledgeBase.merge([built(make_fact()), b.build()])
        assert len(merged) == 2
        assert "Pitt" in merged.entity_mentions["E1"]

    def test_one_element_merge_is_its_input(self):
        kb = built(make_fact())
        assert KnowledgeBase.merge([kb]) is kb
        assert KnowledgeBase.merge([]).to_dict() == KnowledgeBase().to_dict()

    def test_pickle_round_trip_stays_sealed(self):
        builder = KbBuilder()
        builder.add_fact(make_fact(confidence=0.6))
        builder.add_emerging(EmergingEntity("c1", "Jessica Leeds", ["Leeds"]))
        builder.observe_mention("E1", "Pitt")
        builder.set_entity_types("E1", ["ACTOR"])
        kb = builder.build()
        clone = pickle.loads(pickle.dumps(kb))
        assert clone.to_dict() == kb.to_dict()
        assert_immutable(clone)

    def test_merge_copies_what_it_adopts(self):
        """``merge`` shares what it adopts instead of copying it: the
        pipeline merges cached, shared per-document fragments
        (docs/PIPELINE.md), and no part of a sealed KB can be written,
        so sharing cannot leak a mutation either way."""
        def fragment_b():
            b = KbBuilder()
            b.add_fact(make_fact(confidence=0.6, doc_id="b"))
            b.add_fact(make_fact(pred="divorced_from", confidence=0.7, doc_id="b"))
            b.add_emerging(EmergingEntity("b#new0", "Jessica Leeds", ["Leeds"]))
            b.observe_mention("E1", "Pitt")
            b.set_entity_types("E1", ["ACTOR", "PERSON"])
            return b

        def fragment_c():
            c = KbBuilder()
            c.add_fact(make_fact(confidence=0.9, doc_id="c"))  # duplicate of b's
            c.add_emerging(EmergingEntity("b#new0", "shadowed", ["x"]))
            c.observe_mention("E1", "Brad")
            c.set_entity_types("E1", ["shadowed"])
            return c

        b, c = fragment_b().build(), fragment_c().build()
        merged = KnowledgeBase.merge([b, c])

        # The fold's rules: first occurrence wins, a duplicate only
        # raises the kept row's confidence.
        reference = fragment_b()
        for fact in c.facts:
            reference.add_fact(fact)
        reference.observe_mention("E1", "Brad")
        assert merged.to_dict() == reference.build().to_dict()
        assert merged.facts[0].confidence == 0.9 and merged.facts[0].doc_id == "b"

        # ... and neither input was written to.
        assert b.to_dict() == fragment_b().build().to_dict()
        assert c.to_dict() == fragment_c().build().to_dict()

        # What the fold adopted unchanged is the inputs' own rows,
        assert merged.facts[1] is b.facts[1]
        assert merged.emerging["b#new0"] is b.emerging["b#new0"]
        assert merged.entity_types["E1"] is b.entity_types["E1"]
        # and no part of the result or of an input can be written.
        for kb in (merged, b, c):
            assert_immutable(kb)


# ---- the fold, against a plain-dict reference -------------------------------

_confidences = st.sampled_from([0.25, 0.5, 0.75, 1.0])
_facts = st.builds(
    lambda pred, subj, obj, confidence, doc: Fact(
        subject=entity(subj, subj.lower()),
        predicate=pred,
        objects=(entity(obj, obj.lower()),),
        confidence=confidence,
        doc_id=doc,
    ),
    st.sampled_from(["p", "q"]),
    st.sampled_from(["E1", "E2"]),
    st.sampled_from(["E1", "E3"]),
    _confidences,
    st.sampled_from(["a", "b", "c"]),
)
_emerging = st.builds(
    EmergingEntity,
    st.sampled_from(["c1", "c2"]),
    st.sampled_from(["X", "Y"]),
    st.lists(st.sampled_from(["m1", "m2"]), max_size=2),
)
_entity_ids = st.sampled_from(["E1", "E2", "E3"])


@st.composite
def _fragments(draw):
    builder = KbBuilder()
    for fact in draw(st.lists(_facts, max_size=6)):
        builder.add_fact(fact)
    for emerging in draw(st.lists(_emerging, max_size=2)):
        builder.add_emerging(emerging)
    for entity_id, mention in draw(
        st.lists(st.tuples(_entity_ids, st.sampled_from(["m1", "m2", "m3"])), max_size=3)
    ):
        builder.observe_mention(entity_id, mention)
    for entity_id, types in draw(
        st.lists(st.tuples(_entity_ids, st.lists(st.sampled_from(["A", "B"]), max_size=2)),
                 max_size=2)
    ):
        builder.set_entity_types(entity_id, types)
    return builder.build()


def _reference_fold(fragments):
    """The fold's rules over plain dicts: first occurrence wins for
    rows, emerging clusters and types; mentions are unioned; a duplicate
    only raises the kept row's confidence. Returns the folded form and
    the number of strictly raised duplicates."""
    facts, position, raised = [], {}, 0
    emerging, mentions, types = {}, {}, {}
    for fragment in fragments:
        data = fragment.to_dict()
        for row in data["facts"]:
            key = (
                row["predicate"],
                row["subject"]["kind"],
                row["subject"]["value"],
                tuple((o["kind"], o["value"]) for o in row["objects"]),
            )
            if key not in position:
                position[key] = len(facts)
                facts.append(dict(row))
            elif row["confidence"] > facts[position[key]]["confidence"]:
                facts[position[key]]["confidence"] = row["confidence"]
                raised += 1
        for cluster_id, cluster in data["emerging"].items():
            emerging.setdefault(cluster_id, cluster)
        for entity_id, entity_mentions in data["entity_mentions"].items():
            mentions.setdefault(entity_id, set()).update(entity_mentions)
        for entity_id, entity_types in data["entity_types"].items():
            types.setdefault(entity_id, entity_types)
    folded = {
        "facts": facts,
        "emerging": {cid: emerging[cid] for cid in sorted(emerging)},
        "entity_mentions": {eid: sorted(mentions[eid]) for eid in sorted(mentions)},
        "entity_types": {eid: types[eid] for eid in sorted(types)},
    }
    return folded, raised


@given(st.lists(_fragments(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_merge_equals_the_reference_fold_and_shares_its_inputs(fragments):
    snapshots = [(fragment.facts, fragment.to_dict()) for fragment in fragments]
    expected, raised = _reference_fold(fragments)
    constructions = [0]
    init = Fact.__init__

    def counting_init(self, *args, **kwargs):
        constructions[0] += 1
        init(self, *args, **kwargs)

    Fact.__init__ = counting_init
    try:
        merged = KnowledgeBase.merge(fragments)
    finally:
        Fact.__init__ = init
    assert merged.to_dict() == expected
    # Only a strictly raised duplicate makes a new row.
    assert constructions[0] == raised
    for fragment, (facts, data) in zip(fragments, snapshots):
        assert fragment.facts is facts and fragment.to_dict() == data
    inputs = {id(fact) for fragment in fragments for fact in fragment.facts}
    assert sum(id(fact) not in inputs for fact in merged.facts) <= raised
