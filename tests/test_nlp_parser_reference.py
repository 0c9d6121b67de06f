"""The parsers against the code they replaced (``reference_parser``).

Heads, labels and arc scores must be bit-identical to the reference on
every sentence the benchmark worlds serve, on the Reverb-500 set, and
on generated token sequences rich in the constructions whose rules
read context (commas, relativizers, auxiliaries, TIME tokens,
possessives). The work-count fences pin what the per-sentence scorer
saves: each arc is still scored exactly as often as before, but a
pending token's best-child window is scanned far less.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_parser import (
    ReferenceEisnerParser,
    ReferenceGreedyParser,
)
import reference_parser
from repro.corpus.background import build_background_corpus
from repro.corpus.retrieval import SearchEngine
from repro.corpus.world import World, WorldConfig
from repro.datasets.reverb500 import build_reverb500
from repro.nlp import dependency
from repro.nlp.dependency import (
    ROOT,
    EisnerChartParser,
    GreedyTransitionParser,
    arc_score,
)
from repro.nlp.pipeline import NlpPipeline, PipelineConfig
from repro.nlp.tokens import Sentence, Token

PARSERS = [
    (ReferenceGreedyParser, GreedyTransitionParser),
    (ReferenceEisnerParser, EisnerChartParser),
]


def _arcs(sentence: Sentence):
    return [(token.head, token.deprel) for token in sentence.tokens]


def _assert_same_parse(sentence: Sentence) -> None:
    for reference, parser in PARSERS:
        expected = copy.deepcopy(sentence)
        actual = copy.deepcopy(sentence)
        reference().parse(expected)
        parser().parse(actual)
        assert _arcs(actual) == _arcs(expected), (parser.__name__, sentence.text())


@lru_cache(maxsize=None)
def _world_sentences(seed: int) -> List[Sentence]:
    """Every sentence of a benchmark world's retrievable documents."""
    world = World(WorldConfig(), seed=seed)
    engine = SearchEngine.from_world(world, build_background_corpus(world).documents)
    nlp = NlpPipeline(
        PipelineConfig(gazetteer=world.entity_repository.gazetteer())
    )
    sentences = []
    for table in (engine.wikipedia_docs, engine.news_docs):
        for doc_id in sorted(table):
            annotated = nlp.annotate_text(table[doc_id].text, doc_id=doc_id)
            sentences.extend(annotated.sentences)
    return sentences


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_parses_match_the_reference_on_every_world_sentence(seed):
    sentences = _world_sentences(seed)
    assert len(sentences) > 1000
    for sentence in sentences:
        _assert_same_parse(sentence)


def test_parses_match_the_reference_on_reverb500():
    world = World(WorldConfig(), seed=7)
    nlp = NlpPipeline(
        PipelineConfig(gazetteer=world.entity_repository.gazetteer())
    )
    documents = build_reverb500(world)
    assert len(documents) == 500
    for document in documents:
        for sentence in nlp.annotate_text(document.text).sentences:
            _assert_same_parse(sentence)


def test_world_seven_parse_work_counts(monkeypatch):
    """Arc scores per content token are unchanged; window scans fall
    from the reference's 6.6 to at most 4.3."""
    counts = {"ref_arcs": 0, "arcs": 0, "ref_scans": 0, "scans": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        reference_parser, "arc_score",
        counting("ref_arcs", reference_parser.arc_score),
    )
    monkeypatch.setattr(
        ReferenceGreedyParser, "_future_child_score",
        counting("ref_scans", ReferenceGreedyParser._future_child_score),
    )
    monkeypatch.setattr(
        dependency.ArcScorer, "compute",
        counting("arcs", dependency.ArcScorer.compute),
    )
    monkeypatch.setattr(
        GreedyTransitionParser, "_best_child",
        counting("scans", GreedyTransitionParser._best_child),
    )
    sentences = _world_sentences(7)
    assert len(sentences) == 1124
    content = 0
    for sentence in sentences:
        content += sum(token.pos != "PUNCT" for token in sentence.tokens)
        ReferenceGreedyParser().parse(copy.deepcopy(sentence))
        GreedyTransitionParser().parse(copy.deepcopy(sentence))
    assert counts["arcs"] == counts["ref_arcs"]
    assert counts["ref_scans"] / content > 6.5
    assert counts["scans"] / content <= 4.3


# ---- generated sentences ----------------------------------------------------

#: (text, pos, lemma, ner): every coarse class, and the tokens the
#: context rules look for.
_VOCAB = [
    ("Pitt", "NNP", "pitt", "PERSON"),
    ("Jolie", "NNP", "jolie", "PERSON"),
    ("Troy", "NNP", "troy", "MISC"),
    ("actor", "NN", "actor", "O"),
    ("films", "NNS", "film", "O"),
    ("he", "PRP", "he", "O"),
    ("100", "CD", "100", "O"),
    ("2014", "CD", "2014", "TIME"),
    ("August", "NNP", "august", "TIME"),
    ("who", "WP", "who", "O"),
    ("which", "WDT", "which", "O"),
    ("was", "VBD", "be", "O"),
    ("is", "VBZ", "be", "O"),
    ("has", "VBZ", "have", "O"),
    ("been", "VBN", "be", "O"),
    ("will", "MD", "will", "O"),
    ("married", "VBD", "marry", "O"),
    ("born", "VBN", "bear", "O"),
    ("starring", "VBG", "star", "O"),
    ("lives", "VBZ", "live", "O"),
    ("the", "DT", "the", "O"),
    ("his", "PRP$", "his", "O"),
    ("'s", "POS", "'s", "O"),
    ("famous", "JJ", "famous", "O"),
    ("in", "IN", "in", "O"),
    ("to", "TO", "to", "O"),
    ("and", "CC", "and", "O"),
    ("recently", "RB", "recently", "O"),
    (",", "PUNCT", ",", "O"),
    (".", "PUNCT", ".", "O"),
    ("uh", "UH", "uh", "O"),
]


def _sentence(entries) -> Sentence:
    return Sentence(
        tokens=[
            Token(text=text, index=i, pos=pos, lemma=lemma, ner=ner)
            for i, (text, pos, lemma, ner) in enumerate(entries)
        ]
    )


# Long enough that a removal's window changes reach both ends of the
# pending list: shorter sentences let a dropped window position hide.
_SENTENCES = st.lists(st.sampled_from(_VOCAB), min_size=8, max_size=30).map(
    _sentence
)


@given(_SENTENCES)
@settings(max_examples=400, deadline=None)
def test_generated_parses_match_the_reference(sentence):
    _assert_same_parse(sentence)


@given(_SENTENCES)
@settings(max_examples=100, deadline=None)
def test_generated_arc_scores_match_the_reference(sentence):
    tokens = sentence.tokens
    positions = range(len(tokens))
    for head in [ROOT, *positions]:
        for dep in positions:
            assert arc_score(tokens, head, dep) == reference_parser.arc_score(
                tokens, head, dep
            ), (head, dep, sentence.text())
