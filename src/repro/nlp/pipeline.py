"""Pipeline orchestration: raw text -> fully annotated :class:`Document`.

Mirrors the paper's pre-processing stack (Section 2.2 "Statistics"):
tokenization, POS tagging, noun-phrase chunking, NER, time tagging and
dependency parsing. The parser is pluggable: ``parser="greedy"`` is the
fast MaltParser stand-in, ``parser="chart"`` the exact Eisner parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.nlp.chunker import chunk_sentence
from repro.nlp.dependency import EisnerChartParser, GreedyTransitionParser
from repro.nlp.lemma import lemmatize_sentence
from repro.nlp.ner import NerTagger
from repro.nlp.pos import tag_sentence
from repro.nlp.sentences import sentences_from_text
from repro.nlp.time_tagger import tag_times
from repro.nlp.tokens import Document, Sentence, Token


@dataclass
class PipelineConfig:
    """Configuration of the linguistic pipeline.

    Attributes:
        parser: ``"greedy"`` (easy-first, MaltParser stand-in) or
            ``"chart"`` (O(n^3) Eisner, Stanford-parser stand-in).
        gazetteer: alias -> coarse NER type for the gazetteer pass.
    """

    parser: str = "greedy"
    gazetteer: Dict[str, str] = field(default_factory=dict)


class NlpPipeline:
    """Runs all annotators over raw text or pre-built documents."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        if self.config.parser == "greedy":
            self._parser = GreedyTransitionParser()
        elif self.config.parser == "chart":
            self._parser = EisnerChartParser()
        else:
            raise ValueError(f"unknown parser {self.config.parser!r}")
        self._ner = NerTagger(self.config.gazetteer)

    def annotate_text(self, text: str, doc_id: str = "doc", title: str = "") -> Document:
        """Tokenize, split and annotate raw text into a document."""
        document = Document(doc_id=doc_id, title=title, raw_text=text)
        for index, words in enumerate(sentences_from_text(text)):
            sentence = Sentence(
                tokens=[Token(text=w, index=i) for i, w in enumerate(words)],
                index=index,
            )
            document.sentences.append(sentence)
        self.annotate_document(document)
        return document

    def annotate_document(self, document: Document) -> Document:
        """Annotate a document whose sentences already hold raw tokens."""
        for sentence in document.sentences:
            self.annotate_sentence(sentence)
        return document

    def annotate_sentence(self, sentence: Sentence) -> Sentence:
        """Run every annotator over one sentence, in dependency order."""
        tag_sentence(sentence)
        lemmatize_sentence(sentence)
        tag_times(sentence)
        self._ner.tag(sentence)
        chunk_sentence(sentence)
        self._parser.parse(sentence)
        return sentence


__all__ = ["NlpPipeline", "PipelineConfig"]
