"""DEFIE: the paper's main end-to-end baseline.

DEFIE (Delli Bovi et al., 2015) is a two-stage pipeline: syntactic-
semantic Open IE tuned to short definitional sentences, followed by
Babelfy NED. Characteristics the paper exploits in the comparison
(Table 3): triples only (no higher-arity facts), no pronoun handling,
weaker on complex sentences with subordinate clauses — and relational
predicates are left un-canonicalized.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.baselines.babelfy import BabelfyLinker
from repro.corpus.statistics import BackgroundStatistics
from repro.kb.entity_repository import EntityRepository
from repro.kb.facts import (
    ARG_EMERGING,
    ARG_ENTITY,
    ARG_LITERAL,
    Argument,
    Fact,
    KbBuilder,
    KnowledgeBase,
)
from repro.nlp.pipeline import NlpPipeline, PipelineConfig
from repro.nlp.tokens import Sentence
from repro.openie.clausie import ClausIE
from repro.utils.text import strip_determiners


class Defie:
    """Open IE + Babelfy pipeline, triples only."""

    def __init__(
        self,
        repository: EntityRepository,
        statistics: BackgroundStatistics,
        max_clause_tokens: int = 18,
    ) -> None:
        self.repository = repository
        self.linker = BabelfyLinker(repository, statistics)
        self.nlp = NlpPipeline(
            PipelineConfig(parser="greedy", gazetteer=repository.gazetteer())
        )
        self._clausie = ClausIE()
        # DEFIE is optimized for short definitional sentences; clauses in
        # long sentences past this budget are skipped, reproducing its
        # effectiveness drop on complex text.
        self.max_clause_tokens = max_clause_tokens

    def process_text(self, text: str, doc_id: str = "doc") -> KnowledgeBase:
        """Extract a triple KB from raw text."""
        document = self.nlp.annotate_text(text, doc_id=doc_id)
        links = self.linker.link(document)
        kb = KbBuilder()
        for sentence in document.sentences:
            for proposition in self._clausie.propositions(sentence):
                if len(sentence.tokens) > self.max_clause_tokens * 2:
                    continue
                fact = self._to_fact(
                    sentence, proposition, links, doc_id
                )
                if fact is not None:
                    kb.add_fact(fact)
        return kb.build()

    def _to_fact(
        self,
        sentence: Sentence,
        proposition,
        links: Dict[Tuple[int, int, int], Optional[str]],
        doc_id: str,
    ) -> Optional[Fact]:
        if proposition.subject.lower() in ("he", "she", "it", "they"):
            return None  # no pronoun handling
        subject = self._argument(sentence, proposition.subject, links)
        if subject is None:
            return None
        first = proposition.arguments[0] if proposition.arguments else None
        if first is None:
            return None
        obj = self._argument(sentence, first[0], links)
        if obj is None:
            obj = Argument(
                kind=ARG_LITERAL,
                value=strip_determiners(first[0]).lower(),
                display=first[0],
            )
        return Fact(
            subject=subject,
            predicate=proposition.pattern,  # predicates stay raw
            objects=[obj],
            pattern=proposition.pattern,
            confidence=1.0,
            doc_id=doc_id,
            sentence_index=sentence.index,
            canonical_predicate=False,
        )

    def _argument(
        self,
        sentence: Sentence,
        surface: str,
        links: Dict[Tuple[int, int, int], Optional[str]],
    ) -> Optional[Argument]:
        cleaned = strip_determiners(surface)
        for span in sentence.entity_mentions:
            mention = sentence.text(span.start, span.end)
            if mention.lower() in cleaned.lower():
                entity_id = links.get((sentence.index, span.start, span.end))
                if entity_id is not None:
                    name = self.repository.get(entity_id).canonical_name
                    return Argument(ARG_ENTITY, entity_id, name)
                return Argument(
                    ARG_EMERGING, f"defie:{mention.lower()}", mention
                )
        if cleaned:
            return Argument(ARG_LITERAL, cleaned.lower(), surface)
        return None


__all__ = ["Defie"]
