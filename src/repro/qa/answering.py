"""Ad-hoc KB-QA: the four-step method of Appendix B.

Step 1 — detect question entities, retrieve relevant documents
(Wikipedia page of the entity + top-10 news articles for the question).
Step 2 — run QKBfly over the retrieved documents; no pre-existing fact
repository is used.
Step 3 — collect answer candidates from the question-specific KB, with
an expected-answer-type filter (Who -> PERSON/CHARACTER/ORGANIZATION,
Where -> LOCATION, When -> TIME, Which <noun> -> mapped type).
Step 4 — score each candidate with a binary linear SVM over hashed
question-token x candidate-token pair features; positives are returned
(top-ranked candidate as fallback for factoid questions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.qkbfly import QKBfly
from repro.datasets.trends_questions import QaQuestion
from repro.kb.facts import ARG_EMERGING, ARG_ENTITY, ARG_TIME, Fact, KnowledgeBase
from repro.qa.classifier import LinearSvm
from repro.qa.features import (
    FEATURE_DIMENSION,
    candidate_tokens,
    evidence_features,
    pair_features,
    question_tokens,
)

_WHICH_TYPE_MAP = {
    "club": ("ORGANIZATION",),
    "team": ("ORGANIZATION",),
    "company": ("ORGANIZATION",),
    "band": ("ORGANIZATION",),
    "newspaper": ("ORGANIZATION",),
    "award": ("MISC",),
    "film": ("MISC",),
    "movie": ("MISC",),
    "album": ("MISC",),
    "festival": ("MISC", "LOCATION"),
    "city": ("LOCATION",),
    "country": ("LOCATION",),
}


@dataclass
class AnswerCandidate:
    """One candidate answer with its KB support."""

    display: str
    types: Tuple[str, ...]
    facts: List[Fact] = field(default_factory=list)
    score: float = 0.0


class QaSystem:
    """QKBfly-backed ad-hoc question answering."""

    def __init__(
        self,
        qkbfly: QKBfly,
        num_news: int = 10,
        use_wikipedia: bool = True,
        use_news: bool = True,
    ) -> None:
        self.qkbfly = qkbfly
        self.num_news = num_news
        self.use_wikipedia = use_wikipedia
        self.use_news = use_news
        self.classifier = LinearSvm(FEATURE_DIMENSION)
        self._trained = False

    # ------------------------------------------------------------------
    # Steps 1-2: retrieval + on-the-fly KB
    # ------------------------------------------------------------------

    def build_question_kb(self, question: QaQuestion) -> KnowledgeBase:
        """Retrieve documents for the question and build its ad-hoc KB."""
        parts = []
        if self.use_wikipedia:
            parts.append(
                self.qkbfly.build_kb(question.query, source="wikipedia", num_documents=1)
            )
        if self.use_news:
            parts.append(
                self.qkbfly.build_kb(
                    question.question, source="news", num_documents=self.num_news
                )
            )
        return KnowledgeBase.merge(parts)

    # ------------------------------------------------------------------
    # Step 3: candidates with type filter
    # ------------------------------------------------------------------

    def collect_candidates(
        self, question: QaQuestion, kb: KnowledgeBase
    ) -> List[AnswerCandidate]:
        """Typed answer candidates from the question-specific KB."""
        answer_types = self._expected_types(question)
        question_lower = question.question.lower()
        by_display: Dict[str, AnswerCandidate] = {}
        for fact in kb.facts:
            for argument in fact.arguments():
                types = self._types_of(kb, argument)
                if argument.kind == ARG_TIME:
                    if "TIME" not in answer_types:
                        continue
                elif argument.kind not in (ARG_ENTITY, ARG_EMERGING):
                    continue
                elif not any(t in answer_types for t in types):
                    continue
                display = argument.display
                if display.lower() in question_lower:
                    continue  # a question entity is not an answer
                candidate = by_display.get(display.lower())
                if candidate is None:
                    candidate = AnswerCandidate(
                        display=display, types=tuple(types)
                    )
                    by_display[display.lower()] = candidate
                candidate.facts.append(fact)
        return list(by_display.values())

    def _expected_types(self, question: QaQuestion) -> Tuple[str, ...]:
        text = question.question.lower()
        if text.startswith("who"):
            return ("PERSON", "CHARACTER", "ORGANIZATION")
        if text.startswith("where"):
            return ("LOCATION",)
        if text.startswith("when"):
            return ("TIME",)
        if text.startswith(("which", "what")):
            words = text.split()
            if len(words) > 1 and words[1] in _WHICH_TYPE_MAP:
                return _WHICH_TYPE_MAP[words[1]]
            return question.answer_types
        return question.answer_types

    def _types_of(self, kb: KnowledgeBase, argument) -> Tuple[str, ...]:
        if argument.kind == ARG_ENTITY:
            types = kb.entity_types.get(argument.value, ())
            coarse = set()
            for type_name in types:
                coarse.add(
                    self.qkbfly.entity_repository.type_system.coarse(type_name)
                )
                coarse.add(type_name)
            return tuple(sorted(coarse)) or ("MISC",)
        if argument.kind == ARG_EMERGING:
            emerging = kb.emerging.get(argument.value)
            return (emerging.guessed_type,) if emerging else ("MISC",)
        if argument.kind == ARG_TIME:
            return ("TIME",)
        return ("MISC",)

    # ------------------------------------------------------------------
    # Step 4: classifier
    # ------------------------------------------------------------------

    def train(self, training_questions: Sequence[QaQuestion]) -> Dict[str, int]:
        """Train the answer SVM on WebQuestions-style pairs.

        Facts extracted by QKBfly that contain correct / incorrect
        answers yield positive / negative examples (Appendix B).
        """
        examples: List[Tuple[List[int], int]] = []
        for question in training_questions:
            kb = self.build_question_kb(question)
            for candidate in self.collect_candidates(question, kb):
                features = self._features(question, candidate)
                label = int(candidate.display.lower() in question.gold)
                examples.append((features, label))
        if not examples:
            raise RuntimeError("no training candidates generated")
        self.classifier.fit(examples)
        self._trained = True
        return {
            "examples": len(examples),
            "positives": sum(label for _, label in examples),
        }

    def _features(self, question: QaQuestion, candidate: AnswerCandidate) -> List[int]:
        q_tokens = question_tokens(question.question)
        features = pair_features(
            q_tokens, candidate_tokens(candidate.display, candidate.facts)
        )
        features.extend(evidence_features(question.question, candidate.facts))
        return sorted(set(features))

    def answer(self, question: QaQuestion) -> Set[str]:
        """Answer one question; returns the predicted answer strings."""
        kb = self.build_question_kb(question)
        return self.answer_from_kb(question, kb)

    def answer_from_kb(
        self, question: QaQuestion, kb: KnowledgeBase
    ) -> Set[str]:
        """Steps 3-4 given a pre-built question-specific KB."""
        if not self._trained:
            raise RuntimeError("call train() before answer()")
        candidates = self.collect_candidates(question, kb)
        if not candidates:
            return set()
        for candidate in candidates:
            candidate.score = self.classifier.decision(
                self._features(question, candidate)
            )
        positives = [c for c in candidates if c.score > 0.0]
        if positives:
            return {c.display.lower() for c in positives}
        best = max(candidates, key=lambda c: c.score)
        return {best.display.lower()}


__all__ = ["AnswerCandidate", "QaSystem"]
