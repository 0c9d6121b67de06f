"""Named-entity recognition: gazetteer + orthographic shape heuristics.

Follows the structure of the Stanford NER usage in the paper: tokens are
labeled with one of the five coarse types PERSON, ORGANIZATION, LOCATION,
MISC and TIME (TIME comes from :mod:`repro.nlp.time_tagger`). A gazetteer
compiled from the entity repository's alias dictionary provides
high-precision matches; unknown capitalized runs fall back to contextual
cues (titles, corporate suffixes, locative prepositions).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.nlp.lexicon import TITLES
from repro.nlp.tokens import Sentence, Span

_ORG_SUFFIXES = {
    "inc.", "ltd.", "corp.", "co.", "company", "foundation", "institute",
    "university", "club", "f.c.", "fc", "united", "city", "association",
    "campaign", "records", "band", "orchestra", "studios", "league",
}
_LOC_CUES_BEFORE = {"in", "at", "near", "from", "to"}
_PERSON_VERBS = {
    "say", "marry", "divorce", "win", "play", "star", "act", "donate",
    "accuse", "file", "bear", "adopt", "perform", "sign", "join", "study",
}
_MONEY_PREFIX = "$"


class NerTagger:
    """Gazetteer-backed NER tagger.

    Args:
        gazetteer: Mapping from lower-cased multi-word alias to entity
            type (e.g. ``"brad pitt" -> "PERSON"``). Usually built from
            :class:`repro.kb.entity_repository.EntityRepository`.
    """

    def __init__(self, gazetteer: Optional[Dict[str, str]] = None) -> None:
        self._gazetteer: Dict[Tuple[str, ...], str] = {}
        # First token -> the alias lengths it starts, longest first.
        self._lengths: Dict[str, List[int]] = {}
        if gazetteer:
            lengths: Dict[str, Set[int]] = {}
            for alias, label in gazetteer.items():
                key = tuple(alias.lower().split())
                if key:
                    self._gazetteer[key] = label
                    lengths.setdefault(key[0], set()).add(len(key))
            self._lengths = {
                first: sorted(sizes, reverse=True)
                for first, sizes in lengths.items()
            }

    def tag(self, sentence: Sentence) -> None:
        """Fill ``token.ner`` and ``sentence.entity_mentions`` in place.

        TIME tokens assigned by the time tagger are left untouched.
        """
        tokens = sentence.tokens
        n = len(tokens)
        mentions: List[Span] = []
        claimed = [t.ner == "TIME" for t in tokens]

        # Money literals.
        for i, token in enumerate(tokens):
            if token.text.startswith(_MONEY_PREFIX) and not claimed[i]:
                token.ner = "MONEY"
                claimed[i] = True

        # Gazetteer pass: longest match first, skipping claimed tokens.
        i = 0
        while i < n:
            if claimed[i]:
                i += 1
                continue
            matched = self._longest_gazetteer_match(tokens, i, claimed)
            if matched is not None:
                end, label = matched
                mentions.append(Span(i, end, label))
                for j in range(i, end):
                    tokens[j].ner = label
                    claimed[j] = True
                i = end
            else:
                i += 1

        # Shape pass: unknown capitalized runs.
        i = 0
        while i < n:
            token = tokens[i]
            if claimed[i] or token.pos not in {"NNP", "NNPS"}:
                i += 1
                continue
            start = i
            while i < n and tokens[i].pos in {"NNP", "NNPS"} and not claimed[i]:
                i += 1
            label = self._guess_label(sentence, start, i)
            mentions.append(Span(start, i, label))
            for j in range(start, i):
                tokens[j].ner = label

        mentions.sort(key=lambda s: s.start)
        sentence.entity_mentions = self._merge_adjacent(mentions)

    @staticmethod
    def _merge_adjacent(mentions: List[Span]) -> List[Span]:
        """Merge contiguous same-label mentions into one.

        A gazetteer surname match directly after an unknown first name
        ("Verena" + "Wexford") is one person mention; real NER taggers
        label the full span.
        """
        merged: List[Span] = []
        for mention in mentions:
            if (
                merged
                and merged[-1].end == mention.start
                and {merged[-1].label, mention.label} <= {"PERSON", "MISC"}
                and "PERSON" in (merged[-1].label, mention.label)
            ):
                merged[-1] = Span(merged[-1].start, mention.end, "PERSON")
            else:
                merged.append(mention)
        return merged

    def _longest_gazetteer_match(
        self, tokens, i: int, claimed: List[bool]
    ) -> Optional[Tuple[int, str]]:
        """Longest alias starting at ``i``; only the lengths an alias
        starting with this token has are tried."""
        for length in self._lengths.get(tokens[i].text.lower(), ()):
            end = i + length
            if end > len(tokens) or any(claimed[j] for j in range(i, end)):
                continue
            key = tuple(t.text.lower() for t in tokens[i:end])
            label = self._gazetteer.get(key)
            if label is not None:
                # Single lowercase common words should not match aliases.
                if end - i == 1 and not tokens[i].text[0].isupper():
                    continue
                return end, label
        return None

    def _guess_label(self, sentence: Sentence, start: int, end: int) -> str:
        """Heuristic type for an out-of-gazetteer capitalized run."""
        tokens = sentence.tokens
        words = [t.text.lower() for t in tokens[start:end]]
        before = tokens[start - 1].text.lower() if start > 0 else ""
        after = tokens[end].lemma or tokens[end].text.lower() if end < len(tokens) else ""

        if any(word in _ORG_SUFFIXES for word in words):
            return "ORGANIZATION"
        if before in TITLES:
            return "PERSON"
        # Subject of a typical person verb.
        if after in _PERSON_VERBS:
            return "PERSON"
        # Two capitalized words, neither an org suffix: likely a person
        # name (First Last).
        if end - start == 2:
            return "PERSON"
        if before in _LOC_CUES_BEFORE and end - start == 1:
            return "LOCATION"
        return "MISC"


def build_gazetteer(aliases: Iterable[Tuple[str, str]]) -> Dict[str, str]:
    """Build the gazetteer dict from (alias, coarse type) pairs."""
    out: Dict[str, str] = {}
    for alias, label in aliases:
        out[alias.lower()] = label
    return out


__all__ = ["NerTagger", "build_gazetteer"]
