"""On-the-fly relational paraphrase mining (the paper's future work).

Section 9 names "on-the-fly relational paraphrase mining" as an
important follow-up direction: new relation patterns discovered during
KB construction should be clustered into synsets *without* a
pre-computed dictionary. This module implements the standard
distributional approach: two out-of-repository patterns are paraphrases
when they connect (near-)identical sets of argument pairs — the same
signal PATTY itself was mined with, applied to the on-the-fly KB.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Set, Tuple

from repro.kb.facts import Fact, KnowledgeBase


@dataclass
class MinedSynset:
    """A cluster of mutually paraphrastic new patterns."""

    patterns: List[str]
    support: int                 # distinct argument pairs covered
    representative: str = ""

    def __post_init__(self) -> None:
        if not self.representative and self.patterns:
            self.representative = min(self.patterns, key=len)


class ParaphraseMiner:
    """Clusters new (out-of-repository) relation patterns by argument overlap.

    Args:
        min_shared: Minimum number of argument pairs two patterns must
            share to be merged.
        min_jaccard: Minimum Jaccard similarity between their argument
            pair sets.
    """

    def __init__(self, min_shared: int = 2, min_jaccard: float = 0.5) -> None:
        self.min_shared = min_shared
        self.min_jaccard = min_jaccard

    def mine(self, kb: KnowledgeBase) -> List[MinedSynset]:
        """Cluster the KB's non-canonical predicates into synsets."""
        pairs_of: Dict[str, Set[Tuple[str, str]]] = {}
        for fact in kb.facts:
            if fact.canonical_predicate:
                continue
            key = self._argument_pair(fact)
            if key is None:
                continue
            pairs_of.setdefault(fact.predicate, set()).add(key)

        patterns = sorted(pairs_of)
        parent: Dict[str, str] = {p: p for p in patterns}

        def find(p: str) -> str:
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for i, a in enumerate(patterns):
            for b in patterns[i + 1:]:
                if self._paraphrase(pairs_of[a], pairs_of[b]):
                    parent[find(b)] = find(a)

        clusters: Dict[str, List[str]] = {}
        for pattern in patterns:
            clusters.setdefault(find(pattern), []).append(pattern)
        out = []
        for members in clusters.values():
            support_pairs: Set[Tuple[str, str]] = set()
            for member in members:
                support_pairs.update(pairs_of[member])
            out.append(
                MinedSynset(patterns=sorted(members), support=len(support_pairs))
            )
        out.sort(key=lambda s: (-s.support, s.representative))
        return out

    def apply(self, kb: KnowledgeBase) -> Tuple[KnowledgeBase, int]:
        """Rewrite the KB's new predicates onto mined representatives.

        Returns the rewritten KB and the number of facts whose predicate
        was rewritten. Only multi-pattern synsets cause rewrites
        (singletons stay as-is). A rewrite that makes two facts
        identical folds them: the first row's position with the maximum
        confidence.
        """
        mapping: Dict[str, str] = {}
        for synset in self.mine(kb):
            if len(synset.patterns) < 2:
                continue
            for pattern in synset.patterns:
                mapping[pattern] = synset.representative
        rewritten = 0
        facts = []
        for fact in kb.facts:
            target = mapping.get(fact.predicate)
            if target is not None and target != fact.predicate:
                fact = replace(fact, predicate=target)
                rewritten += 1
            facts.append(fact)
        return kb.with_facts(facts), rewritten

    def _argument_pair(self, fact: Fact):
        if not fact.subject.is_entity():
            return None
        for obj in fact.objects:
            if obj.is_entity():
                return (fact.subject.value, obj.value)
        return None

    def _paraphrase(
        self, pairs_a: Set[Tuple[str, str]], pairs_b: Set[Tuple[str, str]]
    ) -> bool:
        shared = pairs_a & pairs_b
        if len(shared) < self.min_shared:
            return False
        union = pairs_a | pairs_b
        return len(shared) / len(union) >= self.min_jaccard


__all__ = ["MinedSynset", "ParaphraseMiner"]
