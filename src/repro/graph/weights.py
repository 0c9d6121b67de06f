"""Edge weight functions (Section 4 of the paper).

Two weight families over a (sub)graph S:

- ``means`` edge between noun-phrase ni and entity candidate e::

      w(ni, e) = alpha1 * prior(ni, e) + alpha2 * sim(cxt(ni), cxt(e))

  where ``prior`` is the anchor link prior from the background corpus
  and ``sim`` the weighted-overlap similarity between the TF-IDF context
  vector of the mention's sentence and the entity's article.

- ``relation`` edge between phrase nodes ni, nt with pattern r::

      w(ni, nt, S) = alpha3 * sum coh(e_ij, e_tk)
                   + alpha4 * sum ts(e_ij, e_tk, r)

  summing over current candidate pairs; ``coh`` is entity-entity context
  coherence, ``ts`` the type-signature statistic (summed over all type
  combinations of the pair, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.corpus.statistics import BackgroundStatistics, content_tokens
from repro.graph.semantic_graph import RelationEdge, SemanticGraph
from repro.nlp.tokens import Document
from repro.utils.text import strip_determiners
from repro.utils.vectors import SparseVector, weighted_overlap


@dataclass
class WeightParameters:
    """The alpha hyper-parameters of Section 4.

    Defaults are the values learned by :mod:`repro.graph.tuning` on the
    annotated training sentences; they can be overridden freely.
    """

    alpha1: float = 1.0   # link prior
    alpha2: float = 0.8   # mention-entity context similarity
    alpha3: float = 0.5   # entity-entity coherence
    alpha4: float = 0.7   # type signature

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """(alpha1, alpha2, alpha3, alpha4)."""
        return (self.alpha1, self.alpha2, self.alpha3, self.alpha4)


class EdgeWeights:
    """Weight oracle for one document graph.

    Precomputes mention context vectors and memoizes means weights,
    entity-pair coherence, type-signature sums and the pair weights
    built from them, so the densification loop's incremental
    recomputation stays cheap.
    """

    def __init__(
        self,
        graph: SemanticGraph,
        document: Document,
        statistics: BackgroundStatistics,
        params: Optional[WeightParameters] = None,
    ) -> None:
        self.graph = graph
        self.statistics = statistics
        self.params = params or WeightParameters()
        self._sentence_vectors: Dict[int, SparseVector] = {}
        for sentence in document.sentences:
            self._sentence_vectors[sentence.index] = statistics.tfidf_vector(
                content_tokens(sentence.text())
            )
        self._means_cache: Dict[Tuple[str, str], float] = {}
        self._coh_cache: Dict[Tuple[str, str], float] = {}
        self._ts_cache: Dict[Tuple[str, str, str], float] = {}
        self._pair_cache: Dict[Tuple[str, str, str], float] = {}

    # ---- means edges -----------------------------------------------------

    def means_weight(self, phrase_id: str, entity_id: str) -> float:
        """w(ni, e): alpha1 * prior + alpha2 * context similarity."""
        key = (phrase_id, entity_id)
        cached = self._means_cache.get(key)
        if cached is not None:
            return cached
        node = self.graph.phrases[phrase_id]
        mention = strip_determiners(node.surface)
        prior = self.statistics.prior(mention, entity_id)
        mention_vector = self._sentence_vectors.get(
            node.sentence_index, SparseVector()
        )
        entity_vector = self.statistics.context_of(entity_id)
        similarity = weighted_overlap(mention_vector, entity_vector)
        weight = self.params.alpha1 * prior + self.params.alpha2 * similarity
        self._means_cache[key] = weight
        return weight

    # ---- relation edges ------------------------------------------------------

    def coherence(self, entity_a: str, entity_b: str) -> float:
        """coh(e1, e2): weighted overlap of the entity context vectors."""
        if entity_a > entity_b:
            entity_a, entity_b = entity_b, entity_a
        key = (entity_a, entity_b)
        cached = self._coh_cache.get(key)
        if cached is not None:
            return cached
        value = weighted_overlap(
            self.statistics.context_of(entity_a),
            self.statistics.context_of(entity_b),
        )
        self._coh_cache[key] = value
        return value

    def type_signature_sum(
        self, entity_a: str, entity_b: str, pattern: str
    ) -> float:
        """ts summed over all type combinations of the entity pair."""
        key = (entity_a, entity_b, pattern)
        cached = self._ts_cache.get(key)
        if cached is not None:
            return cached
        node_a = self.graph.entities.get(f"e:{entity_a}")
        node_b = self.graph.entities.get(f"e:{entity_b}")
        if node_a is None or node_b is None:
            return 0.0
        total = 0.0
        for type_a in node_a.types:
            for type_b in node_b.types:
                total += self.statistics.type_signature(type_a, type_b, pattern)
        self._ts_cache[key] = total
        return total

    def pair_weight(self, entity_a: str, entity_b: str, pattern: str) -> float:
        """Contribution of one candidate pair to a relation edge weight.

        Memoised per ``(entity_a, entity_b, pattern)``: densification
        re-weighs the same edges after every removal it tries, so each
        pair is computed once per document.
        """
        key = (entity_a, entity_b, pattern)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._pair_cache[key] = (
                self.params.alpha3 * self.coherence(entity_a, entity_b)
                + self.params.alpha4
                * self.type_signature_sum(entity_a, entity_b, pattern)
            )
        return cached

    def relation_weight(
        self,
        edge: RelationEdge,
        source_candidates: Iterable[str],
        target_candidates: Iterable[str],
    ) -> float:
        """w(ni, nt, S) for given current candidate sets.

        Sums in sorted candidate order, so the float total does not
        depend on a set's (hash-seeded) iteration order.
        """
        total = 0.0
        pattern = edge.pattern
        pair_weight = self.pair_weight
        targets = sorted(target_candidates)
        for entity_a in sorted(source_candidates):
            for entity_b in targets:
                total += pair_weight(entity_a, entity_b, pattern)
        return total


__all__ = ["EdgeWeights", "WeightParameters"]
