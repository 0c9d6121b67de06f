"""Background (co-)occurrence statistics.

Section 2.2 of the paper: from the background corpus QKBfly derives
(a) the *link prior* — how often an anchor text points to each entity,
(b) TF-IDF *context vectors* for entities, and (c) *type signature*
statistics — how often pairs of semantic types occur under a relation
pattern in clauses whose arguments are linked. These feed the edge-weight
functions of the graph algorithm (Section 4).

Our background corpus is realized from the synthetic world, so the
anchors and argument links come from the realizer's ground truth — the
exact analogue of Wikipedia href anchors the paper exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.corpus.realizer import TOKENS_MEMO, RealizedDocument
from repro.utils.vectors import SparseVector

_STOPWORDS: Set[str] = {
    "the", "a", "an", "is", "was", "are", "were", "be", "been", "being",
    "and", "or", "but", "in", "on", "at", "to", "of", "from", "for",
    "with", "by", "who", "which", "that", "he", "she", "it", "his", "her",
    "its", "they", "their", "them", "this", "these", "also", "as", "'s",
    ".", ",", "!", "?", ";", ":",
}


def content_tokens(text: str) -> List[str]:
    """Lower-cased tokens of ``text`` minus stopwords and punctuation."""
    from repro.nlp.tokenizer import tokenize

    return [
        tok.lower()
        for tok in tokenize(text)
        if tok.lower() not in _STOPWORDS and any(ch.isalnum() for ch in tok)
    ]


def document_tokens(doc: RealizedDocument, part: str = "text") -> List[str]:
    """``content_tokens`` of ``doc.text`` (or of ``part="title"``),
    tokenised once per document.

    The statistics pass and every search-engine build (one per live
    ingest) read the same documents. The memo rides on the document
    and is checked against the current string — ``RealizedDocument`` is
    mutable and an in-place edit must be noticed — and is left out of
    the document's pickle. The list is shared: do not mutate it.
    """
    value = getattr(doc, part)
    memo = doc.__dict__.setdefault(TOKENS_MEMO, {})
    entry = memo.get(part)
    if entry is None or entry[0] != value:
        entry = memo[part] = (value, content_tokens(value))
    return entry[1]


@dataclass
class BackgroundStatistics:
    """All corpus-derived statistics consumed by the edge weights."""

    # anchor text (lower) -> entity id -> count
    anchor_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # entity id -> total times it appears as an anchor target
    entity_anchor_totals: Dict[str, int] = field(default_factory=dict)
    # entity id -> TF-IDF context vector of its article
    entity_context: Dict[str, SparseVector] = field(default_factory=dict)
    # token -> document frequency
    doc_freq: Dict[str, int] = field(default_factory=dict)
    num_docs: int = 0
    # (subject type, object type, pattern) -> count
    type_pattern_counts: Dict[Tuple[str, str, str], int] = field(
        default_factory=dict
    )
    # pattern -> total count over all type pairs
    pattern_totals: Dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Content hash of the statistics feeding the edge weights.

        Covers the count tables that drive priors, IDF and type
        signatures; context vectors are derived from the same articles
        counted in ``doc_freq``, so any rebuild that changes them also
        changes a hashed table. Feeds the serving layer's
        ``corpus_version`` stamp.
        """
        import hashlib

        digest = hashlib.sha1()
        digest.update(str(self.num_docs).encode("utf-8"))
        for mention in sorted(self.anchor_counts):
            bucket = self.anchor_counts[mention]
            digest.update(mention.encode("utf-8"))
            for entity_id in sorted(bucket):
                digest.update(f"{entity_id}:{bucket[entity_id]}".encode("utf-8"))
        for token in sorted(self.doc_freq):
            digest.update(f"{token}:{self.doc_freq[token]}".encode("utf-8"))
        for key in sorted(self.type_pattern_counts):
            digest.update(
                f"{key}:{self.type_pattern_counts[key]}".encode("utf-8")
            )
        return digest.hexdigest()

    # ---- priors -----------------------------------------------------------

    def prior(self, mention: str, entity_id: str) -> float:
        """Link prior p(entity | anchor text), Section 4 weight (1).

        The relative frequency with which an anchor with text ``mention``
        points to ``entity_id`` in the background corpus.
        """
        bucket = self.anchor_counts.get(mention.lower().strip())
        if not bucket:
            return 0.0
        total = sum(bucket.values())
        if total == 0:
            return 0.0
        return bucket.get(entity_id, 0) / total

    # ---- context vectors -----------------------------------------------------

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency of ``token``."""
        df = self.doc_freq.get(token, 0)
        return math.log((self.num_docs + 1) / (df + 1)) + 1.0

    def tfidf_vector(self, tokens: Iterable[str]) -> SparseVector:
        """TF-IDF vector over a token stream (stopwords assumed removed)."""
        tf = SparseVector.from_counts(tokens)
        return SparseVector({k: v * self.idf(k) for k, v in tf.items()})

    def context_of(self, entity_id: str) -> SparseVector:
        """Pre-computed TF-IDF context vector of an entity's article."""
        return self.entity_context.get(entity_id, SparseVector())

    # ---- type signatures ---------------------------------------------------

    def type_signature(
        self, subject_type: str, object_type: str, pattern: str
    ) -> float:
        """Relative frequency of a type pair under a relation pattern.

        Section 4 weight (2), ``ts(e_ij, e_tk, r_it)``: the fraction of
        background clauses with pattern ``pattern`` whose linked
        arguments carry the given types.
        """
        total = self.pattern_totals.get(pattern, 0)
        if total == 0:
            return 0.0
        count = self.type_pattern_counts.get(
            (subject_type, object_type, pattern), 0
        )
        return count / total


def compute_statistics(
    world, documents: Sequence[RealizedDocument]
) -> BackgroundStatistics:
    """Aggregate background statistics from realized documents.

    Anchors come from the realizer's mention records (the Wikipedia-link
    analogue); type-pattern counts from emitted facts whose subject and
    first object are linked entities — exactly the clauses the paper
    keeps ("clauses in which all arguments are mapped to Wikipedia
    entities, or are recognized as either names or time expressions").
    """
    stats = BackgroundStatistics()
    article_tokens: Dict[str, List[str]] = {}

    for doc in documents:
        tokens = document_tokens(doc)
        stats.num_docs += 1
        for token in set(tokens):
            stats.doc_freq[token] = stats.doc_freq.get(token, 0) + 1
        for about in doc.about:
            article_tokens.setdefault(about, []).extend(tokens)

        for mention in doc.anchors():
            key = mention.surface.lower()
            bucket = stats.anchor_counts.setdefault(key, {})
            bucket[mention.entity_id] = bucket.get(mention.entity_id, 0) + 1
            stats.entity_anchor_totals[mention.entity_id] = (
                stats.entity_anchor_totals.get(mention.entity_id, 0) + 1
            )
            # Sub-alias counting: "Brad Pitt" also counts for "Pitt",
            # which is how anchor statistics behave on Wikipedia.
            entity = world.entities.get(mention.entity_id)
            if entity is not None:
                for alias in entity.aliases:
                    if alias.lower() != key and alias.lower() in mention.surface.lower():
                        sub = stats.anchor_counts.setdefault(alias.lower(), {})
                        sub[mention.entity_id] = sub.get(mention.entity_id, 0) + 1

        for emitted in doc.emitted:
            subject = world.entities.get(emitted.subject_id)
            if subject is None:
                continue
            entity_args = emitted.entity_args()
            if not entity_args:
                continue
            first_object = world.entities.get(entity_args[0])
            if first_object is None:
                continue
            for s_type in world.type_system.with_ancestors(subject.types[0]):
                for o_type in world.type_system.with_ancestors(
                    first_object.types[0]
                ):
                    key = (s_type, o_type, emitted.pattern)
                    stats.type_pattern_counts[key] = (
                        stats.type_pattern_counts.get(key, 0) + 1
                    )
            stats.pattern_totals[emitted.pattern] = (
                stats.pattern_totals.get(emitted.pattern, 0) + 1
            )

    for entity_id, tokens in article_tokens.items():
        stats.entity_context[entity_id] = stats.tfidf_vector(tokens)
    return stats


__all__ = [
    "BackgroundStatistics",
    "compute_statistics",
    "content_tokens",
    "document_tokens",
]
