"""Document retrieval: the Wikipedia / Google-News search stand-in.

QKBfly retrieves relevant source documents for a query (Section 2.2,
"Stage 1" inputs; Appendix B step 1). We index the realized document
collection with BM25 and expose the two channels the paper's demo offers:
``wikipedia`` (entity pages) and ``news`` (event articles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.corpus.realizer import RealizedDocument, Realizer
from repro.corpus.statistics import content_tokens, document_tokens
from repro.corpus.world import World


class Bm25Index:
    """A compact in-memory BM25 (Okapi) index."""

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._postings: Dict[str, Dict[str, int]] = {}
        self._doc_len: Dict[str, int] = {}
        self._total_len = 0

    def add(self, doc_id: str, tokens: Sequence[str]) -> None:
        """Index a document given its (already normalized) tokens."""
        if doc_id in self._doc_len:
            raise ValueError(f"duplicate document id {doc_id!r}")
        self._doc_len[doc_id] = len(tokens)
        self._total_len += len(tokens)
        for token in tokens:
            bucket = self._postings.setdefault(token, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + 1

    def __len__(self) -> int:
        return len(self._doc_len)

    def search(self, query_tokens: Sequence[str], k: int = 10) -> List[Tuple[str, float]]:
        """Top-``k`` (doc id, BM25 score) for the query tokens."""
        n = len(self._doc_len)
        if n == 0:
            return []
        avg_len = self._total_len / n
        scores: Dict[str, float] = {}
        for token in query_tokens:
            postings = self._postings.get(token)
            if not postings:
                continue
            df = len(postings)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            for doc_id, tf in postings.items():
                length_norm = 1 - self.b + self.b * self._doc_len[doc_id] / avg_len
                score = idf * tf * (self.k1 + 1) / (tf + self.k1 * length_norm)
                scores[doc_id] = scores.get(doc_id, 0.0) + score
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


@dataclass
class SearchEngine:
    """Query-driven retrieval over the synthetic collection.

    Two channels mirror the demo UI: ``wikipedia`` restricts to entity
    pages (en.wikipedia.org in the paper), ``news`` to event articles
    (bbc.com in the paper). Titles are up-weighted by indexing them
    twice, the standard cheap trick.
    """

    world: World
    wikipedia_docs: Dict[str, RealizedDocument] = field(default_factory=dict)
    news_docs: Dict[str, RealizedDocument] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._wiki_index = Bm25Index()
        self._news_index = Bm25Index()
        for doc_id, doc in self.wikipedia_docs.items():
            self._wiki_index.add(doc_id, self._doc_tokens(doc))
        for doc_id, doc in self.news_docs.items():
            self._news_index.add(doc_id, self._doc_tokens(doc))

    @classmethod
    def from_world(
        cls,
        world: World,
        wikipedia_docs: Sequence[RealizedDocument],
        realizer_seed: int = 4099,
    ) -> "SearchEngine":
        """Build the engine from background articles + realized news."""
        realizer = Realizer(world, seed=realizer_seed)
        news = [realizer.news_article(event) for event in world.events]
        return cls(
            world=world,
            wikipedia_docs={d.doc_id: d for d in wikipedia_docs},
            news_docs={d.doc_id: d for d in news},
        )

    @staticmethod
    def _doc_tokens(doc: RealizedDocument) -> List[str]:
        return document_tokens(doc, "title") * 2 + document_tokens(doc)

    def search(
        self, query: str, source: str = "wikipedia", k: int = 10
    ) -> List[RealizedDocument]:
        """Top-``k`` documents for a free-text query on one channel."""
        tokens = content_tokens(query)
        if source == "wikipedia":
            ranked = self._wiki_index.search(tokens, k)
            return [self.wikipedia_docs[doc_id] for doc_id, _ in ranked]
        if source == "news":
            ranked = self._news_index.search(tokens, k)
            return [self.news_docs[doc_id] for doc_id, _ in ranked]
        raise ValueError(f"unknown source {source!r}")


__all__ = ["Bm25Index", "SearchEngine"]
