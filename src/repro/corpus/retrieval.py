"""Document retrieval: the Wikipedia / Google-News search stand-in.

QKBfly retrieves relevant source documents for a query (Section 2.2,
"Stage 1" inputs; Appendix B step 1). We index the realized document
collection with BM25 and expose the two channels the paper's demo offers:
``wikipedia`` (entity pages) and ``news`` (event articles).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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

    def with_document(
        self,
        doc_id: str,
        tokens: Sequence[str],
        previous_tokens: Sequence[str] = (),
    ) -> "Bm25Index":
        """A new index with ``doc_id`` added, or replaced when it is
        indexed already; this index is left unchanged.

        Copy on write: the new index shares every posting bucket except
        those of ``tokens`` and ``previous_tokens`` — the tokens the
        replaced revision was indexed with, required on a replace — so
        the cost is the document's, not the corpus's. Scores equal a
        from-scratch build's to the bit: lengths are integers, and a
        document's score is summed in query-token order.
        """
        previous_len = self._doc_len.get(doc_id)
        if previous_len is not None and previous_len != len(previous_tokens):
            raise ValueError(
                f"previous_tokens of {doc_id!r} do not match the index"
            )
        clone = Bm25Index(self.k1, self.b)
        clone._postings = dict(self._postings)
        clone._doc_len = dict(self._doc_len)
        clone._total_len = self._total_len
        changed = set(tokens)
        if previous_len is not None:
            del clone._doc_len[doc_id]
            clone._total_len -= previous_len
            changed.update(previous_tokens)
        # Fresh buckets, without doc_id, for every token ``add`` will
        # write to or the old revision leaves: the shared ones stay as
        # they are.
        for token in changed:
            bucket = {
                other: tf
                for other, tf in self._postings.get(token, {}).items()
                if other != doc_id
            }
            if bucket:
                clone._postings[token] = bucket
            else:
                clone._postings.pop(token, None)
        clone.add(doc_id, tokens)
        return clone

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

    An engine is never changed after construction: a live ingest
    derives a new one with :meth:`with_document`, and readers holding
    the old engine keep searching it undisturbed. ``wiki_index`` /
    ``news_index`` hand in an index already built over the channel's
    doc table; otherwise it is built here.
    """

    world: World
    wikipedia_docs: Dict[str, RealizedDocument] = field(default_factory=dict)
    news_docs: Dict[str, RealizedDocument] = field(default_factory=dict)
    wiki_index: InitVar[Optional[Bm25Index]] = None
    news_index: InitVar[Optional[Bm25Index]] = None

    def __post_init__(
        self,
        wiki_index: Optional[Bm25Index],
        news_index: Optional[Bm25Index],
    ) -> None:
        if wiki_index is None:
            wiki_index = self._index(self.wikipedia_docs)
        if news_index is None:
            news_index = self._index(self.news_docs)
        self._wiki_index = wiki_index
        self._news_index = news_index

    @classmethod
    def _index(cls, docs: Dict[str, RealizedDocument]) -> Bm25Index:
        index = Bm25Index()
        for doc_id, doc in docs.items():
            index.add(doc_id, cls._doc_tokens(doc))
        return index

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

    def with_document(self, doc: RealizedDocument) -> "SearchEngine":
        """A new engine with ``doc`` added to its channel
        (``doc.source``), or replacing the revision with its id.

        Copy on write: the channel's doc table is copied and its index
        derived with :meth:`Bm25Index.with_document`, which re-buckets
        only the tokens of ``doc`` and of the revision it replaces
        (read from the ``document_tokens`` memo). The other channel's
        doc table and index are shared with this engine, which is left
        unchanged.
        """
        channels = {
            "wikipedia": (self.wikipedia_docs, self._wiki_index),
            "news": (self.news_docs, self._news_index),
        }
        if doc.source not in channels:
            raise ValueError(f"unknown source {doc.source!r}")
        docs, index = channels[doc.source]
        previous = docs.get(doc.doc_id)
        channels[doc.source] = (
            {**docs, doc.doc_id: doc},
            index.with_document(
                doc.doc_id,
                self._doc_tokens(doc),
                self._doc_tokens(previous) if previous is not None else (),
            ),
        )
        (wikipedia_docs, wiki_index), (news_docs, news_index) = (
            channels["wikipedia"],
            channels["news"],
        )
        return SearchEngine(
            world=self.world,
            wikipedia_docs=wikipedia_docs,
            news_docs=news_docs,
            wiki_index=wiki_index,
            news_index=news_index,
        )

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
