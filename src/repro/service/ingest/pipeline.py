"""The live-corpus ingest path: document in, touched entities out.

One ingest runs in five steps, all on the caller's thread and
serialized under a single ingest lock (concurrent *queries* keep
flowing — only ingests queue behind each other):

1. **process** — the document's KB fragment comes from the same
   stage-cached chain queries use (``QKBfly.document_fragment``), so
   re-ingesting unchanged text is nearly free and the queries that
   retrieve the document afterwards reuse the fragment; it is mined
   for the *touched-entity set*: repository entities mentioned, emerging
   entities discovered, fact argument displays, and the document
   title, all normalized;
2. **commit** — the session's search engine is swapped, in one
   reference assignment, for ``engine.with_document(document)``: a
   copy-on-write engine that shares every posting bucket except those
   of the new revision's tokens (and, on an update, the old one's) and
   shares the other channel outright, so the old engine stays intact
   for readers still holding it. The owning service rebinds its
   pipeline over the new engine, and the per-entity version vector is
   bumped for the touched set. The global ``corpus_version`` is
   deliberately **not** rotated — that is the whole point;
3. **invalidate** — exactly the warm state whose normalized query
   intersects the touched set is discarded: query-cache entries, KB
   store rows (the store's delete trigger keeps the FTS5 search index
   consistent inside the same transaction), and tagged retrieval-stage
   entries. Each tier tests its entries against one
   :class:`~repro.service.ingest.match.EntityMatcher` compiled from
   the touched set, so most entries are rejected by one set test.
   Everything else stays warm and bit-identical;
4. **acknowledge** — the ingest is recorded in the service history.
   Only now may a caller treat the document as durable; a crash at the
   ``ingest.commit`` fault point (before step 2) leaves no trace, and
   a crash at ``ingest.invalidate`` (before step 3) is repaired by
   :meth:`IngestPipeline.recover`, which redoes the idempotent
   invalidation from the recorded intent before the next operation;
5. **notify** — matching ``watch(entity)`` subscriptions receive a KB
   delta (see :mod:`repro.service.ingest.subscriptions`); webhook
   deliveries are attempted inline, after the acknowledgment, so a
   delivery crash can never lose an acked ingest.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, FrozenSet, Optional, Set

from repro.corpus.realizer import RealizedDocument
from repro.corpus.retrieval import SearchEngine
from repro.faultinject.points import fault_point
from repro.service.ingest.match import EntityMatcher, normalize_entity

#: Surfaces that show up in mention sets but are useless as touched
#: entities — bumping "he" would invalidate half the query space.
_PRONOUN_SURFACES = frozenset(
    {
        "he", "she", "it", "they", "him", "her", "them", "his", "hers",
        "their", "theirs", "its", "who", "whom", "which", "that", "this",
        "these", "those", "i", "we", "you", "me", "us",
    }
)

#: Channels the search engine serves.
INGEST_SOURCES = ("wikipedia", "news")


class IngestPipeline:
    """Applies documents to a live :class:`QKBflyService` deployment.

    Holds a reference to the owning service (duck-typed — only
    ``session``, ``qkbfly``, ``cache``, ``store``, ``history``,
    ``subscriptions`` and ``_rebind_after_ingest`` are used) so it can
    drive the same tiers the query path serves from.
    """

    def __init__(self, service: Any) -> None:
        self._service = service
        self._lock = threading.Lock()
        #: Write-ahead intent of an in-flight commit: set before any
        #: mutation, cleared after the acknowledgment. A crash between
        #: leaves it populated for :meth:`recover`.
        self._intent: Optional[Dict[str, Any]] = None
        self.ingested = 0
        self.updated = 0
        self.recovered = 0

    # ------------------------------------------------------------------
    # touched-entity computation

    def compute_touched(self, document: RealizedDocument) -> FrozenSet[str]:
        """The normalized entity names a document touches.

        Takes the document's (stage-cached, shared, read-only) KB
        fragment and collects every name it surfaces: linked repository
        entities (canonical name + mention surfaces), emerging
        entities, fact argument displays, and the title.
        """
        service = self._service
        fragment = service.qkbfly.document_fragment(document)
        names: Set[str] = {document.title}
        repository = service.session.entity_repository
        for entity_id, mentions in fragment.entity_mentions.items():
            if entity_id in repository:
                names.add(repository.get(entity_id).canonical_name)
            names.update(mentions)
        for emerging in fragment.emerging.values():
            names.add(emerging.display_name)
            names.update(emerging.mentions)
        for fact in fragment.facts:
            for argument in fact.arguments():
                names.add(argument.display)
        touched = set()
        for name in names:
            normalized = normalize_entity(name)
            if normalized and normalized not in _PRONOUN_SURFACES:
                touched.add(normalized)
        return frozenset(touched)

    # ------------------------------------------------------------------
    # the ingest transaction

    def ingest(self, request: Any) -> Dict[str, Any]:
        """Apply one document; returns the raw result payload.

        The service's :meth:`~repro.service.service.QKBflyService.
        ingest` wraps this in admission control and the
        :class:`~repro.service.api.IngestResult` envelope.
        """
        start = time.perf_counter()
        service = self._service
        if request.source not in INGEST_SOURCES:
            raise ValueError(
                f"unknown ingest source {request.source!r} "
                f"(expected one of {INGEST_SOURCES})"
            )
        document = RealizedDocument(
            doc_id=request.doc_id,
            title=request.title or request.doc_id,
            sentences=[request.text],
            emitted=[],
            mentions=[],
            source=request.source,
        )
        with self._lock:
            self._recover_locked()
            session = service.session
            engine = session.search_engine
            if engine is None:
                raise RuntimeError("service session has no search engine")
            table = (
                engine.wikipedia_docs
                if request.source == "wikipedia"
                else engine.news_docs
            )
            previous = table.get(request.doc_id)
            touched = set(self.compute_touched(document))
            if previous is not None and (
                (previous.text, previous.title) != (document.text, document.title)
            ):
                # An update also touches everything the old revision
                # talked about — queries anchored on entities that only
                # the old text or title mentioned must rotate too.
                touched |= self.compute_touched(previous)
            self._intent = {
                "doc_id": request.doc_id,
                "touched": frozenset(touched),
            }
            fault_point("ingest.commit", doc_id=request.doc_id)
            # -- commit: swap the engine, rebind the service, bump ----
            session.search_engine = engine.with_document(document)
            service._rebind_after_ingest()
            bumped = session.entity_versions.bump(touched)
            fault_point("ingest.invalidate", doc_id=request.doc_id)
            # -- invalidate exactly the touched slice -----------------
            invalidated = self._invalidate(touched)
            # -- acknowledge ------------------------------------------
            history = getattr(service, "history", None)
            if history is not None:
                history.record_ingest(
                    doc_id=request.doc_id,
                    source=request.source,
                    entities=sorted(touched),
                    entity_versions=dict(bumped),
                    corpus_version=session.corpus_version,
                    updated=previous is not None,
                )
            self._intent = None
            self.ingested += 1
            if previous is not None:
                self.updated += 1
            corpus_version = session.corpus_version
        # -- notify (outside the ingest lock: delivery crashes or slow
        # webhooks must neither undo nor serialize acked ingests) ------
        subscribers = service.subscriptions.notify(
            doc_id=request.doc_id,
            touched=touched,
            entity_versions=bumped,
            corpus_version=corpus_version,
        )
        deliveries = service.subscriptions.deliver_webhooks()
        return {
            "doc_id": request.doc_id,
            "source": request.source,
            "updated": previous is not None,
            "touched_entities": sorted(touched),
            "entity_versions": dict(bumped),
            "corpus_version": corpus_version,
            "invalidated": invalidated,
            "subscribers": subscribers,
            "deliveries": deliveries,
            "seconds": time.perf_counter() - start,
        }

    def refresh_engine(self, search_engine: SearchEngine) -> Dict[str, Any]:
        """Entity-granular corpus refresh: a whole replacement engine.

        ``refresh_corpus(search_engine=...)`` used to rotate the global
        corpus version and blanket-invalidate every tier; a swapped
        engine is really just a *batch* of document changes, so this
        diffs the old and new doc tables, unions the touched entities
        of every changed document (old and new revision, like an
        ingest update), and commits the swap exactly like an ingest —
        the corpus version and every unrelated warm entry survive.
        """
        service = self._service
        old_engine = service.session.search_engine
        touched: Set[str] = set()
        for channel in ("wikipedia_docs", "news_docs"):
            old_docs = getattr(old_engine, channel, None) or {}
            new_docs = getattr(search_engine, channel, None) or {}
            for doc_id in sorted(set(old_docs) | set(new_docs)):
                old_doc = old_docs.get(doc_id)
                new_doc = new_docs.get(doc_id)
                if (
                    old_doc is not None
                    and new_doc is not None
                    and old_doc.text == new_doc.text
                    and old_doc.title == new_doc.title
                ):
                    continue
                for revision in (old_doc, new_doc):
                    if revision is not None:
                        touched |= self.compute_touched(revision)
        with self._lock:
            self._recover_locked()
            service.session.search_engine = search_engine
            service._rebind_after_ingest()
            bumped = service.session.entity_versions.bump(touched)
            invalidated = self._invalidate(touched)
            history = getattr(service, "history", None)
            if history is not None:
                history.record_ingest(
                    corpus_version=service.session.corpus_version,
                    entities=sorted(touched),
                    entity_versions=dict(bumped),
                )
            corpus_version = service.session.corpus_version
        subscribers = service.subscriptions.notify(
            doc_id="corpus-refresh",
            touched=touched,
            entity_versions=bumped,
            corpus_version=corpus_version,
        )
        service.subscriptions.deliver_webhooks()
        return {
            "touched_entities": sorted(touched),
            "entity_versions": dict(bumped),
            "invalidated": invalidated,
            "subscribers": subscribers,
            "corpus_version": corpus_version,
        }

    def _invalidate(self, touched: Set[str]) -> Dict[str, int]:
        """Discard every warm entry whose query intersects ``touched``.

        All three tiers apply the same :func:`~repro.service.ingest.
        match.query_touches` rule through an
        :class:`~repro.service.ingest.match.EntityMatcher`; the store
        and fabric shards compile their own from the entity list. The
        store's delete trigger removes the matching FTS5 index rows
        inside the delete transaction.
        """
        service = self._service
        counts = {"cache": 0, "store": 0, "stage": 0}
        counts["cache"] = service.cache.invalidate_entities(touched)
        store = getattr(service, "store", None)
        if store is not None:
            counts["store"] = store.delete_for_entities(sorted(touched))
        stage_cache = service.session.stage_cache
        if stage_cache is not None:
            counts["stage"] = stage_cache.discard_tagged(
                "retrieval", EntityMatcher(touched)
            )
        return counts

    # ------------------------------------------------------------------
    # crash recovery

    def recover(self) -> bool:
        """Repair an interrupted commit; True when one was repaired.

        Idempotent redo: the write-ahead intent records the touched
        set before any mutation, so re-running the selective
        invalidation (and dropping the intent) restores the invariant
        "no warm entry predates the version vector" regardless of
        where the crash landed. Invalidating entries the crashed
        commit never made stale merely re-cools a warm slice — safe.
        """
        with self._lock:
            return self._recover_locked()

    def _recover_locked(self) -> bool:
        intent = self._intent
        if intent is None:
            return False
        self._invalidate(set(intent["touched"]))
        self._intent = None
        self.recovered += 1
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "ingested": self.ingested,
            "updated": self.updated,
            "recovered": self.recovered,
        }


__all__ = ["INGEST_SOURCES", "IngestPipeline"]
