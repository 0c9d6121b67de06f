"""Persistent on-the-fly KB store (SQLite, WAL mode).

The second tier of the serving layer: query results that fall out of the
in-memory cache (or belong to an earlier process) are answered from
disk instead of re-running the pipeline. The schema mirrors the KB
model of :mod:`repro.kb.facts`:

- ``kb_entries`` — one row per stored query result, uniquely identified
  by the full query signature (query, mode, algorithm, corpus_version,
  source, num_documents, config_digest);
- ``facts`` — one row per fact with subject, predicate, pattern,
  confidence and provenance (doc id, sentence index);
- ``fact_objects`` — ordered object slots, supporting higher-arity
  facts;
- ``emerging_entities`` / ``entity_records`` — per-entry emerging
  clusters and canonical-entity mentions/types;
- ``meta`` — store-level keys, including the ``corpus_version`` stamp
  the store was last synchronized to.

When the SQLite build has FTS5, each store additionally maintains the
fact-search index (``search_facts`` / ``fact_search`` /
``search_entities`` / ``entity_search`` — see
:mod:`repro.service.search.index` and ``docs/SEARCH.md``): saves index
the new entry inside the same transaction, and a delete-trigger keeps
the index consistent through replace-saves, compaction, and
``delete_stale`` with no hook in any delete path.

WAL journaling keeps concurrent readers cheap; all access additionally
goes through one process-wide lock per store, which SQLite's default
serialized mode does not provide across cursors.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from repro.faultinject.points import fault_point
from repro.kb.facts import Argument, EmergingEntity, Fact, KbBuilder, KnowledgeBase
from repro.service.api import SearchUnavailable
from repro.service.search.index import (
    ensure_search_schema,
    index_entry,
    integrity_check,
    rebuild_index,
)
from repro.service.search.query import search_shard

_SCHEMA_VERSION = "1"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS kb_entries (
    entry_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    query          TEXT NOT NULL,
    mode           TEXT NOT NULL,
    algorithm      TEXT NOT NULL,
    corpus_version TEXT NOT NULL,
    source         TEXT NOT NULL DEFAULT 'wikipedia',
    num_documents  INTEGER NOT NULL DEFAULT 1,
    config_digest  TEXT NOT NULL DEFAULT '',
    created_at     REAL NOT NULL,
    UNIQUE (query, mode, algorithm, corpus_version, source, num_documents,
            config_digest)
);
CREATE TABLE IF NOT EXISTS facts (
    fact_id             INTEGER PRIMARY KEY AUTOINCREMENT,
    entry_id            INTEGER NOT NULL
                        REFERENCES kb_entries(entry_id) ON DELETE CASCADE,
    position            INTEGER NOT NULL,
    subject_kind        TEXT NOT NULL,
    subject_value       TEXT NOT NULL,
    subject_display     TEXT NOT NULL,
    predicate           TEXT NOT NULL,
    pattern             TEXT NOT NULL,
    confidence          REAL NOT NULL,
    canonical_predicate INTEGER NOT NULL,
    doc_id              TEXT NOT NULL,
    sentence_index      INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_facts_entry ON facts(entry_id, position);
CREATE TABLE IF NOT EXISTS fact_objects (
    fact_id  INTEGER NOT NULL REFERENCES facts(fact_id) ON DELETE CASCADE,
    position INTEGER NOT NULL,
    kind     TEXT NOT NULL,
    value    TEXT NOT NULL,
    display  TEXT NOT NULL,
    PRIMARY KEY (fact_id, position)
);
CREATE TABLE IF NOT EXISTS emerging_entities (
    entry_id     INTEGER NOT NULL
                 REFERENCES kb_entries(entry_id) ON DELETE CASCADE,
    cluster_id   TEXT NOT NULL,
    display_name TEXT NOT NULL,
    guessed_type TEXT NOT NULL,
    mentions     TEXT NOT NULL,
    PRIMARY KEY (entry_id, cluster_id)
);
CREATE TABLE IF NOT EXISTS entity_records (
    entry_id  INTEGER NOT NULL
              REFERENCES kb_entries(entry_id) ON DELETE CASCADE,
    entity_id TEXT NOT NULL,
    mentions  TEXT NOT NULL,
    types     TEXT,
    PRIMARY KEY (entry_id, entity_id)
);
"""


@dataclass(frozen=True)
class EntrySignature:
    """Full identity of one stored entry plus its creation stamp.

    Everything needed to re-derive the entry's cache key (and therefore
    to warm the in-memory cache from the store) or to re-save the entry
    into another store (shard migration/rebalancing). Its wire form is
    also the request key of every keyed fabric op; a key that names no
    stored row yet (a load, a save stamped by the store) carries
    ``created_at=None``.
    """

    query: str
    mode: str
    algorithm: str
    corpus_version: str
    source: str
    num_documents: int
    config_digest: str
    created_at: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict wire form (the fabric protocol ships these)."""
        return {
            "query": self.query,
            "mode": self.mode,
            "algorithm": self.algorithm,
            "corpus_version": self.corpus_version,
            "source": self.source,
            "num_documents": self.num_documents,
            "config_digest": self.config_digest,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EntrySignature":
        """Inverse of :meth:`to_dict`."""
        return cls(
            query=str(data["query"]),
            mode=str(data["mode"]),
            algorithm=str(data["algorithm"]),
            corpus_version=str(data["corpus_version"]),
            source=str(data["source"]),
            num_documents=int(data["num_documents"]),
            config_digest=str(data["config_digest"]),
            created_at=(
                None
                if data.get("created_at") is None
                else float(data["created_at"])
            ),
        )


def load_signature(store, sig: EntrySignature) -> Optional[KnowledgeBase]:
    """Load the KB behind ``sig`` from any store-shaped object (a
    shard, a routed or a remote store); None when the entry is gone."""
    return store.load(
        sig.query,
        corpus_version=sig.corpus_version,
        mode=sig.mode,
        algorithm=sig.algorithm,
        source=sig.source,
        num_documents=sig.num_documents,
        config_digest=sig.config_digest,
    )


class KbBackend(Protocol):
    """The store surface of one shard backend.

    Exactly the operations that :class:`~repro.service.sharding.
    ShardedKbStore`, the service and the search fan-out call on a
    backend. :class:`KbStore` and the fabric's ``RemoteKbStore`` and
    ``ReplicatedShardClient`` implement it; ``ShardedKbStore`` routes
    over it and offers the service the same surface minus the per-shard
    ``delete_signatures`` and ``search_*`` ops. The fabric's op table
    (:data:`repro.service.fabric.protocol.OPS`) binds its wire calls
    against these signatures, so their defaults apply in one place.
    """

    @property
    def corpus_version(self) -> str:
        """The corpus stamp the store was last synchronized to."""
        ...

    def set_corpus_version(self, version: str) -> None:
        """Record the corpus stamp entries are being written under."""
        ...

    def save(
        self,
        query: str,
        kb: KnowledgeBase,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
        created_at: Optional[float] = None,
        replace: bool = True,
    ) -> int:
        """Persist a query result; returns the entry id."""
        ...

    def load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Optional[KnowledgeBase]:
        """Reconstruct a stored KB, or None when the key is absent."""
        ...

    def try_load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Tuple[bool, Optional[KnowledgeBase]]:
        """Non-blocking load: ``(attempted, kb)``."""
        ...

    def signatures(
        self,
        corpus_version: Optional[str] = None,
        mode: Optional[str] = None,
        algorithm: Optional[str] = None,
        config_digest: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[EntrySignature]:
        """Stored entry signatures, newest first, optionally filtered."""
        ...

    def delete_signatures(self, signatures: Iterable[EntrySignature]) -> int:
        """Drop the entries with these keys; returns the count."""
        ...

    def delete_stale(self, current_version: str) -> int:
        """Drop entries from other corpus versions; returns the count."""
        ...

    def delete_for_entities(self, entities: Iterable[str]) -> int:
        """Drop entries whose query touches one of ``entities``."""
        ...

    def compact(
        self,
        max_age_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """TTL and size compaction; returns the removed count."""
        ...

    def entry_count(self) -> int:
        """Number of stored entries."""
        ...

    def stats(self) -> Dict[str, int]:
        """Row counts per table."""
        ...

    def search_facts(self, params: Dict) -> List[Dict]:
        """One shard's slice of a paginated fact search."""
        ...

    def search_entities(self, params: Dict) -> List[Dict]:
        """One shard's slice of a paginated entity search."""
        ...

    def close(self) -> None:
        """Release the backend's connections."""
        ...


class KbStore:
    """SQLite-backed persistence for served query results; implements
    :class:`KbBackend`.

    Args:
        path: Database file path, or ``":memory:"`` for an ephemeral
            store (tests, benchmarks).
    """

    #: False on SQLite builds without FTS5: saves skip indexing and
    #: searches raise :class:`~repro.service.api.SearchUnavailable`.
    search_available: bool

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.executescript(_SCHEMA)
        self.search_available = ensure_search_schema(self._conn)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", _SCHEMA_VERSION),
        )
        self._conn.commit()

    # ---- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "KbStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---- meta --------------------------------------------------------------

    @property
    def corpus_version(self) -> str:
        """The corpus stamp the store was last synchronized to."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'corpus_version'"
            ).fetchone()
            return row[0] if row else ""

    def set_corpus_version(self, version: str) -> None:
        """Record the corpus stamp entries are being written under."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('corpus_version', ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (version,),
            )
            self._conn.commit()

    # ---- save / load -------------------------------------------------------

    def save(
        self,
        query: str,
        kb: KnowledgeBase,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
        created_at: Optional[float] = None,
        replace: bool = True,
    ) -> int:
        """Persist a query result, replacing any previous row for the key.

        Atomic: a failure mid-write rolls the whole entry back, so a
        later ``load`` can never see a truncated KB. ``created_at``
        defaults to now; migration and rebalancing pass the original
        stamp through so compaction ages entries by first creation, not
        by their last move between shards. With ``replace=False`` an
        existing row for the key wins and its entry id is returned
        unchanged — the online-rebalance mover uses this create-only
        mode so a streamed copy can never clobber a newer double-written
        entry (the existence check and the insert run under one lock,
        so the race has no window). Returns the entry id.
        """
        with self._lock:
            try:
                if not replace:
                    row = self._conn.execute(
                        "SELECT entry_id FROM kb_entries WHERE query = ? "
                        "AND mode = ? AND algorithm = ? AND "
                        "corpus_version = ? AND source = ? AND "
                        "num_documents = ? AND config_digest = ?",
                        (
                            query, mode, algorithm, corpus_version, source,
                            num_documents, config_digest,
                        ),
                    ).fetchone()
                    if row is not None:
                        return int(row[0])
                return self._save_locked(
                    query, kb, corpus_version, mode, algorithm, source,
                    num_documents, config_digest, created_at,
                )
            except BaseException:
                # BaseException, not Exception: a KeyboardInterrupt (or
                # an injected SimulatedCrash) mid-write must not leave
                # the transaction open on this shared connection, where
                # the torn rows would ride out with the next commit.
                self._conn.rollback()
                raise

    def _save_locked(
        self,
        query: str,
        kb: KnowledgeBase,
        corpus_version: str,
        mode: str,
        algorithm: str,
        source: str,
        num_documents: int,
        config_digest: str,
        created_at: Optional[float],
    ) -> int:
        cur = self._conn.cursor()
        cur.execute(
            "DELETE FROM kb_entries WHERE query = ? AND mode = ? AND "
            "algorithm = ? AND corpus_version = ? AND source = ? AND "
            "num_documents = ? AND config_digest = ?",
            (
                query, mode, algorithm, corpus_version, source,
                num_documents, config_digest,
            ),
        )
        cur.execute(
            "INSERT INTO kb_entries (query, mode, algorithm, "
            "corpus_version, source, num_documents, config_digest, "
            "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                query,
                mode,
                algorithm,
                corpus_version,
                source,
                num_documents,
                config_digest,
                created_at if created_at is not None else time.time(),
            ),
        )
        entry_id = cur.lastrowid
        fault_point("kb_store.save.mid_entry")
        for position, fact in enumerate(kb.facts):
            cur.execute(
                "INSERT INTO facts (entry_id, position, subject_kind, "
                "subject_value, subject_display, predicate, pattern, "
                "confidence, canonical_predicate, doc_id, sentence_index) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    entry_id,
                    position,
                    fact.subject.kind,
                    fact.subject.value,
                    fact.subject.display,
                    fact.predicate,
                    fact.pattern,
                    fact.confidence,
                    int(fact.canonical_predicate),
                    fact.doc_id,
                    fact.sentence_index,
                ),
            )
            fact_id = cur.lastrowid
            cur.executemany(
                "INSERT INTO fact_objects (fact_id, position, kind, "
                "value, display) VALUES (?, ?, ?, ?, ?)",
                [
                    (fact_id, i, obj.kind, obj.value, obj.display)
                    for i, obj in enumerate(fact.objects)
                ],
            )
        cur.executemany(
            "INSERT INTO emerging_entities (entry_id, cluster_id, "
            "display_name, guessed_type, mentions) VALUES (?, ?, ?, ?, ?)",
            [
                (
                    entry_id,
                    emerging.cluster_id,
                    emerging.display_name,
                    emerging.guessed_type,
                    json.dumps(list(emerging.mentions)),
                )
                for emerging in kb.emerging.values()
            ],
        )
        entity_ids = sorted(
            set(kb.entity_mentions) | set(kb.entity_types)
        )
        cur.executemany(
            "INSERT INTO entity_records (entry_id, entity_id, mentions, "
            "types) VALUES (?, ?, ?, ?)",
            [
                (
                    entry_id,
                    entity_id,
                    json.dumps(sorted(kb.entity_mentions.get(entity_id, ()))),
                    # NULL distinguishes "no types recorded" from an
                    # explicit empty type list, keeping round-trips exact.
                    json.dumps(list(kb.entity_types[entity_id]))
                    if entity_id in kb.entity_types
                    else None,
                )
                for entity_id in entity_ids
            ],
        )
        if self.search_available:
            # Inside the save transaction: a crash here rolls the entry
            # and its index rows back together, so the FTS index can
            # never reference a fact the store does not hold (or miss
            # one it does).
            fault_point(
                "search.index.update", entry_id=entry_id, path=self.path
            )
            index_entry(self._conn, entry_id)
        fault_point("kb_store.save.pre_commit")
        self._conn.commit()
        return int(entry_id)

    def load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Optional[KnowledgeBase]:
        """Reconstruct a stored KB, or None when the key is absent."""
        with self._lock:
            return self._load_locked(
                query, corpus_version, mode, algorithm, source,
                num_documents, config_digest,
            )

    def try_load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Tuple[bool, Optional[KnowledgeBase]]:
        """Event-loop-safe :meth:`load`: never blocks on the store lock.

        Returns ``(attempted, kb)``. ``attempted`` is False when the
        lock was held by another thread (a writer mid-save, a
        compaction) — the lookup was *not* performed and the caller
        should fall back to the blocking path off the loop. With
        ``attempted`` True, ``kb`` is the stored KB or None for a clean
        miss. The asyncio front end uses this to answer store hits
        directly on the event loop without ever stalling behind a slow
        writer.
        """
        if not self._lock.acquire(blocking=False):
            return False, None
        try:
            return True, self._load_locked(
                query, corpus_version, mode, algorithm, source,
                num_documents, config_digest,
            )
        finally:
            self._lock.release()

    def _load_locked(
        self,
        query: str,
        corpus_version: str,
        mode: str,
        algorithm: str,
        source: str,
        num_documents: int,
        config_digest: str,
    ) -> Optional[KnowledgeBase]:
        row = self._conn.execute(
            "SELECT entry_id FROM kb_entries WHERE query = ? AND "
            "mode = ? AND algorithm = ? AND corpus_version = ? AND "
            "source = ? AND num_documents = ? AND config_digest = ?",
            (
                query, mode, algorithm, corpus_version, source,
                num_documents, config_digest,
            ),
        ).fetchone()
        if row is None:
            return None
        return self._load_entry(row[0])

    def _load_entry(self, entry_id: int) -> KnowledgeBase:
        kb = KbBuilder()
        fact_rows = self._conn.execute(
            "SELECT fact_id, subject_kind, subject_value, subject_display, "
            "predicate, pattern, confidence, canonical_predicate, doc_id, "
            "sentence_index FROM facts WHERE entry_id = ? ORDER BY position",
            (entry_id,),
        ).fetchall()
        # All object slots for the entry in one round-trip (avoids one
        # query per fact on the serving hot path).
        objects_by_fact: Dict[int, List[Argument]] = {}
        for fact_id, kind, value, display in self._conn.execute(
            "SELECT o.fact_id, o.kind, o.value, o.display "
            "FROM fact_objects o JOIN facts f ON f.fact_id = o.fact_id "
            "WHERE f.entry_id = ? ORDER BY o.fact_id, o.position",
            (entry_id,),
        ):
            objects_by_fact.setdefault(fact_id, []).append(
                Argument(kind=kind, value=value, display=display)
            )
        for (
            fact_id,
            subject_kind,
            subject_value,
            subject_display,
            predicate,
            pattern,
            confidence,
            canonical_predicate,
            doc_id,
            sentence_index,
        ) in fact_rows:
            objects = objects_by_fact.get(fact_id, [])
            kb.add_fact(
                Fact(
                    subject=Argument(
                        kind=subject_kind,
                        value=subject_value,
                        display=subject_display,
                    ),
                    predicate=predicate,
                    objects=objects,
                    pattern=pattern,
                    confidence=confidence,
                    doc_id=doc_id,
                    sentence_index=sentence_index,
                    canonical_predicate=bool(canonical_predicate),
                )
            )
        for cluster_id, display_name, guessed_type, mentions in (
            self._conn.execute(
                "SELECT cluster_id, display_name, guessed_type, mentions "
                "FROM emerging_entities WHERE entry_id = ?",
                (entry_id,),
            )
        ):
            kb.add_emerging(
                EmergingEntity(
                    cluster_id=cluster_id,
                    display_name=display_name,
                    mentions=json.loads(mentions),
                    guessed_type=guessed_type,
                )
            )
        for entity_id, mentions, types in self._conn.execute(
            "SELECT entity_id, mentions, types FROM entity_records "
            "WHERE entry_id = ?",
            (entry_id,),
        ):
            for mention in json.loads(mentions):
                kb.observe_mention(entity_id, mention)
            if types is not None:
                kb.set_entity_types(entity_id, json.loads(types))
        return kb.build()

    # ---- fact search -------------------------------------------------------

    def search_facts(self, params: Dict) -> List[Dict]:
        """One shard's slice of a paginated fact search.

        ``params`` is the JSON-safe request dict built by
        :func:`repro.service.search.query.search_paginated` (filters,
        sort, decoded cursor, global-id stride/offset) — the same dict
        the fabric ships to shard servers. Raises
        :class:`~repro.service.api.SearchUnavailable` when this SQLite
        build lacks FTS5.
        """
        return self._search_shard(dict(params, kind="facts"))

    def search_entities(self, params: Dict) -> List[Dict]:
        """One shard's slice of a paginated entity search."""
        return self._search_shard(dict(params, kind="entities"))

    def _search_shard(self, params: Dict) -> List[Dict]:
        fault_point(
            "search.read.page", path=self.path, kind=params.get("kind")
        )
        with self._lock:
            if not self.search_available:
                raise SearchUnavailable(
                    "fact search is unavailable: this SQLite build has "
                    "no FTS5 extension"
                )
            return search_shard(self._conn, params)

    def rebuild_search_index(self) -> Tuple[int, int]:
        """Rebuild this shard's search index from the relational tables.

        The offline recovery path (``docs/SEARCH.md``): wipes and
        re-derives every ``search_*`` row. Returns the re-indexed
        ``(fact_rows, entity_rows)`` counts.
        """
        with self._lock:
            if not self.search_available:
                raise SearchUnavailable(
                    "fact search is unavailable: this SQLite build has "
                    "no FTS5 extension"
                )
            try:
                counts = rebuild_index(self._conn)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            return counts

    def search_integrity(self) -> Dict:
        """FTS-vs-relational consistency report (fault-injection tests)."""
        with self._lock:
            if not self.search_available:
                return {"consistent": True, "search_available": False}
            report = integrity_check(self._conn)
            # integrity-check is a read-only FTS command issued via
            # INSERT syntax; end the implicit transaction it opened.
            self._conn.rollback()
            report["search_available"] = True
            return report

    # ---- maintenance -------------------------------------------------------

    def signatures(
        self,
        corpus_version: Optional[str] = None,
        mode: Optional[str] = None,
        algorithm: Optional[str] = None,
        config_digest: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[EntrySignature]:
        """Stored entry signatures, newest first, optionally filtered.

        The warm-up path refills the in-memory cache from this on
        service start; migration/rebalancing iterates the unfiltered
        listing to re-route entries. The filters and ``limit`` run in
        SQL so a warm-up over a huge store reads O(limit) rows, not the
        whole table. ``None`` means "no filter" (an empty string is a
        real ``config_digest`` value).
        """
        clauses: List[str] = []
        params: List = []
        for column, value in (
            ("corpus_version", corpus_version),
            ("mode", mode),
            ("algorithm", algorithm),
            ("config_digest", config_digest),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = (
            "SELECT query, mode, algorithm, corpus_version, source, "
            "num_documents, config_digest, created_at FROM kb_entries"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, entry_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(max(0, int(limit)))
        with self._lock:
            return [
                EntrySignature(
                    query=row[0],
                    mode=row[1],
                    algorithm=row[2],
                    corpus_version=row[3],
                    source=row[4],
                    num_documents=int(row[5]),
                    config_digest=row[6],
                    created_at=float(row[7]),
                )
                for row in self._conn.execute(sql, params)
            ]

    def delete_signatures(self, signatures: Iterable[EntrySignature]) -> int:
        """Drop the entries with these keys (facts etc. cascade;
        ``created_at`` is ignored); returns the count.

        Keyed, not by entry id: ids are autoincrement values private to
        one shard file, so a replica that missed a write numbers its
        rows differently from its primary.
        """
        keys = [
            (
                sig.query, sig.mode, sig.algorithm, sig.corpus_version,
                sig.source, sig.num_documents, sig.config_digest,
            )
            for sig in signatures
        ]
        if not keys:
            return 0
        with self._lock:
            try:
                cur = self._conn.executemany(
                    "DELETE FROM kb_entries WHERE query = ? AND mode = ? "
                    "AND algorithm = ? AND corpus_version = ? AND "
                    "source = ? AND num_documents = ? AND "
                    "config_digest = ?",
                    keys,
                )
                self._conn.commit()
                return cur.rowcount
            except BaseException:
                self._conn.rollback()
                raise

    def compact(
        self,
        max_age_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Reclaim space for long-running deployments; returns removed count.

        Two independent policies, applied in order:

        - ``max_age_seconds`` — drop entries created more than this many
          seconds before ``now`` (TTL);
        - ``max_entries`` — then keep only the newest N entries.

        Both default to "no limit". ``now`` is injectable for tests.
        """
        removed = 0
        with self._lock:
            try:
                if max_age_seconds is not None:
                    cutoff = (
                        now if now is not None else time.time()
                    ) - max_age_seconds
                    cur = self._conn.execute(
                        "DELETE FROM kb_entries WHERE created_at < ?",
                        (cutoff,),
                    )
                    removed += cur.rowcount
                fault_point("kb_store.compact.mid")
                if max_entries is not None:
                    cur = self._conn.execute(
                        "DELETE FROM kb_entries WHERE entry_id NOT IN ("
                        "SELECT entry_id FROM kb_entries "
                        "ORDER BY created_at DESC, entry_id DESC LIMIT ?)",
                        (max(0, int(max_entries)),),
                    )
                    removed += cur.rowcount
                self._conn.commit()
            except BaseException:
                # Same shared-connection contract as save(): an
                # interrupt between the two delete passes must not
                # leave half a compaction pending for the next commit.
                self._conn.rollback()
                raise
        return removed

    def delete_stale(self, current_version: str) -> int:
        """Drop entries from corpus versions other than ``current_version``.

        Returns the number of entries removed. Called when the corpus
        advances, mirroring the in-memory cache invalidation.
        """
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM kb_entries WHERE corpus_version != ?",
                (current_version,),
            )
            self._conn.commit()
            return cur.rowcount

    def delete_for_entities(self, entities: Iterable[str]) -> int:
        """Drop every entry whose stored query touches one of
        ``entities`` — the store tier of entity-granular invalidation.

        The match runs on the ``kb_entries.query`` column (the
        normalized query text) through an
        :class:`~repro.service.ingest.match.EntityMatcher`, with the
        same :func:`repro.service.ingest.match.query_touches` rule the
        query cache and stage cache apply, so all tiers cool the same
        slice. All matched rows go in one transaction — facts
        cascade and the delete trigger removes the FTS5 index rows
        with them — with the save-path's BaseException rollback
        contract, so an interrupt mid-delete leaves entries and search
        index intact together. Returns the number of entries removed.
        """
        from repro.service.ingest.match import EntityMatcher

        touches = EntityMatcher(entities)
        if not touches:
            return 0
        with self._lock:
            doomed = [
                (int(entry_id),)
                for entry_id, query in self._conn.execute(
                    "SELECT entry_id, query FROM kb_entries"
                )
                if touches(query)
            ]
            if not doomed:
                return 0
            try:
                cur = self._conn.executemany(
                    "DELETE FROM kb_entries WHERE entry_id = ?", doomed
                )
                self._conn.commit()
                return cur.rowcount
            except BaseException:
                self._conn.rollback()
                raise

    def entry_count(self) -> int:
        """Number of stored entries — one indexed count, no table scan
        of the fact tables (the fabric health/rebalance probes poll
        this, so it must stay cheap)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM kb_entries"
            ).fetchone()
            return int(row[0])

    def stats(self) -> Dict[str, int]:
        """Row counts per table, for monitoring."""
        with self._lock:
            out: Dict[str, int] = {}
            for table in (
                "kb_entries",
                "facts",
                "fact_objects",
                "emerging_entities",
                "entity_records",
            ):
                row = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()
                out[table] = int(row[0])
            if self.search_available:
                for table in ("search_facts", "search_entities"):
                    row = self._conn.execute(
                        f"SELECT COUNT(*) FROM {table}"
                    ).fetchone()
                    out[table] = int(row[0])
            return out


__all__ = ["EntrySignature", "KbBackend", "KbStore", "load_signature"]
