"""LRU query cache for the serving layer.

Repeated queries dominate real traffic, and QKBfly's per-query pipeline
(retrieval -> NLP -> semantic graph -> densification -> canonicalization)
is the expensive part — so the serving layer answers repeats from an
in-memory cache. Entries are keyed on the *query signature*: the
normalized query text, the retrieval channel and document count, the
system variant (mode, algorithm) and the ``corpus_version`` stamp of the
session. Any corpus change yields a new version and therefore a clean
miss; stale entries are evicted lazily and via
:meth:`QueryCache.invalidate_corpus_version`.

Eviction is least-recently-used with an optional wall-clock TTL. The
cache is thread-safe: the batch executor's worker threads share one
instance — and its critical sections are microsecond-scale, which is
what lets the asyncio front end probe it directly on the event loop.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional


def normalize_query(query: str) -> str:
    """Case-fold and collapse whitespace so trivial variants share a key."""
    return " ".join(query.lower().split())


@dataclass(frozen=True)
class CacheKey:
    """Identity of a cacheable query result.

    Two requests share a key exactly when the serving layer would
    produce byte-identical KBs for them: same normalized query, same
    retrieval inputs, same system variant, same corpus snapshot.
    ``config_digest`` covers the remaining result-shaping pipeline
    knobs beyond mode/algorithm (parser, tau, triples_only, weights,
    ILP budget) so a persistent store is never read across configs.
    """

    query: str
    mode: str
    algorithm: str
    corpus_version: str
    source: str = "wikipedia"
    num_documents: int = 1
    config_digest: str = ""

    @classmethod
    def for_request(
        cls,
        query: str,
        mode: str,
        algorithm: str,
        corpus_version: str,
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> "CacheKey":
        """Build a key from a raw request, normalizing the query text."""
        return cls(
            query=normalize_query(query),
            mode=mode,
            algorithm=algorithm,
            corpus_version=corpus_version,
            source=source,
            num_documents=num_documents,
            config_digest=config_digest,
        )

    def signature(self) -> str:
        """Stable hex signature over every key field.

        This is the ``request_key`` of the v1 envelope: the same
        identity the cache and store key on, in a form that survives
        the wire (unlike the builtin ``hash``, it is stable across
        processes and Python versions).
        """
        payload = "\x1f".join(
            (
                self.query,
                self.mode,
                self.algorithm,
                self.corpus_version,
                self.source,
                str(self.num_documents),
                self.config_digest,
            )
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


class QueryCache:
    """Thread-safe LRU cache with TTL and corpus-version invalidation.

    Args:
        max_size: Entry count ceiling; the least recently used entry is
            evicted when a put would exceed it.
        ttl_seconds: Optional time-to-live; entries older than this are
            treated as misses and dropped.
        clock: Injectable time source (monotonic seconds) for tests.
    """

    def __init__(
        self,
        max_size: int = 256,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._inserted_at: Dict[CacheKey, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries and not self._expired(key)

    def get(self, key: CacheKey, count: bool = True) -> Optional[Any]:
        """Return the cached value, refreshing recency; None on a miss.

        ``count=False`` performs the same lookup without touching the
        hit/miss counters — for double-check lookups whose outcome was
        already counted once (the executor re-checks after queueing).
        """
        with self._lock:
            if key not in self._entries:
                if count:
                    self.misses += 1
                return None
            if self._expired(key):
                del self._entries[key]
                del self._inserted_at[key]
                self.expirations += 1
                if count:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            if count:
                self.hits += 1
            return self._entries[key]

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past ``max_size``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self._inserted_at[key] = self._clock()
            while len(self._entries) > self.max_size:
                evicted, _ = self._entries.popitem(last=False)
                del self._inserted_at[evicted]
                self.evictions += 1

    def invalidate_corpus_version(self, current_version: str) -> int:
        """Drop every entry stamped with a different corpus version.

        Called when the corpus advances; returns the number of entries
        removed.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.corpus_version != current_version
            ]
            for key in stale:
                del self._entries[key]
                del self._inserted_at[key]
            self.invalidations += len(stale)
            return len(stale)

    def invalidate_entities(self, entities) -> int:
        """Drop every entry whose normalized query touches one of
        ``entities`` (the entity-granular twin of
        :meth:`invalidate_corpus_version`, used by live ingest).

        Applies :func:`repro.service.ingest.match.query_touches`
        through an :class:`~repro.service.ingest.match.EntityMatcher`
        — the same rule the KB store and stage cache apply — so one
        ingest cools exactly the same query slice in every tier.
        Returns the number of entries removed.
        """
        from repro.service.ingest.match import EntityMatcher

        touches = EntityMatcher(entities)
        if not touches:
            return 0
        with self._lock:
            stale = [key for key in self._entries if touches(key.query)]
            for key in stale:
                del self._entries[key]
                del self._inserted_at[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Remove all entries (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._inserted_at.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Snapshot of the cache counters for monitoring/benchmarks."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "hit_rate": self.hit_rate,
            }

    def _expired(self, key: CacheKey) -> bool:
        if self.ttl_seconds is None:
            return False
        return self._clock() - self._inserted_at[key] > self.ttl_seconds


__all__ = ["CacheKey", "QueryCache", "normalize_query"]
