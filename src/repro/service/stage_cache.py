"""Content-addressed caching of individual pipeline stages.

The query cache (:mod:`repro.service.cache`) only helps *exact*
repeats: "Barack Obama spouse" and "Barack Obama children" are
different queries, so each pays a full pipeline run — even though both
retrieve the same document, annotate the same sentences, and extract
the same clauses. The stage cache closes that gap by caching the
pipeline's *intermediate products* under content-addressed signatures
(see ``docs/PIPELINE.md`` for the full stage map):

- **retrieval** — the ranked document ids for a normalized query, keyed
  on the corpus version (any corpus change starts a clean slate);
- **nlp** — the annotated :class:`~repro.nlp.tokens.Document` for one
  raw document, keyed on the document's *content* (id, title, text)
  plus the annotation configuration (parser + entity-repository
  fingerprint, which covers the NER gazetteer). Deliberately *not*
  keyed on the corpus version: a corpus bump that leaves a document's
  text unchanged leaves its annotation reusable;
- **extract** — the per-sentence ClausIE clause lists, keyed on the
  extractor version and the upstream NLP signature;
- **fragment** — the :class:`~repro.kb.facts.KnowledgeBase` that
  semantic graph → densification → canonicalization build from one
  document, keyed on the upstream extract signature plus everything
  else those stages read: mode, algorithm,
  :meth:`QKBflyConfig.digest() <repro.core.qkbfly.QKBflyConfig.digest>`
  and the pattern-repository and statistics fingerprints. The unit is
  *one document × one config*: a query's answer is the ordered merge of
  its documents' fragments, so two configs sharing a session never
  cross-serve, and a fragment is built once however many queries
  retrieve its document. (``algorithm="ilp"`` is never cached: the
  solver stops on a wall-clock budget.)

Each signature chains the stage name, the stage's configuration
digest, and the upstream signature
(:func:`stage_signature`), so a change anywhere upstream changes every
downstream key — stale intermediates are unreachable by construction,
and invalidation is garbage collection (LRU/TTL/byte pressure), not
correctness.

With annotation and extraction cached, the graph stages are 58 % of a
cold build and NLP 28 % (``benchmarks/e2e``, traced), which is why the
fragment — not just the annotation — is cached.

Cached values are shared across queries and across the worker threads
of one deployment, so consumers must treat them as **read-only** —
the same contract the shared :class:`~repro.core.qkbfly.SessionState`
already imposes (and the cross-query parity tests verify). For
fragments that holds by construction: a
:class:`~repro.kb.facts.KnowledgeBase` is an immutable value, and
:meth:`KnowledgeBase.merge <repro.kb.facts.KnowledgeBase.merge>` shares
the rows it adopts.

A :class:`StageCache` itself is not pickled (its entries may be large
and are process-local); :meth:`StageCache.spec` captures its *policy*
as a small frozen :class:`StageCacheSpec`, which is what a pickled
session ships so process-pool workers rebuild their own empty cache
with identical limits.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: The cacheable stages, in dataflow order.
STAGE_RETRIEVAL = "retrieval"
STAGE_NLP = "nlp"
STAGE_EXTRACT = "extract"
STAGE_FRAGMENT = "fragment"
STAGES = (STAGE_RETRIEVAL, STAGE_NLP, STAGE_EXTRACT, STAGE_FRAGMENT)

#: Default per-stage entry ceiling (documents are the unit for the
#: nlp/extract stages, document × config for fragment, queries for
#: retrieval).
DEFAULT_STAGE_ENTRIES = 512

#: Default per-stage byte budget (64 MiB). Annotated documents are the
#: heavyweight values; retrieval entries are a few dozen bytes.
DEFAULT_STAGE_BYTES = 64 * 1024 * 1024


def stage_signature(stage: str, *parts: str) -> str:
    """The content-addressed signature of one stage product.

    A stable SHA-1 over the stage name and its input parts (stage
    configuration digest, upstream signature, corpus version where
    applicable), ``\\x1f``-joined like
    :meth:`repro.service.cache.CacheKey.signature` so no part can
    collide into its neighbor. 16 hex chars, stable across processes
    and Python versions.
    """
    payload = "\x1f".join((stage,) + parts)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def normalized_query_text(query: str) -> str:
    """Case-fold and collapse whitespace (the retrieval-stage twin of
    :func:`repro.service.cache.normalize_query`, duplicated here so the
    stage layer stays import-cycle-free from the serving layer)."""
    return " ".join(query.lower().split())


@dataclass(frozen=True)
class StagePolicy:
    """Eviction policy of one stage's namespace.

    Args:
        max_entries: Entry-count ceiling; LRU eviction past it.
        ttl_seconds: Optional wall-clock time-to-live; expired entries
            are dropped lazily on lookup (None: no expiry).
        max_bytes: Optional byte budget for the stage (estimated via
            pickle size); LRU eviction past it, and a single value
            larger than the whole budget is never stored (None: no
            byte bound).
    """

    max_entries: int = DEFAULT_STAGE_ENTRIES
    ttl_seconds: Optional[float] = None
    max_bytes: Optional[int] = DEFAULT_STAGE_BYTES

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")


@dataclass(frozen=True)
class StageCacheSpec:
    """The picklable identity of a :class:`StageCache`: its policies,
    not its entries. ``SessionState.__getstate__`` swaps the live cache
    for its spec; ``__setstate__`` calls :meth:`build` so every
    process-pool worker starts with an empty cache under the same
    limits."""

    policy: StagePolicy = StagePolicy()
    overrides: Tuple[Tuple[str, StagePolicy], ...] = ()

    def build(self) -> "StageCache":
        """A fresh, empty cache with this spec's policies."""
        return StageCache(
            policy=self.policy, overrides=dict(self.overrides)
        )


class _StageShard:
    """One stage's namespace: an LRU table plus its counters."""

    __slots__ = (
        "policy",
        "entries",
        "inserted_at",
        "sizes",
        "tags",
        "total_bytes",
        "hits",
        "misses",
        "puts",
        "evictions",
        "expirations",
        "rejected",
        "unpicklable",
        "discarded",
    )

    def __init__(self, policy: StagePolicy) -> None:
        self.policy = policy
        self.entries: "OrderedDict[str, Any]" = OrderedDict()
        self.inserted_at: Dict[str, float] = {}
        self.sizes: Dict[str, int] = {}
        self.tags: Dict[str, str] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.expirations = 0
        self.rejected = 0
        self.unpicklable = 0
        self.discarded = 0


class StageCache:
    """Thread-safe per-stage LRU+TTL cache with byte budgets.

    One instance is shared by every pipeline consumer of a deployment
    (it is installed on the :class:`~repro.core.qkbfly.SessionState`),
    so all operations take one lock; the critical sections are dict
    operations plus an occasional eviction sweep, microsecond-scale.

    Args:
        policy: Default :class:`StagePolicy` for every stage.
        overrides: Optional per-stage policy map (stage name →
            :class:`StagePolicy`), e.g. a small TTL for ``retrieval``
            with a large byte budget for ``nlp``.
        clock: Injectable monotonic time source for tests.
    """

    def __init__(
        self,
        policy: Optional[StagePolicy] = None,
        overrides: Optional[Mapping[str, StagePolicy]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._policy = policy or StagePolicy()
        self._overrides = dict(overrides or {})
        self._clock = clock
        self._lock = threading.RLock()
        self._shards: Dict[str, _StageShard] = {}

    # ---- identity ----------------------------------------------------------

    def spec(self) -> StageCacheSpec:
        """The picklable policy-only identity of this cache."""
        return StageCacheSpec(
            policy=self._policy,
            overrides=tuple(sorted(self._overrides.items())),
        )

    def policy_for(self, stage: str) -> StagePolicy:
        """The effective policy of ``stage`` (override or default)."""
        return self._overrides.get(stage, self._policy)

    # ---- lookup ------------------------------------------------------------

    def get(self, stage: str, signature: str) -> Optional[Any]:
        """The cached product for ``signature``, or None on a miss.

        A hit refreshes recency; an expired entry counts as both an
        expiration and a miss (and is dropped). The returned value is
        shared — callers must not mutate it.
        """
        with self._lock:
            shard = self._shards.get(stage)
            if shard is None or signature not in shard.entries:
                if shard is None:
                    shard = self._shard(stage)
                shard.misses += 1
                return None
            ttl = shard.policy.ttl_seconds
            if ttl is not None and (
                self._clock() - shard.inserted_at[signature] > ttl
            ):
                self._drop(shard, signature)
                shard.expirations += 1
                shard.misses += 1
                return None
            shard.entries.move_to_end(signature)
            shard.hits += 1
            return shard.entries[signature]

    def put(
        self,
        stage: str,
        signature: str,
        value: Any,
        size_bytes: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> None:
        """Insert (or refresh) one stage product.

        ``size_bytes`` overrides the pickle-based size estimate (used
        by tests and by callers that already know the payload size). A
        value larger than the stage's whole byte budget is rejected
        rather than flushing everything else.

        ``tag`` attaches an opaque selector (the retrieval stage tags
        entries with their normalized query text) that
        :meth:`discard_tagged` can match on — content addressing
        already makes superseded entries unreachable; tags let the
        entity-granular ingest path *reclaim* exactly the slice an
        ingest made unreachable.
        """
        if size_bytes is None:
            size_bytes = _estimate_size(value)
        with self._lock:
            shard = self._shard(stage)
            budget = shard.policy.max_bytes
            if size_bytes is None:
                # Unpicklable: no honest size estimate exists, and a
                # guessed one (``sys.getsizeof`` ignores container
                # contents) could blow the byte budget while the
                # bookkeeping says it fits. Refuse the value and make
                # the refusal visible in stats.
                shard.unpicklable += 1
                shard.rejected += 1
                return
            if budget is not None and size_bytes > budget:
                shard.rejected += 1
                return
            if signature in shard.entries:
                self._drop(shard, signature)
            shard.entries[signature] = value
            shard.inserted_at[signature] = self._clock()
            shard.sizes[signature] = size_bytes
            if tag is not None:
                shard.tags[signature] = tag
            shard.total_bytes += size_bytes
            shard.puts += 1
            while len(shard.entries) > shard.policy.max_entries or (
                budget is not None and shard.total_bytes > budget
            ):
                oldest = next(iter(shard.entries))
                self._drop(shard, oldest)
                shard.evictions += 1

    def clear(self, stage: Optional[str] = None) -> int:
        """Drop every entry of ``stage`` (or of all stages when None);
        returns the number of entries removed. Counters are kept.

        Content addressing makes this purely a memory-reclaim
        operation: a corpus bump already changed every affected
        signature, so the cleared entries were unreachable.
        """
        removed = 0
        with self._lock:
            shards = (
                [self._shards[stage]]
                if stage is not None and stage in self._shards
                else (list(self._shards.values()) if stage is None else [])
            )
            for shard in shards:
                removed += len(shard.entries)
                shard.entries.clear()
                shard.inserted_at.clear()
                shard.sizes.clear()
                shard.tags.clear()
                shard.total_bytes = 0
        return removed

    def discard_tagged(
        self, stage: str, predicate: Callable[[str], bool]
    ) -> int:
        """Drop every ``stage`` entry whose tag satisfies ``predicate``;
        returns the number of entries removed.

        Untagged entries are never matched. Like :meth:`clear`, this is
        memory reclamation, not correctness — the live-ingest path
        calls it with "does this normalized query touch the ingested
        entities?" after the version-vector bump has already changed
        the affected signatures.
        """
        removed = 0
        with self._lock:
            shard = self._shards.get(stage)
            if shard is None:
                return 0
            doomed = [
                signature
                for signature, tag in shard.tags.items()
                if predicate(tag)
            ]
            for signature in doomed:
                self._drop(shard, signature)
            removed = len(doomed)
            shard.discarded += removed
        return removed

    # ---- monitoring --------------------------------------------------------

    @property
    def reuse_ratio(self) -> float:
        """Hits over total lookups across all stages (0.0 when idle).

        The fraction of stage work served from cache (24 of 64 lookups
        on the overlap workload in ``tests/test_stage_cache.py``).
        """
        with self._lock:
            hits = sum(s.hits for s in self._shards.values())
            misses = sum(s.misses for s in self._shards.values())
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Per-stage and aggregate counters for the monitoring surface."""
        with self._lock:
            stages: Dict[str, Any] = {}
            totals = {
                "hits": 0,
                "misses": 0,
                "puts": 0,
                "evictions": 0,
                "expirations": 0,
                "rejected": 0,
                "unpicklable": 0,
                "discarded": 0,
                "entries": 0,
                "bytes": 0,
            }
            for stage in sorted(self._shards):
                shard = self._shards[stage]
                block = {
                    "hits": shard.hits,
                    "misses": shard.misses,
                    "puts": shard.puts,
                    "evictions": shard.evictions,
                    "expirations": shard.expirations,
                    "rejected": shard.rejected,
                    "unpicklable": shard.unpicklable,
                    "discarded": shard.discarded,
                    "entries": len(shard.entries),
                    "bytes": shard.total_bytes,
                    "max_entries": shard.policy.max_entries,
                    "ttl_seconds": shard.policy.ttl_seconds,
                    "max_bytes": shard.policy.max_bytes,
                }
                stages[stage] = block
                for field in totals:
                    totals[field] += block[field]
        lookups = totals["hits"] + totals["misses"]
        return {
            "stages": stages,
            **totals,
            "reuse_ratio": (
                totals["hits"] / lookups if lookups else 0.0
            ),
        }

    # ---- internals ---------------------------------------------------------

    def _shard(self, stage: str) -> _StageShard:
        shard = self._shards.get(stage)
        if shard is None:
            shard = _StageShard(self.policy_for(stage))
            self._shards[stage] = shard
        return shard

    @staticmethod
    def _drop(shard: _StageShard, signature: str) -> None:
        del shard.entries[signature]
        del shard.inserted_at[signature]
        shard.tags.pop(signature, None)
        shard.total_bytes -= shard.sizes.pop(signature)


def _estimate_size(value: Any) -> Optional[int]:
    """Approximate in-memory weight of a cached value, in bytes.

    Pickle length is a cheap, deterministic proxy that scales with the
    actual token/clause payload. A value that cannot be pickled (never
    the case for the pipeline's dataclasses, but possible for foreign
    annotator products) returns None — ``put`` rejects it, because the
    previous ``sys.getsizeof`` fallback ignores container contents and
    let such values blow the byte budget unaccounted.
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return None


__all__ = [
    "DEFAULT_STAGE_BYTES",
    "DEFAULT_STAGE_ENTRIES",
    "STAGES",
    "STAGE_EXTRACT",
    "STAGE_FRAGMENT",
    "STAGE_NLP",
    "STAGE_RETRIEVAL",
    "StageCache",
    "StageCacheSpec",
    "StagePolicy",
    "normalized_query_text",
    "stage_signature",
]
