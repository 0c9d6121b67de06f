"""The query-serving layer: persistence, caching, batched execution.

Turns the one-shot :class:`repro.core.qkbfly.QKBfly` pipeline into a
serving deployment (see ``docs/ARCHITECTURE.md`` for the full map):

- :mod:`repro.service.api` — the v1 request/response envelope
  (:class:`QueryRequest` / :class:`QueryResult`), the
  :class:`QueryStatus` enum, and the typed error taxonomy
  (:class:`ServiceError`, :class:`RateLimited`, :class:`Overloaded`,
  :class:`DeadlineUnmet`, :class:`PipelineFailure`) every front end
  speaks;
- :mod:`repro.service.cache` — LRU/TTL query cache keyed on
  (normalized query, mode, algorithm, corpus_version);
- :mod:`repro.service.stage_cache` — content-addressed caching of the
  pipeline's stages (retrieval / NLP annotation / clause extraction /
  per-document KB fragment) under chained signatures, so each
  document's KB is built once, not once per query that retrieves it
  (see ``docs/PIPELINE.md``);
- :mod:`repro.service.kb_store` — persistent SQLite (WAL) store for
  built KBs with full provenance, TTL/size compaction, and a
  non-blocking ``try_load`` accessor for the event-loop fast path;
- :mod:`repro.service.sharding` — the same store partitioned across N
  SQLite files with per-shard locks, keyed on the query-signature hash;
- :mod:`repro.service.fabric` — the shards served by socket shard
  servers with read replicas and online rebalance, selected with
  ``ServiceConfig(store_backend="fabric")`` (see ``docs/FABRIC.md``);
- :mod:`repro.service.executor` — a fixed thread pool
  (``ServiceConfig.max_workers``) with single-flight deduplication
  over shared session state;
- :mod:`repro.service.admission` — per-client token-bucket rate
  limiting, global queue-depth load shedding and deadline admission,
  both fed by the measured queue-wait window that also sets their
  Retry-After — enforced identically by every front end;
- :mod:`repro.service.search` — the fact-search subsystem: per-shard
  FTS5 indexes maintained inside the store's save transaction, keyset
  cursor pagination, and the multi-shard ranked merge behind
  ``GET /v1/facts`` / ``GET /v1/entities`` (see ``docs/SEARCH.md``);
- :mod:`repro.service.service` — the sync :class:`QKBflyService`
  facade (``serve``/``serve_batch`` envelope entry points, cache
  warm-up, store compaction);
- :mod:`repro.service.async_service` — the asyncio
  :class:`AsyncQKBflyService` front end (hits on the event loop,
  misses dispatched to the executor, asyncio-native single-flight);
- :mod:`repro.service.gateway` — the stdlib HTTP server
  (:class:`HttpGateway`) exposing ``POST /v1/query``,
  ``GET /v1/facts``, ``GET /v1/entities``, ``GET /v1/healthz``, and
  ``GET /v1/stats`` over the asyncio front end.
"""

from repro.service.admission import (
    AdmissionController,
    QueueWaitWindow,
    TokenBucket,
)
from repro.service.api import (
    API_VERSION,
    DeadlineUnmet,
    FactSearchRequest,
    FactSearchResult,
    IngestRequest,
    IngestResult,
    Overloaded,
    PipelineFailure,
    QueryRequest,
    QueryResult,
    QueryStatus,
    RateLimited,
    SearchUnavailable,
    ServiceError,
    WatchRequest,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.cache import CacheKey, QueryCache, normalize_query
from repro.service.executor import BatchExecutor
from repro.service.fabric import (
    Fabric,
    RemoteKbStore,
    ShardServer,
    ShardUnavailable,
)
from repro.service.gateway import HttpGateway, parse_search_query
from repro.service.ingest import (
    EntityVersionVector,
    normalize_entity,
    query_touches,
    versions_token,
)
from repro.service.ingest.pipeline import IngestPipeline
from repro.service.ingest.subscriptions import SubscriptionRegistry
from repro.service.kb_store import EntrySignature, KbStore
from repro.service.search import (
    SORT_ORDERS,
    rebuild_index,
    search_paginated,
)
from repro.service.service import QKBflyService, ServiceConfig
from repro.service.sharding import ShardedKbStore, shard_index
from repro.service.stage_cache import (
    StageCache,
    StagePolicy,
    stage_signature,
)

__all__ = [
    "API_VERSION",
    "AdmissionController",
    "AsyncQKBflyService",
    "BatchExecutor",
    "CacheKey",
    "DeadlineUnmet",
    "EntityVersionVector",
    "EntrySignature",
    "Fabric",
    "FactSearchRequest",
    "FactSearchResult",
    "HttpGateway",
    "IngestPipeline",
    "IngestRequest",
    "IngestResult",
    "KbStore",
    "Overloaded",
    "QueueWaitWindow",
    "PipelineFailure",
    "QKBflyService",
    "QueryCache",
    "QueryRequest",
    "QueryResult",
    "QueryStatus",
    "RateLimited",
    "RemoteKbStore",
    "SORT_ORDERS",
    "SearchUnavailable",
    "ServiceConfig",
    "ServiceError",
    "ShardServer",
    "ShardUnavailable",
    "ShardedKbStore",
    "StageCache",
    "StagePolicy",
    "SubscriptionRegistry",
    "TokenBucket",
    "WatchRequest",
    "normalize_entity",
    "normalize_query",
    "parse_search_query",
    "query_touches",
    "rebuild_index",
    "search_paginated",
    "shard_index",
    "stage_signature",
    "versions_token",
]
