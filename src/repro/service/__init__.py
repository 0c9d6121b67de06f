"""The query-serving layer: persistence, caching, batched execution.

Turns the one-shot :class:`repro.core.qkbfly.QKBfly` pipeline into a
serving deployment (see ``docs/ARCHITECTURE.md`` for the full map):

- :mod:`repro.service.api` — the v1 request/response envelope
  (:class:`QueryRequest` / :class:`QueryResult`), the
  :class:`QueryStatus` enum, and the typed error taxonomy
  (:class:`ServiceError`, :class:`RateLimited`, :class:`Overloaded`,
  :class:`PipelineFailure`) every front end speaks;
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
- :mod:`repro.service.executor` — thread-pool batch execution with
  single-flight deduplication over shared session state;
- :mod:`repro.service.autoscale` — queue-fed worker-pool sizing with
  hysteresis, enabled by ``ServiceConfig(autoscale_policy=...)``;
- :mod:`repro.service.admission` — per-client token-bucket rate
  limiting, per-client *cost* budgeting (pipeline-seconds, with a
  per-shape p95 admit-time estimator), and global queue-depth load
  shedding whose Retry-After comes from the measured queue-wait
  window — enforced identically by every front end;
- :mod:`repro.service.search` — the fact-search subsystem: per-shard
  FTS5 indexes maintained inside the store's save transaction, keyset
  cursor pagination, and the multi-shard ranked merge behind
  ``GET /v1/facts`` / ``GET /v1/entities`` (see ``docs/SEARCH.md``);
- :mod:`repro.service.service` — the sync :class:`QKBflyService`
  facade (``serve``/``serve_batch`` envelope entry points, cache
  warm-up, store compaction, pool sizing);
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
    CostBucket,
    CostCharge,
    QueueWaitWindow,
    TokenBucket,
    cost_shape,
    ingest_cost_shape,
    search_cost_shape,
)
from repro.service.api import (
    API_VERSION,
    CostLimited,
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
    backend_seconds,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.autoscale import (
    AutoscalePolicy,
    PoolSizer,
)
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
    "AutoscalePolicy",
    "BatchExecutor",
    "CacheKey",
    "CostBucket",
    "CostCharge",
    "CostLimited",
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
    "PoolSizer",
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
    "backend_seconds",
    "cost_shape",
    "ingest_cost_shape",
    "normalize_entity",
    "normalize_query",
    "parse_search_query",
    "query_touches",
    "rebuild_index",
    "search_cost_shape",
    "search_paginated",
    "shard_index",
    "stage_signature",
    "versions_token",
]
