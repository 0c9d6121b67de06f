"""The v1 serving API: versioned request/response envelope + errors.

Every front end of the serving layer — the sync
:class:`~repro.service.service.QKBflyService`, the asyncio
:class:`~repro.service.async_service.AsyncQKBflyService`, and the HTTP
:class:`~repro.service.gateway.HttpGateway` — speaks one wire contract,
defined here and nowhere else:

- :class:`QueryRequest` — a frozen, validated request envelope
  (``api_version="v1"``): the query plus the variant pins
  (mode/algorithm), retrieval inputs (source/num_documents), the
  ``client_id`` admission control meters on, and an optional per-request
  ``timeout``;
- :class:`QueryResult` — the response envelope: the KB payload plus a
  :class:`QueryStatus`, the serving tier that answered
  (``served_from`` in {cache, store, executor}), the ``corpus_version``
  the content was built under, the stable ``request_key`` signature, and
  a wall-time breakdown (total / store / pipeline seconds);
- the typed error taxonomy — :class:`ServiceError` (base, HTTP 500),
  :class:`RateLimited` (429), :class:`CostLimited` (429, the cost
  budget rather than the request rate), :class:`Overloaded` (503),
  :class:`PipelineFailure` (500) — raised by the Python front ends and
  serialized into error envelopes by the HTTP gateway, with
  ``retry_after`` hints where the client can act on them.

Both envelopes JSON round-trip via ``to_dict``/``from_dict`` (all
durations stay in seconds on the wire, so a round trip is bit-exact),
which is what lets the process executor, the gateway, and any future
transport ship them without bespoke encodings. See ``docs/API.md`` for
the wire format and curl-level examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Dict, Optional

from repro.kb.facts import KnowledgeBase
from repro.service.cache import normalize_query
from repro.service.search.query import (
    DEFAULT_SEARCH_LIMIT,
    MAX_SEARCH_LIMIT,
    SORT_ORDERS,
)

API_VERSION = "v1"
DEFAULT_CLIENT_ID = "anonymous"

#: The serving tiers a successful result can come from.
SERVED_FROM_CACHE = "cache"
SERVED_FROM_STORE = "store"
SERVED_FROM_EXECUTOR = "executor"


class QueryStatus(str, Enum):
    """Outcome of one served request, as it appears on the wire."""

    OK = "ok"
    RATE_LIMITED = "rate_limited"
    OVERLOADED = "overloaded"
    FAILED = "failed"


# ---- error taxonomy --------------------------------------------------------


class ServiceError(Exception):
    """Base of the v1 error taxonomy; serializable to the wire.

    Every serving-layer failure a client can observe is one of these
    (or a subclass), so front ends map errors to envelopes and HTTP
    statuses mechanically instead of string-matching messages.

    Args:
        message: Human-readable explanation (goes on the wire).
        code: Stable machine-readable error code; subclasses pin their
            own and callers of the base class may override (e.g.
            ``"invalid_request"``, ``"timeout"``).
        http_status: The HTTP status the gateway answers with.
        retry_after: Seconds after which a retry may succeed; surfaced
            as the ``Retry-After`` header where set.
    """

    status = QueryStatus.FAILED
    code = "internal"
    http_status = 500

    def __init__(
        self,
        message: str,
        code: Optional[str] = None,
        http_status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        if code is not None:
            self.code = code
        if http_status is not None:
            self.http_status = http_status
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of the error (the ``error`` field of an envelope)."""
        return {
            "code": self.code,
            "message": self.message,
            "http_status": self.http_status,
            "retry_after": self.retry_after,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ServiceError":
        """Rebuild the typed error from its wire form."""
        code = data.get("code", "internal")
        cls = _ERROR_CLASSES.get(code, ServiceError)
        error = cls(str(data.get("message", "")))
        error.code = code
        if data.get("http_status") is not None:
            error.http_status = int(data["http_status"])
        error.retry_after = data.get("retry_after")
        return error


class RateLimited(ServiceError):
    """The client exceeded its admission-control budget (HTTP 429)."""

    status = QueryStatus.RATE_LIMITED
    code = "rate_limited"
    http_status = 429


class CostLimited(RateLimited):
    """The client exceeded its *cost* budget (HTTP 429).

    Same wire semantics as :class:`RateLimited` (status
    ``rate_limited``, HTTP 429, actionable ``retry_after``), but the
    distinct ``cost_limited`` code tells the client *which* budget ran
    out: not its request rate, but the pipeline wall-seconds its
    requests consumed (see
    :class:`~repro.service.admission.CostBucket`). The ``retry_after``
    is the exact refill wait until the estimated cost of the rejected
    request fits the budget again.
    """

    code = "cost_limited"


class Overloaded(ServiceError):
    """The executor queue is saturated; load was shed (HTTP 503)."""

    status = QueryStatus.OVERLOADED
    code = "overloaded"
    http_status = 503


class DeadlineUnmet(ServiceError):
    """The request's timeout cannot survive the measured queue wait
    (HTTP 504).

    Raised *at admission*, before any work is queued: when the p95 of
    recently measured executor queue waits already exceeds the
    request's remaining timeout budget, enqueueing it would burn a
    worker slot on a result no one will collect — so the request is
    rejected immediately instead (see
    :meth:`~repro.service.admission.AdmissionController.check_deadline`).
    Same HTTP status as an expired deadline (504), but the distinct
    ``deadline_unmet`` code tells the client its deadline never had a
    chance: retry after ``retry_after`` (the measured queue drain
    estimate) or with a larger ``timeout``. Requests joining an
    existing in-flight computation, and requests the store can answer,
    are never rejected by this check.
    """

    status = QueryStatus.FAILED
    code = "deadline_unmet"
    http_status = 504


class SearchUnavailable(ServiceError):
    """The fact-search index cannot serve this deployment (HTTP 503).

    Raised when the deployment has no persistent KB store to search,
    or when the store's SQLite build lacks the FTS5 extension (probed
    once at store creation — see
    :func:`repro.service.search.index.ensure_search_schema`). The
    condition is configuration-shaped, not transient, so no
    ``retry_after`` is attached; everything *except* ``/v1/facts`` /
    ``/v1/entities`` keeps serving normally.
    """

    status = QueryStatus.FAILED
    code = "search_unavailable"
    http_status = 503


class PipelineFailure(ServiceError):
    """The KB pipeline raised while serving the request (HTTP 500).

    The original exception is chained as ``__cause__`` when the failure
    happened in-process, so ``QKBflyService.build_kb`` can re-raise
    exactly what :class:`~repro.core.qkbfly.QKBfly` would have raised.
    """

    status = QueryStatus.FAILED
    code = "pipeline_failure"
    http_status = 500


_ERROR_CLASSES: Dict[str, type] = {
    RateLimited.code: RateLimited,
    CostLimited.code: CostLimited,
    Overloaded.code: Overloaded,
    DeadlineUnmet.code: DeadlineUnmet,
    SearchUnavailable.code: SearchUnavailable,
    PipelineFailure.code: PipelineFailure,
}


def invalid_request(message: str) -> ServiceError:
    """A malformed or unsupported request envelope (HTTP 400)."""
    return ServiceError(message, code="invalid_request", http_status=400)


def deadline_exceeded(timeout: float) -> ServiceError:
    """A per-request timeout expired before the result arrived (504).

    The in-flight computation keeps running and will fill the cache —
    only this caller stops waiting — so an immediate retry is likely to
    hit, hence the small ``retry_after`` even for long deadlines.
    """
    return ServiceError(
        f"request deadline of {timeout}s exceeded",
        code="timeout",
        http_status=504,
        retry_after=min(timeout, 1.0),
    )


def deadline_unmet(
    remaining: float, expected_wait: float, retry_after: float
) -> DeadlineUnmet:
    """A doomed-enqueue rejection: the measured queue wait already
    exceeds the request's remaining timeout budget (HTTP 504, at
    admission — the fast twin of :func:`deadline_exceeded`)."""
    return DeadlineUnmet(
        f"remaining timeout of {max(0.0, remaining):.3f}s cannot survive "
        f"the measured p95 queue wait of {expected_wait:.3f}s; retry with "
        "a larger timeout or after the queue drains",
        retry_after=retry_after,
    )


def wrap_failure(
    request: "QueryRequest", error: BaseException, context: str = "pipeline"
) -> PipelineFailure:
    """Wrap a raw exception for ``request`` with the original chained
    as ``__cause__`` — the one place the wrapping happens, so every
    front end raises/envelopes identically."""
    failure = PipelineFailure(
        f"{context} failed for {request.query!r}: {error}"
    )
    failure.__cause__ = error
    return failure


def backend_seconds(result: "QueryResult") -> float:
    """The measured backend cost of one served request, in seconds.

    What cost budgeting charges (:mod:`repro.service.admission`): the
    persistent-store lookup plus the pipeline run — the work the
    deployment actually performed for this request. A cache hit
    consulted neither tier and costs 0.0. A request that *joined* a
    shared in-flight computation carries the shared run's timings and
    is charged them in full: every joiner asked for the same expensive
    work, and charging intent (rather than splitting the bill) is what
    keeps a client from hiding behind single-flight dedup.
    """
    return (result.store_seconds or 0.0) + (result.pipeline_seconds or 0.0)


def classify_timeout(
    request: "QueryRequest",
    wait_error: BaseException,
    work_error: Optional[BaseException],
) -> ServiceError:
    """One classification for a TimeoutError caught while reading a
    shared flight (``QKBflyService._finish``, on behalf of every front
    end).

    On 3.11+ the futures/asyncio TimeoutError *is* the builtin
    TimeoutError, so a timeout raised inside the pipeline (e.g. a
    retrieval socket timeout) arrives through the same except clause
    as an expired wait. ``work_error`` is the exception the finished
    work itself raised (None if it is still pending or succeeded): when
    set, the failure is the *work's* — wrapped with that original
    exception chained, never the wait's own TimeoutError. With no
    deadline configured, a TimeoutError can only have come out of the
    work. Otherwise the caller's deadline genuinely expired.
    """
    if work_error is not None:
        return wrap_failure(request, work_error)
    if request.timeout is None:
        return wrap_failure(request, wait_error)
    failure = deadline_exceeded(request.timeout)
    failure.__suppress_context__ = True
    return failure


# ---- request envelope ------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One v1 query, validated at construction.

    ``mode``/``algorithm`` are optional *pins*: a deployment serves one
    pipeline variant, and a request naming a different one is rejected
    up front (400) instead of silently answered with the wrong system.
    ``source``/``num_documents`` default to the deployment's
    :class:`~repro.service.service.ServiceConfig` when omitted, exactly
    like the ``build_kb`` arguments of the same names.

    Args:
        query: The entity-centric query string (non-empty).
        mode: Optional pipeline-mode pin (e.g. ``"joint"``).
        algorithm: Optional algorithm pin (e.g. ``"greedy"``).
        source: Optional retrieval channel override.
        num_documents: Optional retrieved-document count (>= 1).
        client_id: Admission-control identity; one token bucket per id.
        timeout: Optional per-request deadline in seconds (> 0).
        api_version: Must be ``"v1"``.
    """

    query: str
    mode: Optional[str] = None
    algorithm: Optional[str] = None
    source: Optional[str] = None
    num_documents: Optional[int] = None
    client_id: str = DEFAULT_CLIENT_ID
    timeout: Optional[float] = None
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        if self.api_version != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {self.api_version!r} "
                f"(this server speaks {API_VERSION!r})"
            )
        if not isinstance(self.query, str) or not self.query.strip():
            raise invalid_request("query must be a non-empty string")
        for name in ("mode", "algorithm", "source"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise invalid_request(f"{name} must be a string")
        if not isinstance(self.client_id, str) or not self.client_id:
            raise invalid_request("client_id must be a non-empty string")
        if self.num_documents is not None and (
            not isinstance(self.num_documents, int)
            or isinstance(self.num_documents, bool)
            or self.num_documents < 1
        ):
            raise invalid_request("num_documents must be an integer >= 1")
        if self.timeout is not None:
            if (
                not isinstance(self.timeout, (int, float))
                or isinstance(self.timeout, bool)
                or not math.isfinite(self.timeout)
                or self.timeout <= 0
            ):
                raise invalid_request("timeout must be a positive number")

    def to_dict(self) -> Dict[str, Any]:
        """Wire form; omitted optionals travel as explicit nulls."""
        return {
            "api_version": self.api_version,
            "query": self.query,
            "mode": self.mode,
            "algorithm": self.algorithm,
            "source": self.source,
            "num_documents": self.num_documents,
            "client_id": self.client_id,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "QueryRequest":
        """Parse and validate a wire payload; unknown keys are errors.

        Strictness is deliberate: a misspelled field silently ignored
        is a client bug served with the wrong defaults.
        """
        if not isinstance(data, dict):
            raise invalid_request("request body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise invalid_request(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        if "query" not in data:
            raise invalid_request("request is missing 'query'")
        kwargs = {key: data[key] for key in data}
        kwargs.setdefault("api_version", API_VERSION)
        if kwargs.get("client_id") is None:
            kwargs["client_id"] = DEFAULT_CLIENT_ID
        return cls(**kwargs)


# ---- response envelope -----------------------------------------------------


@dataclass
class QueryResult:
    """One served query: the KB plus the full v1 serving metadata.

    This is both the legacy result type (``cache_hit`` / ``store_hit``
    / ``seconds`` keep their PR-1 meanings, so existing consumers work
    unchanged) and the v1 response envelope (``status``,
    ``served_from``, ``request_key``, the timing breakdown, and a typed
    ``error`` on failures). As served, ``kb`` is ``None`` exactly when
    ``status`` is not :attr:`QueryStatus.OK`; the one exception is an
    envelope rebuilt from a metadata-only wire form
    (``to_dict(include_kb=False)``), where a successful result
    legitimately carries ``kb=None`` — consumers of such streams must
    not dereference ``kb``.
    """

    query: str
    normalized_query: str
    kb: Optional[KnowledgeBase]
    corpus_version: str
    cache_hit: bool = False
    store_hit: bool = False
    #: Total wall seconds observed by this consumer.
    seconds: float = 0.0
    status: QueryStatus = QueryStatus.OK
    client_id: str = DEFAULT_CLIENT_ID
    #: Stable signature of the cache/store identity this request served
    #: under (see ``CacheKey.signature``); empty for error envelopes
    #: rejected before a key was derived.
    request_key: str = ""
    #: Seconds spent in the persistent-store lookup (None: not consulted).
    store_seconds: Optional[float] = None
    #: Seconds spent inside the pipeline run (None: no pipeline run).
    pipeline_seconds: Optional[float] = None
    error: Optional[ServiceError] = field(default=None, repr=False)
    #: Per-entity versions of the query's entity slice at serve time
    #: (entity → version, from the live-ingest version vector; see
    #: ``docs/INGEST.md``). None outside ingest-enabled deployments; an
    #: empty dict means "no ingested entity touches this query". Only
    #: serialized when set, so pre-ingest envelopes are unchanged.
    entity_versions: Optional[Dict[str, int]] = None
    api_version: str = API_VERSION

    @property
    def served_from(self) -> Optional[str]:
        """Which tier answered: cache, store, or executor (None on error)."""
        if self.status is not QueryStatus.OK:
            return None
        if self.cache_hit:
            return SERVED_FROM_CACHE
        if self.store_hit:
            return SERVED_FROM_STORE
        return SERVED_FROM_EXECUTOR

    @classmethod
    def failure(
        cls,
        request: QueryRequest,
        error: ServiceError,
        corpus_version: str = "",
        request_key: str = "",
        seconds: float = 0.0,
    ) -> "QueryResult":
        """An error envelope for ``request`` (no KB payload)."""
        return cls(
            query=request.query,
            normalized_query=normalize_query(request.query),
            kb=None,
            corpus_version=corpus_version,
            seconds=seconds,
            status=error.status,
            client_id=request.client_id,
            request_key=request_key,
            error=error,
        )

    def to_dict(self, include_kb: bool = True) -> Dict[str, Any]:
        """Wire form of the envelope.

        ``include_kb=False`` drops the (potentially large) KB payload —
        for logs and metrics surfaces that only need the metadata; the
        field then travels as ``null`` exactly like an error envelope.
        """
        payload = {
            "api_version": self.api_version,
            "status": self.status.value,
            "query": self.query,
            "normalized_query": self.normalized_query,
            "client_id": self.client_id,
            "request_key": self.request_key,
            "corpus_version": self.corpus_version,
            "served_from": self.served_from,
            "timings": {
                "total_seconds": self.seconds,
                "store_seconds": self.store_seconds,
                "pipeline_seconds": self.pipeline_seconds,
            },
            "kb": (
                self.kb.to_dict() if include_kb and self.kb is not None
                else None
            ),
            "error": self.error.to_dict() if self.error else None,
        }
        if self.entity_versions is not None:
            payload["entity_versions"] = dict(self.entity_versions)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueryResult":
        """Rebuild an envelope from its wire form.

        The ``served_from`` field is derived state (it re-materializes
        from status + hit flags), so the wire carries the flags
        explicitly via the tier string.
        """
        if not isinstance(data, dict):
            raise invalid_request("result payload must be a JSON object")
        if data.get("api_version") != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {data.get('api_version')!r}"
            )
        try:
            status = QueryStatus(data.get("status", "ok"))
        except ValueError as error:
            raise invalid_request(
                f"unknown status {data.get('status')!r}"
            ) from error
        timings = data.get("timings") or {}
        served_from = data.get("served_from")
        kb_payload = data.get("kb")
        error_payload = data.get("error")
        return cls(
            query=data.get("query", ""),
            normalized_query=data.get("normalized_query", ""),
            kb=(
                KnowledgeBase.from_dict(kb_payload)
                if kb_payload is not None
                else None
            ),
            corpus_version=data.get("corpus_version", ""),
            cache_hit=served_from == SERVED_FROM_CACHE,
            store_hit=served_from == SERVED_FROM_STORE,
            seconds=float(timings.get("total_seconds") or 0.0),
            status=status,
            client_id=data.get("client_id", DEFAULT_CLIENT_ID),
            request_key=data.get("request_key", ""),
            store_seconds=timings.get("store_seconds"),
            pipeline_seconds=timings.get("pipeline_seconds"),
            error=(
                ServiceError.from_dict(error_payload)
                if error_payload is not None
                else None
            ),
            entity_versions=(
                {
                    str(entity): int(version)
                    for entity, version in data["entity_versions"].items()
                }
                if isinstance(data.get("entity_versions"), dict)
                else None
            ),
        )


# ---- search envelopes ------------------------------------------------------


@dataclass(frozen=True)
class FactSearchRequest:
    """One v1 search over stored facts or entities, validated at
    construction (the read twin of :class:`QueryRequest`).

    Args:
        q: Optional full-text query; tokens are AND-ed phrases against
            the FTS5 index. Required when ``sort="rank"``.
        entity: Optional entity filter (subject/entity id match, or a
            substring of the object/display text).
        pattern: Optional exact pattern filter (facts only).
        corpus_version: Optional exact corpus-version filter.
        created_after: Optional inclusive lower bound on ``created_at``.
        created_before: Optional inclusive upper bound on ``created_at``.
        sort: One of ``id`` (default), ``created_at``, ``-created_at``,
            ``rank`` (bm25; requires ``q``).
        limit: Page size, 1..``MAX_SEARCH_LIMIT`` (the gateway clamps,
            direct callers get a 400-class error).
        cursor: Opaque ``{sortkey}|{rowid}`` keyset cursor from a prior
            page's ``next_cursor``.
        client_id: Admission-control identity (search has its own cost
            shape, so scans cannot starve query traffic).
        api_version: Must be ``"v1"``.
    """

    q: Optional[str] = None
    entity: Optional[str] = None
    pattern: Optional[str] = None
    corpus_version: Optional[str] = None
    created_after: Optional[float] = None
    created_before: Optional[float] = None
    sort: str = "id"
    limit: int = DEFAULT_SEARCH_LIMIT
    cursor: Optional[str] = None
    client_id: str = DEFAULT_CLIENT_ID
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        if self.api_version != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {self.api_version!r} "
                f"(this server speaks {API_VERSION!r})"
            )
        for name in ("q", "entity", "pattern", "corpus_version", "cursor"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, str) or not value.strip()
            ):
                raise invalid_request(f"{name} must be a non-empty string")
        for name in ("created_after", "created_before"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise invalid_request(f"{name} must be a finite number")
        if self.sort not in SORT_ORDERS:
            raise invalid_request(
                f"unknown sort {self.sort!r} "
                f"(supported: {', '.join(SORT_ORDERS)})"
            )
        if self.sort == "rank" and self.q is None:
            raise invalid_request("sort=rank requires a full-text query (q)")
        if (
            not isinstance(self.limit, int)
            or isinstance(self.limit, bool)
            or not 1 <= self.limit <= MAX_SEARCH_LIMIT
        ):
            raise invalid_request(
                f"limit must be an integer in 1..{MAX_SEARCH_LIMIT}"
            )
        if not isinstance(self.client_id, str) or not self.client_id:
            raise invalid_request("client_id must be a non-empty string")

    def to_dict(self) -> Dict[str, Any]:
        """Wire form; omitted optionals travel as explicit nulls."""
        return {
            "api_version": self.api_version,
            "q": self.q,
            "entity": self.entity,
            "pattern": self.pattern,
            "corpus_version": self.corpus_version,
            "created_after": self.created_after,
            "created_before": self.created_before,
            "sort": self.sort,
            "limit": self.limit,
            "cursor": self.cursor,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FactSearchRequest":
        """Parse and validate a wire payload; unknown keys are errors."""
        if not isinstance(data, dict):
            raise invalid_request("search request must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise invalid_request(
                f"unknown search parameter(s): {', '.join(unknown)}"
            )
        kwargs = {key: data[key] for key in data}
        kwargs.setdefault("api_version", API_VERSION)
        if kwargs.get("client_id") is None:
            kwargs["client_id"] = DEFAULT_CLIENT_ID
        if kwargs.get("sort") is None:
            kwargs["sort"] = "id"
        if kwargs.get("limit") is None:
            kwargs["limit"] = DEFAULT_SEARCH_LIMIT
        return cls(**kwargs)


@dataclass
class FactSearchResult:
    """One page of search results: the paginated v1 envelope.

    ``results`` carries plain row dicts (each with its global ``gid``,
    the owning entry's metadata, and the indexed fields — plus a bm25
    ``score`` when ``q`` was given); ``next_cursor`` resumes the walk
    after the last row of this page, and ``has_more`` is proven by a
    spilled ``limit + 1``-th candidate, not a count query.
    """

    kind: str
    results: list
    next_cursor: Optional[str] = None
    has_more: bool = False
    #: Total wall seconds observed by this consumer.
    seconds: float = 0.0
    client_id: str = DEFAULT_CLIENT_ID
    api_version: str = API_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of the paginated envelope."""
        return {
            "api_version": self.api_version,
            "status": QueryStatus.OK.value,
            "kind": self.kind,
            "count": len(self.results),
            "results": list(self.results),
            "next_cursor": self.next_cursor,
            "has_more": self.has_more,
            "client_id": self.client_id,
            "timings": {"total_seconds": self.seconds},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FactSearchResult":
        """Rebuild the envelope from its wire form."""
        if not isinstance(data, dict):
            raise invalid_request("search payload must be a JSON object")
        if data.get("api_version") != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {data.get('api_version')!r}"
            )
        timings = data.get("timings") or {}
        return cls(
            kind=str(data.get("kind", "facts")),
            results=list(data.get("results") or ()),
            next_cursor=data.get("next_cursor"),
            has_more=bool(data.get("has_more")),
            seconds=float(timings.get("total_seconds") or 0.0),
            client_id=data.get("client_id", DEFAULT_CLIENT_ID),
        )


# ---- ingest / subscription envelopes ---------------------------------------


@dataclass(frozen=True)
class IngestRequest:
    """One v1 live-corpus document ingest, validated at construction
    (the write twin of :class:`QueryRequest`).

    Args:
        doc_id: Stable document identity; re-ingesting an existing id
            replaces the document (an *update*).
        text: The raw document text (non-empty).
        title: Optional title; defaults to ``doc_id`` downstream.
        source: Retrieval channel the document joins (``"news"``
            default, or ``"wikipedia"``).
        client_id: Admission-control identity; ingest has its own cost
            shape so bulk feeds cannot starve query traffic.
        api_version: Must be ``"v1"``.
    """

    doc_id: str
    text: str
    title: str = ""
    source: str = "news"
    client_id: str = DEFAULT_CLIENT_ID
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        if self.api_version != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {self.api_version!r} "
                f"(this server speaks {API_VERSION!r})"
            )
        if not isinstance(self.doc_id, str) or not self.doc_id.strip():
            raise invalid_request("doc_id must be a non-empty string")
        if not isinstance(self.text, str) or not self.text.strip():
            raise invalid_request("text must be a non-empty string")
        if not isinstance(self.title, str):
            raise invalid_request("title must be a string")
        if self.source not in ("wikipedia", "news"):
            raise invalid_request(
                f"unknown source {self.source!r} "
                "(supported: wikipedia, news)"
            )
        if not isinstance(self.client_id, str) or not self.client_id:
            raise invalid_request("client_id must be a non-empty string")

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of the ingest envelope."""
        return {
            "api_version": self.api_version,
            "doc_id": self.doc_id,
            "text": self.text,
            "title": self.title,
            "source": self.source,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "IngestRequest":
        """Parse and validate a wire payload; unknown keys are errors."""
        if not isinstance(data, dict):
            raise invalid_request("ingest body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise invalid_request(
                f"unknown ingest field(s): {', '.join(unknown)}"
            )
        for required in ("doc_id", "text"):
            if required not in data:
                raise invalid_request(f"ingest is missing {required!r}")
        kwargs = {key: data[key] for key in data}
        kwargs.setdefault("api_version", API_VERSION)
        if kwargs.get("client_id") is None:
            kwargs["client_id"] = DEFAULT_CLIENT_ID
        if kwargs.get("title") is None:
            kwargs["title"] = ""
        if kwargs.get("source") is None:
            kwargs["source"] = "news"
        return cls(**kwargs)


@dataclass
class IngestResult:
    """One acknowledged ingest: what changed, and for whom.

    ``entity_versions`` are the *new* per-entity versions the ingest
    bumped; ``invalidated`` counts the warm entries cooled per tier
    (``cache`` / ``store`` / ``stage``); ``subscribers`` is the number
    of subscriptions selected for delta delivery. The global
    ``corpus_version`` is unchanged by design — that is the
    entity-granular contract.
    """

    doc_id: str
    source: str
    corpus_version: str
    updated: bool = False
    touched_entities: list = field(default_factory=list)
    entity_versions: Dict[str, int] = field(default_factory=dict)
    invalidated: Dict[str, int] = field(default_factory=dict)
    subscribers: int = 0
    #: Webhook delivery counters for the inline pass the ingest ran
    #: after acknowledging (``attempted`` / ``delivered`` / ``failed``);
    #: long-poll consumers drain via ``GET /v1/deltas`` instead.
    deliveries: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    status: QueryStatus = QueryStatus.OK
    client_id: str = DEFAULT_CLIENT_ID
    error: Optional[ServiceError] = field(default=None, repr=False)
    api_version: str = API_VERSION

    @classmethod
    def failure(
        cls,
        request: IngestRequest,
        error: ServiceError,
        seconds: float = 0.0,
    ) -> "IngestResult":
        """An error envelope for ``request`` (nothing was committed)."""
        return cls(
            doc_id=request.doc_id,
            source=request.source,
            corpus_version="",
            seconds=seconds,
            status=error.status,
            client_id=request.client_id,
            error=error,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of the ingest acknowledgment."""
        return {
            "api_version": self.api_version,
            "status": self.status.value,
            "doc_id": self.doc_id,
            "source": self.source,
            "updated": self.updated,
            "corpus_version": self.corpus_version,
            "touched_entities": list(self.touched_entities),
            "entity_versions": dict(self.entity_versions),
            "invalidated": dict(self.invalidated),
            "subscribers": self.subscribers,
            "deliveries": dict(self.deliveries),
            "client_id": self.client_id,
            "timings": {"total_seconds": self.seconds},
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IngestResult":
        """Rebuild the envelope from its wire form."""
        if not isinstance(data, dict):
            raise invalid_request("ingest payload must be a JSON object")
        if data.get("api_version") != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {data.get('api_version')!r}"
            )
        try:
            status = QueryStatus(data.get("status", "ok"))
        except ValueError as error:
            raise invalid_request(
                f"unknown status {data.get('status')!r}"
            ) from error
        timings = data.get("timings") or {}
        error_payload = data.get("error")
        return cls(
            doc_id=str(data.get("doc_id", "")),
            source=str(data.get("source", "news")),
            corpus_version=str(data.get("corpus_version", "")),
            updated=bool(data.get("updated")),
            touched_entities=list(data.get("touched_entities") or ()),
            entity_versions={
                str(entity): int(version)
                for entity, version in (
                    data.get("entity_versions") or {}
                ).items()
            },
            invalidated={
                str(tier): int(count)
                for tier, count in (data.get("invalidated") or {}).items()
            },
            subscribers=int(data.get("subscribers") or 0),
            deliveries={
                str(kind): int(count)
                for kind, count in (data.get("deliveries") or {}).items()
            },
            seconds=float(timings.get("total_seconds") or 0.0),
            status=status,
            client_id=data.get("client_id", DEFAULT_CLIENT_ID),
            error=(
                ServiceError.from_dict(error_payload)
                if error_payload is not None
                else None
            ),
        )


@dataclass(frozen=True)
class WatchRequest:
    """One v1 subscription registration: ``watch(entities)``.

    Args:
        entities: Entity names to watch (non-empty list of non-empty
            strings; normalized downstream).
        mode: ``"longpoll"`` (default; consume via ``GET /v1/deltas``)
            or ``"webhook"`` (deltas POSTed to ``callback_url``).
        callback_url: Required for webhook mode; must be an ``http://``
            URL the registry can reach.
        client_id: The subscriber's identity (freshness is tracked per
            client).
        api_version: Must be ``"v1"``.
    """

    entities: tuple
    mode: str = "longpoll"
    callback_url: Optional[str] = None
    client_id: str = DEFAULT_CLIENT_ID
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        if self.api_version != API_VERSION:
            raise invalid_request(
                f"unsupported api_version {self.api_version!r} "
                f"(this server speaks {API_VERSION!r})"
            )
        entities = self.entities
        if isinstance(entities, (str, bytes)) or not isinstance(
            entities, (list, tuple)
        ):
            raise invalid_request("entities must be a list of strings")
        if not entities or not all(
            isinstance(entity, str) and entity.strip()
            for entity in entities
        ):
            raise invalid_request(
                "entities must be a non-empty list of non-empty strings"
            )
        object.__setattr__(self, "entities", tuple(entities))
        if self.mode not in ("longpoll", "webhook"):
            raise invalid_request(
                f"unknown mode {self.mode!r} (supported: longpoll, webhook)"
            )
        if self.mode == "webhook":
            if not isinstance(
                self.callback_url, str
            ) or not self.callback_url.startswith("http://"):
                raise invalid_request(
                    "webhook mode requires an http:// callback_url"
                )
        elif self.callback_url is not None:
            raise invalid_request("callback_url is only valid for webhooks")
        if not isinstance(self.client_id, str) or not self.client_id:
            raise invalid_request("client_id must be a non-empty string")

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of the watch registration."""
        return {
            "api_version": self.api_version,
            "entities": list(self.entities),
            "mode": self.mode,
            "callback_url": self.callback_url,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "WatchRequest":
        """Parse and validate a wire payload; unknown keys are errors."""
        if not isinstance(data, dict):
            raise invalid_request("watch body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise invalid_request(
                f"unknown watch field(s): {', '.join(unknown)}"
            )
        if "entities" not in data:
            raise invalid_request("watch is missing 'entities'")
        kwargs = {key: data[key] for key in data}
        kwargs.setdefault("api_version", API_VERSION)
        if kwargs.get("client_id") is None:
            kwargs["client_id"] = DEFAULT_CLIENT_ID
        if kwargs.get("mode") is None:
            kwargs["mode"] = "longpoll"
        return cls(**kwargs)


__all__ = [
    "API_VERSION",
    "CostLimited",
    "DEFAULT_CLIENT_ID",
    "DeadlineUnmet",
    "FactSearchRequest",
    "FactSearchResult",
    "IngestRequest",
    "IngestResult",
    "Overloaded",
    "PipelineFailure",
    "QueryRequest",
    "QueryResult",
    "QueryStatus",
    "RateLimited",
    "SERVED_FROM_CACHE",
    "SERVED_FROM_EXECUTOR",
    "SERVED_FROM_STORE",
    "SearchUnavailable",
    "ServiceError",
    "WatchRequest",
    "backend_seconds",
    "classify_timeout",
    "deadline_exceeded",
    "deadline_unmet",
    "invalid_request",
    "wrap_failure",
]
