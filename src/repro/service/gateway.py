"""HTTP front end for the v1 serving API — stdlib asyncio only.

The serving layer's network protocol is deliberately boring: HTTP/1.1
over :func:`asyncio.start_server`, JSON envelopes from
:mod:`repro.service.api` on the wire, no third-party dependencies. The
gateway is a *thin transport*: every decision that matters (admission
control, caching, single-flight, the error taxonomy) lives in the
shared :class:`~repro.service.async_service.AsyncQKBflyService` it
fronts, so HTTP clients, sync callers, and asyncio callers all receive
identical semantics — one deployment, three entry points, one contract.

Routes (see ``docs/API.md`` for the wire format and curl examples):

- ``POST /v1/query`` — a :class:`~repro.service.api.QueryRequest` JSON
  body in, a :class:`~repro.service.api.QueryResult` envelope out.
  Admission rejections map to HTTP 429 (rate limited) and 503
  (overloaded), both with a ``Retry-After`` header; pipeline failures
  to 500; per-request timeouts to 504; malformed envelopes to 400.
- ``GET /v1/facts`` / ``GET /v1/entities`` — keyset-paginated read
  APIs over the store's fact-search index (``docs/SEARCH.md``).
  Filters, sort order, page size and cursor arrive as URL query
  parameters (parsed by one shared, strict parser: unknown or
  malformed parameters are 400, ``limit`` is clamped to the API
  ceiling); pages come back as
  :class:`~repro.service.api.FactSearchResult` envelopes with
  ``next_cursor`` / ``has_more``. A deployment without a store or
  without FTS5 answers 503 (``search_unavailable``).
- ``POST /v1/ingest`` — one live-corpus document
  (:class:`~repro.service.api.IngestRequest` JSON body) in, the
  :class:`~repro.service.api.IngestResult` acknowledgment out:
  touched entities, new per-entity versions, and per-tier invalidation
  counts (``docs/INGEST.md``). Same taxonomy mapping as the query
  route.
- ``POST /v1/watch`` — register a ``watch(entities)`` subscription
  (:class:`~repro.service.api.WatchRequest`); returns the
  ``subscription_id`` plus the registration's wire form.
- ``GET /v1/deltas?subscription=S&after=N&timeout=T`` — long-poll a
  subscription's pending KB deltas; ``after`` is the cursor
  acknowledgment, ``timeout`` the capped poll wait (strictly parsed:
  unknown or malformed parameters are 400).
- ``GET /v1/healthz`` — liveness plus the served corpus version.
- ``GET /v1/stats`` — the merged serving counters
  (:meth:`AsyncQKBflyService.stats`: cache, store, executor tiers,
  autoscaler, admission) plus this gateway's own request/status
  counters.

Connections are keep-alive by default (HTTP/1.1 semantics); request
bodies are capped, idle connections are reaped, and every response is
``Content-Length``-framed — small-server hygiene, not a full HTTP
implementation.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl

from repro.service.api import (
    API_VERSION,
    FactSearchRequest,
    IngestRequest,
    IngestResult,
    QueryRequest,
    QueryResult,
    ServiceError,
    WatchRequest,
    invalid_request,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.search.query import MAX_SEARCH_LIMIT

#: Hard cap on request bodies: a query envelope is small; anything
#: bigger is a client error (or abuse), answered with 413.
DEFAULT_MAX_BODY_BYTES = 1_000_000
#: Connections idle longer than this between requests are closed.
#: Also bounds each header-line read, so a client trickling bytes
#: forever cannot hold a connection open indefinitely.
DEFAULT_IDLE_TIMEOUT = 60.0
#: Hard cap on header lines per request; more is a client error (or a
#: memory-growth attack), answered with 400.
MAX_HEADER_LINES = 100
#: Seconds aclose() waits for in-flight handlers before cancelling
#: them — long enough for any real response, short enough that an idle
#: keep-alive connection never stalls shutdown.
SHUTDOWN_GRACE_SECONDS = 5.0

class _LineTooLong(Exception):
    """A request/header line exceeded the StreamReader limit (surfaced
    by readline as a bare ValueError; re-typed so the connection loop
    can drop exactly this case without masking handler bugs)."""


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpGateway:
    """The v1 HTTP server over an :class:`AsyncQKBflyService`.

    Args:
        service: The asyncio front end to serve. All tiers, counters,
            and admission budgets are shared with every other entry
            point of that deployment.
        host: Bind address (loopback by default; put a real proxy in
            front for anything else).
        port: TCP port; 0 picks a free ephemeral port (the bound port
            is available as :attr:`port` after :meth:`start`).
        own_service: Whether :meth:`aclose` also closes ``service``.
        max_body_bytes: Request-body cap (413 past it).
        idle_timeout: Seconds a keep-alive connection may sit idle
            between requests before the gateway closes it.
    """

    #: Bind address; rewritten to the actually bound address by
    #: :meth:`start`.
    host: str
    #: Bound TCP port (meaningful after :meth:`start` when constructed
    #: with ``port=0``).
    port: int

    def __init__(
        self,
        service: AsyncQKBflyService,
        host: str = "127.0.0.1",
        port: int = 0,
        own_service: bool = False,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    ) -> None:
        self._service = service
        self._own_service = own_service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._handler_tasks: set = set()
        # Loop-confined counters (handlers run on the loop, unlocked).
        self.connections = 0
        self.requests = 0
        self.responses_by_status: Dict[int, int] = {}
        # Connections reaped without a response, by cause — the drops
        # the handler deliberately swallows must still be visible in
        # /v1/stats (harness runs assert nothing vanished silently).
        self.connections_dropped: Dict[str, int] = {}

    # ---- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("HttpGateway is already started")
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def url(self) -> str:
        """Base URL of the running gateway (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("HttpGateway is not started")
        return f"http://{self.host}:{self.port}"

    async def aclose(self) -> None:
        """Stop accepting, drain handlers, close the service if owned.

        Handlers get :data:`SHUTDOWN_GRACE_SECONDS` to finish the
        response they are writing, then are cancelled — so an idle
        keep-alive connection (blocked in a read for up to
        ``idle_timeout``) or a wedged client can never stall shutdown,
        and the owned service is only closed once no handler is still
        serving. ``Server.wait_closed`` runs *after* the drain: on
        3.12+ it waits for handlers itself, which by then are done.
        """
        if self._server is not None:
            self._server.close()
        pending = [t for t in self._handler_tasks if not t.done()]
        if pending:
            _, still_pending = await asyncio.wait(
                pending, timeout=SHUTDOWN_GRACE_SECONDS
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._own_service:
            await self._service.aclose()

    async def __aenter__(self) -> "HttpGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ---- connection handling -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve requests until close/idle/error."""
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            while True:
                request_line = await self._read_line(reader)
                if not request_line:
                    break  # client closed between requests
                keep_alive = await self._handle_request(
                    request_line, reader, writer
                )
                if not keep_alive:
                    break
        except asyncio.TimeoutError:
            # Idle (or byte-trickling) connection: reap it.
            self._count_drop("idle_timeout")
        except _LineTooLong:
            # Over-long request/header line (re-typed by _read_line so
            # a ValueError from a handler bug is never masked).
            self._count_drop("line_too_long")
        except (ConnectionError, asyncio.IncompleteReadError):
            # Client went away mid-request; nothing to answer.
            self._count_drop("client_disconnect")
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _count_drop(self, cause: str) -> None:
        """Count one connection reaped without a response (loop-confined,
        like the other counters)."""
        self.connections_dropped[cause] = (
            self.connections_dropped.get(cause, 0) + 1
        )

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        try:
            if self.idle_timeout is None:
                return await reader.readline()
            return await asyncio.wait_for(
                reader.readline(), self.idle_timeout
            )
        except ValueError as error:  # line exceeded the reader limit
            raise _LineTooLong(str(error)) from error

    async def _read_body(
        self, reader: asyncio.StreamReader, length: int
    ) -> bytes:
        """Body read under the same timeout as the header lines: a
        client announcing a Content-Length and then stalling must not
        hold the connection (and its handler task) open forever."""
        if self.idle_timeout is None:
            return await reader.readexactly(length)
        return await asyncio.wait_for(
            reader.readexactly(length), self.idle_timeout
        )

    async def _handle_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Parse + route one request; returns whether to keep the
        connection open."""
        self.requests += 1
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(
                writer, 400, _error_payload("bad_request", "malformed request line")
            )
            return False
        method, target, http_version = parts
        headers: Dict[str, str] = {}
        header_lines = 0
        while True:
            # Same timeout as between requests: a trickling client
            # must not hold the connection open one header at a time.
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            # Count *lines read*, not distinct names — repeating one
            # header name must not slip under the cap.
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                await self._respond(
                    writer,
                    400,
                    _error_payload("bad_request", "too many headers"),
                )
                return False
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Chunked bodies are not supported; reading on as if the
            # body were empty would desynchronize the keep-alive
            # stream (chunk data parsed as the next request line).
            await self._respond(
                writer,
                411,
                _error_payload(
                    "length_required",
                    "Transfer-Encoding is not supported; send a "
                    "Content-Length-framed body",
                    http_status=411,
                ),
            )
            return False
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            content_length = -1
        if content_length < 0:
            await self._respond(
                writer, 400, _error_payload("bad_request", "bad Content-Length")
            )
            return False
        if content_length > self.max_body_bytes:
            await self._respond(
                writer,
                413,
                _error_payload(
                    "payload_too_large",
                    f"request body exceeds {self.max_body_bytes} bytes",
                    http_status=413,
                ),
            )
            return False
        body = (
            await self._read_body(reader, content_length)
            if content_length
            else b""
        )
        # HTTP/1.1 defaults to keep-alive; HTTP/1.0 and an explicit
        # "Connection: close" don't.
        wants_close = headers.get("connection", "").lower() == "close"
        keep_alive = http_version.upper() != "HTTP/1.0" and not wants_close

        path, _, query_string = target.partition("?")
        status, payload, extra_headers = await self._route(
            method, path, query_string, headers, body
        )
        await self._respond(
            writer, status, payload, extra_headers, keep_alive=keep_alive
        )
        return keep_alive

    # ---- routing -----------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query_string: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Dispatch one parsed request through :attr:`ROUTES`; returns
        (status, payload, headers) — payload is a dict, or pre-encoded
        bytes for query envelopes."""
        route = self.ROUTES.get(path)
        if route is None:
            return (
                404,
                _error_payload(
                    "not_found", f"no route for {path!r}", http_status=404
                ),
                {},
            )
        allowed, handler = route
        if method != allowed:
            return (
                405,
                _error_payload(
                    "method_not_allowed", f"use {allowed}", http_status=405
                ),
                {"Allow": allowed},
            )
        return await handler(self, query_string, headers, body)

    async def _handle_healthz(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """GET /v1/healthz: liveness plus the served corpus version."""
        return (
            200,
            {
                "status": "ok",
                "api_version": API_VERSION,
                "corpus_version": self._service.corpus_version,
            },
            {},
        )

    async def _handle_stats(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """GET /v1/stats: every tier's counters in one document."""
        # The sync tiers' stats read SQLite row counts under the store
        # lock — blocking work, run off the loop (a writer mid-save must
        # not stall hit traffic). The front end's loop-confined counters
        # are snapshotted here on the loop, preserving its lock-free
        # contract.
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self._service.service.stats)
        stats["async"] = self._service.front_end_stats()
        stats["gateway"] = self.stats()
        return 200, stats, {}

    async def _handle_query(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """POST /v1/query: envelope in, envelope out, taxonomy mapped."""
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return (
                400,
                _error_payload("invalid_json", "body is not valid JSON"),
                {},
            )
        # Clients that cannot shape the body (plain curl scripts) may
        # pass their identity as a header instead.
        if (
            isinstance(data, dict)
            and not data.get("client_id")
            and headers.get("x-client-id")
        ):
            data = dict(data)
            data["client_id"] = headers["x-client-id"]
        try:
            request = QueryRequest.from_dict(data)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        serve_started = time.perf_counter()
        try:
            result = await self._service.serve(request)
        except ServiceError as error:
            failure = QueryResult.failure(
                request,
                error,
                corpus_version=self._service.corpus_version,
                seconds=time.perf_counter() - serve_started,
            )
            return error.http_status, failure.to_dict(), _retry_headers(error)
        except Exception as error:  # defense in depth: never half-close
            return (
                500,
                _error_payload(
                    "internal", f"unexpected error: {error}", http_status=500
                ),
                {},
            )
        # Envelope serialization is O(KB size) CPU work — off the loop,
        # like every other per-byte cost, so a large KB response never
        # taxes concurrent cache-hit latency.
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, _encode_payload, result)
        return 200, body, {}

    async def _handle_ingest(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """POST /v1/ingest: document envelope in, acknowledgment out."""
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return (
                400,
                _error_payload("invalid_json", "body is not valid JSON"),
                {},
            )
        # Same identity fallback as POST /v1/query.
        if (
            isinstance(data, dict)
            and not data.get("client_id")
            and headers.get("x-client-id")
        ):
            data = dict(data)
            data["client_id"] = headers["x-client-id"]
        try:
            request = IngestRequest.from_dict(data)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        serve_started = time.perf_counter()
        try:
            result = await self._service.ingest(request)
        except ServiceError as error:
            failure = IngestResult.failure(
                request,
                error,
                seconds=time.perf_counter() - serve_started,
            )
            return error.http_status, failure.to_dict(), _retry_headers(error)
        except Exception as error:  # defense in depth: never half-close
            return (
                500,
                _error_payload(
                    "internal", f"unexpected error: {error}", http_status=500
                ),
                {},
            )
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, _encode_payload, result)
        return 200, body, {}

    async def _handle_watch(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """POST /v1/watch: subscription registration in, id out."""
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return (
                400,
                _error_payload("invalid_json", "body is not valid JSON"),
                {},
            )
        if (
            isinstance(data, dict)
            and not data.get("client_id")
            and headers.get("x-client-id")
        ):
            data = dict(data)
            data["client_id"] = headers["x-client-id"]
        try:
            request = WatchRequest.from_dict(data)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        try:
            subscription = await self._service.watch(request)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        except Exception as error:  # defense in depth: never half-close
            return (
                500,
                _error_payload(
                    "internal", f"unexpected error: {error}", http_status=500
                ),
                {},
            )
        payload = dict(subscription)
        payload["api_version"] = API_VERSION
        payload["status"] = "ok"
        return 200, payload, {}

    async def _handle_deltas(
        self, query_string: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """GET /v1/deltas: long-poll one subscription's pending deltas."""
        try:
            params = parse_deltas_query(query_string)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        try:
            page = await self._service.poll_deltas(
                params["subscription"],
                after=params["after"],
                timeout=params["timeout"],
            )
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        except Exception as error:  # defense in depth: never half-close
            return (
                500,
                _error_payload(
                    "internal", f"unexpected error: {error}", http_status=500
                ),
                {},
            )
        payload = dict(page)
        payload["api_version"] = API_VERSION
        payload["status"] = "ok"
        return 200, payload, {}

    async def _handle_search(
        self,
        query_string: str,
        headers: Dict[str, str],
        body: bytes,
        kind: str,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """GET /v1/facts | /v1/entities: query string in, page out."""
        try:
            params = parse_search_query(query_string)
            if not params.get("client_id") and headers.get("x-client-id"):
                # Same identity fallback as POST /v1/query.
                params["client_id"] = headers["x-client-id"]
            request = FactSearchRequest.from_dict(params)
        except ServiceError as error:
            return error.http_status, _error_payload_from(error), {}
        try:
            if kind == "facts":
                result = await self._service.search_facts(request)
            else:
                result = await self._service.search_entities(request)
        except ServiceError as error:
            return (
                error.http_status,
                _error_payload_from(error),
                _retry_headers(error),
            )
        except Exception as error:  # defense in depth: never half-close
            return (
                500,
                _error_payload(
                    "internal", f"unexpected error: {error}", http_status=500
                ),
                {},
            )
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, _encode_payload, result)
        return 200, body, {}

    #: path -> (its one allowed method, handler): the whole v1 surface.
    #: Every handler takes (self, query_string, headers, body).
    ROUTES = {
        "/v1/query": ("POST", _handle_query),
        "/v1/ingest": ("POST", _handle_ingest),
        "/v1/watch": ("POST", _handle_watch),
        "/v1/deltas": ("GET", _handle_deltas),
        "/v1/facts": ("GET", functools.partial(_handle_search, kind="facts")),
        "/v1/entities": (
            "GET",
            functools.partial(_handle_search, kind="entities"),
        ),
        "/v1/healthz": ("GET", _handle_healthz),
        "/v1/stats": ("GET", _handle_stats),
    }

    # ---- response writing --------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = False,
    ) -> None:
        """Write one framed JSON response; ``payload`` is a dict (small
        control responses, encoded inline) or pre-encoded bytes (query
        envelopes, serialized off the loop)."""
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload, default=str).encode("utf-8")
        )
        reason = _REASONS.get(status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            head_lines.append(f"{name}: {value}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        # The write side gets the same bound as the reads: a client
        # that stops reading must not pin this handler (and the
        # encoded body) forever once the socket buffers fill.
        if self.idle_timeout is None:
            await writer.drain()
        else:
            await asyncio.wait_for(writer.drain(), self.idle_timeout)

    # ---- monitoring --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """This gateway's transport-level counters."""
        return {
            "connections": self.connections,
            "requests": self.requests,
            "responses_by_status": {
                str(status): count
                for status, count in sorted(self.responses_by_status.items())
            },
            "connections_dropped": dict(
                sorted(self.connections_dropped.items())
            ),
        }


def _encode_payload(result: Any) -> bytes:
    """Full envelope (query or search) to wire bytes (worker thread)."""
    return json.dumps(result.to_dict(), default=str).encode("utf-8")


#: Query parameters the search endpoints accept verbatim as strings.
_SEARCH_STRING_PARAMS = frozenset(
    ("q", "entity", "pattern", "corpus_version", "sort", "cursor",
     "client_id")
)
#: Query parameters parsed as floats (epoch-seconds date bounds).
_SEARCH_FLOAT_PARAMS = frozenset(("created_after", "created_before"))


def parse_search_query(query_string: str) -> Dict[str, Any]:
    """The shared, strict query-string parser for the search endpoints.

    Percent-decodes ``application/x-www-form-urlencoded`` pairs and
    returns a :meth:`~repro.service.api.FactSearchRequest.from_dict`-
    ready dict. Strictness is the point — one parser, one contract:

    - an *unknown* parameter name is a 400 (``invalid_request``), not
      silently ignored — a typo like ``?pattrn=`` must not return the
      unfiltered result set as if it had matched;
    - a malformed number for ``created_after`` / ``created_before`` /
      ``limit`` is a 400 naming the parameter;
    - ``limit`` is clamped to the API ceiling
      (:data:`~repro.service.search.query.MAX_SEARCH_LIMIT`) rather
      than rejected — asking for too much is a preference, not an
      error — while a non-positive limit is a 400;
    - blank values (``?q=``) are treated as absent.

    Raises :class:`~repro.service.api.ServiceError` (400) on any
    violation; the caller maps it onto the wire like every other
    taxonomy error.
    """
    out: Dict[str, Any] = {}
    for name, value in parse_qsl(query_string, keep_blank_values=True):
        if not value:
            continue
        if name in _SEARCH_STRING_PARAMS:
            out[name] = value
        elif name in _SEARCH_FLOAT_PARAMS:
            try:
                out[name] = float(value)
            except ValueError:
                raise invalid_request(
                    f"query parameter {name!r} must be a number, "
                    f"got {value!r}"
                )
        elif name == "limit":
            try:
                limit = int(value)
            except ValueError:
                raise invalid_request(
                    f"query parameter 'limit' must be an integer, "
                    f"got {value!r}"
                )
            if limit < 1:
                raise invalid_request(
                    f"query parameter 'limit' must be positive, "
                    f"got {limit}"
                )
            out["limit"] = min(limit, MAX_SEARCH_LIMIT)
        else:
            raise invalid_request(f"unknown query parameter {name!r}")
    return out


def parse_deltas_query(query_string: str) -> Dict[str, Any]:
    """The strict query-string parser for ``GET /v1/deltas``.

    Accepts exactly ``subscription`` (required), ``after`` (the cursor
    acknowledgment, a non-negative integer, default 0), and ``timeout``
    (the long-poll wait in seconds, a non-negative number, default 0 —
    the registry caps it server-side). Unknown or malformed parameters
    raise ``invalid_request`` (400), same contract as the search
    parser above.
    """
    out: Dict[str, Any] = {"after": 0, "timeout": 0.0}
    for name, value in parse_qsl(query_string, keep_blank_values=True):
        if not value:
            continue
        if name == "subscription":
            out["subscription"] = value
        elif name == "after":
            try:
                after = int(value)
            except ValueError:
                raise invalid_request(
                    f"query parameter 'after' must be an integer, "
                    f"got {value!r}"
                )
            if after < 0:
                raise invalid_request(
                    f"query parameter 'after' must be >= 0, got {after}"
                )
            out["after"] = after
        elif name == "timeout":
            try:
                timeout = float(value)
            except ValueError:
                raise invalid_request(
                    f"query parameter 'timeout' must be a number, "
                    f"got {value!r}"
                )
            if timeout < 0:
                raise invalid_request(
                    f"query parameter 'timeout' must be >= 0, got {timeout}"
                )
            out["timeout"] = timeout
        else:
            raise invalid_request(f"unknown query parameter {name!r}")
    if "subscription" not in out:
        raise invalid_request(
            "query parameter 'subscription' is required"
        )
    return out


def _error_payload(
    code: str, message: str, http_status: int = 400
) -> Dict[str, Any]:
    """A bare v1 error body for failures outside the query envelope —
    built through the taxonomy itself, so the wire shape has exactly
    one source (api.py)."""
    return _error_payload_from(
        ServiceError(message, code=code, http_status=http_status)
    )


def _error_payload_from(error: ServiceError) -> Dict[str, Any]:
    return {
        "api_version": API_VERSION,
        "status": error.status.value,
        "error": error.to_dict(),
    }


def _retry_headers(error: ServiceError) -> Dict[str, str]:
    """The Retry-After header for admission rejections (whole seconds,
    rounded up — HTTP wants an integer and retrying early just earns
    another rejection)."""
    if error.retry_after is None:
        return {}
    return {"Retry-After": str(max(1, math.ceil(error.retry_after)))}


__all__ = [
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_BODY_BYTES",
    "HttpGateway",
    "MAX_HEADER_LINES",
    "parse_deltas_query",
    "parse_search_query",
]
