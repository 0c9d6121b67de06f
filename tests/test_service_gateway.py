"""HttpGateway end-to-end: real sockets, real HTTP, full taxonomy.

Every test drives a live `HttpGateway` bound to an ephemeral loopback
port and talks to it through raw `asyncio.open_connection` sockets —
the same wire a curl client would hit. Covers the acceptance path of
the v1 API: repeated query served with 200/`served_from="cache"`, an
over-limit client receiving 429 with Retry-After, a saturated executor
queue answering 503, and `/v1/stats` reflecting all of it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple

import pytest

from repro.service.async_service import AsyncQKBflyService
from repro.service.gateway import HttpGateway
from repro.service.service import QKBflyService, ServiceConfig


def _top_queries(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


class HttpClient:
    """A minimal keep-alive HTTP/1.1 client over one asyncio socket."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "HttpClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
        raw_body: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, str], dict]:
        """One request/response on the persistent connection."""
        payload = (
            raw_body
            if raw_body is not None
            else (json.dumps(body).encode() if body is not None else b"")
        )
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode()
        self._writer.write(head + payload)
        await self._writer.drain()

        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, response_headers, json.loads(raw) if raw else {}


def _gateway(service_session, **config_kwargs):
    config_kwargs.setdefault("max_workers", 4)
    service = AsyncQKBflyService(
        QKBflyService(
            service_session, service_config=ServiceConfig(**config_kwargs)
        ),
        own_service=True,
    )
    return HttpGateway(service, own_service=True)


# ---- the acceptance path ---------------------------------------------------


def test_query_roundtrip_cache_hit_and_stats(service_session):
    """Cold 200 via executor, repeat 200 via cache, stats see both."""

    async def scenario():
        async with _gateway(service_session) as gateway:
            name = _top_queries(service_session, 1)[0]
            async with HttpClient(gateway.host, gateway.port) as client:
                status, _, cold = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name, "client_id": "e2e"},
                )
                assert status == 200
                status, _, hot = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name, "client_id": "e2e"},
                )
                assert status == 200
                status, _, stats = await client.request("GET", "/v1/stats")
                assert status == 200
            return cold, hot, stats

    cold, hot, stats = asyncio.run(scenario())
    assert cold["status"] == "ok"
    assert cold["served_from"] == "executor"
    assert cold["api_version"] == "v1"
    assert cold["kb"]["facts"], "cold result carries the KB payload"
    assert cold["timings"]["pipeline_seconds"] > 0

    assert hot["served_from"] == "cache"
    assert hot["request_key"] == cold["request_key"]
    assert hot["kb"] == cold["kb"]
    assert hot["timings"]["total_seconds"] < cold["timings"]["total_seconds"]

    assert stats["cache"]["hits"] >= 1
    assert stats["pipeline_runs"] == 1
    assert stats["gateway"]["responses_by_status"]["200"] >= 2
    assert stats["gateway"]["requests"] >= 3


def test_rate_limited_client_gets_429_with_retry_after(service_session):
    async def scenario():
        async with _gateway(
            service_session, rate_limit_qps=0.001, rate_limit_burst=2
        ) as gateway:
            name = _top_queries(service_session, 1)[0]
            async with HttpClient(gateway.host, gateway.port) as client:
                responses = []
                for _ in range(4):
                    responses.append(
                        await client.request(
                            "POST",
                            "/v1/query",
                            body={"query": name, "client_id": "hammer"},
                        )
                    )
                # A different client id is admitted from its own bucket.
                other = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name, "client_id": "patient"},
                )
                _, _, stats = await client.request("GET", "/v1/stats")
            return responses, other, stats

    responses, other, stats = asyncio.run(scenario())
    statuses = [status for status, _, _ in responses]
    assert statuses == [200, 200, 429, 429]
    for status, headers, payload in responses[2:]:
        assert int(headers["retry-after"]) >= 1
        assert payload["status"] == "rate_limited"
        assert payload["error"]["code"] == "rate_limited"
        assert payload["error"]["retry_after"] > 0
        assert payload["kb"] is None
    assert other[0] == 200
    assert stats["admission"]["rate_limited"] == 2
    assert stats["gateway"]["responses_by_status"]["429"] == 2


def test_saturated_queue_answers_503_but_serves_hits(service_session):
    async def scenario():
        sync_service = QKBflyService(
            service_session,
            service_config=ServiceConfig(max_queue_depth=1, max_workers=4),
        )
        service = AsyncQKBflyService(sync_service, own_service=True)
        async with HttpGateway(service, own_service=True) as gateway:
            names = _top_queries(service_session, 3)
            async with HttpClient(gateway.host, gateway.port) as client:
                # Cache one query while the pipeline is still unblocked.
                status, _, _ = await client.request(
                    "POST", "/v1/query", body={"query": names[0]}
                )
                assert status == 200

                release = threading.Event()
                entered = threading.Event()
                original = sync_service._run_pipeline

                def gated(query, source, num_documents):
                    entered.set()
                    release.wait(timeout=30)
                    return original(
                        query, source=source, num_documents=num_documents
                    )

                sync_service._run_pipeline = gated
                try:
                    # Occupy the single queue slot with a slow cold query
                    # on a second connection (the response arrives only
                    # after release).
                    blocker_client = HttpClient(gateway.host, gateway.port)
                    await blocker_client.__aenter__()
                    blocked = asyncio.ensure_future(
                        blocker_client.request(
                            "POST", "/v1/query", body={"query": names[1]}
                        )
                    )
                    while not entered.is_set():
                        await asyncio.sleep(0.001)

                    # New cold work is shed with 503 + Retry-After...
                    shed = await client.request(
                        "POST", "/v1/query", body={"query": names[2]}
                    )
                    # ...while cache hits keep flowing on the same socket.
                    hit_status, _, hit = await client.request(
                        "POST", "/v1/query", body={"query": names[0]}
                    )
                finally:
                    release.set()
                    sync_service._run_pipeline = original
                blocked_status, _, _ = await blocked
                await blocker_client.__aexit__()
                _, _, stats = await client.request("GET", "/v1/stats")
            return shed, hit_status, hit, blocked_status, stats

    shed, hit_status, hit, blocked_status, stats = asyncio.run(scenario())
    status, headers, payload = shed
    assert status == 503
    assert int(headers["retry-after"]) >= 1
    assert payload["status"] == "overloaded"
    assert payload["error"]["code"] == "overloaded"
    assert hit_status == 200 and hit["served_from"] == "cache"
    assert blocked_status == 200
    assert stats["admission"]["overloaded"] == 1
    assert stats["gateway"]["responses_by_status"]["503"] == 1


# ---- protocol edges --------------------------------------------------------


def test_healthz_and_unknown_routes(service_session):
    async def scenario():
        async with _gateway(service_session) as gateway:
            async with HttpClient(gateway.host, gateway.port) as client:
                health = await client.request("GET", "/v1/healthz")
                missing = await client.request("GET", "/v1/nope")
                wrong_method = await client.request("GET", "/v1/query")
                wrong_method_health = await client.request(
                    "POST", "/v1/healthz"
                )
            corpus_version = gateway._service.corpus_version
            return (
                health,
                missing,
                wrong_method,
                wrong_method_health,
                corpus_version,
            )

    health, missing, wrong_method, wrong_health, corpus_version = asyncio.run(
        scenario()
    )
    status, _, payload = health
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["api_version"] == "v1"
    assert payload["corpus_version"] == corpus_version
    assert missing[0] == 404
    assert wrong_method[0] == 405
    assert wrong_method[1]["allow"] == "POST"
    assert wrong_health[0] == 405


@pytest.mark.parametrize("path", sorted(HttpGateway.ROUTES) + ["/v1/nope"])
def test_route_table_wrong_method_405_unknown_path_404(service_session, path):
    """Every route of the table answers its one method only; the 405
    names the allowed one. A path outside the table is a 404."""
    allowed = HttpGateway.ROUTES.get(path, (None, None))[0]
    wrong = "POST" if allowed == "GET" else "GET"

    async def scenario():
        async with _gateway(service_session) as gateway:
            async with HttpClient(gateway.host, gateway.port) as client:
                return await client.request(wrong, path)

    status, headers, payload = asyncio.run(scenario())
    if allowed is None:
        assert status == 404
        assert payload["error"]["code"] == "not_found"
    else:
        assert status == 405
        assert headers["allow"] == allowed
        assert payload["error"]["code"] == "method_not_allowed"


def test_malformed_bodies_get_400(service_session):
    async def scenario():
        async with _gateway(service_session) as gateway:
            async with HttpClient(gateway.host, gateway.port) as client:
                bad_json = await client.request(
                    "POST", "/v1/query", raw_body=b"{not json"
                )
                unknown_field = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": "ok", "quary": "typo"},
                )
                missing_query = await client.request(
                    "POST", "/v1/query", body={"client_id": "c"}
                )
                bad_version = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": "ok", "api_version": "v9"},
                )
            return bad_json, unknown_field, missing_query, bad_version

    bad_json, unknown_field, missing_query, bad_version = asyncio.run(
        scenario()
    )
    assert bad_json[0] == 400
    assert bad_json[2]["error"]["code"] == "invalid_json"
    assert unknown_field[0] == 400
    assert "quary" in unknown_field[2]["error"]["message"]
    assert missing_query[0] == 400
    assert bad_version[0] == 400


def test_chunked_transfer_encoding_rejected_with_411(service_session):
    """Chunked bodies are unsupported and must be rejected with the
    connection closed — silently skipping them would desync the
    keep-alive stream (chunk data read as the next request line)."""

    async def scenario():
        async with _gateway(service_session) as gateway:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"24\r\n" + b'{"query": "x"}' + b"\r\n0\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            rest = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            return status_line, rest

    status_line, rest = asyncio.run(scenario())
    assert b"411" in status_line
    # One response, then EOF: the chunk bytes were never parsed as a
    # second request.
    assert b"HTTP/1.1" not in rest


def test_oversized_body_gets_413(service_session):
    async def scenario():
        service = AsyncQKBflyService(
            QKBflyService(service_session), own_service=True
        )
        async with HttpGateway(
            service, own_service=True, max_body_bytes=256
        ) as gateway:
            async with HttpClient(gateway.host, gateway.port) as client:
                return await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": "x" * 1000},
                )

    status, _, payload = asyncio.run(scenario())
    assert status == 413
    assert payload["error"]["code"] == "payload_too_large"


def test_negative_content_length_gets_400(service_session):
    async def scenario():
        async with _gateway(service_session) as gateway:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return status_line

    status_line = asyncio.run(scenario())
    assert b"400" in status_line


def test_excessive_header_lines_get_400(service_session):
    async def scenario():
        async with _gateway(service_session) as gateway:
            results = []
            for repeat_name in (False, True):
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(b"GET /v1/healthz HTTP/1.1\r\n")
                for i in range(200):
                    # The cap counts lines read, so repeating one
                    # header name must trip it exactly like 200
                    # distinct names.
                    name = "X-Same" if repeat_name else f"X-Filler-{i}"
                    writer.write(f"{name}: x\r\n".encode())
                writer.write(b"\r\n")
                await writer.drain()
                results.append(await reader.readline())
                writer.close()
                await writer.wait_closed()
            return results

    for status_line in asyncio.run(scenario()):
        assert b"400" in status_line


def test_oversized_request_line_drops_connection_cleanly(service_session):
    """A request line past the StreamReader limit surfaces as
    ValueError; the handler must drop the connection, not crash."""

    async def scenario():
        async with _gateway(service_session) as gateway:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(b"GET /" + b"x" * 200_000 + b" HTTP/1.1\r\n\r\n")
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            # The gateway still serves subsequent connections.
            async with HttpClient(gateway.host, gateway.port) as client:
                status, _, _ = await client.request("GET", "/v1/healthz")
            return data, status, gateway.stats()

    data, status, stats = asyncio.run(scenario())
    assert data == b""  # dropped without a response, no crash
    assert status == 200
    # The drop is not swallowed invisibly: stats name its cause.
    assert stats["connections_dropped"]["line_too_long"] == 1


def test_stalled_body_is_reaped_not_leaked(service_session):
    """A client announcing a Content-Length and then stalling is
    disconnected after idle_timeout instead of pinning a handler."""

    async def scenario():
        service = AsyncQKBflyService(
            QKBflyService(service_session), own_service=True
        )
        async with HttpGateway(
            service, own_service=True, idle_timeout=0.2
        ) as gateway:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b"only a few bytes"
            )
            await writer.drain()
            # The server must close the connection (EOF), not answer.
            data = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            return data, gateway.stats()

    data, stats = asyncio.run(scenario())
    assert data == b""
    assert stats["connections_dropped"]["idle_timeout"] == 1


def test_mid_request_disconnect_is_counted_by_cause(service_session):
    """A client that sends a partial request and slams the connection
    shut is reaped and *counted* — the satellite regression for the
    silent-pass drop handling."""

    async def scenario():
        async with _gateway(service_session) as gateway:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: 500\r\n\r\n"
                b"partial"
            )
            await writer.drain()
            # Abort mid-body: the handler's readexactly sees EOF.
            writer.close()
            await writer.wait_closed()
            # Poll until the handler task observed the disconnect.
            for _ in range(100):
                if gateway.stats()["connections_dropped"]:
                    break
                await asyncio.sleep(0.01)
            # A healthy request afterwards: drops never wedge serving.
            async with HttpClient(gateway.host, gateway.port) as client:
                status, _, _ = await client.request("GET", "/v1/healthz")
            return status, gateway.stats()

    status, stats = asyncio.run(scenario())
    assert status == 200
    assert stats["connections_dropped"].get("client_disconnect", 0) == 1


def test_client_id_header_fallback(service_session):
    """Plain curl clients can pass identity via X-Client-Id."""

    async def scenario():
        async with _gateway(
            service_session, rate_limit_qps=0.001, rate_limit_burst=1
        ) as gateway:
            name = _top_queries(service_session, 1)[0]
            async with HttpClient(gateway.host, gateway.port) as client:
                first = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name},
                    headers={"X-Client-Id": "curl-1"},
                )
                limited = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name},
                    headers={"X-Client-Id": "curl-1"},
                )
                fresh = await client.request(
                    "POST",
                    "/v1/query",
                    body={"query": name},
                    headers={"X-Client-Id": "curl-2"},
                )
            return first, limited, fresh

    first, limited, fresh = asyncio.run(scenario())
    assert first[0] == 200
    assert first[2]["client_id"] == "curl-1"
    assert limited[0] == 429
    assert fresh[0] == 200


def test_keep_alive_and_connection_close(service_session):
    async def scenario():
        async with _gateway(service_session) as gateway:
            name = _top_queries(service_session, 1)[0]
            # Many requests over ONE connection (keep-alive).
            async with HttpClient(gateway.host, gateway.port) as client:
                for _ in range(3):
                    status, headers, _ = await client.request(
                        "POST", "/v1/query", body={"query": name}
                    )
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                # Connection: close is honored: the server ends the
                # connection after responding.
                status, headers, _ = await client.request(
                    "GET", "/v1/healthz", headers={"Connection": "close"}
                )
                assert headers["connection"] == "close"
                trailing = await client._reader.read()
                assert trailing == b""  # EOF: server closed
            connections = gateway.connections
            return connections

    connections = asyncio.run(scenario())
    assert connections == 1


def test_per_request_timeout_maps_to_504(service_session):
    async def scenario():
        sync_service = QKBflyService(service_session)
        service = AsyncQKBflyService(sync_service, own_service=True)
        async with HttpGateway(service, own_service=True) as gateway:
            release = threading.Event()
            original = sync_service._run_pipeline

            def slow(query, source, num_documents):
                release.wait(timeout=30)
                return original(
                    query, source=source, num_documents=num_documents
                )

            sync_service._run_pipeline = slow
            try:
                async with HttpClient(gateway.host, gateway.port) as client:
                    name = _top_queries(service_session, 1)[0]
                    status, _, payload = await client.request(
                        "POST",
                        "/v1/query",
                        body={"query": name, "timeout": 0.05},
                    )
            finally:
                release.set()
                sync_service._run_pipeline = original
            return status, payload

    status, payload = asyncio.run(scenario())
    assert status == 504
    assert payload["error"]["code"] == "timeout"


def test_concurrent_http_clients_share_single_flight(service_session):
    """N sockets asking the same cold query cost one pipeline run."""

    async def fetch_stats(gateway):
        async with HttpClient(gateway.host, gateway.port) as client:
            return await client.request("GET", "/v1/stats")

    async def scenario():
        async with _gateway(service_session) as gateway:
            name = _top_queries(service_session, 1)[0]

            async def one_client():
                async with HttpClient(gateway.host, gateway.port) as client:
                    return await client.request(
                        "POST", "/v1/query", body={"query": name}
                    )

            responses = await asyncio.gather(
                *(one_client() for _ in range(6))
            )
            _, _, stats = await fetch_stats(gateway)
            return responses, stats

    responses, stats = asyncio.run(scenario())
    assert all(status == 200 for status, _, _ in responses)
    payloads = [payload["kb"] for _, _, payload in responses]
    assert all(kb == payloads[0] for kb in payloads)
    assert stats["pipeline_runs"] == 1


# ---- the committed example -------------------------------------------------


def test_http_gateway_example_runs(capsys):
    """`examples/http_gateway.py` end to end against a live gateway."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "examples" / "http_gateway.py"
    spec = importlib.util.spec_from_file_location("example_http_gateway", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    asyncio.run(example.main())
    out = capsys.readouterr().out
    assert "served_from=executor" in out
    assert "served_from=cache" in out
    assert "429" in out and "Retry-After" in out
    assert "rate_limited" in out
