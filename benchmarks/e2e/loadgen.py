"""HTTP load generation for ``gateway_hot``: one asyncio client thread.

Phase A is an **open loop**: requests leave on a fixed schedule over
one keep-alive connection whether or not earlier replies have arrived
(they queue in the socket, as independent users' requests would), and
each is timed from the moment it was *due* to the last body byte — so
a stall is charged to every request it delays (coordinated-omission
safe). Phase B is a **closed loop**: two keep-alive connections, each
sending its next request when the previous reply completes, for
saturation throughput.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Iterator, List, Sequence, Tuple

#: asyncio timers fire up to ~1 ms late (epoll granularity); the open
#: loop sleeps to within this margin of a due time, then yields to the
#: event loop until the instant arrives.
_SPIN_MARGIN_S = 0.0015

#: How long past its schedule a phase may wait for replies before the
#: outstanding requests are written off as failed.
PHASE_GRACE_S = 30.0

_TRANSPORT_ERRORS = (
    asyncio.IncompleteReadError,
    asyncio.LimitOverrunError,
    asyncio.TimeoutError,
    ConnectionError,
)


@dataclass
class PhaseResult:
    """What the client saw for one phase, indexed by request."""

    latencies_ms: List[float]
    statuses: List[int]
    bodies: List[bytes]
    wall_s: float
    #: CLOCK_MONOTONIC bounds of the phase, comparable with the span
    #: timestamps of the server process on the same host.
    window_ns: Tuple[int, int]
    late_ms: List[float] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.statuses)

    @property
    def ok(self) -> int:
        return sum(status == 200 for status in self.statuses)


def query_payload(query: str, source: str) -> bytes:
    """One framed ``POST /v1/query``."""
    body = json.dumps({"query": query, "source": source}).encode("utf-8")
    head = (
        "POST /v1/query HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length) if length else b""


async def get_json(host: str, port: int, path: str) -> dict:
    """One ``GET`` on a fresh connection (stats, health)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        await writer.drain()
        status, body = await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


async def open_loop(
    host: str, port: int, payloads: Sequence[bytes], rate: float
) -> PhaseResult:
    """Send ``payloads`` at ``rate`` per second on one connection."""
    reader, writer = await asyncio.open_connection(host, port)
    count = len(payloads)
    latencies = [0.0] * count
    statuses = [0] * count
    bodies: List[bytes] = [b""] * count
    late = [0.0] * count
    start_ns = perf_counter_ns()
    origin = perf_counter() + 0.005
    due = [origin + index / rate for index in range(count)]

    async def send() -> None:
        for index, payload in enumerate(payloads):
            wait = due[index] - perf_counter()
            if wait > _SPIN_MARGIN_S:
                await asyncio.sleep(wait - _SPIN_MARGIN_S)
            while perf_counter() < due[index]:
                await asyncio.sleep(0)
            late[index] = (perf_counter() - due[index]) * 1e3
            writer.write(payload)

    async def receive() -> None:
        for index in range(count):
            statuses[index], bodies[index] = await _read_response(reader)
            latencies[index] = (perf_counter() - due[index]) * 1e3

    # A reply that never comes (reset, hang) leaves status 0 on every
    # request still outstanding: they count as failed, not as missing.
    sender = asyncio.ensure_future(send())
    try:
        await asyncio.wait_for(receive(), count / rate + PHASE_GRACE_S)
    except _TRANSPORT_ERRORS:
        pass
    finally:
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
        writer.close()
        await asyncio.gather(writer.wait_closed(), return_exceptions=True)
    return PhaseResult(
        latencies_ms=latencies,
        statuses=statuses,
        bodies=bodies,
        wall_s=perf_counter() - origin,
        window_ns=(start_ns, perf_counter_ns()),
        late_ms=late,
    )


async def closed_loop(
    host: str, port: int, payloads: Sequence[bytes], connections: int
) -> PhaseResult:
    """Drain ``payloads`` through ``connections`` keep-alive
    connections, each waiting for its reply before sending again."""
    count = len(payloads)
    latencies = [0.0] * count
    statuses = [0] * count
    bodies: List[bytes] = [b""] * count
    pending: Iterator[int] = iter(range(count))

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for index in pending:
                sent = perf_counter()
                writer.write(payloads[index])
                statuses[index], bodies[index] = await _read_response(reader)
                latencies[index] = (perf_counter() - sent) * 1e3
        except _TRANSPORT_ERRORS:
            pass  # this connection is done; its request stays status 0
        finally:
            writer.close()
            await asyncio.gather(writer.wait_closed(), return_exceptions=True)

    start_ns = perf_counter_ns()
    started = perf_counter()
    clients = [asyncio.ensure_future(client()) for _ in range(connections)]
    # One deadline for the phase, not one per request: a per-request
    # wait_for would put a task switch on the measured round trip.
    _, hung = await asyncio.wait(clients, timeout=PHASE_GRACE_S + count * 0.01)
    for task in hung:
        task.cancel()
    await asyncio.gather(*clients, return_exceptions=True)
    return PhaseResult(
        latencies_ms=latencies,
        statuses=statuses,
        bodies=bodies,
        wall_s=perf_counter() - started,
        window_ns=(start_ns, perf_counter_ns()),
    )
