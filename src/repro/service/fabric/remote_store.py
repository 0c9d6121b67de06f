"""Client-side shard backend: the store surface over TCP.

:class:`RemoteKbStore` speaks the fabric protocol to one
:class:`~repro.service.fabric.shard_server.ShardServer` and implements
:class:`~repro.service.kb_store.KbBackend`: each surface method comes
from the op table and forwards to :meth:`RemoteKbStore.call`, which
binds the arguments against the protocol's signature, encodes them with
the op's codecs and decodes the result. ``ShardedKbStore`` (and
therefore the whole serving stack) composes local and remote shards
through the same backend-factory seam without knowing which is which.

Failure handling is explicit and bounded:

- every request runs under a per-request socket ``timeout``;
- transport failures (refused/reset/dropped connections, timeouts,
  torn frames) are retried up to ``retries`` times with exponential
  backoff, on a *fresh* connection each time;
- when the budget is exhausted the caller gets a typed
  :class:`ShardUnavailable` naming the shard address — the replicated
  read path catches exactly this type to fail over, and everything
  else propagates as the bug it is;
- a server-side exception is re-raised here immediately (no retry:
  the server answered, the operation itself failed — retrying a loud
  ``RuntimeError`` would just repeat it): ``SearchUnavailable`` by its
  type name, everything else as :class:`RemoteError`.

Connections are pooled (a small LIFO free list) and re-checked-in only
after a complete round trip, so a frame desync can never leak into the
next request.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.faultinject.points import fault_point
from repro.service.api import SearchUnavailable
from repro.service.fabric.protocol import (
    FRAME_VERSION,
    OPS,
    ProtocolError,
    backend_surface,
    recv_frame,
    send_frame,
)


def parse_address(address) -> Tuple[str, int]:
    """Accept ``(host, port)`` or ``"host:port"``; return the tuple."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"malformed shard address: {address!r}")
        return host, int(port)
    host, port = address
    return str(host), int(port)


class ShardUnavailable(Exception):
    """A shard could not be reached within the retry budget.

    The replicated read path treats this as "fail over"; at the top of
    the stack it means the fabric lost a shard's whole replica group.
    """

    def __init__(self, address: Tuple[str, int], detail: str) -> None:
        super().__init__(
            f"shard at {address[0]}:{address[1]} unavailable: {detail}"
        )
        self.address = address
        self.detail = detail


class RemoteError(Exception):
    """The server executed the operation and reported an exception."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


@backend_surface
class RemoteKbStore:
    """One shard server, presented as a local store; implements
    :class:`~repro.service.kb_store.KbBackend` (its methods come from
    the op table, :data:`~repro.service.fabric.protocol.OPS`).

    Args:
        address: ``(host, port)`` or ``"host:port"`` of the shard
            server.
        timeout: Per-request socket timeout in seconds (connect and
            each read/write).
        retries: Transport-failure retries per request (total attempts
            are ``retries + 1``).
        backoff_seconds: Base of the exponential retry backoff.
        pool_size: Idle connections kept for reuse; bursts above this
            open extra sockets that are closed on check-in.
    """

    def __init__(
        self,
        address,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_seconds: float = 0.02,
        pool_size: int = 2,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.pool_size = pool_size
        #: The shard's identity in logs, fault points and stats.
        self.path = f"fabric://{self.address[0]}:{self.address[1]}"
        self._pool: List[socket.socket] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self.requests = 0
        self.retried = 0
        self.dropped_connections = 0

    # ---- connection pool ---------------------------------------------------

    def _checkout(self) -> socket.socket:
        with self._pool_lock:
            if self._closed:
                raise ShardUnavailable(self.address, "client closed")
            if self._pool:
                return self._pool.pop()
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._pool_lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        try:
            sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass

    # ---- request core ------------------------------------------------------

    def _request(self, payload: Dict[str, Any]) -> Any:
        """One request frame, with bounded transport retries on fresh
        sockets; returns the result or raises the server's typed error."""
        with self._pool_lock:
            self.requests += 1
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                with self._pool_lock:
                    self.retried += 1
                time.sleep(self.backoff_seconds * (2 ** (attempt - 1)))
            try:
                sock = self._checkout()
            except OSError as error:
                last_error = error
                continue
            try:
                # The drop callable closes *this* socket: the injected
                # connection drop hits a real in-flight transport, and
                # the retry path below is what recovers from it.
                fault_point(
                    "fabric.remote.request",
                    op=payload["op"],
                    drop=sock.close,
                )
                send_frame(sock, payload)
                response = recv_frame(sock)
                if response is None:
                    raise ProtocolError("server closed the connection")
            except (OSError, ProtocolError) as error:
                with self._pool_lock:
                    self.dropped_connections += 1
                try:
                    sock.close()
                except OSError:  # pragma: no cover - already dead
                    pass
                last_error = error
                continue
            self._checkin(sock)
            if response.get("ok"):
                return response.get("result")
            remote_type = str(response.get("type", "Exception"))
            message = str(response.get("error", ""))
            if remote_type == SearchUnavailable.__name__:
                raise SearchUnavailable(message)
            raise RemoteError(remote_type, message)
        raise ShardUnavailable(
            self.address,
            f"{type(last_error).__name__}: {last_error} "
            f"after {self.retries + 1} attempt(s)",
        )

    # ---- KbBackend surface ------------------------------------------------

    def call(
        self,
        op: str,
        /,
        *args: Any,
        write_seq: Optional[int] = None,
        **kwargs: Any,
    ) -> Any:
        """Run backend op ``op`` on the shard server, with the arguments
        of the :class:`~repro.service.kb_store.KbBackend` method of that
        name. Every surface method forwards here.

        ``write_seq`` is the replication version check (see the shard
        server): a save carrying an older sequence than one already
        applied for its key is skipped server-side and returns -1.
        """
        spec = OPS[op]
        payload: Dict[str, Any] = {
            "v": FRAME_VERSION,
            "op": op,
            "args": spec.encode_args(spec.bind(*args, **kwargs)),
        }
        if write_seq is not None:
            payload["seq"] = int(write_seq)
        return spec.result.decode(self._request(payload))

    def healthz(self) -> Dict[str, Any]:
        """The server's health envelope (entries, ops, crash count)."""
        return self._request({"v": FRAME_VERSION, "op": "healthz", "args": {}})

    def client_stats(self) -> Dict[str, int]:
        """Transport counters for the fabric stats block."""
        with self._pool_lock:
            return {
                "requests": self.requests,
                "retried": self.retried,
                "dropped_connections": self.dropped_connections,
                "pooled": len(self._pool),
            }

    def __enter__(self) -> "RemoteKbStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "RemoteError",
    "RemoteKbStore",
    "ShardUnavailable",
    "parse_address",
]
