"""Socket server exposing one shard's :class:`KbStore` to the fabric.

A :class:`ShardServer` owns exactly one SQLite shard file and serves
every op of :data:`~repro.service.fabric.protocol.OPS` (plus the
``healthz`` probe) over the length-prefixed JSON protocol of
:mod:`repro.service.fabric.protocol`: :meth:`ShardServer.dispatch`
decodes the op's arguments, calls the store method of the same name and
encodes the result. Connections are persistent (one frame per request,
many requests per connection) and handled by the stdlib
``socketserver`` threading mix-in; the store's own lock serializes the
actual SQLite access, so the server adds concurrency at the socket
layer without changing the store's consistency story. A request of
another frame version is answered with a typed ``ProtocolError``.

Replica freshness: a ``save`` may carry a ``seq``. The server
remembers the highest sequence applied per entry key, in memory only,
and skips a save that carries an *older* sequence than one already
applied, so a retried or reordered delivery never regresses an entry.
A restarted server forgets these sequences; nothing resynchronizes a
replica file that missed writes (docs/FABRIC.md, replication).

Runs in-process (``ShardServer(...).start()`` — tests, same-process
fabrics) or standalone (``python -m repro.service.fabric.shard_server
--path shard.sqlite``) under the :mod:`scripts.run_fabric` supervisor.
"""

from __future__ import annotations

import argparse
import json
import socket
import socketserver
import sys
import threading
from dataclasses import replace
from typing import Any, Dict, Optional, Set, Tuple

from repro.faultinject.points import SimulatedCrash, fault_point
from repro.service.fabric.protocol import (
    FRAME_VERSION,
    OPS,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.kb_store import EntrySignature, KbStore


class _Handler(socketserver.BaseRequestHandler):
    """One persistent connection: frames in, frames out."""

    def setup(self) -> None:
        self.server.register_connection(self.request)

    def finish(self) -> None:
        self.server.forget_connection(self.request)

    def handle(self) -> None:
        while True:
            try:
                request = recv_frame(self.request)
            except (ProtocolError, OSError):
                return
            if request is None:
                return
            try:
                fault_point(
                    "fabric.server.handle",
                    op=request.get("op"),
                    server=self.server,
                )
                result = self.server.dispatch(request)
                response = {"ok": True, "result": result}
            except SimulatedCrash:
                # An injected shard-server crash: the connection dies
                # without a reply, exactly what the client of a killed
                # process would observe. The store's own BaseException
                # rollback has already run (or the op never started).
                self.server.note_crash()
                return
            except Exception as error:  # noqa: BLE001 - typed reply
                response = {
                    "ok": False,
                    "error": str(error),
                    "type": type(error).__name__,
                }
            try:
                send_frame(self.request, response)
            except OSError:
                return


class ShardServer(socketserver.ThreadingTCPServer):
    """Serve one shard file on a loopback TCP port.

    Args:
        path: SQLite file backing this shard (created if absent).
        host: Bind address; the fabric is same-host, so loopback.
        port: TCP port; 0 picks a free one (read it back from
            :attr:`address`).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, path: str, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.store = KbStore(path)
        self.store_path = path
        self.ops_served = 0
        self.crashes = 0
        self._lock = threading.Lock()
        self._applied_seq: Dict[EntrySignature, int] = {}
        self._connections: Set[socket.socket] = set()
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = False
        super().__init__((host, port), _Handler)

    # ---- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound (resolves ``port=0``)."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def start(self) -> threading.Thread:
        """Serve in a daemon thread; returns it (joined by ``stop``)."""
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"shard-server-{self.address[1]}",
            daemon=True,
        )
        self._serve_thread = thread
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop serving, sever live connections, close the store."""
        if self._stopped:
            return
        self._stopped = True
        if self._serve_thread is not None:
            # shutdown() waits for serve_forever to exit; calling it
            # without a serving thread would wait forever.
            self.shutdown()
        with self._lock:
            live = list(self._connections)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        self.server_close()
        self.store.close()

    def register_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.add(conn)

    def forget_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.discard(conn)

    def note_crash(self) -> None:
        with self._lock:
            self.crashes += 1

    # ---- dispatch ----------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Any:
        """Execute one request against the shard store: look the op up
        in :data:`~repro.service.fabric.protocol.OPS`, decode its
        arguments, call the store, encode the result."""
        version = request.get("v", 1)
        if version != FRAME_VERSION:
            raise ProtocolError(
                f"frame version {version!r} is not served: this shard "
                f"server speaks version {FRAME_VERSION}"
            )
        name = request.get("op")
        op = OPS.get(name)
        if op is None and name != "healthz":
            raise ValueError(f"unknown fabric op: {name!r}")
        with self._lock:
            self.ops_served += 1
            ops, crashes = self.ops_served, self.crashes
        if op is None:
            return {
                "ok": True,
                "path": self.store_path,
                "entries": self.store.entry_count(),
                "ops_served": ops,
                "crashes": crashes,
            }
        args = request.get("args") or {}
        seq = request.get("seq")
        if name == "save" and seq is not None and not self._admit(
            args["key"], int(seq)
        ):
            return -1
        member = getattr(self.store, name)
        if not op.attribute:
            member = member(**op.decode_args(args))
        return op.result.encode(member)

    def _admit(self, key: Dict[str, Any], write_seq: int) -> bool:
        """The ``write_seq`` check: False for a retried or reordered
        older delivery, which would regress the entry."""
        tracked = replace(EntrySignature.from_dict(key), created_at=None)
        with self._lock:
            last = self._applied_seq.get(tracked)
            if last is not None and write_seq < last:
                return False
            self._applied_seq[tracked] = write_seq
            return True


def main(argv: Optional[list] = None) -> int:
    """Standalone entry point: serve one shard until interrupted.

    Announces the bound address as one JSON line on stdout so a
    supervisor launching with ``--port 0`` can learn the real port.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", required=True,
                        help="SQLite shard file to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    options = parser.parse_args(argv)
    server = ShardServer(options.path, host=options.host, port=options.port)
    host, port = server.address
    print(json.dumps({"host": host, "port": port, "path": options.path}),
          flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    sys.exit(main())


__all__ = ["ShardServer", "main"]
