"""Replica groups and the fabric that wires them behind the router.

- :class:`Replicator` — the fabric's one ordered log of replica writes;
- :class:`ReplicatedShardClient` — one shard's replica group behind
  :class:`~repro.service.kb_store.KbBackend`, routed by the op table;
- :class:`Fabric` — owns the shard servers (in-process, or none in
  connect mode), the replicator, and the :class:`ShardedKbStore`
  whose ``backend_factory`` it supplies — which is also what lets the
  router's *online rebalance* provision a whole new generation of
  replicated shards mid-flight.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.faultinject.points import SimulatedCrash, fault_point
from repro.service.fabric.protocol import (
    INVALIDATE,
    OPS,
    PRIMARY_READ,
    REPLICA_READ,
    backend_surface,
)
from repro.service.fabric.remote_store import (
    RemoteKbStore,
    ShardUnavailable,
    parse_address,
)
from repro.service.fabric.shard_server import ShardServer
from repro.service.sharding import ShardedKbStore

#: Seconds a replica sits out of the read rotation after a transport
#: failure before being probed again.
REPLICA_COOLDOWN_SECONDS = 1.0


class Replicator:
    """The fabric's one ordered log of replica writes.

    Every replica write is queued here as one ``(replica, op, args)``
    delivery after its primary ack, and one background thread attempts
    the deliveries in queue order, so a replica applies a group's
    writes in the order its primary committed them. A delivery that
    fails — or is submitted after :meth:`stop` — **fences** its
    replica: the replica's later deliveries are skipped and it leaves
    the read rotation for good (:meth:`is_fenced`). A replica in the
    rotation has therefore applied every write sent to it, in order.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._submitted = 0
        self._attempted = 0
        self._stopped = False
        self._fenced: Set[RemoteKbStore] = set()
        self.propagated = 0
        self.dropped = 0
        self._thread = threading.Thread(
            target=self._run, name="fabric-replicator", daemon=True
        )
        self._thread.start()

    def submit(
        self, replica: RemoteKbStore, op: str, args: Dict[str, Any]
    ) -> int:
        """Queue ``replica.call(op, **args)``; returns the ticket that
        :meth:`wait` takes."""
        with self._cond:
            if self._stopped:
                self._fenced.add(replica)
                self.dropped += 1
                return self._submitted
            self._queue.append((replica, op, args))
            self._submitted += 1
            self._cond.notify_all()
            return self._submitted

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if not self._queue:
                    return
                replica, op, args = self._queue.popleft()
                fenced = replica in self._fenced
            delivered = False
            if not fenced:
                try:
                    fault_point(
                        "fabric.replicate.entry", replica=replica.path, op=op
                    )
                    replica.call(op, **args)
                    delivered = True
                except (SimulatedCrash, Exception):  # noqa: BLE001 - fence
                    pass
            with self._cond:
                self._attempted += 1
                if delivered:
                    self.propagated += 1
                else:
                    self.dropped += 1
                    self._fenced.add(replica)
                self._cond.notify_all()

    def wait(self, ticket: int) -> None:
        """Block until every delivery up to ``ticket`` was attempted
        (event-wait, no polling sleep; each attempt is bounded by the
        replica client's timeout and retries)."""
        with self._cond:
            self._cond.wait_for(lambda: self._attempted >= ticket)

    def flush(self, timeout: float = 30.0) -> bool:
        """Block until every queued delivery was attempted; False on
        timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._attempted >= self._submitted, timeout=timeout
            )

    def is_fenced(self, replica: RemoteKbStore) -> bool:
        """Whether a failed delivery took ``replica`` out of service."""
        with self._cond:
            return replica in self._fenced

    def stop(self) -> None:
        """Drain the queue, then stop the thread."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join(timeout=30)

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "pending": len(self._queue),
                "propagated": self.propagated,
                "dropped": self.dropped,
            }


@backend_surface
class ReplicatedShardClient:
    """One shard's replica group — a primary plus R-1 replicas —
    behind :class:`~repro.service.kb_store.KbBackend`. Each op takes the
    path its kind in :data:`~repro.service.fabric.protocol.OPS` names.

    The contract (docs/FABRIC.md): a write is acknowledged iff the
    **primary** committed it, and reaches the replicas in primary-ack
    order; an invalidation returns only after its own replica
    deliveries were attempted; a replica read comes only from an
    unfenced replica, so it can *miss* (the primary answers) but never
    serve an entry the primary dropped before the read began.
    """

    def __init__(
        self,
        primary: RemoteKbStore,
        replicas: Sequence[RemoteKbStore],
        replicator: Replicator,
    ) -> None:
        self.primary = primary
        self.replicas = list(replicas)
        self._replicator = replicator
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        # Clock-seeded, so a later client's deliveries are never older
        # than an earlier client's for the replicas' write_seq check.
        self._write_seq = time.time_ns()
        self._inflight = [0] * len(self.replicas)
        self._unhealthy_until = [0.0] * len(self.replicas)
        self.replica_reads = 0
        self.replica_hits = 0
        self.replica_misses = 0
        self.replica_errors = 0
        self.primary_reads = 0
        #: The group's identity in logs and stats: the primary's address.
        self.path = primary.path

    def call(self, op: str, /, *args: Any, **kwargs: Any) -> Any:
        """Run backend op ``op`` on the group, routed by its kind."""
        spec = OPS[op]
        arguments = spec.bind(*args, **kwargs)
        if spec.kind == REPLICA_READ:
            return self._read(op, arguments)
        if spec.kind == PRIMARY_READ:
            return self.primary.call(op, **arguments)
        return self._write(op, arguments, wait=spec.kind == INVALIDATE)

    # ---- replica selection -------------------------------------------------

    def _pick_replica(self) -> Optional[int]:
        """Least-loaded healthy replica, or None to read the primary."""
        serving = [
            not self._replicator.is_fenced(replica)
            for replica in self.replicas
        ]
        now = time.monotonic()
        with self._lock:
            candidates = [
                (self._inflight[i], i)
                for i in range(len(self.replicas))
                if serving[i] and self._unhealthy_until[i] <= now
            ]
            if not candidates:
                return None
            _, index = min(candidates)
            self._inflight[index] += 1
            return index

    def _release_replica(self, index: int, failed: bool) -> None:
        with self._lock:
            self._inflight[index] -= 1
            if failed:
                self._unhealthy_until[index] = (
                    time.monotonic() + REPLICA_COOLDOWN_SECONDS
                )
                self.replica_errors += 1

    # ---- the three paths ---------------------------------------------------

    def _read(self, op: str, arguments: Dict[str, Any]) -> Any:
        """Replica first; the primary answers a miss, a busy replica
        (``try_load`` not attempted) or a :class:`ShardUnavailable`."""
        index = self._pick_replica()
        if index is not None:
            with self._lock:
                self.replica_reads += 1
            failed = False
            try:
                result = self.replicas[index].call(op, **arguments)
                attempted, kb = (
                    result if isinstance(result, tuple) else (True, result)
                )
                if kb is not None:
                    with self._lock:
                        self.replica_hits += 1
                    return result
                if attempted:
                    with self._lock:
                        self.replica_misses += 1
            except ShardUnavailable:
                failed = True
            finally:
                self._release_replica(index, failed)
        with self._lock:
            self.primary_reads += 1
        return self.primary.call(op, **arguments)

    def _write(self, op: str, arguments: Dict[str, Any], wait: bool) -> Any:
        """Primary first (the ack), then one queued delivery per
        replica; an invalidation also waits for those deliveries."""
        if "created_at" in arguments and arguments["created_at"] is None:
            # Replicas age the entry from the primary's stamp, so a TTL
            # compaction drops the same rows on every member.
            arguments["created_at"] = time.time()
        acked = False
        ticket = 0
        with self._write_lock:
            try:
                result = self.primary.call(op, **arguments)
                acked = True
            finally:
                # An invalidation the primary may have applied before
                # its reply was lost still reaches the replicas:
                # deleting there only turns a replica hit into a
                # primary read.
                if acked or wait:
                    self._write_seq += 1
                    args = dict(arguments, write_seq=self._write_seq)
                    for replica in self.replicas:
                        ticket = self._replicator.submit(replica, op, args)
        if wait:
            self._replicator.wait(ticket)
        return result

    def close(self) -> None:
        self.primary.close()
        for replica in self.replicas:
            replica.close()

    def fabric_stats(self) -> Dict[str, Any]:
        """Read fan-out, fencing and transport counters for this group."""
        fenced = [
            replica.path
            for replica in self.replicas
            if self._replicator.is_fenced(replica)
        ]
        with self._lock:
            out: Dict[str, Any] = {
                "primary": self.primary.path,
                "replicas": [replica.path for replica in self.replicas],
                "fenced": fenced,
                "replica_reads": self.replica_reads,
                "replica_hits": self.replica_hits,
                "replica_misses": self.replica_misses,
                "replica_errors": self.replica_errors,
                "primary_reads": self.primary_reads,
            }
        out["transport"] = self.primary.client_stats()
        return out


class Fabric:
    """A same-host shard fabric: servers, clients, router, mover.

    Build one with :meth:`launch_local` (in-process servers over a
    store directory — tests, single-host deployments driven by one
    service) or :meth:`connect` (servers launched elsewhere, e.g. by
    ``scripts/run_fabric.py``). Either way, :attr:`store` is a
    :class:`ShardedKbStore` whose backends are
    :class:`ReplicatedShardClient` groups, so the serving stack above
    it is unchanged — including
    :meth:`~repro.service.sharding.ShardedKbStore.online_rebalance`,
    which asks this fabric's backend factory for a fresh generation of
    replicated shards (launch-local mode only: in connect mode the
    fabric cannot provision servers and the factory raises).
    """

    def __init__(self, replication_factor: int = 1) -> None:
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self.replication_factor = replication_factor
        self.replicator = Replicator()
        self.store: Optional[ShardedKbStore] = None
        self._servers: List[ShardServer] = []
        self._clients: List[ReplicatedShardClient] = []
        self._lock = threading.Lock()
        self._connect_addresses: Optional[List[List[Tuple[str, int]]]] = None
        self._request_timeout = 10.0
        self._closed = False

    # ---- construction ------------------------------------------------------

    @classmethod
    def launch_local(
        cls,
        directory: str,
        num_shards: Optional[int] = None,
        replication_factor: int = 1,
        request_timeout: float = 10.0,
    ) -> "Fabric":
        """In-process fabric: one :class:`ShardServer` (thread) per
        shard replica over files in ``directory``; replica files sit
        next to the primary with an ``.r<N>`` suffix."""
        fabric = cls(replication_factor=replication_factor)
        fabric._request_timeout = request_timeout
        fabric.store = ShardedKbStore(
            directory,
            num_shards=num_shards,
            backend_factory=fabric._launch_backend,
        )
        return fabric

    @classmethod
    def connect(
        cls,
        directory: str,
        addresses: Sequence[Sequence[Any]],
        request_timeout: float = 10.0,
    ) -> "Fabric":
        """Fabric over externally launched shard servers.

        ``addresses`` is one list per shard — the primary first, then
        its replicas (``"host:port"`` strings or ``(host, port)``
        pairs); the replication factor is the group width.
        ``directory`` holds the routing manifest only.
        """
        if not addresses:
            raise ValueError("addresses must name at least one shard")
        groups = [
            [parse_address(address) for address in group]
            for group in addresses
        ]
        widths = {len(group) for group in groups}
        if not widths or 0 in widths:
            raise ValueError("every shard needs at least a primary address")
        if len(widths) != 1:
            raise ValueError(
                f"uneven replica groups: {sorted(widths)} — every shard "
                "must have the same replication factor"
            )
        fabric = cls(replication_factor=widths.pop())
        fabric._request_timeout = request_timeout
        fabric._connect_addresses = groups
        fabric.store = ShardedKbStore(
            directory,
            num_shards=len(groups),
            backend_factory=fabric._connect_backend,
        )
        return fabric

    # ---- backend factories -------------------------------------------------

    def _group_client(
        self, members: Sequence[RemoteKbStore]
    ) -> ReplicatedShardClient:
        client = ReplicatedShardClient(
            members[0], members[1:], self.replicator
        )
        with self._lock:
            self._clients.append(client)
        return client

    def _launch_backend(self, index: int, path: str) -> ReplicatedShardClient:
        """Start ``replication_factor`` servers for one shard path and
        return the replica-group client (the ``ShardedKbStore`` backend
        factory — also invoked by online rebalance for new
        generations)."""
        members: List[RemoteKbStore] = []
        for replica_no in range(self.replication_factor):
            replica_path = (
                path if replica_no == 0 else f"{path}.r{replica_no}"
            )
            server = ShardServer(replica_path)
            server.start()
            with self._lock:
                self._servers.append(server)
            members.append(
                RemoteKbStore(
                    server.address, timeout=self._request_timeout
                )
            )
        return self._group_client(members)

    def _connect_backend(self, index: int, path: str) -> ReplicatedShardClient:
        if self._connect_addresses is None or index >= len(
            self._connect_addresses
        ):
            raise RuntimeError(
                f"no addresses for shard {index}: a connect-mode fabric "
                "cannot provision servers (online rebalance to a new "
                "shard count needs launch_local, or new servers plus a "
                "new connect)"
            )
        return self._group_client(
            [
                RemoteKbStore(address, timeout=self._request_timeout)
                for address in self._connect_addresses[index]
            ]
        )

    # ---- operations --------------------------------------------------------

    def flush_replication(self, timeout: float = 30.0) -> bool:
        """Wait for queued replica deliveries (tests, clean shutdown)."""
        return self.replicator.flush(timeout=timeout)

    def online_rebalance(self, num_shards: int) -> int:
        """Online-rebalance the routed store (see ``ShardedKbStore``);
        new-generation shards are provisioned through this fabric."""
        if self.store is None:
            raise RuntimeError("fabric has no store")
        return self.store.online_rebalance(num_shards)

    def plan_rebalance(self, threshold: float = 1.5) -> Optional[int]:
        """Suggest a shard count when the balance signal crosses
        ``threshold`` (max/mean of ``shard_entry_counts``); None when
        the fabric is balanced enough. Purely advisory — the operator
        (or a test) passes the suggestion to :meth:`online_rebalance`."""
        if self.store is None:
            raise RuntimeError("fabric has no store")
        imbalance = self.store.shard_imbalance()
        if imbalance <= threshold:
            return None
        return self.store.num_shards + 1

    def stats(self) -> Dict[str, Any]:
        """The ``fabric`` block of ``QKBflyService.stats()``."""
        with self._lock:
            clients = list(self._clients)
            servers = len(self._servers)
        store = self.store
        return {
            "replication_factor": self.replication_factor,
            "num_shards": store.num_shards if store is not None else 0,
            "servers": servers,
            "rebalance_in_progress": (
                store.rebalance_in_progress() if store is not None else False
            ),
            "replication": self.replicator.stats(),
            "shards": [client.fabric_stats() for client in clients],
        }

    def close(self) -> None:
        """Stop replication, close clients, stop in-process servers."""
        if self._closed:
            return
        self._closed = True
        self.replicator.stop()
        if self.store is not None:
            self.store.close()
        with self._lock:
            clients = list(self._clients)
            servers = list(self._servers)
        for client in clients:
            client.close()
        for server in servers:
            server.stop()

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fabric_replica_paths(directory: str, num_shards: int,
                         replication_factor: int) -> List[List[str]]:
    """The file layout ``launch_local`` / ``run_fabric.py`` use: per
    shard, the primary file then ``.r<N>`` replica siblings."""
    base = Path(directory)
    out: List[List[str]] = []
    for index in range(num_shards):
        primary = str(base / f"shard-{index:03d}.sqlite")
        group = [primary]
        group.extend(
            f"{primary}.r{replica_no}"
            for replica_no in range(1, replication_factor)
        )
        out.append(group)
    return out


__all__ = [
    "Fabric",
    "REPLICA_COOLDOWN_SECONDS",
    "ReplicatedShardClient",
    "Replicator",
    "fabric_replica_paths",
]
