"""Same-host multi-process KB shard fabric.

The fabric puts each shard of the serving KB store behind its own
socket server process (or in-process server thread) and reconnects
them through the existing :class:`~repro.service.sharding.ShardedKbStore`
routing layer, adding replication and online rebalance without
changing anything above the store seam:

- :mod:`repro.service.fabric.protocol` — length-prefixed JSON framing
  and the op table (:data:`~repro.service.fabric.protocol.OPS`) that
  drives the three pieces below;
- :mod:`repro.service.fabric.shard_server` — one shard's
  :class:`~repro.service.kb_store.KbStore` served over TCP;
- :mod:`repro.service.fabric.remote_store` — the client-side
  :class:`~repro.service.kb_store.KbBackend` with pooling, timeouts,
  bounded retry, and typed failure;
- :mod:`repro.service.fabric.cluster` — replica groups (one ordered
  replica write path, replica-first reads) and the :class:`Fabric`
  orchestrator the service wires in via
  ``ServiceConfig(store_backend="fabric")``.

See ``docs/FABRIC.md`` for the wire protocol, the consistency
contract, the online-rebalance state machine, and the failure matrix.
"""

from repro.service.fabric.cluster import (
    Fabric,
    REPLICA_COOLDOWN_SECONDS,
    ReplicatedShardClient,
    Replicator,
    fabric_replica_paths,
)
from repro.service.fabric.protocol import (
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    OPS,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.fabric.remote_store import (
    RemoteError,
    RemoteKbStore,
    ShardUnavailable,
    parse_address,
)
from repro.service.fabric.shard_server import ShardServer

__all__ = [
    "FRAME_VERSION",
    "Fabric",
    "MAX_FRAME_BYTES",
    "OPS",
    "ProtocolError",
    "REPLICA_COOLDOWN_SECONDS",
    "RemoteError",
    "RemoteKbStore",
    "ReplicatedShardClient",
    "Replicator",
    "ShardServer",
    "ShardUnavailable",
    "fabric_replica_paths",
    "parse_address",
    "recv_frame",
    "send_frame",
]
