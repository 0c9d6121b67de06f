"""Length-prefixed JSON framing and the op table of the shard fabric.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON. Requests are ``{"v": FRAME_VERSION, "op": <name>,
"args": {...}}`` (a replicated write adds ``"seq"``); responses are
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": <message>,
"type": <exception class name>}``. The payloads reuse the
deterministic ``to_dict``/``from_dict`` wire forms the KB model and
the store signatures already have — the fabric adds framing, not a
second serialization story.

Framing (rather than newline-delimited JSON) keeps the protocol safe
for KB payloads that may embed any text, and makes a torn connection
detectable: a reader either gets a complete frame or a
:class:`ProtocolError` / clean EOF, never half a message parsed as a
whole one.

:data:`OPS` is the one declaration of what crosses the wire: for each
:class:`~repro.service.kb_store.KbBackend` op, its routing kind and its
argument and result codecs. The client's methods, the server's
dispatch and the replica group's routing are all driven by it. A keyed
op's seven key fields travel as one object, the
:class:`~repro.service.kb_store.EntrySignature` wire form.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import socket
import struct
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

from repro.kb.facts import KnowledgeBase
from repro.service.kb_store import EntrySignature, KbBackend

#: Hard ceiling on one frame, far above any real KB entry — a
#: corrupted length prefix must fail fast, not allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Request frame version. Version 1 sent the key as seven flat
#: arguments; a server answers any other version with a typed error.
FRAME_VERSION = 2

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, oversized or wrong-version frame."""


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Serialize ``payload`` and write one complete frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on EOF at a frame boundary.

    EOF *inside* a frame is a torn message and raises — the caller must
    not mistake it for an orderly close.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/"
                f"{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one complete frame; None on clean EOF before any byte."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES}"
        )
    body = _recv_exact(sock, length)
    if body is None:  # pragma: no cover - EOF between header and body
        raise ProtocolError("connection closed between header and body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


# ---- the op table -----------------------------------------------------------

#: Routing kinds. A replica group reads ``REPLICA_READ`` ops from the
#: least-loaded healthy replica with primary fallback, ``PRIMARY_READ``
#: ops from the primary only, and commits ``WRITE`` ops on the primary
#: before queueing them for every replica. An ``INVALIDATE`` op is a
#: write that returns only after its replica deliveries were attempted.
REPLICA_READ = "replica-first read"
PRIMARY_READ = "primary-only read"
WRITE = "write"
INVALIDATE = "invalidating write"


class Codec(NamedTuple):
    """Maps one value to its JSON wire form and back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


_PLAIN = Codec(_same, _same)
_KB = Codec(KnowledgeBase.to_dict, KnowledgeBase.from_dict)
_OPTIONAL_KB = Codec(
    lambda kb: None if kb is None else kb.to_dict(),
    lambda data: None if data is None else KnowledgeBase.from_dict(data),
)
_ATTEMPT = Codec(
    lambda pair: [bool(pair[0]), _OPTIONAL_KB.encode(pair[1])],
    lambda pair: (bool(pair[0]), _OPTIONAL_KB.decode(pair[1])),
)
_SIGNATURES = Codec(
    lambda sigs: [sig.to_dict() for sig in sigs],
    lambda data: [EntrySignature.from_dict(sig) for sig in data],
)
_STRINGS = Codec(
    lambda values: [str(value) for value in values],
    lambda values: [str(value) for value in values],
)

_KEY_FIELDS = tuple(field.name for field in dataclasses.fields(EntrySignature))


class Op:
    """One :class:`KbBackend` op on the wire.

    The parameters, their defaults and whether the op is a property
    come from the ``KbBackend`` member of the same name. An op that
    takes a ``query`` is keyed: its key fields cross as one ``"key"``
    object. ``args`` holds the codecs of the other non-JSON arguments.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        args: Optional[Mapping[str, Codec]] = None,
        result: Codec = _PLAIN,
    ) -> None:
        self.name = name
        self.kind = kind
        self.result = result
        member = inspect.getattr_static(KbBackend, name)
        self.attribute = isinstance(member, property)
        parameters = (
            []
            if self.attribute
            else list(inspect.signature(member).parameters.values())[1:]
        )
        self.signature = inspect.Signature(parameters)
        names = self.signature.parameters
        self.key_fields = (
            [field for field in _KEY_FIELDS if field in names]
            if "query" in names
            else []
        )
        self._codecs = {
            name: (args or {}).get(name, _PLAIN)
            for name in names
            if name not in self.key_fields
        }

    def bind(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        """The call's arguments by name, defaults applied; raises
        TypeError exactly like a direct call with a bad argument list."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    def encode_args(self, arguments: Mapping[str, Any]) -> Dict[str, Any]:
        """Bound arguments -> the request's ``args`` object."""
        wire = {
            name: codec.encode(arguments[name])
            for name, codec in self._codecs.items()
        }
        if self.key_fields:
            wire["key"] = EntrySignature(
                **{field: arguments[field] for field in self.key_fields}
            ).to_dict()
        return wire

    def decode_args(self, wire: Mapping[str, Any]) -> Dict[str, Any]:
        """Inverse of :meth:`encode_args`; a missing argument raises
        KeyError."""
        arguments = {
            name: codec.decode(wire[name])
            for name, codec in self._codecs.items()
        }
        if self.key_fields:
            key = EntrySignature.from_dict(wire["key"])
            for field in self.key_fields:
                arguments[field] = getattr(key, field)
        return arguments


#: Every backend op the fabric serves, by name. ``healthz`` is the one
#: request outside the table: a server probe, not a store op.
OPS: Dict[str, Op] = {
    op.name: op
    for op in (
        Op("load", REPLICA_READ, result=_OPTIONAL_KB),
        Op("try_load", REPLICA_READ, result=_ATTEMPT),
        Op("corpus_version", PRIMARY_READ),
        Op("signatures", PRIMARY_READ, result=_SIGNATURES),
        Op("entry_count", PRIMARY_READ),
        Op("stats", PRIMARY_READ),
        # A keyset walk must see one shard timeline: pages bounced
        # between the primary and a lagging replica could skip rows.
        Op("search_facts", PRIMARY_READ),
        Op("search_entities", PRIMARY_READ),
        Op("save", WRITE, args={"kb": _KB}),
        Op("set_corpus_version", WRITE),
        Op("delete_signatures", INVALIDATE, args={"signatures": _SIGNATURES}),
        Op("delete_stale", INVALIDATE),
        Op("delete_for_entities", INVALIDATE, args={"entities": _STRINGS}),
        Op("compact", INVALIDATE),
    )
}


def backend_surface(cls: type) -> type:
    """Class decorator: give ``cls`` one member per op in :data:`OPS`,
    each forwarding to ``cls.call(op_name, *args, **kwargs)`` and
    documented (and introspected) as the ``KbBackend`` member it
    stands for."""
    for name, op in OPS.items():
        member = inspect.getattr_static(KbBackend, name)
        setattr(cls, name, _forwarder(name, member, op.attribute))
    return cls


def _forwarder(name: str, member: Any, attribute: bool) -> Any:
    if attribute:

        def read(self: Any) -> Any:
            return self.call(name)

        return property(functools.update_wrapper(read, member.fget))

    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        return self.call(name, *args, **kwargs)

    return functools.update_wrapper(method, member)


__all__ = [
    "Codec",
    "FRAME_VERSION",
    "INVALIDATE",
    "MAX_FRAME_BYTES",
    "OPS",
    "Op",
    "PRIMARY_READ",
    "ProtocolError",
    "REPLICA_READ",
    "WRITE",
    "backend_surface",
    "recv_frame",
    "send_frame",
]
