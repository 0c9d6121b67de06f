"""Deterministic fault-injection points for the serving tier.

The serving layer's crash-safety claims (atomic saves, recoverable
rebalance swaps, race-free pool resizes) were asserted in docstrings;
this module makes them *executable*. Production modules call
:func:`fault_point` at the crash-prone spots named in :data:`CATALOG`;
with no schedule armed the call is a single module-global ``None``
check — nothing is allocated, no lock is taken — so the hooks are
effectively compiled out of normal serving (``benchmarks/e2e``
measures with the hooks in place). Arming a
:class:`~repro.faultinject.schedule.FaultSchedule` via :func:`inject`
turns selected hits of selected points into deterministic faults:

- ``crash`` — raise :class:`SimulatedCrash` at the point. The crash is
  a ``BaseException`` (like ``KeyboardInterrupt``), so any ``except
  Exception`` cleanup handler that would swallow a real interrupt is
  exposed instead of silently passing the test;
- ``delay`` — sleep a few milliseconds at the point, deterministically
  widening a race window (resize-vs-serve, close-vs-dispatch);
- ``drop_conn`` — invoke the ``drop`` callable in the point's context
  (the fabric client passes one that closes its pooled socket), so a
  TCP connection dies mid-request exactly where a peer reset would
  land — the retry/fallback path is exercised against a real dead
  socket, not a mock.

One injector is active per process at a time (:data:`ACTIVE`); the
hit counting inside it is lock-protected, so concurrent serving
threads reaching the same point agree on who fires. Every fired action
is logged on the injector for the harness's failure reports.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Fault kinds an injection point may support.
KIND_CRASH = "crash"
KIND_DELAY = "delay"
KIND_DROP_CONN = "drop_conn"
KINDS = (KIND_CRASH, KIND_DELAY, KIND_DROP_CONN)

#: The injection-point catalog: every point threaded through the
#: serving tier, mapped to the fault kinds that make sense there.
#: Schedules are generated against this catalog (unknown points or
#: unsupported kinds are rejected when a schedule is armed), and
#: ``docs/TESTING.md`` documents each entry.
CATALOG: Dict[str, Tuple[str, ...]] = {
    # KbStore._save_locked: after the kb_entries row, before any fact
    # rows — a torn write that must roll back atomically.
    "kb_store.save.mid_entry": (KIND_CRASH, KIND_DELAY),
    # KbStore._save_locked: all rows written, commit not yet issued.
    "kb_store.save.pre_commit": (KIND_CRASH, KIND_DELAY),
    # KbStore.compact: TTL deletes done, size deletes/commit not yet.
    "kb_store.compact.mid": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.compact: between per-shard compactions.
    "sharding.compact.shard": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.rebalance: staging copy complete, swap not begun.
    "sharding.rebalance.staged": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.rebalance: inside the swap window — the original
    # directory is retired, the staging copy not yet promoted.
    "sharding.rebalance.mid_swap": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.rebalance: swap done, retired copy not reclaimed.
    "sharding.rebalance.pre_reclaim": (KIND_CRASH, KIND_DELAY),
    # QKBflyService._resize_pools: decision taken, resize not yet
    # applied (under the autoscale lock).
    "service.resize_pools": (KIND_CRASH, KIND_DELAY),
    # QKBflyService.close: marked closed, pool not yet shut down.
    "service.close": (KIND_DELAY,),
    # QKBflyService._begin on behalf of AsyncQKBflyService.serve: cold
    # path, gates passed, flight about to be submitted to the shared
    # executor (fires on the event loop).
    "async_service.dispatch": (KIND_CRASH, KIND_DELAY),
    # ShardServer request dispatch (server side, request decoded but
    # not yet executed): crash kills the serving connection without a
    # reply — a shard-server crash mid-op as seen from the client.
    "fabric.server.handle": (KIND_CRASH, KIND_DELAY),
    # RemoteKbStore request (client side, socket checked out, request
    # not yet sent): drop_conn closes the pooled socket under the
    # request; delay models a slow shard/replica.
    "fabric.remote.request": (KIND_DROP_CONN, KIND_DELAY),
    # Replicator: one queued write (any op) about to be delivered to
    # one replica. crash fails the delivery, which fences the replica
    # out of reads for the client's lifetime; delay widens the
    # replication lag window.
    "fabric.replicate.entry": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.online_rebalance: mover about to copy one entry
    # into its target shard (the double-write window is open).
    "sharding.online_rebalance.copy": (KIND_CRASH, KIND_DELAY),
    # ShardedKbStore.online_rebalance: full copy pass done, cutover
    # (routing swap + manifest rewrite) not yet applied.
    "sharding.online_rebalance.cutover": (KIND_CRASH, KIND_DELAY),
    # KbStore._save_locked, inside the save transaction, immediately
    # before the search-index rows for the entry are written — a crash
    # here must roll the entry and its index back together.
    "search.index.update": (KIND_CRASH, KIND_DELAY),
    # KbStore search read path, before the shard SQL executes — models
    # a shard dying or stalling mid-paginated-walk.
    "search.read.page": (KIND_CRASH, KIND_DELAY),
    # IngestPipeline.ingest: document processed and touched entities
    # computed, but nothing committed yet — a crash here must leave the
    # search engine, version vector, caches, and FTS5 index untouched.
    "ingest.commit": (KIND_CRASH, KIND_DELAY),
    # IngestPipeline.ingest: engine swapped and versions bumped, the
    # selective invalidation fan-out (cache/store/stage) in flight —
    # the ingest must not be acknowledged until this completes.
    "ingest.invalidate": (KIND_CRASH, KIND_DELAY),
    # SubscriptionRegistry delivery: a KB delta about to be pushed to
    # one subscriber (long-poll wakeup or webhook POST). crash before
    # the ack must redeliver; crash after must not double-deliver.
    "subscribe.deliver": (KIND_CRASH, KIND_DELAY),
}

#: Sleep applied by ``delay`` actions: long enough to reorder racing
#: threads, short enough that a schedule full of delays stays fast.
DELAY_SECONDS = 0.005


class SimulatedCrash(BaseException):
    """An injected crash at a fault point.

    Deliberately a ``BaseException`` (the ``KeyboardInterrupt`` /
    ``GeneratorExit`` class of interrupts): crash-cleanup paths that
    only catch ``Exception`` would mask exactly the failures this
    harness exists to find, so the simulated one takes the same route
    a real interrupt would.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class FaultInjector:
    """Runtime state of one armed schedule: hit counters + fired log.

    Args:
        schedule: The armed
            :class:`~repro.faultinject.schedule.FaultSchedule`. Its
            actions must name catalog points with supported kinds —
            arming an unknown point would silently never fire, so it
            raises instead.
    """

    def __init__(self, schedule: Any) -> None:
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._pending: Dict[Tuple[str, int], Any] = {}
        for action in schedule.actions:
            kinds = CATALOG.get(action.point)
            if kinds is None:
                raise ValueError(
                    f"unknown fault point {action.point!r} "
                    f"(catalog: {sorted(CATALOG)})"
                )
            if action.kind not in kinds:
                raise ValueError(
                    f"fault point {action.point!r} does not support "
                    f"kind {action.kind!r} (supported: {kinds})"
                )
            self._pending[(action.point, action.hit)] = action
        self.schedule = schedule
        #: Every action that actually fired, in firing order, as
        #: ``(point, hit, kind)`` — the harness prints this alongside a
        #: failing seed so the minimal repro is visible at a glance.
        self.fired: List[Tuple[str, int, str]] = []

    def fire(self, name: str, context: Dict[str, Any]) -> None:
        """Count one arrival at ``name``; execute a scheduled action.

        ``crash`` raises :class:`SimulatedCrash` *from the calling
        thread at the calling site* — exactly where a real interrupt
        would surface. An action fires at most once (its hit number
        matches a single arrival).
        """
        with self._lock:
            hit = self._hits.get(name, 0) + 1
            self._hits[name] = hit
            action = self._pending.pop((name, hit), None)
            if action is not None:
                self.fired.append((name, hit, action.kind))
        if action is None:
            return
        if action.kind == KIND_DELAY:
            time.sleep(action.seconds or DELAY_SECONDS)
        elif action.kind == KIND_DROP_CONN:
            drop = context.get("drop")
            if drop is not None:
                drop()
        elif action.kind == KIND_CRASH:
            raise SimulatedCrash(name, hit)

    def hit_counts(self) -> Dict[str, int]:
        """Arrivals per point so far (diagnostics)."""
        with self._lock:
            return dict(self._hits)


#: The armed injector, or None. Production call sites go through
#: :func:`fault_point`, whose disabled path is this one global read.
ACTIVE: Optional[FaultInjector] = None


def fault_point(name: str, **context: Any) -> None:
    """Mark a crash-prone spot in production code.

    Disabled (the default): a no-op after one module-global check.
    Armed: forwards to the active :class:`FaultInjector`, which may
    sleep, drop a connection, or raise :class:`SimulatedCrash` here.
    """
    injector = ACTIVE
    if injector is None:
        return
    injector.fire(name, context)


@contextmanager
def inject(schedule: Any) -> Iterator[FaultInjector]:
    """Arm ``schedule`` for the duration of the block.

    Yields the live :class:`FaultInjector` (for its fired log). One
    schedule may be armed at a time — nesting would make hit counts
    ambiguous, so it raises instead.
    """
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a fault schedule is already armed")
    injector = FaultInjector(schedule)
    ACTIVE = injector
    try:
        yield injector
    finally:
        ACTIVE = None


__all__ = [
    "ACTIVE",
    "CATALOG",
    "DELAY_SECONDS",
    "FaultInjector",
    "KINDS",
    "KIND_CRASH",
    "KIND_DELAY",
    "KIND_DROP_CONN",
    "SimulatedCrash",
    "fault_point",
    "inject",
]
