"""Per-client admission control: rate limits, measured shedding.

A serving deployment that accepts every request degrades for everyone
at once; admission control degrades *selectively* instead, and makes
the degradation part of the API contract (:mod:`repro.service.api`).
Two independent mechanisms compose, each optional:

- **per-client rate limiting** — one token bucket per ``client_id``,
  refilled at ``rate_limit_qps`` requests/second with a burst
  allowance of ``rate_limit_burst`` tokens. A client over budget gets
  a :class:`~repro.service.api.RateLimited` (HTTP 429) with a
  ``retry_after`` telling it exactly when its next token lands — other
  clients are untouched;
- **global load shedding** — when the executor already has
  ``max_queue_depth`` distinct computations in flight, *new* cold work
  is rejected with :class:`~repro.service.api.Overloaded` (HTTP 503)
  instead of queuing without bound. Requests that join an existing
  in-flight computation are exempt (they add no work), cache hits
  never reach this check at all, and a store-servable request is
  rescued with one read instead of shed — under overload the service
  keeps answering everything it can answer cheaply. The ``retry_after``
  hint on a shed is **measured**, not fixed policy: it is derived from
  the :class:`QueueWaitWindow` — a sliding window of executor
  entry→start latencies — so clients are told how long requests are
  *actually* waiting right now (falling back to the configured
  ``overload_retry_after`` only while the window is empty).

A third, derived mechanism rides on the measured queue waits:
**queue-wait-aware deadline admission**
(:meth:`AdmissionController.check_deadline`) rejects a request whose
per-request ``timeout`` cannot survive the p95 of recently measured
queue waits — a fast :class:`~repro.service.api.DeadlineUnmet` (504)
at admission instead of a doomed enqueue whose result nobody collects.

One :class:`AdmissionController` is shared by every front end (sync,
asyncio, HTTP), so the rate limits hold across entry points. Its critical
sections are a few dict operations under one lock — microsecond-scale,
which is what allows the asyncio front end to consult it directly on
the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Optional

from repro.service.api import Overloaded, RateLimited, deadline_unmet

#: Idle client buckets are dropped once the table exceeds this, oldest
#: first — an abusive client id space must not grow memory unboundedly.
DEFAULT_MAX_TRACKED_CLIENTS = 1024

#: Default sample capacity of a :class:`QueueWaitWindow`.
DEFAULT_QUEUE_WAIT_WINDOW = 256


class QueueWaitWindow:
    """Sliding window of measured executor queue waits, in seconds.

    One sample is recorded per executor submission: the latency from
    ``submit()`` (entry) to the moment the computation actually starts
    on a worker (start) — see
    :attr:`repro.service.executor.BatchExecutor.queue_wait_hook`. Under
    a healthy pool the waits are microseconds; under saturation they
    approach the queue's drain time, which is exactly the number a shed
    client should be told to wait before retrying.

    Args:
        size: Sample capacity; the window holds the most recent ``size``
            waits (default :data:`DEFAULT_QUEUE_WAIT_WINDOW`).
        min_retry_after: Floor (seconds) on the derived retry hint —
            sub-50ms hints only invite a retry storm.
        max_retry_after: Ceiling (seconds) on the derived retry hint —
            one pathological wait must not tell clients to go away for
            minutes.

    All methods are thread-safe (one lock around a deque) and
    non-blocking, so both worker threads and the event loop may touch
    the window directly.
    """

    def __init__(
        self,
        size: int = DEFAULT_QUEUE_WAIT_WINDOW,
        min_retry_after: float = 0.05,
        max_retry_after: float = 30.0,
    ) -> None:
        if size < 1:
            raise ValueError("size must be at least 1")
        if min_retry_after <= 0 or max_retry_after < min_retry_after:
            raise ValueError(
                "retry-after bounds must satisfy 0 < min <= max"
            )
        self.size = size
        self.min_retry_after = min_retry_after
        self.max_retry_after = max_retry_after
        self._lock = threading.Lock()
        self._waits: Deque[float] = deque(maxlen=size)
        self.recorded = 0

    def record(self, wait_seconds: float) -> None:
        """Add one measured wait (seconds).

        Negative values are clamped to zero: queue waits are computed
        as differences of monotonic timestamps, but a clock source that
        regresses (an injected test clock, a suspended VM) must corrupt
        one sample at worst, never the distribution.
        """
        wait = max(0.0, wait_seconds)
        with self._lock:
            self._waits.append(wait)
            self.recorded += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._waits)

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction`` percentile (0..1) in seconds; None if empty.

        Nearest-rank over the current window — 256 floats at most, so
        the sort is microsecond-scale and safe on any caller.
        """
        with self._lock:
            if not self._waits:
                return None
            ordered = sorted(self._waits)
        index = min(
            len(ordered) - 1,
            max(0, round(fraction * (len(ordered) - 1))),
        )
        return ordered[index]

    def p50(self) -> Optional[float]:
        """Median queue wait in seconds (None for an empty window)."""
        return self.percentile(0.50)

    def p95(self) -> Optional[float]:
        """95th-percentile queue wait in seconds (None when empty)."""
        return self.percentile(0.95)

    def suggest_retry_after(self, default: float) -> float:
        """The retry hint for a shed request, in seconds.

        The p95 of measured waits, clamped to
        ``[min_retry_after, max_retry_after]`` — a client retrying
        after the p95 wait finds the queue drained with high
        probability. A cold (empty) window yields ``default``: at
        startup nothing has been measured yet, so the configured
        policy hint is the only honest answer.
        """
        p95 = self.percentile(0.95)
        if p95 is None:
            return default
        return min(self.max_retry_after, max(self.min_retry_after, p95))

    def stats(self) -> Dict[str, object]:
        """Window state for the service's monitoring surface (ms)."""
        p50 = self.percentile(0.50)
        p95 = self.percentile(0.95)
        with self._lock:
            samples = len(self._waits)
        return {
            "samples": samples,
            "recorded": self.recorded,
            "p50_ms": round(p50 * 1000.0, 3) if p50 is not None else None,
            "p95_ms": round(p95 * 1000.0, 3) if p95 is not None else None,
        }


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, ``burst`` cap.

    Starts full (a fresh client may burst immediately). Time is
    injectable for deterministic tests.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now

    def try_acquire(self, now: float) -> float:
        """Take one token; returns 0.0 on success, else seconds to wait.

        The wait is exact: the time until the refill makes a full token
        available — the value clients receive as ``retry_after``.
        """
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionController:
    """Shared admission policy for every serving front end.

    Args:
        rate_limit_qps: Sustained per-client request rate
            (requests/second); None disables rate limiting.
        rate_limit_burst: Bucket capacity (tokens a client may spend
            instantly); defaults to ``max(1, round(rate_limit_qps))``.
        max_queue_depth: Distinct in-flight executor computations
            beyond which new cold work is shed; None disables shedding.
        overload_retry_after: Fallback ``retry_after`` for
            :class:`Overloaded` rejections while the queue-wait window
            is empty (cold start) or absent. Once waits have been
            measured, the hint comes from
            :meth:`QueueWaitWindow.suggest_retry_after` instead.
        queue_wait: The deployment's shared :class:`QueueWaitWindow`;
            None keeps the fixed ``overload_retry_after`` behavior.
        max_tracked_clients: Bucket-table size bound; the least
            recently seen buckets are evicted past it (an evicted
            client simply starts a fresh, full bucket).
        clock: Injectable monotonic time source for tests.
    """

    def __init__(
        self,
        rate_limit_qps: Optional[float] = None,
        rate_limit_burst: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        overload_retry_after: float = 1.0,
        queue_wait: Optional[QueueWaitWindow] = None,
        max_tracked_clients: int = DEFAULT_MAX_TRACKED_CLIENTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_limit_qps is not None and rate_limit_qps <= 0:
            raise ValueError("rate_limit_qps must be positive")
        if rate_limit_burst is not None and rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be at least 1")
        if rate_limit_burst is not None and rate_limit_qps is None:
            raise ValueError("rate_limit_burst requires rate_limit_qps")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if overload_retry_after <= 0:
            raise ValueError("overload_retry_after must be positive")
        if max_tracked_clients < 1:
            raise ValueError("max_tracked_clients must be at least 1")
        self.rate_limit_qps = rate_limit_qps
        self.rate_limit_burst = (
            rate_limit_burst
            if rate_limit_burst is not None
            else (max(1.0, round(rate_limit_qps)) if rate_limit_qps else None)
        )
        self.max_queue_depth = max_queue_depth
        self.overload_retry_after = overload_retry_after
        self.queue_wait = queue_wait
        self.max_tracked_clients = max_tracked_clients
        self._clock = clock
        self._lock = threading.Lock()
        # Recency-ordered (same pattern as QueryCache): admitting a
        # client moves its bucket to the end, eviction pops from the
        # front — O(1) per request, even with attacker-minted ids.
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.admitted = 0
        self.rate_limited = 0
        self.overloaded = 0
        self.deadline_rejected = 0

    # ---- enforcement -------------------------------------------------------

    def admit(self, client_id: str) -> None:
        """Charge one request to ``client_id``'s rate bucket; raises
        :class:`RateLimited` when the bucket is empty. A no-op (beyond
        counting) without a rate limit.
        """
        if self.rate_limit_qps is None:
            with self._lock:
                self.admitted += 1
            return
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(
                    self.rate_limit_qps, self.rate_limit_burst, now
                )
                self._buckets[client_id] = bucket
            else:
                self._buckets.move_to_end(client_id)
            wait = bucket.try_acquire(now)
            if wait > 0.0:
                self.rate_limited += 1
                raise RateLimited(
                    f"client {client_id!r} exceeded "
                    f"{self.rate_limit_qps:g} requests/second "
                    f"(burst {self.rate_limit_burst:g})",
                    retry_after=wait,
                )
            self.admitted += 1
            while len(self._buckets) > self.max_tracked_clients:
                self._buckets.popitem(last=False)

    def settle(self, *args, **kwargs) -> None:
        """No-op. Admission keeps no per-request reservation to
        reconcile; kept only as a trace target of
        ``benchmarks/e2e/trace.py``, which goes away with ROADMAP item
        7's wrapper table."""

    def check_queue(self, depth: int, joining: bool = False) -> None:
        """Shed new cold work past ``max_queue_depth``; raises
        :class:`Overloaded`.

        ``joining=True`` marks a request that merges into an existing
        in-flight computation — always admitted, it adds no queue load.
        This is a pure *probe*: it never touches the ``overloaded``
        counter, because the serving layer may still rescue the
        request from the store; callers report the shed via
        :meth:`count_overloaded` only when the rejection actually
        propagates (the counter must measure rejections, not probes).

        The ``retry_after`` attached to the rejection is derived from
        the measured queue-wait distribution when a
        :class:`QueueWaitWindow` is wired in (p95 of recent waits,
        clamped); the fixed ``overload_retry_after`` only applies while
        nothing has been measured yet.
        """
        if self.max_queue_depth is None or joining:
            return
        if depth >= self.max_queue_depth:
            retry_after = (
                self.queue_wait.suggest_retry_after(self.overload_retry_after)
                if self.queue_wait is not None
                else self.overload_retry_after
            )
            raise Overloaded(
                f"executor queue is saturated "
                f"({depth} in flight, limit {self.max_queue_depth})",
                retry_after=retry_after,
            )

    def count_overloaded(self) -> None:
        """Record one request actually shed with :class:`Overloaded`."""
        with self._lock:
            self.overloaded += 1

    def check_deadline(
        self, remaining: Optional[float], joining: bool = False
    ) -> None:
        """Reject a request whose remaining timeout cannot survive the
        measured queue wait; raises
        :class:`~repro.service.api.DeadlineUnmet` (HTTP 504).

        ``remaining`` is the request's timeout budget left at the
        moment it would enqueue executor work (None: no deadline, never
        rejected). When the p95 of the shared :class:`QueueWaitWindow`
        already exceeds it, the enqueue is doomed — the caller will
        stop waiting before a worker even *starts* the computation —
        so the request gets a fast 504 at admission instead of burning
        a worker slot on an uncollected result. ``joining=True`` marks
        a request merging into an existing in-flight computation: it
        pays no queue wait (the flight is already running), so it is
        exempt, exactly like :meth:`check_queue`.

        Conservatively inactive until waits have been measured (an
        empty window rejects nothing), and a pure *probe* like
        :meth:`check_queue`: the serving layer may still rescue the
        request from the store, and reports an actual rejection via
        :meth:`count_deadline_rejected`. The attached ``retry_after``
        is the measured queue drain estimate
        (:meth:`QueueWaitWindow.suggest_retry_after`).
        """
        if remaining is None or joining or self.queue_wait is None:
            return
        p95 = self.queue_wait.p95()
        if p95 is None or p95 <= max(0.0, remaining):
            return
        raise deadline_unmet(
            remaining,
            p95,
            self.queue_wait.suggest_retry_after(self.overload_retry_after),
        )

    def count_deadline_rejected(self) -> None:
        """Record one request actually rejected with
        :class:`~repro.service.api.DeadlineUnmet`."""
        with self._lock:
            self.deadline_rejected += 1

    # ---- monitoring --------------------------------------------------------

    def stats(self) -> dict:
        """Admission counters for the service's monitoring surface.

        The ``queue_wait`` block (sample count, p50/p95 in ms) only
        appears when a :class:`QueueWaitWindow` is wired in.
        """
        with self._lock:
            out = {
                "rate_limit_qps": self.rate_limit_qps,
                "rate_limit_burst": self.rate_limit_burst,
                "max_queue_depth": self.max_queue_depth,
                "admitted": self.admitted,
                "rate_limited": self.rate_limited,
                "overloaded": self.overloaded,
                "deadline_rejected": self.deadline_rejected,
                "tracked_clients": len(self._buckets),
            }
        if self.queue_wait is not None:
            out["queue_wait"] = self.queue_wait.stats()
        return out


__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_TRACKED_CLIENTS",
    "DEFAULT_QUEUE_WAIT_WINDOW",
    "QueueWaitWindow",
    "TokenBucket",
]
