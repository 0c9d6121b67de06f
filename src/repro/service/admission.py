"""Per-client admission control: rate + cost budgets, measured shedding.

A serving deployment that accepts every request degrades for everyone
at once; admission control degrades *selectively* instead, and makes
the degradation part of the API contract (:mod:`repro.service.api`).
Three independent mechanisms compose, each optional:

- **per-client rate limiting** — one token bucket per ``client_id``,
  refilled at ``rate_limit_qps`` requests/second with a burst
  allowance of ``rate_limit_burst`` tokens. A client over budget gets
  a :class:`~repro.service.api.RateLimited` (HTTP 429) with a
  ``retry_after`` telling it exactly when its next token lands — other
  clients are untouched;
- **per-client cost budgeting** — one :class:`CostBucket` per
  ``client_id``, denominated in *pipeline wall-seconds* rather than
  request counts: a client that issues ten expensive multi-document
  cold queries spends its budget ten times faster than one issuing
  ten cache hits. At admit time the request's cost is *estimated*
  (the p95 over a small ring buffer of measured costs per query
  shape — learned from the ``store_seconds + pipeline_seconds`` the
  serving layer feeds back after every request — with a global EWMA
  as the prior for never-seen shapes) and reserved; after the request completes the
  reservation is reconciled against the observed cost, so cache hits
  settle at ~zero cost and mis-estimates become debt or refunds, never
  lost accounting. Like every admission check, the reservation happens
  *before* any tier is consulted and is held for the request's
  lifetime — so a client's burst must cover its expected concurrent
  in-flight requests times the shape estimate, or a parallel fan-out
  can be cost-limited even when every request would have been a cache
  hit (sequential traffic never sees this: each settle refunds before
  the next admit). Over budget means
  :class:`~repro.service.api.CostLimited` (HTTP 429, code
  ``cost_limited``) with the exact refill wait;
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

A fourth, derived mechanism rides on the measured queue waits:
**queue-wait-aware deadline admission**
(:meth:`AdmissionController.check_deadline`) rejects a request whose
per-request ``timeout`` cannot survive the p95 of recently measured
queue waits — a fast :class:`~repro.service.api.DeadlineUnmet` (504)
at admission instead of a doomed enqueue whose result nobody collects.

One :class:`AdmissionController` is shared by every front end (sync,
asyncio, HTTP), so the budgets hold across entry points. Its critical
sections are a few dict operations under one lock — microsecond-scale,
which is what allows the asyncio front end to consult it directly on
the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.service.api import (
    CostLimited,
    Overloaded,
    RateLimited,
    deadline_unmet,
)

#: Idle client buckets are dropped once the table exceeds this, oldest
#: first — an abusive client id space must not grow memory unboundedly.
DEFAULT_MAX_TRACKED_CLIENTS = 1024

#: Default sample capacity of a :class:`QueueWaitWindow`.
DEFAULT_QUEUE_WAIT_WINDOW = 256

#: EWMA smoothing factor for the *global* cost prior: each new
#: observation contributes this fraction of the running estimate.
DEFAULT_COST_EWMA_ALPHA = 0.2

#: Measured-cost samples kept per query shape. The admit-time estimate
#: is the p95 over this ring buffer: a mean (or EWMA) under-reserves
#: for bimodal shapes — one where most requests hit the cache but the
#: tail rebuilds a pipeline — and under-reservation converts straight
#: into client debt. 64 samples date the p95 quickly when a shape's
#: cost regime shifts, yet give the tail ~3 samples to stand on.
DEFAULT_COST_SAMPLE_WINDOW = 64

#: Distinct query shapes the cost estimator tracks (LRU-bounded, like
#: the client buckets — shapes are client-influenced input).
DEFAULT_MAX_TRACKED_SHAPES = 256


class QueueWaitWindow:
    """Sliding window of measured executor queue waits, in seconds.

    One sample is recorded per executor submission: the latency from
    ``submit()`` (entry) to the moment the computation actually starts
    on a worker (start) — see
    :attr:`repro.service.executor.BatchExecutor.queue_wait_hook`. Under
    a healthy pool the waits are microseconds; under saturation they
    approach the queue's drain time, which is exactly the number a shed
    client should be told to wait before retrying.

    The window is owned by the *service*, not by any executor: a live
    pool swap or resize (:meth:`~repro.service.service.QKBflyService.
    _resize_pools`) replaces the pool but keeps feeding the same
    window, so the wait distribution survives autoscaling events.

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


class CostBucket:
    """A leaky budget denominated in pipeline wall-seconds.

    Same refill discipline as :class:`TokenBucket` (``rate`` seconds of
    pipeline time earned per wall second, capped at ``burst`` seconds),
    but acquisition is **reserve-then-reconcile**: :meth:`reserve`
    charges the *estimated* cost up front (so a client cannot fan out
    unbounded expensive work inside one refill interval), and
    :meth:`settle` later replaces the estimate with the measured cost.
    A request that turned out cheaper than estimated is refunded; one
    that turned out dearer pushes the balance **negative** (debt),
    blocking further admits until the refill works it off. Debt is
    clamped at ``-burst`` so a single pathological request can delay a
    client by at most ``2 * burst / rate`` seconds, never lock it out.

    Starts full. Time is injectable for deterministic tests.
    """

    __slots__ = ("rate", "burst", "tokens", "updated", "spent")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now
        #: Cumulative observed cost charged to this client, in seconds.
        self.spent = 0.0

    def reserve(self, estimate: float, now: float) -> float:
        """Charge ``estimate`` seconds; 0.0 on success, else the wait.

        The wait is exact: seconds until the refill covers both any
        debt and the estimate — the value clients receive as
        ``retry_after`` on a :class:`~repro.service.api.CostLimited`.
        """
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= estimate:
            self.tokens -= estimate
            return 0.0
        return (estimate - self.tokens) / self.rate

    def settle(self, estimate: float, actual: Optional[float]) -> None:
        """Reconcile a reservation with the measured cost.

        ``actual=None`` means the measured cost is unknown (the request
        failed before its timing breakdown existed, or timed out with
        the work still running) — the estimate stays charged.
        """
        charged = estimate if actual is None else actual
        self.tokens = min(
            self.burst, max(-self.burst, self.tokens + estimate - charged)
        )
        self.spent += charged


@dataclass
class CostCharge:
    """A live cost reservation, handed back by :meth:`AdmissionController.
    admit` and returned via :meth:`AdmissionController.settle`.

    Attributes:
        client_id: The budget the reservation was charged to.
        shape: The query-shape key the estimate came from (feeds the
            EWMA on settle).
        estimate: Seconds reserved at admit time.
    """

    client_id: str
    shape: Optional[Hashable]
    estimate: float


class AdmissionController:
    """Shared admission policy for every serving front end.

    Args:
        rate_limit_qps: Sustained per-client request rate
            (requests/second); None disables rate limiting.
        rate_limit_burst: Bucket capacity (tokens a client may spend
            instantly); defaults to ``max(1, round(rate_limit_qps))``.
        cost_budget_per_second: Sustained per-client *cost* budget:
            pipeline wall-seconds a client may consume per wall second
            (e.g. ``0.25`` lets one client keep a quarter of one
            worker busy on average); None disables cost budgeting.
        cost_budget_burst: Cost-bucket capacity in seconds — the
            pipeline time a client may consume instantly before the
            sustained rate applies; defaults to
            ``max(1.0, cost_budget_per_second)``.
        cost_initial_estimate: Admit-time cost estimate (seconds) for a
            query shape never observed before anywhere. The default of
            0.0 is deliberately optimistic: the first request of a new
            shape is admitted and its *measured* cost seeds the EWMA
            (mis-estimates become bucket debt, so optimism is bounded).
        cost_ewma_alpha: Smoothing factor of the *global* cost EWMA —
            the prior for unseen shapes (fraction of each new
            observation folded in). Per-shape estimates use a p95 ring
            buffer instead; see :meth:`estimate_cost`.
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
        cost_budget_per_second: Optional[float] = None,
        cost_budget_burst: Optional[float] = None,
        cost_initial_estimate: float = 0.0,
        cost_ewma_alpha: float = DEFAULT_COST_EWMA_ALPHA,
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
        if cost_budget_per_second is not None and cost_budget_per_second <= 0:
            raise ValueError("cost_budget_per_second must be positive")
        if cost_budget_burst is not None and cost_budget_burst <= 0:
            raise ValueError("cost_budget_burst must be positive")
        if cost_budget_burst is not None and cost_budget_per_second is None:
            raise ValueError(
                "cost_budget_burst requires cost_budget_per_second"
            )
        if cost_initial_estimate < 0:
            raise ValueError("cost_initial_estimate must be >= 0")
        if not 0.0 < cost_ewma_alpha <= 1.0:
            raise ValueError("cost_ewma_alpha must be in (0, 1]")
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
        self.cost_budget_per_second = cost_budget_per_second
        self.cost_budget_burst = (
            cost_budget_burst
            if cost_budget_burst is not None
            else (
                max(1.0, cost_budget_per_second)
                if cost_budget_per_second
                else None
            )
        )
        self.cost_initial_estimate = cost_initial_estimate
        self.cost_ewma_alpha = cost_ewma_alpha
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
        self._cost_buckets: "OrderedDict[str, CostBucket]" = OrderedDict()
        # Per-shape ring buffers of measured backend cost (seconds) —
        # the admit-time estimate is each buffer's p95 — plus a global
        # EWMA used as the prior for shapes seen for the first time;
        # both only learn from requests that did real work.
        self._shape_cost: "OrderedDict[Hashable, Deque[float]]" = (
            OrderedDict()
        )
        self._global_cost: Optional[float] = None
        self.admitted = 0
        self.rate_limited = 0
        self.cost_limited = 0
        self.overloaded = 0
        self.deadline_rejected = 0

    # ---- enforcement -------------------------------------------------------

    def admit(
        self, client_id: str, shape: Optional[Hashable] = None
    ) -> Optional[CostCharge]:
        """Charge one request to ``client_id``; raises on a busted budget.

        Checks the request-rate bucket first (raising
        :class:`RateLimited`), then — when cost budgeting is configured
        — reserves the estimated cost of ``shape`` on the client's
        :class:`CostBucket` (raising :class:`CostLimited`). Returns the
        live :class:`CostCharge` the caller must pass back to
        :meth:`settle` once the request's measured cost is known, or
        None when cost budgeting is off. A no-op (beyond counting) when
        neither budget is configured.
        """
        if self.rate_limit_qps is None and self.cost_budget_per_second is None:
            with self._lock:
                self.admitted += 1
            return None
        now = self._clock()
        charge: Optional[CostCharge] = None
        with self._lock:
            if self.rate_limit_qps is not None:
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
            if self.cost_budget_per_second is not None:
                cost_bucket = self._cost_buckets.get(client_id)
                if cost_bucket is None:
                    cost_bucket = CostBucket(
                        self.cost_budget_per_second,
                        self.cost_budget_burst,
                        now,
                    )
                    self._cost_buckets[client_id] = cost_bucket
                else:
                    self._cost_buckets.move_to_end(client_id)
                # The reservation is clamped at the bucket ceiling: a
                # full bucket must always cover one request, whatever
                # the estimator currently believes (the reconcile step
                # charges the *measured* cost regardless, as debt if
                # need be) — otherwise a global estimate above the
                # burst would lock out even fresh clients forever.
                estimate = min(
                    self._estimate_locked(shape), self.cost_budget_burst
                )
                wait = cost_bucket.reserve(estimate, now)
                if wait > 0.0:
                    self.cost_limited += 1
                    raise CostLimited(
                        f"client {client_id!r} exceeded its cost budget of "
                        f"{self.cost_budget_per_second:g} pipeline-seconds/"
                        f"second (burst {self.cost_budget_burst:g}s; "
                        f"this request is estimated at {estimate:.3f}s)",
                        retry_after=wait,
                    )
                charge = CostCharge(
                    client_id=client_id, shape=shape, estimate=estimate
                )
            self.admitted += 1
            self._evict_stale_locked()
        return charge

    def settle(
        self, charge: CostCharge, actual: Optional[float] = None
    ) -> None:
        """Reconcile a :class:`CostCharge` with the measured cost.

        ``actual`` is the request's observed backend cost in seconds
        (``store_seconds + pipeline_seconds`` from the result
        envelope); pass None when it is unknown (failures, timeouts
        with the work still in flight) to keep the estimate charged.
        Observations of real work (``actual > 0``) also feed the
        per-shape sample ring (and the global EWMA prior) so future
        admit-time estimates track reality.
        Safe to call after the client's bucket was LRU-evicted (the
        reservation is simply forgotten along with the bucket).
        """
        with self._lock:
            bucket = self._cost_buckets.get(charge.client_id)
            if bucket is not None:
                bucket.settle(charge.estimate, actual)
            if actual is not None and actual > 0.0:
                alpha = self.cost_ewma_alpha
                self._global_cost = (
                    actual
                    if self._global_cost is None
                    else alpha * actual + (1.0 - alpha) * self._global_cost
                )
                if charge.shape is not None:
                    samples = self._shape_cost.get(charge.shape)
                    if samples is None:
                        samples = deque(maxlen=DEFAULT_COST_SAMPLE_WINDOW)
                        self._shape_cost[charge.shape] = samples
                    samples.append(actual)
                    self._shape_cost.move_to_end(charge.shape)
                    while len(self._shape_cost) > DEFAULT_MAX_TRACKED_SHAPES:
                        self._shape_cost.popitem(last=False)

    def estimate_cost(self, shape: Optional[Hashable]) -> float:
        """The admit-time cost estimate (seconds) for ``shape``.

        Resolution order: the p95 of the shape's measured-cost ring
        buffer, else the global EWMA across all shapes, else
        ``cost_initial_estimate``. The p95 (nearest-rank, like
        :meth:`QueueWaitWindow.percentile`) makes the reservation cover
        the shape's *tail*, not its average — a shape that is usually a
        cache hit but sometimes a full pipeline run reserves for the
        run, and the settle refunds the difference on hits. Exposed for
        monitoring and tests; :meth:`admit` uses the same logic.
        """
        with self._lock:
            return self._estimate_locked(shape)

    def _estimate_locked(self, shape: Optional[Hashable]) -> float:
        if shape is not None:
            samples = self._shape_cost.get(shape)
            if samples:
                ordered = sorted(samples)
                index = min(
                    len(ordered) - 1,
                    max(0, round(0.95 * (len(ordered) - 1))),
                )
                return ordered[index]
        if self._global_cost is not None:
            return self._global_cost
        return self.cost_initial_estimate

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

    def _evict_stale_locked(self) -> None:
        """Drop the least recently seen buckets past the table bound."""
        while len(self._buckets) > self.max_tracked_clients:
            self._buckets.popitem(last=False)
        while len(self._cost_buckets) > self.max_tracked_clients:
            self._cost_buckets.popitem(last=False)

    # ---- monitoring --------------------------------------------------------

    def client_spend(self) -> Dict[str, float]:
        """Observed per-client cost spend (seconds), for monitoring.

        Covers the currently tracked clients only (the table is
        LRU-bounded); an evicted client's history goes with its bucket.
        """
        with self._lock:
            return self._client_spend_locked()

    def _client_spend_locked(self) -> Dict[str, float]:
        return {
            client_id: round(bucket.spent, 6)
            for client_id, bucket in self._cost_buckets.items()
        }

    def stats(self) -> dict:
        """Admission counters for the service's monitoring surface.

        The ``queue_wait`` block (sample count, p50/p95 in ms) and the
        ``client_spend`` map only appear when the corresponding
        mechanism is wired in, so a deployment without them pays no
        stats-surface cost.
        """
        with self._lock:
            out = {
                "rate_limit_qps": self.rate_limit_qps,
                "rate_limit_burst": self.rate_limit_burst,
                "cost_budget_per_second": self.cost_budget_per_second,
                "cost_budget_burst": self.cost_budget_burst,
                "max_queue_depth": self.max_queue_depth,
                "admitted": self.admitted,
                "rate_limited": self.rate_limited,
                "cost_limited": self.cost_limited,
                "overloaded": self.overloaded,
                "deadline_rejected": self.deadline_rejected,
                "tracked_clients": len(self._buckets),
            }
            if self.cost_budget_per_second is not None:
                out["tracked_cost_clients"] = len(self._cost_buckets)
                out["tracked_cost_shapes"] = len(self._shape_cost)
                out["cost_estimate_global"] = (
                    round(self._global_cost, 6)
                    if self._global_cost is not None
                    else None
                )
                out["client_spend"] = self._client_spend_locked()
        if self.queue_wait is not None:
            out["queue_wait"] = self.queue_wait.stats()
        return out


def cost_shape(
    source: str, num_documents: int
) -> Tuple[str, int]:
    """The query-shape key the cost estimator buckets on.

    Retrieval channel and document count are what scale a pipeline
    run's wall time (more documents → more sentences → more extraction
    and graph work); the query *string* is deliberately excluded so a
    client minting fresh queries cannot also mint fresh (optimistic)
    estimates.
    """
    return (source, num_documents)


def search_cost_shape(kind: str) -> Tuple[str, str]:
    """The cost-estimator shape key for a fact/entity search page.

    Searches are their own shape class: a paginated index read costs
    milliseconds where a pipeline run costs seconds, and folding both
    into one estimate would overcharge every search (or under-reserve
    every serve). ``kind`` is ``"facts"`` or ``"entities"``.
    """
    return ("search", kind)


def ingest_cost_shape(source: str) -> Tuple[str, str]:
    """The cost-estimator shape key for one live-corpus ingest.

    Ingest is its own shape class, keyed only on the channel: the
    dominant costs (NLP + extraction over the document, the search-
    engine rebuild, the invalidation fan-out) scale with the corpus
    and document size, not with any query parameter — and a bulk feed
    must draw down its client's cost budget so it cannot starve query
    traffic (see ``docs/INGEST.md``).
    """
    return ("ingest", source)


__all__ = [
    "AdmissionController",
    "CostBucket",
    "CostCharge",
    "DEFAULT_COST_EWMA_ALPHA",
    "DEFAULT_COST_SAMPLE_WINDOW",
    "DEFAULT_MAX_TRACKED_CLIENTS",
    "DEFAULT_QUEUE_WAIT_WINDOW",
    "QueueWaitWindow",
    "TokenBucket",
    "cost_shape",
    "ingest_cost_shape",
    "search_cost_shape",
]
