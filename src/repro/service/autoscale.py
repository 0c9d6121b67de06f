"""Runtime pool sizing for the serving layer's worker pools.

The execution *tier* (thread vs process, see
:mod:`repro.service.process_executor`) is a construction-time choice
(``ServiceConfig.executor``); what may move at run time is the pool's
*width*. :class:`PoolSizer` decides it (:meth:`PoolSizer.
decide_pool_size`): fed the executor's live ``pending`` depth (the
distinct computations currently in flight — see
:attr:`~repro.service.executor.BatchExecutor.pending` /
:attr:`~repro.service.process_executor.ProcessBatchExecutor.pending`)
and the measured queue-wait distribution
(:class:`~repro.service.admission.QueueWaitWindow`), it recommends
growing the worker pool while work is genuinely backing up and
shrinking it once the backlog is gone — with a hysteresis band (grow
and shrink thresholds far apart) and a cooldown, so a bursty minute
cannot see-saw the pool.

The sizer only *recommends*; :class:`~repro.service.service.
QKBflyService` (with ``ServiceConfig(autoscale_policy=...)`` set)
performs the actual resize. All methods are thread-safe and
non-blocking.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional


@dataclass
class AutoscalePolicy:
    """Thresholds governing :class:`PoolSizer` decisions.

    Attributes:
        pool_min_workers: Floor on the recommended pool size — the
            pool never shrinks below this many workers.
        pool_max_workers: Ceiling on the recommended pool size — the
            pool never grows past this many workers, however deep the
            backlog (protects the host from unbounded thread/process
            creation under attack traffic).
        pool_grow_backlog: Grow threshold, in *pending computations
            per worker*: with ``pending >= workers * pool_grow_backlog``
            the queue is outrunning the pool and a grow step is
            recommended (subject to the queue-wait corroboration and
            cooldown below).
        pool_shrink_backlog: Shrink threshold, same unit: with
            ``pending <= workers * pool_shrink_backlog`` the pool is
            mostly idle and a shrink step is recommended. Keeping
            ``pool_shrink_backlog < pool_grow_backlog`` creates the
            hysteresis band in between, where the current size is kept
            — the two defaults (2.0 and 0.25) put an 8x ratio between
            the triggers, so backlog noise cannot see-saw the pool.
        pool_grow_wait_seconds: Queue-wait corroboration for growth:
            when the measured wait window has samples, a grow step
            additionally requires its p95 to reach this many seconds —
            a momentary burst of ``pending`` whose work starts
            instantly is not a capacity problem. (An *empty* window —
            cold start — does not block growth: backlog alone decides.)
        pool_step: Workers added or removed per resize decision.
        pool_cooldown_seconds: Minimum time between recommended
            resizes — a resize retires and rebuilds worker pools (a
            process bootstrap pickles the session), so decisions are
            rate-limited.
    """

    pool_min_workers: int = 1
    pool_max_workers: int = 16
    pool_grow_backlog: float = 2.0
    pool_shrink_backlog: float = 0.25
    pool_grow_wait_seconds: float = 0.05
    pool_step: int = 1
    pool_cooldown_seconds: float = 10.0


class PoolSizer:
    """Recommend a worker-pool size from the live queue state.

    Args:
        policy: Decision thresholds.
        clock: Monotonic time source, injectable for cooldown tests.
    """

    def __init__(
        self,
        policy: AutoscalePolicy,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        if self.policy.pool_min_workers < 1:
            raise ValueError("pool_min_workers must be at least 1")
        if self.policy.pool_max_workers < self.policy.pool_min_workers:
            raise ValueError(
                "pool_max_workers must not be below pool_min_workers"
            )
        if not self.policy.pool_shrink_backlog < self.policy.pool_grow_backlog:
            # Equal thresholds leave no hysteresis band at all: every
            # decision point would be both a grow and a shrink trigger.
            raise ValueError(
                "pool_shrink_backlog must be below pool_grow_backlog"
            )
        if self.policy.pool_step < 1:
            raise ValueError("pool_step must be at least 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._last_resize_at: Optional[float] = None
        self.resizes_recommended = 0

    def decide_pool_size(
        self,
        current_workers: int,
        pending: int,
        queue_wait: Optional[Any] = None,
    ) -> Optional[int]:
        """Recommend a new worker count, or None to keep the pool.

        Args:
            current_workers: The pool's current size.
            pending: Distinct computations in flight right now — the
                executor's live queue depth (take the max over the
                request executor and the pipeline-tier pool; a flight
                appears in both while dispatched).
            queue_wait: The deployment's
                :class:`~repro.service.admission.QueueWaitWindow`
                (optional) — growth corroboration, see
                :attr:`AutoscalePolicy.pool_grow_wait_seconds`.

        The rules, in order (units and thresholds documented on
        :class:`AutoscalePolicy`):

        1. still inside ``pool_cooldown_seconds`` of the last resize:
           no change;
        2. ``pending >= current * pool_grow_backlog``, the pool is
           below ``pool_max_workers``, *and* the measured queue-wait
           p95 corroborates (or nothing has been measured yet):
           recommend ``current + pool_step`` (clamped to the ceiling);
        3. ``pending <= current * pool_shrink_backlog`` and the pool
           is above ``pool_min_workers``: recommend
           ``current - pool_step`` (clamped to the floor) — backlog
           alone decides, because the wait window may still hold
           samples from the busy period that just ended;
        4. otherwise (the hysteresis band): no change.

        A non-None return stamps the resize cooldown, so callers
        should treat it as a commitment and actually resize.
        """
        policy = self.policy
        if current_workers < 1:
            raise ValueError("current_workers must be positive")
        now = self._clock()
        with self._lock:
            # Cooldown first: the service asks on every cold request,
            # and for pool_cooldown_seconds after a resize the answer
            # is None whatever the queue looks like.
            if self._cooling_down(now):
                return None
        target: Optional[int] = None
        if (
            pending >= current_workers * policy.pool_grow_backlog
            and current_workers < policy.pool_max_workers
        ):
            # The wait percentile sorts the window under the window's
            # own lock; read it outside ours (nothing acquires them in
            # the other order, but keeping the scopes disjoint makes
            # that obvious).
            wait_p95 = (
                queue_wait.percentile(0.95)
                if queue_wait is not None and len(queue_wait)
                else None
            )
            if wait_p95 is None or wait_p95 >= policy.pool_grow_wait_seconds:
                target = min(
                    policy.pool_max_workers,
                    current_workers + policy.pool_step,
                )
        elif (
            pending <= current_workers * policy.pool_shrink_backlog
            and current_workers > policy.pool_min_workers
        ):
            target = max(
                policy.pool_min_workers,
                current_workers - policy.pool_step,
            )
        if target is None or target == current_workers:
            return None
        with self._lock:
            # Check and stamp under one lock acquisition: two callers
            # racing past an expired cooldown must not both commit a
            # resize step inside the same window.
            if self._cooling_down(now):
                return None
            self._last_resize_at = now
            self.resizes_recommended += 1
        return target

    def _cooling_down(self, now: float) -> bool:
        """Inside ``pool_cooldown_seconds`` of the last resize (call
        with the lock held)."""
        return (
            self._last_resize_at is not None
            and now - self._last_resize_at < self.policy.pool_cooldown_seconds
        )

    # ---- monitoring --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Sizer state for the service's monitoring surface."""
        return {"resizes_recommended": self.resizes_recommended}


__all__ = ["AutoscalePolicy", "PoolSizer"]
