"""Batched query execution with in-flight deduplication.

Serving traffic arrives in bursts that repeat themselves: trending
queries are issued by many clients at once. Running each request
through the full pipeline independently wastes exactly the work the
cache exists to save — so the executor (a) fans requests out over a
thread pool that shares one :class:`~repro.core.qkbfly.SessionState`,
and (b) collapses *concurrent* identical requests onto a single
in-flight computation, so a burst of N copies of one query costs one
pipeline run, not N.

Results are futures; :meth:`BatchExecutor.run_batch` preserves input
order, and duplicated inputs receive the same result object.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence


class BatchExecutor:
    """Thread-pool executor with per-key single-flight semantics.

    Args:
        run_fn: The computation, called once per *distinct* in-flight
            key as ``run_fn(request)``. Must be thread-safe — in the
            serving layer it closes over shared read-only session state
            plus the (internally locked) cache and store.
        max_workers: Concurrent worker threads (ignored when ``pool``
            is supplied).
        pool: Optional executor to run computations on instead of an
            owned thread pool — this is how
            :class:`~repro.service.process_executor.ProcessBatchExecutor`
            reuses the single-flight machinery over a process pool.
            Must provide ``submit``/``shutdown``; ownership transfers
            to this instance.
        queue_wait_hook: Optional callable receiving each computation's
            measured queue wait — the seconds between ``submit()`` and
            the moment ``run_fn`` actually starts on a worker. The
            serving layer wires this to its
            :class:`~repro.service.admission.QueueWaitWindow` so
            Retry-After hints and pool-sizing decisions see live wait
            data. Only usable with in-process pools: the timing wrapper
            closes over the hook, so it cannot cross a process
            boundary (:class:`~repro.service.process_executor.
            ProcessBatchExecutor` leaves it unset and ships the bare
            ``run_fn`` instead).
    """

    def __init__(
        self,
        run_fn: Callable[[Any], Any],
        max_workers: int = 4,
        pool: Any = None,
        queue_wait_hook: Optional[Callable[[float], None]] = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self._run_fn = run_fn
        self._owns_pool = pool is None
        self.max_workers = max_workers
        self._pool = pool or ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="qkbfly"
        )
        self.queue_wait_hook = queue_wait_hook
        self._lock = threading.Lock()
        self._in_flight: Dict[Hashable, Future] = {}
        self.deduplicated = 0
        self.submitted = 0

    # ---- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool."""
        self._pool.shutdown(wait=wait)

    def resize(self, max_workers: int) -> None:
        """Swap the owned thread pool for one with ``max_workers``.

        The single-flight table, counters, and wait hook all survive:
        only the inner pool is replaced, so in-flight computations
        complete on the old pool (its already-submitted work keeps
        running under ``shutdown(wait=False)``) while new submissions
        land on the new one — the same publish-then-retire discipline
        as the service's process-pool rebuilds. Refused when the pool was
        supplied externally (a process pool resizes by being rebuilt,
        which requires re-pickling the session — the owner's job).
        """
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if not self._owns_pool:
            raise RuntimeError(
                "cannot resize an externally supplied pool"
            )
        with self._lock:
            if max_workers == self.max_workers:
                return
            old = self._pool
            self._pool = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="qkbfly"
            )
            self.max_workers = max_workers
        old.shutdown(wait=False)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ---- queue visibility --------------------------------------------------

    @property
    def pending(self) -> int:
        """Distinct computations currently in flight.

        This is the queue depth admission control sheds on: joiners of
        an existing flight do not add to it, so it measures real
        outstanding work, not raw request arrival.
        """
        with self._lock:
            return len(self._in_flight)

    def has_flight(self, key: Hashable) -> bool:
        """Whether ``key`` currently has an in-flight computation.

        A request whose key is already flying *joins* that flight —
        load shedding exempts it (see
        :meth:`repro.service.admission.AdmissionController.check_queue`).
        The answer is advisory: the flight can land between this check
        and a subsequent submit, in which case the submit recomputes —
        admission decisions tolerate that race by design.
        """
        with self._lock:
            return key in self._in_flight

    def count_dedup(self) -> None:
        """Count one deduplicated request absorbed outside ``submit``
        (:meth:`run_batch` collapses a batch's own duplicates before
        submitting, and reports them here)."""
        with self._lock:
            self.deduplicated += 1

    # ---- submission --------------------------------------------------------

    def submit(self, key: Hashable, request: Any) -> Future:
        """Schedule ``request``; identical concurrent keys share a future.

        The key leaves the in-flight table *before* its future
        completes, so a submission that observes the key always joins a
        still-pending computation, and a submission after completion
        recomputes (by then the serving layer's cache answers instead).

        The in-flight table holds a fresh executor-owned future rather
        than the pool's own: the pool future can complete between
        ``_pool.submit`` returning and a done-callback being attached,
        and in that window a table holding the pool future maps the key
        to an already-completed result — later submitters would join a
        finished flight instead of recomputing, and the stale key could
        outlive its computation (the single-flight leak this design
        fixes). The owned future only completes inside the callback
        that first removes the key, making that window unobservable.
        """
        with self._lock:
            existing = self._in_flight.get(key)
            if existing is not None:
                self.deduplicated += 1
                return existing
            shared: Future = Future()
            # A flight may be shared by many callers, so no single
            # caller may cancel it out from under the others: marking
            # it running up front makes cancel() always return False
            # (same contract as a pool future once picked up), and
            # lets the completion paths below set results untroubled
            # by a concurrent cancellation.
            shared.set_running_or_notify_cancel()
            self._in_flight[key] = shared
            self.submitted += 1
        if self.queue_wait_hook is not None:
            # Measure entry->start so the serving layer sees how long
            # work sits queued before a worker picks it up. The wrapper
            # closes over the hook, which is why it only exists when a
            # hook is set (a process pool could not pickle it).
            entered = time.monotonic()

            def work(request: Any = request, entered: float = entered) -> Any:
                hook = self.queue_wait_hook
                if hook is not None:
                    hook(max(0.0, time.monotonic() - entered))
                return self._run_fn(request)
        else:
            work = None
        while True:
            pool = self._pool
            try:
                if work is not None:
                    inner = pool.submit(work)
                else:
                    inner = pool.submit(self._run_fn, request)
                break
            except BaseException as error:
                if self._pool is not pool:
                    # A concurrent resize() retired the pool between
                    # the snapshot and the submit; retry on whatever
                    # pool is current (same discipline as the service's
                    # process-pool swap).
                    continue
                with self._lock:
                    if self._in_flight.get(key) is shared:
                        del self._in_flight[key]
                shared.set_exception(error)
                return shared

        def _settle(done: Future, key: Hashable = key) -> None:
            # Order matters: unpublish the key first, then complete the
            # shared future — a waiter woken by the result must never
            # find its finished flight still in the table.
            with self._lock:
                if self._in_flight.get(key) is shared:
                    del self._in_flight[key]
            try:
                result = done.result()
            except BaseException as error:  # includes CancelledError
                shared.set_exception(error)
            else:
                shared.set_result(result)

        inner.add_done_callback(_settle)
        return shared

    def run_batch(
        self,
        requests: Sequence[Any],
        key_fn: Callable[[Any], Hashable] = lambda request: request,
    ) -> List[Any]:
        """Execute all requests concurrently, preserving input order.

        Duplicate keys within the batch are guaranteed to be computed
        once and fanned back out (regardless of timing), so the returned
        list always has ``len(requests)`` elements. Exceptions from
        ``run_fn`` propagate to the caller.
        """
        futures_by_key: Dict[Hashable, Future] = {}
        order: List[Hashable] = []
        for request in requests:
            key = key_fn(request)
            order.append(key)
            if key not in futures_by_key:
                futures_by_key[key] = self.submit(key, request)
            else:
                self.count_dedup()
        return [futures_by_key[key].result() for key in order]


__all__ = ["BatchExecutor"]
