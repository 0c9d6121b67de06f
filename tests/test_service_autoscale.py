"""PoolSizer policy decisions and the autoscale_policy wiring."""

from __future__ import annotations

import threading

import pytest

from repro.service.api import PipelineFailure, QueryRequest
from repro.service.autoscale import AutoscalePolicy, PoolSizer
from repro.service.service import QKBflyService, ServiceConfig


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ---- service wiring --------------------------------------------------------


def _query_names(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


def test_fixed_executor_has_no_autoscaler(service_session):
    config = ServiceConfig(executor="thread", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        assert "autoscale" not in service.stats()
        assert service.autoscale_tick() is None


def test_service_pins_threads_when_process_pool_falls_back(service_session):
    """A process pool that silently falls back to threads (here: an
    unpicklable session) must reconcile executor_kind and surface the
    reason, and a later pool rebuild must not flip the label back."""
    service_session.transient_handle = threading.Lock()
    try:
        config = ServiceConfig(executor="process", max_workers=2)
        with QKBflyService(service_session, service_config=config) as service:
            assert service.executor_kind == "thread"
            stats = service.stats()
            assert stats["executor_kind"] == "thread"
            assert (
                "not picklable"
                in stats["pipeline_executor"]["fallback_reason"]
            )
            name = _query_names(service_session, 1)[0]
            result = service.serve(QueryRequest(query=name))
            assert len(result.kb.facts) > 0
            service._resize_pools(3)
            assert service.executor_kind == "thread"
    finally:
        del service_session.transient_handle


def test_in_flight_request_survives_pool_resize(service_session):
    """A request that loses the race against a live process-pool
    resize retries on the new pool instead of surfacing the retired
    pool's shutdown error (the _run_pipeline snapshot-and-retry
    contract)."""
    config = ServiceConfig(executor="process", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        if service.executor_kind != "process":
            pytest.skip("no process pool here")
        name = _query_names(service_session, 1)[0]
        retired = service._pipeline_executor
        real_build_kb = retired.build_kb

        def lose_the_race(query, source, num_documents):
            # By the time the request reaches the pool it snapshotted,
            # a resize has published a new pool and shut this one down.
            service._resize_pools(3)
            return real_build_kb(
                query, source=source, num_documents=num_documents
            )

        retired.build_kb = lose_the_race
        result = service.serve(QueryRequest(query=name))
        assert not result.cache_hit
        assert len(result.kb.facts) > 0
        current = service._pipeline_executor
        assert current is not retired
        assert current.max_workers == 3
        assert current.submitted == 1  # retried on the new pool


def test_genuine_pipeline_error_is_not_swallowed(service_session):
    """The retry loop only absorbs shutdown errors from a *swapped*
    pool — a RuntimeError from a still-current executor propagates."""
    config = ServiceConfig(executor="thread", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _query_names(service_session, 1)[0]

        class BrokenPool:
            def build_kb(self, query, source, num_documents):
                raise RuntimeError("cannot schedule: pool shutdown")

            def shutdown(self, wait=True):
                pass

        service._pipeline_executor = BrokenPool()
        with pytest.raises(PipelineFailure, match="pool shutdown") as excinfo:
            service.serve(QueryRequest(query=name))
        assert isinstance(excinfo.value.__cause__, RuntimeError)


# ---- pool sizing -----------------------------------------------------------


def _sizer(clock=None, **policy_kwargs):
    policy_kwargs.setdefault("pool_max_workers", 8)
    policy_kwargs.setdefault("pool_cooldown_seconds", 0.0)
    kwargs = {} if clock is None else {"clock": clock}
    return PoolSizer(AutoscalePolicy(**policy_kwargs), **kwargs)


def test_backlog_grows_pool_by_one_step():
    sizer = _sizer()
    # 4 workers, 8 pending: at the grow threshold (2.0 per worker).
    assert sizer.decide_pool_size(4, pending=8) == 5
    assert sizer.resizes_recommended == 1


def test_idle_pool_shrinks_by_one_step():
    sizer = _sizer()
    # 4 workers, 1 pending: at the shrink threshold (0.25 per worker).
    assert sizer.decide_pool_size(4, pending=1) == 3


def test_hysteresis_band_keeps_pool_size():
    sizer = _sizer()
    # Between 0.25 and 2.0 pending per worker: no decision either way.
    assert sizer.decide_pool_size(4, pending=4) is None
    assert sizer.decide_pool_size(4, pending=2) is None
    assert sizer.resizes_recommended == 0


def test_pool_respects_floor_and_ceiling():
    sizer = _sizer(pool_max_workers=4)
    assert sizer.decide_pool_size(4, pending=100) is None  # at ceiling
    assert sizer.decide_pool_size(1, pending=0) is None  # at floor
    big_step = _sizer(pool_max_workers=4, pool_step=10)
    assert big_step.decide_pool_size(3, pending=100) == 4  # clamped
    assert big_step.decide_pool_size(2, pending=0) == 1  # clamped


def test_pool_cooldown_rate_limits_resizes():
    clock = FakeClock()
    sizer = _sizer(clock=clock, pool_cooldown_seconds=10.0)
    assert sizer.decide_pool_size(2, pending=10) == 3
    # Still cooling down: even a deep backlog changes nothing.
    assert sizer.decide_pool_size(3, pending=50) is None
    clock.now += 10.0
    assert sizer.decide_pool_size(3, pending=50) == 4
    assert sizer.resizes_recommended == 2


def test_cooldown_skips_queue_wait_percentile():
    """The service asks on every cold request; inside the cooldown the
    answer is None regardless, so the window's sort is never paid."""

    class CountingWaits:
        calls = 0

        def __len__(self):
            return 8

        def percentile(self, fraction):
            self.calls += 1
            return 0.5

    clock = FakeClock()
    waits = CountingWaits()
    sizer = _sizer(clock=clock, pool_cooldown_seconds=10.0)
    assert sizer.decide_pool_size(2, pending=10, queue_wait=waits) == 3
    assert waits.calls == 1
    clock.now += 5.0
    assert sizer.decide_pool_size(3, pending=50, queue_wait=waits) is None
    assert waits.calls == 1  # cooling down: not consulted
    clock.now += 5.0
    assert sizer.decide_pool_size(3, pending=50, queue_wait=waits) == 4
    assert waits.calls == 2


def test_queue_wait_corroboration_gates_growth():
    """Backlog alone does not grow the pool when measured waits say
    work starts promptly; an empty (cold) window does not block."""
    from repro.service.admission import QueueWaitWindow

    sizer = _sizer(pool_grow_wait_seconds=0.1)
    fast = QueueWaitWindow(size=8)
    for _ in range(8):
        fast.record(0.001)  # work starts in a millisecond
    assert sizer.decide_pool_size(2, pending=10, queue_wait=fast) is None
    slow = QueueWaitWindow(size=8)
    for _ in range(8):
        slow.record(0.5)
    assert sizer.decide_pool_size(2, pending=10, queue_wait=slow) == 3
    cold = QueueWaitWindow(size=8)  # no samples: backlog decides alone
    sizer2 = _sizer(pool_grow_wait_seconds=0.1)
    assert sizer2.decide_pool_size(2, pending=10, queue_wait=cold) == 3


def test_shrink_ignores_stale_wait_samples():
    """The wait window may still hold samples from the busy period
    that just ended; shrink is backlog-only by design."""
    from repro.service.admission import QueueWaitWindow

    sizer = _sizer()
    stale = QueueWaitWindow(size=8)
    for _ in range(8):
        stale.record(2.0)
    assert sizer.decide_pool_size(4, pending=0, queue_wait=stale) == 3


def test_pool_policy_validation():
    with pytest.raises(ValueError, match="pool_min_workers"):
        _sizer(pool_min_workers=0)
    with pytest.raises(ValueError, match="pool_max_workers"):
        _sizer(pool_min_workers=4, pool_max_workers=2)
    with pytest.raises(ValueError, match="pool_shrink_backlog"):
        _sizer(pool_grow_backlog=1.0, pool_shrink_backlog=1.0)
    with pytest.raises(ValueError, match="pool_step"):
        _sizer(pool_step=0)
    with pytest.raises(ValueError):
        _sizer().decide_pool_size(0, pending=0)


def test_service_applies_pool_decision_on_tick(service_session):
    """autoscale_tick applies the pool-size decision, resizing the live
    request executor."""
    _tick_resizes_pools(service_session, "thread")


def test_tick_resizes_live_process_pool(service_session):
    """On the process tier the same tick also rebuilds the live
    process pool at the new width; the tier itself never moves."""
    _tick_resizes_pools(service_session, "process")


def _tick_resizes_pools(service_session, executor):
    policy = AutoscalePolicy(
        pool_cooldown_seconds=0.0,
        pool_grow_backlog=0.5,
        pool_shrink_backlog=0.1,
        pool_grow_wait_seconds=0.0,
    )
    config = ServiceConfig(
        executor=executor, max_workers=2, autoscale_policy=policy
    )
    with QKBflyService(service_session, service_config=config) as service:
        if service.executor_kind != executor:
            pytest.skip("no process pool here")
        assert service.pool_workers == 2
        first_pool = service._pipeline_executor

        real_executor = service._executor

        class Backlogged:
            pending = 4  # 2 per worker: above the 0.5 grow threshold

            def __getattr__(self, name):
                return getattr(real_executor, name)

        service._executor = Backlogged()
        try:
            service.autoscale_tick()
        finally:
            service._executor = real_executor
        assert service.pool_workers == 3
        assert service.pool_resizes == 1
        assert service._executor.max_workers == 3
        assert service.executor_kind == executor
        if executor == "process":
            assert service._pipeline_executor is not first_pool
            assert service._pipeline_executor.max_workers == 3
        stats = service.stats()
        assert stats["autoscale"]["pool_workers"] == 3
        assert stats["autoscale"]["pool_resizes"] == 1
        assert stats["autoscale"]["resizes_recommended"] == 1
        # Idle again: the next tick shrinks back toward the floor.
        service.autoscale_tick()
        assert service.pool_workers == 2


def test_fixed_tier_never_resizes(service_session):
    config = ServiceConfig(executor="thread", max_workers=2)
    names = _query_names(service_session, 3)
    with QKBflyService(service_session, service_config=config) as service:
        for name in names:
            service.serve_batch([])  # no-op, just exercise the surface
            service.serve(QueryRequest(query=name))
        assert service.pool_workers == 2
        assert service.pool_resizes == 0
        assert "autoscale" not in service.stats()


def test_explicit_process_workers_pins_pipeline_pool(service_session):
    """An operator-pinned process_workers keeps the pipeline pool out
    of resize decisions: only the request executor follows
    pool_workers."""
    config = ServiceConfig(executor="thread", max_workers=2, process_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        before = service._pipeline_executor  # None on the thread tier
        service._resize_pools(4)
        assert service.pool_workers == 4
        assert service._executor.max_workers == 4
        assert service._pipeline_executor is before
