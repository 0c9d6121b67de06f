"""ExecutorSelector policy decisions and the executor="auto" wiring."""

from __future__ import annotations

import pytest

from repro.service.api import PipelineFailure, QueryRequest
from repro.service.autoscale import AutoscalePolicy, ExecutorSelector
from repro.service.service import QKBflyService, ServiceConfig


def _selector(cpu_count: int = 4, clock=None, **policy_kwargs):
    policy_kwargs.setdefault("window", 8)
    policy_kwargs.setdefault("min_samples", 4)
    policy_kwargs.setdefault("cooldown_seconds", 0.0)
    kwargs = {"cpu_count": cpu_count}
    if clock is not None:
        kwargs["clock"] = clock
    return ExecutorSelector(AutoscalePolicy(**policy_kwargs), **kwargs)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ---- startup choice --------------------------------------------------------


def test_initial_kind_single_core_pins_threads():
    assert _selector(cpu_count=1).initial_kind() == "thread"


def test_initial_kind_multi_core_starts_processes():
    assert _selector(cpu_count=4).initial_kind() == "process"
    assert _selector(cpu_count=2).initial_kind() == "process"


def test_min_cpus_threshold_is_configurable():
    selector = _selector(cpu_count=4, min_cpus_for_process=8)
    assert selector.initial_kind() == "thread"


# ---- runtime decisions -----------------------------------------------------


def test_distinct_slow_traffic_recommends_process():
    selector = _selector()
    for i in range(8):
        selector.record(f"query-{i}", 0.005)  # all distinct, 5 ms each
    assert selector.decide("thread") == "process"


def test_repeat_heavy_traffic_recommends_thread():
    selector = _selector()
    for _ in range(8):
        selector.record("hot-query", 0.0001)
    assert selector.decide("process") == "thread"


def test_no_recommendation_when_already_on_right_tier():
    selector = _selector()
    for i in range(8):
        selector.record(f"query-{i}", 0.005)
    assert selector.decide("process") is None
    for _ in range(8):
        selector.record("hot-query", 0.0001)
    assert selector.decide("thread") is None


def test_hysteresis_band_keeps_current_tier():
    # Ratio 0.5 window with thresholds straddling it: stay put either way.
    selector = _selector(distinct_high=0.75, distinct_low=0.25)
    for i in range(4):
        selector.record(f"query-{i}", 0.005)
        selector.record(f"query-{i}", 0.005)
    assert selector.distinct_ratio() == 0.5
    assert selector.decide("thread") is None
    assert selector.decide("process") is None


def test_distinct_but_cheap_traffic_stays_on_threads():
    # Store-hit traffic: every query distinct but served in ~0.1 ms —
    # a process pool has no pipeline work to parallelize.
    selector = _selector(min_pipeline_ms=1.0)
    for i in range(8):
        selector.record(f"query-{i}", 0.0001)
    assert selector.decide("thread") is None


def test_single_core_always_recommends_thread_regardless_of_traffic():
    selector = _selector(cpu_count=1)
    for i in range(8):
        selector.record(f"query-{i}", 0.005)
    assert selector.decide("process") == "thread"
    assert selector.decide("thread") is None


def test_pinned_selector_never_recommends_process():
    """A pin (process tier unavailable) overrides any traffic shape
    and demotes immediately, without arming the cooldown."""
    selector = _selector(cpu_count=4)
    selector.pin_to_thread("session not picklable: test")
    for i in range(8):
        selector.record(f"query-{i}", 0.005)  # distinct + slow
    assert selector.decide("thread") is None
    assert selector.decide("process") == "thread"
    assert selector.stats()["pinned_thread_reason"].startswith("session")


def test_service_pins_threads_when_process_pool_falls_back(
    service_session, monkeypatch
):
    """A process pool that silently falls back to threads must
    reconcile executor_kind AND stop the autoscaler from re-attempting
    the impossible switch after every cooldown (pool-churn loop)."""

    from repro.core.qkbfly import QKBfly

    class FallbackExecutor:
        """Stand-in for a ProcessBatchExecutor whose pool creation
        failed: kind reports the thread fallback, requests still
        serve (on the shared session, like the real fallback)."""

        kind = "thread"
        fallback_reason = "session not picklable: stubbed"

        def __init__(self, session, config=None, **kwargs):
            self._qkbfly = QKBfly.from_session(session, config=config)

        def build_kb(self, query, source="wikipedia", num_documents=1):
            return self._qkbfly.build_kb(
                query, source=source, num_documents=num_documents
            )

        def shutdown(self, wait=True):
            pass

        def stats(self):
            return {"kind": self.kind}

    monkeypatch.setattr(
        "repro.service.service.ProcessBatchExecutor", FallbackExecutor
    )
    monkeypatch.setattr(
        "repro.service.service.ExecutorSelector",
        lambda policy=None: ExecutorSelector(
            AutoscalePolicy(window=4, min_samples=2, cooldown_seconds=0.0),
            cpu_count=4,
        ),
    )
    config = ServiceConfig(executor="auto", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        # Startup picked "process", the pool fell back, the service
        # reconciled and pinned.
        assert service.executor_kind == "thread"
        assert service._selector.pinned_thread_reason is not None
        # Distinct pipeline-bound traffic can no longer flip the tier.
        names = _query_names(service_session, 4)
        for name in names:
            service.serve(QueryRequest(query=name))
        assert service.executor_kind == "thread"
        assert service.executor_switches == 0


def test_min_samples_gate_blocks_cold_window():
    selector = _selector(min_samples=4)
    for i in range(3):
        selector.record(f"query-{i}", 0.005)
    assert selector.decide("thread") is None
    selector.record("query-3", 0.005)
    assert selector.decide("thread") == "process"


def test_cooldown_rate_limits_switches():
    clock = FakeClock()
    selector = _selector(clock=clock, cooldown_seconds=30.0)
    for i in range(8):
        selector.record(f"query-{i}", 0.005)
    assert selector.decide("thread") == "process"
    # Traffic immediately flips repeat-heavy, but the cooldown holds.
    for _ in range(8):
        selector.record("hot-query", 0.0001)
    assert selector.decide("process") is None
    clock.now += 31.0
    assert selector.decide("process") == "thread"


def test_window_statistics():
    selector = _selector()
    assert selector.distinct_ratio() == 1.0  # empty window
    selector.record("a", 0.002)
    selector.record("a", 0.004)
    assert selector.distinct_ratio() == 0.5
    assert selector.mean_latency_ms() == pytest.approx(3.0)
    stats = selector.stats()
    assert stats["recorded"] == 2
    assert stats["window_size"] == 2
    assert stats["switches_recommended"] == 0


def test_policy_validation():
    with pytest.raises(ValueError):
        ExecutorSelector(AutoscalePolicy(window=0))
    with pytest.raises(ValueError):
        ExecutorSelector(
            AutoscalePolicy(distinct_low=0.8, distinct_high=0.2)
        )
    with pytest.raises(ValueError, match="min_samples"):
        # A window that can never hold min_samples entries would
        # silently disable switching forever.
        ExecutorSelector(AutoscalePolicy(window=8, min_samples=16))


# ---- service wiring --------------------------------------------------------


def _query_names(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


def test_auto_executor_accepted_and_reported(service_session):
    config = ServiceConfig(executor="auto", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        assert service.executor_kind in ("thread", "process")
        stats = service.stats()
        assert stats["executor_kind"] == service.executor_kind
        assert "autoscale" in stats
        assert stats["autoscale"]["executor_switches"] == 0


def test_fixed_executor_has_no_autoscaler(service_session):
    config = ServiceConfig(executor="thread", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        assert "autoscale" not in service.stats()
        assert service.autoscale_tick() is None


def test_auto_service_switches_tiers_at_runtime(
    service_session, monkeypatch
):
    """Simulated multi-core host: repeat-heavy traffic demotes the
    process tier to threads, then distinct pipeline-bound traffic
    promotes it back — full runtime round trip with real pools."""
    policy = AutoscalePolicy(
        window=6,
        min_samples=3,
        cooldown_seconds=0.0,
        min_pipeline_ms=0.5,
        distinct_high=0.5,
        distinct_low=0.34,
    )
    monkeypatch.setattr(
        "repro.service.service.ExecutorSelector",
        lambda policy=None: ExecutorSelector(policy, cpu_count=4),
    )
    config = ServiceConfig(
        executor="auto", max_workers=2, autoscale_policy=policy
    )
    names = _query_names(service_session, 8)
    with QKBflyService(service_session, service_config=config) as service:
        assert service.executor_kind == "process"
        # Hammer one hot query: the window goes repeat-heavy. Cache
        # hits record traffic but never swap pools inline (a bootstrap
        # must not stall a microsecond hit) — the pending decision is
        # applied explicitly (or by the next miss).
        for _ in range(8):
            service.serve(QueryRequest(query=names[0]))
        assert service.executor_kind == "process"
        assert service.autoscale_tick() == "thread"
        assert service.executor_kind == "thread"
        assert service.executor_switches == 1
        # Distinct cold queries: pipeline-bound, distinct-heavy window.
        for name in names[1:8]:
            service.serve(QueryRequest(query=name))
        assert service.executor_kind == "process"
        assert service.executor_switches == 2
        # The served results stayed correct across both switches.
        result = service.serve(QueryRequest(query=names[1]))
        assert result.cache_hit


def test_in_flight_request_survives_tier_swap(service_session):
    """A request that loses the race against an executor swap retries
    on the current tier instead of surfacing the old pool's shutdown
    error (the _run_pipeline snapshot-and-retry contract)."""
    config = ServiceConfig(executor="thread", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _query_names(service_session, 1)[0]

        class SwappedOutPool:
            def build_kb(self, query, source, num_documents):
                # Simulate the race: by the time this pool sees the
                # request, a swap has retired it.
                service._pipeline_executor = None
                raise RuntimeError(
                    "cannot schedule new futures after shutdown"
                )

            def shutdown(self, wait=True):
                pass

        service._pipeline_executor = SwappedOutPool()
        # retried inline on the new tier
        result = service.serve(QueryRequest(query=name))
        assert not result.cache_hit
        assert len(result.kb.facts) > 0


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


def test_serve_batch_records_traffic(service_session, monkeypatch):
    recorded = []
    monkeypatch.setattr(
        "repro.service.service.ExecutorSelector",
        lambda policy=None: ExecutorSelector(policy, cpu_count=1),
    )
    config = ServiceConfig(executor="auto", max_workers=2)
    names = _query_names(service_session, 2)
    with QKBflyService(service_session, service_config=config) as service:
        original = service._selector.record

        def spy(signature, seconds):
            recorded.append(signature)
            original(signature, seconds)

        service._selector.record = spy
        service.serve_batch(
            [QueryRequest(query=q) for q in (names[0], names[1], names[0])]
        )
    # One observation per *request*, before dedup collapses repeats.
    assert len(recorded) == 3


# ---- pool sizing -----------------------------------------------------------


def _pool_selector(clock=None, **policy_kwargs):
    policy_kwargs.setdefault("pool_min_workers", 1)
    policy_kwargs.setdefault("pool_max_workers", 8)
    policy_kwargs.setdefault("pool_grow_backlog", 2.0)
    policy_kwargs.setdefault("pool_shrink_backlog", 0.25)
    policy_kwargs.setdefault("pool_cooldown_seconds", 0.0)
    return _selector(clock=clock, **policy_kwargs)


def test_backlog_grows_pool_by_one_step():
    selector = _pool_selector()
    # 4 workers, 8 pending: at the grow threshold (2.0 per worker).
    assert selector.decide_pool_size(4, pending=8) == 5
    assert selector.resizes_recommended == 1


def test_idle_pool_shrinks_by_one_step():
    selector = _pool_selector()
    # 4 workers, 1 pending: at the shrink threshold (0.25 per worker).
    assert selector.decide_pool_size(4, pending=1) == 3


def test_hysteresis_band_keeps_pool_size():
    selector = _pool_selector()
    # Between 0.25 and 2.0 pending per worker: no decision either way.
    assert selector.decide_pool_size(4, pending=4) is None
    assert selector.decide_pool_size(4, pending=2) is None
    assert selector.resizes_recommended == 0


def test_pool_respects_floor_and_ceiling():
    selector = _pool_selector(pool_max_workers=4)
    assert selector.decide_pool_size(4, pending=100) is None  # at ceiling
    assert selector.decide_pool_size(1, pending=0) is None  # at floor
    big_step = _pool_selector(pool_max_workers=4, pool_step=10)
    assert big_step.decide_pool_size(3, pending=100) == 4  # clamped
    assert big_step.decide_pool_size(2, pending=0) == 1  # clamped


def test_pool_cooldown_rate_limits_resizes():
    clock = FakeClock()
    selector = _pool_selector(clock=clock, pool_cooldown_seconds=10.0)
    assert selector.decide_pool_size(2, pending=10) == 3
    # Still cooling down: even a deep backlog changes nothing.
    assert selector.decide_pool_size(3, pending=50) is None
    clock.now += 10.0
    assert selector.decide_pool_size(3, pending=50) == 4
    assert selector.resizes_recommended == 2


def test_queue_wait_corroboration_gates_growth():
    """Backlog alone does not grow the pool when measured waits say
    work starts promptly; an empty (cold) window does not block."""
    from repro.service.admission import QueueWaitWindow

    selector = _pool_selector(pool_grow_wait_seconds=0.1)
    fast = QueueWaitWindow(size=8)
    for _ in range(8):
        fast.record(0.001)  # work starts in a millisecond
    assert selector.decide_pool_size(2, pending=10, queue_wait=fast) is None
    slow = QueueWaitWindow(size=8)
    for _ in range(8):
        slow.record(0.5)
    assert selector.decide_pool_size(2, pending=10, queue_wait=slow) == 3
    cold = QueueWaitWindow(size=8)  # no samples: backlog decides alone
    selector2 = _pool_selector(pool_grow_wait_seconds=0.1)
    assert selector2.decide_pool_size(2, pending=10, queue_wait=cold) == 3


def test_shrink_ignores_stale_wait_samples():
    """The wait window may still hold samples from the busy period
    that just ended; shrink is backlog-only by design."""
    from repro.service.admission import QueueWaitWindow

    selector = _pool_selector()
    stale = QueueWaitWindow(size=8)
    for _ in range(8):
        stale.record(2.0)
    assert selector.decide_pool_size(4, pending=0, queue_wait=stale) == 3


def test_pool_policy_validation():
    with pytest.raises(ValueError, match="pool_min_workers"):
        _selector(pool_min_workers=0)
    with pytest.raises(ValueError, match="pool_max_workers"):
        _selector(pool_min_workers=4, pool_max_workers=2)
    with pytest.raises(ValueError, match="pool_shrink_backlog"):
        _selector(pool_grow_backlog=1.0, pool_shrink_backlog=1.0)
    with pytest.raises(ValueError, match="pool_step"):
        _selector(pool_step=0)
    with pytest.raises(ValueError):
        _pool_selector().decide_pool_size(0, pending=0)


def test_service_applies_pool_decision_on_tick(service_session, monkeypatch):
    """autoscale_tick drives *both* control loops: the tier decision
    and the pool-size decision, resizing the live request executor."""
    monkeypatch.setattr(
        "repro.service.service.ExecutorSelector",
        lambda policy=None: ExecutorSelector(
            AutoscalePolicy(
                window=4,
                min_samples=2,
                pool_cooldown_seconds=0.0,
                pool_grow_backlog=0.5,
                pool_shrink_backlog=0.1,
                pool_grow_wait_seconds=0.0,
            ),
            cpu_count=1,  # pins the thread tier: isolates pool sizing
        ),
    )
    config = ServiceConfig(executor="auto", max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        assert service.pool_workers == 2

        real_executor = service._executor

        class Backlogged:
            pending = 4  # 2 per worker: above the 0.5 grow threshold

            def __getattr__(self, name):
                return getattr(real_executor, name)

        service._executor = Backlogged()
        try:
            assert service.autoscale_tick() is None  # tier stays put
        finally:
            service._executor = real_executor
        assert service.pool_workers == 3
        assert service.pool_resizes == 1
        assert service._executor.max_workers == 3
        stats = service.stats()
        assert stats["autoscale"]["pool_workers"] == 3
        assert stats["autoscale"]["pool_resizes"] == 1
        assert stats["autoscale"]["resizes_recommended"] == 1
        # Idle again: the next tick shrinks back toward the floor.
        assert service.autoscale_tick() is None
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


def test_explicit_process_workers_pins_pipeline_pool(
    service_session, monkeypatch
):
    """An operator-pinned process_workers keeps the pipeline pool out
    of resize decisions: only the request executor follows
    pool_workers."""
    config = ServiceConfig(executor="thread", max_workers=2, process_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        before = service._pipeline_executor  # None on the thread tier
        service._switch_executor("thread", workers=4)
        assert service.pool_workers == 4
        assert service._executor.max_workers == 4
        assert service._pipeline_executor is before
