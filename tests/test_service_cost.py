"""Cost-aware admission and the measured queue-wait window.

Unit-level coverage with injected clocks (no sleeps): the
pipeline-seconds :class:`CostBucket` (reserve-then-reconcile, debt
clamping, exact refill waits), the per-shape EWMA estimator, the
:class:`QueueWaitWindow` edge cases the control loops depend on (cold
start, monotonic-clock regression, survival across a live pool swap),
and measured ``Retry-After`` on sheds. Plus integration through the
sync and asyncio front ends: the same cost budgets must hold whichever
entry point a request arrives through (the HTTP path shares the same
``AdmissionController`` object — covered end-to-end in
``test_service_gateway.py``).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.admission import (
    AdmissionController,
    CostBucket,
    QueueWaitWindow,
    cost_shape,
)
from repro.service.api import (
    CostLimited,
    QueryRequest,
    RateLimited,
    ServiceError,
)
from repro.service.async_service import AsyncQKBflyService
from repro.service.service import QKBflyService, ServiceConfig


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _top_queries(service_session, count: int):
    entities = sorted(
        service_session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


@pytest.fixture()
def full_price_session(service_session):
    """The shared session with its stage cache detached.

    Tests that drain a deliberately tiny cost budget need every cold
    query to pay the *full* pipeline price; a stage cache warmed by an
    earlier test (the session fixture is session-scoped) would serve
    annotation/extraction from memory and shrink the measured spend
    below the budget. Detach it for the duration and restore after.
    """
    saved = service_session.stage_cache
    service_session.stage_cache = None
    yield service_session
    service_session.stage_cache = saved


# ---- cost bucket -----------------------------------------------------------


def test_cost_bucket_reserve_and_exact_refill():
    clock = FakeClock()
    bucket = CostBucket(rate=0.5, burst=2.0, now=clock())
    assert bucket.reserve(1.5, clock()) == 0.0  # 0.5s left
    wait = bucket.reserve(1.0, clock())
    # Needs 0.5 more seconds of budget at 0.5/s: exactly 1s away.
    assert wait == pytest.approx(1.0)
    clock.advance(1.0)
    assert bucket.reserve(1.0, clock()) == 0.0


def test_cost_bucket_settle_refunds_cheap_work():
    clock = FakeClock()
    bucket = CostBucket(rate=0.1, burst=1.0, now=clock())
    assert bucket.reserve(0.8, clock()) == 0.0
    bucket.settle(0.8, actual=0.05)  # a cache hit: almost free
    # The refund restores all but the observed cost.
    assert bucket.tokens == pytest.approx(0.95)
    assert bucket.spent == pytest.approx(0.05)


def test_cost_bucket_underestimate_becomes_debt():
    clock = FakeClock()
    bucket = CostBucket(rate=0.1, burst=1.0, now=clock())
    assert bucket.reserve(0.0, clock()) == 0.0  # optimistic estimate
    bucket.settle(0.0, actual=1.4)  # ...the work was expensive
    # Balance went negative (1.0 - 1.4): further admits must wait for
    # the refill to cover the debt plus the new estimate.
    assert bucket.tokens == pytest.approx(-0.4)
    wait = bucket.reserve(0.1, clock())
    assert wait == pytest.approx((0.1 + 0.4) / 0.1)


def test_cost_bucket_debt_is_clamped_at_one_burst():
    clock = FakeClock()
    bucket = CostBucket(rate=1.0, burst=2.0, now=clock())
    bucket.reserve(0.0, clock())
    bucket.settle(0.0, actual=1000.0)  # one pathological request
    assert bucket.tokens == -2.0  # clamped at -burst, not -998
    assert bucket.spent == pytest.approx(1000.0)


def test_cost_bucket_failed_request_keeps_the_estimate():
    clock = FakeClock()
    bucket = CostBucket(rate=1.0, burst=4.0, now=clock())
    bucket.reserve(1.5, clock())
    bucket.settle(1.5, actual=None)  # cost unknown: no refund
    assert bucket.tokens == pytest.approx(2.5)
    assert bucket.spent == pytest.approx(1.5)


# ---- controller: cost budgeting --------------------------------------------


def test_admit_reserves_then_settle_reconciles():
    clock = FakeClock()
    controller = AdmissionController(
        cost_budget_per_second=0.1, cost_budget_burst=1.0, clock=clock
    )
    shape = cost_shape("wikipedia", 1)
    charge = controller.admit("alice", shape)
    assert charge is not None
    assert charge.estimate == 0.0  # nothing observed anywhere yet
    controller.settle(charge, actual=0.4)
    # The observation seeded the shape EWMA: the next admit reserves it.
    second = controller.admit("alice", shape)
    assert second.estimate == pytest.approx(0.4)
    stats = controller.stats()
    assert stats["client_spend"]["alice"] == pytest.approx(0.4)
    assert stats["cost_estimate_global"] == pytest.approx(0.4)


def test_cost_limited_carries_exact_refill_wait():
    clock = FakeClock()
    controller = AdmissionController(
        cost_budget_per_second=0.1, cost_budget_burst=1.0, clock=clock
    )
    shape = cost_shape("wikipedia", 3)
    charge = controller.admit("heavy", shape)
    controller.settle(charge, actual=2.0)  # tokens now at -burst
    with pytest.raises(CostLimited) as excinfo:
        controller.admit("heavy", shape)
    # Debt (1.0, clamped at -burst) plus the estimate (2.0s EWMA,
    # clamped at the 1.0s ceiling) at 0.1/s refill.
    assert excinfo.value.retry_after == pytest.approx(20.0)
    assert excinfo.value.http_status == 429
    assert excinfo.value.code == "cost_limited"
    assert controller.stats()["cost_limited"] == 1
    # An independent client has its own untouched budget.
    assert controller.admit("light", cost_shape("wikipedia", 1)) is not None


def test_cost_budget_isolated_per_client_and_recovers():
    clock = FakeClock()
    controller = AdmissionController(
        cost_budget_per_second=0.5, cost_budget_burst=1.0, clock=clock
    )
    shape = cost_shape("news", 2)
    charge = controller.admit("a", shape)
    controller.settle(charge, actual=1.0)  # budget exhausted
    with pytest.raises(CostLimited):
        controller.admit("a", shape)  # estimate 1.0 vs tokens 0.0
    clock.advance(4.0)  # refill past the estimate
    assert controller.admit("a", shape) is not None


def test_ewma_tracks_shape_not_query_string():
    clock = FakeClock()
    controller = AdmissionController(
        cost_budget_per_second=1.0, cost_budget_burst=10.0, clock=clock
    )
    cheap, dear = cost_shape("wikipedia", 1), cost_shape("wikipedia", 5)
    controller.settle(controller.admit("c", cheap), actual=0.01)
    controller.settle(controller.admit("c", dear), actual=0.50)
    assert controller.estimate_cost(cheap) == pytest.approx(0.01)
    assert controller.estimate_cost(dear) == pytest.approx(0.50)
    # A never-seen shape falls back to the global EWMA, not zero.
    assert controller.estimate_cost(cost_shape("news", 9)) > 0.0


def test_seen_shape_estimates_p95_unseen_falls_back_to_ewma():
    controller = AdmissionController(
        cost_budget_per_second=1.0,
        cost_budget_burst=10.0,
        cost_ewma_alpha=0.5,
        clock=FakeClock(),
    )
    shape = cost_shape("wikipedia", 2)
    controller.settle(controller.admit("c", shape), actual=1.0)
    controller.settle(controller.admit("c", shape), actual=3.0)
    # A shape with history admits at the p95 of its sample window, so the
    # occasional expensive request can't sneak under a smoothed average.
    assert controller.estimate_cost(shape) == pytest.approx(3.0)
    # Shapes without history fall back to the global EWMA prior:
    # 0.5 * 3.0 + 0.5 * 1.0
    assert controller.estimate_cost(cost_shape("news", 9)) == pytest.approx(2.0)


def test_settle_after_client_eviction_is_safe():
    clock = FakeClock()
    controller = AdmissionController(
        cost_budget_per_second=1.0,
        cost_budget_burst=1.0,
        max_tracked_clients=1,
        clock=clock,
    )
    charge = controller.admit("a", None)
    controller.admit("b", None)  # evicts a's bucket
    controller.settle(charge, actual=0.5)  # must not raise
    assert "a" not in controller.stats()["client_spend"]


def test_rate_and_cost_budgets_compose():
    """Rate limiting fires first; a client inside its request rate can
    still be cost-limited — the budgets are independent."""
    clock = FakeClock()
    controller = AdmissionController(
        rate_limit_qps=1.0,
        rate_limit_burst=2,
        cost_budget_per_second=0.1,
        cost_budget_burst=0.5,
        clock=clock,
    )
    shape = cost_shape("wikipedia", 1)
    charge = controller.admit("c", shape)
    controller.settle(charge, actual=1.0)  # cost bucket deep in debt
    # The second rate token is available, but cost rejects first...
    with pytest.raises(CostLimited):
        controller.admit("c", shape)
    # ...and that attempt consumed it (rate is checked first), so the
    # next attempt trips the rate limiter before cost is even asked.
    with pytest.raises(RateLimited):
        controller.admit("c", shape)
    stats = controller.stats()
    assert stats["cost_limited"] == 1
    assert stats["rate_limited"] == 1


def test_controller_rejects_bad_cost_parameters():
    with pytest.raises(ValueError):
        AdmissionController(cost_budget_per_second=0)
    with pytest.raises(ValueError):
        AdmissionController(cost_budget_burst=1.0)  # burst without rate
    with pytest.raises(ValueError):
        AdmissionController(cost_budget_per_second=1.0, cost_budget_burst=0)
    with pytest.raises(ValueError):
        AdmissionController(
            cost_budget_per_second=1.0, cost_initial_estimate=-1.0
        )
    with pytest.raises(ValueError):
        AdmissionController(cost_budget_per_second=1.0, cost_ewma_alpha=0.0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"cost_budget_per_second": 0}, "cost_budget_per_second"),
        ({"cost_budget_burst": 1.0}, "cost_budget_per_second"),
        (
            {"cost_budget_per_second": 1.0, "cost_budget_burst": 0},
            "cost_budget_burst",
        ),
        ({"queue_wait_window": 0}, "queue_wait_window"),
    ],
)
def test_service_config_rejects_invalid_cost_combos(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ServiceConfig(**kwargs)


def test_cost_limited_round_trips_on_the_wire():
    error = CostLimited("over budget", retry_after=2.5)
    rebuilt = ServiceError.from_dict(error.to_dict())
    assert isinstance(rebuilt, CostLimited)
    assert rebuilt.http_status == 429
    assert rebuilt.status.value == "rate_limited"
    assert rebuilt.code == "cost_limited"
    assert rebuilt.retry_after == 2.5


# ---- queue-wait window -----------------------------------------------------


def test_empty_window_falls_back_to_policy_hint():
    """Cold start: nothing measured yet, so the configured fixed hint
    is the only honest Retry-After."""
    window = QueueWaitWindow(size=8)
    assert window.p50() is None
    assert window.p95() is None
    assert window.suggest_retry_after(default=1.25) == 1.25
    stats = window.stats()
    assert stats["samples"] == 0
    assert stats["p50_ms"] is None


def test_window_derives_clamped_p95_hint():
    window = QueueWaitWindow(size=16, min_retry_after=0.05, max_retry_after=5.0)
    for wait in (0.1, 0.2, 0.3, 0.4):
        window.record(wait)
    hint = window.suggest_retry_after(default=99.0)
    assert hint == pytest.approx(0.4)  # p95 of the samples, not the default
    window.record(1000.0)  # one pathological wait
    assert window.suggest_retry_after(default=99.0) == 5.0  # ceiling
    tiny = QueueWaitWindow(size=4, min_retry_after=0.05)
    tiny.record(0.0001)
    assert tiny.suggest_retry_after(default=9.0) == 0.05  # floor


def test_monotonic_clock_regression_clamps_to_zero():
    """A regressing time source (suspended VM, injected test clock)
    corrupts one sample at worst, never the distribution."""
    window = QueueWaitWindow(size=4)
    window.record(-0.5)
    window.record(0.2)
    assert window.p95() == pytest.approx(0.2)
    assert window.p50() in (0.0, 0.2)
    assert min(window._waits) == 0.0


def test_window_is_bounded_and_slides():
    window = QueueWaitWindow(size=3)
    for wait in (1.0, 2.0, 3.0, 4.0):
        window.record(wait)
    assert len(window) == 3
    assert window.recorded == 4
    assert window.p50() == 3.0  # 1.0 slid out


def test_overloaded_retry_after_uses_measured_waits():
    window = QueueWaitWindow(size=8)
    controller = AdmissionController(
        max_queue_depth=1, overload_retry_after=1.0, queue_wait=window
    )
    from repro.service.api import Overloaded

    # Cold window: the fixed policy hint.
    with pytest.raises(Overloaded) as excinfo:
        controller.check_queue(1)
    assert excinfo.value.retry_after == 1.0
    # Measured waits take over.
    for _ in range(8):
        window.record(0.8)
    with pytest.raises(Overloaded) as excinfo:
        controller.check_queue(1)
    assert excinfo.value.retry_after == pytest.approx(0.8)


def test_window_survives_live_pool_swap(service_session):
    """The wait window belongs to the service, not to any pool: a
    _resize_pools retires the inner thread pool but keeps
    the window (and its samples), and the new pool keeps feeding it."""
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 2)
        service.serve(QueryRequest(query=name[0]))
        before = len(service.queue_wait)
        assert before >= 1  # the miss went through the executor
        window_before = service.queue_wait
        service._resize_pools(4)  # live resize
        assert service.pool_workers == 4
        assert service._executor.max_workers == 4
        assert service.queue_wait is window_before
        assert len(service.queue_wait) == before  # samples survived
        service.serve(QueryRequest(query=name[1]))
        assert len(service.queue_wait) > before  # new pool still feeds it


def test_executor_measures_queue_waits(service_session):
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 3)
        for query in names:
            service.serve(QueryRequest(query=query))
        stats = service.stats()["queue_wait"]
        assert stats["samples"] == 3  # one per distinct cold miss
        assert stats["p95_ms"] is not None and stats["p95_ms"] >= 0.0
        # Cache hits never touch the executor: no new samples.
        service.serve(QueryRequest(query=names[0]))
        assert service.stats()["queue_wait"]["samples"] == 3


# ---- integration: cost budgets through the front ends ----------------------


def test_sync_cost_budget_rejects_after_expensive_work(full_price_session):
    config = ServiceConfig(
        cost_budget_per_second=0.0001,
        cost_budget_burst=0.01,
        stage_cache_enabled=False,
    )
    with QKBflyService(full_price_session, service_config=config) as service:
        names = _top_queries(full_price_session, 4)
        # Run cold pipelines until the measured spend busts the tiny
        # budget; distinct queries keep the work real.
        rejected = None
        for query in names:
            try:
                service.serve(
                    QueryRequest(query=query, client_id="heavy")
                )
            except CostLimited as error:
                rejected = error
                break
        assert rejected is not None, "tiny cost budget never enforced"
        assert rejected.retry_after > 0
        # Another client's budget is untouched.
        other = service.serve(
            QueryRequest(query=names[0], client_id="light")
        )
        assert other.status.value == "ok"
        admission = service.stats()["admission"]
        assert admission["cost_limited"] >= 1
        assert admission["client_spend"]["heavy"] > 0.0


def test_cache_hits_are_effectively_free(service_session):
    """Reserve-then-reconcile: hits refund down to ~zero cost, so a
    repeat-heavy client never exhausts a budget sized for cold work."""
    config = ServiceConfig(
        cost_budget_per_second=0.001, cost_budget_burst=1.0
    )
    with QKBflyService(service_session, service_config=config) as service:
        name = _top_queries(service_session, 1)[0]
        service.serve(QueryRequest(query=name, client_id="c"))  # cold
        for _ in range(200):
            result = service.serve(QueryRequest(query=name, client_id="c"))
            assert result.served_from == "cache"
        spend = service.stats()["admission"]["client_spend"]["c"]
        # Spend is the one cold run only; 200 hits charged nothing.
        assert spend < 0.5


def test_serve_batch_settles_cost_per_slot(service_session):
    config = ServiceConfig(
        cost_budget_per_second=0.001, cost_budget_burst=5.0
    )
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        results = service.serve_batch(
            [QueryRequest(query=query, client_id="b") for query in names * 2]
        )
        assert all(r.status.value == "ok" for r in results)
        spend = service.stats()["admission"]["client_spend"]["b"]
        assert spend > 0.0
        # Joiners are charged the shared run's cost too (intent, not a
        # split bill) — so spend is at least the two distinct runs.
        runs = [r for r in results if r.pipeline_seconds is not None]
        assert spend >= max(r.pipeline_seconds for r in runs)


def test_async_cost_budget_enforced_on_loop(full_price_session):
    async def scenario():
        config = ServiceConfig(
            cost_budget_per_second=0.0001,
            cost_budget_burst=0.01,
            stage_cache_enabled=False,
        )
        async with AsyncQKBflyService(
            QKBflyService(full_price_session, service_config=config),
            own_service=True,
        ) as service:
            names = _top_queries(full_price_session, 4)
            rejected = None
            for query in names:
                try:
                    await service.serve(
                        QueryRequest(query=query, client_id="heavy")
                    )
                except CostLimited as error:
                    rejected = error
                    break
            other = await service.serve(
                QueryRequest(query=names[0], client_id="light")
            )
            return rejected, other, service.service.stats()["admission"]

    rejected, other, admission = asyncio.run(scenario())
    assert rejected is not None
    assert other.status.value == "ok"
    assert admission["cost_limited"] >= 1


def test_async_batch_cost_rejections_become_envelopes(full_price_session):
    async def scenario():
        config = ServiceConfig(
            cost_budget_per_second=0.0001,
            cost_budget_burst=0.005,
            stage_cache_enabled=False,
        )
        async with AsyncQKBflyService(
            QKBflyService(full_price_session, service_config=config),
            own_service=True,
        ) as service:
            names = _top_queries(full_price_session, 6)
            # Seed the shape EWMA (and bust the tiny budget) with one
            # completed cold run — a batch of first-ever shapes would
            # be admitted optimistically at estimate 0.
            await service.serve(QueryRequest(query=names[0], client_id="c"))
            return await service.serve_batch(
                [
                    QueryRequest(query=query, client_id="c")
                    for query in names[1:]
                ]
            )

    results = asyncio.run(scenario())
    statuses = [r.status.value for r in results]
    assert "rate_limited" in statuses  # CostLimited rides that status
    rejected = [r for r in results if r.status.value == "rate_limited"]
    assert all(r.error.code == "cost_limited" for r in rejected)
    assert all(r.kb is None for r in rejected)


def test_pool_resize_during_in_flight_request(service_session):
    """A live resize must not fail requests in flight on the retired
    pool: the single-flight future completes, and new submissions land
    on the new pool."""
    config = ServiceConfig(max_workers=2)
    with QKBflyService(service_session, service_config=config) as service:
        names = _top_queries(service_session, 2)
        release = threading.Event()
        entered = threading.Event()
        original = service._run_pipeline

        def gated(query, source, num_documents):
            entered.set()
            release.wait(timeout=30)
            return original(query, source=source, num_documents=num_documents)

        service._run_pipeline = gated
        try:
            in_flight = threading.Thread(
                target=service.serve, args=(QueryRequest(query=names[0]),)
            )
            in_flight.start()
            assert entered.wait(timeout=30)
            service._resize_pools(5)
            release.set()
            in_flight.join(timeout=30)
            assert not in_flight.is_alive()
        finally:
            release.set()
            service._run_pipeline = original
        # The flight landed and filled the cache despite the swap.
        assert (
            service.serve(QueryRequest(query=names[0])).served_from == "cache"
        )
        # And the new pool serves fresh work at the new width.
        result = service.serve(QueryRequest(query=names[1]))
        assert result.status.value == "ok"
        assert service._executor.max_workers == 5
