"""Fault-injection harness: determinism, checking, crash-safety fixes.

Four clusters:

1. schedule/point machinery — seeded generation is bit-for-bit
   deterministic, JSON round-trips, bad schedules are rejected at
   arming time, minimization shrinks to a still-failing core;
2. history + checker — a clean history passes, and each invariant
   (per-client freshness monotonicity, known versions, digest
   integrity) is *mutation-tested*: a deliberately corrupted history
   must be flagged;
3. end-to-end scenarios — for each of ``local``, ``fabric`` and
   ``ingest``: schedules are pure functions of their seed, and the same
   seed ⇒ identical schedule, fired log and verdict; crash schedules
   recover; injected-violation mutation at the scenario level; the
   sweep driver prints a replay that names the failing scenario;
4. crash-safety regressions — rebalance directory fsync and
   BaseException-safe save/compact rollback.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.faultinject import harness
from repro.faultinject import points as fi_points
from repro.faultinject.checker import (
    VIOLATION_DIVERGENT_CONTENT,
    VIOLATION_STALE_SERVE,
    VIOLATION_UNKNOWN_VERSION,
    MonotonicFreshnessChecker,
)
from repro.faultinject.harness import INGEST_POINTS
from repro.faultinject.history import (
    EVENT_REFRESH,
    EVENT_SERVE,
    HistoryEvent,
    HistoryRecorder,
    kb_digest,
)
from repro.faultinject.points import (
    CATALOG,
    FaultInjector,
    SimulatedCrash,
    fault_point,
    inject,
)
from repro.faultinject.schedule import (
    FaultAction,
    FaultSchedule,
    minimize,
)
from repro.kb.facts import ARG_ENTITY, Argument, Fact, KbBuilder, KnowledgeBase


def _kb(tag: str) -> KnowledgeBase:
    kb = KbBuilder()
    kb.add_fact(
        Fact(
            subject=Argument(ARG_ENTITY, f"E_{tag}", tag.title()),
            predicate="about",
            objects=[Argument(ARG_ENTITY, "E_X", "X")],
            pattern="about",
            confidence=0.9,
            doc_id=f"doc_{tag}",
            sentence_index=0,
        )
    )
    return kb.build()


def _serve_event(
    seq: int,
    client: str,
    version: str,
    key: str = "k1",
    digest: str = "",
) -> HistoryEvent:
    return HistoryEvent(
        seq=seq,
        kind=EVENT_SERVE,
        ts=float(seq),
        client_id=client,
        request_key=key,
        corpus_version=version,
        served_from="cache",
        digest=digest,
    )


def _refresh_event(seq: int, previous: str, version: str) -> HistoryEvent:
    return HistoryEvent(
        seq=seq,
        kind=EVENT_REFRESH,
        ts=float(seq),
        corpus_version=version,
        previous_version=previous,
    )


# ---- schedules: seeded generation and replay --------------------------------


def test_schedule_generation_is_deterministic_bit_for_bit():
    for seed in range(50):
        first = FaultSchedule.generate(seed)
        second = FaultSchedule.generate(seed)
        assert first == second
        assert first.to_dict() == second.to_dict()
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_schedule_actions_valid_and_collision_free():
    for seed in range(100):
        schedule = FaultSchedule.generate(seed)
        assert 1 <= len(schedule.actions) <= 4
        slots = [(a.point, a.hit) for a in schedule.actions]
        assert len(slots) == len(set(slots))  # replay-ambiguity guard
        for action in schedule.actions:
            assert action.kind in CATALOG[action.point]
            assert action.hit >= 1


def test_schedule_json_round_trip_and_describe():
    schedule = FaultSchedule.generate(7)
    clone = FaultSchedule.from_dict(
        json.loads(json.dumps(schedule.to_dict()))
    )
    assert clone == schedule
    assert schedule.describe().startswith("seed=7: ")
    # Minimized schedules drop the seed tag but stay replayable.
    smaller = schedule.without(0)
    assert smaller.seed is None
    assert FaultSchedule.from_dict(smaller.to_dict()) == smaller


def test_schedule_point_restriction_and_unknown_point():
    restricted = [n for n in CATALOG if n != "fabric.server.handle"]
    for seed in range(40):
        schedule = FaultSchedule.generate(seed, points=restricted)
        assert all(
            a.point != "fabric.server.handle" for a in schedule.actions
        )
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultSchedule.generate(1, points=["no.such.point"])


def test_minimize_shrinks_to_failing_core():
    schedule = FaultSchedule(
        actions=(
            FaultAction("kb_store.save.mid_entry", 1, "delay", 0.001),
            FaultAction("sharding.rebalance.mid_swap", 1, "crash"),
            FaultAction("service.close", 1, "delay", 0.001),
        ),
        seed=99,
    )

    def still_fails(candidate: FaultSchedule) -> bool:
        return any(a.kind == "crash" for a in candidate.actions)

    minimal = minimize(schedule, still_fails)
    assert len(minimal.actions) == 1
    assert minimal.actions[0].point == "sharding.rebalance.mid_swap"
    assert still_fails(minimal)


# ---- fault points: arming, firing, validation -------------------------------


def test_fault_point_is_noop_when_disarmed():
    assert fi_points.ACTIVE is None
    fault_point("kb_store.save.mid_entry")  # must not raise or allocate
    fault_point("no.such.point.either")  # disarmed path never validates


def test_injector_rejects_unknown_point_and_kind():
    bad_point = FaultSchedule(
        actions=(FaultAction("no.such.point", 1, "crash"),)
    )
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultInjector(bad_point)
    bad_kind = FaultSchedule(
        actions=(FaultAction("service.close", 1, "crash"),)
    )
    with pytest.raises(ValueError, match="does not support"):
        FaultInjector(bad_kind)


def test_crash_fires_on_exact_hit_and_only_once():
    schedule = FaultSchedule(
        actions=(FaultAction("kb_store.save.mid_entry", 2, "crash"),)
    )
    with inject(schedule) as injector:
        fault_point("kb_store.save.mid_entry")  # hit 1: no fire
        with pytest.raises(SimulatedCrash) as excinfo:
            fault_point("kb_store.save.mid_entry")  # hit 2: fires
        assert excinfo.value.point == "kb_store.save.mid_entry"
        assert excinfo.value.hit == 2
        fault_point("kb_store.save.mid_entry")  # hit 3: spent
        assert injector.fired == [("kb_store.save.mid_entry", 2, "crash")]
        assert injector.hit_counts() == {"kb_store.save.mid_entry": 3}
    assert fi_points.ACTIVE is None


def test_simulated_crash_is_base_exception():
    # The whole point: except-Exception cleanup paths must not see it.
    assert not issubclass(SimulatedCrash, Exception)
    assert issubclass(SimulatedCrash, BaseException)


def test_inject_refuses_nesting_and_always_disarms():
    schedule = FaultSchedule(
        actions=(FaultAction("service.close", 1, "delay", 0.0),)
    )
    with inject(schedule):
        with pytest.raises(RuntimeError, match="already armed"):
            with inject(schedule):
                pass  # pragma: no cover
    assert fi_points.ACTIVE is None


# ---- history + checker ------------------------------------------------------


def test_recorder_orders_events_and_skips_empty_envelopes():
    recorder = HistoryRecorder()

    class Result:
        client_id = "alice"
        request_key = "k1"
        corpus_version = "v1"
        served_from = "cache"
        kb = _kb("a")

    class EmptyResult(Result):
        kb = None

    recorder.record_refresh("", "v1")
    recorder.record_serve(Result(), front_end="sync")
    recorder.record_serve(EmptyResult(), front_end="sync")  # ignored
    recorder.record_ingest("k2", "v1", client_id="bob")
    events = recorder.snapshot()
    assert [e.seq for e in events] == [0, 1, 2]
    assert [e.kind for e in events] == [EVENT_REFRESH, EVENT_SERVE, "ingest"]
    assert events[1].digest == kb_digest(_kb("a"))
    assert events[1].fact_count == 1
    assert recorder.stats()["serve"] == 1


def test_checker_passes_clean_multi_version_history():
    d1, d2 = kb_digest(_kb("one")), kb_digest(_kb("two"))
    events = [
        _serve_event(0, "alice", "v1", digest=d1),
        _serve_event(1, "bob", "v1", digest=d1),
        _refresh_event(2, "v1", "v2"),
        _serve_event(3, "alice", "v2", key="k2", digest=d2),
        # bob never saw v2; serving him v1 again is NOT a violation.
        _serve_event(4, "bob", "v1", digest=d1),
    ]
    assert MonotonicFreshnessChecker().check(events) == []


def test_checker_flags_injected_stale_serve():
    # Mutation test: alice regresses from v2 back to v1.
    events = [
        _serve_event(0, "alice", "v1"),
        _refresh_event(1, "v1", "v2"),
        _serve_event(2, "alice", "v2"),
        _serve_event(3, "alice", "v1"),  # the injected regression
    ]
    violations = MonotonicFreshnessChecker().check(events)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.kind == VIOLATION_STALE_SERVE
    assert violation.client_id == "alice"
    assert violation.seq == 3
    assert "v2" in violation.detail and "v1" in violation.detail


def test_checker_flags_unknown_version_and_divergent_content():
    events = [
        _refresh_event(0, "v1", "v2"),
        _serve_event(1, "alice", "v2", digest="aaaa"),
        _serve_event(2, "alice", "ghost"),  # never introduced
        _serve_event(3, "bob", "v2", digest="bbbb"),  # torn twin
    ]
    violations = MonotonicFreshnessChecker().check(events)
    kinds = [v.kind for v in violations]
    assert kinds == [VIOLATION_UNKNOWN_VERSION, VIOLATION_DIVERGENT_CONTENT]
    assert "ghost" in violations[0].detail
    assert "aaaa" in violations[1].detail


def test_checker_explicit_version_order_overrides_derivation():
    # A partial history with serves but no refresh events: the caller
    # supplies the order the deployment actually went through.
    events = [
        _serve_event(0, "alice", "v2"),
        _serve_event(1, "alice", "v1"),
    ]
    checker = MonotonicFreshnessChecker(version_order=["v1", "v2"])
    violations = checker.check(events)
    assert [v.kind for v in violations] == [VIOLATION_STALE_SERVE]
    # Without refreshes and without an explicit order, both versions
    # are unknown — flagged rather than silently assumed fresh.
    fallback = MonotonicFreshnessChecker().check(events)
    assert {v.kind for v in fallback} == {VIOLATION_UNKNOWN_VERSION}


# ---- end-to-end scenario ----------------------------------------------------


@pytest.mark.parametrize(
    "name, seed", [("local", 5), ("fabric", 5), ("ingest", 11)]
)
def test_schedule_for_seed_is_pure(name, seed):
    first = harness.schedule_for_seed(name, seed)
    second = harness.schedule_for_seed(name, seed)
    assert first == second
    assert first.to_dict() == second.to_dict()
    # The local and fabric scenarios draw from the whole catalog: the
    # fabric transport, server, replication and online-rebalance points
    # included. Ingest schedules stay on its slice.
    eligible = set(INGEST_POINTS) if name == "ingest" else set(CATALOG)
    assert {action.point for action in first.actions} <= eligible


#: A seed whose schedule actually fires faults in every scenario
#: (asserted below, so drift in the catalog or generator turns the
#: replay check into a loud failure, not a silently vacuous one).
FIRING_SEED = 5


@pytest.mark.parametrize("name", sorted(harness.SCENARIOS))
def test_scenario_seeded_replay_is_identical(name):
    first = harness.run_scenario(name, FIRING_SEED)
    second = harness.run_scenario(name, FIRING_SEED)
    assert first.schedule == second.schedule
    assert first.schedule.to_dict() == second.schedule.to_dict()
    assert first.fired, "FIRING_SEED no longer fires; pick a new seed"
    assert first.fired == second.fired
    assert first.passed and second.passed, first.describe()
    assert first.violations == second.violations
    assert first.errors == second.errors
    if name == "ingest":
        # Only the sequential scenario replays its counts exactly; the
        # threaded ones interleave client serves with the refresh and
        # the online rebalance.
        assert first.describe() == second.describe()


def test_scenario_crash_schedule_recovers_clean():
    # A hand-built worst case: torn write + crash inside the rebalance
    # swap window + crash mid-compact, all in one run.
    schedule = FaultSchedule(
        actions=(
            FaultAction("kb_store.save.mid_entry", 1, "crash"),
            FaultAction("sharding.rebalance.mid_swap", 1, "crash"),
            FaultAction("kb_store.compact.mid", 2, "crash"),
        )
    )
    report = harness.run_schedule("local", schedule)
    assert report.passed, report.describe()
    assert report.counts["crashes"] >= 2
    assert report.counts["store_reads"] > 0  # recovery left entries readable
    fired_points = {point for point, _, _ in report.fired}
    assert "sharding.rebalance.mid_swap" in fired_points


def test_scenario_mutation_injected_stale_serve_fails():
    """The scenario's checker must catch a corrupted history: replay a
    clean run's events with a stale-serve appended."""
    report = harness.run_scenario("local", 1)
    assert report.passed
    # Rebuild the kind of history the scenario records, then corrupt it.
    events = [
        _serve_event(0, "alice", "v1"),
        _refresh_event(1, "v1", harness.VERSION_TWO),
        _serve_event(2, "alice", harness.VERSION_TWO),
        _serve_event(3, "alice", "v1"),  # regression after the refresh
    ]
    violations = MonotonicFreshnessChecker().check(events)
    assert [v.kind for v in violations] == [VIOLATION_STALE_SERVE]


def test_driver_failure_prints_a_replay_naming_the_scenario(
    monkeypatch, capsys
):
    """A red sweep must print a seed recipe and a minimized-schedule
    replay that both rerun the *failing* scenario, not the local one."""
    spec = importlib.util.spec_from_file_location(
        "run_faultinject",
        Path(__file__).resolve().parent.parent / "scripts/run_faultinject.py",
    )
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    ingest = harness.SCENARIOS["ingest"]

    def broken(run):
        ingest.phases(run)
        run.report.errors.append("seeded breakage")

    monkeypatch.setitem(
        harness.SCENARIOS, "ingest", dataclasses.replace(ingest, phases=broken)
    )
    status = driver.main(["--scenario", "ingest", "--seed", "0"])
    out = capsys.readouterr().out
    assert status == 1
    assert "--seed 0 --scenario ingest" in out
    (replay,) = [
        line for line in out.splitlines() if line.startswith("replay: ")
    ]
    report = eval(
        replay[len("replay: "):],
        {"harness": harness, "FaultSchedule": FaultSchedule, "json": json},
    )
    assert not report.passed
    assert "seeded breakage" in report.errors


# ---- satellite regressions --------------------------------------------------


def test_rebalance_fsyncs_parent_directory_after_renames(
    tmp_path, monkeypatch
):
    """The swap window's renames are only durable once the parent
    directory is fsynced; the rename sequence must fsync after each."""
    from repro.service import sharding
    from repro.service.sharding import ShardedKbStore

    directory = tmp_path / "store"
    with ShardedKbStore(str(directory), num_shards=2) as store:
        for i in range(6):
            store.save(f"q{i}", _kb(f"t{i}"), corpus_version="v1")

    synced_fds = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced_fds.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(sharding.os, "fsync", recording_fsync)
    rebalanced = ShardedKbStore.rebalance(str(directory), 3)
    rebalanced.close()
    # One fsync per rename in the swap window (base -> retired,
    # staging -> base), at minimum.
    assert len(synced_fds) >= 2


def test_rebalance_crash_in_swap_window_recovers_all_entries(tmp_path):
    from repro.service.sharding import MANIFEST_NAME, ShardedKbStore

    directory = tmp_path / "store"
    with ShardedKbStore(str(directory), num_shards=2) as store:
        for i in range(8):
            store.save(f"q{i}", _kb(f"t{i}"), corpus_version="v1")

    schedule = FaultSchedule(
        actions=(FaultAction("sharding.rebalance.mid_swap", 1, "crash"),)
    )
    with inject(schedule):
        with pytest.raises(SimulatedCrash):
            ShardedKbStore.rebalance(str(directory), 3)
        # Crash landed inside the swap window: no store at the base
        # path, but a complete sibling survived.
        assert not (directory / MANIFEST_NAME).exists()
    recovered = ShardedKbStore.rebalance(str(directory), 3)
    try:
        assert recovered.num_shards == 3
        assert recovered.stats()["kb_entries"] == 8
        for i in range(8):
            loaded = recovered.load(f"q{i}", corpus_version="v1")
            assert loaded is not None
            assert loaded.to_dict() == _kb(f"t{i}").to_dict()
    finally:
        recovered.close()
    # The swap-window siblings were reclaimed by the recovery.
    assert not (tmp_path / "store.rebalance").exists()
    assert not (tmp_path / "store.rebalance-old").exists()


def test_save_rolls_back_on_base_exception(tmp_path):
    """A BaseException (KeyboardInterrupt-class, here SimulatedCrash)
    mid-save must roll the transaction back on the shared connection —
    the regression for the old ``except Exception`` guard."""
    from repro.service.kb_store import KbStore

    store = KbStore(str(tmp_path / "kb.sqlite"))
    try:
        store.save("intact", _kb("intact"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(FaultAction("kb_store.save.mid_entry", 1, "crash"),)
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.save("torn", _kb("torn"), corpus_version="v1")
        # The transaction was rolled back, not left open to leak the
        # torn rows into the next commit.
        assert not store._conn.in_transaction
        assert store.load("torn", corpus_version="v1") is None
        assert store.stats()["kb_entries"] == 1
        # The next save commits only itself.
        store.save("after", _kb("after"), corpus_version="v1")
        assert store.stats()["kb_entries"] == 2
        intact = store.load("intact", corpus_version="v1")
        assert intact is not None
        assert intact.to_dict() == _kb("intact").to_dict()
    finally:
        store.close()


def test_compact_rolls_back_on_base_exception(tmp_path):
    from repro.service.kb_store import KbStore

    store = KbStore(str(tmp_path / "kb.sqlite"))
    try:
        for i in range(4):
            store.save(f"q{i}", _kb(f"t{i}"), corpus_version="v1")
        schedule = FaultSchedule(
            actions=(FaultAction("kb_store.compact.mid", 1, "crash"),)
        )
        with inject(schedule):
            with pytest.raises(SimulatedCrash):
                store.compact(max_age_seconds=0.0, now=1e12)
        assert not store._conn.in_transaction
        # The interrupted TTL pass left nothing half-deleted behind.
        assert store.stats()["kb_entries"] == 4
    finally:
        store.close()
