"""Fault-injection scenario over the multi-process shard fabric.

The sibling of :mod:`repro.faultinject.harness` with the store behind
``ServiceConfig(store_backend="fabric")``: three shards served by
socket shard servers with two-way replica groups, and an **online**
rebalance running while clients keep serving. The phases:

1. **serve v1** — two clients serve cold then warm on the sync front
   end; every save crosses the wire to a shard server and is fanned to
   a replica asynchronously;
2. **refresh to v2** — version bump while per-client threads keep
   serving (replica reads must never resurrect v1 — structurally,
   because store keys include the corpus version, a lagging replica
   *misses* and the read falls back to the primary);
3. **online rebalance under fire** — the routed store is rebalanced
   3 → 4 shards while the client threads continue; injected crashes at
   the copy and cutover points are retried until the schedule's armed
   crashes exhaust, exercising the resume path of the double-write
   window;
4. **serve after cutover** — every query is served again on the new
   generation;
5. **verify** — the fabric is shut down, the shard files are reopened
   *locally* (the primaries are plain SQLite shards), and: every
   surviving entry must load and digest-match what clients were served
   (the checker's divergent-content rule); every request key a client
   was served at the final version must still be present (**no lost
   acknowledged writes** — an acknowledged save is a primary commit
   and nothing later may drop it); and the full recorded history must
   pass :class:`~repro.faultinject.checker.MonotonicFreshnessChecker`.

Same determinism contract as the base harness — and the same schedule:
:func:`~repro.faultinject.harness.schedule_for_seed` draws from the
whole catalog, fabric points included, so a red seed replays to the
same verdict.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from typing import Any, List, Optional

from repro.faultinject.checker import MonotonicFreshnessChecker
from repro.faultinject.harness import (
    VERSION_TWO,
    ScenarioReport,
    _bundle,
    _fresh_session,
    _request_key,
    _StoreServe,
    schedule_for_seed,
)
from repro.faultinject.history import EVENT_SERVE, HistoryRecorder
from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultSchedule

#: Shard/replica shape of the scenario's fabric deployment.
FABRIC_SHARDS = 3
FABRIC_REPLICATION = 2
#: The online rebalance grows the fabric to this many shards mid-run.
FABRIC_REBALANCE_TO = 4


def run_fabric_scenario(seed: int) -> ScenarioReport:
    """Generate ``seed``'s schedule and run the fabric scenario."""
    return run_fabric_schedule(schedule_for_seed(seed))


def run_fabric_schedule(schedule: FaultSchedule) -> ScenarioReport:
    """Run the fabric scenario with ``schedule`` armed; injected faults
    are outcomes, not raises — see :class:`ScenarioReport`."""
    report = ScenarioReport(schedule=schedule)
    tmpdir = tempfile.mkdtemp(prefix="faultinject-fabric-")
    try:
        with inject(schedule) as injector:
            try:
                _run_phases(schedule, report, tmpdir)
            except Exception as error:  # pragma: no cover - harness bug
                report.errors.append(
                    f"unexpected {type(error).__name__}: {error}"
                )
            report.fired = list(injector.fired)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return report


def _run_phases(
    schedule: FaultSchedule, report: ScenarioReport, tmpdir: str
) -> None:
    import os

    from repro.service.api import QueryRequest, ServiceError
    from repro.service.service import QKBflyService, ServiceConfig
    from repro.service.sharding import ShardedKbStore

    _, _, queries = _bundle()
    store_dir = os.path.join(tmpdir, "store")
    counts = report.counts
    counts.update(
        {
            "serves": 0,
            "crashes": 0,
            "service_errors": 0,
            "store_reads": 0,
            "rebalance_moved": 0,
        }
    )
    recorder = HistoryRecorder()

    def guarded(fn, *args) -> Optional[Any]:
        try:
            return fn(*args)
        except SimulatedCrash:
            counts["crashes"] += 1
        except ServiceError:
            counts["service_errors"] += 1
        return None

    service = QKBflyService(
        _fresh_session(),
        service_config=ServiceConfig(
            max_workers=2,
            num_documents=1,
            store_path=store_dir,
            store_shards=FABRIC_SHARDS,
            store_backend="fabric",
            replication_factor=FABRIC_REPLICATION,
        ),
    )
    service.attach_history(recorder)
    attempts = len(schedule.actions) + 1

    def serve(client: str, query: str) -> None:
        if (
            guarded(
                service.serve, QueryRequest(query=query, client_id=client)
            )
            is not None
        ):
            counts["serves"] += 1

    try:
        # Phase 1: cold + warm serving through the fabric.
        for client in ("alice", "bob"):
            for query in queries[:2]:
                serve(client, query)

        # Phase 2: refresh to v2 while client threads keep serving.
        def client_loop(client: str) -> None:
            for query in queries:
                serve(client, query)

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"ff-{c}")
            for c in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        guarded(service.refresh_corpus, None, None, None, VERSION_TWO)
        for thread in threads:
            thread.join()

        # Phase 3: online rebalance while clients serve on top of it.
        # A crash at the copy or cutover point aborts *this attempt*
        # but leaves the double-write window open; re-calling resumes.
        # Each armed action fires at most once, so len(actions)+1
        # attempts always complete the rebalance.
        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"fr-{c}")
            for c in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        rebalanced = False
        for _ in range(attempts):
            try:
                counts["rebalance_moved"] = service.store.online_rebalance(
                    FABRIC_REBALANCE_TO
                )
                rebalanced = True
                break
            except SimulatedCrash:
                counts["crashes"] += 1
        for thread in threads:
            thread.join()
        if not rebalanced:  # pragma: no cover - bounded by the retry math
            report.errors.append(
                "online rebalance never completed within retries"
            )

        # Phase 4: every query served again on the new generation.
        for client in ("alice", "bob"):
            for query in queries:
                serve(client, query)
    finally:
        # Drains queued replica deliveries, then stops the servers.
        service.close()

    # Phase 5: verify on the bare files. The primaries are ordinary
    # SQLite shards, so a local reopen reads exactly the acknowledged
    # (primary-committed) state the fabric must not have lost.
    served_events = recorder.snapshot()
    store = ShardedKbStore(store_dir)
    present_at_final: set = set()
    try:
        final_version = store.corpus_version
        for sig in store.signatures():
            kb = store.load(
                sig.query,
                corpus_version=sig.corpus_version,
                mode=sig.mode,
                algorithm=sig.algorithm,
                source=sig.source,
                num_documents=sig.num_documents,
                config_digest=sig.config_digest,
            )
            if kb is None:
                report.errors.append(
                    f"entry {sig.query!r}@{sig.corpus_version!r} listed "
                    "but unreadable after fabric shutdown"
                )
                continue
            counts["store_reads"] += 1
            if sig.corpus_version != final_version:
                report.errors.append(
                    f"stale entry {sig.query!r}@{sig.corpus_version!r} "
                    f"survived refresh to {final_version!r}"
                )
            key = _request_key(service, sig)
            if sig.corpus_version == final_version:
                present_at_final.add(key)
            recorder.record_serve(
                _StoreServe(
                    client_id="verifier",
                    request_key=key,
                    corpus_version=sig.corpus_version,
                    served_from="store",
                    kb=kb,
                ),
                front_end="verify",
            )
    finally:
        store.close()

    # No lost acknowledged writes: a cache or store serve at the final
    # version implies the entry was committed on a primary at that
    # version (the store tier read it there; the cache tier was filled
    # by a request whose save provably preceded the cache fill), and
    # neither replication, the online rebalance, nor the shutdown may
    # have dropped it. Executor serves are excluded: a pipeline run
    # raced by the refresh is deliberately *not* persisted (its key is
    # already stale), so its absence is correct behaviour.
    lost = {
        event.request_key
        for event in served_events
        if event.kind == EVENT_SERVE
        and event.corpus_version == final_version
        and event.served_from in ("cache", "store")
        and event.request_key
        and event.request_key not in present_at_final
    }
    for key in sorted(lost):
        report.errors.append(
            f"acknowledged write {key!r}@{final_version!r} missing from "
            "the store after fabric shutdown"
        )

    events = recorder.snapshot()
    counts["events"] = len(events)
    report.violations = MonotonicFreshnessChecker().check(events)


def run_fabric_schedules(
    seeds: List[int],
) -> tuple:
    """Run many seeded fabric scenarios; (reports, failing seeds)."""
    reports: List[ScenarioReport] = []
    failing: List[int] = []
    for seed in seeds:
        report = run_fabric_scenario(seed)
        reports.append(report)
        if not report.passed:
            failing.append(seed)
    return reports, failing


__all__ = [
    "FABRIC_REBALANCE_TO",
    "FABRIC_REPLICATION",
    "FABRIC_SHARDS",
    "run_fabric_scenario",
    "run_fabric_schedule",
    "run_fabric_schedules",
]
