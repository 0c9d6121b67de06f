"""End-to-end fault-injection scenario over a real deployment.

Not imported by ``repro.faultinject.__init__`` on purpose: this module
pulls in the whole core + serving stack, which the stdlib-only harness
modules (and the production ``fault_point`` call sites) must never do
transitively. Import it explicitly as ``repro.faultinject.harness``.

One :func:`run_schedule` call plays a fixed concurrency scenario
against a fresh deployment (tiny deterministic world, 2-shard SQLite
store in a temp directory, sync + async front ends) with a
:class:`~repro.faultinject.schedule.FaultSchedule` armed:

1. **serve v1** — two clients serve the most prominent entities, cold
   then warm, on the sync front end;
2. **refresh to v2** — explicit version bump while client threads keep
   serving concurrently (the swap window every freshness bug lives in);
3. **concurrent serve v2** — per-client threads (sequential within a
   client, so per-client monotonic freshness must hold by construction)
   plus an asyncio phase on the shared deployment;
4. **pool churn** — a live resize through the autoscale path;
5. **crash maintenance** — the service is closed, then the store is
   rebalanced to a new shard count and compacted *under crash
   injection*, retrying until the armed crashes are exhausted — the
   same crash/recover loop a real operator runs;
6. **verify** — every surviving store entry must load completely and
   hash to the digest clients were served (recorded as synthetic
   store serves, so the checker's divergent-content rule covers torn
   or partially-rebalanced entries), and the whole recorded history
   must pass :class:`~repro.faultinject.checker.MonotonicFreshnessChecker`.

Injected :class:`~repro.faultinject.points.SimulatedCrash` and typed
service errors are *expected* outcomes, counted not raised; the
scenario fails only on invariant violations or harness-level breakage
(a store entry unreadable after recovery, an unexpected exception
class). Everything is deterministic for a fixed schedule: the world is
seeded, delays come from the schedule, and per-client serving is
sequential — which is what makes ``same seed ⇒ same verdict`` testable.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faultinject.checker import MonotonicFreshnessChecker, Violation
from repro.faultinject.history import HistoryRecorder, kb_digest
from repro.faultinject.points import CATALOG, SimulatedCrash, inject
from repro.faultinject.schedule import FaultSchedule

#: The one injection point that needs a live process pool; schedules
#: for seeds not divisible by :data:`PROCESS_SEED_MODULUS` exclude it
#: (and the scenario then runs the much cheaper thread tier).
PROCESS_POINT = "process_executor.submit"
PROCESS_SEED_MODULUS = 5

#: Explicit corpus versions the scenario refreshes through — explicit
#: so the recorded refresh chain (and thus the checker's version order)
#: is stable across runs.
VERSION_TWO = "faultinject-v2"

_BUNDLE: Optional[Tuple[Any, Any, List[str]]] = None
_BUNDLE_LOCK = threading.Lock()


def _bundle() -> Tuple[Any, Any, List[str]]:
    """(world, background corpus, query list), built once per process.

    The world and background corpus are immutable inputs; each scenario
    builds its own SessionState/service on top, so sharing them only
    amortizes the ~0.25 s construction cost across a schedule sweep.
    """
    global _BUNDLE
    with _BUNDLE_LOCK:
        if _BUNDLE is None:
            from repro.corpus.background import build_background_corpus
            from repro.corpus.world import World, WorldConfig

            world = World(WorldConfig.tiny(), seed=3)
            background = build_background_corpus(world)
            entities = sorted(
                world.entity_repository.entities(),
                key=lambda e: -e.prominence,
            )
            queries = [e.canonical_name for e in entities[:4]]
            _BUNDLE = (world, background, queries)
        return _BUNDLE


def _fresh_session():
    """A new SessionState over the shared world (cheap relative to the
    world itself; fresh so corpus refreshes never leak across runs)."""
    from repro.core.qkbfly import SessionState
    from repro.corpus.retrieval import SearchEngine

    world, background, _ = _bundle()
    return SessionState(
        entity_repository=world.entity_repository,
        pattern_repository=world.pattern_repository,
        statistics=background.statistics,
        search_engine=SearchEngine.from_world(world, background.documents),
    )


def schedule_for_seed(seed: int) -> FaultSchedule:
    """The scenario's deterministic schedule for ``seed``.

    Most seeds exclude :data:`PROCESS_POINT` so the scenario runs the
    thread tier; every :data:`PROCESS_SEED_MODULUS`-th seed keeps the
    full catalog and runs a real process pool (worker kills included).
    The restriction is a pure function of the seed, so replaying a seed
    regenerates the identical schedule.
    """
    if seed % PROCESS_SEED_MODULUS == 0:
        points = None
    else:
        points = [name for name in CATALOG if name != PROCESS_POINT]
    return FaultSchedule.generate(seed, points=points)


@dataclass(frozen=True)
class _StoreServe:
    """Duck-typed result envelope for the verify phase's synthetic
    store reads (matches what HistoryRecorder.record_serve reads)."""

    client_id: str
    request_key: str
    corpus_version: str
    served_from: str
    kb: Any


@dataclass
class ScenarioReport:
    """Everything one scenario run produced.

    ``violations`` are checker verdicts over the recorded history;
    ``errors`` are harness-level breakage (unreadable entries after
    recovery, exceptions of an unexpected class). Either one fails the
    run; injected crashes and typed service errors are counted in
    ``counts`` and fail nothing.
    """

    schedule: FaultSchedule
    violations: List[Violation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    fired: List[Tuple[str, int, str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when no invariant broke and the harness ran clean."""
        return not self.violations and not self.errors

    def describe(self) -> str:
        """Multi-line failure/summary text with the replay recipe."""
        lines = [
            f"schedule: {self.schedule.describe()}",
            f"fired: {[f'{k}@{p}#{h}' for (p, h, k) in self.fired]}",
            f"counts: {dict(sorted(self.counts.items()))}",
        ]
        for violation in self.violations:
            lines.append(f"violation: {violation.describe()}")
        for error in self.errors:
            lines.append(f"error: {error}")
        return "\n".join(lines)


def run_scenario(seed: int) -> ScenarioReport:
    """Generate ``seed``'s schedule and run the scenario under it."""
    return run_schedule(schedule_for_seed(seed))


def run_schedule(schedule: FaultSchedule) -> ScenarioReport:
    """Run the fixed scenario with ``schedule`` armed; never raises for
    injected faults — see :class:`ScenarioReport`."""
    report = ScenarioReport(schedule=schedule)
    tmpdir = tempfile.mkdtemp(prefix="faultinject-")
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
    import asyncio
    import os

    from repro.service.api import QueryRequest, ServiceError
    from repro.service.async_service import AsyncQKBflyService
    from repro.service.service import QKBflyService, ServiceConfig
    from repro.service.sharding import ShardedKbStore

    _, _, queries = _bundle()
    use_process = any(a.point == PROCESS_POINT for a in schedule.actions)
    store_dir = os.path.join(tmpdir, "store")
    counts = report.counts
    counts.update(
        {"serves": 0, "crashes": 0, "service_errors": 0, "store_reads": 0}
    )
    recorder = HistoryRecorder()

    def guarded(fn, *args) -> Optional[Any]:
        """Run one operation; crashes and typed errors are outcomes."""
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
            store_shards=2,
            executor="process" if use_process else "thread",
            process_workers=2 if use_process else None,
        ),
    )
    service.attach_history(recorder)

    def serve(client: str, query: str) -> None:
        if (
            guarded(
                service.serve, QueryRequest(query=query, client_id=client)
            )
            is not None
        ):
            counts["serves"] += 1

    try:
        # Phase 1: cold + warm sync serving on the initial version.
        for client in ("alice", "bob"):
            for query in queries[:2]:
                serve(client, query)

        # Phases 2+3: refresh to v2 while per-client threads keep
        # serving. Each client's operations stay sequential inside its
        # own thread, so per-client freshness monotonicity must hold
        # whatever the interleaving — that is the invariant under test.
        def client_loop(client: str) -> None:
            for query in queries:
                serve(client, query)

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"fi-{c}")
            for c in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        guarded(service.refresh_corpus, None, None, None, VERSION_TWO)
        for thread in threads:
            thread.join()

        # Async front end over the same deployment (shared recorder).
        async def async_phase() -> None:
            front = AsyncQKBflyService(service)
            try:
                for query in queries[:2]:
                    try:
                        await front.serve(
                            QueryRequest(query=query, client_id="carol")
                        )
                        counts["serves"] += 1
                    except SimulatedCrash:
                        counts["crashes"] += 1
                    except ServiceError:
                        counts["service_errors"] += 1
            finally:
                await front.aclose()

        asyncio.run(async_phase())

        # Phase 4: pool churn through the autoscale path.
        guarded(service._resize_pools, 3)
        guarded(service._resize_pools, 2)
        for client in ("alice", "bob"):
            serve(client, queries[0])
    finally:
        # service.close carries a delay-only fault point, so this
        # always completes (and must: the store is reopened below).
        service.close()

    # Phase 5: offline maintenance under crash injection, retried
    # until the armed crashes exhaust — each action fires at most
    # once, so len(actions)+1 attempts always suffice.
    attempts = len(schedule.actions) + 1
    store: Optional[ShardedKbStore] = None
    for _ in range(attempts):
        try:
            store = ShardedKbStore.rebalance(store_dir, 3)
            break
        except SimulatedCrash:
            counts["crashes"] += 1
    if store is None:  # pragma: no cover - bounded by the retry math
        report.errors.append("rebalance never completed within retries")
        return
    for _ in range(attempts):
        try:
            # A far-future TTL: compaction must run its crash points
            # without legitimately deleting anything.
            store.compact(max_age_seconds=10_000_000.0)
            break
        except SimulatedCrash:
            counts["crashes"] += 1

    # Phase 6: verify. Every surviving entry must load completely; its
    # content digest is recorded as a synthetic store serve so the
    # checker's divergent-content rule compares it against what the
    # clients were actually handed.
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
                    "but unreadable after rebalance/compact recovery"
                )
                continue
            counts["store_reads"] += 1
            if sig.corpus_version != final_version:
                report.errors.append(
                    f"stale entry {sig.query!r}@{sig.corpus_version!r} "
                    f"survived refresh to {final_version!r}"
                )
            recorder.record_serve(
                _StoreServe(
                    client_id="verifier",
                    request_key=_request_key(service, sig),
                    corpus_version=sig.corpus_version,
                    served_from="store",
                    kb=kb,
                ),
                front_end="verify",
            )
    finally:
        store.close()

    events = recorder.snapshot()
    counts["events"] = len(events)
    report.violations = MonotonicFreshnessChecker().check(events)


def _request_key(service, sig) -> str:
    """The serve-path request key for a store signature, so the verify
    phase's synthetic serves land on the same digest table rows as the
    clients' recorded serves."""
    key = service.request_key(sig.query, sig.source, sig.num_documents)
    return key.signature()


def run_schedules(
    seeds: List[int],
) -> Tuple[List[ScenarioReport], List[int]]:
    """Run many seeded scenarios; returns (reports, failing seeds)."""
    reports: List[ScenarioReport] = []
    failing: List[int] = []
    for seed in seeds:
        report = run_scenario(seed)
        reports.append(report)
        if not report.passed:
            failing.append(seed)
    return reports, failing


__all__ = [
    "PROCESS_POINT",
    "PROCESS_SEED_MODULUS",
    "ScenarioReport",
    "run_scenario",
    "run_schedule",
    "run_schedules",
    "schedule_for_seed",
]
