"""End-to-end fault-injection scenarios over a real deployment.

Not imported by ``repro.faultinject.__init__`` on purpose: this module
pulls in the whole core + serving stack, which the stdlib-only harness
modules (and the production ``fault_point`` call sites) must never do
transitively. Import it explicitly as ``repro.faultinject.harness``.

One base plays three scenario definitions (:data:`SCENARIOS`). Each
names its schedule's point set, the store fields of its
:class:`~repro.service.service.ServiceConfig`, and a phase function.
One :func:`run_schedule` call builds a fresh deployment (tiny
deterministic world, a store in a temp directory) with a
:class:`~repro.faultinject.schedule.FaultSchedule` armed, runs the
named scenario's phases against a :class:`ScenarioRun`, and checks the
recorded history with
:class:`~repro.faultinject.checker.MonotonicFreshnessChecker`:

- ``local`` — a 2-shard SQLite store; refresh racing client threads,
  an asyncio phase, then offline rebalance and compaction
  under crash injection (:func:`_local_phases`);
- ``fabric`` — the store behind socket shard servers with replica
  groups and an online rebalance under fire (:func:`_fabric_phases`);
- ``ingest`` — the live-ingest path, fully sequential, drawing from
  :data:`INGEST_POINTS` (:func:`_ingest_phases`).

Injected :class:`~repro.faultinject.points.SimulatedCrash` and typed
service errors are *expected* outcomes, counted not raised; a scenario
fails only on invariant violations or harness-level breakage (a store
entry unreadable after recovery, an unexpected exception class).
Everything is deterministic for a fixed schedule: the world is seeded,
delays come from the schedule, and per-client serving is sequential —
which is what makes ``same seed ⇒ same verdict`` testable.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.faultinject.checker import MonotonicFreshnessChecker, Violation
from repro.faultinject.history import EVENT_INGEST, EVENT_SERVE, HistoryRecorder
from repro.faultinject.points import SimulatedCrash, inject
from repro.faultinject.schedule import FaultSchedule

#: Explicit corpus versions the scenarios refresh through — explicit
#: so the recorded refresh chain (and thus the checker's version order)
#: is stable across runs.
VERSION_TWO = "faultinject-v2"

#: The catalog slice ingest schedules draw from: the three ingest
#: points plus every store/index point an ingest or serve crosses.
#: ``service.close`` is delay-only and keeps teardown exercised.
INGEST_POINTS = (
    "ingest.commit",
    "ingest.invalidate",
    "subscribe.deliver",
    "kb_store.save.mid_entry",
    "kb_store.save.pre_commit",
    "search.index.update",
    "service.close",
)

#: The client threads that serve concurrently with a scenario action.
_CLIENTS = ("alice", "bob")

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


@dataclass(frozen=True)
class _StoreServe:
    """Duck-typed result envelope for a verify phase's synthetic store
    reads (the shape ``HistoryRecorder.record_serve`` reads)."""

    client_id: str
    request_key: str
    corpus_version: str
    kb: Any
    entity_versions: Optional[Dict[str, int]] = None
    served_from: str = "store"


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


class ScenarioRun:
    """One scenario's deployment, history and report, plus the moves
    every phase function is built from."""

    def __init__(
        self, scenario: "Scenario", report: ScenarioReport, tmpdir: str
    ) -> None:
        from repro.service.service import QKBflyService, ServiceConfig

        self.report = report
        self.counts = report.counts
        self.counts.update(
            {"serves": 0, "crashes": 0, "service_errors": 0, "store_reads": 0}
        )
        # Each armed action fires at most once, so this many attempts
        # always push a retried operation through.
        self.attempts = len(report.schedule.actions) + 1
        self.queries = _bundle()[2]
        self.store_dir = os.path.join(tmpdir, "store")
        self.recorder = HistoryRecorder()
        self.service = QKBflyService(
            _fresh_session(),
            service_config=ServiceConfig(
                max_workers=2,
                num_documents=1,
                store_path=self.store_dir,
                **scenario.store,
            ),
        )
        self.service.attach_history(self.recorder)

    def guarded(self, fn: Callable, *args, **kwargs) -> Optional[Any]:
        """Run one operation; crashes and typed errors are outcomes."""
        from repro.service.api import ServiceError

        try:
            return fn(*args, **kwargs)
        except SimulatedCrash:
            self.counts["crashes"] += 1
        except ServiceError:
            self.counts["service_errors"] += 1
        return None

    def serve(self, client: str, query: str) -> None:
        """One guarded sync serve, counted when it returns a result."""
        from repro.service.api import QueryRequest

        request = QueryRequest(query=query, client_id=client)
        if self.guarded(self.service.serve, request) is not None:
            self.counts["serves"] += 1

    def serve_each(self, queries: List[str]) -> None:
        """Each client serves ``queries`` in turn, on this thread."""
        for client in _CLIENTS:
            for query in queries:
                self.serve(client, query)

    def retry(self, fn: Callable, *args) -> Optional[Any]:
        """Call ``fn`` until the armed crashes exhaust; records an error
        and returns None if it never completed."""
        for _ in range(self.attempts):
            try:
                return fn(*args)
            except SimulatedCrash:
                self.counts["crashes"] += 1
        # Unreachable while each armed action fires at most once.
        self.report.errors.append(
            f"{fn.__name__} never completed within {self.attempts} attempts"
        )
        return None

    def serve_during(self, action: Callable[[], Any]) -> Any:
        """Run ``action`` while each client serves every query from its
        own thread. Each client's operations stay sequential inside that
        thread, so per-client freshness monotonicity must hold whatever
        the interleaving — that is the invariant under test."""

        def client_loop(client: str) -> None:
            for query in self.queries:
                self.serve(client, query)

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"fi-{c}")
            for c in _CLIENTS
        ]
        for thread in threads:
            thread.start()
        try:
            return action()
        finally:
            for thread in threads:
                thread.join()

    def verify_store(
        self,
        store,
        final_version: str,
        stamp: Optional[Callable[[str], Dict[str, int]]] = None,
    ) -> Set[str]:
        """Walk ``store``: every listed entry must load and sit on
        ``final_version``. Each is recorded as a synthetic serve by a
        ``verifier`` client (stamped with ``stamp(query)`` when given),
        so the checker's divergent-content rule compares store bytes
        against what clients were actually handed. Returns the request
        keys present at ``final_version``."""
        from repro.service.kb_store import load_signature

        present: Set[str] = set()
        for sig in store.signatures():
            entry = f"{sig.query!r}@{sig.corpus_version!r}"
            kb = load_signature(store, sig)
            if kb is None:
                self.report.errors.append(
                    f"entry {entry} listed but unreadable after recovery"
                )
                continue
            self.counts["store_reads"] += 1
            if sig.corpus_version != final_version:
                self.report.errors.append(
                    f"stale entry {entry} survived; the final corpus "
                    f"version is {final_version!r}"
                )
            key = self.service.request_key(
                sig.query, sig.source, sig.num_documents
            ).signature()
            if sig.corpus_version == final_version:
                present.add(key)
            self.recorder.record_serve(
                _StoreServe(
                    client_id="verifier",
                    request_key=key,
                    corpus_version=sig.corpus_version,
                    kb=kb,
                    entity_versions=stamp(sig.query) if stamp else None,
                ),
                front_end="verify",
            )
        return present

    def check(self) -> None:
        """Run the whole recorded history through the checker."""
        events = self.recorder.snapshot()
        self.counts["events"] = len(events)
        self.report.violations = MonotonicFreshnessChecker().check(events)


def _local_phases(run: ScenarioRun) -> None:
    """Serve, refresh, async, then offline maintenance.

    1. **serve v1** — two clients serve the most prominent entities,
       cold then warm, on the sync front end;
    2. **refresh to v2** while client threads keep serving (the swap
       window every freshness bug lives in);
    3. **async** — an asyncio front end serves on the shared deployment;
    4. **crash maintenance** — the service is closed, then the store is
       rebalanced to 3 shards and compacted *under crash injection*,
       retried until the armed crashes exhaust: the same crash/recover
       loop a real operator runs;
    5. **verify** — every surviving entry must load completely and hash
       to the digest clients were served, so a torn or partially
       rebalanced entry shows up as divergent content.
    """
    import asyncio

    from repro.service.api import QueryRequest, ServiceError
    from repro.service.async_service import AsyncQKBflyService
    from repro.service.sharding import ShardedKbStore

    service, queries = run.service, run.queries
    try:
        run.serve_each(queries[:2])
        run.serve_during(
            lambda: run.guarded(
                service.refresh_corpus, None, None, None, VERSION_TWO
            )
        )

        async def async_phase() -> None:
            front = AsyncQKBflyService(service)
            try:
                for query in queries[:2]:
                    request = QueryRequest(query=query, client_id="carol")
                    try:
                        await front.serve(request)
                        run.counts["serves"] += 1
                    except SimulatedCrash:
                        run.counts["crashes"] += 1
                    except ServiceError:
                        run.counts["service_errors"] += 1
            finally:
                await front.aclose()

        asyncio.run(async_phase())
        run.serve_each(queries[:1])
    finally:
        # service.close carries a delay-only fault point, so this
        # always completes (and must: the store is reopened below).
        service.close()

    store = run.retry(ShardedKbStore.rebalance, run.store_dir, 3)
    if store is None:  # pragma: no cover - bounded by the retry math
        return
    try:
        # A far-future TTL: compaction must run its crash points
        # without legitimately deleting anything.
        run.retry(store.compact, 10_000_000.0)
        run.verify_store(store, store.corpus_version)
    finally:
        store.close()


def _fabric_phases(run: ScenarioRun) -> None:
    """Serve and refresh through the fabric, rebalance online, verify
    on the bare shard files.

    1. **serve v1** — every save crosses the wire to a shard server and
       is fanned to a replica asynchronously;
    2. **refresh to v2** while client threads keep serving. Replica
       reads must never resurrect v1: store keys include the corpus
       version, so a lagging replica *misses* and the read falls back
       to the primary;
    3. **online rebalance under fire** — 3 → 4 shards while the client
       threads continue. A crash at the copy or cutover point aborts
       that attempt but leaves the double-write window open, and the
       retry resumes it;
    4. **serve after cutover** — every query again, on the new
       generation;
    5. **verify** — the fabric is shut down and the primaries, plain
       SQLite shards, are reopened locally: they hold exactly the
       acknowledged state. Every cache- or store-served request key at
       the final version must still be present: **no lost acknowledged
       writes**. Such a serve implies a primary commit at that version
       (the store tier read it there; the cache tier was filled by a
       request whose save provably preceded the fill), and neither
       replication, the rebalance nor the shutdown may drop it.
       Executor serves are excluded: a pipeline run raced by the
       refresh is deliberately *not* persisted (its key is already
       stale), so its absence is correct.
    """
    from repro.service.sharding import ShardedKbStore

    service, queries = run.service, run.queries
    try:
        run.serve_each(queries[:2])
        run.serve_during(
            lambda: run.guarded(
                service.refresh_corpus, None, None, None, VERSION_TWO
            )
        )
        moved = run.serve_during(
            lambda: run.retry(service.store.online_rebalance, 4)
        )
        run.counts["rebalance_moved"] = moved or 0
        run.serve_each(queries)
    finally:
        # Drains queued replica deliveries, then stops the servers.
        service.close()

    served_events = run.recorder.snapshot()
    store = ShardedKbStore(run.store_dir)
    try:
        final_version = store.corpus_version
        present = run.verify_store(store, final_version)
    finally:
        store.close()
    lost = {
        event.request_key
        for event in served_events
        if event.kind == EVENT_SERVE
        and event.corpus_version == final_version
        and event.served_from in ("cache", "store")
        and event.request_key
        and event.request_key not in present
    }
    for key in sorted(lost):
        run.report.errors.append(
            f"acknowledged write {key!r}@{final_version!r} missing from "
            "the store after fabric shutdown"
        )


def _ingest_phases(run: ScenarioRun) -> None:
    """Ingests, serves and long-polls on one thread, then end-state
    checks.

    The order is seed-independent — only the fault schedule varies —
    so ``same seed ⇒ same verdict`` is exact rather than statistical
    and the end-state checks are exact too. Crashed ingests are retried
    through :meth:`~repro.service.ingest.pipeline.IngestPipeline.
    recover`, the loop a real feeder runs, so every document commits.

    - **acked ⇒ durable** — once an ingest is acknowledged (an
      ``EVENT_INGEST`` in the history), its final revision is in the
      live search engine, whatever crashed afterwards;
    - **no double delivery** — a delta acknowledged through the
      long-poll cursor is never delivered again. A crashed poll may
      re-deliver an *unacked* delta: that is the at-least-once
      contract, and the checker accepts the equal-version replay. The
      drained subscription must have seen every expected delta;
    - **no stale survivors** — every surviving store entry sits on the
      unrotated corpus version and is re-recorded as a synthetic serve
      stamped with the *current* version slice, so an entry that
      dodged invalidation collides with a fresh post-ingest serve in
      the checker's digest buckets (divergent content);
    - **per-entity monotone freshness** — checked over serves *and*
      deliveries by the checker.
    """
    from repro.service.api import IngestRequest, WatchRequest

    service, queries, counts = run.service, run.queries, run.counts
    counts.update({"ingests": 0, "polls": 0, "deltas": 0, "recovered": 0})
    errors = run.report.errors

    def ingest(doc_id: str, text: str) -> Optional[Any]:
        """Feed one document, retrying crashed attempts through
        recovery. Returns the acked result, or None when every attempt
        crashed."""
        request = IngestRequest(doc_id=doc_id, text=text, client_id="feed")
        for _ in range(run.attempts):
            result = run.guarded(service.ingest, request)
            if result is not None:
                counts["ingests"] += 1
                return result
            if run.guarded(service.ingest_pipeline.recover):
                counts["recovered"] += 1
        return None

    observed_ids: Set[int] = set()
    cursor = {"acked": 0}

    def poll(ack: bool) -> None:
        """One long-poll turn; ``ack`` advances the cursor past what
        this turn delivered. A delta at or below the acked cursor must
        never come back."""
        page = run.guarded(
            service.poll_deltas,
            subscription["subscription_id"],
            after=cursor["acked"],
            timeout=0.0,
        )
        if page is None:
            return
        counts["polls"] += 1
        for delta in page["deltas"]:
            delta_id = delta["delta_id"]
            if delta_id <= cursor["acked"]:
                errors.append(
                    f"delta {delta_id} re-delivered after the cursor "
                    f"acknowledged {cursor['acked']}"
                )
            observed_ids.add(delta_id)
            counts["deltas"] += 1
        if ack and page["deltas"]:
            cursor["acked"] = max(d["delta_id"] for d in page["deltas"])

    expected_docs: Dict[str, str] = {}
    expected_deltas = 0
    try:
        run.serve_each(queries[:3])
        subscription = service.watch(
            WatchRequest(entities=[queries[0], queries[1]], client_id="carol")
        )
        feed = [
            ("live-1", f"{queries[0]} announced a merger with {queries[1]}."),
            ("live-2", f"{queries[2]} opened a research lab in {queries[0]}."),
            (
                "live-1",
                f"{queries[0]} cancelled the merger after talks with "
                f"{queries[1]} collapsed.",
            ),
        ]
        for round_index, (doc_id, text) in enumerate(feed):
            result = ingest(doc_id, text)
            if result is not None:
                expected_docs[doc_id] = text
                expected_deltas += result.subscribers
            run.serve("alice", queries[0])
            run.serve("bob", queries[3])
            poll(ack=(round_index != 1))  # round 1 leaves its delta unacked

        # Drain: retried until a poll survives, then acked, then polled
        # once more — which must return nothing new.
        for _ in range(run.attempts):
            poll(ack=True)
        final = run.guarded(
            service.poll_deltas,
            subscription["subscription_id"],
            after=cursor["acked"],
            timeout=0.0,
        )
        if final is not None and final["deltas"]:
            errors.append(
                f"{len(final['deltas'])} deltas still pending after the "
                f"cursor acknowledged {cursor['acked']}"
            )
        if len(observed_ids) < expected_deltas:
            errors.append(
                f"subscriber observed {len(observed_ids)} distinct deltas "
                f"for {expected_deltas} acked matching ingests"
            )

        acked_ids = {
            event.doc_id
            for event in run.recorder.snapshot()
            if event.kind == EVENT_INGEST and event.doc_id
        }
        engine = service.session.search_engine
        for doc_id, text in expected_docs.items():
            if doc_id not in acked_ids:
                errors.append(
                    f"ingest of {doc_id!r} returned but was never recorded"
                )
            document = engine.news_docs.get(doc_id)
            if document is None:
                errors.append(
                    f"acked ingest {doc_id!r} lost: not in the live engine"
                )
            elif document.text != text:
                errors.append(
                    f"acked ingest {doc_id!r} lost: engine holds a stale "
                    "revision"
                )

        run.verify_store(
            service.store,
            service.session.corpus_version,
            stamp=service.entity_versions.versions_for_query,
        )
    finally:
        service.close()


@dataclass(frozen=True)
class Scenario:
    """One scenario definition: what :func:`run_schedule` varies."""

    name: str
    #: Schedule point set; None draws from the whole catalog.
    points: Optional[Tuple[str, ...]]
    #: Store fields of the deployment's ServiceConfig.
    store: Dict[str, Any]
    phases: Callable[[ScenarioRun], None]


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("local", None, {"store_shards": 2}, _local_phases),
        Scenario(
            "fabric",
            None,
            # 3 shards x 2-way replica groups behind socket servers.
            {
                "store_shards": 3,
                "store_backend": "fabric",
                "replication_factor": 2,
            },
            _fabric_phases,
        ),
        Scenario("ingest", INGEST_POINTS, {"store_shards": 2}, _ingest_phases),
    )
}


def schedule_for_seed(name: str, seed: int) -> FaultSchedule:
    """Scenario ``name``'s deterministic schedule for ``seed`` (pure
    function: replaying a seed regenerates the identical schedule)."""
    return FaultSchedule.generate(seed, points=SCENARIOS[name].points)


def run_scenario(name: str, seed: int) -> ScenarioReport:
    """Generate ``seed``'s schedule and run scenario ``name`` under it."""
    return run_schedule(name, schedule_for_seed(name, seed))


def run_schedule(name: str, schedule: FaultSchedule) -> ScenarioReport:
    """Run scenario ``name`` with ``schedule`` armed; never raises for
    injected faults — see :class:`ScenarioReport`."""
    scenario = SCENARIOS[name]
    report = ScenarioReport(schedule=schedule)
    tmpdir = tempfile.mkdtemp(prefix=f"faultinject-{name}-")
    try:
        with inject(schedule) as injector:
            try:
                run = ScenarioRun(scenario, report, tmpdir)
                scenario.phases(run)
                run.check()
            except Exception as error:  # pragma: no cover - harness bug
                report.errors.append(
                    f"unexpected {type(error).__name__}: {error}"
                )
            report.fired = list(injector.fired)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return report


def run_schedules(
    name: str, seeds: List[int]
) -> Tuple[List[ScenarioReport], List[int]]:
    """Run many seeded scenarios; returns (reports, failing seeds)."""
    reports = [run_scenario(name, seed) for seed in seeds]
    failing = [s for s, r in zip(seeds, reports) if not r.passed]
    return reports, failing


__all__ = [
    "INGEST_POINTS",
    "SCENARIOS",
    "VERSION_TWO",
    "Scenario",
    "ScenarioReport",
    "ScenarioRun",
    "run_scenario",
    "run_schedule",
    "run_schedules",
    "schedule_for_seed",
]
