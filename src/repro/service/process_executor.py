"""Multi-process pipeline execution: escaping the GIL for CPU-bound work.

The thread-pool :class:`~repro.service.executor.BatchExecutor` only
speeds up *repeated* queries (via single-flight dedup) — concurrent
**distinct** queries still serialize on the GIL, because the QKBfly
pipeline (parsing, graph building, densification) is pure-Python CPU
work. The :class:`ProcessBatchExecutor` runs those pipeline stages in a
``multiprocessing`` pool instead, so distinct queries scale with cores:

- work crosses the process boundary in small **picklable envelopes**
  (:class:`PipelineRequest` in, :class:`PipelineResponse` out — the KB
  travels as its ``to_dict`` payload, never as live objects);
- each worker bootstraps its own pipeline once, from a pickled
  :class:`~repro.core.qkbfly.SessionState` (cheap: the session excludes
  derived NLP state from its pickle and rebuilds it lazily);
- when the session cannot be pickled (e.g. a corpus object holding
  sockets or mmaps) or no process pool can be created, the executor
  **falls back to threads** transparently — same API, same results,
  ``kind == "thread"`` — so serving never hard-fails on exotic corpora.

Single-flight deduplication is inherited by composing the (race-fixed)
``BatchExecutor`` over the process pool: a burst of identical envelopes
costs one worker task.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.qkbfly import QKBfly, QKBflyConfig, SessionState
from repro.faultinject.points import fault_point
from repro.kb.facts import KnowledgeBase
from repro.service.executor import BatchExecutor


@dataclass(frozen=True)
class PipelineRequest:
    """Picklable envelope for one pipeline run (hashable: it is its own
    single-flight key).

    Like the public v1 envelopes (:mod:`repro.service.api`), it JSON
    round-trips via ``to_dict``/``from_dict`` — the process tier ships
    it as a pickle today, but a multi-node transport can reuse the same
    wire form.
    """

    query: str
    source: str = "wikipedia"
    num_documents: int = 1

    def to_dict(self) -> Dict:
        """JSON wire form of the envelope."""
        return {
            "query": self.query,
            "source": self.source,
            "num_documents": self.num_documents,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineRequest":
        """Rebuild the envelope from its wire form."""
        return cls(
            query=data["query"],
            source=data.get("source", "wikipedia"),
            num_documents=int(data.get("num_documents", 1)),
        )


@dataclass
class PipelineResponse:
    """Picklable envelope for one pipeline result.

    The KB crosses the process boundary as its ``to_dict`` payload and
    is rebuilt as a sealed :class:`KnowledgeBase` on this side.
    """

    kb_payload: Dict
    worker_pid: int
    seconds: float

    def to_kb(self) -> KnowledgeBase:
        """The sealed KnowledgeBase the payload encodes."""
        return KnowledgeBase.from_dict(self.kb_payload)

    def to_dict(self) -> Dict:
        """JSON wire form of the envelope (the KB payload already is)."""
        return {
            "kb_payload": self.kb_payload,
            "worker_pid": self.worker_pid,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineResponse":
        """Rebuild the envelope from its wire form."""
        return cls(
            kb_payload=data["kb_payload"],
            worker_pid=int(data.get("worker_pid", 0)),
            seconds=float(data.get("seconds", 0.0)),
        )


# Per-worker pipeline, set once by the pool initializer. A module-level
# global is the multiprocessing idiom: initializer args reach the child
# exactly once, while task functions must stay importable top-level
# callables.
_WORKER_QKBFLY: Optional[QKBfly] = None


def _bootstrap_worker(
    session_payload: bytes, config: Optional[QKBflyConfig]
) -> None:
    """Build this worker's pipeline from the pickled session."""
    global _WORKER_QKBFLY
    session: SessionState = pickle.loads(session_payload)
    _WORKER_QKBFLY = QKBfly.from_session(session, config=config)


def _execute(qkbfly: QKBfly, request: PipelineRequest) -> PipelineResponse:
    """One envelope through one pipeline — the single place the
    response envelope is built, shared by both execution tiers."""
    started = time.perf_counter()
    kb = qkbfly.build_kb(
        request.query,
        source=request.source,
        num_documents=request.num_documents,
    )
    return PipelineResponse(
        kb_payload=kb.to_dict(),
        worker_pid=os.getpid(),
        seconds=time.perf_counter() - started,
    )


def _run_request(request: PipelineRequest) -> PipelineResponse:
    """Execute one envelope on this worker's pipeline."""
    if _WORKER_QKBFLY is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker used before _bootstrap_worker ran")
    return _execute(_WORKER_QKBFLY, request)


class _LocalRunner:
    """Thread-fallback twin of the worker globals: one shared pipeline,
    same envelope discipline (results still round-trip through dicts so
    both kinds return equally private KBs)."""

    def __init__(self, session: SessionState, config: Optional[QKBflyConfig]):
        self._qkbfly = QKBfly.from_session(session, config=config)

    def __call__(self, request: PipelineRequest) -> PipelineResponse:
        return _execute(self._qkbfly, request)


class ProcessBatchExecutor:
    """Pipeline runs on a process pool, with thread fallback.

    Args:
        session: The shared session; pickled once and shipped to every
            worker's bootstrap.
        config: Pipeline configuration for the workers (pickled along).
        max_workers: Pool size (processes, or threads after fallback).
        force_threads: Skip processes entirely — lets deployments (and
            tests) pin the fallback path explicitly.
    """

    def __init__(
        self,
        session: SessionState,
        config: Optional[QKBflyConfig] = None,
        max_workers: int = 2,
        force_threads: bool = False,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.kind = "process"
        self.fallback_reason: Optional[str] = None
        pool = None
        if force_threads:
            self.kind = "thread"
            self.fallback_reason = "forced by configuration"
        else:
            try:
                session_payload = pickle.dumps(session)
                pickle.dumps(config)
            except Exception as error:
                self.kind = "thread"
                self.fallback_reason = f"session not picklable: {error}"
            else:
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=max_workers,
                        initializer=_bootstrap_worker,
                        initargs=(session_payload, config),
                    )
                except Exception as error:
                    self.kind = "thread"
                    self.fallback_reason = f"no process pool: {error}"
        if self.kind == "process":
            self._batch = BatchExecutor(_run_request, pool=pool)
        else:
            self._batch = BatchExecutor(
                _LocalRunner(session, config), max_workers=max_workers
            )

    # ---- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool."""
        self._batch.shutdown(wait=wait)

    def __enter__(self) -> "ProcessBatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ---- execution ---------------------------------------------------------

    def submit(self, request: PipelineRequest) -> Future:
        """Schedule one envelope; resolves to a :class:`PipelineResponse`.

        The envelope is its own single-flight key: concurrent identical
        requests share one worker task.
        """
        # Parent-side hook: worker processes never see the armed
        # injector (it lives in this process's module global), so
        # mid-flight worker death is injected here, where the pool
        # handle is reachable.
        fault_point("process_executor.submit", executor=self)
        return self._batch.submit(request, request)

    def build_kb(
        self,
        query: str,
        source: str = "wikipedia",
        num_documents: int = 1,
    ) -> KnowledgeBase:
        """Blocking drop-in for :meth:`QKBfly.build_kb` on the pool."""
        request = PipelineRequest(
            query=query, source=source, num_documents=num_documents
        )
        response: PipelineResponse = self.submit(request).result()
        return response.to_kb()

    def run_batch(
        self, requests: Sequence[PipelineRequest]
    ) -> List[KnowledgeBase]:
        """Run envelopes concurrently; KBs come back in input order."""
        responses = self._batch.run_batch(list(requests))
        return [response.to_kb() for response in responses]

    # ---- fault injection ---------------------------------------------------

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool workers (empty on the thread tier).

        Snapshot-only: workers may die or respawn after this returns.
        """
        if self.kind != "process":
            return []
        pool = self._batch._pool
        processes = getattr(pool, "_processes", None) or {}
        return sorted(processes)

    def kill_one_worker(self) -> Optional[int]:
        """SIGKILL one live pool worker; returns its pid (None if none).

        The fault-injection harness uses this to exercise real
        mid-flight worker death: the stdlib pool reacts by breaking
        (``BrokenProcessPool``), which the serving layer must surface
        as typed failure envelopes, never as hangs or silent drops.
        A no-op on the thread tier (threads cannot be killed).
        """
        pids = self.worker_pids()
        if not pids:
            return None
        victim = pids[0]
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError:  # pragma: no cover - worker already exited
            return None
        return victim

    # ---- monitoring --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Distinct pipeline envelopes currently in flight on the pool.

        The process-tier twin of
        :attr:`~repro.service.executor.BatchExecutor.pending` — the
        autoscaler reads it (alongside the request executor's own
        depth) when sizing the pool, and admission control sheds on the
        combined view. Queue *waits* are not measured here (the timing
        wrapper cannot cross the process boundary); the request
        executor in front of this pool measures them instead.
        """
        return self._batch.pending

    @property
    def submitted(self) -> int:
        """Distinct worker tasks actually dispatched."""
        return self._batch.submitted

    @property
    def deduplicated(self) -> int:
        """Requests absorbed by an in-flight identical envelope."""
        return self._batch.deduplicated

    def stats(self) -> Dict[str, Any]:
        """Executor counters for the service's monitoring surface."""
        return {
            "kind": self.kind,
            "max_workers": self.max_workers,
            "submitted": self.submitted,
            "deduplicated": self.deduplicated,
            "fallback_reason": self.fallback_reason,
        }


__all__ = [
    "PipelineRequest",
    "PipelineResponse",
    "ProcessBatchExecutor",
]
