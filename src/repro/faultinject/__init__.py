"""Deterministic fault injection + history checking for the serving tier.

Four import-light modules (stdlib only — the serving layer imports
*them*, so they must never import it back):

- :mod:`repro.faultinject.points` — the injection-point catalog,
  :func:`~repro.faultinject.points.fault_point` hooks (no-ops unless a
  schedule is armed), and :class:`~repro.faultinject.points.SimulatedCrash`;
- :mod:`repro.faultinject.schedule` — seeded, replayable
  :class:`~repro.faultinject.schedule.FaultSchedule` generation and
  delta-debugging :func:`~repro.faultinject.schedule.minimize`;
- :mod:`repro.faultinject.history` — per-client
  :class:`~repro.faultinject.history.HistoryRecorder` event logs;
- :mod:`repro.faultinject.checker` — the offline
  :class:`~repro.faultinject.checker.MonotonicFreshnessChecker`.

The end-to-end scenarios live in ``repro.faultinject.harness`` — one
base and three scenario definitions (``local``, ``fabric``,
``ingest``) — and are *not* imported here: they pull in the whole
core + serving stack, which production call sites of ``fault_point``
must not do transitively.
"""

from repro.faultinject.checker import (
    MonotonicFreshnessChecker,
    Violation,
)
from repro.faultinject.history import (
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

__all__ = [
    "CATALOG",
    "FaultAction",
    "FaultInjector",
    "FaultSchedule",
    "HistoryEvent",
    "HistoryRecorder",
    "MonotonicFreshnessChecker",
    "SimulatedCrash",
    "Violation",
    "fault_point",
    "inject",
    "kb_digest",
    "minimize",
]
