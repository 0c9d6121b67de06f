"""Seeded, replayable fault schedules.

A :class:`FaultSchedule` is the entire randomness of one harness run,
reified: a tuple of :class:`FaultAction` steps ("at the Nth arrival at
point P, do K"), generated from a single integer seed by
:meth:`FaultSchedule.generate`. Determinism is the contract —

- the same seed always generates the same schedule (a
  ``random.Random(seed)`` stream over the sorted catalog, no ambient
  entropy), so a CI failure that prints its seed is reproducible
  bit-for-bit on a laptop;
- a schedule JSON round-trips (:meth:`FaultSchedule.to_dict` /
  :meth:`FaultSchedule.from_dict`), so a *minimized* schedule — see
  :func:`minimize` — can be replayed directly, without its seed;
- :func:`minimize` is greedy delta-debugging: drop one action at a
  time, keep the drop whenever the scenario still fails, so the
  failure report shows the smallest schedule that still reproduces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faultinject.points import CATALOG, KIND_DELAY

#: Generation bounds: how many actions a random schedule carries and
#: how deep into a point's arrival stream an action may trigger.
MAX_ACTIONS = 4
MAX_HIT = 3


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: at the ``hit``-th arrival at ``point``,
    execute ``kind`` (``seconds`` applies to ``delay`` only; 0 uses
    :data:`~repro.faultinject.points.DELAY_SECONDS`)."""

    point: str
    hit: int
    kind: str
    seconds: float = 0.0

    def to_dict(self) -> Dict:
        """JSON wire form (used by failure reports and replays)."""
        out: Dict = {"point": self.point, "hit": self.hit, "kind": self.kind}
        if self.seconds:
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultAction":
        """Rebuild an action from its wire form."""
        return cls(
            point=data["point"],
            hit=int(data["hit"]),
            kind=data["kind"],
            seconds=float(data.get("seconds", 0.0)),
        )

    def describe(self) -> str:
        """``kind@point#hit`` — the compact form failure reports use."""
        return f"{self.kind}@{self.point}#{self.hit}"


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault actions, tagged with its seed (None for
    hand-built or minimized schedules)."""

    actions: Tuple[FaultAction, ...]
    seed: Optional[int] = None

    @classmethod
    def generate(
        cls,
        seed: int,
        points: Optional[Sequence[str]] = None,
        max_actions: int = MAX_ACTIONS,
        max_hit: int = MAX_HIT,
    ) -> "FaultSchedule":
        """The deterministic schedule for ``seed``.

        ``points`` restricts the catalog (e.g. the ingest scenario
        draws only from the points an ingest or serve crosses); the
        default is every catalog point. Actions never collide on
        ``(point, hit)`` — two actions at one arrival could fire in
        either order, which would break replay determinism.
        """
        names = sorted(points if points is not None else CATALOG)
        for name in names:
            if name not in CATALOG:
                raise ValueError(f"unknown fault point {name!r}")
        rng = random.Random(seed)
        count = rng.randint(1, max_actions)
        actions: List[FaultAction] = []
        taken = set()
        for _ in range(count):
            point = rng.choice(names)
            hit = rng.randint(1, max_hit)
            if (point, hit) in taken:
                continue
            taken.add((point, hit))
            kind = rng.choice(CATALOG[point])
            actions.append(
                FaultAction(
                    point=point,
                    hit=hit,
                    kind=kind,
                    # Delay length is part of the schedule, so replays
                    # reproduce the same widened window.
                    seconds=(
                        rng.choice((0.001, 0.005, 0.02))
                        if kind == KIND_DELAY
                        else 0.0
                    ),
                )
            )
        return cls(actions=tuple(actions), seed=seed)

    def without(self, index: int) -> "FaultSchedule":
        """This schedule minus the action at ``index`` (minimization
        step); the seed tag is dropped because the result no longer
        corresponds to any generated schedule."""
        return FaultSchedule(
            actions=self.actions[:index] + self.actions[index + 1 :],
            seed=None,
        )

    def to_dict(self) -> Dict:
        """JSON wire form: replay input and failure-report output."""
        return {
            "seed": self.seed,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSchedule":
        """Rebuild a schedule from its wire form."""
        return cls(
            actions=tuple(
                FaultAction.from_dict(item) for item in data["actions"]
            ),
            seed=data.get("seed"),
        )

    def describe(self) -> str:
        """One line: ``seed=S: kind@point#hit, ...`` (empty-safe)."""
        head = f"seed={self.seed}" if self.seed is not None else "minimized"
        if not self.actions:
            return f"{head}: (no actions)"
        return (
            f"{head}: "
            + ", ".join(action.describe() for action in self.actions)
        )


def minimize(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """The smallest sub-schedule that still fails ``still_fails``.

    Greedy one-at-a-time delta debugging: repeatedly try dropping each
    action; keep any drop after which the scenario still fails. The
    scenario callback is the oracle — it must be deterministic for the
    minimization to mean anything, which is what the seeded-replay
    regression tests pin down. Worst case O(n²) scenario runs for n
    actions; n is bounded by :data:`MAX_ACTIONS`.
    """
    current = schedule
    shrunk = True
    while shrunk and current.actions:
        shrunk = False
        for index in range(len(current.actions)):
            candidate = current.without(index)
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


__all__ = [
    "FaultAction",
    "FaultSchedule",
    "MAX_ACTIONS",
    "MAX_HIT",
    "minimize",
]
