"""Fault-injection sweep driver: seeded, replayable, self-minimizing.

Runs one scenario of :mod:`repro.faultinject.harness` (``--scenario``:
``local``, ``fabric`` or ``ingest``) under randomized fault schedules.
Every schedule is a pure function of its scenario and integer seed, so
the one thing a red CI run needs to print is the seed and the scenario:

    PYTHONPATH=src python scripts/run_faultinject.py --seed 1234 --scenario fabric

reproduces the identical schedule, interleaving constraints, and
verdict. Without ``--seed``, a sweep of ``--schedules`` N seeds starting
at ``--base-seed`` runs; on failure the driver re-runs the failing
schedule through delta-debugging minimization and prints both the seed
and the smallest sub-schedule that still fails, as JSON and as a
one-line ``harness.run_schedule(scenario, FaultSchedule.from_dict(...))``
replay.

Exit status: 0 when every scenario passed, 1 otherwise (CI-red).

See ``docs/TESTING.md`` for the injection-point catalog and the full
reproduction recipe.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faultinject import harness  # noqa: E402
from repro.faultinject.schedule import minimize  # noqa: E402


def _report_failure(seed: int, report, scenario: str) -> None:
    """Print everything needed to reproduce and debug one failure."""
    print(f"\nFAIL seed={seed} scenario={scenario}")
    print(report.describe())
    print("reproduce with:")
    print(
        "  PYTHONPATH=src python scripts/run_faultinject.py "
        f"--seed {seed} --scenario {scenario}"
    )
    minimal = minimize(
        report.schedule,
        lambda candidate: not harness.run_schedule(scenario, candidate).passed,
    )
    print(f"minimized schedule ({len(minimal.actions)} action(s)):")
    print(f"  {minimal.describe()}")
    wire = json.dumps(minimal.to_dict())
    print(f"  {wire}")
    print(
        f'replay: harness.run_schedule("{scenario}", '
        f"FaultSchedule.from_dict(json.loads('{wire}')))"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="replay exactly one seeded schedule (from a CI failure)",
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=25,
        help="number of seeded schedules in a sweep (default: 25)",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="first seed of the sweep (default: 0)",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(harness.SCENARIOS),
        default="local",
        help="local: 2-shard store, offline rebalance/compact; fabric: "
        "socket shard servers, replica reads, online rebalance; ingest: "
        "live ingest, delta subscriptions, acked-ingest durability "
        "(default: local)",
    )
    args = parser.parse_args(argv)

    seeds = (
        [args.seed]
        if args.seed is not None
        else list(range(args.base_seed, args.base_seed + args.schedules))
    )
    started = time.perf_counter()
    failures = 0
    for seed in seeds:
        report = harness.run_scenario(args.scenario, seed)
        fired = len(report.fired)
        if report.passed:
            print(
                f"ok   seed={seed} fired={fired} "
                f"events={report.counts.get('events', 0)}"
            )
        else:
            failures += 1
            _report_failure(seed, report, args.scenario)
    elapsed = time.perf_counter() - started
    print(
        f"\n{len(seeds)} schedule(s), {failures} failure(s), "
        f"{elapsed:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
