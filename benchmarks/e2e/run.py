"""The repo's standing performance benchmark (ISSUE 11).

    python benchmarks/e2e/run.py --seed 7              # all four workloads
    python benchmarks/e2e/run.py --seed 7 --traced     # ... plus the per-layer table
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload cold_distinct --seed 7 --seconds 10 --trace 0

The first three forms are for people; the last is the contract the
benchmark driver calls (``BENCHMARK.json``): one workload, one JSON
object on the last line of stdout. The full run executes each workload
in a fresh interpreter through that same single-workload path.

See ``README.md`` beside this file for the metric glossary, the
layer -> end-to-end predictions and how to read a comparison.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

import spec
from stats import percentile, summary

#: The warm-up pass runs this share of the op list, untimed.
WARMUP_SHARE = 0.25
#: Every process that hosts the program runs under one hash seed.
#: ``QKBfly.build_kb`` sums floats in set-iteration order, so its
#: confidences differ in the last digit between hash seeds: without
#: the pin a child server and the oracle, or two runs of one seed,
#: would not be bit-identical and ``output_digest`` would never repeat.
PINNED_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


# ---- one workload, in this interpreter -------------------------------------


def run_workload(
    name: str, seed: int, scale: float, repeats: int, traced: bool
) -> Dict[str, Any]:
    """Warm-up, ``repeats`` untraced repeats and, if ``traced``, one
    traced repeat; returns the workload's full result."""
    import paths  # noqa: F401  (fails here, before any output, without src/)
    from layers import layer_metrics, timing_table
    from oracle import digest
    from trace import Recorder, analyze, install
    from workloads import WORKLOADS, pin_to_own_cpu

    pin_to_own_cpu()
    workload = WORKLOADS[name]
    load_start = os.getloadavg()[0]
    schedule = workload.schedule(seed, scale)
    if not workload.hosted_in_child:
        workload.run(workload.schedule(seed, scale * WARMUP_SHARE), None, verify=False)

    def deploy(recorder, verify):
        # Every deployment starts from a collected heap. Left alone, the
        # previous deployment's garbage is collected somewhere in the
        # next one's set-up: cold_distinct's setup_s then varies by 13 %
        # from repeat to repeat instead of 2-5 %.
        gc.collect()
        return workload.run(schedule, recorder, verify)

    # One deployment may give several repeats (gateway_hot); the first
    # one's output goes to the oracle.
    untraced: List[Any] = []
    while len(untraced) < repeats:
        untraced += deploy(None, verify=not untraced)
    traced_repeat = None
    if traced:
        recorder = Recorder()
        uninstall = install(recorder)
        try:
            [traced_repeat] = deploy(recorder, verify=False)
            if not traced_repeat.records:  # in-process: the spans are ours
                traced_repeat.records = recorder.records()
        finally:
            uninstall()
    everything = untraced + ([traced_repeat] if traced else [])

    violations = [text for repeat in everything for text in repeat.violations]
    digests = {digest(repeat.served) for repeat in everything}
    if len(digests) != 1:
        violations.append("served KBs differ between repeats of one schedule")
    for key in everything[0].exact:
        if len({repeat.exact[key] for repeat in everything}) != 1:
            violations.append(f"count {key} differs between repeats")
    attempted = sum(repeat.ok + repeat.failed for repeat in everything)
    failed = sum(repeat.failed + repeat.oracle_mismatches for repeat in everything)

    phases: Dict[str, Dict[str, int]] = {}
    for repeat in everything:
        sent = repeat.ok + repeat.failed
        one_phase = {"timed": {"sent": sent, "ok": repeat.ok, "failed": repeat.failed}}
        for phase, block in (repeat.phases or one_phase).items():
            total = phases.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0})
            for key in total:
                total[key] += block[key]

    end_to_end = _end_to_end(
        untraced, failed / max(1, attempted), hosted_in_child=workload.hosted_in_child
    )
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "repeats": len(untraced),
        "traced": traced,
        "schedule_digest": schedule.digest,
        "output_digest": sorted(digests)[0],
        "loadavg_1m_start": load_start,
        "noisy": load_start >= (os.cpu_count() or 1)
        or any(repeat.noisy for repeat in everything),
        "correct": not violations and failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "oracle_checked": sum(repeat.oracle_checked for repeat in everything),
        "oracle_mismatches": sum(repeat.oracle_mismatches for repeat in everything),
        "violations": violations,
        "phases": phases,
        "exact": everything[0].exact,
        "end_to_end": end_to_end,
    }
    if traced:
        spans = analyze(traced_repeat.records, traced_repeat.windows)
        per_layer = layer_metrics(traced_repeat, spans)
        per_layer["trace.overhead_ratio"] = (
            percentile(traced_repeat.latencies_ms, 0.5)
            / end_to_end["latency_p50_ms"]["value"]
        )
        # Counted by the oracle pass, which only the first untraced
        # repeat runs.
        per_layer["ingest.drifted_serves"] = float(
            untraced[0].counts.get("ingest.drifted_serves", 0)
        )
        result["per_layer"] = {key: summary([value]) for key, value in per_layer.items()}
        result["timings"] = timing_table(spans)
    return result


def _end_to_end(
    repeats: List[Any], error_rate: float, hosted_in_child: bool
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload: each the median, IQR
    and count of one statistic per repeat."""

    def per_repeat(statistic) -> Dict[str, Any]:
        return summary([statistic(repeat) for repeat in repeats])

    def p50(pick):
        return per_repeat(lambda r: percentile(pick(r), 0.5))

    def p95(pick):
        return per_repeat(lambda r: percentile(pick(r), 0.95))

    # Peak RSS is a high-water mark of the hosting process. A child
    # server's is read after every repeat; in process the mark only
    # grows and the last reading is the workload's.
    rss = [r.peak_rss_mb for r in repeats]
    if not hosted_in_child:
        rss = rss[-1:]
    metrics = {
        "setup_s": summary([r.setup_s for r in repeats if r.setup_s]),
        "latency_p50_ms": p50(lambda r: r.latencies_ms),
        "latency_p95_ms": p95(lambda r: r.latencies_ms),
        "throughput_ops_s": per_repeat(lambda r: r.throughput_ops / r.wall_s),
        "cpu_ms_per_op": per_repeat(lambda r: sum(r.cpu_ms) / max(1, r.ok)),
        "peak_rss_mb": summary(rss),
        "error_rate": summary([error_rate]),
    }
    if "ingest" in repeats[0].samples:
        metrics["ingest_p50_ms"] = p50(lambda r: r.samples["ingest"])
        # One repeat has too few ingests beyond its p95: the value is
        # the p95 of the samples pooled over the repeats, beside the
        # spread of the per-repeat p95s.
        pooled = [ms for r in repeats for ms in r.samples["ingest"]]
        metrics["ingest_p95_ms"] = {
            **p95(lambda r: r.samples["ingest"]),
            "value": percentile(pooled, 0.95),
        }
        metrics["requery_p50_ms"] = p50(lambda r: r.samples["requery"])
        metrics["search_p50_ms"] = p50(lambda r: r.samples["search"])
    return metrics


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The driver's one-line result: every ``end_to_end`` metric of
    ``BENCHMARK.json`` untraced, every ``per_layer`` metric traced."""
    if trace:
        declared = spec.manifest_per_layer()
        measured = {**result["end_to_end"], **result["per_layer"]}
    else:
        declared = spec.END_TO_END[: spec.IN_MANIFEST]
        measured = result["end_to_end"]
    metrics = {
        metric.name: {
            "value": measured[metric.name]["value"] if metric.name in measured else 0.0,
            "unit": metric.unit,
        }
        for metric in declared
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# ---- the full run ----------------------------------------------------------


def _git_commit(repo: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", repo, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_all(args: argparse.Namespace) -> int:
    import paths

    paths.WORK.mkdir(exist_ok=True)
    results: Dict[str, Any] = {}
    for name in spec.WORKLOADS:
        detail = paths.WORK / f"detail-{os.getpid()}-{name}.json"
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--scale", str(args.scale), "--repeats", str(args.repeats),
            "--detail", str(detail),
        ] + (["--traced"] if args.traced else [])
        print(f"== {name}: {spec.WORKLOADS[name]}", flush=True)
        try:
            done = subprocess.run(
                command, stdout=subprocess.DEVNULL, env=PINNED_ENV, check=False
            )
            if done.returncode != 0 or not detail.exists():
                print(f"   workload exited {done.returncode} without a result")
                return 2
            results[name] = json.loads(detail.read_text())
        finally:
            detail.unlink(missing_ok=True)
        print_workload(results[name])
    document = {
        "meta": {
            "seed": args.seed,
            "scale": args.scale,
            "repeats": args.repeats,
            "traced": args.traced,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _git_commit(str(paths.REPO)),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "workloads": results,
    }
    # Outside the work tree unless told otherwise: git status stays clean.
    output = args.output or os.path.join(
        tempfile.gettempdir(),
        f"qkbfly-e2e-seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json",
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"\nresult written to {output}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def print_workload(result: Dict[str, Any]) -> None:
    name = result["workload"]
    flags = "  NOISY" if result["noisy"] else ""
    print(
        f"   seed {result['seed']}  scale {result['scale']}  "
        f"repeats {result['repeats']}  schedule {result['schedule_digest'][:12]}  "
        f"output {result['output_digest'][:12]}{flags}"
    )
    for phase, block in result["phases"].items():
        print(f"   phase {phase}: sent {block['sent']}  ok {block['ok']}  failed {block['failed']}")
    print(
        f"   oracle: {result['oracle_checked']} checked, "
        f"{result['oracle_mismatches']} mismatched"
    )
    for text in result["violations"]:
        print(f"   VIOLATION: {text}")
    print(f"   {'metric':<20}{'unit':<10}{'dir':<5}{'bound':>6}{'value':>12}{'IQR':>11}{'n':>4}")
    for metric in spec.END_TO_END:
        if not spec.defined_on(metric, name):
            continue
        row = result["end_to_end"][metric.name]
        arrow = "v" if metric.better == "lower" else "^"
        bound = "abs 0" if metric.name == "error_rate" else f"{metric.bound:.0%}"
        print(
            f"   {metric.name:<20}{metric.unit:<10}{arrow:<5}{bound:>6}"
            f"{row['value']:>12.4f}{row['iqr']:>11.4f}{row['n']:>4}"
        )
    if "per_layer" in result:
        print("   -- per layer (traced repeat; layers not entered read 0 and are left out)")
        for metric in spec.PER_LAYER:
            row = result["per_layer"][metric.name]
            if row["value"]:
                print(f"   {metric.name:<36}{metric.unit:>16}{row['value']:>14.4f}")
        print(f"   -- spans {'total ms':>37}{'self ms':>11}{'calls':>8}{'p50 us':>10}")
        for span, row in result["timings"].items():
            print(
                f"   {span:<36}{row['total_ms']:>10.2f}{row['self_ms']:>11.2f}"
                f"{row['calls']:>8}{row['p50_us']:>10.1f}"
            )


# ---- comparing two result files --------------------------------------------


def verdict(metric: spec.Metric, parent: Dict[str, Any], change: Dict[str, Any]) -> str:
    """within / worse / better / unresolved for one metric x workload
    (choosing-metrics section 6.5)."""
    a, b = parent["value"], change["value"]
    if metric.name == "error_rate":
        return "worse" if b > a else "better" if b < a else "within"
    if a == 0:
        return "within" if b == 0 else "unresolved"
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b - a) / a
    spread = max(parent["iqr"] / a, change["iqr"] / b if b else 0.0)
    if spread > metric.bound:
        pa, pb = parent["values"], change["values"]
        all_better = max(sign * v for v in pb) < min(sign * v for v in pa)
        all_worse = min(sign * v for v in pb) > max(sign * v for v in pa)
        if not (all_better or all_worse):
            return "unresolved"
    if worsening > metric.bound:
        return "worse"
    return "better" if worsening < -metric.bound else "within"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        parent = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        change = json.load(handle)["workloads"]
    worse = 0
    print(
        f"{'workload':<18}{'metric':<20}{'A value':>12}{'A IQR':>10}"
        f"{'B value':>12}{'B IQR':>10}{'change':>9}  verdict"
    )
    for name in spec.WORKLOADS:
        if name not in parent or name not in change:
            continue
        for metric in spec.END_TO_END:
            if not spec.defined_on(metric, name):
                continue
            a, b = parent[name]["end_to_end"][metric.name], change[name]["end_to_end"][metric.name]
            outcome = verdict(metric, a, b)
            worse += outcome == "worse"
            relative = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            print(
                f"{name:<18}{metric.name:<20}{a['value']:>12.4f}{a['iqr']:>10.4f}"
                f"{b['value']:>12.4f}{b['iqr']:>10.4f}{relative:>+9.1%}  {outcome}"
            )
        for key in ("schedule_digest", "output_digest"):
            same = parent[name][key] == change[name][key]
            print(f"{name:<18}{key:<20}{'identical' if same else 'DIFFERENT'}")
    return 1 if worse else 0


# ---- command line ----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--traced", action="store_true", help="add one traced repeat per workload")
    parser.add_argument("--scale", type=float, default=1.0, help="share of each op list to run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", help="result file of the full run")
    contract = parser.add_argument_group("single workload (benchmark driver contract)")
    contract.add_argument("--workload", choices=list(spec.WORKLOADS))
    contract.add_argument("--seconds", type=float, help="timed seconds to size the run for")
    contract.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1 is --traced"
    )
    contract.add_argument("--detail", help="also write the full result here")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != PINNED_ENV["PYTHONHASHSEED"]:
        os.execve(sys.executable, [sys.executable] + sys.argv, PINNED_ENV)

    scale, repeats, traced = args.scale, args.repeats, args.traced or bool(args.trace)
    if args.seconds is not None:
        from workloads import WORKLOADS

        # --seconds is spent by sizing the op list of a fixed number
        # of repeats, never by timing a repeat out.
        workload = WORKLOADS[args.workload]
        scale = min(
            1.0,
            args.seconds
            * workload.contract_seconds_factor
            / (workload.contract_repeats * workload.nominal_seconds),
        )
        repeats = workload.contract_repeats
    result = run_workload(args.workload, args.seed, scale, repeats, traced)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    for text in result["violations"]:
        print(f"VIOLATION: {text}", file=sys.stderr)
    print(contract_line(result, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
