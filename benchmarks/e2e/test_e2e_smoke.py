"""Smoke test of the e2e benchmark:
``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (``benchmarks/conftest.py``
imports ``repro``).

Runs all four workloads at ``--scale 0.05`` with 2 untraced repeats and
one traced repeat, through the same single-workload entry point the
benchmark driver calls. Not in ``testpaths``: tier-1 is untouched.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """All four workloads, started together: the smoke test checks
    what is reported, not how fast, so they may share the two cores."""
    tmp_path = tmp_path_factory.mktemp("e2e")
    started = {}
    for name in spec.WORKLOADS:
        detail = tmp_path / f"{name}.json"
        started[name] = detail, subprocess.Popen(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", "7", "--scale", "0.05",
                "--repeats", "2", "--traced", "--detail", str(detail),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    results = {}
    try:
        for name, (detail, process) in started.items():
            stdout, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            results[name] = {
                "line": json.loads(stdout.strip().splitlines()[-1]),
                "detail": json.loads(detail.read_text()),
            }
    finally:
        for _, process in started.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    return results


def test_manifest_matches_spec():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END[: spec.IN_MANIFEST]
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.manifest_per_layer()
    ]


def test_manifest_stays_within_the_contract():
    names = [
        entry["name"]
        for block in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[block]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    # ISSUE 11: a metric that cannot hold 15 % gets a longer run or is
    # demoted to per_layer, never a wider bound.
    assert all(0 < m["bound"] <= 0.15 for m in MANIFEST["end_to_end"])
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])


def test_every_declared_metric_is_reported_and_finite(runs):
    for name, run in runs.items():
        reported = {**run["detail"]["end_to_end"], **run["detail"]["per_layer"]}
        for metric in spec.END_TO_END:
            if spec.defined_on(metric, name):
                assert math.isfinite(reported[metric.name]["value"]), metric.name
        for metric in spec.PER_LAYER:
            assert math.isfinite(reported[metric.name]["value"]), metric.name
        # The traced contract line carries the whole per_layer block.
        assert set(run["line"]["metrics"]) == {
            m.name for m in spec.manifest_per_layer()
        }
        for metric in spec.END_TO_END[1 : spec.IN_MANIFEST]:
            assert reported[metric.name]["value"] > 0, (name, metric.name)


def test_no_errors_and_outputs_match_the_oracle(runs):
    for name, run in runs.items():
        detail = run["detail"]
        assert detail["violations"] == [], name
        assert detail["end_to_end"]["error_rate"]["value"] == 0.0, name
        assert detail["oracle_checked"] > 0 and detail["oracle_mismatches"] == 0
        assert run["line"]["correct"] is True and run["line"]["failed"] == 0


def test_workloads_exercise_the_layers_they_claim(runs):
    layers = {name: run["detail"]["per_layer"] for name, run in runs.items()}
    assert layers["gateway_hot"]["executor.pipeline_runs"]["value"] == 0
    assert layers["overlap_variants"]["stage_cache.hit_ratio.nlp"]["value"] >= 0.95
    assert layers["overlap_variants"]["nlp.annotate_ms"]["value"] == 0
    assert layers["cold_distinct"]["nlp.annotate_ms"]["value"] > 0
    assert layers["ingest_mixed"]["retrieval.engine_build_ms"]["value"] > 0
    assert layers["ingest_mixed"]["versions.vector_size"]["value"] > 0
    assert layers["cold_distinct"]["versions.vector_size"]["value"] == 0


def test_layer_self_times_account_for_the_root_spans(runs):
    """Self times sum to the root by construction; what must stay small
    is the part of ``build_kb`` no wrapped layer claims."""
    for name in ("cold_distinct", "overlap_variants"):
        detail = runs[name]["detail"]
        assert detail["per_layer"]["qkbfly.unattributed_ratio"]["value"] <= 0.10
        timings = detail["timings"]
        serve = timings["service.serve"]
        below = sum(
            row["self_ms"]
            for span, row in timings.items()
            if "#" not in span and span != "service.serve"
        )
        assert serve["self_ms"] + below == pytest.approx(serve["total_ms"], rel=0.10)


def test_same_seed_same_schedule_other_seed_other_schedule():
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        assert workload.schedule(7, 0.05).digest == workload.schedule(7, 0.05).digest
        assert workload.schedule(7, 0.05).digest != workload.schedule(8, 0.05).digest
