"""Shared benchmark fixtures: one medium world per session, and the
paper goldens every bench's tables are checked against.

The benchmark world uses the default :class:`WorldConfig` (a few hundred
entities, ~1,000 ground-truth facts, 50 trend events) — large enough for
stable precision estimates, small enough that the whole suite runs in
minutes. The paper's absolute dataset sizes (14k Wikipedia pages) are
out of scope for a benchmark run; shapes, orderings and ratios are what
these benches reproduce.

Every table a bench prints through ``print_table`` is also compared,
cell by cell and row by row, with ``paper_golden.json``: extraction
counts, precisions to the printed places, and the row order (which
carries the orderings the docstrings promise). Wall-clock cells are
left out — they measure the machine, not the pipeline — and so are
Table 6's ILP rows, whose solver stops on a wall-clock budget.
``pytest benchmarks/bench_*.py --record-paper-golden`` rewrites the
golden entries of the tables it runs instead of checking them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

import pytest

from repro.corpus.background import build_background_corpus
from repro.corpus.world import World, WorldConfig

BENCH_SEED = 7

GOLDEN_PATH = Path(__file__).with_name("paper_golden.json")

#: Columns that time the run; they are printed but never golden.
TIMING_COLUMNS = frozenset({"s/doc", "ms/sentence", "total s"})


def _wall_clock_row(title: str, row: Sequence[Any]) -> bool:
    """Table 6's ILP rows: the branch-and-bound stops on wall time."""
    return title.startswith("Table 6") and "QKBfly-ilp" in row


def golden_table(title: str, header: Sequence, rows) -> Dict[str, List]:
    """The golden form of one printed table (timing cells dropped)."""
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return {
        "header": [header[i] for i in keep],
        "rows": [
            [row[i] for i in keep]
            for row in rows
            if not _wall_clock_row(title, row)
        ],
    }


def pytest_addoption(parser):
    parser.addoption(
        "--record-paper-golden",
        action="store_true",
        default=False,
        help="rewrite paper_golden.json entries instead of checking them",
    )


def pytest_configure(config):
    config._paper_golden_recorded = {}


def pytest_sessionfinish(session, exitstatus):
    recorded = getattr(session.config, "_paper_golden_recorded", {})
    if not recorded:
        return
    golden = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )
    golden.update(recorded)
    GOLDEN_PATH.write_text(
        json.dumps(dict(sorted(golden.items())), indent=1, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )


@pytest.fixture(autouse=True)
def paper_golden(request, monkeypatch):
    """Check (or record) every table the running bench prints."""
    module = request.module
    printer = getattr(module, "print_table", None)
    if printer is None:
        yield
        return
    config = request.config
    recording = config.getoption("--record-paper-golden")
    golden = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )

    def checked_print_table(title, header, rows):
        rows = [tuple(row) for row in rows]
        printer(title, header, rows)
        # A JSON round trip turns tuples into lists, as the file does.
        table = json.loads(json.dumps(golden_table(title, header, rows)))
        if recording:
            config._paper_golden_recorded[title] = table
            return
        assert title in golden, f"no golden for {title!r}; record it first"
        assert table == golden[title], (
            f"{title!r} differs from {GOLDEN_PATH.name}:\n"
            f"  golden: {golden[title]}\n  now:    {table}"
        )

    monkeypatch.setattr(module, "print_table", checked_print_table)
    yield


@pytest.fixture(scope="session")
def world() -> World:
    """The benchmark world (default config)."""
    return World(WorldConfig(), seed=BENCH_SEED)


@pytest.fixture(scope="session")
def background(world):
    """Background corpus + statistics for the benchmark world."""
    return build_background_corpus(world)
