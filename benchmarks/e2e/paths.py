"""Where things live. Importing this module puts ``src/`` on
``sys.path`` (the benchmark runs from a plain checkout, uninstalled),
so every module that imports ``repro`` imports this one first."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
#: Scratch space for store directories and trace files: inside the
#: checkout (the benchmark driver lets a run write nowhere else),
#: git-ignored, emptied by the run that filled it.
WORK = HERE / ".work"

if not (SRC / "repro").is_dir():
    raise SystemExit(f"benchmarks/e2e: no program to measure at {SRC}/repro")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
