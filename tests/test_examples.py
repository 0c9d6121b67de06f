"""Every example runs to completion, in a subprocess of its own.

A run strictly covers an import, so an API change that breaks an
example (say, a method that became a classmethod) fails here rather
than in a user's first copy-paste. ``http_gateway.py`` is run by
``tests/test_service_gateway.py`` against a live gateway.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path.name
    for path in (ROOT / "examples").glob("*.py")
    if path.name != "http_gateway.py"
)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_to_completion(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(ROOT / "examples" / example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), f"{example} printed nothing"
