"""Smoke tests: the scripts under scripts/ run against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["scripts/gallery_survey.py", "--max-len", "8", "--mh-bound", "8"], "paper12"),
        (["scripts/weight_table.py", "paper12"], "weights for gallery/paper12.morph"),
    ],
)
def test_script_exits_zero(argv, fragment):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert fragment in proc.stdout
