"""Smoke tests: the scripts under scripts/ and the benchmark's tracer hooks
still fit this checkout's package."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["scripts/gallery_survey.py", "--max-len", "8"], "paper12"),
        (["scripts/weight_table.py", "paper12"], "weights for gallery/paper12.morph"),
        (["scripts/weight_table.py", "fibonacci", "--n-max", "3"], "gcd(W4, W5)"),
        (["scripts/weight_table.py", "periodic-ab", "--n-max", "2"], "gcd(W4, W5)"),
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


def test_tracer_wraps_public_functions():
    """Every name in perfbench/tracer.py's WRAPPED is a public function of its module."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    for layer, names in wrapped.items():
        module = importlib.import_module(f"iteralg.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{layer}.{name}"
            assert not name.startswith("_")
