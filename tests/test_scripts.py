"""Smoke tests: the scripts under scripts/, the README's library sketch and
the benchmark's tracer hooks still fit this checkout's package."""

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
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert fragment in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/gallery_survey.py", "--max-len", "0"],
        ["scripts/weight_table.py", "fibonacci", "--n-max", "-3"],
    ],
)
def test_script_rejects_a_bad_number_as_a_usage_error(argv):
    proc = run_script(argv)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


GOLDEN = "perfbench/golden/analyze-fibonacci.json"


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        ([GOLDEN, GOLDEN], 0, None),
        ([GOLDEN, "perfbench/golden/analyze-thue-morse.json"], 1, "morphism.source"),
        ([GOLDEN, "perfbench/golden/analyze-thue-morse.json", "--allow", "morphism",
          "shape", "matrix", "word", "complexity", "properties", "graded",
          "diagnostics"], 0, "morphism.source"),
    ],
)
def test_golden_diff_lists_paths_and_exits_one_outside_the_allowlist(argv, code, first_line):
    proc = run_script(["scripts/golden_diff.py", *argv])
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout.splitlines() or [None])[0] == first_line


def run_script(argv: list[str]) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("\n## Library sketch\n") :]
    start = section.index("```python\n") + len("```python\n")
    exec(compile(section[start : section.index("\n```", start)], "README.md", "exec"), {})


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
