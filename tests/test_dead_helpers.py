"""No dead helpers in the library: every module-level private function or
class is named by library code outside its own definition, so a helper kept
alive only by a test import fails here."""

import ast
from pathlib import Path

import iteralg


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private function or class in
    ``sources`` (module name to source text) that no code in ``sources``
    names, as a name, an attribute or an import, outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append((module, node.lineno))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            outside = [
                (where, line)
                for where, line in uses.get(node.name, [])
                if where != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                dead.append(f"{module}.{node.name}")
    return dead


def test_unreferenced_private_helpers_are_found():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\n"
        "def _used():\n    pass\n\nclass _Held:\n    pass\n\ndef public():\n    return _used()\n",
        "b": "from a import _Held\n\nclass _Kept:\n    pass\n\nimport a\nx = a._Kept\n",
    }
    assert unreferenced_private(sources) == ["a._dead"]


def test_library_has_no_dead_private_helpers():
    package = Path(iteralg.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unreferenced_private(sources) == []
