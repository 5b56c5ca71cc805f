"""No floating point in the library: every decision path is exact."""

import ast
from pathlib import Path

import iteralg

FLOAT_FUNCTIONS = {"log", "exp", "sqrt"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, true division, ``float(`` call
    and ``math.log``, ``math.exp`` or ``math.sqrt`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_FUNCTIONS
        ):
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


def test_float_uses_are_found():
    source = "import math\nx = 1.5\ny = 3 / 2\ny /= 2\nz = float(3)\nw = math.sqrt(2)\nv = 7 // 2\n"
    assert [line for line, _ in float_uses(ast.parse(source))] == [2, 3, 4, 5, 6]


def test_library_has_no_floating_point():
    package = Path(iteralg.__file__).parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if (uses := float_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
