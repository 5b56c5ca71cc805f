"""Plain result records are ``typing.NamedTuple``s: a ``@dataclass`` in the
library must validate, derive or cache state, because creating one costs
about ten times as much at import as a NamedTuple of the same fields."""

import ast
from pathlib import Path

import iteralg

# field(...) keywords that make a field derived state rather than a plain value
_STATE_FIELD_FLAGS = {"init", "repr", "compare"}


def _name(node: ast.expr) -> str | None:
    """The last dotted name of a decorator or annotation, through calls and
    subscripts: ``dataclasses.dataclass(frozen=True)`` gives ``dataclass``."""
    while isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _holds_state(cls: ast.ClassDef) -> bool:
    """Whether the class body has a dunder method, a ``cached_property``, a
    ``ClassVar`` or a ``field(...)`` with ``init``, ``repr`` or ``compare``
    set to False."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if node.name.startswith("__") and node.name.endswith("__"):
                return True
            if any(_name(d) == "cached_property" for d in node.decorator_list):
                return True
        elif isinstance(node, ast.AnnAssign):
            if _name(node.annotation) == "ClassVar":
                return True
            value = node.value
            if isinstance(value, ast.Call) and _name(value) == "field":
                for kw in value.keywords:
                    if (
                        kw.arg in _STATE_FIELD_FLAGS
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        return True
    return False


def plain_dataclasses(sources: dict[str, str]) -> list[str]:
    """``module.Class`` for each ``@dataclass`` class in ``sources`` (module
    name to source text) that neither validates, derives nor caches state."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(_name(d) == "dataclass" for d in node.decorator_list) and not _holds_state(node):
                found.append(f"{module}.{node.name}")
    return found


def test_plain_dataclasses_are_found():
    sources = {
        "a": "from dataclasses import dataclass, field\n\n"
        "@dataclass(frozen=True)\nclass Plain:\n    x: int\n"
        "    y: dict = field(default_factory=dict)\n\n"
        "    @property\n    def twice(self):\n        return 2 * self.x\n\n"
        "@dataclass\nclass Checked:\n    x: int\n\n    def __post_init__(self):\n        pass\n\n"
        "@dataclass(frozen=True)\nclass Derived:\n    x: int\n    y: int = field(init=False)\n",
        "b": "import dataclasses\nfrom functools import cached_property\nfrom typing import ClassVar, NamedTuple\n\n"
        "@dataclasses.dataclass\nclass Cached:\n    x: int\n\n"
        "    @cached_property\n    def y(self):\n        return self.x\n\n"
        "@dataclasses.dataclass\nclass Flagged:\n    exact: ClassVar[bool] = True\n\n"
        "@dataclasses.dataclass\nclass Hidden:\n    x: int = dataclasses.field(repr=True)\n\n"
        "class Record(NamedTuple):\n    x: int\n",
    }
    assert plain_dataclasses(sources) == ["a.Plain", "b.Hidden"]


def test_library_records_without_state_are_named_tuples():
    package = Path(iteralg.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert plain_dataclasses(sources) == []
