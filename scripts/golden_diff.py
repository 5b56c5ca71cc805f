#!/usr/bin/env python3
"""List the JSON paths whose values differ between two report documents.

A path is the dotted chain of keys and list indices from the top, such as
``properties.eventually_periodic.value``; a key present on one side only,
or a list whose length changed, is one path.  Each differing path is printed
on its own line.  ``--allow PATH`` admits a difference at PATH or below it.
Exits 1 when a difference lies outside every allowed path, 0 otherwise, so a
change that should touch only some verdict fields can show that it does:

    python3 scripts/golden_diff.py old/analyze-paper12.json \\
        perfbench/golden/analyze-paper12.json --allow properties.jacobson_trivial

Usage: python3 scripts/golden_diff.py OLD NEW [--allow JSON.PATH ...]
"""

import argparse
import json
import sys
from collections.abc import Iterator


def differing_paths(old: object, new: object, path: str = "") -> Iterator[str]:
    """The paths below ``path`` at which ``old`` and ``new`` differ, in the
    order of ``old``'s keys, then ``new``'s extra keys."""
    where = f"{path}." if path else ""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            if key in old and key in new:
                yield from differing_paths(old[key], new[key], f"{where}{key}")
            else:
                yield f"{where}{key}"
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differing_paths(a, b, f"{where}{i}")
    elif type(old) is not type(new) or old != new:  # 1 == True, but not in JSON
        yield path or "."


def allowed(path: str, allow: list[str]) -> bool:
    return any(path == a or path.startswith(f"{a}.") for a in allow)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--allow", action="extend", nargs="+", default=[], metavar="JSON.PATH")
    args = ap.parse_args()
    docs = []
    for name in (args.old, args.new):
        try:
            with open(name, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            ap.error(f"cannot read {name}: {exc}")
    outside = 0
    for path in differing_paths(*docs):
        print(path)
        outside += not allowed(path, args.allow)
    if outside:
        print(f"{outside} differing path(s) outside the allowlist", file=sys.stderr)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
