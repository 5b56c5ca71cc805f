"""Write the golden outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose answers are the
reference (the outputs must not change under a refactor):

    python3 perfbench/capture_golden.py

It writes ``perfbench/golden/``: the five ``analyze --format json``
documents, the paper12 ``audit --max-len 48`` document, and
``expected.json`` with their exit codes and p(0..L) of the factors-deep
closures.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from run import ROOT, SRC, load_package


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    pkg = load_package()
    workloads.GOLDEN.mkdir(exist_ok=True)
    analyze_codes = set()
    for entry in workloads.GALLERY:
        code, out = workloads.run_cli(pkg.cli, ["analyze", f"gallery/{entry}.morph", "--format", "json"])
        analyze_codes.add(code)
        (workloads.GOLDEN / workloads.golden_analyze_name(entry)).write_text(out, "utf-8")
    if len(analyze_codes) != 1:
        raise SystemExit(f"analyze exit codes differ across the gallery: {analyze_codes}")
    audit_code, out = workloads.run_cli(pkg.cli, workloads.AUDIT_ARGV)
    (workloads.GOLDEN / workloads.AUDIT_GOLDEN).write_text(out, "utf-8")
    counts = {}
    for entry, max_len in workloads.CLOSURES:
        f = pkg.words.factor_closure(pkg.words.parse_morphism(pkg.cli.gallery_text(entry)), max_len)
        counts[f"{entry}-{max_len}"] = [pkg.words.subword_complexity(f, n) for n in range(max_len + 1)]
    expected = {
        "analyze_exit": analyze_codes.pop(),
        "audit_exit": audit_code,
        "closure_counts": counts,
    }
    (workloads.GOLDEN / workloads.EXPECTED).write_text(json.dumps(expected, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
