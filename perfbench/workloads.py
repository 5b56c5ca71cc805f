"""The four workloads: their operations, inputs and output checks.

An operation is one call into the package's public API.  ``run`` is the
timed part.  ``check`` runs outside the timed region and returns the
operation's answer as canonical text (folded into the run's digest) and the
reasons the output is wrong, empty when it is right.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import mix

GOLDEN = Path(__file__).resolve().parent / "golden"
AUDIT_GOLDEN = "audit-paper12-48.json"
EXPECTED = "expected.json"
MIX_CATALOGUE = Path(__file__).resolve().parent / "mix_catalogue.json"

GALLERY = ("ba-example", "fibonacci", "paper12", "periodic-ab", "thue-morse")
AUDIT_ARGV = ["audit", "gallery/paper12.morph", "--max-len", "48", "--format", "json"]
CLOSURES = (("paper12", 128), ("fibonacci", 128))
MIX_MAX_LEN = 32

WORKLOADS = ("gallery-analyze", "factors-deep", "audit-deep", "random-mix")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]


def golden_analyze_name(entry: str) -> str:
    return f"analyze-{entry}.json"


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(cli, name: str, argv: list[str], want_code: int, want_out: str) -> Op:
    def check(result) -> tuple[str, list[str]]:
        code, out = result
        failures = []
        if code != want_code:
            failures.append(f"exit code {code}, expected {want_code}")
        if out != want_out:
            failures.append("stdout differs from the golden document")
        return out, failures

    return Op(name, lambda: run_cli(cli, argv), check)


def _closure_op(words, name: str, m, max_len: int, want: list[int]) -> Op:
    def check(f) -> tuple[str, list[str]]:
        counts = [words.subword_complexity(f, n) for n in range(max_len + 1)]
        failures = []
        if not f.exact:
            failures.append("factor set is not exact")
        if counts != want:
            failures.append("p(0..L) differs from the golden counts")
        return json.dumps(counts), failures

    return Op(name, lambda: words.factor_closure(m, max_len), check)


def _mix_op(words, report, cfg, index: int, inp: mix.MixInput) -> Op:
    label = f"random-mix/{index}.morph"

    def run():
        return report.analyze(words.parse_morphism(inp.text, filename=label), cfg, label)[0]

    def check(doc) -> tuple[str, list[str]]:
        return json.dumps(doc, sort_keys=True), mix.invariant_failures(inp, doc)

    return Op(label, run, check)


def build(name: str, seed: int, pkg: SimpleNamespace) -> list[Op]:
    """Read or generate the inputs of one workload and load its golden outputs."""
    ops: list[Op] = []
    expected = json.loads((GOLDEN / EXPECTED).read_text("utf-8"))
    if name == "gallery-analyze":
        for entry in GALLERY:
            want = (GOLDEN / golden_analyze_name(entry)).read_text("utf-8")
            argv = ["analyze", f"gallery/{entry}.morph", "--format", "json"]
            ops.append(_cli_op(pkg.cli, entry, argv, expected["analyze_exit"], want))
    elif name == "audit-deep":
        want = (GOLDEN / AUDIT_GOLDEN).read_text("utf-8")
        ops.append(_cli_op(pkg.cli, "audit-paper12", AUDIT_ARGV, expected["audit_exit"], want))
    elif name == "factors-deep":
        for entry, max_len in CLOSURES:
            m = pkg.words.parse_morphism(pkg.cli.gallery_text(entry))
            want = expected["closure_counts"][f"{entry}-{max_len}"]
            ops.append(_closure_op(pkg.words, f"{entry}-{max_len}", m, max_len, want))
    elif name == "random-mix":
        cfg = pkg.config.AnalysisConfig(max_len=MIX_MAX_LEN)
        strata = json.loads(MIX_CATALOGUE.read_text("utf-8"))["strata"]
        for i, inp in enumerate(mix.sample(seed, strata)):
            ops.append(_mix_op(pkg.words, pkg.report, cfg, i, inp))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops
