"""Command-line front end: analyze, decide, audit, gallery.

Exit codes: 0 success / Yes / audit pass, 1 No / counterexample found,
2 parse or validation failure, budget error or failed internal check,
3 Unknown (and `analyze --strict` with any Unknown verdict).  Verdicts go to
stdout; diagnostics go to stderr, one line each: ``error:`` for parse and
validation errors, ``fatal:`` for budget errors and ``internal error:`` for a
failed self-check, whose results cannot be trusted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from . import report
from .config import AnalysisConfig
from .deciders import (
    RING_RULES,
    Verdict,
    _via,
    decide_eventual_periodicity,
    decide_prime,
    decide_primitive,
    decide_uniform_recurrence,
)
from .errors import ContractError, InvariantError, IterAlgError, MorphismParseError
from .words import Morphism, classify_shape, factor_closure, load_morphism, parse_morphism

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_UNKNOWN = 3

GALLERY_NAMES = ["ba-example", "fibonacci", "paper12", "periodic-ab", "thue-morse"]


def gallery_text(name: str) -> str:
    if name not in GALLERY_NAMES:
        raise ContractError(f"no gallery entry named {name!r}")
    return (
        resources.files("iteralg").joinpath(f"gallery/{name}.morph").read_text("utf-8")
    )


def _resolve_morphism(path: str) -> tuple[Morphism, str]:
    """Load from disk, falling back to the built-in gallery for gallery paths."""
    if os.path.exists(path):
        return load_morphism(path), path
    base = os.path.basename(path)
    name = base[:-6] if base.endswith(".morph") else base
    if name in GALLERY_NAMES:
        label = f"gallery/{name}.morph"
        return parse_morphism(gallery_text(name), filename=label), label
    raise MorphismParseError(f"no such file or gallery entry: {path}")


# The budget flags, one per AnalysisConfig field: name -> (metavar, help).  A
# command takes only the budgets it reads; one left unset keeps its default
# from ``config``.
BUDGET_FLAGS = {
    "prefix_letters": ("N", "fixed-point prefix budget in letters"),
    "max_len": ("L", "factor length bound"),
    "k_max": ("K", "iteration depth for the block-cover recurrence test"),
    "d_max": ("D", "largest graded degree audited"),
}


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(**{k: v for k, v in vars(args).items() if k in BUDGET_FLAGS})


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json(doc))
    else:
        sys.stdout.write(report.render_text(doc))


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    m, label = _resolve_morphism(args.path)
    doc, properties = report.analyze(m, cfg, label)
    _emit(doc, args.format)
    if args.strict and properties.has_unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def _verdict_exit(v: Verdict) -> int:
    if v.is_yes:
        return EXIT_OK
    if v.is_no:
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_decide(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    m, _ = _resolve_morphism(args.path)
    prop = args.property
    if prop == "primitive":
        verdict = decide_primitive(m, classify_shape(m))
    elif prop == "prime":
        verdict = decide_prime(m, classify_shape(m))
    elif prop in ("periodic", "pi", "noetherian"):
        verdict = decide_eventual_periodicity(m, factor_closure(m, cfg.max_len))
        if prop in RING_RULES:
            verdict = _via(verdict, RING_RULES[prop][1])
    elif prop == "ur":
        verdict = decide_uniform_recurrence(m, classify_shape(m), k_max=cfg.k_max)
    else:  # pragma: no cover - argparse restricts choices
        raise ContractError(f"unknown property {prop!r}")
    suffix = " (conditional)" if verdict.conditional and not verdict.is_unknown else ""
    bound = f" bound={verdict.bound}" if verdict.bound is not None else ""
    sys.stdout.write(f"{prop}: {verdict.value.value}{suffix}{bound}\n")
    sys.stdout.write(
        "certificate: " + json.dumps(verdict.certificate, sort_keys=True) + "\n"
    )
    return _verdict_exit(verdict)


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    m, label = _resolve_morphism(args.path)
    doc, passed, counterexamples = report.audit(m, cfg, label)
    _emit(doc, args.format)
    if args.format == "text":  # the JSON document carries them in result.counterexamples
        for c in counterexamples:
            sys.stdout.write(f"counterexample: {c}\n")
    return EXIT_OK if passed else EXIT_NO


def cmd_gallery(args: argparse.Namespace) -> int:
    if args.gallery_cmd == "list":
        for name in GALLERY_NAMES:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    sys.stdout.write(gallery_text(args.name))
    return EXIT_OK


def _add_flags(p: argparse.ArgumentParser, budgets, *, report_format: bool) -> None:
    for name in budgets:
        metavar, text = BUDGET_FLAGS[name]
        p.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS,
                       metavar=metavar, help=text)
    if report_format:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one, so repeated `main` calls in one process build it once.

    `set_defaults(func=cmd_*)` binds the command functions when the parser is
    built: replacing a `cli.cmd_*` after the first call does not reach `main`.
    """
    parser = argparse.ArgumentParser(
        prog="iteralg",
        description="Analyze pure morphic words and their monomial algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for a morphism file")
    p_analyze.add_argument("path")
    _add_flags(p_analyze, BUDGET_FLAGS, report_format=True)
    p_analyze.add_argument("--strict", action="store_true",
                           help="exit 3 when any verdict is Unknown")
    p_analyze.set_defaults(func=cmd_analyze)

    p_decide = sub.add_parser("decide", help="one property verdict with certificate")
    p_decide.add_argument("path")
    p_decide.add_argument(
        "property",
        choices=("prime", "periodic", "ur", "primitive", "pi", "noetherian"),
    )
    _add_flags(p_decide, ("max_len", "k_max"), report_format=False)
    p_decide.set_defaults(func=cmd_decide)

    p_audit = sub.add_parser("audit", help="graded audit: chains, rotations, brackets")
    p_audit.add_argument("path")
    _add_flags(p_audit, BUDGET_FLAGS, report_format=True)
    p_audit.set_defaults(func=cmd_audit)

    p_gallery = sub.add_parser("gallery", help="built-in example morphisms")
    gsub = p_gallery.add_subparsers(dest="gallery_cmd", required=True)
    g_list = gsub.add_parser("list")
    g_list.set_defaults(func=cmd_gallery)
    g_show = gsub.add_parser("show")
    g_show.add_argument("name")
    g_show.set_defaults(func=cmd_gallery)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc} (results cannot be trusted)\n")
        return EXIT_PARSE
    except (MorphismParseError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except IterAlgError as exc:
        sys.stderr.write(f"fatal: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
