#!/usr/bin/env python3
"""Sweep the built-in gallery and print one verdict row per morphism.

Usage: python3 scripts/gallery_survey.py [--max-len L]
"""

import argparse
import time

from iteralg.cli import GALLERY_NAMES, gallery_text
from iteralg.deciders import ring_property_report, run_deciders
from iteralg.words import classify_shape, factor_closure, parse_morphism


def fmt(verdict) -> str:
    mark = {"Yes": "yes", "No": "no", "Unknown": "?"}[verdict.value.value]
    return mark + ("*" if verdict.conditional else "")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=32)
    args = ap.parse_args()
    if args.max_len < 1:
        ap.error("--max-len must be at least 1")

    header = f"{'name':<14}{'shape':<12}{'prime':<8}{'j.inf':<8}{'pi':<8}{'gk':<5}{'class':<22}{'time':<8}"
    print(header)
    print("-" * len(header))
    for name in GALLERY_NAMES:
        m = parse_morphism(gallery_text(name))
        t0 = time.perf_counter()
        shape = classify_shape(m)
        deps = run_deciders(m, shape, factor_closure(m, args.max_len))
        rep = ring_property_report(deps)
        elapsed = time.perf_counter() - t0
        shape_txt = f"{shape.d_uniform}-uniform" if shape.d_uniform else "general"
        print(
            f"{name:<14}{shape_txt:<12}{fmt(rep.prime):<8}{fmt(rep.just_infinite):<8}"
            f"{fmt(rep.pi):<8}{rep.gk_dimension:<5}{rep.complexity_class.value:<22}{elapsed:6.2f}s"
        )
    print("\n(* = verdict rests on a bounded search)")


if __name__ == "__main__":
    main()
