#!/usr/bin/env python3
"""Print graded weight diagnostics for a morphism file.

Shows W_n under both index conventions (u^T M^n theta and u^T (M^T)^n theta),
their parities, the recurrence read off the characteristic polynomial, and
gcd(W_4, W_5) for each convention.

Usage: python3 scripts/weight_table.py PATH [--n-max N]
"""

import argparse
import math

from iteralg.cli import _resolve_morphism
from iteralg.errors import MorphismParseError
from iteralg.matrices import char_poly, incidence_matrix, recurrence_from_charpoly, weight_sequence
from iteralg.words import fixed_point_prefix


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path")
    ap.add_argument("--n-max", type=int, default=16)
    args = ap.parse_args()
    if args.n_max < 0:
        ap.error("--n-max must be nonnegative")

    try:
        m, label = _resolve_morphism(args.path)
    except MorphismParseError as exc:
        ap.error(str(exc))
    M = incidence_matrix(m)
    poly = char_poly(M)
    # the gcd line reads W4 and W5, the recurrence poly.degree terms
    n_max = max(args.n_max, poly.degree, 5)
    ws = weight_sequence(m, M, fixed_point_prefix(m, 1), n_max)
    rec = recurrence_from_charpoly(poly, ws.direct)

    print(f"weights for {label} (degree map: "
          + " ".join(f"{m.letters[i]}={m.degrees[i]}" for i in range(m.size)) + ")")
    print(f"{'n':>4}  {'direct':>16}  {'transposed':>16}  {'d%2':>3} {'t%2':>3}")
    shown = list(zip(ws.direct, ws.transposed))[: args.n_max + 1]
    for n, (a, b) in enumerate(shown):
        print(f"{n:>4}  {a:>16}  {b:>16}  {a % 2:>3} {b % 2:>3}")
    div = ws.first_divergence
    if div is None:
        print("\nconventions agree on every computed term")
    else:
        print(f"\nconventions diverge from n={div}; both are exact for their own definition")
    print(f"gcd(W4, W5): direct={math.gcd(ws.direct[4], ws.direct[5])}, "
          f"transposed={math.gcd(ws.transposed[4], ws.transposed[5])}")
    print(f"recurrence (order {rec.order}): s_n = "
          + " + ".join(f"{c}*s_n-{k}" for k, c in enumerate(rec.coeffs, 1) if c))


if __name__ == "__main__":
    main()
