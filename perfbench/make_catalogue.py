"""Write the random-mix catalogue: generated morphisms grouped by analysis cost.

Run from the root of a checkout:

    python3 perfbench/make_catalogue.py

It generates ``SIZE`` distinct morphisms from ``random.Random(CATALOGUE_SEED)``, times
``report.analyze`` on each at the random-mix budgets (median of ``REPEATS``
interleaved rounds), and writes ``perfbench/mix_catalogue.json`` with the
texts sorted by time and cut into strata of ``STRATUM_SIZES``.  A random-mix
run draws a pair of morphisms at mirrored cost ranks from every stratum, so
its total work varies little with the seed.
The timings only order the catalogue; rerunning on other hardware may move a
few morphisms between neighbouring strata.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

import mix
import workloads
from run import ROOT, SRC, load_package

CATALOGUE_SEED = 20150305
REPEATS = 3
# The costliest tail rises steeply, so it gets two narrow strata: a mirrored
# pair from one wide stratum there would cost far more than the stratum mean.
STRATUM_SIZES = (30,) * 7 + (15, 15)
SIZE = sum(STRATUM_SIZES)


def cut(timed: list[tuple[float, int, str]]) -> dict:
    """The catalogue document for (seconds, index, text) rows sorted by seconds."""
    bounds = [sum(STRATUM_SIZES[:k]) for k in range(len(STRATUM_SIZES) + 1)]
    rows = [timed[a:b] for a, b in zip(bounds, bounds[1:])]
    return {
        "seed": CATALOGUE_SEED,
        "max_len": workloads.MIX_MAX_LEN,
        "stratum_seconds": [[round(t, 3) for t, _, _ in row] for row in rows],
        "strata": [[text for _, _, text in row] for row in rows],
    }


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    pkg = load_package()
    cfg = pkg.config.AnalysisConfig(max_len=workloads.MIX_MAX_LEN)
    rng = random.Random(CATALOGUE_SEED)
    texts: dict[str, None] = {}
    while len(texts) < SIZE:
        texts[mix.generate_one(rng).text] = None
    rounds = []
    for r in range(REPEATS):
        seconds = []
        for text in texts:
            start = time.perf_counter()
            pkg.report.analyze(pkg.words.parse_morphism(text), cfg, "catalogue")
            seconds.append(time.perf_counter() - start)
        rounds.append(seconds)
        print(f"round {r}: {sum(seconds):.1f}s", file=sys.stderr)
    timed = sorted((statistics.median(ts), i, text) for i, (text, *ts) in enumerate(zip(texts, *rounds)))
    workloads.MIX_CATALOGUE.write_text(json.dumps(cut(timed), indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
