"""Seeded random morphisms for the random-mix workload, and their checks.

Everything here is independent of ``iteralg``: morphisms are generated as
``.morph`` text from ``random.Random`` alone, and the invariants are checked
against the report documents with plain-Python oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LETTERS = "abcdef"
ERASING_SHARE = 0.25


@dataclass(frozen=True)
class MixInput:
    text: str
    images: dict[str, list[str]]
    start: str


def _mortal(images: dict[str, list[str]]) -> set[str]:
    mortal = {a for a, img in images.items() if not img}
    while True:
        grown = {a for a, img in images.items() if a not in mortal and all(c in mortal for c in img)}
        if not grown:
            return mortal
        mortal |= grown


def _prolongable(images: dict[str, list[str]], start: str) -> bool:
    img = images[start]
    if len(img) < 2 or img[0] != start:
        return False
    mortal = _mortal(images)
    return not all(c in mortal for c in img[1:])


def generate_one(rng: random.Random) -> MixInput:
    """One prolongable morphism: 2-6 letters, images of length 1-4, degrees 1-3.

    About a quarter of the morphisms get one erasing (empty-image) letter.
    Candidates that are not prolongable on the start letter are redrawn.
    """
    while True:
        letters = list(LETTERS[: rng.randint(2, 6)])
        start = letters[0]
        images = {a: [rng.choice(letters) for _ in range(rng.randint(1, 4))] for a in letters}
        images[start] = [start] + [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        if rng.random() < ERASING_SHARE:
            images[rng.choice(letters[1:])] = []
        if _prolongable(images, start):
            break
    top_degree = rng.randint(1, 3)
    degrees = {a: rng.randint(1, top_degree) for a in letters}
    lines = ["letters: " + " ".join(letters), f"start: {start}"]
    lines += [f"map {a} -> {' '.join(images[a])}".rstrip() for a in letters]
    lines += [f"degree {a} = {degrees[a]}" for a in letters]
    return MixInput(text="\n".join(lines) + "\n", images=images, start=start)


def parse(text: str) -> MixInput:
    """Read back a text written by ``generate_one``."""
    images: dict[str, list[str]] = {}
    start = ""
    for line in text.splitlines():
        if line.startswith("start:"):
            start = line.split()[1]
        elif line.startswith("map "):
            lhs, rhs = line[4:].split("->")
            images[lhs.strip()] = rhs.split()
    return MixInput(text=text, images=images, start=start)


def sample(seed: int, strata: list[list[str]]) -> list[MixInput]:
    """A mirrored pair of morphisms from each cost stratum, chosen by ``random.Random(seed)``.

    Each stratum lists catalogue morphisms in order of measured analysis
    cost.  Picking ranks j and len-1-j keeps each pair's cost near twice the
    stratum mean, so every seed draws different morphisms but about the same
    total work.
    """
    rng = random.Random(seed)
    picks = []
    for stratum in strata:
        j = rng.randrange(len(stratum) // 2)
        picks += [stratum[j], stratum[len(stratum) - 1 - j]]
    rng.shuffle(picks)
    return [parse(text) for text in picks]


def start_occurrences(inp: MixInput) -> int:
    """Occurrences of the start letter in phi^(k+1)(start), k = alphabet size.

    If the start letter recurs at all, it is reachable from a tail letter in
    at most k image steps, so this literal expansion already contains it.
    """
    word = [inp.start]
    for _ in range(len(inp.images) + 1):
        word = [c for a in word for c in inp.images[a]]
    return word.count(inp.start)


def invariant_failures(inp: MixInput, doc: dict) -> list[str]:
    """The four report invariants that random-mix checks; empty when all hold."""
    failures = []
    p = doc["word"]["factors"]["complexity"]
    if any(b < a for a, b in zip(p, p[1:])):
        failures.append("p(n) decreases")
    props = doc["properties"]
    periodic = props["eventually_periodic"]["value"]
    if props["pi"]["value"] != periodic:
        failures.append("PI differs from eventual periodicity")
    if (props["gk_dimension"] == 1) != (periodic == "Yes"):
        failures.append("GK = 1 differs from periodic Yes")
    if (props["prime"]["value"] == "No") != (start_occurrences(inp) == 1):
        failures.append("prime No differs from a single start occurrence")
    return failures
