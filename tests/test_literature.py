"""Literature oracles: published factor complexities p(n) that the exact
closure must reproduce, and the verdicts the same sources fix.

Unlike the brute-force oracles in ``conftest``, these formulas share no idea
with the closure they check, and they hold at every n, so they are checked up
to a factor bound no prefix enumeration reaches cheaply.
"""

from functools import cache

import pytest

from iteralg.deciders import decide_eventual_periodicity, decide_uniform_recurrence
from iteralg.words import classify_shape, factor_closure, parse_morphism

MAX_LEN = 256


def thue_morse_complexity(n: int) -> int:
    """p(n) of the Thue-Morse word: 2 and 4 for n = 1, 2; for n >= 3, write
    n = 2^r + q + 1 with 0 < q <= 2^r."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    half = 2 ** (r - 1)
    return 6 * half + 4 * q if q <= half else 8 * half + 2 * q


# (name, morphism text, p(n), source, range of n)
LITERATURE = [
    (
        "fibonacci",
        "letters: a b\nstart: a\nmap a -> a b\nmap b -> a\n",
        lambda n: n + 1,
        "Morse & Hedlund, Amer. J. Math. 1940 (Sturmian words)",
        range(1, MAX_LEN + 1),
    ),
    (
        "tribonacci",
        "letters: a b c\nstart: a\nmap a -> a b\nmap b -> a c\nmap c -> a\n",
        lambda n: 2 * n + 1,
        "Arnoux & Rauzy, Bull. SMF 1991",
        range(1, MAX_LEN + 1),
    ),
    (
        "thue-morse",
        "letters: a b\nstart: a\nmap a -> a b\nmap b -> b a\n",
        thue_morse_complexity,
        "Brlek, Discrete Appl. Math. 1989; de Luca & Varricchio, TCS 1989",
        range(1, MAX_LEN + 1),
    ),
]
TEXTS = {name: text for name, text, *_ in LITERATURE}


@cache
def closure(name: str):
    m = parse_morphism(TEXTS[name])
    return m, factor_closure(m, MAX_LEN)


def test_thue_morse_formula_starts_as_published():
    # p(1..10) of the Thue-Morse word, OEIS A005942 shifted by one
    assert [thue_morse_complexity(n) for n in range(1, 11)] == [
        2, 4, 6, 10, 12, 16, 20, 22, 24, 28,
    ]


@pytest.mark.parametrize("name, text, formula, source, ns", LITERATURE, ids=list(TEXTS))
def test_complexity_matches_the_published_formula(name, text, formula, source, ns):
    _, f = closure(name)
    assert f.max_len >= max(ns)
    wrong = [(n, f.counts[n], formula(n)) for n in ns if f.counts[n] != formula(n)]
    assert not wrong, f"{name} disagrees with {source} at (n, closure, formula) {wrong[:5]}"


@pytest.mark.parametrize("name", TEXTS)
def test_literature_words_are_uniformly_recurrent_and_aperiodic(name):
    m, f = closure(name)
    assert decide_uniform_recurrence(m, classify_shape(m)).is_yes
    periodic = decide_eventual_periodicity(m, f)
    assert periodic.is_no and periodic.conditional
