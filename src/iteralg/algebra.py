"""The monomial algebra spanned by factors: sparse elements over the rationals.

A basis word multiplies by concatenation, killed whenever the concatenation
is not a factor of the fixed point.  Coefficients stay exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ContractError
from .words import FactorSet, Word


@dataclass(frozen=True)
class MonomialElement:
    """Formal rational combination of factor words; zero is the empty map."""

    terms: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {w: Fraction(c) for w, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero() -> "MonomialElement":
        return MonomialElement({})

    @staticmethod
    def unit() -> "MonomialElement":
        return MonomialElement({"": Fraction(1)})

    @staticmethod
    def word(w: Word, coeff: Fraction | int = 1) -> "MonomialElement":
        return MonomialElement({w: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MonomialElement") -> "MonomialElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return MonomialElement(out)

    def __sub__(self, other: "MonomialElement") -> "MonomialElement":
        return self + other.scale(-1)

    def scale(self, k: Fraction | int) -> "MonomialElement":
        k = Fraction(k)
        return MonomialElement({w: c * k for w, c in self.terms.items()})


def multiply(f: FactorSet, x: MonomialElement, y: MonomialElement) -> MonomialElement:
    """Bilinear product; a concatenation outside the factor set is zero.

    Concatenations longer than the computed bound are a contract error: the
    caller must enlarge the factor set first.
    """
    known = f.factors
    for e in (x, y):
        for w in e.terms:
            if len(w) > f.max_len:
                raise ContractError("support word exceeds the factor bound")
            if w not in known:
                raise ContractError("support word is not a known factor")
    out: dict[Word, Fraction] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            w = u + v
            if len(w) > f.max_len:
                raise ContractError(
                    f"product of length {len(w)} exceeds the factor bound "
                    f"{f.max_len}; enlarge the factor set"
                )
            if w in known:
                out[w] = out.get(w, Fraction(0)) + cu * cv
    return MonomialElement(out)


def hilbert_function(f: FactorSet, n: int) -> int:
    """dim of the span of factors of length <= n (the empty word included)."""
    if n < 0 or n > f.max_len:
        raise ContractError(f"degree {n} outside the computed range 0..{f.max_len}")
    return sum(f.counts[j] for j in range(n + 1))


def graded_dimension(f: FactorSet, degrees: tuple[int, ...], d: int) -> int:
    """Number of factors whose grading degree sums to d."""
    if d < 0:
        raise ContractError("degree must be nonnegative")
    if d > f.max_len:
        # degrees are >= 1, so a degree-d word has length <= d
        raise ContractError(
            f"degree {d} needs factors up to length {d}, computed bound is {f.max_len}"
        )
    if d == 0:
        return 1
    # a letter of degree g becomes g copies of one character, so a word's
    # degree is the length of its translation
    table = ["." * g for g in degrees]
    return sum(len(w.translate(table)) == d for n in range(1, d + 1) for w in f.of_length(n))


__all__ = ["MonomialElement", "multiply", "hilbert_function", "graded_dimension"]
