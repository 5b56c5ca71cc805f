"""Dimensions of the monomial algebra spanned by factors.

Its basis is the factors of the fixed point, and a basis word multiplies by
concatenation, killed whenever the concatenation is not a factor.  So the
dimensions are factor counts: by length (the Hilbert function) and by
grading degree.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, islice

from .errors import ContractError
from .words import FactorSet


def hilbert_function(f: FactorSet, n: int) -> int:
    """dim of the span of factors of length <= n (the empty word included)."""
    if n < 0 or n > f.max_len:
        raise ContractError(f"degree {n} outside the computed range 0..{f.max_len}")
    return sum(f.counts[j] for j in range(n + 1))


def graded_dimensions(f: FactorSet, degrees: tuple[int, ...], top: int) -> list[int]:
    """Number of factors of each grading degree 0..top, from one pass over
    F_L: word i brings exactly its prefixes longer than its lcp with word
    i - 1 (0 for word 0), so the degree sums along ``w[:top]`` from that lcp
    on count each factor of length <= top once."""
    if top < 0:
        raise ContractError("degree must be nonnegative")
    if top > f.max_len:
        # degrees are >= 1, so a degree-d word has length <= d
        raise ContractError(
            f"degree {top} needs factors up to length {top}, computed bound is {f.max_len}"
        )
    # capped at top + 1, a prefix holding a letter of larger degree still
    # lies above top and is dropped
    capped = [min(g, top + 1) for g in degrees]
    tally = Counter()
    for w, lcp in zip(f.words, map(ord, "\0" + f.lcps)):
        if lcp < top:
            tally.update(islice(accumulate(map(capped.__getitem__, map(ord, w[:top]))), lcp, None))
    return [1] + [tally[d] for d in range(1, top + 1)]


def graded_dimension(f: FactorSet, degrees: tuple[int, ...], d: int) -> int:
    """Number of factors whose grading degree sums to d."""
    return graded_dimensions(f, degrees, d)[d]


__all__ = ["hilbert_function", "graded_dimension", "graded_dimensions"]
