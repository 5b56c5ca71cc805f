"""Exact integer linear algebra for incidence matrices.

Everything here runs on Python's arbitrary-precision integers: entries of
incidence-matrix powers and graded weights grow like d^n, and residues mod
primes below 2^61 are lifted exactly, so fixed-width and floating-point
arithmetic are banned in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, repeat
from math import comb, isqrt
from operator import add, mul
from typing import NamedTuple

from .errors import ContractError, InvariantError, RecurrenceValidationError
from .words import Morphism, WordPrefix, fixed_point_prefix, letter_counts

# weight_sequence cross-checks its weights against phi^n(start) while that
# word has at most this many letters.
WEIGHT_EXPANSION_BUDGET_LETTERS = 4**9


@dataclass(frozen=True)
class IncidenceMatrix:
    """Square matrix with rows[i][j] = occurrences of letter i in phi(letter j)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.size))

    def column_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.rows)))


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    letters = [chr(i) for i in range(m.size)]
    return IncidenceMatrix(tuple(zip(*(tuple(map(image.count, letters)) for image in m.images))))


def _sparse(lines) -> list[list[int]]:
    """Each row or column of a matrix as the ids of its nonzero entries, each
    id repeated as often as its entry: column x of M lists the letters of
    phi(x), and row i the letters x whose image holds i."""
    return [[i for i, a in enumerate(line) for _ in range(a)] for line in lines]


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, stored low degree first."""

    coeffs: tuple[int, ...]  # coeffs[k] multiplies x^k; leading coefficient 1

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def high_to_low(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))


def _is_prime(q: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is
    deterministic for every q below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if q < 2 or any(q % b == 0 for b in bases):
        return q in bases
    s = ((q - 1) & (1 - q)).bit_length() - 1  # 2^s exactly divides q - 1
    for b in bases:
        y = pow(b, (q - 1) >> s, q)
        if y != 1 and q - 1 not in (pow(y, 1 << r, q) for r in range(s)):
            return False
    return True


@cache
def _prime(k: int) -> int:
    """The (k+1)-th largest prime below 2^61."""
    top = _prime(k - 1) if k else 1 << 61
    return next(q for q in range(top - 1, 1, -1) if _is_prime(q))


def _coefficient_bound(M: IncidenceMatrix) -> int:
    """B >= |every coefficient of det(xI - M)|: the coefficient of x^(n-k) is
    a sum of C(n, k) principal k-minors, each at most the product of its
    column norms by Hadamard's inequality, so of the k largest; each norm is
    rounded up to isqrt(sum of squares) + 1."""
    n = M.size
    norms = sorted((isqrt(sum(a * a for a in col)) + 1 for col in zip(*M.rows)), reverse=True)
    return max(comb(n, k) * prod for k, prod in enumerate(accumulate(norms, mul, initial=1)))


def _char_poly_mod(M: IncidenceMatrix, q: int) -> list[int]:
    """det(xI - M) mod the prime q, low degree first (Cohen, GTM 138, 2.2.9):
    M is brought to upper Hessenberg form H by similarity transforms mod q,
    then p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik h_(i+1,i)...h_(k,k-1) p_(i-1)."""
    n = M.size
    H = [[a % q for a in row] for row in M.rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        inv = pow(H[m][m - 1], -1, q)
        us = [H[j][m - 1] * inv % q for j in range(m + 1, n)]
        if not any(us):
            continue
        # H <- L H L^-1 with L = I - u e_m^T: rows below m lose u_j row m
        # (zero left of column m - 1), then column m gains u_j column j
        top = H[m][m - 1 :]
        for j, u in enumerate(us, start=m + 1):
            if u:
                H[j][m - 1 :] = [(a - u * b) % q for a, b in zip(H[j][m - 1 :], top)]
        for row in H:
            row[m] = (row[m] + sum(map(mul, us, row[m + 1 :]))) % q
    polys = [[1]]
    for k in range(n):
        p = [0, *polys[k]]
        p[: k + 1] = [(a - H[k][k] * c) % q for a, c in zip(p, polys[k])]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * H[i + 1][i] % q
            c = H[i][k] * t % q
            if c:
                p[: i + 1] = [(a - c * b) % q for a, b in zip(p, polys[i])]
        polys.append(p)
    return polys[n]


def _annihilates(coeffs: tuple[int, ...], M: IncidenceMatrix) -> bool:
    """Is p(M) = 0?  Every column p(M) e_j at once, as the rows of p(M^T), by
    Horner's rule over Z: row x of M^T V is the sum of the rows V_i times
    M[i][x] over the nonzero entries of column x of M, added one row at a
    time into a new list, so a step costs n * nnz however long phi(x) is."""
    n = M.size
    columns = [[(i, a) for i, a in enumerate(col) if a] for col in zip(*M.rows)]
    V = [[int(i == x) for i in range(n)] for x in range(n)]
    for c in reversed(coeffs[:-1]):
        W = []
        for col in columns:
            row = None
            for i, a in col:
                term = V[i] if a == 1 else map(mul, V[i], repeat(a))
                row = list(term) if row is None else list(map(add, row, term))
            W.append([0] * n if row is None else row)
        V = W
        for x, row in enumerate(V):
            row[x] += c
    return not any(map(any, V))


def char_poly(M: IncidenceMatrix) -> CharPoly:
    """Characteristic polynomial det(xI - M), exactly, in O(n^3) per prime.

    The polynomial is read mod primes just below 2^61 by Hessenberg reduction
    and combined by the Chinese remainder theorem until the primes' product
    exceeds twice the integer coefficient bound, which fixes every
    coefficient; the result is checked against the Cayley-Hamilton identity
    over Z before being returned.
    """
    bound = 2 * _coefficient_bound(M)
    coeffs, modulus, k = [0] * (M.size + 1), 1, 0
    while modulus <= bound:
        q = _prime(k)
        step = pow(modulus, -1, q)
        coeffs = [c + modulus * ((r - c) * step % q) for c, r in zip(coeffs, _char_poly_mod(M, q))]
        modulus, k = modulus * q, k + 1
    poly = CharPoly(tuple(c - modulus if 2 * c > modulus else c for c in coeffs))
    if not _annihilates(poly.coeffs, M):
        raise InvariantError("Cayley-Hamilton check failed for computed polynomial")
    return poly


class LinearRecurrence(NamedTuple):
    """s_n = c_1 s_{n-1} + ... + c_r s_{n-r}, with validated initial terms."""

    coeffs: tuple[int, ...]
    initial: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)


def recurrence_from_charpoly(p: CharPoly, initial: list[int] | tuple[int, ...]) -> LinearRecurrence:
    """Read the recurrence off a monic polynomial and validate the seed terms."""
    r = p.degree
    if len(initial) < r:
        raise ContractError(f"need at least {r} initial terms, got {len(initial)}")
    coeffs = tuple(-p.coeffs[r - k] for k in range(1, r + 1))
    rec = LinearRecurrence(coeffs=coeffs, initial=tuple(initial))
    for n in range(r, len(initial)):
        expected = sum(c * initial[n - k] for k, c in enumerate(coeffs, start=1))
        if initial[n] != expected:
            raise RecurrenceValidationError(n, expected, initial[n])
    return rec


class WeightSequences(NamedTuple):
    """u^T M^n theta(start) under both index conventions.

    ``direct`` is cross-checked against the literal degree of phi^n(start);
    ``transposed`` uses M^T and is reported as a diagnostic only.
    """

    direct: tuple[int, ...]
    transposed: tuple[int, ...]
    cross_checked_upto: int

    @property
    def first_divergence(self) -> int | None:
        pairs = zip(self.direct, self.transposed)
        return next((i for i, (a, b) in enumerate(pairs) if a != b), None)


def weight_sequence(m: Morphism, M: IncidenceMatrix, prefix: WordPrefix, n_max: int) -> WeightSequences:
    """Graded weights of phi^n(start) for n = 0..n_max, both conventions.

    ``M`` is ``incidence_matrix(m)``.  Both products sum entries of v over
    M's sparse rows or columns, O(nnz) a step: (M v)_i over the letters x
    whose image holds i, (M^T v)_x over the letters of phi(x).  The direct
    weight must equal the degree of phi^n(start) while that word fits the
    budget: with c the last such n, the generations 0..c are read off
    ``prefix`` extended by ``fixed_point_prefix``, each chunk's length checked
    against M's and its degree counted over the word translated to its
    distinct degree classes, the lowest read off the chunk's length.
    """
    u = m.degrees
    rows, columns = _sparse(M.rows), _sparse(zip(*M.rows))

    direct: list[int] = []
    transposed: list[int] = []
    lengths: list[int] = []  # |phi^n(start)|
    vec = [int(i == m.start) for i in range(m.size)]
    vec_t = vec
    for _ in range(n_max + 1):
        direct.append(sum(map(mul, u, vec)))
        transposed.append(sum(map(mul, u, vec_t)))
        lengths.append(sum(vec))
        vec = [sum(map(vec.__getitem__, row)) for row in rows]
        vec_t = [sum(map(vec_t.__getitem__, col)) for col in columns]

    checked = max(n for n, k in enumerate(lengths) if k <= WEIGHT_EXPANSION_BUDGET_LETTERS)
    expanded = fixed_point_prefix(m, lengths[checked], prefix=prefix)
    ends = expanded.gen_lengths
    low = min(u)
    rank = {g: chr(i) for i, g in enumerate(sorted(set(u) - {low}))}
    table = [rank.get(g, chr(len(rank))) for g in u]
    word = expanded.word[: ends[min(checked, len(ends) - 1)]].translate(table) if rank else ""
    degree = 0
    for n in range(checked + 1):
        if n == len(ends) or ends[n] != lengths[n]:
            grown = f"{ends[n]}" if n < len(ends) else f"more than {ends[-1]}"
            raise InvariantError(f"phi^{n}(start) has {grown} letters, M gives {lengths[n]}")
        start = ends[n - 1] if n else 0
        counts = letter_counts(word, len(rank), start, ends[n])
        degree += low * (ends[n] - start) + sum((g - low) * c for g, c in zip(rank, counts))
        if degree != direct[n]:
            raise InvariantError(
                f"weight mismatch at n={n}: matrix gives {direct[n]}, direct expansion gives {degree}"
            )
    return WeightSequences(tuple(direct), tuple(transposed), cross_checked_upto=checked)


__all__ = [
    "IncidenceMatrix",
    "incidence_matrix",
    "CharPoly",
    "char_poly",
    "LinearRecurrence",
    "recurrence_from_charpoly",
    "WeightSequences",
    "weight_sequence",
]
