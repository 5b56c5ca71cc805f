"""Exact integer linear algebra for incidence matrices.

Everything here runs on Python's arbitrary-precision integers: entries of
incidence-matrix powers and graded weights grow like d^n, so fixed-width
arithmetic is banned in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, InvariantError, RecurrenceValidationError
from .words import Morphism, Word, WordPrefix, fixed_point_prefix, letter_counts

# weight_sequence cross-checks its weights against phi^n(start) while that
# word has at most this many letters.
WEIGHT_EXPANSION_BUDGET_LETTERS = 4**9

ParikhVector = tuple[int, ...]


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

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.size))

    def column_sums(self) -> tuple[int, ...]:
        n = self.size
        return tuple(sum(self.rows[i][j] for i in range(n)) for j in range(n))

    def transpose(self) -> "IncidenceMatrix":
        n = self.size
        return IncidenceMatrix(
            tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n))
        )

    def matmul(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        n = self.size
        if other.size != n:
            raise ContractError("matrix sizes differ")
        b_cols = list(zip(*other.rows))
        return IncidenceMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in b_cols)
                for row in self.rows
            )
        )

    def matvec(self, v: ParikhVector) -> ParikhVector:
        if len(v) != self.size:
            raise ContractError("vector length differs from matrix size")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in row) for row in self.rows)


def identity(n: int) -> IncidenceMatrix:
    return IncidenceMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    )


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    n = m.size
    return IncidenceMatrix(
        tuple(tuple(m.images[j].count(chr(i)) for j in range(n)) for i in range(n))
    )


def parikh(m: Morphism, u: Word) -> ParikhVector:
    for ch in u:
        if ord(ch) >= m.size:
            raise ContractError(f"letter id {ord(ch)} outside the alphabet")
    return tuple(u.count(chr(i)) for i in range(m.size))


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

    def evaluate_matrix(self, M: IncidenceMatrix) -> IncidenceMatrix:
        n = M.size
        acc = IncidenceMatrix(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
        for c in reversed(self.coeffs):
            acc = acc.matmul(M)
            if c:
                acc = IncidenceMatrix(
                    tuple(
                        tuple(acc.rows[i][j] + (c if i == j else 0) for j in range(n))
                        for i in range(n)
                    )
                )
        return acc

    def high_to_low(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))


def char_poly(M: IncidenceMatrix) -> CharPoly:
    """Characteristic polynomial by the Faddeev-LeVerrier scheme.

    All divisions are exact over the integers; the result is checked against
    the Cayley-Hamilton identity before being returned.
    """
    n = M.size
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    B = identity(n)
    for k in range(1, n + 1):
        AB = M.matmul(B)
        t = AB.trace()
        if t % k != 0:
            raise InvariantError("Faddeev-LeVerrier trace division is not exact")
        c = -(t // k)
        coeffs[n - k] = c
        B = IncidenceMatrix(
            tuple(
                tuple(AB.rows[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )
    poly = CharPoly(tuple(coeffs))
    if not poly.evaluate_matrix(M).is_zero():
        raise InvariantError("Cayley-Hamilton check failed for computed polynomial")
    return poly


@dataclass(frozen=True)
class LinearRecurrence:
    """s_n = c_1 s_{n-1} + ... + c_r s_{n-r}, with validated initial terms."""

    coeffs: tuple[int, ...]
    initial: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def term(self, n: int) -> int:
        return self.extend(n + 1)[n]

    def extend(self, count: int) -> list[int]:
        seq = list(self.initial[:count])
        while len(seq) < count:
            nxt = sum(c * seq[-k] for k, c in enumerate(self.coeffs, start=1))
            seq.append(nxt)
        return seq

    def holds_at(self, seq: list[int] | tuple[int, ...], n: int) -> bool:
        return seq[n] == sum(c * seq[n - k] for k, c in enumerate(self.coeffs, start=1))


def recurrence_from_charpoly(
    p: CharPoly, initial: list[int] | tuple[int, ...]
) -> LinearRecurrence:
    """Read the recurrence off a monic polynomial and validate the seed terms."""
    r = p.degree
    if len(initial) < r:
        raise ContractError(
            f"need at least {r} initial terms, got {len(initial)}"
        )
    coeffs = tuple(-p.coeffs[r - k] for k in range(1, r + 1))
    rec = LinearRecurrence(coeffs=coeffs, initial=tuple(initial))
    for n in range(r, len(initial)):
        expected = sum(c * initial[n - k] for k, c in enumerate(coeffs, start=1))
        if initial[n] != expected:
            raise RecurrenceValidationError(n, expected, initial[n])
    return rec


@dataclass(frozen=True)
class WeightSequences:
    """u^T M^n theta(start) under both index conventions.

    ``direct`` is cross-checked against the literal degree of phi^n(start);
    ``transposed`` uses M^T and is reported as a diagnostic only.
    """

    direct: tuple[int, ...]
    transposed: tuple[int, ...]
    cross_checked_upto: int

    @property
    def first_divergence(self) -> int | None:
        for i, (a, b) in enumerate(zip(self.direct, self.transposed)):
            if a != b:
                return i
        return None


def weight_sequence(m: Morphism, M: IncidenceMatrix, prefix: WordPrefix, n_max: int) -> WeightSequences:
    """Graded weights of phi^n(start) for n = 0..n_max, both conventions.

    ``M`` is ``incidence_matrix(m)``.  The direct weight must equal the degree of
    phi^n(start) while that word fits the budget: with c the last such n, the
    generations 0..c are read off ``prefix`` extended by ``fixed_point_prefix``,
    each chunk through its letter counts, after its length is checked against
    M's.
    """
    if m.degrees is None:
        raise ContractError("weight sequence needs a grading")
    MT = M.transpose()
    u = m.degrees
    theta = tuple(1 if i == m.start else 0 for i in range(m.size))

    direct: list[int] = []
    transposed: list[int] = []
    lengths: list[int] = []  # |phi^n(start)|
    vec, vec_t = theta, theta
    for _ in range(n_max + 1):
        direct.append(sum(a * b for a, b in zip(u, vec)))
        transposed.append(sum(a * b for a, b in zip(u, vec_t)))
        lengths.append(sum(vec))
        vec = M.matvec(vec)
        vec_t = MT.matvec(vec_t)

    checked = max(n for n, k in enumerate(lengths) if k <= WEIGHT_EXPANSION_BUDGET_LETTERS)
    expanded = fixed_point_prefix(m, lengths[checked], prefix=prefix)
    word, ends = expanded.word, expanded.gen_lengths
    degree = 0
    for n in range(checked + 1):
        if n == len(ends) or ends[n] != lengths[n]:
            grown = f"{ends[n]}" if n < len(ends) else f"more than {ends[-1]}"
            raise InvariantError(f"phi^{n}(start) has {grown} letters, M gives {lengths[n]}")
        counts = letter_counts(word, m.size, ends[n - 1] if n else 0, ends[n])
        degree += sum(g * c for g, c in zip(u, counts))
        if degree != direct[n]:
            raise InvariantError(
                f"weight mismatch at n={n}: matrix gives {direct[n]}, direct expansion gives {degree}"
            )
    return WeightSequences(
        direct=tuple(direct),
        transposed=tuple(transposed),
        cross_checked_upto=checked,
    )


__all__ = [
    "ParikhVector",
    "IncidenceMatrix",
    "identity",
    "incidence_matrix",
    "parikh",
    "CharPoly",
    "char_poly",
    "LinearRecurrence",
    "recurrence_from_charpoly",
    "WeightSequences",
    "weight_sequence",
]
