"""Grading-aware audits of the fixed point: degree sums, homogeneous chains,
rotation and bracket-split certificates.

The position-degree set S collects the partial degree sums along the word; a
run a, a+d, ..., a+rd inside S cuts the prefix into r consecutive pieces of
degree d, i.e. a nonzero r-fold product in the degree-d component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, InvariantError, NoSplitError
from .words import FactorSet, Morphism, Word, WordPrefix, fixed_point_prefix


@dataclass(frozen=True)
class PositionDegreeSet:
    """Partial degree sums s_0=0, s_i = s_{i-1} + deg(letter_i) of a prefix."""

    prefix_len: int
    sums: tuple[int, ...]
    word: Word

    def __post_init__(self) -> None:
        if len(self.sums) != self.prefix_len + 1:
            raise ValueError("sums must have one entry per letter boundary")
        if any(b <= a for a, b in zip(self.sums, self.sums[1:])):
            raise ValueError("degree sums must be strictly increasing")

    def value_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.sums)}


@dataclass(frozen=True)
class ChainWitness:
    degree: int
    pieces: tuple[Word, ...]
    start_value: int
    start_index: int

    @property
    def length(self) -> int:
        return len(self.pieces)

    def concatenation(self) -> Word:
        return "".join(self.pieces)


@dataclass(frozen=True)
class LieNode:
    """One bracket split u = left(u) right(u) with the reversed product absent."""

    word: Word
    left: "LieNode | None" = None
    right: "LieNode | None" = None
    absent_rotation: Word | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass(frozen=True)
class RotationAudit:
    max_len: int
    per_length: tuple[tuple[int, int], ...]  # (length, words audited)
    passed: bool
    counterexample: Word | None = None


@dataclass(frozen=True)
class DegreeScanRow:
    degree: int
    values: tuple[int, ...]  # max chain length per generation level
    stabilized: bool
    unbounded_within_sample: bool


@dataclass(frozen=True)
class NilpotencyScan:
    levels: tuple[int, ...]
    rows: tuple[DegreeScanRow, ...]
    degenerate_grading: bool


def s_set(m: Morphism, prefix: WordPrefix | Word) -> PositionDegreeSet:
    if m.degrees is None:
        raise ContractError("position-degree set needs a grading")
    word = prefix.word if isinstance(prefix, WordPrefix) else prefix
    degrees = m.degrees
    sums = [0]
    acc = 0
    for ch in word:
        acc += degrees[ord(ch)]
        sums.append(acc)
    return PositionDegreeSet(prefix_len=len(word), sums=tuple(sums), word=word)


def _max_run_start(sums: tuple[int, ...], d: int) -> tuple[int, int]:
    """(max pieces, start value) of the longest run v, v+d, ..., v+rd in sums.

    One descending pass with a value->run-length map keeps this linear in
    |sums| per degree.
    """
    run: dict[int, int] = {}
    best = 0
    best_start = sums[0] if sums else 0
    for v in reversed(sums):
        pieces = run.get(v + d, -1) + 1
        run[v] = pieces
        if pieces > best or (pieces == best and v < best_start):
            best = pieces
            best_start = v
    return best, best_start


def max_homogeneous_chain(
    m: Morphism, s: PositionDegreeSet, f: FactorSet | None, d: int
) -> ChainWitness:
    """Longest chain of consecutive degree-d pieces within the sampled prefix."""
    if d < 1:
        raise ContractError("chain degree must be positive")
    pieces_count, start_value = _max_run_start(s.sums, d)
    index = s.value_index()
    start_index = index[start_value]
    pieces: list[Word] = []
    pos_value = start_value
    for _ in range(pieces_count):
        i = index[pos_value]
        j = index[pos_value + d]
        pieces.append(s.word[i:j])
        pos_value += d
    witness = ChainWitness(
        degree=d,
        pieces=tuple(pieces),
        start_value=start_value,
        start_index=start_index,
    )
    if m.degrees is not None:
        for p in witness.pieces:
            if m.degree_of(p) != d:
                raise InvariantError("chain piece has the wrong degree")
    if f is not None:
        cat = witness.concatenation()
        if len(cat) <= f.max_len and cat and cat not in f:
            raise InvariantError("chain concatenation is not a known factor")
    return witness


def graded_nilpotency_scan(
    m: Morphism,
    d_max: int,
    levels: list[int] | tuple[int, ...],
) -> NilpotencyScan:
    """Max chain length per degree at several generation levels.

    Equal values across the last two levels are stabilization evidence, not
    a proof.  A degenerate grading (all letters the same degree) makes S an
    arithmetic progression, so chains only ever stop at the prefix boundary;
    those rows are flagged unbounded-within-sample instead of stabilized.
    """
    if m.degrees is None:
        raise ContractError("nilpotency scan needs a grading")
    if d_max < 0:
        raise ContractError("d_max must be nonnegative")
    lv = tuple(sorted(levels))
    degenerate = len(set(m.degrees)) == 1
    if not lv or d_max == 0:
        return NilpotencyScan(levels=lv, rows=(), degenerate_grading=degenerate)
    # |phi^k(start)| via exact per-letter counts, to size the prefix once.
    top = max(lv)
    counts = [1 if i == m.start else 0 for i in range(m.size)]
    for _ in range(top):
        nxt = [0] * m.size
        for j, c in enumerate(counts):
            if c:
                for ch in m.images[j]:
                    nxt[ord(ch)] += c
        counts = nxt
    prefix = fixed_point_prefix(m, sum(counts))
    sums_per_level = []
    for k in lv:
        word_k = prefix.word[: prefix.gen_lengths[k]]
        sums_per_level.append(s_set(m, word_k).sums)
    common = m.degrees[0] if degenerate else None
    rows = []
    for d in range(1, d_max + 1):
        values = tuple(_max_run_start(sums, d)[0] for sums in sums_per_level)
        unbounded = common is not None and d % common == 0
        stabilized = len(values) >= 2 and values[-1] == values[-2] and not unbounded
        rows.append(
            DegreeScanRow(
                degree=d,
                values=values,
                stabilized=stabilized,
                unbounded_within_sample=unbounded,
            )
        )
    return NilpotencyScan(levels=lv, rows=tuple(rows), degenerate_grading=degenerate)


def rotations(word: Word) -> list[Word]:
    return [word[i:] + word[:i] for i in range(1, len(word))]


def cyclic_rotation_audit(f: FactorSet, max_len: int) -> RotationAudit:
    """Check every factor of length 2..max_len has an absent rotation.

    Failure is a result (the violating word), not an error.
    """
    if max_len < 2:
        raise ContractError("rotation audit needs max_len >= 2")
    if max_len > f.max_len:
        raise ContractError("audit length exceeds the factor bound")
    per_length: list[tuple[int, int]] = []
    for length in range(2, max_len + 1):
        audited = 0
        words = f.of_length(length)
        present = frozenset(words)  # rotations keep the length
        for v in words:
            if not any(r not in present for r in rotations(v)):
                return RotationAudit(
                    max_len=max_len,
                    per_length=tuple(per_length),
                    passed=False,
                    counterexample=v,
                )
            audited += 1
        per_length.append((length, audited))
    return RotationAudit(max_len=max_len, per_length=tuple(per_length), passed=True)


def lie_decomposition(f: FactorSet, u: Word) -> LieNode:
    """Bracket certificate: split u = ab with ba not a factor, recursively.

    Tie-break is shortest left part, so certificates are deterministic.
    Raises NoSplitError when every rotation of some subword is a factor,
    which is exactly a rotation-audit counterexample at that length.
    """
    if len(u) < 2:
        raise ContractError("single letters are generators; nothing to decompose")
    if len(u) > f.max_len:
        raise ContractError("word exceeds the factor bound")
    known = f.factors
    if u not in known:
        raise ContractError("word is not a known factor")

    def split(w: Word) -> LieNode:
        if len(w) == 1:
            return LieNode(word=w)
        for cut in range(1, len(w)):
            a, b = w[:cut], w[cut:]
            if b + a not in known:
                return LieNode(
                    word=w,
                    left=split(a),
                    right=split(b),
                    absent_rotation=b + a,
                )
        raise NoSplitError(w)

    return split(u)


def every_window_contains(word: Word, letter: int, window: int) -> bool:
    """True when each length-``window`` block of ``word`` contains the letter."""
    target = chr(letter)
    last = -1
    for i, ch in enumerate(word):
        if ch == target:
            if i - last > window:
                return False
            last = i
    return len(word) - last <= window


def prefix_identity_holds(m: Morphism, n: int, prefix: Word) -> bool:
    """Does phi^{n+1}(start) phi^n(start) begin the fixed point?"""
    a = m.apply_n(chr(m.start), n + 1)
    b = m.apply_n(chr(m.start), n)
    cat = a + b
    if len(cat) > len(prefix):
        raise ContractError("prefix too short for the identity check")
    return prefix.startswith(cat)


__all__ = [
    "PositionDegreeSet",
    "ChainWitness",
    "LieNode",
    "RotationAudit",
    "DegreeScanRow",
    "NilpotencyScan",
    "s_set",
    "max_homogeneous_chain",
    "graded_nilpotency_scan",
    "rotations",
    "cyclic_rotation_audit",
    "lie_decomposition",
    "every_window_contains",
    "prefix_identity_holds",
]
