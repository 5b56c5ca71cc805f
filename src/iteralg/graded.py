"""Grading-aware audits of the fixed point: degree sums, homogeneous chains,
rotation and bracket-split certificates.

The position-degree set S collects the partial degree sums along the word; a
run a, a+d, ..., a+rd inside S cuts the prefix into r consecutive pieces of
degree d, i.e. a nonzero r-fold product in the degree-d component.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import ContractError, InvariantError, NoSplitError
from .words import FactorSet, Morphism, Word, WordPrefix


@dataclass(frozen=True)
class PositionDegreeSet:
    """Partial degree sums s_0=0, s_i = s_{i-1} + deg(letter_i) of a prefix, and
    the prefix's generation ends |phi^k(start)| (``()`` for a bare word)."""

    sums: tuple[int, ...]
    word: Word
    gen_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sums) != len(self.word) + 1:
            raise ValueError("sums must have one entry per letter boundary")
        if any(b <= a for a, b in zip(self.sums, self.sums[1:])):
            raise ValueError("degree sums must be strictly increasing")


@dataclass(frozen=True)
class ChainWitness:
    degree: int
    pieces: tuple[Word, ...]
    start_value: int
    level_lengths: tuple[int, ...]  # longest chain inside each phi^k(start)

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
    gen_lengths = prefix.gen_lengths if isinstance(prefix, WordPrefix) else ()
    degrees = m.degrees
    sums = [0]
    acc = 0
    for ch in word:
        acc += degrees[ord(ch)]
        sums.append(acc)
    return PositionDegreeSet(sums=tuple(sums), word=word, gen_lengths=gen_lengths)


def _longest_runs(
    sums: tuple[int, ...], d: int, ends: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(max pieces, start value) of the longest run v, v+d, ..., v+rd in
    ``sums[:e + 1]``, for each index e of the ascending ``ends``.

    The run ending at v reads only smaller sums, so one forward pass with a
    value->run-length map gives every prefix's best.  Of the longest runs the
    one that ends first also starts lowest, so ties go to the smallest start.
    """
    run: dict[int, int] = {}
    best = 0
    best_end = sums[0]
    out = []
    lo = 0
    for e in ends:
        for v in sums[lo : e + 1]:
            pieces = run.get(v - d, -1) + 1
            run[v] = pieces
            if pieces > best:
                best = pieces
                best_end = v
        lo = e + 1
        out.append((best, best_end - best * d))
    return out


def max_homogeneous_chain(
    m: Morphism, s: PositionDegreeSet, f: FactorSet | None, d: int
) -> ChainWitness:
    """Longest chain of consecutive degree-d pieces within the sampled prefix;
    the same run pass gives the longest inside each generation of ``s``."""
    if d < 1:
        raise ContractError("chain degree must be positive")
    sums = s.sums
    ends = s.gen_lengths + (len(s.word),)
    *per_gen, (pieces_count, start_value) = _longest_runs(sums, d, ends)
    pieces: list[Word] = []
    i = bisect_left(sums, start_value)
    for _ in range(pieces_count):
        j = bisect_left(sums, sums[i] + d, i + 1)
        pieces.append(s.word[i:j])
        i = j
    witness = ChainWitness(d, tuple(pieces), start_value, tuple(r for r, _ in per_gen))
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
    level_lengths: list[tuple[int, ...]],
    levels: list[int] | tuple[int, ...],
) -> NilpotencyScan:
    """Max chain length per degree inside phi^k(start), for each level k.

    ``level_lengths[d - 1]`` is the degree-d chain witness's
    ``level_lengths``, so the scan reads the run pass the chains already
    made; every level must be a generation those lengths cover.

    Equal values across the last two levels are stabilization evidence, not
    a proof.  A degenerate grading (all letters the same degree) makes S an
    arithmetic progression, so chains only ever stop at the prefix boundary;
    those rows are flagged unbounded-within-sample instead of stabilized.
    """
    if m.degrees is None:
        raise ContractError("nilpotency scan needs a grading")
    lv = tuple(sorted(levels))
    degenerate = len(set(m.degrees)) == 1
    common = m.degrees[0] if degenerate else None
    rows = []
    for d, lengths in enumerate(level_lengths, start=1):
        if any(not 0 <= k < len(lengths) for k in lv):
            raise ContractError(
                f"scan levels must lie in 0..{len(lengths) - 1}, the prefix's generations"
            )
        values = tuple(lengths[k] for k in lv)
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
