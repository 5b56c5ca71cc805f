"""Grading-aware audits of the fixed point: degree sums, homogeneous chains,
rotation and bracket-split certificates.

The position-degree set S collects the partial degree sums along the word; a
run a, a+d, ..., a+rd inside S cuts the prefix into r consecutive pieces of
degree d, i.e. a nonzero r-fold product in the degree-d component.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .errors import ContractError, InvariantError, NoSplitError
from .words import FactorSet, Morphism, PowerTables, Word, WordPrefix, letter_counts


@dataclass(frozen=True)
class PositionDegreeSet:
    """The partial degree sums s_0 = 0, s_i = s_{i-1} + deg(word[i-1]) of a
    prefix under phi's grading, the prefix's generation ends |phi^k(start)|
    and phi.  The prefix spans at least two generations and ends at its last.

    The sums are not stored: s_i is read off the letter counts of
    ``word[:i]``.  Positive degrees make them strictly increasing.  The chain
    stage reads letters only through ``span_counts`` and ``marks``, which
    keep, per span start, what the longest span read from it holds, so the
    spans that several degrees share are read once.
    """

    word: Word
    gen_lengths: tuple[int, ...]
    morphism: Morphism
    _bitsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # start -> (end, letter counts of word[start:end]) for the longest span read
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (table, start) -> (end, word[start:end] translated under table), the longest read
    _marks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gen_lengths) < 2 or self.gen_lengths[-1] != len(self.word):
            raise ContractError("a prefix must span two generations and end at its last")

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.morphism.degrees

    def span_counts(self, i: int, j: int) -> tuple[int, ...]:
        """|word[i:j]|_x for each letter x.

        A span longer than the longest read from i extends its counts by the
        new letters and is kept; a shorter one is cut back, by counting its
        own letters or the tail past j, whichever is fewer.
        """
        size = len(self.degrees)
        end, counts = self._spans.get(i, (i, (0,) * size))
        if j >= end:
            if j > end:
                counts = tuple(map(add, counts, letter_counts(self.word, size, end, j)))
                self._spans[i] = (j, counts)
            return counts
        if end - j < j - i:
            return tuple(map(sub, counts, letter_counts(self.word, size, j, end)))
        return letter_counts(self.word, size, i, j)

    def marks(self, table: list[str], i: int, j: int) -> str:
        """``word[i:j]`` translated under ``table``, followed by the marks of
        any further letters already translated from i: one translation per
        table and start, extended when a longer span asks for it.

        An entry of two or more marks would send ``str.translate`` down its
        slow per-letter path, so each letter is first translated to one
        character, an entry of one mark to itself and a longer one to a
        placeholder other than "0" and "1", and each placeholder is then
        replaced by its entry."""
        key = (tuple(table), i)
        end, marks = self._marks.get(key, (i, ""))
        if j > end:
            wide = dict.fromkeys(v for v in table if len(v) > 1)
            placeholders = {v: chr(ord("2") + n) for n, v in enumerate(wide)}
            new = self.word[end:j].translate([placeholders.get(v, v) for v in table])
            for v, placeholder in placeholders.items():
                new = new.replace(placeholder, v)
            marks += new
            self._marks[key] = (j, marks)
        return marks

    def sum_at(self, i: int, cap: int | None = None) -> int:
        """s_i, with each degree capped at ``cap`` when one is given."""
        degrees = self.degrees if cap is None else [min(g, cap) for g in self.degrees]
        return sum(map(mul, degrees, self.span_counts(0, i)))

    def head(self, n: int) -> tuple[int, ...]:
        """s_0, ..., s_{n-1} for n >= 1, as far as the word reaches."""
        degrees = self.degrees
        return (0, *accumulate(degrees[ord(ch)] for ch in self.word[: n - 1]))

    def bitset(self, table: list[str]) -> int:
        """The int "1" followed by the word translated under ``table``, read
        in binary; built once per table.  With N its bit length less one, bit
        N - p is set when p = 0 or the translation has a "1" at p - 1.

        The word is phi^G(start), so its translation is phi^{G-h}(start)
        translated under table o phi^h (``PowerTables``).
        """
        key = tuple(table)
        bits = self._bitsets.get(key)
        if bits is None:
            ends = self.gen_lengths
            tables = PowerTables(self.morphism, map(ord, self.word[:1]), table)
            i, h = tables.pick(ends, 0)
            bits = int("1" + tables.apply(self.word[: ends[i]], h), 2)
            self._bitsets[key] = bits
        return bits

    def pieces(self, w: ChainWitness, count: int) -> tuple[Word, ...]:
        """The first ``count`` pieces of the chain ``w`` over this set's word,
        cut where the degrees of the span's letters add up to its degree."""
        degrees, word, d = self.degrees, self.word, w.degree
        i, end = w.span
        out: list[Word] = []
        acc, cut = 0, i
        for j in range(i, end):
            if len(out) >= count:
                break
            acc += degrees[ord(word[j])]
            if acc >= d:
                out.append(word[cut : j + 1])
                acc, cut = 0, j + 1
        return tuple(out)


class ChainWitness(NamedTuple):
    """The longest run of ``length`` consecutive degree-``degree`` pieces in a
    set's word: the letters ``word[i0:ir]`` for ``span == (i0, ir)``, whose
    partial degree sums start at ``start_value``.  ``previous`` is the longest
    such run inside phi^(G-1)(start), the generation before the word's last,
    when the chain was asked for it, and None otherwise.
    """

    degree: int
    length: int
    start_value: int
    span: tuple[int, int]
    previous: int | None


class LieNode(NamedTuple):
    """One bracket split u = left(u) right(u) with the reversed product absent."""

    word: Word
    left: "LieNode | None" = None
    right: "LieNode | None" = None
    absent_rotation: Word | None = None


class RotationAudit(NamedTuple):
    max_len: int
    per_length: tuple[tuple[int, int], ...]  # (length, words) before the counterexample's length
    passed: bool
    counterexample: Word | None = None
    lie_failures: tuple[Word, ...] = ()  # where lie_decomposition raises NoSplitError


class DegreeScanRow(NamedTuple):
    degree: int
    values: tuple[int, int]  # max chain length inside phi^(G-1)(start), phi^G(start)
    stabilized: bool
    unbounded_within_sample: bool


class NilpotencyScan(NamedTuple):
    levels: tuple[int, int]  # (G - 1, G)
    rows: tuple[DegreeScanRow, ...]
    degenerate_grading: bool


def s_set(m: Morphism, prefix: WordPrefix) -> PositionDegreeSet:
    if not isinstance(prefix, WordPrefix):
        raise ContractError(f"s_set takes a WordPrefix, not {type(prefix).__name__}")
    return PositionDegreeSet(prefix.word, prefix.gen_lengths, m)


def _longest_run(bits: int, powers: list[int], d: int) -> tuple[int, int]:
    """(r, A_r) for the largest r with a run of r steps of d inside the set
    bits; A_k marks the lowest bit of each k-step run and ``powers[j]`` is
    A_{2^j}.  A nonzero A_r holds a whole run, so a step is taken whenever
    its marks are not empty."""
    r, starts = 0, bits
    for j in reversed(range(len(powers))):
        nxt = starts & (powers[j] >> (r * d))
        if nxt:
            r, starts = r + (1 << j), nxt
    return r, starts


def _equal_width_run(width: int, letters: int, d: int) -> int:
    """The longest run of steps of d in {0, width, 2*width, ..., letters*width},
    the capped sums of ``letters`` letters that all have capped degree
    ``width``: the whole word in steps of d / width letters when width
    divides d, and no step otherwise."""
    return letters * width // d if d % width == 0 else 0


def max_homogeneous_chain(
    s: PositionDegreeSet, f: FactorSet, d: int, previous: bool = False
) -> ChainWitness:
    """Longest chain of consecutive degree-d pieces within the sampled prefix
    phi^G(start), and with ``previous`` the longest inside phi^(G-1)(start),
    under the grading of the set's own phi, ``s.morphism``.

    Letters count at their degree capped at d + 1: a letter of larger degree
    lies in no degree-d piece either way, so the runs v, v+d, ..., v+rd of the
    capped sums cut the word at the same indices as the sums of ``s``, and a
    huge degree cannot blow up the bitset of capped sums.

    When every letter the word can hold (those reachable from the start) has
    the same capped width g (all degrees equal, or all above d), the capped
    sums are 0, g, ..., g*|word|, and the longest run and the previous
    generation's are read off the lengths (``_equal_width_run``), with the
    smallest start, 0.  Otherwise the capped sums are a mirrored bitset: bit
    N - p stands for sum p (``PositionDegreeSet.bitset``).  Doubling,
    A_{2k} = A_k & (A_k >> kd), marks the lowest bit of each 2^j-piece run,
    and a binary descent finds the longest; its highest mark is the run with
    the smallest start, the tie rule.

    A witness that ends inside phi^(G-1)(start) is that generation's longest
    run too, as no longer run fits in a shorter word.  Otherwise the previous
    generation is the top of the bitset: the descent runs again on the ints
    shifted right past its capped sum, or the closed form on its length.

    The witness is checked on its letters only, on either path: its letter
    counts give degree r*d under the set's own degrees and r*d marks under
    the capped ones, and a letter ends at every d-th mark, which holds
    exactly when the span splits into r pieces of degree d, and its letters
    must be a factor in ``f`` when it is no longer than ``f.max_len``.  The
    counts and marks are the set's (``span_counts``, ``marks``), so a span
    that several degrees share is read once; the marks of a longer span from
    the same start, cut to r*d, are this span's.  The sums at the start and
    at the previous generation's end are read off letter counts too.
    """
    if d < 1:
        raise ContractError("chain degree must be positive")
    m = s.morphism
    cap = min(max(m.degrees), d + 1)
    table = ["0" * (min(g, cap) - 1) + "1" for g in m.degrees]
    width, *other_widths = {len(table[c]) for c in m.letter_graph.reachable((m.start,))}
    if not other_widths:
        r = _equal_width_run(width, len(s.word), d)
        i0, ir = 0, r * d // width
    else:
        bits = s.bitset(table)  # bit N - p: some prefix has capped degree p
        powers = []
        runs, shift = bits & (bits >> d), d
        while runs:
            powers.append(runs)
            runs &= runs >> shift
            shift *= 2
        r, starts = _longest_run(bits, powers, d)
        q = starts.bit_length() - 1
        i0 = (bits >> (q + r * d + 1)).bit_count()
        ir = i0 + ((bits >> q) & ((2 << (r * d)) - 1)).bit_count() - 1
    counts = s.span_counts(i0, ir)
    if (
        sum(map(mul, m.degrees, counts)) != r * d
        or sum(len(v) * n for v, n in zip(table, counts)) != r * d
        or s.marks(table, i0, ir)[d - 1 : r * d : d] != "1" * r
    ):
        raise InvariantError("chain piece has the wrong degree")
    if 0 < ir - i0 <= f.max_len and s.word[i0:ir] not in f:
        raise InvariantError("chain concatenation is not a known factor")
    start_value = s.sum_at(i0)
    before_end = s.gen_lengths[-2]
    if not previous:
        before = None
    elif ir <= before_end:
        before = r
    elif not other_widths:
        before = _equal_width_run(width, before_end, d)
    else:
        t = bits.bit_length() - 1 - s.sum_at(before_end, cap)
        before = _longest_run(bits >> t, [p >> t for p in powers], d)[0]
    return ChainWitness(d, r, start_value, (i0, ir), before)


def graded_nilpotency_scan(
    m: Morphism, witnesses: Sequence[ChainWitness], level: int
) -> NilpotencyScan:
    """Max chain length per degree inside phi^(level-1)(start) and
    phi^level(start), read off chain witnesses over a prefix whose last
    generation is ``level``, each taken with ``previous``.

    Equal values across the two levels are stabilization evidence, not a
    proof.  A degenerate grading (all letters the same degree) makes S an
    arithmetic progression, so chains only ever stop at the prefix boundary;
    those rows are flagged unbounded-within-sample instead of stabilized.
    """
    degenerate = len(set(m.degrees)) == 1
    common = m.degrees[0] if degenerate else None
    rows = []
    for w in witnesses:
        if w.previous is None:
            raise ContractError("the scan needs each chain's previous-generation length")
        unbounded = common is not None and w.degree % common == 0
        rows.append(
            DegreeScanRow(
                degree=w.degree,
                values=(w.previous, w.length),
                stabilized=w.previous == w.length and not unbounded,
                unbounded_within_sample=unbounded,
            )
        )
    return NilpotencyScan((level - 1, level), tuple(rows), degenerate)


def _girth(edges: Sequence[Word], cap: int) -> int:
    """The length of the shortest closed walk in the Rauzy graph whose edges
    are ``edges``, words of one length k + 1, each going from its k-prefix to
    its k-suffix; ``cap`` when no closed walk is shorter.

    A chain of vertices with in- and out-degree 1 is contracted to one
    weighted edge between the other vertices (in-degree 1 keeps a chain from
    closing on itself), and a component made only of such vertices is one
    cycle.  The sweep then keeps, for each length t and remaining vertex v,
    the bitmask of the remaining vertices with a walk of length t to v; the
    first t at which some v holds its own bit is the girth.
    """
    heads = list(map(itemgetter(slice(0, -1)), edges))
    tails = list(map(itemgetter(slice(1, None)), edges))
    outdegree, indegree = Counter(heads), Counter(tails)
    succ = dict(zip(heads, tails))  # the one successor of a chain vertex
    on_chain = {v for v, out in outdegree.items() if out == 1 and indegree[v] == 1}
    index = {v: i for i, v in enumerate(v for v in {**outdegree, **indegree} if v not in on_chain)}
    arcs = []  # (source, target, weight) between the vertices left
    for v, w in zip(heads, tails):
        if v in index:
            weight = 1
            while w in on_chain:
                on_chain.remove(w)
                w, weight = succ[w], weight + 1
            arcs.append((index[v], index[w], weight))
    best = cap
    while on_chain:  # what no chain from a vertex left reached is cycles
        v = w = on_chain.pop()
        weight = 1
        while (w := succ[w]) != v:
            on_chain.remove(w)
            weight += 1
        best = min(best, weight)
    arcs.sort(key=itemgetter(2))
    reach = [[1 << i for i in range(len(index))]]
    for t in range(1, best):
        row = [0] * len(index)
        for i, j, weight in arcs:
            if weight > t:
                break
            row[j] |= reach[t - weight][i]
        if any(bits >> j & 1 for j, bits in enumerate(row)):
            return t
        reach.append(row)
    return best


def cyclic_rotation_audit(f: FactorSet, max_len: int) -> RotationAudit:
    """Check every factor of length 2..max_len has an absent rotation, and
    find the factors on which ``lie_decomposition`` raises NoSplitError.

    Failure is a result (the first violating word), not an error.  Length by
    length: a decomposition takes the first cut whose rotation is absent, so
    a factor fails when it has no absent rotation, or when either part at
    that cut failed.  Both parts are shorter factors, already decided.  Cut 1
    is tested for a whole length at once; its left part is one letter, never
    failed, so there the word fails when its tail failed.  Only the words
    whose first rotation is present try the later cuts one by one.

    Until a word fails, whole lengths are ruled out without reading their
    words, by the girth of the Rauzy graph G_k: its vertices are the factors
    of length k and its edges those of length k + 1, from prefix to suffix.

    Lemma: a factor w of length m >= k + 1 whose every rotation is a factor
    has m cyclic windows of length k + 1; each is a prefix of a rotation, so
    a factor, and each overlaps the next in k letters, so they form a closed
    walk of length m in G_k and m >= girth(G_k).  This reads only prefixes of
    the layers, so it holds for any ``FactorSet``.

    While nothing has failed a word fails exactly when every rotation of it
    is a factor, since its parts at any cut are shorter and did not fail.  So
    a length n < girth(G_{n-1}) holds no failure and no counterexample, and
    adds only (n, p(n)) to ``per_length``.  Length 2 is read word by word;
    then, while nothing has failed and n < max_len, the girth g of G_{n-1},
    capped at max_len + 1, rules out n..g-1 and the next girth is taken at g.
    From the first length not ruled out, every length is read.  Length
    max_len itself is read, not ruled out: a girth there rules out one length
    and costs more than reading it.
    """
    if max_len < 2:
        raise ContractError("rotation audit needs max_len >= 2")
    if max_len > f.max_len:
        raise ContractError("audit length exceeds the factor bound")
    per_length: list[tuple[int, int]] = []
    counterexample: Word | None = None
    failed: dict[Word, None] = {}  # in scan order

    def read(n: int, words: tuple[Word, ...]) -> None:
        nonlocal counterexample
        present = frozenset(words)  # rotations keep the length
        tails = list(map(itemgetter(slice(1, None)), words))
        fails = list(map(failed.__contains__, tails))
        first_rotations = map(add, tails, map(itemgetter(0), words))
        for i in compress(count(), map(present.__contains__, first_rotations)):
            w = words[i]
            for cut in range(2, n):
                if w[cut:] + w[:cut] not in present:
                    fails[i] = w[:cut] in failed or w[cut:] in failed
                    break
            else:
                fails[i] = True
                if counterexample is None:
                    counterexample = w
        failed.update(dict.fromkeys(compress(words, fails)))
        if counterexample is None:
            per_length.append((n, len(words)))

    read(2, f.of_length(2))
    n = 3
    while n < max_len and counterexample is None:
        girth = _girth(f.of_length(n), max_len + 1)
        if girth <= n:
            break
        per_length.extend((k, f.counts[k]) for k in range(n, girth))
        n = girth
    for k in range(n, max_len + 1):
        read(k, f.of_length(k))
    return RotationAudit(
        max_len=max_len,
        per_length=tuple(per_length),
        passed=counterexample is None,
        counterexample=counterexample,
        lie_failures=tuple(failed),
    )


def lie_decomposition(f: FactorSet, u: Word) -> LieNode:
    """Bracket certificate: split u = ab with ba not a factor, recursively.

    Tie-break is shortest left part, so certificates are deterministic.
    Membership is ``u in f``, a prefix search of F_L.
    Raises NoSplitError when every rotation of some subword is a factor,
    which is exactly a rotation-audit counterexample at that length.
    """
    if len(u) < 2:
        raise ContractError("single letters are generators; nothing to decompose")
    if len(u) > f.max_len:
        raise ContractError("word exceeds the factor bound")
    if u not in f:
        raise ContractError("word is not a known factor")

    def split(w: Word) -> LieNode:
        if len(w) == 1:
            return LieNode(word=w)
        for cut in range(1, len(w)):
            a, b = w[:cut], w[cut:]
            if b + a not in f:
                return LieNode(
                    word=w,
                    left=split(a),
                    right=split(b),
                    absent_rotation=b + a,
                )
        raise NoSplitError(w)

    return split(u)


def every_window_contains(word: Word, letter: int, window: int, size: int) -> bool:
    """True when each length-``window`` block of ``word``, a word over ``size``
    letters, contains the letter: no ``window`` letters in a row miss it.
    The word is read once, translated to one mark per letter, chr(0) at the
    letter and chr(1) elsewhere."""
    table = ["\1"] * size
    table[letter] = "\0"
    return "\1" * window not in word.translate(table)


def prefix_identity_holds(prefix: WordPrefix, n: int) -> bool:
    """Does phi^{n+1}(start) phi^n(start) begin the fixed point?"""
    e = prefix.gen_lengths
    if n + 1 >= len(e) or e[n + 1] + e[n] > len(prefix.word):
        raise ContractError("prefix too short for the identity check")
    return prefix.word[e[n + 1] : e[n + 1] + e[n]] == prefix.word[: e[n]]


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
    "cyclic_rotation_audit",
    "lie_decomposition",
    "every_window_contains",
    "prefix_identity_holds",
]
