"""Morphisms of free monoids and the combinatorics of their fixed points.

Words are stored as index strings: a word is a ``str`` whose code points are
letter ids (0-based declaration order), never letter names.  This keeps every
word a hashable index sequence while letting morphism application run through
``str.translate`` and factor extraction through slicing.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, cycle, islice, pairwise, starmap
from operator import xor
from typing import ClassVar, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ContractError,
    InvariantError,
    MorphismParseError,
    NotProlongableError,
    ResourceBudgetError,
)

Word = str  # code point == letter id

DEFAULT_MEMORY_BUDGET_BYTES = 512 * 2**20
# Counting a span letter by letter with str.count (one pass per letter) beats
# one Counter pass up to about this many letters, on 4^6- and 4^9-letter spans.
COUNT_PASS_MAX_LETTERS = 64


class Letter(NamedTuple):
    id: int
    name: str


@dataclass(frozen=True)
class Morphism:
    """A free-monoid endomorphism with a designated start letter.

    ``letters`` fixes the canonical order (ids are positions), ``images[i]``
    is the image word of letter ``i``, and ``degrees`` is the optional
    grading (positive integer per letter).
    """

    letters: tuple[str, ...]
    images: tuple[Word, ...]
    start: int
    degrees: tuple[int, ...] | None = None
    explicit_grading: bool = False

    def __post_init__(self) -> None:
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("letter names must be unique")
        if len(self.images) != len(self.letters):
            raise ValueError("images must be total over the alphabet")
        if not 0 <= self.start < len(self.letters):
            raise ValueError("start letter out of range")
        for img in self.images:
            for ch in img:
                if ord(ch) >= len(self.letters):
                    raise ValueError("image uses a letter outside the alphabet")
        if self.degrees is not None:
            if len(self.degrees) != len(self.letters):
                raise ValueError("degree map must be total over the alphabet")
            if any(d < 1 for d in self.degrees):
                raise ValueError("degrees must be positive")
        # str.translate accepts any indexable table; a list beats a dict here
        object.__setattr__(self, "_table", list(self.images))

    @property
    def size(self) -> int:
        return len(self.letters)

    def letter(self, name: str) -> Letter:
        try:
            return Letter(self.letters.index(name), name)
        except ValueError:
            raise ContractError(f"unknown letter {name!r}") from None

    def apply(self, word: Word) -> Word:
        """phi(word), via one C-level translate pass."""
        return word.translate(self._table)

    def apply_n(self, word: Word, n: int) -> Word:
        for _ in range(n):
            word = self.apply(word)
        return word

    def encode(self, names: str | Iterable[str]) -> Word:
        """Build a word from whitespace-separated names or an iterable of names."""
        toks = names.split() if isinstance(names, str) else list(names)
        return "".join(chr(self.letter(t).id) for t in toks)

    def decode(self, word: Word) -> str:
        return " ".join(map(self.letters.__getitem__, map(ord, word)))

    def degree_of(self, word: Word) -> int:
        if self.degrees is None:
            raise ContractError("morphism carries no grading")
        return sum(self.degrees[ord(ch)] for ch in word)

    @property
    def max_image_len(self) -> int:
        return max((len(i) for i in self.images), default=0)

    @property
    def min_image_len(self) -> int:
        return min((len(i) for i in self.images), default=0)


def letter_counts(word: Word, size: int, start: int = 0, end: int | None = None) -> tuple[int, ...]:
    """|word[start:end]|_x for each letter id x < ``size``.

    Up to ``COUNT_PASS_MAX_LETTERS`` letters this is one C-level ``str.count``
    per letter with no slice copied; a larger alphabet is tallied in one
    ``Counter`` pass over the span, whose cost does not grow with the alphabet.
    """
    if size <= COUNT_PASS_MAX_LETTERS:
        return tuple(word.count(chr(x), start, end) for x in range(size))
    tally = Counter(word[start:end])
    return tuple(tally[chr(x)] for x in range(size))


@dataclass(frozen=True)
class WordPrefix:
    """A generated prefix of the fixed point phi^omega(start).

    ``gen_lengths[k]`` is ``|phi^k(start)|`` for every generation k up to
    ``generation_level``, so ``word[:gen_lengths[k]]`` is exactly
    ``phi^k(start)``; the word ends at a generation, ``gen_lengths[-1]``.
    """

    word: Word
    gen_lengths: tuple[int, ...]

    @property
    def generation_level(self) -> int:
        return len(self.gen_lengths) - 1

    def __len__(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class ShapeRecord:
    """The letter structure of a morphism; ``classify_shape`` builds it.

    ``reach[a]`` is the set of letters reachable from a in one or more steps
    of the digraph a -> letters of phi(a).  ``occurring`` is {start} |
    reach[start], the letters of the fixed point when the start is
    prolongable.  ``growing[a]`` says whether |phi^n(a)| is unbounded.
    ``start_recurs`` says whether the start letter occurs at least twice in
    the fixed point.  ``unreachable`` is the first pair (a, b) of occurring
    letters, in sorted order, with b not reachable from a, and None when
    every occurring letter reaches every other: phi is primitive on them.
    """

    d_uniform: int | None
    erasing: bool
    growing: tuple[bool, ...]
    occurring: frozenset[int]
    reach: tuple[frozenset[int], ...]
    start_recurs: bool
    unreachable: tuple[int, int] | None

    @property
    def all_growing(self) -> bool:
        return all(self.growing)

    @property
    def primitive(self) -> bool:
        return self.unreachable is None


@dataclass(frozen=True)
class FactorSet:
    """The factors of the fixed point up to ``max_len``, held as F_L.

    ``words`` is the sorted tuple of factors of length exactly L = ``max_len``.
    Every factor of an infinite word is a prefix of a length-L factor, so
    membership, the counts p(n) and the shorter factors are all read off
    ``words`` by prefixes.
    """

    # every closure is exact; reports still print the flag
    exact: ClassVar[bool] = True

    max_len: int
    words: tuple[Word, ...]
    closure_rounds: int
    counts: tuple[int, ...] = field(init=False)
    _by_length: dict[int, tuple[Word, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        # p(n) = #{i : lcp(s_{i-1}, s_i) < n}: word i adds one new n-prefix
        # for each n in (lcp, L], tallied as a difference array.  Read as
        # integers at ``bits`` bits a letter, two length-L words differ in
        # the last ceil(bit_length(xor) / bits) = L - lcp letters.
        n = self.max_len
        diff = [0] * (n + 2)
        if self.words:
            diff[1] = 1
            try:
                bits, lengths = 8, _xor_lengths(self.words, "latin-1")
            except UnicodeEncodeError:  # a letter id past 255
                bits, lengths = 32, _xor_lengths(self.words, "utf-32-be")
            for length, count in lengths.items():
                diff[n + 1 - (length + bits - 1) // bits] += count
        object.__setattr__(self, "counts", (1, *accumulate(diff[1 : n + 1])))

    def __contains__(self, word: Word) -> bool:
        if len(word) > self.max_len:
            return False
        i = bisect_left(self.words, word)
        return i < len(self.words) and self.words[i].startswith(word)

    def of_length(self, n: int) -> tuple[Word, ...]:
        """The factors of length ``n``, sorted: the distinct n-prefixes of ``words``."""
        if n < 0 or n > self.max_len:
            raise ContractError(f"length {n} outside the computed range 0..{self.max_len}")
        found = self._by_length.get(n)
        if found is None:
            # prefixes of a sorted tuple come out sorted, equal ones adjacent
            found = tuple(dict.fromkeys(s[:n] for s in self.words))
            self._by_length[n] = found
        return found

    def restricted(self, n: int) -> "FactorSet":
        """The same factor set cut down to ``max_len`` = n."""
        if n < 0 or n > self.max_len:
            raise ContractError(f"length {n} outside the computed range 0..{self.max_len}")
        if n == self.max_len:
            return self
        return FactorSet(max_len=n, words=self.of_length(n), closure_rounds=self.closure_rounds)

    @cached_property
    def factors(self) -> frozenset[Word]:
        """Every factor of length <= ``max_len`` as one set, built on first use."""
        return frozenset().union(*(self.of_length(n) for n in range(self.max_len + 1)))

    def sorted_factors(self) -> list[Word]:
        """Deterministic length-then-canonical order."""
        return [w for n in range(self.max_len + 1) for w in self.of_length(n)]


def _xor_lengths(words: Iterable[Word], codec: str) -> Counter[int]:
    """How often each bit length occurs among the XORs of neighbouring
    words, each read as one integer in ``codec``, with no list of them built."""
    keys = (int.from_bytes(s.encode(codec), "big") for s in words)
    return Counter(map(int.bit_length, starmap(xor, pairwise(keys))))


# ---------------------------------------------------------------------------
# parsing


def parse_morphism(source: str, *, filename: str | None = None) -> Morphism:
    """Parse the line-oriented morphism grammar into a validated Morphism.

    Grammar: a ``letters:`` line first, one ``start:`` line, one ``map``
    line per letter, optional ``degree`` lines; ``#`` starts a comment.
    """
    letters: list[str] | None = None
    letters_line = 0
    start_name: str | None = None
    start_line = 0
    maps: dict[str, tuple[list[str], int]] = {}
    degree_lines: dict[str, tuple[int, int]] = {}
    default_degree: tuple[int, int] | None = None

    def fail(msg: str, line: int) -> None:
        raise MorphismParseError(msg if filename is None else f"{filename}: {msg}", line)

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("letters:"):
            if letters is not None:
                fail("duplicate 'letters:' line", lineno)
            if start_name is not None or maps or degree_lines:
                fail("'letters:' must be the first declaration", lineno)
            names = text[len("letters:"):].split()
            if not names:
                fail("empty alphabet", lineno)
            seen: set[str] = set()
            for n in names:
                if n in seen:
                    fail(f"duplicate letter {n!r}", lineno)
                seen.add(n)
            letters = names
            letters_line = lineno
        elif text.startswith("start:"):
            if letters is None:
                fail("'letters:' must come before 'start:'", lineno)
            if start_name is not None:
                fail("duplicate 'start:' line", lineno)
            toks = text[len("start:"):].split()
            if len(toks) != 1:
                fail("'start:' takes exactly one letter", lineno)
            start_name = toks[0]
            start_line = lineno
        elif text.startswith("map "):
            if letters is None:
                fail("'letters:' must come before 'map'", lineno)
            body = text[len("map "):]
            if "->" not in body:
                fail("map line needs '->'", lineno)
            lhs, rhs = body.split("->", 1)
            lhs_toks = lhs.split()
            if len(lhs_toks) != 1:
                fail("map line needs exactly one source letter", lineno)
            name = lhs_toks[0]
            if name not in letters:
                fail(f"map for undeclared letter {name!r}", lineno)
            if name in maps:
                fail(f"duplicate map for letter {name!r}", lineno)
            maps[name] = (rhs.split(), lineno)
        elif text.startswith("degree "):
            if letters is None:
                fail("'letters:' must come before 'degree'", lineno)
            body = text[len("degree "):]
            if "=" not in body:
                fail("degree line needs '='", lineno)
            lhs, rhs = body.split("=", 1)
            name = lhs.strip()
            try:
                value = int(rhs.strip())
            except ValueError:
                fail(f"degree value {rhs.strip()!r} is not an integer", lineno)
            if value < 1:
                fail(f"non-positive degree {value} for {name!r}", lineno)
            if name == "default":
                if default_degree is not None:
                    fail("duplicate 'degree default' line", lineno)
                default_degree = (value, lineno)
            else:
                if name not in letters:
                    fail(f"degree for undeclared letter {name!r}", lineno)
                if name in degree_lines:
                    fail(f"duplicate degree for letter {name!r}", lineno)
                degree_lines[name] = (value, lineno)
        else:
            fail(f"unrecognized line {text!r}", lineno)

    if letters is None:
        fail("missing 'letters:' line", 1)
    assert letters is not None
    if start_name is None:
        fail("missing 'start:' line", letters_line)
    assert start_name is not None
    if start_name not in letters:
        fail(f"start letter {start_name!r} not declared", start_line)
    for n in letters:
        if n not in maps:
            fail(f"missing map for letter {n!r}", letters_line)

    index = {n: i for i, n in enumerate(letters)}
    images: list[Word] = []
    for n in letters:
        rhs, lineno = maps[n]
        for tok in rhs:
            if tok not in index:
                fail(f"undeclared letter {tok!r} in image of {n!r}", lineno)
        images.append("".join(chr(index[t]) for t in rhs))

    explicit = bool(degree_lines) or default_degree is not None
    fallback = default_degree[0] if default_degree is not None else 1
    degrees = tuple(
        degree_lines[n][0] if n in degree_lines else fallback for n in letters
    )

    m = Morphism(
        letters=tuple(letters),
        images=tuple(images),
        start=index[start_name],
        degrees=degrees,
        explicit_grading=explicit,
    )
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        fail(f"start letter {start_name!r} is not prolongable: {reason}", start_line)
    return m


def load_morphism(path: str) -> Morphism:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise MorphismParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise MorphismParseError(f"cannot read {path}: not UTF-8 text") from None
    return parse_morphism(source, filename=path)


# ---------------------------------------------------------------------------
# structural letter sets


def mortal_letters(m: Morphism) -> frozenset[int]:
    """Letters that map to the empty word after finitely many iterations."""
    mortal = {i for i in range(m.size) if not m.images[i]}
    while True:
        grown = {
            i
            for i in range(m.size)
            if i not in mortal and all(ord(ch) in mortal for ch in m.images[i])
        }
        if not grown:
            return frozenset(mortal)
        mortal |= grown


def _prolongability_failure(m: Morphism, letter_id: int) -> str | None:
    name = m.letters[letter_id]
    img = m.images[letter_id]
    if not img or ord(img[0]) != letter_id:
        return f"phi({name}) does not begin with {name}"
    tail = img[1:]
    if not tail:
        return f"tail of phi({name}) after {name} is empty"
    mortal = mortal_letters(m)
    if all(ord(ch) in mortal for ch in tail):
        return f"tail of phi({name}) consists only of mortal letters"
    return None


def is_prolongable(m: Morphism, letter: int | Letter) -> bool:
    lid = letter.id if isinstance(letter, Letter) else letter
    return _prolongability_failure(m, lid) is None


def support_reach(m: Morphism, letters: frozenset[int]) -> dict[int, set[int]]:
    """>= 1 step reachability in the digraph a -> letters of phi(a), within ``letters``."""
    reach = {a: {ord(ch) for ch in m.images[a] if ord(ch) in letters} for a in letters}
    changed = True
    while changed:
        changed = False
        for a in letters:
            add: set[int] = set()
            for b in reach[a]:
                add |= reach[b]
            if not add <= reach[a]:
                reach[a] |= add
                changed = True
    return reach


def classify_shape(m: Morphism) -> ShapeRecord:
    """The one letter record the deciders read, from one ``support_reach``.

    Occurring letters are closed under images and mortal letters produce only
    mortal letters, so the closure restricted to either set is this closure
    intersected with it.  Growth is decided on the immortal letters, where
    every image keeps at least one letter: a grows iff some letter with two
    or more immortal image letters is reachable from a cycle that a reaches
    (only then does it recur often enough to keep multiplying).

    The fixed point is b t phi(t) phi^2(t)... for phi(b) = b t, and the
    letters of phi^k(c) are those reachable from c in exactly k steps, so
    the start b recurs iff it is a letter of t or reachable from one.
    """
    lens = {len(img) for img in m.images}
    d_uniform = lens.pop() if len(lens) == 1 else None
    closure = support_reach(m, frozenset(range(m.size)))
    reach = tuple(frozenset(closure[a]) for a in range(m.size))
    mortal = mortal_letters(m)
    cyclic = {a for a in range(m.size) if a in reach[a]}  # all immortal
    multipliers = {
        a for a in range(m.size) if sum(ord(ch) not in mortal for ch in m.images[a]) >= 2
    }
    growing = []
    for a in range(m.size):
        cycles = ({a} | reach[a]) & cyclic  # empty for a mortal letter
        fed = cycles.union(*(reach[c] for c in cycles))
        growing.append(bool(fed & multipliers))
    tail = {ord(ch) for ch in m.images[m.start][1:]}
    occurring = frozenset({m.start} | reach[m.start])
    unreachable = _unreachable_pair(occurring, reach)
    if (unreachable is None) != all(m.start in reach[a] for a in occurring):
        raise InvariantError("reduced start-reachability test disagrees with closure")
    return ShapeRecord(
        d_uniform=d_uniform,
        erasing=any(not img for img in m.images),
        growing=tuple(growing),
        occurring=occurring,
        reach=reach,
        start_recurs=m.start in tail.union(*(reach[c] for c in tail)),
        unreachable=unreachable,
    )


def _unreachable_pair(
    letters: frozenset[int], reach: Sequence[frozenset[int]]
) -> tuple[int, int] | None:
    """The first (a, b) of ``letters``, in sorted order, with b not in reach[a]."""
    order = sorted(letters)
    return next(((a, b) for a in order for b in order if b not in reach[a]), None)


# ---------------------------------------------------------------------------
# fixed point generation


def _reachable(images: Sequence[Word], seed: Iterable[int]) -> list[int]:
    """The letters reachable from ``seed`` in zero or more steps, sorted."""
    letters = set(seed)
    stack = list(letters)
    while stack:
        for ch in images[stack.pop()]:
            if ord(ch) not in letters:
                letters.add(ord(ch))
                stack.append(ord(ch))
    return sorted(letters)


class PowerTables:
    """The translate tables T_h = sigma o phi^h for h = 0, 1, ..., built on demand.

    T_0 is ``sigma`` (the identity when None) and T_{h+1}[c] is phi(c)
    translated under T_h, so a word phi^k(w) translated under T_h is
    sigma(phi^{k+h}(w)).  ``str.translate`` costs about a pass per input
    letter while a table entry is written at copy cost, so a late generation
    is cheapest read off an early one under a deep table; ``pick`` chooses
    how deep.  For h >= 1 only the letters reachable from ``seed`` in zero or
    more steps get an entry, so a letter that never occurs costs nothing
    however fast it grows; no word with another letter may be translated
    under such a table.
    """

    def __init__(
        self,
        images: Sequence[Word],
        seed: Iterable[int],
        sigma: Sequence[str] | None = None,
    ) -> None:
        self._images = images
        self._letters = _reachable(images, seed)
        self._tables: list[list[str] | None] = [None if sigma is None else list(sigma)]
        # |T_h[c]| for each letter c, and the letters of T_h over the reachable c
        first = [1] * len(images) if sigma is None else [len(v) for v in sigma]
        self._entry_lengths = [first]
        self._sizes = [sum(map(first.__getitem__, self._letters))]

    def size(self, h: int) -> int:
        """The letters of T_h over the reachable letters, known without building it."""
        while len(self._sizes) <= h:
            prev = self._entry_lengths[-1]
            lengths = [0] * len(prev)
            for c in self._letters:
                lengths[c] = sum(map(prev.__getitem__, map(ord, self._images[c])))
            self._entry_lengths.append(lengths)
            self._sizes.append(sum(map(lengths.__getitem__, self._letters)))
        return self._sizes[h]

    def table(self, h: int) -> list[str] | None:
        """T_h, with the tables below it built first; None is the identity."""
        while len(self._tables) <= h:
            prev = self._tables[-1]
            table = [""] * len(self._images)
            for c in self._letters:
                table[c] = self._images[c] if prev is None else self._images[c].translate(prev)
            self._tables.append(table)
        return self._tables[h]

    def pick(self, lengths: Sequence[int], d: int) -> tuple[int, int]:
        """(i, h) such that, for words w_0, w_1, ... of these ``lengths`` with
        w_{j+1} = phi(w_j), sigma(phi^d(w_last)) is w_i translated under T_h.

        From the last word and h = d, h moves up one generation at a time
        while T_{h+1} has fewer letters than the input letters it saves.
        """
        i, h = len(lengths) - 1, d
        while i > 0 and self.size(h + 1) < lengths[i] - lengths[i - 1]:
            i, h = i - 1, h + 1
        return i, h

    def apply(self, word: Word, h: int) -> Word:
        """``word`` translated under T_h."""
        table = self.table(h)
        return word if table is None else word.translate(table)


# Besides two copies of its letters, a prefix holds per generation three list
# slots (its chunk, the chunk's length and the generation's end, 8 bytes
# each), the end's int object (32 bytes) and its slot in the returned tuple.
_GENERATION_BYTES = 3 * 8 + 32 + 8


def fixed_point_prefix(
    m: Morphism,
    n: int,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    prefix: WordPrefix | None = None,
) -> WordPrefix:
    """At least the first ``n`` letters of the fixed point: its generations
    0, 1, ..., g for the first g >= 1 with |phi^g(start)| >= n.

    Builds b, t, phi(t), phi^2(t), ... for phi(b) = b t, so already-emitted
    letters never change when the prefix is extended.  Given ``prefix``, a
    held prefix of the fixed point, the result is cut from it when it
    reaches n and otherwise extended from its last generation; either way
    it is the word, generations and budget error of the call without it.
    Each generation phi^k(t) is an earlier one phi^{k-h}(t) translated
    under phi^h (``PowerTables``), whose tables cover the letters reachable
    from t.  phi^{k+1}(t) depends only on phi^k(t), so once a chunk equals
    an earlier one the chunks cycle and the rest of the prefix repeats that
    cycle, laid out with no loop step per generation.  A chunk is compared
    only with earlier chunks of its length, so growing chunks cost no
    comparison.  The budget counts two copies of the letters (the chunks
    and their join) and ``_GENERATION_BYTES`` per generation.
    """
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        raise NotProlongableError(reason)
    if n < 0:
        raise ContractError("prefix length must be nonnegative")
    base = _word_bytes(m, 0)
    width = _word_bytes(m, 1) - base

    def over_budget(letters: int, generations: int) -> bool:
        held = 2 * (base + letters * width) + generations * _GENERATION_BYTES
        return held > memory_budget_bytes

    if over_budget(n, 0):
        raise ResourceBudgetError(
            f"prefix of {n} letters exceeds the {memory_budget_bytes}-byte budget"
        )
    exceeded = f"prefix generation exceeds the {memory_budget_bytes}-byte budget"

    if prefix is None:
        prefix = WordPrefix(m.images[m.start], (1, len(m.images[m.start])))
    ends = prefix.gen_lengths
    g = max(1, bisect_left(ends, n))
    if g < len(ends):
        # the first generation is not a loop step; every later one is checked
        if g > 1 and over_budget(ends[g], g + 1):
            raise ResourceBudgetError(exceeded)
        return WordPrefix(prefix.word[: ends[g]], ends[: g + 1])

    parts = [prefix.word[a:b] for a, b in zip((0, *ends), ends)]  # b, then the chunks
    chunk_lengths = list(map(len, parts[1:]))
    total = ends[-1]
    gen_lengths = list(ends)
    by_length: dict[int, list[int]] = {}  # chunk length -> indices of the chunks that long
    for j, length in enumerate(chunk_lengths):
        by_length.setdefault(length, []).append(j)
    tables = PowerTables(m.images, map(ord, m.images[m.start][1:]))
    while total < n:
        i, h = tables.pick(chunk_lengths, 1)
        chunk = tables.apply(parts[i + 1], h)
        same = by_length.setdefault(len(chunk), [])
        first = next((j for j in same if parts[j + 1] == chunk), None)
        if first is not None:
            # chunks first, first + 1, ... repeat: take the fewest that reach n
            lengths = chunk_lengths[first:]
            within = list(accumulate(lengths))  # chunk ends within one cycle
            rounds, rest = divmod(n - total, within[-1])
            tail = bisect_left(within, rest) + 1 if rest else 0
            count = rounds * len(lengths) + tail
            final = total + rounds * within[-1] + (within[tail - 1] if tail else 0)
            if over_budget(final, len(gen_lengths) + count):
                raise ResourceBudgetError(exceeded)
            parts += islice(cycle(parts[first + 1 :]), count)
            steps = islice(cycle(lengths), count)
            gen_lengths += islice(accumulate(steps, initial=total), 1, None)
            break
        same.append(len(chunk_lengths))
        total += len(chunk)
        if over_budget(total, len(gen_lengths) + 1):
            raise ResourceBudgetError(exceeded)
        parts.append(chunk)
        chunk_lengths.append(len(chunk))
        gen_lengths.append(total)
    del tables  # the two-copy estimate holds the chunks and their join only
    return WordPrefix("".join(parts), tuple(gen_lengths))


# ---------------------------------------------------------------------------
# factor sets

# One stored word also costs its share of a hash set's table (16-byte slots,
# filled to at most 3/5) and a tuple slot (8 bytes).
_ENTRY_BYTES = 40


def _word_bytes(m: Morphism, length: int) -> int:
    """Estimated size of a ``str`` of ``length`` letters of m's alphabet.

    CPython stores 1, 2 or 4 bytes per code point, the narrowest width that
    holds the largest letter id, after a header that depends on that width.
    """
    width = 1 if m.size <= 256 else 2 if m.size <= 65536 else 4
    return sys.getsizeof(chr(m.size - 1)) - width + length * width


def _check_budget(m: Morphism, stored: Iterable[tuple[int, int]], budget: int) -> None:
    """Raise when (count, word length) groups of stored words exceed ``budget`` bytes."""
    used = sum(count * (_word_bytes(m, length) + _ENTRY_BYTES) for count, length in stored)
    if used > budget:
        raise ResourceBudgetError(
            f"factor closure needs about {used} bytes, over the {budget}-byte budget"
        )


def _windows(word: Word, size: int) -> set[Word]:
    return {word[i : i + size] for i in range(len(word) - size + 1)}


def _lead_windows(
    words: Iterable[Word],
    table: Sequence[str],
    size: int,
    full: Collection[Word] = (),
    last: set[Word] | None = None,
) -> Iterator[Word]:
    """The length-``size`` windows of v translated under ``table``, v in
    ``words``, that start in table[v[0]], the image of v's first letter, or
    anywhere for v in ``full``.  Any other window of v lies in the image of
    v[1:].  Given ``last``, the last window of each image goes there instead,
    so that a next window of its image follows every window yielded.
    """
    for v in words:
        w = v.translate(table)
        end = len(w) - size + 1
        if v not in full and len(table[ord(v[0])]) < end:
            end = len(table[ord(v[0])])
        elif last is not None:
            end -= 1
            last.add(w[end:])
        yield from [w[i : i + size] for i in range(end)]


def _prefix_through(
    m: Morphism,
    n: int,
    held: WordPrefix | None,
    memory_budget_bytes: int,
    delete: list[str] | None = None,
) -> WordPrefix:
    """``fixed_point_prefix(m, n)``, read off ``held`` as far as it reaches.
    ``held`` is a prefix of the fixed point of m or, given the table
    ``delete`` of a map delta, of phi with m = delta o phi; then
    delta(phi^g(start)) = m^g(start), so it is translated one generation at
    a time, up to the first generation g >= 1 that reaches n."""
    if held is not None and delete is not None:
        parts, ends = [], [0]
        for a, b in zip((0, *held.gen_lengths), held.gen_lengths):
            parts.append(held.word[a:b].translate(delete))
            ends.append(ends[-1] + len(parts[-1]))
            if len(ends) > 2 and ends[-1] >= n:
                break
        held = WordPrefix("".join(parts), tuple(ends[1:]))
    return fixed_point_prefix(m, n, memory_budget_bytes=memory_budget_bytes, prefix=held)


def _delete_mortal(m: Morphism) -> tuple[Morphism, list[str] | None, int]:
    """(psi, delta, k) for the mortal letters D of m: psi = delta o phi with
    the letters of D mapped to themselves, the translate table of the map
    delta deleting D (None when D is empty and psi = phi), and the least k
    with phi^k(D) empty."""
    mortal = mortal_letters(m)
    if not mortal:
        return m, None, 0
    delete = ["" if c in mortal else chr(c) for c in range(m.size)]
    images = tuple(chr(c) if c in mortal else v.translate(delete) for c, v in enumerate(m.images))
    # phi^r kills the letters whose image letters phi^(r-1) kills
    layers, dead = 0, set()
    while len(dead) < len(mortal):
        dead |= {c for c in mortal if all(ord(ch) in dead for ch in m.images[c])}
        layers += 1
    return Morphism(m.letters, images, m.start), delete, layers


def _expanded_windows(
    m: Morphism, words: Collection[Word], k: int, size: int, budget: int
) -> set[Word]:
    """The length-``size`` windows of phi^k(u) over ``words``, phi^k unbuilt.

    Level h holds phi^h(c) for each letter c of x: whole while it has at
    most 2*size - 1 letters, else cut to its first and last size - 1 letters
    around a separator outside the alphabet once its windows are collected.
    A window of a concatenation that lies inside none of the long words meets
    at most size - 1 letters at an end of each, so the separator-free windows
    of the cut concatenation are the rest.  phi^h(c) is a factor of
    x = phi^h(x), so every window collected is a factor of x.
    """
    sep, edge = chr(m.size), size - 1
    letters = _reachable(m.images, (m.start,))
    table = [chr(c) for c in range(m.size)]
    found: set[Word] = set()
    for _ in range(k):
        level = [""] * m.size
        for c in letters:
            w = m.images[c].translate(table)
            if len(w) > 2 * edge + 1:
                found.update(u for u in _windows(w, size) if sep not in u)
                w = w[:edge] + sep + w[len(w) - edge :]
            level[c] = w
        table = level
        _check_budget(m, [(len(words), size), (len(found), size)], budget)
    # a later window of v lies in the cut image of v[1:], a prefix of the cut
    # image of another word of F_L(y)
    found.update(u for u in _lead_windows(words, table, size) if sep not in u)
    _check_budget(m, [(len(words), size), (len(found), size)], budget)
    return found


def factor_closure(
    m: Morphism,
    max_len: int,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    prefix: WordPrefix | None = None,
) -> FactorSet:
    """The factors of the fixed point x up to ``max_len``, stored as F_L.

    An erasing phi is first reduced to a non-erasing psi (Honkala, TCS 2009;
    Cassaigne & Nicolas, "Factor complexity", 2010; ``_delete_mortal``).
    phi maps the mortal letters D into D*, so y = delta(x) is psi's fixed
    point, and x = phi^k(x) = phi^k(y) with each letter of y expanding to at
    least one letter.  So every length-L factor of x lies in phi^k(u) for a
    u in F_L(y): F_L(x) is the set of length-L windows of those phi^k(u),
    read without building phi^k (``_expanded_windows``).

    F_L(y) (y = x when phi erases nothing) comes from a fixpoint.  With j
    the least image length of psi, let B = L when j = 1 and B = (L-2)//j + 2
    (within 1..L) otherwise.  F_B is the least fixpoint of "add the length-B
    windows of psi(v) for v already present", seeded with the length-B
    windows of the first generation psi^g0(start) of at least B letters,
    read off ``prefix`` (a held prefix of x) when it reaches far enough.
    Descent argument: a factor at position p > 0 lies in psi(v) for the
    length-B factor v at the position p' < p whose image covers p, and that
    image reaches (B-1)j >= L-1 letters further.  So the fixpoint reaches
    all of F_B, and one harvest of the length-L windows of psi(v), v in F_B,
    gives F_L.  ``closure_rounds`` is g0, plus the rounds that added a word,
    plus one for the harvest.

    The argument uses only the windows that start in psi(v[0]), the image of
    v's first letter (``_lead_windows``): a later window lies in psi(v[1:]),
    and v[1:] begins another factor.  The harvest and the erasing expansion
    read a whole F_B or F_L(y), so they take only these windows.  In the
    fixpoint, a word u met as a window of psi(v) other than the last has its
    tail u[1:] begin the next window of psi(v), known by the next round;
    such a u gives only its first windows, and a word met only as the last
    window of an image or of the seed (``ends``) gives all of its windows.
    A window that u skips lies in the image of the known word that u[1:]
    begins, which gave it this round or before, by the same rule.  So every
    round adds the words that all windows would add, and ``closure_rounds``
    is the same.
    """
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        raise NotProlongableError(reason)
    if max_len < 0:
        raise ContractError("max_len must be nonnegative")
    if max_len == 0:
        return FactorSet(max_len=0, words=("",), closure_rounds=0)

    psi, delete, layers = _delete_mortal(m)
    if psi.min_image_len == 1:
        expand_bound = max_len
    else:
        expand_bound = max(1, min(max_len, (max_len - 2) // psi.min_image_len + 2))

    seed = _prefix_through(psi, expand_bound, prefix, memory_budget_bytes, delete)
    known = _windows(seed.word, expand_bound)
    frontier, ends = known, {seed.word[-expand_bound:]}
    rounds = seed.generation_level
    while True:
        last: set[Word] = set()
        inner = set(_lead_windows(frontier, psi._table, expand_bound, ends, last)) - known
        ends = last - inner - known
        if not (frontier := inner | ends):
            break
        rounds += 1
        known |= frontier
        _check_budget(m, [(len(known), expand_bound)], memory_budget_bytes)
    if max_len > expand_bound:
        rounds += 1
        harvest = set(_lead_windows(known, psi._table, max_len))
        _check_budget(
            m, [(len(known), expand_bound), (len(harvest), max_len)], memory_budget_bytes
        )
        known = harvest
    if layers:
        known = _expanded_windows(m, known, layers, max_len, memory_budget_bytes)
    return FactorSet(max_len=max_len, words=tuple(sorted(known)), closure_rounds=rounds)


def is_factor(f: FactorSet, u: Word) -> bool:
    if len(u) > f.max_len:
        raise ContractError(
            f"word of length {len(u)} exceeds the factor bound {f.max_len}"
        )
    return u in f


def subword_complexity(f: FactorSet, n: int) -> int:
    """p(n), the number of factors of length n."""
    if n < 0 or n > f.max_len:
        raise ContractError(f"length {n} outside the computed range 0..{f.max_len}")
    return f.counts[n]


__all__ = [
    "Word",
    "Letter",
    "Morphism",
    "WordPrefix",
    "PowerTables",
    "ShapeRecord",
    "FactorSet",
    "parse_morphism",
    "load_morphism",
    "mortal_letters",
    "is_prolongable",
    "support_reach",
    "classify_shape",
    "fixed_point_prefix",
    "factor_closure",
    "is_factor",
    "subword_complexity",
    "DEFAULT_MEMORY_BUDGET_BYTES",
]
