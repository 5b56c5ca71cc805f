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
from functools import cached_property, reduce
from itertools import accumulate, compress, count, cycle, islice, pairwise, repeat, starmap
from operator import itemgetter, mul, or_, xor
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


@dataclass(frozen=True)
class Morphism:
    """A free-monoid endomorphism with a designated start letter.

    ``letters`` fixes the canonical order (ids are positions), ``images[i]``
    is the image word of letter ``i``, and ``degrees`` is the grading
    (positive integer per letter).  Without ``degrees`` every letter has
    degree 1, as in a file without ``degree`` lines.
    """

    letters: tuple[str, ...]
    images: tuple[Word, ...]
    start: int
    degrees: tuple[int, ...] = ()
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
        if not self.degrees:
            object.__setattr__(self, "degrees", (1,) * len(self.letters))
        if len(self.degrees) != len(self.letters):
            raise ValueError("degree map must be total over the alphabet")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        # str.translate accepts any indexable table; a list beats a dict here
        object.__setattr__(self, "_table", list(self.images))
        object.__setattr__(self, "_names", [name + " " for name in self.letters])

    @property
    def size(self) -> int:
        return len(self.letters)

    def letter(self, name: str) -> int:
        """The id of the letter called ``name``."""
        try:
            return self.letters.index(name)
        except ValueError:
            raise ContractError(f"unknown letter {name!r}") from None

    def apply(self, word: Word) -> Word:
        """phi(word), via one C-level translate pass."""
        return word.translate(self._table)

    def encode(self, names: str | Iterable[str]) -> Word:
        """Build a word from whitespace-separated names or an iterable of names."""
        toks = names.split() if isinstance(names, str) else list(names)
        return "".join(chr(self.letter(t)) for t in toks)

    def decode(self, word: Word) -> str:
        """The letter names, separated by spaces, by one translate pass."""
        return word.translate(self._names)[:-1]

    @property
    def min_image_len(self) -> int:
        return min((len(i) for i in self.images), default=0)

    @cached_property
    def letter_graph(self) -> LetterGraph:
        """The ``LetterGraph``, built on first use by Tarjan's algorithm (SIAM J.
        Comput. 1972) with the depth-first path in a list: no recursion limit.  A
        component closes after all it reaches, so its reach and depth follow from
        its one-step letters; its own still read depth 0, so a cycle stays immortal."""
        succ = [set(map(ord, img)) for img in self.images]
        index: dict[int, int] = {}  # letter -> visit number
        low: dict[int, int] = {}  # letter -> least visit number it reaches on the stack
        component, reach, depth = [-1] * self.size, [0] * self.size, [0] * self.size
        stack: list[int] = []  # letters of the components not yet closed, in visit order
        closing = count()
        for root in range(self.size):
            work = [] if root in index else [(root, None)]  # the depth-first path
            while work:
                v, edges = work.pop()
                if edges is None:  # first visit
                    index[v] = low[v] = len(index)
                    stack.append(v)
                    edges = iter(succ[v])
                if (w := next((x for x in edges if x not in index), None)) is not None:
                    work += [(v, edges), (w, None)]
                    continue
                low[v] = min([low[v], *(low[x] for x in succ[v] if component[x] < 0)])
                if low[v] == index[v]:  # v's component is the stack from v up
                    i = bisect_left(stack, index[v], key=index.__getitem__)
                    group, stack[i:] = stack[i:], []
                    out = set().union(*map(succ.__getitem__, group))
                    bits = reduce(or_, (1 << x | reach[x] for x in out), 0)
                    depths = [depth[x] for x in out]
                    k = 1 + max(depths, default=0) if all(depths) else 0
                    c = next(closing)
                    for w in group:
                        component[w], reach[w], depth[w] = c, bits, k
        return LetterGraph(tuple(component), tuple(reach), tuple(depth))


class LetterGraph(NamedTuple):
    """The digraph a -> letters of phi(a) condensed to its strongly connected
    components, numbered in the order Tarjan's algorithm closes them: every
    edge goes to the same component or a lower one.  ``reach[a]`` is the
    bitset of the letters reachable from a in one or more steps, and
    ``depth[a]`` the least k with phi^k(a) empty, 0 when there is none."""

    component: tuple[int, ...]
    reach: tuple[int, ...]
    depth: tuple[int, ...]

    def reaches(self, a: int, b: int) -> bool:
        """Whether b is reachable from a in one or more steps."""
        return bool(self.reach[a] >> b & 1)

    def reachable(self, seed: Iterable[int]) -> list[int]:
        """The letters reachable from ``seed`` in zero or more steps, sorted."""
        mask = reduce(or_, (1 << a | self.reach[a] for a in seed), 0)
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def letter_counts(word: Word, size: int, start: int, end: int) -> tuple[int, ...]:
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

    ``occurring`` is the start and every letter it reaches, the letters of
    the fixed point when the start is prolongable.  ``growing[a]`` says
    whether |phi^n(a)| is unbounded.  ``start_recurs`` says whether the start
    letter occurs at least twice in the fixed point.  ``unreachable`` is the
    first pair (a, b) of occurring letters, in sorted order, with b not
    reachable from a, and None when phi is primitive on them.  ``pushy`` says
    whether the fixed point has arbitrarily long factors over bounded letters.
    """

    d_uniform: int | None
    erasing: bool
    growing: tuple[bool, ...]
    occurring: frozenset[int]
    start_recurs: bool
    unreachable: tuple[int, int] | None
    pushy: bool

    @property
    def all_growing(self) -> bool:
        return all(self.growing)

    @property
    def primitive(self) -> bool:
        return self.unreachable is None


@dataclass(frozen=True)
class FactorSet:
    """The factors of the fixed point up to ``max_len``, held as F_L.

    ``words`` is the sorted tuple of factors of length exactly L = ``max_len``,
    never empty.  Every factor of an infinite word is a prefix of a length-L
    factor, so membership, the counts p(n) and the shorter factors are all
    read off ``words`` by prefixes.  Code point i - 1 of ``lcps`` is the
    longest common prefix length of ``words[i - 1]`` and ``words[i]``: word i
    brings a new n-prefix exactly when that lcp is below n.
    """

    # every closure is exact; reports still print the flag
    exact: ClassVar[bool] = True

    max_len: int
    words: tuple[Word, ...]
    closure_rounds: int
    counts: tuple[int, ...] = field(init=False)
    lcps: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("an infinite word has factors of every length")
        try:
            lcps = _lcps(self.words, self.max_len, 8, "latin-1")
        except UnicodeEncodeError:  # a letter id past 255
            lcps = _lcps(self.words, self.max_len, 32, "utf-32-be")
        # p(n) = 1 + #{i : lcp_i < n}, the 1 for words[0]
        tally = Counter(lcps)
        counts = accumulate(map(tally.__getitem__, map(chr, range(self.max_len))), initial=1)
        object.__setattr__(self, "lcps", lcps)
        object.__setattr__(self, "counts", tuple(counts))

    def __contains__(self, word: Word) -> bool:
        if len(word) > self.max_len:
            return False
        i = bisect_left(self.words, word)
        return i < len(self.words) and self.words[i].startswith(word)

    def of_length(self, n: int) -> tuple[Word, ...]:
        """The factors of length ``n``, sorted: the n-prefix of ``words[0]``
        and of each later word whose lcp with the word before it is below n."""
        if n < 0 or n > self.max_len:
            raise ContractError(f"length {n} outside the computed range 0..{self.max_len}")
        if n == self.max_len:
            return self.words
        below = self.lcps.translate("\1" * n + "\0" * (self.max_len - n)).encode("latin-1")
        return tuple(map(itemgetter(slice(0, n)), compress(self.words, b"\1" + below)))


def _lcps(words: Iterable[Word], n: int, bits: int, codec: str) -> str:
    """The lcps of neighbouring length-n words, one code point each.  Read as
    integers in ``codec`` at ``bits`` bits a letter, two words differ in their
    last ceil(bit_length(xor) / bits) = n - lcp letters, so code point b of
    ``by_bits`` is the lcp of a pair whose XOR has b bits."""
    by_bits = chr(n) + "".join(chr(n - k) * bits for k in range(1, n + 1))
    keys = map(int.from_bytes, map(str.encode, words, repeat(codec)), repeat("big"))
    return "".join(map(by_bits.__getitem__, map(int.bit_length, starmap(xor, pairwise(keys)))))


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
    return frozenset(a for a, k in enumerate(m.letter_graph.depth) if k)


def _prolongability_failure(m: Morphism, letter_id: int) -> str | None:
    name = m.letters[letter_id]
    img = m.images[letter_id]
    if not img or ord(img[0]) != letter_id:
        return f"phi({name}) does not begin with {name}"
    tail = img[1:]
    if not tail:
        return f"tail of phi({name}) after {name} is empty"
    if all(m.letter_graph.depth[ord(ch)] for ch in tail):
        return f"tail of phi({name}) consists only of mortal letters"
    return None


def is_prolongable(m: Morphism, letter: int) -> bool:
    return _prolongability_failure(m, letter) is None


def classify_shape(m: Morphism) -> ShapeRecord:
    """The one letter record the deciders read, from ``m.letter_graph``.

    Growth is decided on the immortal letters, where every image keeps at
    least one letter: a grows iff it reaches, in one or more steps, a letter
    on a cycle that reaches a letter with two or more immortal image letters
    (only then does that letter recur often enough to keep multiplying).

    The fixed point is b t phi(t) phi^2(t)... for phi(b) = b t, and the
    letters of phi^k(c) are those reachable from c in exactly k steps, so
    the start b recurs iff it is a letter of t or reachable from one.
    """
    lens = {len(img) for img in m.images}
    d_uniform = lens.pop() if len(lens) == 1 else None
    graph = m.letter_graph
    counts = (sum(not graph.depth[ord(ch)] for ch in img) for img in m.images)
    multipliers = sum(1 << a for a, k in enumerate(counts) if k >= 2)
    fed = sum(1 << a for a, bits in enumerate(graph.reach) if bits >> a & 1 and bits & multipliers)
    occurring = frozenset(graph.reachable((m.start,)))
    unreachable = _unreachable_pair(graph, occurring)
    if (unreachable is None) != all(graph.reaches(a, m.start) for a in occurring):
        raise InvariantError("reduced start-reachability test disagrees with closure")
    growing = tuple(bool(bits & fed) for bits in graph.reach)
    return ShapeRecord(
        d_uniform=d_uniform,
        erasing=any(not img for img in m.images),
        growing=growing,
        occurring=occurring,
        start_recurs=m.start in graph.reachable(map(ord, m.images[m.start][1:])),
        unreachable=unreachable,
        pushy=_pushy(m, growing, occurring),
    )


def _pushy(m: Morphism, growing: tuple[bool, ...], occurring: frozenset[int]) -> bool:
    """Whether the fixed point has arbitrarily long factors over bounded letters.

    For a growing letter c let phi(c) = u g v with g its first growing letter.
    The left border run of phi^k(c), its bounded prefix, is phi^(k-1)(u)
    followed by the left border run of phi^(k-1)(g), and phi^(k-1)(u) is
    nonempty for every k iff u holds an immortal letter: the step c -> g then
    *feeds*.  Walking c -> g from an occurring letter ends in a cycle, and
    around a cycle with a feeding step the border run of the cycle's letters
    grows by at least one letter a turn; around any other cycle it is bounded.
    A bounded run of phi^k(c) = phi^(k-1)(phi(c)) lies in phi^(k-1) of one
    letter of phi(c), or is a right border run, the image of bounded letters
    and a left border run, so with bounded border runs every run is bounded.
    The fixed point is pushy iff some cycle of the left map, or of its mirror
    (the last growing letter and the letters after it), has a feeding step
    (Pansiot, ICALP 1984; Cassaigne and Nicolas 2010).

    Each letter is visited once: a walk stops at a letter an earlier walk
    reached, and closes a cycle only when it meets itself.
    """
    grow = [c for c in sorted(occurring) if growing[c]]
    depth = m.letter_graph.depth
    for side in (1, -1):  # the left map, then its mirror
        step, feeds = {}, {}
        for c in grow:
            img = m.images[c][::side]
            i = next(i for i, ch in enumerate(img) if growing[ord(ch)])
            step[c] = ord(img[i])
            feeds[c] = any(not depth[ord(ch)] for ch in img[:i])
        walk_of: dict[int, int] = {}  # letter -> the walk that first reached it
        for w in grow:
            path, c = [], w
            while c not in walk_of:
                walk_of[c] = w
                path.append(c)
                c = step[c]
            if walk_of[c] == w and any(map(feeds.__getitem__, path[path.index(c):])):
                return True
    return False


def _unreachable_pair(graph: LetterGraph, letters: frozenset[int]) -> tuple[int, int] | None:
    """The first (a, b) of ``letters``, in sorted order, with b not reachable from a."""
    wanted = sum(1 << a for a in letters)
    for a in sorted(letters):
        if missing := wanted & ~graph.reach[a]:
            return a, (missing & -missing).bit_length() - 1
    return None


# ---------------------------------------------------------------------------
# fixed point generation


class PowerTables:
    """The translate tables T_h = sigma o phi^h for h = 0, 1, ..., built on demand.

    T_0 is ``sigma`` (the identity when None) and T_{h+1}[c] is phi(c)
    translated under T_h, so a word phi^k(w) translated under T_h is
    sigma(phi^{k+h}(w)).  ``str.translate`` costs about a pass per input
    letter while a table entry is written at copy cost, so a late generation
    is cheapest read off an early one under a deep table; ``pick`` chooses
    how deep.  For h >= 1 only the letters reachable from ``seed`` in zero or
    more steps (read off m's ``LetterGraph``) get an entry, so a letter that
    never occurs costs nothing however fast it grows; no word with another
    letter may be translated under such a table.
    """

    def __init__(
        self,
        m: Morphism,
        seed: Iterable[int],
        sigma: Sequence[str] | None = None,
    ) -> None:
        self._images = m.images
        self._letters = m.letter_graph.reachable(seed)
        self._tables: list[list[str] | None] = [None if sigma is None else list(sigma)]
        # |T_h[c]| for each letter c, and the letters of T_h over the reachable c
        first = [1] * m.size if sigma is None else [len(v) for v in sigma]
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

    def entry_lengths(self, h: int) -> list[int]:
        """|T_h[c]| for each letter c (0 for an unreachable c when h >= 1),
        known without building T_h."""
        self.size(h)
        return self._entry_lengths[h]

    def length(self, word: Word, h: int) -> int:
        """|word translated under T_h|, known without building T_h."""
        counts = letter_counts(word, len(self._images), 0, len(word))
        return sum(map(mul, counts, self.entry_lengths(h)))

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
    cycle, laid out with no loop step per generation.  As in Brent's cycle
    finding (1980), a chunk is compared only with the chunk at the last
    power of two below its index, so a held prefix's chunks need no
    registry.  The budget counts two copies of the letters (the chunks and
    their join) and ``_GENERATION_BYTES`` per generation, and a generation
    is checked against it before it is built.
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
    tables = PowerTables(m, map(ord, m.images[m.start][1:]))
    while total < n:
        i, h = tables.pick(chunk_lengths, 1)
        source, gens = parts[i + 1], len(gen_lengths) + 1
        if over_budget(total + len(source) * tables.size(h), gens):  # no entry is longer
            if over_budget(total + tables.length(source, h), gens):
                raise ResourceBudgetError(exceeded)
        chunk = tables.apply(source, h)
        first = 1 << (len(chunk_lengths) - 1).bit_length() >> 1
        if parts[first + 1] == chunk:
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
        total += len(chunk)
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


def _harvest_cost(lengths: Sequence[int], words: Collection[Word], n: int) -> int:
    """|T(v)| + |T(v[0])| summed over ``words``, all of n letters, for a table
    T whose entries have these ``lengths`` (0 only for letters no word
    holds).  When each v gives all |T(v[0])| windows, this is what
    ``_lead_windows`` writes, a window counted as one letter.  One count pass
    per letter whose entry is longer than the shortest."""
    text = "".join(words)
    text += text[::n]
    low = min(k for k in lengths if k)
    return low * len(text) + sum(
        (k - low) * text.count(chr(c)) for c, k in enumerate(lengths) if k > low
    )


def _delete_mortal(m: Morphism) -> tuple[Morphism, int]:
    """(psi, k) for the mortal letters D of m: psi = delta o phi with the
    letters of D mapped to themselves, where the map delta deletes D (psi is
    m when D is empty), and the least k with phi^k(D) empty: the longest
    path among the mortal components."""
    mortal = mortal_letters(m)
    if not mortal:
        return m, 0
    delete = ["" if c in mortal else chr(c) for c in range(m.size)]
    images = tuple(chr(c) if c in mortal else v.translate(delete) for c, v in enumerate(m.images))
    return Morphism(m.letters, images, m.start), max(m.letter_graph.depth)


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
    letters = m.letter_graph.reachable((m.start,))
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
    the least image length of psi, let B = (L-2)//j + 2 within 1..L.  F_B
    is the least fixpoint of "add the length-B windows of psi(v) for v
    already present", seeded with the length-B windows of the first
    generation psi^g0(start) of at least B letters.
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

    Keys, when t = 1 + ceil((B-1)/j) < B (so j >= 2).  Fixpoint lemma: the
    windows of psi(v) that start in psi(v[0]) lie in psi(v[:t]), since
    |psi(v[1:t])| >= (t-1)j >= B-1; so a word not in ``ends`` gives the
    windows of its key v[:t].  Each round translates only the keys of its
    frontier not read before; a key read in an earlier round gave those
    windows then, and a key of an ``ends`` word gives a subset of that
    word's windows (|psi(v[1:])| > B-1), so every round adds the same words
    and ``closure_rounds`` is unchanged.  The keys read are then F_t.
    Harvest lemma: x = psi^2(x), and a window at position p of x lies in
    psi^2(k) for the length-t factor k whose first letter's image under
    psi^2 covers p, since |psi^2(k[1:])| >= (t-1)j^2 >= (B-1)j >= L-1.  So
    F_L is the set of length-L windows of psi^2(k) that start in
    psi^2(k[0]), over k in F_t.  Either harvest gives F_L, and each word of
    either gives all the windows that start in its first letter's image.
    The one over F_t is taken when it writes fewer letters (its images,
    their windows counted as one letter each, and psi^2's table) than the
    one over F_B, read off entry lengths (``_harvest_cost``), and when
    psi^2's table, one key's image and that image's windows fit the budget;
    psi^2 is built only then.  A letter whose image is much longer than j
    can make psi^2 of a key far longer than psi of its word (a -> ab,
    b -> b^3000 at L = 64: 1.5e8 letters against 1e5), and there F_B is
    read.  When t = B (j = 1, every erasing phi, or B <= 2) both passes read
    whole words as above.
    """
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        raise NotProlongableError(reason)
    if max_len < 0:
        raise ContractError("max_len must be nonnegative")
    if max_len == 0:
        return FactorSet(max_len=0, words=("",), closure_rounds=0)

    psi, layers = _delete_mortal(m)
    j = psi.min_image_len
    expand_bound = max(1, min(max_len, (max_len - 2) // j + 2))
    key_len = 1 - (1 - expand_bound) // j
    keyed = key_len < expand_bound

    seed = fixed_point_prefix(psi, expand_bound, memory_budget_bytes=memory_budget_bytes)
    known = _windows(seed.word, expand_bound)
    frontier, ends = known, {seed.word[-expand_bound:]}
    read: set[Word] = set()  # the keys translated so far: F_t once the fixpoint ends
    rounds = seed.generation_level
    while True:
        last: set[Word] = set()
        if keyed:
            keys = {v[:key_len] for v in frontier} - read
            read |= keys
            inner = set(_lead_windows(keys, psi._table, expand_bound))
            inner.update(_lead_windows(ends, psi._table, expand_bound, ends, last))
        else:
            inner = set(_lead_windows(frontier, psi._table, expand_bound, ends, last))
        inner -= known
        ends = last - inner - known
        if not (frontier := inner | ends):
            break
        rounds += 1
        known |= frontier
        # a round's window set holds fresh copies of known words until
        # ``- known`` drops them, so two copies of the known words are charged
        _check_budget(
            m, [(2 * len(known), expand_bound), (len(read), key_len)], memory_budget_bytes
        )
    if max_len > expand_bound:
        rounds += 1
        table, sources = psi._table, known
        if keyed:
            tables = PowerTables(psi, (psi.start,))
            lengths = tables.entry_lengths(2)
            longest = max(lengths)
            # psi^2 holds its table, one key's image and that image's windows
            held = _word_bytes(m, tables.size(2) + key_len * longest) + longest * (
                _word_bytes(m, max_len) + 8
            )
            if (
                _harvest_cost(lengths, read, key_len) + tables.size(2)
                < _harvest_cost(tables.entry_lengths(1), known, expand_bound)
                and held <= memory_budget_bytes
            ):
                table, sources = tables.table(2), read
        harvest = set(_lead_windows(sources, table, max_len))
        _check_budget(
            m,
            [(len(known), expand_bound), (len(read), key_len), (len(harvest), max_len)],
            memory_budget_bytes,
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
    "Morphism",
    "LetterGraph",
    "WordPrefix",
    "PowerTables",
    "ShapeRecord",
    "FactorSet",
    "parse_morphism",
    "load_morphism",
    "mortal_letters",
    "is_prolongable",
    "classify_shape",
    "fixed_point_prefix",
    "factor_closure",
    "is_factor",
    "subword_complexity",
    "DEFAULT_MEMORY_BUDGET_BYTES",
]
