"""Morphisms of free monoids and the combinatorics of their fixed points.

Words are stored as index strings: a word is a ``str`` whose code points are
letter ids (0-based declaration order), never letter names.  This keeps every
word a hashable index sequence while letting morphism application run through
``str.translate`` and factor extraction through slicing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import (
    ContractError,
    MorphismParseError,
    NotProlongableError,
    ResourceBudgetError,
)

Word = str  # code point == letter id

DEFAULT_MEMORY_BUDGET_BYTES = 512 * 2**20
# Erasing morphisms get factor sets from a generated prefix (lower bound only);
# this is how far that prefix reaches by default.
DEFAULT_ERASING_PREFIX_LETTERS = 4**8


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
        return " ".join(self.letters[ord(ch)] for ch in word)

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


@dataclass(frozen=True)
class WordPrefix:
    """A generated prefix of the fixed point phi^omega(start).

    ``gen_lengths[k]`` is ``|phi^k(start)|`` for every fully contained
    generation, so ``word[:gen_lengths[k]]`` is exactly ``phi^k(start)``.
    """

    word: Word
    generation_level: int
    gen_lengths: tuple[int, ...]
    is_prefix_of_fixed_point: bool = True

    def __len__(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class ShapeRecord:
    d_uniform: int | None
    erasing: bool
    growing: tuple[bool, ...]

    @property
    def all_growing(self) -> bool:
        return all(self.growing)


@dataclass(frozen=True)
class FactorSet:
    """All factors of the fixed point up to ``max_len`` (exact for non-erasing).

    When ``exact`` is false the set is the factor set of a finite generated
    prefix: a sound lower bound, closed under sub-factors either way.
    """

    max_len: int
    factors: frozenset[Word]
    exact: bool
    closure_rounds: int
    counts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        by_len = [0] * (self.max_len + 1)
        for w in self.factors:
            by_len[len(w)] += 1
        object.__setattr__(self, "counts", tuple(by_len))

    def __contains__(self, word: Word) -> bool:
        return word in self.factors

    def sorted_factors(self) -> list[Word]:
        """Deterministic length-then-canonical order."""
        return sorted(self.factors, key=lambda w: (len(w), w))


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_morphism(fh.read(), filename=path)


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


def occurring_letters(m: Morphism) -> frozenset[int]:
    """Closure of {start} under taking image letters.

    Equals the set of letters of the fixed point when the start is
    prolongable.
    """
    seen = {m.start}
    frontier = [m.start]
    while frontier:
        nxt = []
        for i in frontier:
            for ch in m.images[i]:
                j = ord(ch)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return frozenset(seen)


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


def growing_letters(m: Morphism) -> frozenset[int]:
    """Letters a with |phi^n(a)| unbounded.

    Mortal letters vanish and mortal letters never produce immortal ones, so
    growth is decided on the immortal restriction psi.  There |psi(c)| >= 1
    for every c, and a is growing iff some letter with |psi(c)| >= 2 can be
    reached from a via a path that passes through a cycle (only then does c
    recur often enough to keep multiplying).
    """
    mortal = mortal_letters(m)
    immortal = [i for i in range(m.size) if i not in mortal]
    if not immortal:
        return frozenset()
    psi = {
        i: [ord(ch) for ch in m.images[i] if ord(ch) not in mortal]
        for i in immortal
    }
    reach = support_reach(m, frozenset(immortal))
    cyclic = {i for i in immortal if i in reach[i]}
    multipliers = {i for i in immortal if len(psi[i]) >= 2}
    # a grows iff some multiplier letter is reachable from a cycle that a
    # itself reaches: only then does the multiplier recur at unboundedly
    # many generations of psi^n(a).
    growing = set()
    for a in immortal:
        cycles_from_a = ({a} | reach[a]) & cyclic
        fed = set(cycles_from_a)
        for d in cycles_from_a:
            fed |= reach[d]
        if fed & multipliers:
            growing.add(a)
    return frozenset(growing)


def classify_shape(m: Morphism) -> ShapeRecord:
    lens = {len(img) for img in m.images}
    d_uniform = lens.pop() if len(lens) == 1 else None
    growing = growing_letters(m)
    return ShapeRecord(
        d_uniform=d_uniform,
        erasing=any(not img for img in m.images),
        growing=tuple(i in growing for i in range(m.size)),
    )


# ---------------------------------------------------------------------------
# fixed point generation


def fixed_point_prefix(
    m: Morphism,
    n: int,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> WordPrefix:
    """At least the first ``n`` letters of the fixed point.

    Builds b, x, phi(x), phi^2(x), ... so already-emitted letters never
    change when the prefix is extended.
    """
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        raise NotProlongableError(reason)
    if n < 0:
        raise ContractError("prefix length must be nonnegative")
    budget_letters = memory_budget_bytes  # ~1 byte per letter for small alphabets
    if n > budget_letters:
        raise ResourceBudgetError(
            f"prefix of {n} letters exceeds the {memory_budget_bytes}-byte budget"
        )

    start_ch = chr(m.start)
    chunk = m.images[m.start][1:]
    parts = [start_ch, chunk]
    total = 1 + len(chunk)
    gen_lengths = [1, total]  # |phi^0(b)|, |phi^1(b)|
    while total < n:
        chunk = m.apply(chunk)
        if total + len(chunk) > budget_letters:
            raise ResourceBudgetError(
                f"prefix generation exceeds the {memory_budget_bytes}-byte budget"
            )
        parts.append(chunk)
        total += len(chunk)
        gen_lengths.append(total)
    return WordPrefix(
        word="".join(parts),
        generation_level=len(gen_lengths) - 1,
        gen_lengths=tuple(gen_lengths),
    )


# ---------------------------------------------------------------------------
# factor sets


def _substrings_upto(word: Word, max_len: int, out: set[Word]) -> None:
    n = len(word)
    for i in range(n):
        top = min(max_len, n - i)
        for l in range(1, top + 1):
            out.add(word[i : i + l])


def _harvest_new(z: Word, top: int, known: set[Word], pending: set[Word]) -> None:
    """Record substrings of z (length <= top) that are not in ``known``.

    ``known`` must be closed under taking substrings, which makes membership
    monotone in the length at every start position; a two-pointer sweep then
    skips the already-known prefix at each start instead of re-deriving it.
    ``pending`` collects the new words and stays disjoint from ``known``.
    """
    n = len(z)
    run = 0  # longest known substring length at the current start
    for i in range(n):
        if run:
            run -= 1
        limit = min(top, n - i)
        while run < limit and z[i : i + run + 1] in known:
            run += 1
        for l in range(run + 1, limit + 1):
            pending.add(z[i : i + l])


def factor_closure(
    m: Morphism,
    max_len: int,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    erasing_prefix_letters: int = DEFAULT_ERASING_PREFIX_LETTERS,
) -> FactorSet:
    """The factors of the fixed point up to ``max_len``.

    Non-erasing morphisms get the exact set as the least fixpoint of
    "add every factor of phi(v) of length <= max_len for v already present",
    seeded with the factors of phi(start).  Expansion is restricted to words
    of length <= B = (max_len-2)//min_image_len + 2: by the descent argument
    any short factor of phi(s) already sits inside phi(v) for a sub-factor v
    of s of length <= B, so the fixpoint is unchanged.  Erasing morphisms
    fall back to scanning a generated prefix (exact=False, lower bound).
    """
    reason = _prolongability_failure(m, m.start)
    if reason is not None:
        raise NotProlongableError(reason)
    if max_len < 0:
        raise ContractError("max_len must be nonnegative")
    if max_len == 0:
        return FactorSet(max_len=0, factors=frozenset({""}), exact=True, closure_rounds=0)

    budget_letters = memory_budget_bytes

    if m.min_image_len == 0:
        prefix = fixed_point_prefix(
            m, erasing_prefix_letters, memory_budget_bytes=memory_budget_bytes
        )
        found: set[Word] = {""}
        _substrings_upto(prefix.word, max_len, found)
        return FactorSet(
            max_len=max_len,
            factors=frozenset(found),
            exact=False,
            closure_rounds=0,
        )

    if m.min_image_len == 1:
        expand_bound = max_len
    else:
        expand_bound = max(1, min(max_len, (max_len - 2) // m.min_image_len + 2))

    factors: set[Word] = {""}
    seed: set[Word] = set()
    _harvest_new(m.images[m.start], expand_bound, factors, seed)
    factors |= seed
    frontier = [w for w in seed if len(w) <= expand_bound]
    rounds = 0
    stored_letters = sum(len(w) for w in factors)
    # Phase 1: exact closure at length <= expand_bound.
    while frontier:
        rounds += 1
        pending: set[Word] = set()
        for v in frontier:
            _harvest_new(m.apply(v), expand_bound, factors, pending)
        stored_letters += sum(len(w) for w in pending)
        if stored_letters > budget_letters:
            raise ResourceBudgetError(
                f"factor closure exceeds the {memory_budget_bytes}-byte budget"
            )
        factors |= pending
        frontier = [w for w in pending if len(w) <= expand_bound]
    # Phase 2: one harvest pass.  Every factor u with |u| <= max_len lies in
    # phi(v) for some factor v of length exactly expand_bound (extend the
    # descent witness rightward inside the infinite word).
    if max_len > expand_bound:
        rounds += 1
        harvest: set[Word] = set()
        for v in (w for w in factors if len(w) == expand_bound):
            _harvest_new(m.apply(v), max_len, factors, harvest)
        stored_letters += sum(len(w) for w in harvest)
        if stored_letters > budget_letters:
            raise ResourceBudgetError(
                f"factor closure exceeds the {memory_budget_bytes}-byte budget"
            )
        factors |= harvest
    return FactorSet(
        max_len=max_len,
        factors=frozenset(factors),
        exact=True,
        closure_rounds=rounds,
    )


def is_factor(f: FactorSet, u: Word) -> bool:
    if len(u) > f.max_len:
        raise ContractError(
            f"word of length {len(u)} exceeds the factor bound {f.max_len}"
        )
    return u in f.factors


def subword_complexity(f: FactorSet, n: int) -> int:
    """p(n); a flagged lower bound when the set is not exact."""
    if n < 0 or n > f.max_len:
        raise ContractError(f"length {n} outside the computed range 0..{f.max_len}")
    return f.counts[n]


__all__ = [
    "Word",
    "Letter",
    "Morphism",
    "WordPrefix",
    "ShapeRecord",
    "FactorSet",
    "parse_morphism",
    "load_morphism",
    "mortal_letters",
    "is_prolongable",
    "occurring_letters",
    "growing_letters",
    "support_reach",
    "classify_shape",
    "fixed_point_prefix",
    "factor_closure",
    "is_factor",
    "subword_complexity",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "DEFAULT_ERASING_PREFIX_LETTERS",
]
