"""Shared fixtures, independent oracles, and hypothesis strategies."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from iteralg.cli import gallery_text
from iteralg.errors import ContractError, InvariantError, NoSplitError
from iteralg.graded import ChainWitness, lie_decomposition, max_homogeneous_chain, s_set
from iteralg.matrices import WEIGHT_EXPANSION_BUDGET_LETTERS, WeightSequences
from iteralg.words import (
    FactorSet,
    Morphism,
    WordPrefix,
    _delete_mortal,
    factor_closure,
    fixed_point_prefix,
    is_prolongable,
    mortal_letters,
    parse_morphism,
    support_reach,
)


# ---------------------------------------------------------------------------
# oracles: deliberately naive, sharing no code with the library paths they check


def naive_power(m: Morphism, n: int, seed: int | None = None) -> list[int]:
    """phi^n(seed letter) by literal list substitution."""
    word = [m.start if seed is None else seed]
    for _ in range(n):
        word = [ord(ch) for a in word for ch in m.images[a]]
    return word


def naive_image(m: Morphism, word: str, n: int) -> str:
    """phi^n(word), letter by letter by literal list substitution."""
    return "".join(chr(x) for ch in word for x in naive_power(m, n, ord(ch)))


def prefix_reference(m: Morphism, n: int) -> WordPrefix:
    """fixed_point_prefix(m, n) by translating each generation of the tail
    t of phi(start) = start t under phi's images, one after another."""
    chunk = m.images[m.start][1:]
    parts, ends = [chr(m.start), chunk], [1, 1 + len(chunk)]
    while ends[-1] < n:
        chunk = chunk.translate(list(m.images))
        parts.append(chunk)
        ends.append(ends[-1] + len(chunk))
    return WordPrefix("".join(parts), tuple(ends))


def brute_factor_set(word: str, max_len: int) -> set[str]:
    out = {""}
    for i in range(len(word)):
        for j in range(i + 1, min(i + max_len, len(word)) + 1):
            out.add(word[i:j])
    return out


def reference_closure(m: Morphism, max_len: int) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """(words, counts, closure_rounds) of factor_closure(m, max_len), by the
    closure that takes every window: the fixpoint and the harvest slice all
    length-B and length-L windows of psi(v), the erasing expansion all
    windows of each cut phi^k(u), and p(n) is tallied from the longest
    common prefix of neighbouring words, found by binary search over slices."""

    def windows(word: str, size: int) -> set[str]:
        return {word[i : i + size] for i in range(len(word) - size + 1)}

    def lcp(a: str, b: str) -> int:
        lo, hi = 0, min(len(a), len(b))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if b.startswith(a[:mid]):
                lo = mid
            else:
                hi = mid - 1
        return lo

    if max_len == 0:
        return ("",), (1,), 0
    psi, delete, layers = _delete_mortal(m)
    j = psi.min_image_len
    size = max_len if j == 1 else max(1, min(max_len, (max_len - 2) // j + 2))
    seed = fixed_point_prefix(psi, size)
    known = windows(seed.word, size)
    frontier = known
    rounds = seed.generation_level
    while frontier := {u for v in frontier for u in windows(psi.apply(v), size)} - known:
        rounds += 1
        known |= frontier
    if max_len > size:
        rounds += 1
        known = {u for v in known for u in windows(psi.apply(v), max_len)}
    if layers:
        # phi^h(c) cut to its first and last L - 1 letters around a separator
        # once its windows are taken
        sep, edge = chr(m.size), max_len - 1
        table = [chr(c) for c in range(m.size)]
        found: set[str] = set()
        for _ in range(layers):
            level = [""] * m.size
            for c in occurring_reference(m):
                w = m.images[c].translate(table)
                if len(w) > 2 * edge + 1:
                    found |= {u for u in windows(w, max_len) if sep not in u}
                    w = w[:edge] + sep + w[len(w) - edge :]
                level[c] = w
            table = level
        found |= {
            u for v in known for u in windows(v.translate(table), max_len) if sep not in u
        }
        known = found
    words = tuple(sorted(known))
    diff = [0] * (max_len + 2)
    prev = ""
    for s in words:
        diff[lcp(prev, s) + 1] += 1
        prev = s
    return words, (1, *accumulate(diff[1 : max_len + 1])), rounds


def brute_factor_count(word: str, n: int) -> int:
    if n == 0:
        return 1
    return len({word[i : i + n] for i in range(len(word) - n + 1)})


def letter_count(word: list[int], letter: int) -> int:
    return sum(1 for c in word if c == letter)


def max_run_start(sums: tuple[int, ...], d: int) -> tuple[int, int]:
    """(max pieces, start value) of the longest run v, v+d, ..., v+rd in sums.

    Descending pass: the run starting at v extends the one starting at v+d.
    Ties go to the smallest start value.
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


def degree_sums_reference(
    degrees: tuple[int, ...], word: str, cap: int | None = None
) -> list[int]:
    """s_0, ..., s_|word| by accumulating letter degrees, each capped at ``cap``
    when one is given."""
    capped = degrees if cap is None else [min(g, cap) for g in degrees]
    return [0, *accumulate(capped[ord(ch)] for ch in word)]


def first_pieces_reference(w: ChainWitness, count: int) -> tuple[str, ...]:
    """The witness's first ``count`` pieces, cut by bisecting the accumulated
    degree sums for the next multiple of d."""
    word = w.s.word
    sums = degree_sums_reference(w.s.degrees, word)
    i, end = w.span
    out = []
    for _ in range(min(count, w.length)):
        j = bisect_left(sums, sums[i] + w.degree, i + 1, end + 1)
        out.append(word[i:j])
        i = j
    return tuple(out)


def wide_morphism(size: int) -> Morphism:
    """x0 -> x0 x1 x2 and x_i -> x_{2i+1} x_{2i+2} (indices mod ``size``), with
    degrees 1, 2, 3 in turn, for alphabets of any size >= 3: every letter
    occurs by generation log2(size) + 1, and the fixed point roughly doubles
    each generation."""
    images = [chr(0) + chr(1) + chr(2)]
    images += [chr((2 * i + 1) % size) + chr((2 * i + 2) % size) for i in range(1, size)]
    degrees = tuple(1 + i % 3 for i in range(size))
    return Morphism(tuple(f"x{i}" for i in range(size)), tuple(images), 0, degrees)


def occurring_reference(m: Morphism) -> frozenset[int]:
    """Closure of {start} under taking image letters, by breadth-first search."""
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


def growing_reference(m: Morphism) -> frozenset[int]:
    """Letters a with |phi^n(a)| unbounded, decided on the immortal restriction psi.

    a grows iff some letter c with |psi(c)| >= 2 is reachable from a cycle
    that a reaches, with reachability taken within the immortal letters.
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
    growing = set()
    for a in immortal:
        cycles_from_a = ({a} | reach[a]) & cyclic
        fed = set(cycles_from_a)
        for d in cycles_from_a:
            fed |= reach[d]
        if fed & multipliers:
            growing.add(a)
    return frozenset(growing)


def level_prefix(m: Morphism, k: int) -> WordPrefix:
    """The fixed-point prefix that ends exactly at phi^k(start)."""
    return fixed_point_prefix(m, len(naive_power(m, k)))


def chain_level_lengths(
    m: Morphism, prefix: WordPrefix, d_max: int, levels: list[int]
) -> list[tuple[int, ...]]:
    """Each degree's chain ``level_lengths`` at ``levels`` over ``prefix``, as
    analyze passes them."""
    s = s_set(m, prefix)
    return [
        max_homogeneous_chain(m, s, None, d, levels=levels).level_lengths
        for d in range(1, d_max + 1)
    ]


def weight_crosscheck_reference(m: Morphism, n_max: int) -> WeightSequences:
    """weight_sequence by plain list arithmetic, cross-checked against each
    phi^n(start) expanded in full from the start letter."""
    rows = [[m.images[j].count(chr(i)) for j in range(m.size)] for i in range(m.size)]

    def weights(matrix: list[list[int]]) -> tuple[int, ...]:
        vec = [int(i == m.start) for i in range(m.size)]
        out = []
        for _ in range(n_max + 1):
            out.append(sum(d * v for d, v in zip(m.degrees, vec)))
            vec = [sum(a * v for a, v in zip(row, vec)) for row in matrix]
        return tuple(out)

    direct = weights(rows)
    word = chr(m.start)
    checked = 0
    for n in range(n_max + 1):
        if len(word) > WEIGHT_EXPANSION_BUDGET_LETTERS:
            break
        if m.degree_of(word) != direct[n]:
            raise InvariantError(f"weight mismatch at n={n}")
        checked = n
        word = m.apply(word)
    return WeightSequences(direct, weights([list(c) for c in zip(*rows)]), checked)


def prefix_identity_reference(m: Morphism, n: int, prefix: str) -> bool:
    """Does phi^{n+1}(start) phi^n(start), each expanded from the start letter,
    begin ``prefix``?  ContractError when ``prefix`` is shorter than that word."""
    cat = m.apply_n(chr(m.start), n + 1) + m.apply_n(chr(m.start), n)
    if len(cat) > len(prefix):
        raise ContractError("prefix too short for the identity check")
    return prefix.startswith(cat)


def periodic_candidates_reference(prefix: str, max_period: int):
    """(preperiod, period) pairs, smallest q first, by walking each q's
    periodic tail back from the end one letter at a time."""
    n = len(prefix)
    for q in range(1, max_period + 1):
        j = n - q
        while j > 0 and prefix[j - 1] == prefix[j - 1 + q]:
            j -= 1
        if j + 2 * q <= n:
            yield prefix[:j], prefix[j : j + q]


def window_reference(word: str, letter: int, window: int) -> bool:
    """Does every length-``window`` slice of ``word`` hold the letter?"""
    return all(chr(letter) in word[i : i + window] for i in range(len(word) - window + 1))


def lie_reference(m: Morphism, f: FactorSet, max_len: int) -> dict:
    """The full bracket loop: split every factor of length 2..max_len."""
    failures = []
    for n in range(2, max_len + 1):
        for w in f.of_length(n):
            try:
                lie_decomposition(f, w)
            except NoSplitError:
                failures.append(m.decode(w))
    return {"pass": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# gallery fixtures


def _gallery(name: str) -> Morphism:
    return parse_morphism(gallery_text(name), filename=f"gallery/{name}.morph")


@pytest.fixture(scope="session")
def paper12() -> Morphism:
    return _gallery("paper12")


@pytest.fixture(scope="session")
def fibonacci() -> Morphism:
    return _gallery("fibonacci")


@pytest.fixture(scope="session")
def thue_morse() -> Morphism:
    return _gallery("thue-morse")


@pytest.fixture(scope="session")
def periodic_ab() -> Morphism:
    return _gallery("periodic-ab")


@pytest.fixture(scope="session")
def ba_example() -> Morphism:
    return _gallery("ba-example")


_closure_cache: dict[tuple[str, int], FactorSet] = {}


@pytest.fixture(scope="session")
def closure():
    """Session-cached factor closures keyed by gallery name and bound."""

    def get(name: str, max_len: int) -> FactorSet:
        key = (name, max_len)
        if key not in _closure_cache:
            _closure_cache[key] = factor_closure(_gallery(name), max_len)
        return _closure_cache[key]

    return get


# ---------------------------------------------------------------------------
# strategies


@st.composite
def small_morphisms(
    draw,
    max_letters: int = 4,
    max_image: int = 3,
    allow_erasing: bool = False,
    graded: bool = False,
):
    """Random morphisms prolongable on their start letter."""
    n = draw(st.integers(min_value=1, max_value=max_letters))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    letters = tuple(f"a{i}" for i in range(n))
    low = 0 if allow_erasing else 1
    images = []
    for i in range(n):
        if i == start:
            tail_len = draw(st.integers(min_value=1, max_value=max_image - 1))
            tail = "".join(
                chr(draw(st.integers(0, n - 1))) for _ in range(tail_len)
            )
            images.append(chr(start) + tail)
        else:
            ln = draw(st.integers(min_value=low, max_value=max_image))
            images.append("".join(chr(draw(st.integers(0, n - 1))) for _ in range(ln)))
    degrees = (
        tuple(draw(st.integers(1, 3)) for _ in range(n)) if graded else None
    )
    m = Morphism(
        letters=letters, images=tuple(images), start=start, degrees=degrees
    )
    assume(is_prolongable(m, start))
    return m
