"""Shared fixtures, independent oracles, and hypothesis strategies."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from iteralg.cli import gallery_text
from iteralg.deciders import DeciderOutputs, PropertyReport, Verdict
from iteralg.errors import ContractError, InvariantError, NoSplitError
from iteralg.graded import (
    ChainWitness,
    PositionDegreeSet,
    RotationAudit,
    lie_decomposition,
    max_homogeneous_chain,
    s_set,
)
from iteralg.matrices import (
    WEIGHT_EXPANSION_BUDGET_LETTERS,
    CharPoly,
    IncidenceMatrix,
    LinearRecurrence,
    WeightSequences,
)
from iteralg.words import (
    FactorSet,
    Morphism,
    WordPrefix,
    _delete_mortal,
    factor_closure,
    fixed_point_prefix,
    is_prolongable,
    parse_morphism,
)


# ---------------------------------------------------------------------------
# oracles: deliberately naive, sharing no code with the library paths they check


def apply_n(m: Morphism, word: str, n: int) -> str:
    """phi^n(word) by n translate passes."""
    for _ in range(n):
        word = m.apply(word)
    return word


def degree_of(m: Morphism, word: str) -> int:
    return sum(m.degrees[ord(ch)] for ch in word)


def graded_dimension_reference(f: FactorSet, degrees: tuple[int, ...], d: int) -> int:
    """The number of factors of degree d, rescanning F_1..F_d for this d alone."""
    if d == 0:
        return 1
    table = ["." * g for g in degrees]
    return sum(len(w.translate(table)) == d for n in range(1, d + 1) for w in f.of_length(n))


def max_image_len(m: Morphism) -> int:
    return max((len(i) for i in m.images), default=0)


def sorted_factors(f: FactorSet) -> list[str]:
    """Every factor, shortest first, each length in canonical order."""
    return [w for n in range(f.max_len + 1) for w in f.of_length(n)]


def all_factors(f: FactorSet) -> frozenset[str]:
    """Every factor of length <= ``f.max_len`` as one set: the union of the
    layers ``f.of_length(n)``."""
    return frozenset().union(*map(f.of_length, range(f.max_len + 1)))


def holds_at(rec: LinearRecurrence, seq, n: int) -> bool:
    """Does seq[n] follow from the rec.order terms before it?"""
    return seq[n] == sum(c * seq[n - k] for k, c in enumerate(rec.coeffs, start=1))


def parikh(m: Morphism, u: str) -> tuple[int, ...]:
    for ch in u:
        if ord(ch) >= m.size:
            raise ContractError(f"letter id {ord(ch)} outside the alphabet")
    return tuple(u.count(chr(i)) for i in range(m.size))


def extend_recurrence(rec: LinearRecurrence, count: int) -> list[int]:
    """The first ``count`` terms of rec's sequence, from its initial terms on."""
    seq = list(rec.initial[:count])
    while len(seq) < count:
        seq.append(sum(c * seq[-k] for k, c in enumerate(rec.coeffs, start=1)))
    return seq


# dense matrix products of Python ints, and the characteristic polynomial by
# Faddeev-LeVerrier over them: O(n^4), for checking char_poly


def identity(n: int) -> IncidenceMatrix:
    return IncidenceMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def transpose(M: IncidenceMatrix) -> IncidenceMatrix:
    return IncidenceMatrix(tuple(zip(*M.rows)))


def matmul(A: IncidenceMatrix, B: IncidenceMatrix) -> IncidenceMatrix:
    cols = list(zip(*B.rows))
    return IncidenceMatrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A.rows)
    )


def matvec(M: IncidenceMatrix, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M.rows)


def is_zero(M: IncidenceMatrix) -> bool:
    return all(e == 0 for row in M.rows for e in row)


def plus_scalar(M: IncidenceMatrix, c: int) -> IncidenceMatrix:
    """M + cI."""
    return IncidenceMatrix(
        tuple(tuple(e + c * (i == j) for j, e in enumerate(row)) for i, row in enumerate(M.rows))
    )


def evaluate_matrix(p: CharPoly, M: IncidenceMatrix) -> IncidenceMatrix:
    """p(M) by Horner's rule over dense products."""
    acc = IncidenceMatrix(tuple((0,) * M.size for _ in range(M.size)))
    for c in reversed(p.coeffs):
        acc = plus_scalar(matmul(acc, M), c)
    return acc


def faddeev_leverrier(M: IncidenceMatrix) -> CharPoly:
    """det(xI - M) by the Faddeev-LeVerrier scheme; every division is exact."""
    n = M.size
    coeffs = [0] * n + [1]
    B = identity(n)
    for k in range(1, n + 1):
        AB = matmul(M, B)
        t = AB.trace()
        assert t % k == 0, "Faddeev-LeVerrier trace division is not exact"
        coeffs[n - k] = -(t // k)
        B = plus_scalar(AB, coeffs[n - k])
    return CharPoly(tuple(coeffs))


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


def proven_factors(m: Morphism, prefix: str, max_len: int) -> set[str]:
    """Factors of x = phi(x) of length <= max_len, proved with no length cap:
    the windows of the generated ``prefix`` closed under taking the windows
    of phi^h(v), where phi^h erases every mortal letter.

    Sound, since phi^h(v) is a factor of phi^h(x) = x whenever v is a factor.
    Complete: a factor w lies in phi^h(v) for a factor v that ends earlier in
    x (|phi^h(x[:t])| > t, as x is infinite), starts and ends with an immortal
    letter and has at most as many immortal letters as w has letters; in an
    erasing draw v can be longer than w.  So the closure keeps every window
    of length <= max_len, and every window with at most max_len immortal
    letters that starts and ends with one.
    """
    mortal: set[int] = set()
    while mortal != (
        grown := {c for c in range(m.size) if all(ord(ch) in mortal for ch in m.images[c])}
    ):
        mortal = grown
    h = 1
    while any(apply_n(m, chr(c), h) for c in mortal):
        h += 1
    table = [apply_n(m, chr(c), h) for c in range(m.size)]
    immortal = [c not in mortal for c in range(m.size)]

    def windows(word: str) -> set[str]:
        n = len(word)
        out = {word[i:j] for i in range(n) for j in range(i + 1, min(i + max_len, n) + 1)}
        for i in range(n):
            count = 0
            for j in range(i, n):
                if immortal[ord(word[j])]:
                    count += 1
                    if count > max_len or not immortal[ord(word[i])]:
                        break
                    out.add(word[i : j + 1])
        return out

    known = frontier = windows(prefix)
    while frontier := set().union(*(windows(v.translate(table)) for v in frontier)) - known:
        known |= frontier
    return {w for w in known if len(w) <= max_len} | {""}


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
    psi, layers = _delete_mortal(m)
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


def right_special_excess(f: FactorSet, n: int) -> Counter[str]:
    """Each right special factor w of length n < L, counted d+(w) - 1 times,
    where d+(w) is the number of letters a with wa a factor: F_{n+1} grouped
    by its n-prefixes."""
    extensions = Counter(w[:n] for w in f.of_length(n + 1))
    return Counter({w: d - 1 for w, d in extensions.items() if d > 1})


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


def first_pieces_reference(s: PositionDegreeSet, w: ChainWitness, count: int) -> tuple[str, ...]:
    """The first ``count`` pieces of the witness over the set's word, cut by
    bisecting the accumulated degree sums for the next multiple of d."""
    word = s.word
    sums = degree_sums_reference(s.degrees, word)
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


def support_reach(m: Morphism, letters: frozenset[int]) -> dict[int, set[int]]:
    """>= 1 step reachability in the digraph a -> letters of phi(a), within ``letters``,
    by a set fixpoint over all pairs."""
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


def mortal_reference(m: Morphism) -> frozenset[int]:
    """Letters that map to the empty word after finitely many iterations, by a fixpoint."""
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


def mortal_layers_reference(m: Morphism) -> int:
    """The least k with phi^k empty on every mortal letter: phi^r kills the
    letters whose image letters phi^(r-1) kills."""
    mortal = mortal_reference(m)
    layers, dead = 0, set()
    while len(dead) < len(mortal):
        dead |= {c for c in mortal if all(ord(ch) in dead for ch in m.images[c])}
        layers += 1
    return layers


def unreachable_reference(m: Morphism) -> tuple[int, int] | None:
    """The first (a, b) of occurring letters, in sorted order, with b not
    reachable from a in one or more steps, by a scan over all pairs."""
    order = sorted(occurring_reference(m))
    reach = support_reach(m, frozenset(range(m.size)))
    return next(((a, b) for a in order for b in order if b not in reach[a]), None)


def growing_reference(m: Morphism) -> frozenset[int]:
    """Letters a with |phi^n(a)| unbounded, decided on the immortal restriction psi.

    a grows iff some letter c with |psi(c)| >= 2 is reachable from a cycle
    that a reaches, with reachability taken within the immortal letters.
    """
    mortal = mortal_reference(m)
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


def pushy_reference(m: Morphism) -> bool:
    """Whether some occurring growing c and some p <= |A| make phi^p(c), by
    literal expansion, begin with a nonempty bounded word holding an immortal
    letter followed by c, or end with c followed by such a word."""
    mortal = mortal_reference(m)
    grow = growing_reference(m) & occurring_reference(m)
    for c in grow:
        for p in range(1, m.size + 1):
            word = naive_power(m, p, c)
            for side in (word, word[::-1]):
                i = next(i for i, x in enumerate(side) if x in grow)
                if side[i] == c and any(x not in mortal for x in side[:i]):
                    return True
    return False


def level_prefix(m: Morphism, k: int) -> WordPrefix:
    """The fixed-point prefix that ends exactly at phi^k(start)."""
    return fixed_point_prefix(m, len(naive_power(m, k)))


# the factor bound of the closures the chain tests check their witnesses against
CHAIN_CHECK_LEN = 8


def scan_witnesses(m: Morphism, prefix: WordPrefix, d_max: int) -> list[ChainWitness]:
    """Each degree's chain witness over ``prefix`` with its previous
    generation's length, as analyze passes them to the nilpotency scan."""
    s = s_set(m, prefix)
    f = factor_closure(m, CHAIN_CHECK_LEN)
    return [max_homogeneous_chain(s, f, d, previous=True) for d in range(1, d_max + 1)]


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
        if degree_of(m, word) != direct[n]:
            raise InvariantError(f"weight mismatch at n={n}")
        checked = n
        word = m.apply(word)
    return WeightSequences(direct, weights([list(c) for c in zip(*rows)]), checked)


def prefix_identity_reference(m: Morphism, n: int, prefix: str) -> bool:
    """Does phi^{n+1}(start) phi^n(start), each expanded from the start letter,
    begin ``prefix``?  ContractError when ``prefix`` is shorter than that word."""
    cat = apply_n(m, chr(m.start), n + 1) + apply_n(m, chr(m.start), n)
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


def periodic_fixed_point_reference(m: Morphism, preperiod: str, period: str) -> int | None:
    """The length over which u v^omega, u = preperiod and v = period, was
    found equal to phi(u) phi(v)^omega, or None when v or phi(v) is empty,
    u v does not start with the start letter, or the two differ there.
    Two eventually periodic words that agree over max(|u|, |phi(u)|) +
    lcm(|v|, |phi(v)|) + |v| letters are equal."""
    img_pre, img_per = m.apply(preperiod), m.apply(period)
    if not period or not img_per or ord((preperiod + period)[0]) != m.start:
        return None
    need = max(len(preperiod), len(img_pre)) + math.lcm(len(period), len(img_per)) + len(period)

    def stream(u: str, v: str) -> str:
        while len(u) < need:
            u += v
        return u[:need]

    return need if stream(preperiod, period) == stream(img_pre, img_per) else None


def periodicity_ladder_reference(m: Morphism, f: FactorSet) -> Verdict:
    """Eventual periodicity as the retry ladder read it, fired by the first
    flat step p(k+1) = p(k), k < L: candidates walked off a 4^8-letter
    prefix, then off prefixes 4 and 16 times as long, the first one
    ``periodic_fixed_point_reference`` accepts taken as the period.
    ``mh_length`` is the least n >= 1 with p(min(n, k)) <= n."""
    bound = f.max_len
    flat = [k for k in range(bound) if f.counts[k + 1] == f.counts[k]]
    if not flat:
        return Verdict.no(
            {"witness": "complexity-exceeds-n", "checked_up_to": bound},
            conditional=True,
            bound=bound,
        )
    mh_length = next(n for n in count(1) if f.counts[min(n, flat[0])] <= n)
    for scale in (1, 4, 16):
        prefix = fixed_point_prefix(m, scale * 4**8).word
        for pre, per in periodic_candidates_reference(prefix, mh_length):
            verified = periodic_fixed_point_reference(m, pre, per)
            if verified is not None:
                certificate = {
                    "preperiod": m.decode(pre),
                    "period": m.decode(per),
                    "mh_length": mh_length,
                    "verified_letters": verified,
                }
                return Verdict.yes(certificate, bound=bound)
    raise InvariantError("no verified period on the longest prefix of the ladder")


def block_cover_reference(m: Morphism, occurring, k_max: int) -> tuple[int, int] | None:
    """(k, max_block) for the least k <= k_max at which phi^k(a) begins with the
    start letter for every occurring a, by building each phi^k(a) as a word."""
    images_k = {a: chr(a) for a in sorted(occurring)}
    for k in range(1, k_max + 1):
        images_k = {a: m.apply(img) for a, img in images_k.items()}
        if all(img and ord(img[0]) == m.start for img in images_k.values()):
            return k, max(len(img) for img in images_k.values())
    return None


def window_reference(word: str, letter: int, window: int) -> bool:
    """Does every length-``window`` slice of ``word`` hold the letter?"""
    return all(chr(letter) in word[i : i + window] for i in range(len(word) - window + 1))


def reference_rotation_audit(f: FactorSet, max_len: int) -> RotationAudit:
    """cyclic_rotation_audit word by word: each factor of length 2..max_len
    tries its cuts in order up to the first absent rotation, and fails when
    it has none or when a part at that cut failed."""
    per_length = []
    counterexample = None
    failed: dict[str, None] = {}
    for n in range(2, max_len + 1):
        words = f.of_length(n)
        present = frozenset(words)
        for w in words:
            for cut in range(1, n):
                if w[cut:] + w[:cut] not in present:
                    fails = w[:cut] in failed or w[cut:] in failed
                    break
            else:
                fails = True
                if counterexample is None:
                    counterexample = w
            if fails:
                failed[w] = None
        if counterexample is None:
            per_length.append((n, len(words)))
    return RotationAudit(
        max_len=max_len,
        per_length=tuple(per_length),
        passed=counterexample is None,
        counterexample=counterexample,
        lie_failures=tuple(failed),
    )


def girth_reference(edges, cap: int) -> int:
    """The shortest closed walk of the Rauzy graph with these edges, each
    word e going from e[:-1] to e[1:], by a breadth-first search from every
    vertex; ``cap`` when none is shorter."""
    succ: dict[str, set[str]] = {}
    for e in edges:
        succ.setdefault(e[:-1], set()).add(e[1:])
    best = cap
    for source in succ:
        seen, frontier, steps = {source}, [source], 0
        while frontier and steps + 1 < best:
            steps += 1
            reached = {w for v in frontier for w in succ.get(v, ())}
            if source in reached:
                best = steps
                break
            frontier = [w for w in reached if w not in seen]
            seen.update(frontier)
    return best


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


def ring_property_reference(deps: DeciderOutputs) -> PropertyReport:
    """The ring dictionary as an if/elif chain, one branch per rule."""

    def weakest(*verdicts: Verdict) -> bool:
        return any(v.conditional for v in verdicts)

    def via(v: Verdict, rule: str) -> Verdict:
        return Verdict(v.value, v.conditional, {**v.certificate, "via": rule}, v.bound)

    prime = deps.prime
    ep = deps.eventually_periodic
    ur = deps.uniformly_recurrent
    semiprime = via(prime, "semiprime-iff-prime")
    just_infinite = via(ur, "just-infinite-iff-uniformly-recurrent")
    pi = via(ep, "pi-iff-eventually-periodic")
    noetherian = via(ep, "noetherian-iff-eventually-periodic")

    if ur.is_yes and ep.is_no:
        jacobson = Verdict.yes(
            {"witness": "uniformly-recurrent-and-aperiodic"},
            conditional=weakest(ur, ep),
        )
    else:
        jacobson = Verdict.unknown(note="implication applies only to uniformly recurrent aperiodic words")

    if prime.is_no:
        primitive_algebra = Verdict.no(
            {"witness": "not-prime", "via": "primitive-implies-prime"}
        )
    elif prime.is_yes and pi.is_no and jacobson.is_yes:
        primitive_algebra = Verdict.yes(
            {"witness": "prime-non-pi-semiprimitive"},
            conditional=weakest(prime, pi, jacobson),
        )
    else:
        primitive_algebra = Verdict.unknown(note="needs prime, non-PI and trivial radical")

    return PropertyReport(
        prime=prime,
        semiprime=semiprime,
        just_infinite=just_infinite,
        pi=pi,
        noetherian=noetherian,
        jacobson_trivial=jacobson,
        primitive_algebra=primitive_algebra,
        gk_dimension=deps.complexity.gk_dimension,
        complexity_class=deps.complexity.complexity_class,
    )


# ---------------------------------------------------------------------------
# elements of the monomial algebra: sparse rational combinations of factor
# words, multiplied by concatenation, a concatenation outside F being zero


@dataclass(frozen=True)
class MonomialElement:
    """Formal rational combination of factor words; zero is the empty map."""

    terms: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {w: Fraction(c) for w, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero() -> "MonomialElement":
        return MonomialElement({})

    @staticmethod
    def unit() -> "MonomialElement":
        return MonomialElement({"": Fraction(1)})

    @staticmethod
    def word(w: str, coeff: Fraction | int = 1) -> "MonomialElement":
        return MonomialElement({w: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MonomialElement") -> "MonomialElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return MonomialElement(out)

    def __sub__(self, other: "MonomialElement") -> "MonomialElement":
        return self + other.scale(-1)

    def scale(self, k: Fraction | int) -> "MonomialElement":
        k = Fraction(k)
        return MonomialElement({w: c * k for w, c in self.terms.items()})


def multiply(f: FactorSet, x: MonomialElement, y: MonomialElement) -> MonomialElement:
    """Bilinear product; a concatenation outside the factor set is zero.

    Concatenations longer than the computed bound are a contract error: the
    caller must enlarge the factor set first.
    """
    known = all_factors(f)
    for e in (x, y):
        for w in e.terms:
            if len(w) > f.max_len:
                raise ContractError("support word exceeds the factor bound")
            if w not in known:
                raise ContractError("support word is not a known factor")
    out: dict[str, Fraction] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            w = u + v
            if len(w) > f.max_len:
                raise ContractError(
                    f"product of length {len(w)} exceeds the factor bound "
                    f"{f.max_len}; enlarge the factor set"
                )
            if w in known:
                out[w] = out.get(w, Fraction(0)) + cu * cv
    return MonomialElement(out)


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
    min_image: int = 1,
):
    """Random morphisms prolongable on their start letter, every image of
    ``min_image`` to ``max_image`` letters (0 to ``max_image`` when erasing)."""
    n = draw(st.integers(min_value=1, max_value=max_letters))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    letters = tuple(f"a{i}" for i in range(n))
    low = 0 if allow_erasing else min_image
    images = []
    for i in range(n):
        if i == start:
            tail_len = draw(st.integers(min_value=max(1, low - 1), max_value=max_image - 1))
            tail = "".join(
                chr(draw(st.integers(0, n - 1))) for _ in range(tail_len)
            )
            images.append(chr(start) + tail)
        else:
            ln = draw(st.integers(min_value=low, max_value=max_image))
            images.append("".join(chr(draw(st.integers(0, n - 1))) for _ in range(ln)))
    degrees = tuple(draw(st.integers(1, 3)) for _ in range(n)) if graded else ()
    m = Morphism(
        letters=letters, images=tuple(images), start=start, degrees=degrees
    )
    assume(is_prolongable(m, start))
    return m
