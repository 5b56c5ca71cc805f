import itertools
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import iteralg
from iteralg import cli, deciders, matrices, report, words
from iteralg.config import AnalysisConfig
from iteralg.errors import (
    ContractError,
    MorphismParseError,
    NotProlongableError,
    ResourceBudgetError,
)
from iteralg.words import (
    COUNT_PASS_MAX_LETTERS,
    Morphism,
    PowerTables,
    classify_shape,
    factor_closure,
    fixed_point_prefix,
    is_factor,
    is_prolongable,
    letter_counts,
    mortal_letters,
    parse_morphism,
    subword_complexity,
)

from conftest import (
    all_factors,
    apply_n,
    brute_factor_set,
    growing_reference,
    max_image_len,
    mortal_layers_reference,
    mortal_reference,
    naive_image,
    naive_power,
    pushy_reference,
    occurring_reference,
    prefix_reference,
    proven_factors,
    reference_closure,
    right_special_excess,
    small_morphisms,
    support_reach,
    unreachable_reference,
    wide_morphism,
)


def mk(letters, images, start, degrees=()):
    idx = {n: i for i, n in enumerate(letters)}
    enc = tuple("".join(chr(idx[t]) for t in img.split()) for img in images)
    return Morphism(tuple(letters), enc, idx[start], degrees)


# ---------------------------------------------------------------------------
# parsing


def test_parse_fibonacci(fibonacci):
    assert fibonacci.letters == ("a", "b")
    assert fibonacci.decode(fibonacci.images[0]) == "a b"
    assert fibonacci.decode(fibonacci.images[1]) == "a"
    assert fibonacci.start == 0
    assert fibonacci.degrees == (1, 1)
    assert not fibonacci.explicit_grading


def test_decode_joins_multi_character_names():
    m = mk(["x10", "y", "zz"], ["x10 y", "zz", "x10"], "x10")
    assert m.decode(m.encode("x10 zz y zz x10")) == "x10 zz y zz x10"
    assert m.decode(chr(2)) == "zz"
    assert m.decode("") == ""


def test_parse_identity_start_rejected():
    with pytest.raises(MorphismParseError, match="empty"):
        parse_morphism("letters: a\nstart: a\nmap a -> a\n")


def test_parse_paper12(paper12):
    assert paper12.size == 12
    assert classify_shape(paper12).d_uniform == 4
    assert paper12.degrees[0] == 1 and set(paper12.degrees[1:]) == {2}
    assert paper12.explicit_grading


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("letters: a b\nstart: a\nmap a -> a c\nmap b -> a\n", "undeclared"),
        ("letters: a\nmap a -> a a\n", "missing 'start:'"),
        ("letters: a a\nstart: a\nmap a -> a a\n", "duplicate letter"),
        (
            "letters: a\nstart: a\nmap a -> a a\ndegree a = 0\n",
            "non-positive degree",
        ),
        ("letters: a b\nstart: b\nmap a -> a b\nmap b -> a\n", "not prolongable"),
        ("letters: a\nstart: a\nmap a -> a a\nmap a -> a\n", "duplicate map"),
        ("letters: a b\nstart: a\nmap a -> a b\n", "missing map"),
        ("start: a\nletters: a\nmap a -> a a\n", "must come before"),
        ("letters: a\nstart: a\nmap a -> a a\nbogus line\n", "unrecognized"),
        ("# a comment only\n", "line 1: missing 'letters:' line"),
        ("letters: a\nletters: a\n", "line 2: duplicate 'letters:' line"),
        ("letters:\n", "line 1: empty alphabet"),
        ("letters: a\nstart: a\nstart: a\nmap a -> a a\n", "line 3: duplicate 'start:' line"),
        ("letters: a b\nstart: a b\n", "line 2: 'start:' takes exactly one letter"),
        ("letters: a\nstart: b\nmap a -> a a\n", "line 2: start letter 'b' not declared"),
        ("map a -> a a\nletters: a\n", "line 1: 'letters:' must come before 'map'"),
        ("letters: a\nstart: a\nmap a a a\n", "line 3: map line needs '->'"),
        ("letters: a b\nstart: a\nmap a b -> a\n", "line 3: map line needs exactly one source letter"),
        ("letters: a\nstart: a\nmap c -> a\n", "line 3: map for undeclared letter 'c'"),
        ("degree a = 1\nletters: a\n", "line 1: 'letters:' must come before 'degree'"),
        ("letters: a\nstart: a\nmap a -> a a\ndegree a 2\n", "line 4: degree line needs '='"),
        (
            "letters: a\nstart: a\nmap a -> a a\ndegree a = x\n",
            "line 4: degree value 'x' is not an integer",
        ),
        (
            "letters: a\nstart: a\nmap a -> a a\ndegree default = 2\ndegree default = 3\n",
            "line 5: duplicate 'degree default' line",
        ),
        (
            "letters: a\nstart: a\nmap a -> a a\ndegree q = 2\n",
            "line 4: degree for undeclared letter 'q'",
        ),
        (
            "letters: a\nstart: a\nmap a -> a a\ndegree a = 2\ndegree a = 3\n",
            "line 5: duplicate degree for letter 'a'",
        ),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(MorphismParseError, match=fragment):
        parse_morphism(source)


def test_parse_error_carries_line_number():
    with pytest.raises(MorphismParseError) as exc:
        parse_morphism("letters: a b\nstart: a\nmap a -> a b\nmap b -> q\n")
    assert exc.value.line == 4


def test_parse_comments_and_empty_image():
    m = parse_morphism(
        "# erasing example\nletters: a b c  # trailing comment\nstart: a\n"
        "map a -> a b\nmap b -> b c\nmap c ->\n"
    )
    assert m.images[2] == ""


def test_default_grading_is_degree_one():
    m = parse_morphism("letters: a b\nstart: a\nmap a -> a b\nmap b -> a\n")
    assert m.degrees == (1, 1)


# ---------------------------------------------------------------------------
# mortal letters / prolongability


def test_mortal_letters_fibonacci(fibonacci):
    assert mortal_letters(fibonacci) == frozenset()


def test_mortal_letters_direct():
    m = mk(["a", "b"], ["a b", ""], "a")
    assert mortal_letters(m) == {1}


def test_mortal_letters_two_rounds():
    m = mk(["a", "b", "c"], ["a b", "c", ""], "a")
    assert mortal_letters(m) == {1, 2}


def test_prolongable_fibonacci(fibonacci):
    assert is_prolongable(fibonacci, 0)
    assert not is_prolongable(fibonacci, 1)


def test_prolongable_mortal_tail():
    m = mk(["a", "b"], ["a b", ""], "a")
    assert not is_prolongable(m, 0)


# ---------------------------------------------------------------------------
# fixed point prefixes


def test_prefix_fibonacci(fibonacci):
    got = fixed_point_prefix(fibonacci, 8)
    assert fibonacci.decode(got.word[:8]) == "a b a a b a b a"


def test_prefix_paper12(paper12):
    got = fixed_point_prefix(paper12, 8)
    assert paper12.decode(got.word[:8]) == "x1 x2 y1 y2 x1 x3 y1 y3"


def test_prefix_single_letter(periodic_ab):
    got = fixed_point_prefix(periodic_ab, 1)
    assert got.word[0] == chr(periodic_ab.start)


def test_prefix_gen_lengths(paper12):
    got = fixed_point_prefix(paper12, 300)
    assert got.gen_lengths[:5] == (1, 4, 16, 64, 256)
    assert got.generation_level == len(got.gen_lengths) - 1


def test_prefix_extension_is_stable(fibonacci):
    short = fixed_point_prefix(fibonacci, 30).word
    long = fixed_point_prefix(fibonacci, 3000).word
    assert long.startswith(short)


def test_prefix_budget_error(paper12):
    with pytest.raises(ResourceBudgetError):
        fixed_point_prefix(paper12, 10_000, memory_budget_bytes=100)


@pytest.mark.parametrize("n", [256, 300])
@pytest.mark.parametrize("size", [12, 300])
def test_prefix_budget_boundary(paper12, size, n):
    # both copies of the final prefix and each generation's bookkeeping must
    # fit: a request ending at a generation (256) fails on its own letters
    # below the letters' share, one inside a generation (300) on the generation
    m = paper12 if size == 12 else wide_morphism(size)
    prefix = fixed_point_prefix(m, n)
    final = len(prefix)
    letters = 2 * sys.getsizeof(chr(size - 1) * final)
    boundary = letters + len(prefix.gen_lengths) * words._GENERATION_BYTES
    for budget in (boundary, boundary + 1):
        assert fixed_point_prefix(m, n, memory_budget_bytes=budget).gen_lengths[-1] == final
    message = (
        f"prefix of {n} letters exceeds" if n == final else "prefix generation exceeds"
    )
    for budget, expected in ((boundary - 1, "prefix generation exceeds"), (letters - 1, message)):
        with pytest.raises(ResourceBudgetError) as raised:
            fixed_point_prefix(m, n, memory_budget_bytes=budget)
        assert str(raised.value) == f"{expected} the {budget}-byte budget"


def test_prefix_budget_counts_each_generation():
    # one letter per generation: the bookkeeping, not the letters, fills 2 MiB
    m = mk(["a", "c"], ["a c", "c"], "a")
    with pytest.raises(ResourceBudgetError, match="prefix generation exceeds"):
        fixed_point_prefix(m, 4**9, memory_budget_bytes=2 * 2**20)


def test_prefix_budget_is_checked_before_a_generation_is_built():
    # a -> a^21: 21^4 + 1 letters fit in 1 MiB but need generation 5, whose
    # 21^5 letters do not; the error comes before that generation is built
    m = mk(["a"], [" ".join("a" * 21)], "a")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="prefix generation exceeds"):
            fixed_point_prefix(m, 21**4 + 1, memory_budget_bytes=2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_prefix_requires_prolongable():
    m = mk(["a", "b"], ["b a", "b"], "a")
    with pytest.raises(NotProlongableError):
        fixed_point_prefix(m, 10)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(), st.integers(min_value=0, max_value=5))
def test_prefix_matches_naive_substitution(m, n):
    oracle = naive_power(m, n)
    got = fixed_point_prefix(m, len(oracle))
    assert [ord(c) for c in got.word[: len(oracle)]] == oracle


# ---------------------------------------------------------------------------
# power tables


# erasing, bounded growth (every chunk is "c"), linear growth, a 100-letter
# alphabet, and a letter z that never occurs but grows eight times faster
EXPANSION_CASES = {
    "erasing": mk(["a", "b", "c"], ["a b c", "", "c a"], "a", degrees=(1, 2, 3)),
    "bounded": mk(["a", "c"], ["a c", "c"], "a", degrees=(2, 1)),
    "linear": mk(["a", "b", "c"], ["a b", "b c", "c"], "a", degrees=(1, 2, 3)),
    "wide": wide_morphism(100),
    "unused": mk(["a", "b", "z"], ["a b", "b a", " ".join("z" * 8)], "a", degrees=(1, 2, 3)),
}


@pytest.mark.parametrize("n", [1, 100, 4**6 + 3])
@pytest.mark.parametrize("name", sorted(EXPANSION_CASES))
def test_prefix_matches_direct_translation(name, n):
    m = EXPANSION_CASES[name]
    assert fixed_point_prefix(m, n) == prefix_reference(m, n)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(1, 3000))
def test_prefix_matches_direct_translation_on_random_morphisms(m, n):
    assert fixed_point_prefix(m, n) == prefix_reference(m, n)


@st.composite
def bounded_chunk_morphisms(draw):
    """Morphisms on a0..a{n-1} with start a0 whose tail letters never grow,
    erasing letters allowed, so the chunks phi^k(t) cycle."""
    n = draw(st.integers(2, 5))
    others = st.integers(1, n - 1)
    tail = "".join(chr(draw(others)) for _ in range(draw(st.integers(1, 3))))
    images = [chr(0) + tail]
    for _ in range(1, n):
        images.append("".join(chr(draw(others)) for _ in range(draw(st.integers(0, 2)))))
    m = Morphism(tuple(f"a{i}" for i in range(n)), tuple(images), 0)
    assume(is_prolongable(m, 0))
    assume(not any(classify_shape(m).growing[ord(c)] for c in tail))
    return m


@settings(max_examples=100, deadline=None)
@given(bounded_chunk_morphisms(), st.integers(1, 400))
def test_cycling_chunks_match_the_literal_loop(m, n):
    # n lands anywhere in a cycle of chunks; the budget fails at the same
    # held size as the chunk-by-chunk loop's
    want = prefix_reference(m, n)
    assert fixed_point_prefix(m, n) == want
    held = 2 * words._word_bytes(m, len(want.word))
    held += len(want.gen_lengths) * words._GENERATION_BYTES
    assert fixed_point_prefix(m, n, memory_budget_bytes=held) == want
    if len(want.gen_lengths) > 2:  # the first generation is not a loop step
        with pytest.raises(ResourceBudgetError, match="prefix generation exceeds"):
            fixed_point_prefix(m, n, memory_budget_bytes=held - 1)


def prefix_or_budget_error(m, n, **kwargs):
    try:
        return fixed_point_prefix(m, n, **kwargs)
    except ResourceBudgetError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    small_morphisms(allow_erasing=True) | bounded_chunk_morphisms(),
    st.integers(0, 3000),
    st.integers(0, 3000),
)
def test_prefix_extends_a_held_prefix(m, k, n):
    # cut from the held prefix when it reaches n, extended past it otherwise;
    # either way the call without it, budget error included
    want = fixed_point_prefix(m, n)
    held = fixed_point_prefix(m, k)
    assert fixed_point_prefix(m, n, prefix=held) == want
    size = 2 * words._word_bytes(m, len(want.word))
    size += len(want.gen_lengths) * words._GENERATION_BYTES
    under = prefix_or_budget_error(m, n, memory_budget_bytes=size - 1)
    assert isinstance(under, str) or len(want.gen_lengths) == 2
    assert prefix_or_budget_error(m, n, memory_budget_bytes=size - 1, prefix=held) == under


@settings(max_examples=80, deadline=None)
@given(small_morphisms(allow_erasing=True), st.data())
def test_power_tables_match_substitution(m, data):
    letters = st.sampled_from([chr(i) for i in range(m.size)])
    word = data.draw(st.text(alphabet=letters, max_size=6))
    sigma = data.draw(
        st.none() | st.lists(st.text(alphabet="01", max_size=3), min_size=m.size, max_size=m.size)
    )
    tables = PowerTables(m, map(ord, word), sigma)
    for h in range(6):
        expected = naive_image(m, word, h)
        assert tables.apply(word, h) == (expected if sigma is None else expected.translate(sigma))


@settings(max_examples=80, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(1, 9), st.integers(0, 2))
def test_power_tables_pick_a_generation_that_expands_to_the_target(m, count, d):
    # w_0 = t, w_{j+1} = phi(w_j); sigma(phi^d(w_last)) read off w_i under T_h
    gens = [m.images[m.start][1:]]
    for _ in range(count - 1):
        gens.append(naive_image(m, gens[-1], 1))
    sigma = [str(len(img) % 2) for img in m.images]
    tables = PowerTables(m, map(ord, gens[0]), sigma)
    i, h = tables.pick([len(w) for w in gens], d)
    assert 0 <= i < count and h - d == count - 1 - i
    assert tables.apply(gens[i], h) == naive_image(m, gens[-1], d).translate(sigma)


def test_power_tables_skip_a_letter_that_never_occurs():
    m = EXPANSION_CASES["unused"]
    bare = mk(["a", "b"], ["a b", "b a"], "a")
    with_z, without_z = PowerTables(m, [1]), PowerTables(bare, [1])
    lengths = [2**k for k in range(12)]
    assert with_z.pick(lengths, 1) == without_z.pick(lengths, 1)
    i, h = with_z.pick(lengths, 1)
    assert h > 1
    assert with_z.size(h) == without_z.size(h) == 2 * 2**h
    assert with_z.table(h)[2] == ""


# ---------------------------------------------------------------------------
# occurring letters


def test_occurring_paper12(paper12):
    assert classify_shape(paper12).occurring == frozenset(range(12))


def test_occurring_fibonacci(fibonacci):
    assert classify_shape(fibonacci).occurring == {0, 1}


def test_occurring_one_round():
    m = mk(["a", "b"], ["a b", "b"], "a")
    assert classify_shape(m).occurring == {0, 1}


# ---------------------------------------------------------------------------
# factor sets


def test_factors_fibonacci_len2(fibonacci):
    f = factor_closure(fibonacci, 2)
    assert f.exact
    assert all_factors(f) == {
        "",
        chr(0),
        chr(1),
        chr(0) + chr(1),
        chr(1) + chr(0),
        chr(0) + chr(0),
    }


def test_factors_paper12_len2(paper12, closure):
    f = closure("paper12", 2)
    assert is_factor(f, paper12.encode("x1 x2"))
    assert is_factor(f, paper12.encode("y2 y3"))
    assert not is_factor(f, paper12.encode("x2 x1"))


def test_factors_len0(fibonacci):
    f = factor_closure(fibonacci, 0)
    assert all_factors(f) == {""} and f.exact


def test_is_factor_examples(paper12, closure):
    f = closure("paper12", 12)
    assert is_factor(f, paper12.encode("x1 x2 y1 y2"))
    assert not is_factor(f, paper12.encode("x2 x1"))
    assert is_factor(f, "")
    with pytest.raises(ContractError):
        is_factor(f, chr(0) * 13)


def test_erasing_morphism_closure_is_exact():
    # the fixed point is a b (c b)^omega, so a 500-letter prefix shows every factor
    m = parse_morphism(
        "letters: a b c\nstart: a\nmap a -> a b\nmap b -> c b\nmap c ->\n"
    )
    f = factor_closure(m, 4)
    assert f.exact
    prefix = fixed_point_prefix(m, 500).word
    assert all_factors(f) == frozenset(brute_factor_set(prefix, 4))


ERASING_RUNS = "letters: a b c\nstart: a\nmap a -> a a a b\nmap b -> c b\nmap c ->\n"


def test_erasing_closure_reaches_deep_factors():
    # aaab (cb)^n first occurs roughly 4^n letters into the fixed point, past
    # any generated prefix for large n; it is a factor for every n
    m = parse_morphism(ERASING_RUNS)
    for max_len in (8, 17, 32):
        f = factor_closure(m, max_len)
        for n in range(max_len):
            word = m.encode("a a a b" + " c b" * n)
            assert (word in f) == (2 * n + 4 <= max_len), (max_len, n)


def test_erasing_closure_budget_error():
    m = parse_morphism(ERASING_RUNS)
    with pytest.raises(ResourceBudgetError):
        factor_closure(m, 32, memory_budget_bytes=2_000)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=0, max_value=6))
def test_reduced_generations_expand_to_fixed_point_prefixes(m, j):
    # phi^k(psi^j(b)) is a prefix of phi^(j+k)(b): the reduction loses no letter
    mortal = mortal_letters(m)
    psi, layers = words._delete_mortal(m)
    b = chr(m.start)
    assert not mortal_letters(psi)
    if not mortal:
        assert psi is m and layers == 0
        return
    delete = ["" if c in mortal else chr(c) for c in range(m.size)]
    assert apply_n(psi, b, j) == apply_n(m, b, j).translate(delete)
    assert apply_n(m, b, j + layers).startswith(apply_n(m, apply_n(psi, b, j), layers))
    assert all(not apply_n(m, chr(c), layers) for c in mortal)
    assert any(apply_n(m, chr(c), layers - 1) for c in mortal)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=1, max_value=8))
def test_erasing_closure_is_the_windows_of_expanded_reduced_factors(m, max_len):
    # F_L(x) is the set of length-L windows of phi^k(u) over u in F_L(y)
    psi, layers = words._delete_mortal(m)
    reduced = factor_closure(psi, max_len)
    expected = {
        w for u in reduced.of_length(max_len) for w in words._windows(apply_n(m, u, layers), max_len)
    }
    assert set(factor_closure(m, max_len).of_length(max_len)) == expected


def test_mortal_layers_counted_without_expanding_the_dying_letters():
    # d1 -> d2 d2 -> ... doubles 39 times before d40 -> empty kills it
    names = [f"d{i}" for i in range(1, 41)]
    images = ["a b d1", "b"] + [f"{d} {d}" for d in names[1:]] + [""]
    m = mk(["a", "b", *names], images, "a")
    _, layers = words._delete_mortal(m)
    assert layers == 40
    f = factor_closure(m, 8)
    assert m.encode("d40 " * 8) in f
    assert m.encode("b d1 b d2 d2 b d3 d3") in f


def test_erasing_closure_expands_growing_letters_within_bounds():
    # x = a (b^(2^(i-1)) d_i) for i = 1..30, then b forever: the runs of b
    # pass 2^30 letters, but only their first and last L - 1 letters matter
    names = [f"d{i}" for i in range(1, 31)]
    images = ["a b d1", "b b"] + names[1:] + [""]
    m = mk(["a", "b", *names], images, "a")
    max_len = 6
    runs = "".join("b " * min(2 ** (i - 1), max_len) + f"{d} " for i, d in enumerate(names, 1))
    reference = m.encode("a " + runs + "b " * max_len)
    f = factor_closure(m, max_len, memory_budget_bytes=1 << 20)
    assert set(f.of_length(max_len)) == words._windows(reference, max_len)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=1, max_value=8))
# a0^8 first occurs far past 2^20 letters: the longest a0-run grows by one
# letter every three generations
@example(mk(["a0", "a1", "a2", "a3"], ["a0", "a1 a2", "a1 a3 a0", "a1"], "a1"), 8)
def test_every_window_of_a_generated_prefix_is_a_factor(m, max_len):
    f = factor_closure(m, max_len)
    prefix = fixed_point_prefix(m, 2000).word
    oracle = brute_factor_set(prefix, max_len)
    factors = all_factors(f)
    assert oracle <= factors
    # soundness: a factor beyond the window still occurs, possibly much later
    unproven = factors - proven_factors(m, prefix, max_len)
    assert not unproven, f"factors not proved: {[[ord(c) for c in w] for w in unproven]}"


# closure_rounds as printed by analyze (word.factors.closure_rounds)
PINNED_ROUNDS = {
    "ba-example": {12: 4, 32: 6, 64: 7},
    "fibonacci": {12: 7, 32: 9, 64: 11, 128: 12},
    "paper12": {12: 7, 32: 7, 64: 8, 128: 8},
    "periodic-ab": {12: 4, 32: 6, 64: 7},
    "thue-morse": {12: 6, 32: 7, 64: 8},
}
GOLDEN_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "expected.json"


def test_closure_rounds_and_counts_pinned(closure):
    for name, by_len in PINNED_ROUNDS.items():
        for max_len, rounds in by_len.items():
            assert closure(name, max_len).closure_rounds == rounds, (name, max_len)
    golden = json.loads(GOLDEN_EXPECTED.read_text("utf-8"))["closure_counts"]
    for key, counts in golden.items():
        name, max_len = key.rsplit("-", 1)
        assert list(closure(name, int(max_len)).counts) == counts, key


def test_closure_holds_only_length_L_words(paper12):
    f = factor_closure(paper12, 128)
    assert set(vars(f)) == {"max_len", "words", "closure_rounds", "counts", "lcps"}
    assert all(len(w) == 128 for w in f.words)
    assert list(f.words) == sorted(set(f.words))
    assert len(f.words) == f.counts[128]


def test_an_empty_factor_set_is_rejected():
    with pytest.raises(ValueError, match="every length"):
        words.FactorSet(max_len=3, words=(), closure_rounds=0)


def test_fibonacci_complexity_at_256(closure):
    f = closure("fibonacci", 256)
    assert list(f.counts) == [n + 1 for n in range(257)]


def _thue_morse_complexity(n: int) -> int:
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1  # n = 2^r + q + 1 with 0 < q <= 2^r
    q = n - 1 - 2**r
    half = 2 ** (r - 1)
    return 6 * half + 4 * q if q <= half else 8 * half + 2 * q


def test_thue_morse_complexity_at_256(closure):
    f = closure("thue-morse", 256)
    assert list(f.counts) == [_thue_morse_complexity(n) for n in range(257)]


def test_closure_budget_error(paper12):
    with pytest.raises(ResourceBudgetError):
        factor_closure(paper12, 64, memory_budget_bytes=10_000)


def test_closure_budget_estimate_tracks_traced_peak(paper12):
    tracemalloc.start()
    try:
        factor_closure(paper12, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the estimate is within a factor of 2 of the peak: it fits twice the
    # peak and does not fit half of it
    factor_closure(paper12, 64, memory_budget_bytes=2 * peak)
    with pytest.raises(ResourceBudgetError):
        factor_closure(paper12, 64, memory_budget_bytes=peak // 2)


@pytest.mark.parametrize(
    ("m", "max_len"),
    [
        # B = L: fibonacci's b has a one-letter image, so its fixpoint keeps L
        pytest.param(parse_morphism(cli.gallery_text("fibonacci")), 128, id="fibonacci"),
        pytest.param(EXPANSION_CASES["erasing"], 64, id="erasing"),
        # letter ids past 255: CPython stores 4 bytes a letter
        pytest.param(wide_morphism(300), 16, id="wide"),
    ],
)
def test_closure_budget_estimate_tracks_traced_peak_on_other_paths(m, max_len):
    tracemalloc.start()
    try:
        factor_closure(m, max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factor_closure(m, max_len, memory_budget_bytes=2 * peak)
    with pytest.raises(ResourceBudgetError):
        factor_closure(m, max_len, memory_budget_bytes=peak // 2)


@settings(max_examples=150, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=1, max_value=40))
def test_closure_matches_the_all_windows_reference(m, max_len):
    # windows from the first letter's image, and all windows of a word whose
    # tail heads no known word, give every round the same frontier as all
    # windows; B = L, B < L and the erasing expansion all run here
    f = factor_closure(m, max_len)
    assert (f.words, f.counts, f.closure_rounds) == reference_closure(m, max_len)


@pytest.mark.parametrize("max_len", [4, 16])
def test_closure_matches_the_reference_on_a_wide_alphabet(max_len):
    # letter ids past 255 are read at 4 bytes a letter for the counts
    m = wide_morphism(300)
    f = factor_closure(m, max_len)
    assert max(map(max, f.words)) > "\xff"
    assert (f.words, f.counts, f.closure_rounds) == reference_closure(m, max_len)


@settings(max_examples=100, deadline=None)
@given(small_morphisms(max_image=4, min_image=2), st.integers(min_value=1, max_value=64))
def test_keyed_closure_matches_the_all_windows_reference(m, max_len):
    # every image has j = 2..4 letters, so at every L >= j + 2 the fixpoint
    # translates t-letter keys (t < B) and the harvest reads F_t under psi^2
    f = factor_closure(m, max_len)
    assert (f.words, f.counts, f.closure_rounds) == reference_closure(m, max_len)


def spy_lead_windows(monkeypatch) -> list[tuple[int, list[str]]]:
    """(size, words) of every later ``words._lead_windows`` call."""
    calls = []
    lead_windows = words._lead_windows

    def spy(ws, table, size, *args):
        ws = list(ws)
        calls.append((size, ws))
        return lead_windows(ws, table, size, *args)

    monkeypatch.setattr(words, "_lead_windows", spy)
    return calls


def test_paper12_closure_translates_keys_not_words(monkeypatch, closure):
    # paper12 at L = 128: j = 4, B = 33 and t = 1 + ceil(32 / 4) = 9
    expected, layers = closure("paper12", 128), closure("paper12", 33)
    assert (layers.counts[9], layers.counts[33]) == (300, 1167)
    calls = spy_lead_windows(monkeypatch)
    f = factor_closure(words.parse_morphism(cli.gallery_text("paper12")), 128)
    assert (f.words, f.counts) == (expected.words, expected.counts)
    keys = [w for size, ws in calls if size == 33 for w in ws if len(w) == 9]
    ends = [w for size, ws in calls if size == 33 for w in ws if len(w) != 9]
    harvest = [ws for size, ws in calls if size == 128]
    # each key of F_9 is translated once; whole words only as the few ends
    assert sorted(keys) == sorted(layers.of_length(9)) and len(ends) < 10
    assert [sorted(ws) for ws in harvest] == [sorted(layers.of_length(9))]


def test_harvest_reads_f_b_where_psi_squared_of_a_key_is_long(monkeypatch):
    # a -> ab, b -> b^300 at L = 64: j = 2, B = 33 and t = 17.  psi^2 of the
    # key b^17 has 1.53e6 letters and 90,000 lead windows (about 12 MB),
    # psi of b^33 has 9,900 letters and 300 lead windows.  At a 2 MB budget
    # and at the default one, F_B is read and nothing near 2 MB is held
    m = parse_morphism("letters: a b\nstart: a\nmap a -> a b\nmap b -> " + "b " * 300)
    expected = reference_closure(m, 64)
    for budget in (2_000_000, words.DEFAULT_MEMORY_BUDGET_BYTES):
        calls = spy_lead_windows(monkeypatch)
        tracemalloc.start()
        try:
            f = factor_closure(m, 64, memory_budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000
        assert (f.words, f.counts, f.closure_rounds) == expected
        harvest = [sorted(ws) for size, ws in calls if size == 64]
        assert harvest == [["\0" + "\1" * 32, "\1" * 33]]


def test_harvest_reads_f_b_when_psi_squared_exceeds_the_budget(monkeypatch):
    # L = 32: j = 4, B = 9 and t = 3.  The F_t harvest writes fewer letters,
    # but psi^2 (152 letters), one key's image (3 * 120) and its 120 windows
    # need about 11.2 KB, and the whole closure about 10.3 KB: at 10.5 KB
    # F_B is read and psi^2 is never built; at the default budget F_t is read
    m = parse_morphism(
        "letters: a b\nstart: a\nmap a -> a a a b a a b a a a b a\nmap b -> b a b a\n"
    )
    expected = reference_closure(m, 32)
    for budget, key_len in [(10_500, 9), (words.DEFAULT_MEMORY_BUDGET_BYTES, 3)]:
        calls = spy_lead_windows(monkeypatch)
        f = factor_closure(m, 32, memory_budget_bytes=budget)
        assert (f.words, f.counts, f.closure_rounds) == expected
        assert {len(w) for size, ws in calls if size == 32 for w in ws} == {key_len}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3 * COUNT_PASS_MAX_LETTERS), st.data())
def test_letter_counts_match_a_tally(size, data):
    # per-letter str.count up to the cutoff, one Counter pass above it
    letters = [chr(x) for x in range(size)]
    word = "".join(data.draw(st.permutations(letters))) + data.draw(st.text(letters, max_size=300))
    i = data.draw(st.integers(0, len(word)))
    j = data.draw(st.integers(i, len(word)))
    tally = [0] * size
    for ch in word[i:j]:
        tally[ord(ch)] += 1
    assert letter_counts(word, size, i, j) == tuple(tally)


@settings(max_examples=40, deadline=None)
@given(small_morphisms(allow_erasing=True))
def test_factor_views_agree(m):
    max_len = 5
    f = factor_closure(m, max_len)
    prefix = fixed_point_prefix(m, 400).word
    # every factor is a prefix of a word of F_L
    factors = {w[:n] for w in f.words for n in range(max_len + 1)}
    assert brute_factor_set(prefix, max_len) <= factors
    for n in range(max_len + 1):
        of_n = f.of_length(n)
        assert of_n == tuple(sorted(w for w in factors if len(w) == n))
        assert len(of_n) == f.counts[n]
    alphabet = [chr(i) for i in range(m.size)]
    for n in range(4):
        for letters in itertools.product(alphabet, repeat=n):
            u = "".join(letters)
            assert (u in f) == is_factor(f, u) == (u in factors)
    assert chr(0) * (max_len + 1) not in f


@settings(max_examples=40, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=0, max_value=12), st.data())
def test_layers_do_not_depend_on_the_order_they_are_asked_in(m, max_len, data):
    f = factor_closure(m, max_len)
    expected = [tuple(sorted({w[:n] for w in f.words})) for n in range(max_len + 1)]
    ascending = list(range(max_len + 1))
    for order in (ascending, ascending[::-1], data.draw(st.permutations(ascending))):
        fresh = replace(f)
        assert [fresh.of_length(n) for n in order] == [expected[n] for n in order]


def test_a_short_layer_is_cut_without_the_layers_between(closure):
    # each layer is one filter of F_64 by the lcp array, and none is kept
    f = replace(closure("paper12", 64))
    held = dict(vars(f))
    assert len(f.of_length(1)) == 12
    for n in (*range(65), *range(64, -1, -1)):
        f.of_length(n)
    assert vars(f) == held
    assert f.of_length(64) is f.words


@settings(max_examples=40, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(0, 12))
@example(wide_morphism(300), 12)
def test_lcps_are_those_of_neighbouring_words(m, max_len):
    f = factor_closure(m, max_len)
    brute = [len(os.path.commonprefix(pair)) for pair in itertools.pairwise(f.words)]
    assert list(map(ord, f.lcps)) == brute


@settings(max_examples=40, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(1, 12))
@example(wide_morphism(300), 12)
def test_lcps_count_each_right_special_factor_once_per_extra_extension(m, max_len):
    f = factor_closure(m, max_len)
    for n in range(max_len):
        at_n = Counter(s[:n] for s, lcp in zip(f.words[1:], f.lcps) if ord(lcp) == n)
        assert at_n == right_special_excess(f, n), n


def test_complexity_counts(fibonacci, periodic_ab, closure):
    assert subword_complexity(closure("fibonacci", 8), 4) == 5
    assert subword_complexity(closure("paper12", 2), 1) == 12
    assert subword_complexity(closure("periodic-ab", 8), 5) == 2


def test_complexity_contract(closure):
    with pytest.raises(ContractError):
        subword_complexity(closure("fibonacci", 8), 9)


# ---------------------------------------------------------------------------
# shape classification


def test_shape_paper12(paper12):
    s = classify_shape(paper12)
    assert s.d_uniform == 4 and not s.erasing and s.all_growing


def test_shape_fibonacci(fibonacci):
    s = classify_shape(fibonacci)
    assert s.d_uniform is None and not s.erasing and s.all_growing


def test_shape_fixed_letter():
    m = mk(["a", "b"], ["a b", "b"], "a")
    s = classify_shape(m)
    assert s.growing == (True, False)


def test_shape_erasing():
    m = mk(["a", "b"], ["a b a", ""], "a")
    assert classify_shape(m).erasing


def test_shape_bounded_chain():
    # s feeds two copies of a terminal chain: bounded despite image length 2
    m = mk(["s", "u", "v"], ["s u", "v", "v"], "s")
    shape = classify_shape(m)
    assert shape.growing[0] and not shape.growing[1] and not shape.growing[2]


def test_pushy_slow_grower():
    # a -> a a c c, b -> b, c -> c b a b: the right border of phi^k(c) is
    # phi^(k-1)(b) then the right border of phi^(k-1)(a), whose last growing
    # letter is c again, so the runs of b grow every second generation
    m = mk(["a", "b", "c"], ["a a c c", "b", "c b a b"], "a")
    assert classify_shape(m).pushy


@settings(max_examples=300, deadline=None)
@given(small_morphisms(allow_erasing=True))
@example(mk(["a", "b"], ["a a b", "b"], "a"))  # pushy
@example(mk(["a", "d"], ["a a d", ""], "a"))  # the border letter d dies: not pushy
def test_pushy_matches_literal_expansion(m):
    assert classify_shape(m).pushy == pushy_reference(m)


def test_pushy_walks_a_five_thousand_letter_cycle_within_a_second():
    # a_i -> a_(i+1) a_i: the left map is one cycle through every letter
    n = 5000
    images = tuple(chr((i + 1) % n) + chr(i) for i in range(n))
    m = Morphism(tuple(f"a{i}" for i in range(n)), images, 0)
    started = time.perf_counter()
    shape = classify_shape(m)
    assert time.perf_counter() - started < 1.0
    assert shape.all_growing and not shape.pushy


@st.composite
def any_morphisms(draw):
    """Morphisms on up to 6 letters, erasing and non-prolongable ones included."""
    n = draw(st.integers(1, 6))
    images = tuple(
        "".join(chr(c) for c in draw(st.lists(st.integers(0, n - 1), max_size=3)))
        for _ in range(n)
    )
    return Morphism(tuple(f"a{i}" for i in range(n)), images, draw(st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(any_morphisms())
def test_shape_record_matches_oracles(m):
    shape = classify_shape(m)
    lens = {len(img) for img in m.images}
    assert shape.d_uniform == (lens.pop() if len(lens) == 1 else None)
    assert shape.erasing == ("" in m.images)
    assert {a for a in range(m.size) if shape.growing[a]} == growing_reference(m)
    assert shape.occurring == occurring_reference(m)
    reach = support_reach(m, frozenset(range(m.size)))
    for a in range(m.size):
        assert {b for b in range(m.size) if m.letter_graph.reaches(a, b)} == reach[a]
    tail = {ord(ch) for ch in m.images[m.start][1:]}
    assert shape.start_recurs == (m.start in tail.union(*(reach[c] for c in tail)))
    assert shape.unreachable == unreachable_reference(m)
    assert mortal_letters(m) == mortal_reference(m)
    assert words._delete_mortal(m)[1] == mortal_layers_reference(m)


def test_shape_of_a_thousand_letters_within_five_seconds():
    # a generous bound: the condensation takes milliseconds, an all-pairs
    # reachability closure about a minute
    m = wide_morphism(1000)
    started = time.perf_counter()
    shape = classify_shape(m)
    assert time.perf_counter() - started < 5.0
    assert shape.occurring == frozenset(range(1000)) and shape.primitive


def test_mortal_chain_longer_than_the_recursion_limit():
    # a -> a b d1, d_i -> d_(i+1), d_5000 -> empty: one path of 5,000 letters
    n = 5000
    assert n > sys.getrecursionlimit()
    images = [chr(0) + chr(1) + chr(2), chr(1)] + [chr(i + 1) for i in range(2, n + 1)] + [""]
    m = Morphism(("a", "b", *(f"d{i}" for i in range(1, n + 1))), tuple(images), 0)
    assert words._delete_mortal(m)[1] == n
    shape = classify_shape(m)
    assert mortal_letters(m) == frozenset(range(2, n + 2))
    assert shape.occurring == frozenset(range(n + 2)) and shape.unreachable == (1, 0)


def spy_prefixes(monkeypatch, modules):
    """Patch fixed_point_prefix in ``modules``; the returned list records, per
    call, its length n and whether it was given a held prefix."""
    calls = []
    make = words.fixed_point_prefix

    def counted(m, n, **kwargs):
        calls.append((n, kwargs.get("prefix") is not None))
        return make(m, n, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, "fixed_point_prefix", counted)
    return calls


def assert_one_prefix_built(calls, n, max_len):
    """Exactly one call builds the prefix of n letters without a held prefix;
    every other such call, a closure seed of at most max_len letters or a
    period search of p(k) + k letters, asks for at most 2 * max_len
    letters on the inputs tested here."""
    unheld = sorted(k for k, given in calls if not given)
    assert n > 2 * max_len and unheld[-1] == n
    assert all(k <= 2 * max_len for k in unheld[:-1])


@pytest.mark.parametrize(
    "source",
    [
        "paper12",
        "letters: a b\nstart: a\nmap a -> a b a\nmap b ->\ndegree default = 1\n",
    ],
)
def test_analyze_builds_one_letter_record(monkeypatch, source):
    """One analyze: one classify_shape, one letter graph for phi and one for
    psi when phi erases, one incidence matrix, and one held prefix, which
    every later expansion extends or cuts."""
    calls = {"classify_shape": 0, "letter_graph": 0, "incidence_matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    shape_counter = counted("classify_shape", words.classify_shape)
    for mod in (iteralg, cli, report, words):
        monkeypatch.setattr(mod, "classify_shape", shape_counter)
    matrix_counter = counted("incidence_matrix", matrices.incidence_matrix)
    for mod in (iteralg, matrices, report):
        monkeypatch.setattr(mod, "incidence_matrix", matrix_counter)
    monkeypatch.setattr(words, "LetterGraph", counted("letter_graph", words.LetterGraph))
    prefix_calls = spy_prefixes(monkeypatch, (report, words, matrices, deciders))
    text = cli.gallery_text(source) if source in cli.GALLERY_NAMES else source
    m = parse_morphism(text)
    doc, _ = report.analyze(m, AnalysisConfig(max_len=16), source)
    graphs = 1 if source == "paper12" else 2
    assert calls == {"classify_shape": 1, "letter_graph": graphs, "incidence_matrix": 1}
    assert_one_prefix_built(prefix_calls, AnalysisConfig().prefix_letters, 16)
    assert doc["shape"]["erasing"] == (source != "paper12")


def test_audit_and_decide_build_one_prefix(monkeypatch, tmp_path):
    # audit holds one prefix; decide holds none: the closure seed and the
    # period search build short prefixes of their own
    calls = spy_prefixes(monkeypatch, (report, words, matrices, deciders))
    text = "letters: a b c\nstart: a\nmap a -> a b c\nmap b ->\nmap c -> a c\ndegree default = 1\n"
    m = parse_morphism(text)
    report.audit(m, AnalysisConfig(max_len=16), "erasing")
    assert_one_prefix_built(calls, AnalysisConfig().prefix_letters, 16)
    path = tmp_path / "erasing.morph"
    path.write_text(text)
    for source in (str(path), "gallery/ba-example.morph"):
        calls.clear()
        cli.main(["decide", source, "periodic", "--max-len", "16"])
        assert calls and all(not given and k <= 2 * 16 for k, given in calls)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(small_morphisms())
def test_factor_closure_equals_brute_force(m):
    max_len = 6
    f = factor_closure(m, max_len)
    assert f.exact
    horizon = 4 * max_len * max(max_image_len(m), 1)
    prefix = fixed_point_prefix(m, max(horizon, 64)).word
    oracle = brute_factor_set(prefix, max_len)
    factors = all_factors(f)
    # completeness on the sampled window
    assert oracle <= factors
    # soundness: anything beyond the window still occurs, possibly much later
    for w in factors - oracle:
        n = 2**14
        while w not in fixed_point_prefix(m, n).word:
            n *= 8
            assert n <= 2**21, f"factor never surfaced: {[ord(c) for c in w]}"


@settings(max_examples=40, deadline=None)
@given(small_morphisms())
def test_complexity_monotonicity(m):
    f = factor_closure(m, 8)
    for n in range(1, 8):
        assert subword_complexity(f, n) <= subword_complexity(f, n + 1)
        assert subword_complexity(f, n + 1) <= m.size * subword_complexity(f, n)


@settings(max_examples=25, deadline=None)
@given(small_morphisms())
def test_closure_is_deterministic(m):
    f1 = factor_closure(m, 7)
    f2 = factor_closure(m, 7)
    assert f1.words == f2.words
    assert f1.closure_rounds == f2.closure_rounds
