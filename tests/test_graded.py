import itertools
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iteralg import cli, graded, report, words
from iteralg.config import AnalysisConfig
from iteralg.errors import ContractError, InvariantError, NoSplitError
from iteralg.graded import (
    cyclic_rotation_audit,
    every_window_contains,
    graded_nilpotency_scan,
    lie_decomposition,
    max_homogeneous_chain,
    prefix_identity_holds,
    s_set,
)
from iteralg.report import _graded_audit
from iteralg.words import Morphism, WordPrefix, factor_closure, fixed_point_prefix

from conftest import (
    CHAIN_CHECK_LEN,
    all_factors,
    apply_n,
    degree_of,
    wide_morphism,
    degree_sums_reference,
    first_pieces_reference,
    girth_reference,
    level_prefix,
    lie_reference,
    max_run_start,
    naive_power,
    prefix_identity_reference,
    reference_rotation_audit,
    scan_witnesses,
    small_morphisms,
    window_reference,
)
from test_words import EXPANSION_CASES, mk

PAPER12_S_HEAD = (0, 1, 3, 5, 7, 8, 10, 12, 14)
PAPER12_CHAIN_TABLE = {1: 1, 2: 15, 3: 1, 4: 7, 5: 2, 6: 5}


# ---------------------------------------------------------------------------
# position-degree sets


def test_s_set_paper12_head(paper12):
    s = s_set(paper12, fixed_point_prefix(paper12, 8))
    assert tuple(s.sum_at(i) for i in range(9)) == s.head(9) == PAPER12_S_HEAD


def test_s_set_degree_one(fibonacci):
    s = s_set(fibonacci, fixed_point_prefix(fibonacci, 10))
    assert tuple(s.sum_at(i) for i in range(11)) == s.head(11) == tuple(range(11))


def test_s_set_fibonacci_mixed_degrees():
    m = mk(["a", "b"], ["a b", "a"], "a", degrees=(1, 2))
    s = s_set(m, level_prefix(m, 3))
    assert s.word == m.encode("a b a a b")
    assert tuple(s.sum_at(i) for i in range(6)) == s.head(6) == (0, 1, 3, 4, 5, 7)


@settings(max_examples=40, deadline=None)
@given(small_morphisms(graded=True), st.integers(min_value=0, max_value=200))
def test_s_set_matches_accumulate(m, n):
    s = s_set(m, fixed_point_prefix(m, max(n, 1)))
    prefix = s.word
    oracle = [0] + list(
        itertools.accumulate(m.degrees[ord(ch)] for ch in prefix)
    )
    assert s.head(len(prefix) + 1) == tuple(oracle)


# small degrees, and large ones that only the capped letters can hold
DEGREES = st.integers(min_value=1, max_value=3) | st.integers(min_value=4, max_value=10**6)


@settings(max_examples=60, deadline=None)
@given(
    small_morphisms(allow_erasing=True, graded=True),
    st.integers(min_value=0, max_value=200),
    st.data(),
)
def test_sums_from_letter_counts_match_accumulate(m, n, data):
    m = replace(m, degrees=tuple(data.draw(DEGREES) for _ in m.degrees))
    s = s_set(m, fixed_point_prefix(m, max(n, 1)))
    word = s.word
    for cap in (None, 1, 2, 3, 5):
        oracle = degree_sums_reference(m.degrees, word, cap)
        assert [s.sum_at(i, cap) for i in range(len(word) + 1)] == oracle
    oracle = degree_sums_reference(m.degrees, word)
    assert s.head(32) == tuple(oracle[:32])
    i = data.draw(st.integers(0, len(word)))
    j = data.draw(st.integers(i, len(word)))
    assert s.span_degree(i, j) == oracle[j] - oracle[i]


@settings(max_examples=60, deadline=None)
@given(
    small_morphisms(allow_erasing=True, graded=True),
    st.integers(min_value=0, max_value=300),
    st.data(),
)
def test_shared_span_reads_match_accumulate(m, n, data):
    # queries in any order extend a start's span, cut it back or open a new start
    s = s_set(m, fixed_point_prefix(m, max(n, 1)))
    word = s.word
    sums = {cap: degree_sums_reference(m.degrees, word, cap) for cap in (None, 1, 2, 3)}
    position = st.integers(0, len(word))
    for _ in range(data.draw(st.integers(1, 12))):
        i = data.draw(st.sampled_from([0, 1, len(word) // 2]) | position)
        i = min(i, len(word))
        j = data.draw(st.integers(i, len(word)))
        cap = data.draw(st.sampled_from(sorted(sums, key=str)))
        assert s.span_degree(i, j) == sums[None][j] - sums[None][i]
        assert s.sum_at(j, cap) == sums[cap][j]
        table = _mark_table(m.degrees, 3 if cap is None else cap)
        assert s.marks(table, i, j).startswith(word[i:j].translate(table))
        # entries of up to 9 marks, the widths d = 8 caps at
        widths = data.draw(st.lists(st.integers(1, 9), min_size=m.size, max_size=m.size))
        table = _mark_table(widths, 9)
        assert s.marks(table, i, j).startswith(word[i:j].translate(table))


def test_chains_count_each_gallery_prefix_at_most_twice(monkeypatch):
    counted = []
    count = graded.letter_counts

    def spy(word, size, start=0, end=None):
        counted.append((len(word) if end is None else end) - start)
        return count(word, size, start, end)

    monkeypatch.setattr(graded, "letter_counts", spy)
    for name in cli.GALLERY_NAMES:
        m = words.parse_morphism(cli.gallery_text(name))
        prefix = fixed_point_prefix(m, AnalysisConfig().prefix_letters)
        s = s_set(m, prefix)
        f = factor_closure(m, CHAIN_CHECK_LEN)
        counted.clear()
        for d in range(1, 9):
            max_homogeneous_chain(s, f, d, previous=True)
        assert sum(counted) <= 2 * len(prefix.word), name


@pytest.mark.parametrize("name", ["paper12", "fibonacci"])
def test_chain_check_rejects_one_piece_too_many(name, monkeypatch):
    # a descent (paper12) or an equal-width closed form (fibonacci) that
    # reports one piece more than it found fails every degree, on a fresh set
    # and on one whose spans the true chains already read
    m = words.parse_morphism(cli.gallery_text(name))
    prefix = fixed_point_prefix(m, 4**6)
    f = factor_closure(m, CHAIN_CHECK_LEN)
    filled = s_set(m, prefix)
    for d in range(1, 9):
        max_homogeneous_chain(filled, f, d, previous=True)
    longest, equal_width = graded._longest_run, graded._equal_width_run

    def one_more(*args):
        r, starts = longest(*args)
        return r + 1, starts

    monkeypatch.setattr(graded, "_longest_run", one_more)
    monkeypatch.setattr(graded, "_equal_width_run", lambda *args: equal_width(*args) + 1)
    for s in (filled, s_set(m, prefix)):
        for d in range(1, 9):
            with pytest.raises(InvariantError, match="wrong degree"):
                max_homogeneous_chain(s, f, d, previous=True)


@pytest.mark.parametrize("size", [20, 100])
def test_sums_and_chains_on_large_alphabets(size):
    # alphabets on both sides of the letter-count cutoff
    m = wide_morphism(size)
    prefix = fixed_point_prefix(m, 4**6)
    s = s_set(m, prefix)
    sums = tuple(degree_sums_reference(m.degrees, prefix.word))
    capped = degree_sums_reference(m.degrees, prefix.word, 2)
    for i in range(0, len(prefix.word) + 1, 97):
        assert (s.sum_at(i), s.sum_at(i, 2)) == (sums[i], capped[i])
    f = factor_closure(m, CHAIN_CHECK_LEN)
    for k in range(1, prefix.generation_level + 1):
        s = s_set(m, level_prefix(m, k))
        ends = s.gen_lengths
        for d in range(1, 5):
            w = max_homogeneous_chain(s, f, d, previous=True)
            r, start = max_run_start(sums[: ends[-1] + 1], d)
            assert (w.length, w.start_value) == (r, start)
            assert w.span == (sums.index(start), sums.index(start + r * d))
            assert w.previous == max_run_start(sums[: ends[-2] + 1], d)[0]


def test_position_degree_set_needs_positive_degrees(paper12):
    # the set reads its degrees off phi, which rejects a non-positive one
    with pytest.raises(ValueError, match="positive"):
        Morphism(paper12.letters, paper12.images, paper12.start, (0,) * paper12.size)


def test_position_degree_set_needs_a_whole_last_generation(paper12):
    s = s_set(paper12, fixed_point_prefix(paper12, 16))
    with pytest.raises(ContractError):
        replace(s, word=s.word[:-1])
    with pytest.raises(TypeError):  # phi is a required field
        graded.PositionDegreeSet(s.word, s.gen_lengths)


def test_s_set_takes_only_a_prefix_of_two_whole_generations(paper12):
    prefix = fixed_point_prefix(paper12, 16)
    with pytest.raises(ContractError, match="WordPrefix"):
        s_set(paper12, prefix.word)
    for word, ends in [
        (prefix.word[:1], (1,)),  # generation 0 alone
        (prefix.word[:-1], prefix.gen_lengths),  # cut inside the last generation
        (prefix.word, prefix.gen_lengths[:-1]),  # past its last generation
    ]:
        with pytest.raises(ContractError, match="two generations"):
            s_set(paper12, WordPrefix(word, ends))


def _mark_table(degrees, cap):
    return ["0" * (min(g, cap) - 1) + "1" for g in degrees]


def _assert_bitsets_match_direct_translation(s, degrees):
    for cap in range(1, 5):
        table = _mark_table(degrees, cap)
        assert s.bitset(table) == int(("1" + s.word.translate(table))[::-1], 2)


@pytest.mark.parametrize("name", sorted(EXPANSION_CASES))
def test_bitset_matches_direct_translation(name):
    m = EXPANSION_CASES[name]
    prefix = fixed_point_prefix(m, 4**6 + 3)
    _assert_bitsets_match_direct_translation(s_set(m, prefix), m.degrees)
    _assert_bitsets_match_direct_translation(s_set(m, fixed_point_prefix(m, 1000)), m.degrees)


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True, graded=True), st.integers(1, 3000))
def test_bitset_matches_direct_translation_on_random_morphisms(m, n):
    _assert_bitsets_match_direct_translation(s_set(m, fixed_point_prefix(m, n)), m.degrees)


@pytest.mark.parametrize("name", ["paper12", "fibonacci", "thue-morse", "periodic-ab", "ba-example"])
def test_analyze_builds_no_sums_tuple(name, monkeypatch):
    built = []
    make = graded.s_set

    def spy(m, prefix):
        built.append(make(m, prefix))
        return built[-1]

    monkeypatch.setattr(graded, "s_set", spy)
    m = words.parse_morphism(cli.gallery_text(name))
    report.analyze(m, AnalysisConfig(max_len=16), name)
    assert len(built) == 1
    # nothing the set holds has an entry per letter position
    held = [v for v in vars(built[0]).values() if not isinstance(v, (str, words.Morphism))]
    assert all(len(v) < len(built[0].word) for v in held)


# ---------------------------------------------------------------------------
# homogeneous chains


def test_chain_paper12_d2_small_window(paper12, closure):
    s = s_set(paper12, level_prefix(paper12, 2))
    w = max_homogeneous_chain(s, closure("paper12", 8), 2, previous=True)
    # phi(x1) = x1 x2 y1 y2 holds three pieces, x2, y1 and y2, from sum 1
    assert (w.length, w.previous) == (11, 3)
    assert w.start_value == 8
    assert tuple(paper12.decode(p) for p in s.pieces(w, 3)) == ("x3", "y1", "y3")


def test_chain_paper12_d1(paper12, closure):
    s = s_set(paper12, level_prefix(paper12, 3))
    w = max_homogeneous_chain(s, closure("paper12", 8), 1)
    assert (w.length, w.previous) == (1, None)


def test_chain_witness_verifies(paper12, closure):
    s = s_set(paper12, fixed_point_prefix(paper12, 1024))
    for d in range(1, 7):
        w = max_homogeneous_chain(s, closure("paper12", 8), d)
        pieces = s.pieces(w, w.length)
        assert all(degree_of(paper12, p) == d for p in pieces)
        assert "".join(pieces) == s.word[slice(*w.span)]


def test_chain_checks_its_letters_are_a_factor(paper12, closure):
    # the same chain over a closure that lacks its letters fails the check
    s = s_set(paper12, level_prefix(paper12, 2))
    f = closure("paper12", 8)
    chain = s.word[slice(*max_homogeneous_chain(s, f, 1).span)]
    lacking = replace(f, words=tuple(u for u in f.words if not u.startswith(chain)))
    with pytest.raises(InvariantError, match="not a known factor"):
        max_homogeneous_chain(s, lacking, 1)


# ---------------------------------------------------------------------------
# nilpotency scan


def test_scan_paper12_stabilizes(paper12):
    prefix = level_prefix(paper12, 8)
    scan = graded_nilpotency_scan(paper12, scan_witnesses(paper12, prefix, 6), 8)
    assert scan.levels == (7, 8)
    assert not scan.degenerate_grading
    for row in scan.rows:
        assert row.stabilized
        assert row.values[0] == row.values[1] == PAPER12_CHAIN_TABLE[row.degree]


def test_scan_periodic_degree_one_grows(periodic_ab):
    prefix = level_prefix(periodic_ab, 6)
    scan = graded_nilpotency_scan(periodic_ab, scan_witnesses(periodic_ab, prefix, 2), 6)
    assert scan.levels == (5, 6)
    assert scan.degenerate_grading
    row = next(r for r in scan.rows if r.degree == 2)
    assert row.unbounded_within_sample and not row.stabilized
    assert row.values[1] > row.values[0]


def test_scan_empty(paper12):
    prefix = level_prefix(paper12, 4)
    scan = graded_nilpotency_scan(paper12, scan_witnesses(paper12, prefix, 0), 4)
    assert scan.rows == ()


def test_scan_contract(paper12, closure):
    # a chain taken without its previous generation cannot fill a row
    s = s_set(paper12, level_prefix(paper12, 4))
    witnesses = [max_homogeneous_chain(s, closure("paper12", 8), d) for d in range(1, 7)]
    assert all(w.previous is None for w in witnesses)
    with pytest.raises(ContractError, match="previous"):
        graded_nilpotency_scan(paper12, witnesses, 4)


@settings(max_examples=60, deadline=None)
@given(
    small_morphisms(allow_erasing=True, graded=True),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_forward_runs_match_backward_reference(m, top, d_max):
    # every generation k, as the last of its own prefix, against the oracle
    sums = tuple(degree_sums_reference(m.degrees, level_prefix(m, top).word))
    for k in range(1, top + 1):
        prefix = level_prefix(m, k)
        witnesses = scan_witnesses(m, prefix, d_max)
        scan = graded_nilpotency_scan(m, witnesses, k)
        assert scan.levels == (k - 1, k)
        ends = [len(naive_power(m, j)) for j in scan.levels]
        for row in scan.rows:
            for end, value in zip(ends, row.values):
                assert value == max_run_start(sums[: end + 1], row.degree)[0]
        s = s_set(m, prefix)
        for d, w in enumerate(witnesses, start=1):
            r, start = max_run_start(sums[: ends[-1] + 1], d)
            cuts = [sums.index(start + i * d) for i in range(r + 1)]
            pieces = tuple(prefix.word[a:b] for a, b in zip(cuts, cuts[1:]))
            assert (w.length, w.start_value, s.pieces(w, w.length)) == (r, start, pieces)


# a -> a b c, b -> c a, c -> b: every letter occurs, and level 5 ends at letter 48
PINNED = mk(["a", "b", "c"], ["a b c", "c a", "b"], "a")
# a -> a b, b -> a, c -> c: c is unreachable from a, so it never occurs
UNREACHED = mk(["a", "b", "c"], ["a b", "a", "c"], "a")


@settings(max_examples=80, deadline=None)
@given(
    small_morphisms(allow_erasing=True, graded=True),
    st.integers(1, 5),
    st.lists(DEGREES, min_size=4, max_size=4),
)
@example(PINNED, 5, [1, 1, 1])  # equal widths: the chain runs from 0 in steps of d letters
@example(PINNED, 5, [2, 2, 2])  # equal widths: odd degrees have no chain
@example(PINNED, 5, [9, 10, 10**6])  # every degree above d: capped widths equal, no chain
@example(PINNED, 5, [1, 2, 3])  # mixed widths: the bitset descent
@example(UNREACHED, 5, [1, 1, 2])  # the letters that occur have equal widths
def test_chain_witness_matches_run_oracle(m, top, degrees):
    m = replace(m, degrees=tuple(degrees[: m.size]))
    sums = tuple(degree_sums_reference(m.degrees, level_prefix(m, top).word))
    f = factor_closure(m, CHAIN_CHECK_LEN)
    for k in range(1, top + 1):
        s = s_set(m, level_prefix(m, k))
        ends = s.gen_lengths
        for d in range(1, 9):
            w = max_homogeneous_chain(s, f, d, previous=True)
            r, start = max_run_start(sums[: ends[-1] + 1], d)
            cuts = [sums.index(start + i * d) for i in range(r + 1)]
            assert (w.length, w.start_value, w.span) == (r, start, (cuts[0], cuts[-1]))
            assert w.previous == max_run_start(sums[: ends[-2] + 1], d)[0]
            assert max_homogeneous_chain(s, f, d) == w._replace(previous=None)
            pieces = s.pieces(w, w.length)
            assert pieces == tuple(s.word[a:b] for a, b in zip(cuts, cuts[1:]))
            assert s.pieces(w, 2) == pieces[:2]
            for count in (0, 1, 2, 8, w.length):
                assert s.pieces(w, count) == first_pieces_reference(s, w, count)
            assert s.word[cuts[0] : cuts[-1]] == "".join(pieces)


@pytest.mark.parametrize("name, built", [("fibonacci", 0), ("paper12", 8)])
def test_equal_width_chains_build_no_bitset(name, built, monkeypatch):
    # fibonacci's letters all have degree 1, so its chains take the closed
    # form; paper12's degrees 1 and 2 need a bitset for every degree
    calls = []
    bitset = graded.PositionDegreeSet.bitset

    def spy(self, table):
        calls.append(tuple(table))
        return bitset(self, table)

    monkeypatch.setattr(graded.PositionDegreeSet, "bitset", spy)
    report.analyze(words.parse_morphism(cli.gallery_text(name)), AnalysisConfig(), name)
    assert len(calls) == built


def test_chain_levels_deep_in_a_linear_prefix():
    # |phi^k(a)| = 2k + 1, so 4^6 letters hold about 2,000 generations and the
    # level descents cut their ints far from the first generation
    m = mk(["a", "b", "c"], ["a b c", "b", "c"], "a", degrees=(1, 2, 3))
    prefix = fixed_point_prefix(m, 4**6)
    assert prefix.generation_level > 2000
    sums = tuple(degree_sums_reference(m.degrees, prefix.word))
    f = factor_closure(m, CHAIN_CHECK_LEN)
    top = prefix.generation_level
    for k in (1, 2, top // 2, top):
        ends = prefix.gen_lengths[: k + 1]
        s = s_set(m, WordPrefix(prefix.word[: ends[-1]], ends))
        for d in range(1, 9):
            w = max_homogeneous_chain(s, f, d, previous=True)
            r, start = max_run_start(sums[: ends[-1] + 1], d)
            assert (w.length, w.start_value) == (r, start)
            assert w.span == (sums.index(start), sums.index(start + r * d))
            assert w.previous == max_run_start(sums[: ends[-2] + 1], d)[0]


def test_chain_level_requests(paper12, monkeypatch):
    # audit asks for no previous generation; analyze asks for it per degree
    calls = []
    chain = graded.max_homogeneous_chain

    def spy(s, f, d, previous=False):
        calls.append((d, previous))
        return chain(s, f, d, previous)

    monkeypatch.setattr(graded, "max_homogeneous_chain", spy)
    cfg = AnalysisConfig(prefix_letters=4**5, max_len=8, d_max=4)
    report.audit(paper12, cfg, "paper12")
    assert calls == [(d, False) for d in range(1, 5)]
    calls.clear()
    doc, _ = report.analyze(paper12, cfg, "paper12")
    assert calls == [(d, True) for d in range(1, 5)]
    top = doc["word"]["generation_level"]
    assert doc["graded"]["nilpotency_scan"]["levels"] == [top - 1, top]


# ---------------------------------------------------------------------------
# rotation audit


def test_rotation_audit_paper12(paper12, closure):
    f = closure("paper12", 4)
    audit = cyclic_rotation_audit(f, 4)
    assert audit.passed and audit.counterexample is None
    assert paper12.encode("x2 x1") not in f
    # a factor produced inside an image keeps its reversal out of the language
    assert paper12.encode("x3 y2") in f
    assert paper12.encode("y2 x3") not in f


def test_rotation_audit_periodic_fails(periodic_ab, closure):
    f = closure("periodic-ab", 4)
    audit = cyclic_rotation_audit(f, 4)
    assert not audit.passed
    assert periodic_ab.decode(audit.counterexample) == "a b"
    # per_length stops before the counterexample's length
    assert audit.per_length == ()


GALLERY = ["paper12", "fibonacci", "thue-morse", "ba-example", "periodic-ab"]


@pytest.mark.parametrize(
    "name, max_len",
    [*itertools.product(GALLERY, [2, 3, 5, 12, 20, 32]), ("paper12", 48), ("paper12", 64)],
)
def test_rotation_audit_matches_the_reference_on_the_gallery(closure, name, max_len):
    # paper12 passes at every length, most of them ruled out by a girth;
    # the others fail at 2 and cascade
    f = closure(name, max_len)
    assert cyclic_rotation_audit(f, max_len) == reference_rotation_audit(replace(f), max_len)


@settings(max_examples=100, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=2, max_value=24))
def test_rotation_audit_matches_the_reference(m, max_len):
    # per_length, the counterexample and the Lie failures in scan order
    f = factor_closure(m, max_len)
    assert cyclic_rotation_audit(f, max_len) == reference_rotation_audit(replace(f), max_len)


@st.composite
def word_sets(draw):
    """A factor set read off any set of equal-length words: their prefixes
    need not be closed under suffixes, and sparse sets pass the audit."""
    letters = "abcdefgh"[: draw(st.integers(2, 8))]
    n = draw(st.integers(2, 16))
    found = draw(st.sets(st.text(letters, min_size=n, max_size=n), min_size=1, max_size=20))
    return words.FactorSet(max_len=n, words=tuple(sorted(found)), closure_rounds=0)


@settings(max_examples=100, deadline=None)
@given(word_sets(), st.data())
def test_rotation_audit_matches_the_reference_on_any_word_set(f, data):
    # the drawn morphisms above all fail at length 2; sparse word sets also pass
    max_len = data.draw(st.integers(2, f.max_len))
    assert cyclic_rotation_audit(f, max_len) == reference_rotation_audit(replace(f), max_len)


def test_rotation_audit_on_paper12_cuts_four_layers(closure, monkeypatch):
    # the girths of G_2, G_3, G_11 and G_47 rule out 3..48 after length 2 is
    # read, so only F_2, F_3, F_4 and F_12 are read off F_48
    f = replace(closure("paper12", 48))
    asked = []
    of_length = words.FactorSet.of_length

    def counted(self, n):
        asked.append(n)
        return of_length(self, n)

    monkeypatch.setattr(words.FactorSet, "of_length", counted)
    audit = cyclic_rotation_audit(f, 48)
    assert audit.passed and len(audit.per_length) == 47
    assert len({n for n in asked if n < 48}) <= 4


@pytest.mark.parametrize("max_len, lie_failures", [(12, 39), (24, 87)])
def test_rotation_audit_reads_every_length_from_a_short_girth(max_len, lie_failures):
    # x = a c b d c b d ...: G_2 has the 3-cycle c b -> b d -> d c, so the
    # girth at n = 3 rules out nothing and lengths 3..L are read
    m = words.parse_morphism(
        "letters: a b c d\nstart: a\nmap a -> a c\nmap b -> d\nmap c -> b\nmap d -> c\n"
    )
    f = factor_closure(m, max_len)
    assert graded._girth(f.of_length(3), max_len + 1) == 3
    audit = cyclic_rotation_audit(f, max_len)
    assert audit == reference_rotation_audit(replace(f), max_len)
    assert m.decode(audit.counterexample) == "b d c"
    assert audit.per_length == ((2, 4),)
    assert len(audit.lie_failures) == lie_failures


@st.composite
def rauzy_edges(draw):
    """Words of one length k + 1 over 1-5 letters, as Rauzy graph edges:
    random words (sources, sinks and shared vertices among them), maybe a
    self-loop, and maybe the windows of a periodic word, a cycle of its
    period that may be a component of its own."""
    letters = "abcde"[: draw(st.integers(1, 5))]
    k = draw(st.integers(1, 5))
    edges = draw(st.sets(st.text(letters, min_size=k + 1, max_size=k + 1), max_size=30))
    if draw(st.booleans()):
        edges.add(draw(st.sampled_from(letters)) * (k + 1))
    if draw(st.booleans()):
        word = draw(st.text(letters, min_size=1, max_size=12)) * (k + 2)
        edges.update(word[i : i + k + 1] for i in range(len(word) - k))
    return sorted(edges)


@settings(max_examples=300, deadline=None)
@given(rauzy_edges(), st.integers(1, 30))
def test_girth_matches_breadth_first_search(edges, cap):
    assert graded._girth(edges, cap) == girth_reference(edges, cap)


def test_rotation_audit_contract(closure):
    with pytest.raises(ContractError):
        cyclic_rotation_audit(closure("paper12", 4), 1)
    with pytest.raises(ContractError):
        cyclic_rotation_audit(closure("paper12", 4), 5)


# ---------------------------------------------------------------------------
# bracket decompositions


def test_lie_paper12_pair(paper12, closure):
    f = closure("paper12", 4)
    node = lie_decomposition(f, paper12.encode("x1 x2"))
    assert paper12.decode(node.left.word) == "x1"
    assert paper12.decode(node.right.word) == "x2"
    assert paper12.decode(node.absent_rotation) == "x2 x1"


def test_lie_paper12_image(paper12, closure):
    f = closure("paper12", 4)
    node = lie_decomposition(f, paper12.encode("x1 x2 y1 y2"))
    # every internal node certifies an absent reversed product, at most 3 deep
    known = all_factors(f)
    stack = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        if cur.left is not None:
            assert depth < 3
            assert cur.absent_rotation not in known
            stack.extend([(cur.left, depth + 1), (cur.right, depth + 1)])


def test_lie_decomposition_builds_no_factor_set(paper12, closure):
    # membership is a prefix search of F_L: paper12 at L = 128 holds 297,025
    # shorter factors, which one set of them would copy
    f = closure("paper12", 128)
    tracemalloc.start()
    try:
        lie_decomposition(f, paper12.encode("x1 x2 y1 y2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lie_single_letter_rejected(paper12, closure):
    with pytest.raises(ContractError):
        lie_decomposition(closure("paper12", 4), chr(0))


def test_lie_no_split(periodic_ab, closure):
    f = closure("periodic-ab", 4)
    with pytest.raises(NoSplitError):
        lie_decomposition(f, periodic_ab.encode("a b"))


def _lie_entry(m, f, max_len):
    s = s_set(m, fixed_point_prefix(m, 16))
    lie = _graded_audit(s, f, 1, max_len)[0]["lie"]
    return {"pass": lie["pass"], "failures": lie["failures"]}


def test_lie_entry_inferred_from_passed_rotation_audit(paper12, closure):
    # the passing side: paper12 has no counterexample and no failure
    for max_len in range(2, 13):
        f = closure("paper12", max_len)
        assert cyclic_rotation_audit(f, max_len).passed
        assert _lie_entry(paper12, f, max_len) == lie_reference(paper12, f, max_len)


@pytest.mark.parametrize("name", GALLERY)
def test_lie_failures_match_decomposition(closure, name):
    # the full scan, passed rotation audits included, against every decomposition
    f = closure(name, 12)
    m = words.parse_morphism(cli.gallery_text(name))
    failures = cyclic_rotation_audit(f, 12).lie_failures
    assert [m.decode(w) for w in failures] == lie_reference(m, f, 12)["failures"]


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True, graded=True), st.integers(min_value=2, max_value=8))
def test_lie_entry_matches_full_loop(m, max_len):
    f = factor_closure(m, max_len)
    assert _lie_entry(m, f, max_len) == lie_reference(m, f, max_len)


def test_audit_lie_linkage(paper12, closure):
    # wherever the rotation audit passes, a bracket split must exist
    f = closure("paper12", 6)
    audit = cyclic_rotation_audit(f, 6)
    assert audit.passed
    for w in all_factors(f):
        if 2 <= len(w) <= 6:
            lie_decomposition(f, w)  # must not raise


# ---------------------------------------------------------------------------
# window and prefix-identity checks


def test_every_window_contains(paper12):
    w6 = apply_n(paper12, chr(paper12.start), 6)
    assert every_window_contains(w6, paper12.start, 16)
    assert not every_window_contains(w6, paper12.start, 3)


def test_window_missing_letter():
    assert not every_window_contains("aaaa", 1, 2)
    assert every_window_contains("", 0, 4)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="\x00\x01\x02", max_size=30), st.integers(0, 2), st.integers(0, 8))
def test_every_window_contains_matches_the_windows(word, letter, window):
    # letter 2 is often absent; the empty word and windows 0 and past the word come up
    assert every_window_contains(word, letter, window) == window_reference(word, letter, window)


@pytest.mark.parametrize(
    "word, gap",
    [("", 0), ("\x01\x01\x01", 3), ("\x00", 0), ("\x01\x00\x01\x01\x00\x01\x01\x01", 3)],
)
def test_every_window_contains_at_the_largest_gap(word, gap):
    # a window of the largest gap misses the letter; one letter longer does not
    assert not every_window_contains(word, 0, gap)
    assert every_window_contains(word, 0, gap + 1)


def test_prefix_identity_paper12(paper12):
    prefix = fixed_point_prefix(paper12, 4**6 + 4**5)
    for n in range(1, 6):
        assert prefix_identity_holds(prefix, n)


@pytest.mark.parametrize(
    "name", ["paper12", "fibonacci", "thue_morse", "ba_example", "periodic_ab"]
)
def test_prefix_identity_matches_expansion(request, name):
    """For prefixes ending at each generation up to 4^8 letters, the held
    generations give the answer of a fresh expansion, and run out at the same n."""
    m = request.getfixturevalue(name)
    ends = fixed_point_prefix(m, 4**8).gen_lengths
    for k in range(1, len(ends)):
        if ends[k] > 4**8:
            break
        prefix = fixed_point_prefix(m, ends[k])
        assert prefix.generation_level == k
        for n in range(k + 1):
            try:
                expected = prefix_identity_reference(m, n, prefix.word)
            except ContractError:
                with pytest.raises(ContractError):
                    prefix_identity_holds(prefix, n)
            else:
                assert prefix_identity_holds(prefix, n) == expected


def test_prefix_identity_fails_thue_morse(thue_morse):
    prefix = fixed_point_prefix(thue_morse, 64)
    assert not prefix_identity_holds(prefix, 1)
