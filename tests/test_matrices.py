import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iteralg import matrices, report
from iteralg.config import AnalysisConfig
from iteralg.errors import ContractError, InvariantError, RecurrenceValidationError
from iteralg.matrices import (
    WEIGHT_EXPANSION_BUDGET_LETTERS,
    CharPoly,
    IncidenceMatrix,
    char_poly,
    incidence_matrix,
    recurrence_from_charpoly,
    weight_sequence,
)
from iteralg.report import WEIGHT_TERMS
from iteralg.words import PowerTables, classify_shape, fixed_point_prefix

from conftest import (
    apply_n,
    evaluate_matrix,
    extend_recurrence,
    faddeev_leverrier,
    holds_at,
    is_zero,
    matvec,
    parikh,
    transpose,
    wide_morphism,
    letter_count,
    level_prefix,
    naive_power,
    small_morphisms,
    weight_crosscheck_reference,
)
from test_words import mk

# frozen regression data for the 12-letter gallery morphism
PAPER12_CHARPOLY_HIGH_TO_LOW = (1, -1, -8, -16, -2, 5, 5, 21, 31, -10, -8, 0, 0)
PAPER12_W_DIRECT = (1, 7, 30, 120, 483, 1935, 7733, 30945, 123772)
PAPER12_W_TRANSPOSED = (1, 9, 40, 162, 655, 2627, 10487, 41987, 167922)


# ---------------------------------------------------------------------------
# incidence matrix / Parikh vectors


def test_incidence_fibonacci(fibonacci):
    M = incidence_matrix(fibonacci)
    assert M.rows == ((1, 1), (1, 0))


def test_incidence_paper12_first_column(paper12):
    M = incidence_matrix(paper12)
    ones = {i for i in range(12) if M.rows[i][0] == 1}
    names = {paper12.letters[i] for i in ones}
    assert names == {"x1", "x2", "y1", "y2"}
    assert all(M.rows[i][0] in (0, 1) for i in range(12))


def test_incidence_identity_morphism():
    m = mk(["a", "b"], ["a", "b"], "a")
    assert incidence_matrix(m).rows == ((1, 0), (0, 1))


def test_parikh_empty(fibonacci):
    assert parikh(fibonacci, "") == (0, 0)


def test_parikh_image(paper12):
    v = parikh(paper12, paper12.images[0])
    names = {paper12.letters[i] for i, c in enumerate(v) if c == 1}
    assert names == {"x1", "x2", "y1", "y2"} and sum(v) == 4


def test_parikh_count(fibonacci):
    assert parikh(fibonacci, fibonacci.encode("a b a a b")) == (3, 2)


def test_parikh_unknown_letter(fibonacci):
    with pytest.raises(ContractError):
        parikh(fibonacci, chr(7))


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_fibonacci(fibonacci):
    p = char_poly(incidence_matrix(fibonacci))
    assert p.coeffs == (-1, -1, 1)  # x^2 - x - 1


def test_char_poly_identity():
    m = mk(["a", "b", "c"], ["a", "b", "c"], "a")
    p = char_poly(incidence_matrix(m))
    assert p.coeffs == (-1, 3, -3, 1)  # (x - 1)^3


def test_char_poly_paper12(paper12):
    M = incidence_matrix(paper12)
    p = char_poly(M)
    assert p.high_to_low() == PAPER12_CHARPOLY_HIGH_TO_LOW
    assert M.trace() == 1
    assert p.evaluate(4) == 0
    assert is_zero(evaluate_matrix(p, M))


@st.composite
def square_matrices(draw, max_size: int = 14, max_entry: int = 7):
    n = draw(st.integers(1, max_size))
    entries = st.integers(0, max_entry)
    return IncidenceMatrix(tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n)))


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_char_poly_matches_faddeev_leverrier(M):
    assert char_poly(M) == faddeev_leverrier(M)


@pytest.mark.parametrize("size", [4, 12, 22, 40])
def test_char_poly_matches_faddeev_leverrier_on_wide_alphabets(size):
    M = incidence_matrix(wide_morphism(size))
    assert char_poly(M) == faddeev_leverrier(M)


def test_char_poly_combines_several_primes():
    # 20 letters with entries up to 7: the bound is near 2^85, past one prime
    M = IncidenceMatrix(
        tuple(tuple((3 * i + 5 * j + i * j) % 8 for j in range(20)) for i in range(20))
    )
    assert 2 * matrices._coefficient_bound(M) > matrices._prime(0)
    assert char_poly(M) == faddeev_leverrier(M)


def test_primes_are_the_largest_below_2_61():
    assert [matrices._prime(k) for k in range(3)] == [2**61 - 1, 2**61 - 31, 2**61 - 45]


@pytest.mark.parametrize("degree", range(12))
def test_a_mutated_coefficient_fails_the_cayley_hamilton_check(paper12, monkeypatch, degree):
    mod = matrices._char_poly_mod

    def mutated(M, q):
        coeffs = mod(M, q)
        coeffs[degree] = (coeffs[degree] + 1) % q
        return coeffs

    monkeypatch.setattr(matrices, "_char_poly_mod", mutated)
    with pytest.raises(InvariantError, match="Cayley-Hamilton"):
        char_poly(incidence_matrix(paper12))


def test_analyze_of_a_hundred_letters_is_quick():
    # with Faddeev-LeVerrier's dense products this took about 14 s on 2 vCPUs,
    # by Hessenberg reduction about 0.2 s
    t0 = time.perf_counter()
    report.analyze(wide_morphism(100), AnalysisConfig(), "wide")
    assert time.perf_counter() - t0 < 5.0


def test_char_poly_rejects_non_monic():
    with pytest.raises(ValueError):
        CharPoly((1, 2))


# ---------------------------------------------------------------------------
# recurrences


def test_recurrence_fibonacci_numbers():
    p = CharPoly((-1, -1, 1))
    rec = recurrence_from_charpoly(p, (1, 1))
    assert extend_recurrence(rec, 11)[10] == 89


def test_recurrence_constant():
    rec = recurrence_from_charpoly(CharPoly((-1, 1)), (7,))
    assert extend_recurrence(rec, 5) == [7, 7, 7, 7, 7]


def test_recurrence_validation_error():
    p = CharPoly((-1, -1, 1))
    with pytest.raises(RecurrenceValidationError) as exc:
        recurrence_from_charpoly(p, (1, 1, 2, 4))
    assert exc.value.index == 3


def test_recurrence_needs_enough_terms():
    with pytest.raises(ContractError):
        recurrence_from_charpoly(CharPoly((-1, -1, 1)), (1,))


def test_recurrence_paper12_shape(paper12):
    M = incidence_matrix(paper12)
    p = char_poly(M)
    ws = weight_sequence(paper12, M, fixed_point_prefix(paper12, 1), 20)
    rec = recurrence_from_charpoly(p, ws.direct)
    assert rec.order == 12
    assert rec.coeffs == (1, 8, 16, 2, -5, -5, -21, -31, 10, 8, 0, 0)
    for n in range(12, 21):
        assert holds_at(rec, ws.direct, n)
        assert holds_at(rec, ws.transposed, n)


# ---------------------------------------------------------------------------
# start-letter recurrence (ShapeRecord.start_recurs)


def test_occurrence_paper12_start(paper12):
    assert classify_shape(paper12).start_recurs


def test_occurrence_ba_start(ba_example):
    assert not classify_shape(ba_example).start_recurs


@settings(max_examples=50, deadline=None)
@given(small_morphisms(allow_erasing=True))
def test_occurrence_agrees_with_expansion(m):
    # a recurring start is reachable from a tail letter in at most |A| steps
    expected = letter_count(naive_power(m, 2 * m.size), m.start) >= 2
    assert classify_shape(m).start_recurs == expected


# ---------------------------------------------------------------------------
# weight sequences


def test_weights_paper12(paper12):
    ws = weight_sequence(paper12, incidence_matrix(paper12), fixed_point_prefix(paper12, 1), 8)
    assert ws.direct == PAPER12_W_DIRECT
    assert ws.transposed == PAPER12_W_TRANSPOSED
    assert ws.first_divergence == 1
    assert ws.cross_checked_upto >= 8


def test_weights_degree_one_is_length(fibonacci):
    ws = weight_sequence(fibonacci, incidence_matrix(fibonacci), fixed_point_prefix(fibonacci, 1), 8)
    lengths = tuple(len(naive_power(fibonacci, n)) for n in range(9))
    assert ws.direct == lengths


@settings(max_examples=40, deadline=None)
@given(small_morphisms(graded=True, allow_erasing=True), st.integers(0, 24))
def test_weight_products_match_dense_products(m, n_max):
    M = incidence_matrix(m)
    ws = weight_sequence(m, M, fixed_point_prefix(m, 1), n_max)
    theta = tuple(int(i == m.start) for i in range(m.size))
    for convention, matrix in (("direct", M), ("transposed", transpose(M))):
        vec, expected = theta, []
        for _ in range(n_max + 1):
            expected.append(sum(map(int.__mul__, m.degrees, vec)))
            vec = matvec(matrix, vec)
        assert getattr(ws, convention) == tuple(expected), convention


# cross_checked_upto at n_max = WEIGHT_TERMS: the last n with |phi^n(start)| <= 4^9
GALLERY_CROSS_CHECKED_UPTO = {
    "paper12": 9,
    "fibonacci": 20,
    "thue_morse": 18,
    "ba_example": 18,
    "periodic_ab": 18,
}


@pytest.mark.parametrize("letters", [1, 4**8, 4**10])
@pytest.mark.parametrize("name", sorted(GALLERY_CROSS_CHECKED_UPTO))
def test_weight_crosscheck_gallery_budget(request, name, letters):
    m = request.getfixturevalue(name)
    ws = weight_sequence(m, incidence_matrix(m), fixed_point_prefix(m, letters), WEIGHT_TERMS)
    assert ws.cross_checked_upto == GALLERY_CROSS_CHECKED_UPTO[name]


@settings(max_examples=15, deadline=None)
@given(small_morphisms(graded=True, allow_erasing=True), st.integers(1, 6))
def test_weight_crosscheck_matches_reference(m, k):
    M = incidence_matrix(m)
    expected = weight_crosscheck_reference(m, WEIGHT_TERMS)
    for letters in (1, 4**8, 4**9):
        prefix = fixed_point_prefix(m, letters)
        assert weight_sequence(m, M, prefix, WEIGHT_TERMS) == expected
    assert weight_sequence(m, M, level_prefix(m, k), WEIGHT_TERMS) == expected


@pytest.mark.parametrize("size", [20, 100])
def test_weight_crosscheck_matches_reference_on_large_alphabets(size):
    # alphabets on both sides of the letter-count cutoff, to the 4^9 budget
    m = wide_morphism(size)
    M = incidence_matrix(m)
    expected = weight_crosscheck_reference(m, WEIGHT_TERMS)
    for letters in (1, 4**8):
        assert weight_sequence(m, M, fixed_point_prefix(m, letters), WEIGHT_TERMS) == expected


@pytest.mark.parametrize("letters", [1, 4**8])
@pytest.mark.parametrize("name", sorted(GALLERY_CROSS_CHECKED_UPTO))
def test_weight_crosscheck_builds_no_dropped_generation(request, monkeypatch, name, letters):
    # past the held prefix only generations inside the budget are expanded
    m = request.getfixturevalue(name)
    prefix = fixed_point_prefix(m, letters)
    built = []
    apply = PowerTables.apply

    def apply_spy(self, word, h):
        built.append(len(out := apply(self, word, h)))
        return out

    monkeypatch.setattr(PowerTables, "apply", apply_spy)
    weight_sequence(m, incidence_matrix(m), prefix, WEIGHT_TERMS)
    assert built or letters > 1
    assert sum(built) <= WEIGHT_EXPANSION_BUDGET_LETTERS - len(prefix)


def test_weight_crosscheck_rejects_an_expansion_off_its_counts(periodic_ab, monkeypatch):
    m = periodic_ab
    prefix = fixed_point_prefix(m, 1)
    apply = PowerTables.apply
    monkeypatch.setattr(PowerTables, "apply", lambda self, word, h: apply(self, word, h)[:-1])
    with pytest.raises(InvariantError, match=r"phi\^2\(start\) has \d+ letters, M gives"):
        weight_sequence(m, incidence_matrix(m), prefix, 4)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(small_morphisms(), st.data())
def test_parikh_homomorphism(m, data):
    words = st.text(
        alphabet=st.sampled_from([chr(i) for i in range(m.size)]), max_size=20
    )
    u = data.draw(words)
    v = data.draw(words)
    tu, tv, tuv = parikh(m, u), parikh(m, v), parikh(m, u + v)
    assert tuple(a + b for a, b in zip(tu, tv)) == tuv
    M = incidence_matrix(m)
    assert matvec(M, tu) == parikh(m, m.apply(u))
    theta = parikh(m, u)
    for n in range(4):
        assert theta == parikh(m, apply_n(m, u, n))
        theta = matvec(M, theta)


@settings(max_examples=40, deadline=None)
@given(small_morphisms())
def test_cayley_hamilton_always(m):
    M = incidence_matrix(m)
    p = char_poly(M)
    assert is_zero(evaluate_matrix(p, M))


@settings(max_examples=40, deadline=None)
@given(small_morphisms())
def test_uniform_column_sums_and_root(m):
    M = incidence_matrix(m)
    shape = classify_shape(m)
    if shape.d_uniform is not None:
        d = shape.d_uniform
        assert set(M.column_sums()) == {d}
        assert char_poly(M).evaluate(d) == 0


@settings(max_examples=30, deadline=None)
@given(small_morphisms(graded=True))
def test_weight_sequence_satisfies_own_recurrence(m):
    M = incidence_matrix(m)
    p = char_poly(M)
    n_max = p.degree + 6
    ws = weight_sequence(m, M, fixed_point_prefix(m, 1), n_max)
    rec = recurrence_from_charpoly(p, ws.direct)
    for n in range(p.degree, n_max + 1):
        assert holds_at(rec, ws.direct, n)
