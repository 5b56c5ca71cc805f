import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from iteralg.algebra import graded_dimension, graded_dimensions, hilbert_function
from iteralg.errors import ContractError
from iteralg.words import FactorSet, factor_closure

from conftest import (
    MonomialElement,
    all_factors,
    degree_of,
    graded_dimension_reference,
    multiply,
    small_morphisms,
    sorted_factors,
)


def test_multiply_image_prefix(paper12, closure):
    f = closure("paper12", 8)
    x = MonomialElement.word(paper12.encode("x1 x2"))
    y = MonomialElement.word(paper12.encode("y1 y2"))
    product = multiply(f, x, y)
    assert product.terms == {paper12.encode("x1 x2 y1 y2"): Fraction(1)}


def test_multiply_kills_non_factor(paper12, closure):
    f = closure("paper12", 8)
    x = MonomialElement.word(paper12.encode("x2"))
    y = MonomialElement.word(paper12.encode("x1"))
    assert multiply(f, x, y).is_zero


def test_multiply_unit(paper12, closure):
    f = closure("paper12", 8)
    u = MonomialElement.word(paper12.encode("x1 x2"), Fraction(3, 2))
    assert multiply(f, MonomialElement.unit(), u) == u
    assert multiply(f, u, MonomialElement.unit()) == u


def test_multiply_length_contract(paper12, closure):
    f = closure("paper12", 4)
    long_word = paper12.encode("x1 x2 y1 y2")
    with pytest.raises(ContractError, match="enlarge"):
        multiply(f, MonomialElement.word(long_word), MonomialElement.word(long_word))


def test_multiply_requires_factor_support(paper12, closure):
    f = closure("paper12", 4)
    ghost = MonomialElement.word(paper12.encode("x2 x1"))
    with pytest.raises(ContractError, match="not a known factor"):
        multiply(f, ghost, MonomialElement.unit())


def test_bilinearity(paper12, closure):
    f = closure("paper12", 8)
    a = MonomialElement.word(paper12.encode("x1"), 2)
    b = MonomialElement.word(paper12.encode("x2"), Fraction(1, 3))
    c = MonomialElement.word(paper12.encode("y1 y2"))
    left = multiply(f, a + b, c)
    right = multiply(f, a, c) + multiply(f, b, c)
    assert left == right


def test_hilbert_values(paper12, fibonacci, closure):
    assert hilbert_function(closure("paper12", 4), 0) == 1
    assert hilbert_function(closure("paper12", 4), 1) == 13
    assert hilbert_function(closure("fibonacci", 4), 3) == 10


def test_hilbert_strictly_increasing(closure):
    for name in ("paper12", "fibonacci", "thue-morse", "periodic-ab", "ba-example"):
        f = closure(name, 10)
        values = [hilbert_function(f, n) for n in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_graded_dimension_paper12(paper12, closure):
    f = closure("paper12", 8)
    assert graded_dimension(f, paper12.degrees, 0) == 1
    assert graded_dimension(f, paper12.degrees, 1) == 1  # only the start letter
    assert graded_dimension(f, paper12.degrees, 2) == 11


def test_graded_dimension_counts_by_degree(paper12, closure):
    f = closure("paper12", 8)
    total = sum(graded_dimension(f, paper12.degrees, d) for d in range(0, 9))
    by_enum = 1 + sum(
        1
        for w in all_factors(f)
        if w and degree_of(paper12, w) <= 8
    )
    assert total == by_enum


@settings(max_examples=60, deadline=None)
@given(small_morphisms(allow_erasing=True, graded=True), st.integers(1, 8), st.integers(0, 4))
def test_graded_dimension_matches_a_degree_sum(m, max_len, lifted):
    # degrees 1..3 per letter, letter ``lifted`` (if any) at 10^12, far above
    # every degree read: each factor's degree summed letter by letter
    degrees = tuple(10**12 if i == lifted else g for i, g in enumerate(m.degrees))
    f = factor_closure(m, max_len)
    for d in range(max_len + 1):
        expected = sum(
            1 for w in all_factors(f) if sum(degrees[ord(ch)] for ch in w) == d
        )
        assert graded_dimension(f, degrees, d) == expected, d


@settings(max_examples=80, deadline=None)
@given(
    small_morphisms(allow_erasing=True, graded=True),
    st.integers(1, 8),
    st.integers(1, 8),
    st.data(),
)
def test_one_pass_matches_the_per_degree_rescan(m, max_len, d_max, data):
    # letter degrees up to 4, so some letters lie above D when D < 4
    degrees = tuple(data.draw(st.integers(1, 4)) for _ in m.letters)
    f = factor_closure(m, max_len)
    top = min(d_max, max_len)
    dims = graded_dimensions(f, degrees, top)
    assert dims == [graded_dimension_reference(f, degrees, d) for d in range(top + 1)]
    assert dims[0] == graded_dimension(f, degrees, 0) == 1
    assert [graded_dimension(f, degrees, d) for d in range(top + 1)] == dims
    with pytest.raises(ContractError):
        graded_dimension(f, degrees, max_len + 1)


def test_graded_dimensions_read_f_l_without_filtering_layers(paper12, closure, monkeypatch):
    f = closure("paper12", 16)
    expected = [graded_dimension_reference(f, paper12.degrees, d) for d in range(9)]
    calls = []
    of_length = FactorSet.of_length

    def spy(self, n):
        calls.append(n)
        return of_length(self, n)

    monkeypatch.setattr(FactorSet, "of_length", spy)
    assert graded_dimensions(f, paper12.degrees, 8) == expected
    assert calls == []


def test_associativity_random_triples(paper12, closure):
    f = closure("paper12", 12)
    words = [w for w in sorted_factors(f) if 1 <= len(w) <= 4]
    rng = random.Random(20240817)
    for _ in range(1000):
        u, v, z = (rng.choice(words) for _ in range(3))
        x = MonomialElement.word(u)
        y = MonomialElement.word(v)
        w = MonomialElement.word(z)
        assert multiply(f, multiply(f, x, y), w) == multiply(f, x, multiply(f, y, w))


def test_nilpotent_witness_ba(ba_example, closure):
    f = closure("ba-example", 12)
    b = MonomialElement.word(chr(ba_example.start))
    for u in sorted_factors(f):
        if len(u) <= 10:
            bu = multiply(f, b, MonomialElement.word(u))
            assert multiply(f, bu, b).is_zero
