"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected values marked as regressions below were frozen from independent
computations (literal word expansion, brute-force factor counting, partial
degree sums) before the library paths existed.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from iteralg.algebra import hilbert_function
from iteralg.config import AnalysisConfig
from iteralg.deciders import run_deciders, ring_property_report
from iteralg.errors import NoSplitError
from iteralg.graded import (
    cyclic_rotation_audit,
    every_window_contains,
    graded_nilpotency_scan,
    lie_decomposition,
    s_set,
)
from iteralg.matrices import (
    char_poly,
    incidence_matrix,
    recurrence_from_charpoly,
    weight_sequence,
)
from iteralg.report import analyze
from iteralg.words import classify_shape, factor_closure, fixed_point_prefix

from conftest import (
    MonomialElement,
    apply_n,
    brute_factor_count,
    evaluate_matrix,
    holds_at,
    is_zero,
    level_prefix,
    multiply,
    naive_power,
    scan_witnesses,
    sorted_factors,
)

CHARPOLY_REFERENCE_HIGH_TO_LOW = (1, -1, -8, -16, -2, 5, 5, 21, 31, -10, -8, 0, 0)
EQ_LIST_HEAD = (1, 9, 40)
DIRECT_HEAD = (1, 7, 30)
S_SET_HEAD = (0, 1, 3, 5, 7, 8, 10, 12, 14)


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS [{n:02d}] {text}")


def test_c01_incidence_consistency(paper12):
    t0 = time.perf_counter()
    M = incidence_matrix(paper12)
    p = char_poly(M)
    assert M.trace() == 1
    assert set(M.column_sums()) == {4}
    assert p.evaluate(4) == 0
    assert is_zero(evaluate_matrix(p, M))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"trace=1, column sums 4, P(4)=0, P(M)=0 in {elapsed:.3f}s")


def test_c02_charpoly_regression(paper12):
    computed = char_poly(incidence_matrix(paper12)).high_to_low()
    diffs = [
        {"power": len(computed) - 1 - i, "computed": c, "expected": e}
        for i, (c, e) in enumerate(zip(computed, CHARPOLY_REFERENCE_HIGH_TO_LOW))
        if c != e
    ]
    assert not diffs, f"coefficient discrepancies: {diffs}"
    ok(2, "characteristic polynomial matches the reference coefficients exactly")


def test_c03_weight_self_consistency(paper12):
    ws = weight_sequence(paper12, incidence_matrix(paper12), fixed_point_prefix(paper12, 1), 20)
    # independent oracle: literal expansion plus literal degree sums
    for n in range(9):
        word = naive_power(paper12, n)
        literal = sum(paper12.degrees[c] for c in word)
        assert ws.direct[n] == literal, f"n={n}"
    rec = recurrence_from_charpoly(char_poly(incidence_matrix(paper12)), ws.direct)
    assert rec.order == 12
    for n in range(12, 21):
        assert holds_at(rec, ws.direct, n), f"recurrence fails at n={n}"
    ok(3, "u^T M^n theta matches literal degrees (n<=8) and the order-12 recurrence (12<=n<=20)")


def test_c04_weight_convention_diagnostic(paper12):
    ws = weight_sequence(paper12, incidence_matrix(paper12), fixed_point_prefix(paper12, 1), 20)
    assert ws.transposed[:3] == EQ_LIST_HEAD
    assert ws.direct[:3] == DIRECT_HEAD
    doc, _ = analyze(paper12, AnalysisConfig(), "gallery/paper12.morph")
    weights_doc = doc["diagnostics"]["weights"]
    assert weights_doc["convention_mismatch"] is True
    assert weights_doc["first_divergence"] == 1
    assert any("conventions disagree" in w for w in doc["diagnostics"]["warnings"])
    ok(4, "transposed sequence starts 1,9,40; direct starts 1,7,30; mismatch diagnostic emitted")


def test_c05_s_set_regression(paper12):
    prefix = fixed_point_prefix(paper12, 8)
    s = s_set(paper12, prefix)
    assert s.head(9) == S_SET_HEAD
    ok(5, "position-degree set begins 0,1,3,5,7,8,10,12,14")


def test_c06_window_and_prefix_checks(paper12):
    t0 = time.perf_counter()
    w6 = apply_n(paper12, chr(paper12.start), 6)
    assert every_window_contains(w6, paper12.start, 16, paper12.size)
    for a in range(12):
        assert apply_n(paper12, chr(a), 2)[0] == chr(paper12.start)
    prefix = fixed_point_prefix(paper12, 4**6 + 4**5).word
    for n in range(1, 6):
        cat = apply_n(paper12, chr(paper12.start), n + 1) + apply_n(
            paper12, chr(paper12.start), n
        )
        assert prefix.startswith(cat), f"prefix identity fails at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(6, f"16-letter windows, phi^2 heads, and prefix identities verified in {elapsed:.2f}s")


def test_c07_rotation_and_lie_audit(paper12, periodic_ab):
    t0 = time.perf_counter()
    f = factor_closure(paper12, 12)
    audit = cyclic_rotation_audit(f, 12)
    assert audit.passed, f"counterexample: {paper12.decode(audit.counterexample)}"
    checked = 0
    for w in sorted_factors(f):
        if 2 <= len(w) <= 12:
            lie_decomposition(f, w)  # must not raise
            checked += 1
    assert checked == sum(f.counts[2:13])
    fp = factor_closure(periodic_ab, 4)
    bad = cyclic_rotation_audit(fp, 4)
    assert not bad.passed and len(bad.counterexample) == 2
    with pytest.raises(NoSplitError):
        lie_decomposition(fp, bad.counterexample)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(7, f"rotation+bracket audits pass on {checked} factors (2..12); periodic control fails in {elapsed:.2f}s")


def test_c08_graded_nilpotency_evidence(paper12, periodic_ab):
    t0 = time.perf_counter()
    prefix = level_prefix(paper12, 8)
    scan = graded_nilpotency_scan(paper12, scan_witnesses(paper12, prefix, 6), 8)
    for row in scan.rows:
        assert row.values[0] == row.values[1], f"degree {row.degree} not stabilized"
        assert row.stabilized
    prefix = level_prefix(periodic_ab, 8)
    growth = graded_nilpotency_scan(periodic_ab, scan_witnesses(periodic_ab, prefix, 2), 8)
    row2 = next(r for r in growth.rows if r.degree == 2)
    assert row2.values[1] > row2.values[0]
    assert row2.unbounded_within_sample
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ok(8, f"chain lengths stabilize across phi^7/phi^8 for d=1..6; degree-1 control grows, in {elapsed:.2f}s")


def test_c09_dictionary_regression(paper12, ba_example, periodic_ab, closure):
    def deciders(m, name, max_len, **kw):
        return run_deciders(m, classify_shape(m), closure(name, max_len), **kw)

    deps = deciders(paper12, "paper12", 16)
    rep = ring_property_report(deps)
    assert rep.prime.is_yes and not rep.prime.conditional
    assert rep.semiprime.is_yes
    assert rep.just_infinite.is_yes and not rep.just_infinite.conditional
    assert rep.pi.is_no and rep.pi.conditional
    assert rep.noetherian.is_no and rep.noetherian.conditional
    assert rep.gk_dimension == 2
    assert rep.jacobson_trivial.is_yes and rep.jacobson_trivial.conditional
    assert rep.primitive_algebra.is_yes and rep.primitive_algebra.conditional

    deps_ba = deciders(ba_example, "ba-example", 8)
    rep_ba = ring_property_report(deps_ba)
    assert rep_ba.prime.is_no and rep_ba.pi.is_yes and rep_ba.gk_dimension == 1

    deps_p = deciders(periodic_ab, "periodic-ab", 8)
    ep = deps_p.eventually_periodic
    assert ep.is_yes
    assert ep.certificate["preperiod"] == "" and ep.certificate["period"] == "a b"
    assert ring_property_report(deps_p).gk_dimension == 1
    ok(9, "ring dictionary matches on paper12, ba-example, and periodic-ab")


def test_c10_oracle_equivalence(fibonacci, thue_morse):
    for m, name in ((fibonacci, "fibonacci"), (thue_morse, "thue-morse")):
        f = factor_closure(m, 30)
        prefix = fixed_point_prefix(m, 10_000).word[:10_000]
        for n in range(0, 31):
            assert f.counts[n] == brute_factor_count(prefix, n), f"{name} n={n}"
    fib = factor_closure(fibonacci, 30)
    assert all(fib.counts[n] == n + 1 for n in range(1, 31))
    ok(10, "closure complexity equals brute-force counts (n<=30); Fibonacci p(n)=n+1")


def test_c11_algebra_view(paper12, ba_example, closure):
    f = closure("paper12", 12)
    words = [w for w in sorted_factors(f) if 1 <= len(w) <= 4]
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y, z = (MonomialElement.word(rng.choice(words)) for _ in range(3))
        assert multiply(f, multiply(f, x, y), z) == multiply(f, x, multiply(f, y, z))
    assert hilbert_function(f, 1) == 13
    fb = closure("ba-example", 12)
    b = MonomialElement.word(chr(ba_example.start))
    for u in sorted_factors(fb):
        if len(u) <= 10:
            assert multiply(fb, multiply(fb, b, MonomialElement.word(u)), b).is_zero
    ok(11, "associativity on 1000 triples; hilbert(1)=13; b.u.b = 0 on the one-occurrence control")


def test_c12_cli_determinism():
    cmd = [
        sys.executable,
        "-m",
        "iteralg",
        "analyze",
        "gallery/paper12.morph",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert list(doc.keys()) == [
        "morphism",
        "shape",
        "matrix",
        "word",
        "complexity",
        "properties",
        "graded",
        "diagnostics",
    ]
    ok(12, f"two fresh-process runs emit byte-identical JSON ({len(first.stdout)} bytes)")
