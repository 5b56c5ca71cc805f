from dataclasses import fields, replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iteralg import cli, deciders, report, words
from iteralg.config import AnalysisConfig
from iteralg.errors import ContractError, InvariantError
from iteralg.deciders import (
    RING_IMPLICATIONS,
    RING_PROPERTIES,
    RING_RULES,
    ComplexityClass,
    ComplexityResult,
    DeciderOutputs,
    PropertyReport,
    Verdict,
    VerdictValue,
    classify_complexity,
    decide_eventual_periodicity,
    decide_primitive,
    decide_uniform_recurrence,
    ring_property_report,
    run_deciders,
)
from iteralg.words import classify_shape, factor_closure, fixed_point_prefix

from conftest import (
    block_cover_reference,
    occurring_reference,
    periodicity_ladder_reference,
    ring_property_reference,
    small_morphisms,
)
from test_words import mk, spy_prefixes


def ur(m, *, k_max=6):
    return decide_uniform_recurrence(m, classify_shape(m), k_max=k_max)


# ---------------------------------------------------------------------------
# primitivity


def test_primitive_thue_morse(thue_morse):
    assert decide_primitive(thue_morse, classify_shape(thue_morse)).is_yes


def test_primitive_paper12(paper12):
    assert decide_primitive(paper12, classify_shape(paper12)).is_yes


def test_primitive_reducible():
    m = mk(["a", "b"], ["a b", "b"], "a")
    verdict = decide_primitive(m, classify_shape(m))
    assert verdict.is_no
    assert verdict.certificate["from"] == "b" and verdict.certificate["to"] == "a"


@settings(max_examples=50, deadline=None)
@given(small_morphisms())
def test_primitive_agrees_with_brute_force(m):
    verdict = decide_primitive(m, classify_shape(m))
    occ = sorted(occurring_reference(m))
    horizon = 2 * m.size * m.size
    produced = {}
    for a in occ:
        seen = set()
        word = [a]
        for _ in range(horizon):
            word = [ord(ch) for c in word for ch in m.images[c]]
            seen |= set(word)
            # cap blow-up: occurrence set of phi^n stabilizes on support
            word = sorted(set(word))
        produced[a] = seen
    brute = all(set(occ) <= produced[a] for a in occ)
    assert verdict.is_yes == brute


def test_analyze_decides_primitivity_once(monkeypatch, paper12):
    calls = {"closure test": 0, "decide_primitive": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    closure_test = counted("closure test", words._unreachable_pair)
    monkeypatch.setattr(words, "_unreachable_pair", closure_test)
    monkeypatch.setattr(
        deciders, "decide_primitive", counted("decide_primitive", deciders.decide_primitive)
    )
    report.analyze(paper12, AnalysisConfig(max_len=8), "paper12")
    assert calls == {"closure test": 1, "decide_primitive": 1}


def test_every_primitivity_reader_runs_the_cross_check(monkeypatch, paper12, tmp_path):
    # a closure test that calls primitive paper12 reducible disagrees with
    # the start-reachability test on analyze, audit and decide ur
    monkeypatch.setattr(words, "_unreachable_pair", lambda graph, letters: (0, 1))
    cfg = AnalysisConfig(max_len=8)
    for run in (report.analyze, report.audit):
        with pytest.raises(InvariantError, match="start-reachability"):
            run(paper12, cfg, "paper12")
    path = tmp_path / "paper12.morph"
    path.write_text(cli.gallery_text("paper12"))
    assert cli.main(["decide", str(path), "ur"]) == cli.EXIT_PARSE


# ---------------------------------------------------------------------------
# eventual periodicity


def test_periodic_ab(periodic_ab, closure):
    f = closure("periodic-ab", 8)
    v = decide_eventual_periodicity(periodic_ab, f)
    assert v.is_yes and not v.conditional
    assert v.certificate["preperiod"] == "" and v.certificate["period"] == "a b"
    assert v.certificate["mh_length"] == 2


def test_periodic_ba(ba_example, closure):
    f = closure("ba-example", 8)
    v = decide_eventual_periodicity(ba_example, f)
    assert v.is_yes
    assert v.certificate["preperiod"] == "b" and v.certificate["period"] == "a"


def test_fibonacci_aperiodic_conditional(fibonacci, closure):
    f = closure("fibonacci", 64)
    v = decide_eventual_periodicity(fibonacci, f)
    assert v.is_no and v.conditional and v.bound == 64


def test_periodicity_needs_a_factor_bound_of_at_least_one(paper12):
    f = factor_closure(paper12, 0)
    with pytest.raises(ContractError):
        decide_eventual_periodicity(paper12, f)
    with pytest.raises(ContractError):
        run_deciders(paper12, classify_shape(paper12), f)


def test_periodicity_rejects_a_flat_step_that_no_period_reproduces(fibonacci):
    # a factor set with p(0) = p(1) = 1 claims x = a^omega, and phi(a) = a b
    f = words.FactorSet(max_len=2, words=(fibonacci.encode("a a"), fibonacci.encode("a b")),
                        closure_rounds=0)
    with pytest.raises(InvariantError, match="Morse-Hedlund"):
        decide_eventual_periodicity(fibonacci, f)


def test_periodicity_certificate_reproduces_prefix(periodic_ab, ba_example, closure):
    for m, name in ((periodic_ab, "periodic-ab"), (ba_example, "ba-example")):
        v = decide_eventual_periodicity(m, closure(name, 8))
        pre = m.encode(v.certificate["preperiod"])
        per = m.encode(v.certificate["period"])
        need = v.certificate["verified_letters"]
        reps = pre + per * (need // max(len(per), 1) + 1)
        prefix = fixed_point_prefix(m, need).word
        assert prefix[:need] == reps[:need]


def late_period():
    """a -> a c1, c_i -> c_(i+1), c40 -> p, p -> p: one letter a generation,
    so the period p starts only after 41 letters."""
    chain = [f"c{i}" for i in range(1, 41)]
    return mk(["a", *chain, "p"], ["a c1", *chain[1:], "p", "p"], "a")


def test_periodicity_reads_a_first_repeat_prefix(monkeypatch, periodic_ab, ba_example, closure):
    """The first flat step p(k+1) = p(k) puts the minimal pair within p(k) + k
    letters: the decider builds only those and finds the pair of a
    4^8-letter prefix."""
    calls = spy_prefixes(monkeypatch, (deciders,))
    late = late_period()
    cases = [(periodic_ab, closure("periodic-ab", 8)), (ba_example, closure("ba-example", 8)),
             (late, factor_closure(late, 64))]
    for m, f in cases:
        calls.clear()
        v = decide_eventual_periodicity(m, f)
        assert v.is_yes
        k = next(k for k in range(f.max_len) if f.counts[k + 1] == f.counts[k])
        assert calls == [(f.counts[k] + k, False)]
        assert v == periodicity_ladder_reference(m, f)
    assert v.certificate["period"] == "p" and v.certificate["mh_length"] == 42  # late's


def test_late_period_is_found_at_every_bound():
    """late's p(1) = p(2) = 42: the flat step decides Yes at any bound L >= 2,
    with mh_length past the bound, and the certificate of L = 64."""
    late = late_period()
    expected = decide_eventual_periodicity(late, factor_closure(late, 64)).certificate
    assert (expected["mh_length"], expected["verified_letters"]) == (42, 44)
    for max_len in (2, 8, 16, 32, 41, 64):
        v = decide_eventual_periodicity(late, factor_closure(late, max_len))
        assert v.is_yes and not v.conditional and v.bound == max_len
        assert v.certificate == expected


@settings(max_examples=120, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=1, max_value=12))
def test_periodicity_matches_the_prefix_ladder(m, max_len):
    f = factor_closure(m, max_len)
    v = decide_eventual_periodicity(m, f)
    assert v == periodicity_ladder_reference(m, f)
    if v.is_yes:
        pre, per = (len(m.encode(v.certificate[k])) for k in ("preperiod", "period"))
        assert pre + per <= v.certificate["mh_length"]


@settings(max_examples=120, deadline=None)
@given(small_morphisms(allow_erasing=True), st.integers(min_value=1, max_value=6))
def test_periodicity_yes_keeps_its_certificate_at_twice_the_bound(m, max_len):
    # small bounds reach flat steps with p(k) > L, where mh_length passes L
    v = decide_eventual_periodicity(m, factor_closure(m, max_len))
    if v.is_yes:
        wider = decide_eventual_periodicity(m, factor_closure(m, 2 * max_len))
        assert wider.is_yes and wider.certificate == v.certificate


# ---------------------------------------------------------------------------
# uniform recurrence


def test_ur_paper12_block_cover(paper12):
    v = ur(paper12)
    assert v.is_yes and not v.conditional
    assert v.certificate["witness"] == "block-cover"
    assert v.certificate["k"] == 2
    assert v.certificate["start_gap_bound"] == 16


def test_ur_ba_occurs_once(ba_example):
    v = ur(ba_example)
    assert v.is_no and v.certificate["witness"] == "start-letter-occurs-once"


def test_ur_thue_morse_via_primitivity(thue_morse):
    v = ur(thue_morse)
    assert v.is_yes and v.certificate["witness"] == "primitive"


def test_ur_growing_start_free_branch():
    # start occurs twice but c-blocks are start-free and grow without bound
    m = mk(["a", "c"], ["a c a", "c c"], "a")
    v = ur(m)
    assert v.is_no and v.certificate["witness"] == "growing-start-free-branch"


def test_ur_unknown_case():
    # every b sits between two a's: not pushy, and no test decides it
    m = mk(["a", "b"], ["a a b a", "b"], "a")
    assert not classify_shape(m).pushy
    v = ur(m)
    assert v.is_unknown and v.bound == 6


@settings(max_examples=200, deadline=None)
@given(small_morphisms(allow_erasing=True))
def test_pushy_never_meets_a_uniform_recurrence_yes(m):
    """A block cover or primitivity makes every occurring letter produce the
    growing start letter, so no bounded letter occurs and the word is not pushy."""
    shape = classify_shape(m)
    if shape.pushy:
        assert block_cover_reference(m, shape.occurring, 6) is None
        assert not shape.primitive
        assert ur(m).is_no


def test_ur_block_cover_witness_scans(paper12):
    v = ur(paper12)
    gap = v.certificate["start_gap_bound"]
    max_block = v.certificate["max_block"]
    prefix = fixed_point_prefix(paper12, 4 * max_block * 16).word
    windows = (
        prefix[i : i + gap] for i in range(0, len(prefix) - gap + 1)
    )
    assert all(chr(paper12.start) in w for w in windows)


@settings(max_examples=200, deadline=None)
@given(small_morphisms(allow_erasing=True), st.sampled_from([1, 3, 6]))
def test_block_cover_matches_word_expansion(m, k_max):
    """The block-cover certificate read off lengths and first letters is the one
    that building every phi^k(a) as a word finds."""
    shape = classify_shape(m)
    v = ur(m, k_max=k_max)
    found = block_cover_reference(m, shape.occurring, k_max)
    if found is None:
        assert v.certificate.get("witness") != "block-cover"
    else:
        k, max_block = found
        window = shape.d_uniform**k if shape.d_uniform is not None else 2 * max_block
        assert v.certificate == {
            "witness": "block-cover", "k": k, "max_block": max_block, "start_gap_bound": window
        }


# ---------------------------------------------------------------------------
# complexity classification


def test_complexity_paper12(paper12, closure):
    f = closure("paper12", 16)
    ep = decide_eventual_periodicity(paper12, f)
    r = classify_complexity(classify_shape(paper12), ep)
    assert r.complexity_class is ComplexityClass.LINEAR
    assert r.gk_dimension == 2 and r.conditional and r.method == "d-uniform-aperiodic"


def test_complexity_periodic(periodic_ab, closure):
    f = closure("periodic-ab", 8)
    ep = decide_eventual_periodicity(periodic_ab, f)
    r = classify_complexity(classify_shape(periodic_ab), ep)
    assert r.complexity_class is ComplexityClass.CONSTANT
    assert r.gk_dimension == 1 and not r.conditional


def test_complexity_fibonacci(fibonacci, closure):
    f = closure("fibonacci", 16)
    ep = decide_eventual_periodicity(fibonacci, f)
    r = classify_complexity(classify_shape(fibonacci), ep)
    assert r.complexity_class is ComplexityClass.LINEAR
    assert r.gk_dimension == 2 and r.method == "primitive-aperiodic"


def test_complexity_heuristic_path():
    # the input a float fit once classified: the runs of b grow by one letter
    # each generation, so the word is pushy and p(n) = Theta(n^2)
    m = mk(["a", "b"], ["a a b", "b"], "a")
    f = factor_closure(m, 24)
    ep = decide_eventual_periodicity(m, f)
    assert ep.is_no
    r = classify_complexity(classify_shape(m), ep)
    assert r.complexity_class is ComplexityClass.QUADRATIC
    assert r.gk_dimension == 3 and r.method == "pushy-aperiodic"
    assert r.conditional == ep.conditional


def test_complexity_not_pushy():
    # a -> a a b a, b -> b: each b sits between two a's, so no run of b is
    # longer than one letter
    m = mk(["a", "b"], ["a a b a", "b"], "a")
    ep = decide_eventual_periodicity(m, factor_closure(m, 24))
    assert ep.is_no
    r = classify_complexity(classify_shape(m), ep)
    assert r.complexity_class is ComplexityClass.AT_MOST_N_LOG_N
    assert r.gk_dimension == 2 and r.method == "non-pushy-aperiodic"
    assert r.conditional == ep.conditional


@pytest.mark.parametrize("max_len", [32, 64])
def test_gk_dimension_of_slowly_growing_bounded_runs(max_len):
    # the runs of b b, c, c, ... grow by two letters a generation, which a fit
    # of p(n) up to 32 read as Theta(n log n)
    m = mk(list("abcdef"), ["a a d", "c", "c", "b b", "e e f", "a"], "a")
    doc, props = report.analyze(m, AnalysisConfig(max_len=max_len, prefix_letters=4**7), "-")
    assert props.gk_dimension == 3
    assert doc["complexity"]["class"] == "Theta(n^2)"
    assert doc["complexity"]["method"] == "pushy-aperiodic"


# ---------------------------------------------------------------------------
# ring dictionary


def test_report_paper12(paper12, closure):
    deps = run_deciders(paper12, classify_shape(paper12), closure("paper12", 16))
    rep = ring_property_report(deps)
    assert rep.prime.is_yes and not rep.prime.conditional
    assert rep.semiprime.value == rep.prime.value
    assert rep.just_infinite.is_yes and not rep.just_infinite.conditional
    assert rep.pi.is_no and rep.pi.conditional
    assert rep.noetherian.is_no and rep.noetherian.conditional
    assert rep.gk_dimension == 2
    assert rep.jacobson_trivial.is_yes and rep.jacobson_trivial.conditional
    assert rep.primitive_algebra.is_yes and rep.primitive_algebra.conditional


def test_report_ba(ba_example, closure):
    deps = run_deciders(ba_example, classify_shape(ba_example), closure("ba-example", 8))
    rep = ring_property_report(deps)
    assert rep.prime.is_no
    assert rep.prime.certificate["witness"] == "nilpotent-ideal"
    assert rep.pi.is_yes and rep.noetherian.is_yes
    assert rep.gk_dimension == 1
    assert rep.primitive_algebra.is_no


def test_report_fibonacci(fibonacci, closure):
    deps = run_deciders(fibonacci, classify_shape(fibonacci), closure("fibonacci", 16))
    rep = ring_property_report(deps)
    assert rep.prime.is_yes
    assert rep.just_infinite.is_yes
    assert rep.pi.is_no and rep.pi.conditional


@settings(max_examples=30, deadline=None)
@given(small_morphisms(allow_erasing=True))
def test_dictionary_coherence(m):
    f = factor_closure(m, 8)
    deps = run_deciders(m, classify_shape(m), f)
    rep = ring_property_report(deps)
    assert rep == ring_property_reference(deps)
    assert not deps.prime.conditional
    assert rep.semiprime.value == rep.prime.value
    assert rep.pi.value == rep.noetherian.value
    assert (rep.gk_dimension == 1) == (
        rep.complexity_class is ComplexityClass.CONSTANT
    )


def test_ring_table_matches_reference_on_every_premise_combination():
    states = [(v, c) for v in VerdictValue for c in (False, True)]
    complexity = ComplexityResult(ComplexityClass.LINEAR, 2, True, "d-uniform-aperiodic")
    verdict_fields = [f.name for f in fields(PropertyReport) if f.type == "Verdict"]
    for (pv, pc), (uv, uc), (ev, ec) in product(states, repeat=3):
        prime = Verdict(pv, pc, {"witness": "p"}, 3)
        ur_ = Verdict(uv, uc, {"witness": "u"}, 5)
        ep = Verdict(ev, ec, {"witness": "e"}, 7)
        deps = DeciderOutputs(ur_, ep, ur_, complexity, prime)
        rep, ref = ring_property_report(deps), ring_property_reference(deps)
        if pv is VerdictValue.NO and pc:
            # "not prime" inherits prime's flag in the table; decide_prime is
            # exact, so no input reaches this (test_dictionary_coherence)
            assert rep.primitive_algebra.conditional and not ref.primitive_algebra.conditional
            ref = replace(ref, primitive_algebra=replace(ref.primitive_algebra, conditional=True))
        assert rep == ref, (prime, ur_, ep)
        assert rep.has_unknown == any(getattr(rep, p).is_unknown for p in verdict_fields)


def test_ring_table_reads_only_word_verdicts_and_earlier_properties():
    word_verdicts = [f.name for f in fields(DeciderOutputs) if f.type == "Verdict"]
    reads = {name: [source] for name, (source, _) in RING_RULES.items()}
    for name, (_, implications) in RING_IMPLICATIONS.items():
        reads[name] = [p for _, premises, _ in implications for p in premises]
    assert RING_PROPERTIES[0] in word_verdicts
    for name, sources in reads.items():
        earlier = RING_PROPERTIES[: RING_PROPERTIES.index(name)]
        assert all(s in word_verdicts or s in earlier for s in sources), name
    report_verdicts = [f.name for f in fields(PropertyReport) if f.type == "Verdict"]
    assert report_verdicts == list(RING_PROPERTIES)


@settings(max_examples=25, deadline=None)
@given(small_morphisms())
def test_budget_monotonicity(m):
    small = factor_closure(m, 6)
    large = factor_closure(m, 12)
    ep_small = decide_eventual_periodicity(m, small)
    ep_large = decide_eventual_periodicity(m, large)
    # unconditional verdicts never flip; conditional ones may only resolve
    if not ep_small.conditional:
        assert ep_small.value == ep_large.value
    ur_small = ur(m, k_max=3)
    ur_large = ur(m, k_max=6)
    if not ur_small.is_unknown:
        assert ur_small.value == ur_large.value
