"""Three-valued decision procedures for word properties and the ring dictionary.

Every Yes/No verdict carries a machine-checkable certificate; bounded
searches that end inconclusively return Unknown with the exhausted bound.
A "conditional" verdict rests on a bounded search rather than a closed-form
certificate and is never presented as certified.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .config import DEFAULT_K_MAX
from .errors import ContractError, InvariantError
from .words import (
    FactorSet,
    Morphism,
    ShapeRecord,
    Word,
    fixed_point_prefix,
)


class VerdictValue(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


class Verdict(NamedTuple):
    value: VerdictValue
    conditional: bool
    certificate: dict
    bound: int | None = None

    @staticmethod
    def yes(certificate: dict, *, conditional: bool = False, bound: int | None = None) -> "Verdict":
        return Verdict(VerdictValue.YES, conditional, certificate, bound)

    @staticmethod
    def no(certificate: dict, *, conditional: bool = False, bound: int | None = None) -> "Verdict":
        return Verdict(VerdictValue.NO, conditional, certificate, bound)

    @staticmethod
    def unknown(bound: int | None = None, note: str | None = None) -> "Verdict":
        cert = {"note": note} if note else {}
        return Verdict(VerdictValue.UNKNOWN, True, cert, bound)

    @property
    def is_yes(self) -> bool:
        return self.value is VerdictValue.YES

    @property
    def is_no(self) -> bool:
        return self.value is VerdictValue.NO

    @property
    def is_unknown(self) -> bool:
        return self.value is VerdictValue.UNKNOWN


class ComplexityClass(enum.Enum):
    CONSTANT = "O(1)"
    LINEAR = "Theta(n)"
    AT_MOST_N_LOG_N = "O(n log n)"
    QUADRATIC = "Theta(n^2)"


class ComplexityResult(NamedTuple):
    complexity_class: ComplexityClass
    gk_dimension: int
    conditional: bool
    method: str


class PropertyReport(NamedTuple):
    prime: Verdict
    semiprime: Verdict
    just_infinite: Verdict
    pi: Verdict
    noetherian: Verdict
    jacobson_trivial: Verdict
    primitive_algebra: Verdict
    gk_dimension: int
    complexity_class: ComplexityClass

    @property
    def has_unknown(self) -> bool:
        return any(getattr(self, p).is_unknown for p in RING_PROPERTIES)


class DeciderOutputs(NamedTuple):
    primitive: Verdict
    eventually_periodic: Verdict
    uniformly_recurrent: Verdict
    complexity: ComplexityResult
    prime: Verdict


# ---------------------------------------------------------------------------
# primitivity


def decide_primitive(m: Morphism, shape: ShapeRecord) -> Verdict:
    """Irreducibility of the incidence structure over the occurring letters,
    as ``classify_shape`` decided and cross-checked it."""
    if shape.primitive:
        return Verdict.yes(
            {
                "witness": "support-closure",
                "letters": [m.letters[a] for a in sorted(shape.occurring)],
            }
        )
    a, b = shape.unreachable
    return Verdict.no(
        {
            "witness": "unreachable-pair",
            "from": m.letters[a],
            "to": m.letters[b],
        }
    )


# ---------------------------------------------------------------------------
# eventual periodicity


def _periodic_stream(preperiod: Word, period: Word, length: int) -> Word:
    """The first ``length`` > |preperiod| letters of preperiod period^omega."""
    return (preperiod + period * ((length - len(preperiod)) // len(period) + 1))[:length]


def decide_eventual_periodicity(m: Morphism, f: FactorSet) -> Verdict:
    """Morse-Hedlund on the exact p(n), n <= L = ``f.max_len``: the fixed
    point x is eventually periodic iff p(k+1) = p(k) for some k.  At the
    least such k < L, the minimal pair is read off the first repeated
    length-k window of x, so only p(k) + k letters of x are built.

    Lemma.  If p(k+1) = p(k), every length-k factor has exactly one right
    extension, so x[i:] is determined by x[i:i+k], and p(n) = p(k) for
    every n >= k.
    - The p(k) + 1 windows at positions 0..p(k) take at most p(k) values,
      so a first repeat exists at some j <= p(k), equal to the window at
      some i < j, and x[i:] = x[j:].
    - The least period of x[i:] is j - i: a shorter one would repeat
      window i before position j.
    - The preperiod is exactly i: were x[i':] periodic for some i' < i, its
      least period would also be j - i, and windows i' and i' + j - i < j
      would be equal, against j being the first repeat.
    So (x[:i], x[i:j]) is the minimal (preperiod, period) pair.

    Yes is unconditional: u v^omega = x[:i] x[i:j]^omega starts with the
    start letter and is checked to equal phi(u) phi(v)^omega, as two
    eventually periodic words, over max(|u|, |phi(u)|) + lcm(|v|, |phi(v)|)
    + |v| letters.  Its ``mh_length`` is p(k), the least n with p(n) <= n,
    which can exceed the bound when p steps flat before reaching n.  No
    means p(n+1) > p(n) for every n < L and is conditional on L.  L = 0 is
    rejected.
    """
    bound = f.max_len
    if bound < 1:
        raise ContractError("eventual periodicity needs a factor bound of at least 1")
    p = f.counts
    k = next((k for k in range(bound) if p[k + 1] == p[k]), None)
    if k is None:
        return Verdict.no(
            {"witness": "complexity-exceeds-n", "checked_up_to": bound},
            conditional=True,
            bound=bound,
        )
    x = fixed_point_prefix(m, p[k] + k).word
    first: dict[Word, int] = {}
    for j in range(p[k] + 1):
        i = first.setdefault(x[j : j + k], j)
        if i < j:
            break
    pre, per = x[:i], x[i:j]
    img_pre, img_per = m.apply(pre), m.apply(per)
    need = max(len(pre), len(img_pre)) + math.lcm(len(per), len(img_per)) + len(per)
    if _periodic_stream(pre, per, need) != _periodic_stream(img_pre, img_per, need):
        raise InvariantError(
            "complexity says eventually periodic but the first repeated window "
            "gives no verified period; this contradicts Morse-Hedlund"
        )
    return Verdict.yes(
        {
            "preperiod": m.decode(pre),
            "period": m.decode(per),
            "mh_length": p[k],
            "verified_letters": need,
        },
        bound=bound,
    )


# ---------------------------------------------------------------------------
# uniform recurrence


def decide_uniform_recurrence(
    m: Morphism,
    shape: ShapeRecord,
    *,
    k_max: int = DEFAULT_K_MAX,
) -> Verdict:
    """Block-cover and primitivity sufficient tests, structural refutations.

    Block cover: if phi^k(a) begins with the start letter for every occurring
    a, the fixed point is a concatenation of such blocks and every factor
    recurs within a bounded window.  Only the length and first letter of each
    phi^k(a) are read, by recurrences over the images, so no block is built.
    Refutations: the start letter occurring exactly once
    (``shape.start_recurs`` false), a growing occurring letter that never
    produces it, or a pushy word (``shape.pushy``): the start letter grows,
    so the arbitrarily long factors over bounded letters avoid it.
    """
    occ = sorted(shape.occurring)
    b = m.start
    images = [list(map(ord, img)) for img in m.images]
    lengths = [1] * m.size  # |phi^k(c)| for every letter c
    firsts: list[int | None] = list(range(m.size))  # first letter of phi^k(c), None if empty
    for k in range(1, k_max + 1):  # firsts at k reads the lengths at k - 1
        firsts = [next((firsts[c] for c in img if lengths[c]), None) for img in images]
        lengths = [sum(map(lengths.__getitem__, img)) for img in images]
        if all(firsts[a] == b for a in occ):
            max_block = max(lengths[a] for a in occ)
            window = (
                shape.d_uniform**k if shape.d_uniform is not None else 2 * max_block
            )
            return Verdict.yes(
                {
                    "witness": "block-cover",
                    "k": k,
                    "max_block": max_block,
                    "start_gap_bound": window,
                },
                bound=k_max,
            )

    if shape.primitive:
        return Verdict.yes({"witness": "primitive"}, bound=k_max)

    if not shape.start_recurs:
        return Verdict.no(
            {
                "witness": "start-letter-occurs-once",
                "letter": m.letters[b],
            }
        )
    for a in occ:
        if shape.growing[a] and b != a and not m.letter_graph.reaches(a, b):
            return Verdict.no(
                {
                    "witness": "growing-start-free-branch",
                    "letter": m.letters[a],
                }
            )
    if shape.pushy:
        return Verdict.no({"witness": "pushy", "letter": m.letters[b]})
    return Verdict.unknown(bound=k_max)


# ---------------------------------------------------------------------------
# complexity classification


def classify_complexity(shape: ShapeRecord, ep: Verdict) -> ComplexityResult:
    """Complexity class and GK dimension from the periodicity Yes or No.

    Eventually periodic words have bounded complexity and dimension one.
    Aperiodic primitive or uniform morphisms have linear complexity and
    dimension two.  Any other aperiodic word has p(n) = Theta(n^2), and
    dimension three, iff it is pushy (``shape.pushy``), and p(n) = O(n log n),
    dimension two, otherwise (Pansiot, ICALP 1984).
    """
    if ep.is_yes:
        return ComplexityResult(
            ComplexityClass.CONSTANT, 1, ep.conditional, "eventually-periodic"
        )
    if shape.d_uniform is not None and shape.d_uniform >= 2:
        return ComplexityResult(
            ComplexityClass.LINEAR, 2, ep.conditional, "d-uniform-aperiodic"
        )
    if shape.primitive:
        return ComplexityResult(
            ComplexityClass.LINEAR, 2, ep.conditional, "primitive-aperiodic"
        )
    if shape.pushy:
        return ComplexityResult(
            ComplexityClass.QUADRATIC, 3, ep.conditional, "pushy-aperiodic"
        )
    return ComplexityResult(
        ComplexityClass.AT_MOST_N_LOG_N, 2, ep.conditional, "non-pushy-aperiodic"
    )


# ---------------------------------------------------------------------------
# ring dictionary


# An iff property: the word verdict it is read off, and the rule that reads it.
RING_RULES = {
    "semiprime": ("prime", "semiprime-iff-prime"),
    "just_infinite": ("uniformly_recurrent", "just-infinite-iff-uniformly-recurrent"),
    "pi": ("eventually_periodic", "pi-iff-eventually-periodic"),
    "noetherian": ("eventually_periodic", "noetherian-iff-eventually-periodic"),
}

# A property implied by earlier ones: its Unknown note, and its implications
# (value, the premise verdicts and the values they must have, certificate),
# tried in order.
_YES, _NO = VerdictValue.YES, VerdictValue.NO
RING_IMPLICATIONS = {
    "jacobson_trivial": (
        "implication applies only to uniformly recurrent aperiodic words",
        [(_YES, {"uniformly_recurrent": _YES, "eventually_periodic": _NO},
          {"witness": "uniformly-recurrent-and-aperiodic"})],
    ),
    "primitive_algebra": (
        "needs prime, non-PI and trivial radical",
        [(_NO, {"prime": _NO}, {"witness": "not-prime", "via": "primitive-implies-prime"}),
         (_YES, {"prime": _YES, "pi": _NO, "jacobson_trivial": _YES},
          {"witness": "prime-non-pi-semiprimitive"})],
    ),
}

# The ring properties in report order; each reads only word verdicts and
# the properties before it.
RING_PROPERTIES = ("prime", *RING_RULES, *RING_IMPLICATIONS)


def _via(v: Verdict, rule: str) -> Verdict:
    """v relabelled as a ring property read off it by ``rule``."""
    return Verdict(v.value, v.conditional, {**v.certificate, "via": rule}, v.bound)


def _implied(known: dict, note: str, implications) -> Verdict:
    """The first implication whose premises in ``known`` all have their
    stated values, conditional when any premise is; Unknown with ``note``
    when none applies."""
    for value, premises, certificate in implications:
        if all(known[p].value is v for p, v in premises.items()):
            return Verdict(value, any(known[p].conditional for p in premises), dict(certificate))
    return Verdict.unknown(note=note)


def decide_prime(m: Morphism, shape: ShapeRecord) -> Verdict:
    """Prime iff the start letter occurs at least twice in the fixed point.

    ``shape.start_recurs`` decides that exactly.
    """
    b_name = m.letters[m.start]
    if shape.start_recurs:
        return Verdict.yes(
            {"witness": "start-occurs-at-least-twice", "letter": b_name}
        )
    return Verdict.no(
        {
            "witness": "nilpotent-ideal",
            "generator": b_name,
            "reason": f"{b_name} occurs exactly once, so {b_name}..{b_name} is never a factor",
        }
    )


def ring_property_report(deps: DeciderOutputs) -> PropertyReport:
    """Map word-level verdicts to ring-theoretic ones by ``RING_RULES`` and
    ``RING_IMPLICATIONS``.

    Prime is the exact decider's verdict; the rules relabel a word verdict,
    and the implications leave a property Unknown outside their premises.
    """
    known = deps._asdict()
    for name, (source, rule) in RING_RULES.items():
        known[name] = _via(known[source], rule)
    for name, (note, implications) in RING_IMPLICATIONS.items():
        known[name] = _implied(known, note, implications)
    return PropertyReport(
        **{p: known[p] for p in RING_PROPERTIES},
        gk_dimension=deps.complexity.gk_dimension,
        complexity_class=deps.complexity.complexity_class,
    )


def run_deciders(
    m: Morphism,
    shape: ShapeRecord,
    f: FactorSet,
    *,
    k_max: int = DEFAULT_K_MAX,
) -> DeciderOutputs:
    """Run the full decider battery over one letter record and factor set."""
    prim = decide_primitive(m, shape)
    ep = decide_eventual_periodicity(m, f)
    ur = decide_uniform_recurrence(m, shape, k_max=k_max)
    comp = classify_complexity(shape, ep)
    return DeciderOutputs(
        primitive=prim,
        eventually_periodic=ep,
        uniformly_recurrent=ur,
        complexity=comp,
        prime=decide_prime(m, shape),
    )


__all__ = [
    "VerdictValue",
    "Verdict",
    "ComplexityClass",
    "ComplexityResult",
    "PropertyReport",
    "DeciderOutputs",
    "decide_primitive",
    "decide_prime",
    "decide_eventual_periodicity",
    "decide_uniform_recurrence",
    "classify_complexity",
    "ring_property_report",
    "run_deciders",
    "RING_RULES",
    "RING_IMPLICATIONS",
    "RING_PROPERTIES",
]
