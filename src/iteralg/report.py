"""Deterministic report documents for the analyze/audit pipelines.

Key order is fixed, set-like data is sorted, and every integer that can grow
with the input is serialized as a decimal string, so identical inputs yield
byte-identical output.
"""

from __future__ import annotations

import json
import math

from . import algebra, graded
from .config import DEFAULT_EMBEDDED_AUDIT_LEN, AnalysisConfig
from .deciders import (
    RING_PROPERTIES,
    ComplexityResult,
    PropertyReport,
    Verdict,
    decide_uniform_recurrence,
    ring_property_report,
    run_deciders,
)
from .errors import ContractError, InvariantError, ResourceBudgetError
from .matrices import (
    CharPoly,
    IncidenceMatrix,
    WeightSequences,
    char_poly,
    incidence_matrix,
    recurrence_from_charpoly,
    weight_sequence,
)
from .words import (
    FactorSet,
    Morphism,
    ShapeRecord,
    WordPrefix,
    classify_shape,
    factor_closure,
    fixed_point_prefix,
)

HEAD_LETTERS = 32
S_PREFIX_SHOWN = 32
HILBERT_SHOWN = 16
WEIGHT_TERMS = 20


def _s(x: int) -> str:
    return str(int(x))


def verdict_doc(v: Verdict) -> dict:
    return {
        "value": v.value.value,
        "conditional": v.conditional,
        "certificate": v.certificate,
        "bound": v.bound,
    }


def _morphism_doc(m: Morphism, source: str) -> dict:
    return {
        "source": source,
        "letters": list(m.letters),
        "start": m.letters[m.start],
        "images": {m.letters[i]: m.decode(m.images[i]) for i in range(m.size)},
        "degrees": {m.letters[i]: m.degrees[i] for i in range(m.size)},
        "explicit_grading": m.explicit_grading,
    }


def _shape_doc(m: Morphism, shape: ShapeRecord) -> dict:
    return {
        "d_uniform": shape.d_uniform,
        "erasing": shape.erasing,
        "growing": {m.letters[i]: shape.growing[i] for i in range(m.size)},
        "all_growing": shape.all_growing,
    }


def _matrix_doc(M: IncidenceMatrix, poly: CharPoly, shape: ShapeRecord) -> dict:
    doc = {
        "size": M.size,
        "entries": [[_s(e) for e in row] for row in M.rows],
        "trace": _s(M.trace()),
        "column_sums": [_s(c) for c in M.column_sums()],
        "char_poly": {
            "degree": poly.degree,
            "coefficients_high_to_low": [_s(c) for c in poly.high_to_low()],
            "cayley_hamilton_verified": True,
        },
    }
    if shape.d_uniform is not None:
        doc["char_poly"]["value_at_d"] = _s(poly.evaluate(shape.d_uniform))
    return doc


def _word_doc(m: Morphism, prefix: WordPrefix, f: FactorSet) -> dict:
    complexity = [f.counts[n] for n in range(min(f.max_len, 32) + 1)]
    return {
        "prefix_letters": len(prefix.word),
        "generation_level": prefix.generation_level,
        "head": m.decode(prefix.word[:HEAD_LETTERS]),
        "factors": {
            "max_len": f.max_len,
            "exact": f.exact,
            "closure_rounds": f.closure_rounds,
            "complexity": complexity,
        },
    }


def _complexity_doc(result: ComplexityResult, f: FactorSet) -> dict:
    top = min(HILBERT_SHOWN, f.max_len)
    hilbert = [_s(algebra.hilbert_function(f, n)) for n in range(top + 1)]
    return {
        "class": result.complexity_class.value,
        "gk_dimension": result.gk_dimension,
        "conditional": result.conditional,
        "method": result.method,
        "hilbert": hilbert,
    }


def _properties_doc(report: PropertyReport) -> dict:
    return {
        **{p: verdict_doc(getattr(report, p)) for p in RING_PROPERTIES},
        "gk_dimension": report.gk_dimension,
        "complexity_class": report.complexity_class.value,
    }


def _graded_audit(
    s: graded.PositionDegreeSet,
    f: FactorSet,
    d_max: int,
    audit_len: int,
    previous: bool = False,
) -> tuple[dict, list[graded.ChainWitness]]:
    """The s_prefix, chains, rotation_audit and lie entries, and each degree's
    chain witness, taken with ``previous`` for the nilpotency scan.

    Both audits read factors of length 2..audit_len; below 2 they are skipped.
    """
    m = s.morphism
    chains = []
    witnesses = []
    for d in range(1, d_max + 1):
        witness = graded.max_homogeneous_chain(s, f, d, previous)
        witnesses.append(witness)
        chains.append(
            {
                "d": d,
                "max_r": witness.length,
                "witness": {
                    "start": _s(witness.start_value),
                    "pieces": [m.decode(p) for p in s.pieces(witness, 8)],
                },
            }
        )
    if audit_len >= 2:
        rotation = graded.cyclic_rotation_audit(f, audit_len)
        rotation_doc = {
            "max_len": rotation.max_len,
            "pass": rotation.passed,
            "counterexample": m.decode(rotation.counterexample)
            if rotation.counterexample is not None
            else None,
            "per_length": {str(l): n for l, n in rotation.per_length},
        }
        lie_failures = [m.decode(w) for w in rotation.lie_failures]
        lie_doc = {
            "max_len": audit_len,
            "pass": not lie_failures,
            "failures": lie_failures,
        }
    else:
        rotation_doc = {"max_len": audit_len, "pass": None, "skipped": "factor bound below 2"}
        lie_doc = {"max_len": audit_len, "pass": None, "skipped": "factor bound below 2"}
    doc = {
        "s_prefix": [_s(v) for v in s.head(S_PREFIX_SHOWN)],
        "chains": chains,
        "rotation_audit": rotation_doc,
        "lie": lie_doc,
    }
    return doc, witnesses


def _graded_doc(m: Morphism, prefix: WordPrefix, f: FactorSet, cfg: AnalysisConfig) -> dict:
    audit_len = min(DEFAULT_EMBEDDED_AUDIT_LEN, f.max_len)
    s = graded.s_set(m, prefix)
    doc, witnesses = _graded_audit(s, f, cfg.d_max, audit_len, previous=True)
    scan = graded.graded_nilpotency_scan(m, witnesses, prefix.generation_level)
    scan_doc = {
        "levels": list(scan.levels),
        "degenerate_grading": scan.degenerate_grading,
        "table": [
            {
                "d": row.degree,
                "values": [_s(v) for v in row.values],
                "stabilized": row.stabilized,
                "unbounded_within_sample": row.unbounded_within_sample,
            }
            for row in scan.rows
        ],
    }
    dims = [_s(v) for v in algebra.graded_dimensions(f, m.degrees, min(cfg.d_max, f.max_len))]
    return {**doc, "graded_dims": dims, "nilpotency_scan": scan_doc}


def _diagnostics_doc(poly: CharPoly, weights: WeightSequences) -> dict:
    rec = recurrence_from_charpoly(poly, weights.direct)
    mismatch = weights.first_divergence is not None
    warnings: list[str] = []
    if mismatch:
        warnings.append(
            "weight conventions disagree from n="
            f"{weights.first_divergence}: direct u^T M^n theta vs transposed "
            "u^T (M^T)^n theta; both sequences reported, neither preferred"
        )
    return {
        "weights": {
            "n_max": len(weights.direct) - 1,
            "direct": [_s(v) for v in weights.direct],
            "transposed": [_s(v) for v in weights.transposed],
            "cross_checked_upto": weights.cross_checked_upto,
            "convention_mismatch": mismatch,
            "first_divergence": weights.first_divergence,
            "gcd_w4_w5": {
                "direct": _s(math.gcd(weights.direct[4], weights.direct[5])),
                "transposed": _s(math.gcd(weights.transposed[4], weights.transposed[5])),
            },
            "mod2": {
                "direct": [v % 2 for v in weights.direct],
                "transposed": [v % 2 for v in weights.transposed],
            },
            "recurrence": {
                "order": rec.order,
                "coefficients": [_s(c) for c in rec.coeffs],
                "odd_coefficient_lags": [
                    k for k, c in enumerate(rec.coeffs, start=1) if c % 2
                ],
                "validated_terms": len(weights.direct),
            },
        },
        "warnings": warnings,
    }


def analyze(m: Morphism, cfg: AnalysisConfig, source: str) -> tuple[dict, PropertyReport]:
    """Run the full pipeline and build the ordered report document."""
    M = incidence_matrix(m)
    shape = classify_shape(m)
    poly = char_poly(M)
    prefix = fixed_point_prefix(m, cfg.prefix_letters)
    f = factor_closure(m, cfg.max_len)
    deps = run_deciders(m, shape, f, k_max=cfg.k_max)
    properties = ring_property_report(deps)
    n_weights = max(WEIGHT_TERMS, poly.degree - 1)  # the recurrence reads poly.degree terms
    weights = weight_sequence(m, M, prefix, n_weights)

    doc = {
        "morphism": _morphism_doc(m, source),
        "shape": _shape_doc(m, shape),
        "matrix": _matrix_doc(M, poly, shape),
        "word": _word_doc(m, prefix, f),
        "complexity": _complexity_doc(deps.complexity, f),
        "properties": {
            **_properties_doc(properties),
            "primitive_morphism": verdict_doc(deps.primitive),
            "uniformly_recurrent": verdict_doc(deps.uniformly_recurrent),
            "eventually_periodic": verdict_doc(deps.eventually_periodic),
        },
        "graded": _graded_doc(m, prefix, f, cfg),
        "diagnostics": _diagnostics_doc(poly, weights),
    }
    return doc, properties


def audit(m: Morphism, cfg: AnalysisConfig, source: str) -> tuple[dict, bool, list[str]]:
    """Grading audit document: chains, rotations, brackets, windows, prefixes,
    over the factors of length up to ``cfg.max_len``."""
    if cfg.max_len < 2:
        raise ContractError("audit needs a factor bound of at least 2")
    prefix = fixed_point_prefix(m, cfg.prefix_letters)
    f = factor_closure(m, cfg.max_len)
    graded_doc, _ = _graded_audit(graded.s_set(m, prefix), f, cfg.d_max, cfg.max_len)
    # analyze shows failures inside the entries; only audit lists counterexamples
    rotation = graded_doc["rotation_audit"]["counterexample"]
    counterexamples = [] if rotation is None else [
        f"rotation audit: every rotation of '{rotation}' is a factor"
    ]
    counterexamples += (
        f"bracket decomposition failed for '{w}'" for w in graded_doc["lie"]["failures"]
    )

    deps_ur = decide_uniform_recurrence(m, classify_shape(m), k_max=cfg.k_max)
    window_doc: dict = {"applicable": False}
    if deps_ur.is_yes and deps_ur.certificate.get("witness") == "block-cover":
        gap = deps_ur.certificate["start_gap_bound"]
        max_block = deps_ur.certificate["max_block"]
        needed = max(64 * max_block, cfg.prefix_letters)
        try:
            scan_prefix = fixed_point_prefix(m, needed, prefix=prefix).word[:needed]
        except ResourceBudgetError:  # the scan stops at the prefix budget
            scan_prefix = prefix.word
        window_doc = {"applicable": True, "window": gap, "scanned_letters": len(scan_prefix)}
        if len(scan_prefix) < gap:  # every window check passes on a shorter word
            window_doc |= {"pass": None, "skipped": "scanned prefix is shorter than the window"}
        elif graded.every_window_contains(scan_prefix, m.start, gap):
            window_doc["pass"] = True
        else:
            raise InvariantError(
                "block-cover certificate violated: a window without the start letter exists"
            )

    identity_results = []
    for n in range(1, 9):
        try:
            holds = graded.prefix_identity_holds(prefix, n)
        except ContractError:  # the prefix is too short for this n and every later one
            break
        identity_results.append({"n": n, "holds": holds})
        if not holds:
            counterexamples.append(
                f"prefix identity fails at n={n}: phi^{n + 1}(start) phi^{n}(start) "
                "is not a prefix of the fixed point"
            )

    doc = {
        "morphism": _morphism_doc(m, source),
        "graded": graded_doc,
        "checks": {
            "window": window_doc,
            "prefix_identity": identity_results,
        },
        "result": {
            "pass": not counterexamples,
            "counterexamples": counterexamples,
        },
    }
    return doc, not counterexamples, counterexamples


def to_json(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    """Plain deterministic rendering that follows document order."""
    lines: list[str] = []

    def walk(node, depth: int, label: str | None) -> None:
        pad = "  " * depth
        if isinstance(node, dict):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for k, v in node.items():
                walk(v, depth + (0 if label is None else 1), str(k))
        elif isinstance(node, list):
            if all(not isinstance(x, (dict, list)) for x in node):
                rendered = " ".join(str(x) for x in node)
                lines.append(f"{pad}{label}: [{rendered}]")
            else:
                lines.append(f"{pad}{label}:")
                for i, x in enumerate(node):
                    walk(x, depth + 1, f"[{i}]")
        else:
            lines.append(f"{pad}{label}: {node}")

    walk(doc, 0, None)
    return "\n".join(lines) + "\n"


__all__ = ["analyze", "audit", "to_json", "render_text", "verdict_doc"]
