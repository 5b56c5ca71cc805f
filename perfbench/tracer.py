"""Per-layer spans and counters, taken from outside the package.

The tracer swaps each listed public function for a wrapper that records a
span (name, start, end, parent, op id) and a few exact counters read off the
arguments and results.  Modules such as ``report``, ``deciders``, ``graded``
and ``cli`` import these functions by name, so every ``iteralg`` module
namespace that holds the original function object is patched, not just the
defining module.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in that layer
WRAPPED = {
    "cli": ("main",),
    "report": ("analyze", "audit"),
    "words": ("parse_morphism", "classify_shape", "fixed_point_prefix", "factor_closure"),
    "matrices": ("incidence_matrix", "char_poly", "weight_sequence"),
    "deciders": ("run_deciders",),
    "graded": (
        "s_set",
        "max_homogeneous_chain",
        "graded_nilpotency_scan",
        "lie_decomposition",
        "cyclic_rotation_audit",
    ),
    "algebra": ("graded_dimension",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)


def _count_result(counters: dict, name: str, result) -> None:
    """Exact work counts read off a wrapped function's result."""
    if name == "words.factor_closure":
        counters["words.factor_closure.rounds"] += result.closure_rounds
        counters["words.factor_closure.factors"] += sum(result.counts)
    elif name == "words.fixed_point_prefix":
        counters["words.fixed_point_prefix.letters"] += len(result.word)
    elif name == "graded.cyclic_rotation_audit":
        counters["graded.cyclic_rotation_audit.words"] += sum(n for _, n in result.per_length)
    elif name == "deciders.run_deciders":
        verdicts = (result.primitive, result.eventually_periodic, result.uniformly_recurrent)
        counters["deciders.verdicts"] += len(verdicts)
        counters["deciders.decided"] += sum(not v.is_unknown for v in verdicts)


class Tracer:
    """Wraps the functions in ``WRAPPED`` while active (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        # (letters stored, args, kwargs) of the factor_closure call that stored the most
        self.largest_closure: tuple[int, tuple, dict] | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        calls_key = name + ".calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counters[calls_key] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            _count_result(counters, name, result)
            if name == "words.factor_closure":
                self._note_closure(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_closure(self, result, args: tuple, kwargs: dict) -> None:
        letters = sum(n * c for n, c in enumerate(result.counts))
        if self.largest_closure is None or letters > self.largest_closure[0]:
            self.largest_closure = (letters, args, kwargs)

    def __enter__(self) -> "Tracer":
        owners = {layer: importlib.import_module(f"iteralg.{layer}") for layer in WRAPPED}
        modules = [m for n, m in list(sys.modules.items()) if n == "iteralg" or n.startswith("iteralg.")]
        for layer, fns in WRAPPED.items():
            owner = owners[layer]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Span time minus the time covered by direct child spans, per name."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child.get(index, 0.0)
        return dict(out)
