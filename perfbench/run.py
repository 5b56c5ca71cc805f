"""Benchmark for iteralg: end-to-end metrics per workload, per-layer spans when traced.

Run from the root of a checkout (stdlib only, one process, no threads):

    python3 perfbench/run.py --workload gallery-analyze --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` and measured only through its public
functions.  Each run sets up several times (import, inputs, golden outputs);
it then repeats the workload's fixed set of operations until ``--seconds``
have passed (at least once), checking every output outside the timed
region.

The shared host this was written on switches speed by up to 1.7x within
seconds and drifts over minutes, for the benchmark's own process too (CPU
time varies as much as wall time).  So ``probe()``, a fixed pure-Python loop,
runs before, after and every ``PROBE_PERIOD_S`` during each operation and
set-up, and each time is also reported scaled to a host on which the probe
takes ``PROBE_REF_S``: the elapsed time (without the probes) times
``PROBE_REF_S`` over the probes' mean.  A change to the package moves a
scaled time as it moves the wall time; a change of host speed moves the
probe as well and mostly cancels.

The last stdout line is one JSON object:

- ``--trace 0``: ``wall_norm_s`` (sum over operations of the median scaled
  time per operation), ``peak_rss_mib``, ``setup_s`` (median scaled set-up
  time) and ``ok_frac`` (1 - failed/attempted);
- ``--trace 1``: untraced and traced passes alternate; per-layer self times
  and calls, exact counters, the untraced ``wall_s`` (median unscaled pass
  time), the tracing overhead, and the peak traced memory of the workload's
  largest factor closure, taken in a pass of its own.

A fuller record (environment, per-operation times, answer digest, spans)
goes to ``perfbench/results/``.  Without the package sources the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 11
# tracemalloc slows the closure about 7x, so the memory pass caps its bound
MEMORY_MAX_LEN = 64
PACKAGE_MODULES = ("cli", "config", "report", "words")

# The probe's median time on that host (2 vCPUs, Python 3.11), so scaled
# times read close to median wall times there.  Never change it: a scaled time
# is only comparable with one taken against the same constant and probe.
PROBE_REF_S = 0.0062
PROBE_WORD = "abaababaabaababaababa" * 60
# the probe takes about 3% of a call's time at this period
PROBE_PERIOD_S = 0.2

COUNTERS = (
    "words.factor_closure.rounds",
    "words.factor_closure.factors",
    "words.fixed_point_prefix.letters",
    "graded.cyclic_rotation_audit.words",
)


def probe() -> float:
    """Seconds taken by a fixed loop of the kind the package runs: slicing a
    word into factors, dict updates on short strings, integer arithmetic."""
    start = time.perf_counter()
    seen: dict[str, int] = {}
    for n in range(1, 9):
        for i in range(len(PROBE_WORD) - n + 1):
            factor = PROBE_WORD[i : i + n]
            seen[factor] = seen.get(factor, 0) + 1
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(elapsed: float, probes: list[float]) -> float:
    """``elapsed`` on a host where the probe takes ``PROBE_REF_S``."""
    return elapsed * PROBE_REF_S / statistics.fmean(probes)


def timed(fn, sample: bool = True) -> tuple[bool, object, float, float]:
    """Call ``fn()``: (returned normally, result or exception, seconds, scaled seconds).

    The probe runs before and after the call and, if ``sample``, every
    ``PROBE_PERIOD_S`` during it from a SIGALRM handler, so a long call is
    scaled by the host's speed while it ran; the probes' own time inside the
    call is taken out of its seconds.
    """
    probes = [probe()]
    if sample:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    start = time.perf_counter()
    try:
        ok, out = True, fn()
    except Exception as exc:  # a raising operation is a failed operation
        ok, out = False, exc
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start - sum(probes[1:])
    probes.append(probe())
    return ok, out, elapsed, scaled(elapsed, probes)


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    scaled_times: list[float] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)
    failed: dict[int, str] = field(default_factory=dict)  # op index -> reason

    @property
    def seconds(self) -> float:
        return sum(self.times)


def load_package() -> SimpleNamespace:
    """Import ``iteralg`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "iteralg" or n.startswith("iteralg.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"iteralg.{m}") for m in PACKAGE_MODULES}
    )
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"iteralg was imported from {pkg.cli.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int) -> tuple[float, float, SimpleNamespace, list[workloads.Op]]:
    """Import, inputs and golden outputs; returns wall and scaled seconds."""

    def build():
        pkg = load_package()
        return pkg, workloads.build(workload, seed, pkg)

    ok, out, elapsed, elapsed_scaled = timed(build)
    if not ok:
        raise out
    pkg, ops = out
    return elapsed, elapsed_scaled, pkg, ops


def run_pass(ops: list[workloads.Op], tracer: Tracer | None = None) -> PassResult:
    """Every operation once; only ``op.run`` is inside the timed region."""
    result = PassResult()
    for index, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op_id = index
        # traced passes give span times, which in-call probes would inflate
        ok, out, elapsed, elapsed_scaled = timed(op.run, sample=tracer is None)
        result.times.append(elapsed)
        result.scaled_times.append(elapsed_scaled)
        if not ok:
            result.answers.append(f"raised {type(out).__name__}")
            result.failed[index] = f"{op.name}: raised {type(out).__name__}: {out}"
            traceback.print_exception(out, file=sys.stderr)
            continue
        answer, failures = op.check(out)
        del out
        result.answers.append(answer)
        if failures:
            result.failed[index] = f"{op.name}: " + "; ".join(failures)
    return result


def failures_of(ops: list[workloads.Op], passes: list[PassResult]) -> list[str]:
    """One reason per failed (pass, operation); an answer that differs from pass 0 fails."""
    failed = []
    for n, p in enumerate(passes):
        for index, op in enumerate(ops):
            if index in p.failed:
                failed.append(f"pass {n}: {p.failed[index]}")
            elif p.answers[index] != passes[0].answers[index]:
                failed.append(f"pass {n}: {op.name}: answer differs from pass 0")
    return failed


def peak_closure_mib(pkg: SimpleNamespace, largest: tuple[int, tuple, dict] | None) -> float:
    """Peak traced MiB of the largest closure call, replayed under tracemalloc."""
    if largest is None:
        return 0.0
    _, args, kwargs = largest
    fn = pkg.words.factor_closure
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.arguments["max_len"] = min(bound.arguments["max_len"], MEMORY_MAX_LEN)
    gc.collect()
    tracemalloc.start()
    try:
        f = fn(*bound.args, **bound.kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del f
    return peak / 2**20


def layer_metrics(tracers: list[Tracer], traced: list[PassResult], plain: list[PassResult]) -> dict:
    self_times = [t.self_times() for t in tracers]
    counters = tracers[0].counters
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(st.get(name, 0.0) for st in self_times), "s")
        metrics[f"{name}.calls"] = (counters[f"{name}.calls"], "count")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")
    verdicts = counters["deciders.verdicts"]
    metrics["deciders.decided_frac"] = (counters["deciders.decided"] / verdicts if verdicts else 0.0, "ratio")
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["wall_s"] = (plain_s, "s")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iteralg" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'iteralg'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        seconds, seconds_scaled, pkg, ops = setup(args.workload, args.seed)
        setup_times.append(seconds)
        setup_scaled.append(seconds_scaled)

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(ops))
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(ops, tracer))
            tracers.append(tracer)
    measured_s = time.perf_counter() - start

    failed = failures_of(ops, plain + traced)
    if args.trace and any(t.counters != tracers[0].counters for t in tracers):
        failed.append("per-layer counts differ between traced passes")
    attempted = len(ops) * len(plain + traced)
    if args.trace:
        metrics = layer_metrics(tracers, traced, plain)
        metrics["words.factor_closure.peak_traced_mib"] = (
            peak_closure_mib(pkg, tracers[0].largest_closure),
            "MiB",
        )
    else:
        metrics = {
            "wall_norm_s": (sum(statistics.median(t) for t in zip(*(p.scaled_times for p in plain))), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ok_frac": (1 - len(failed) / attempted, "ratio"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
        },
        "operations": [op.name for op in ops],
        "operation_count": len(ops),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "measured_s": measured_s,
        "setup_times": setup_times,
        "setup_scaled": setup_scaled,
        "op_times": [p.times for p in plain],
        "op_scaled": [p.scaled_times for p in plain],
        "traced_op_times": [p.times for p in traced],
        "digest": hashlib.sha256("\n".join(plain[0].answers).encode()).hexdigest(),
        "failures": failed,
        "metrics": metrics,
    }
    if args.trace:
        record["counters"] = dict(tracers[0].counters)
        # one list per traced pass of [name, start, end, parent index, op index]
        record["spans"] = [t.spans for t in tracers]
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")

    for f in failed[:20]:
        print(f"failed: {f}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} ops={len(ops)} passes={len(plain)}+{len(traced)} "
        f"digest={record['digest'][:16]} record={out_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
