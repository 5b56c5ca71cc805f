"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import mix
import run
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(run.SRC))
    return run.load_package()


def test_golden_altered_by_one_byte_is_a_failure(pkg, tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, golden)
    monkeypatch.setattr(workloads, "GOLDEN", golden)
    ops = [op for op in workloads.build("gallery-analyze", 0, pkg) if op.name == "periodic-ab"]
    result = run.run_pass(ops)
    assert result.failed == {}
    assert len(result.scaled_times) == len(result.times) == 1

    doc = golden / workloads.golden_analyze_name("periodic-ab")
    data = bytearray(doc.read_bytes())
    data[len(data) // 2] ^= 1
    doc.write_bytes(bytes(data))
    ops = [op for op in workloads.build("gallery-analyze", 0, pkg) if op.name == "periodic-ab"]
    result = run.run_pass(ops)
    assert list(result.failed) == [0]
    assert "golden" in result.failed[0]
    assert len(run.failures_of(ops, [result])) == 1


def _mix_texts(seed: int) -> list[str]:
    strata = json.loads(workloads.MIX_CATALOGUE.read_text("utf-8"))["strata"]
    return [inp.text for inp in mix.sample(seed, strata)]


def test_same_seed_generates_identical_inputs():
    assert _mix_texts(7) == _mix_texts(7)
    assert _mix_texts(7) != _mix_texts(8)
    first, again = random.Random(7), random.Random(7)
    assert [mix.generate_one(first) for _ in range(5)] == [mix.generate_one(again) for _ in range(5)]


def test_sample_draws_a_mirrored_pair_from_every_stratum():
    strata = json.loads(workloads.MIX_CATALOGUE.read_text("utf-8"))["strata"]
    picks = _mix_texts(3)
    assert len(picks) == len(set(picks)) == 2 * len(strata)
    for stratum in strata:
        ranks = sorted(stratum.index(text) for text in picks if text in stratum)
        assert len(ranks) == 2 and ranks[0] + ranks[1] == len(stratum) - 1


def test_parse_reads_back_generated_text():
    rng = random.Random(11)
    for _ in range(20):
        inp = mix.generate_one(rng)
        assert mix.parse(inp.text) == inp


def test_per_layer_counts_repeat_between_traced_runs(pkg):
    ops = workloads.build("random-mix", 5, pkg)[:3]
    ops += [op for op in workloads.build("gallery-analyze", 0, pkg) if op.name == "periodic-ab"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            assert run.run_pass(ops, tracer).failed == {}
        counts.append(dict(tracer.counters))
    assert counts[0] == counts[1]
    assert counts[0]["words.factor_closure.calls"] == len(ops)
    # the tracer restores every patched name on exit
    assert not hasattr(pkg.words.factor_closure, "__wrapped__")
    assert not hasattr(pkg.report.factor_closure, "__wrapped__")


def test_tracer_patches_names_imported_by_other_modules(pkg):
    with Tracer():
        assert pkg.report.factor_closure is pkg.words.factor_closure
        assert hasattr(pkg.report.factor_closure, "__wrapped__")
        assert hasattr(pkg.cli.main, "__wrapped__")


def test_scaled_time_cancels_host_speed():
    ref = run.PROBE_REF_S
    assert run.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    # a host at half speed doubles both the operation and the probes
    assert run.scaled(4.0, [2 * ref, 2 * ref, 2 * ref]) == pytest.approx(2.0)
    assert run.scaled(3.0, [ref, 2 * ref]) == pytest.approx(2.0)


def test_timed_takes_the_probes_out_of_a_call():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    ok, out, elapsed, _ = run.timed(busy)
    # a busy loop to a deadline: probes during it leave less of it to count
    assert (ok, out) == (True, "done")
    assert 0.4 < elapsed < 0.5
    ok, out, _, _ = run.timed(lambda: 1 / 0)
    assert not ok and isinstance(out, ZeroDivisionError)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("b", 5.0, 6.0, 0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 4.0}


def test_runs_fail_without_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-deep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
