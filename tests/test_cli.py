import argparse
import dataclasses
import importlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import iteralg
from iteralg.cli import _config_from_args, build_parser, main
from iteralg.config import AnalysisConfig
from iteralg.errors import InvariantError, RecurrenceValidationError
from iteralg import report
from iteralg.words import Morphism, parse_morphism

# every b sits between two a's: not pushy, and no test decides uniform recurrence
UNKNOWN_UR_SOURCE = """letters: a b
start: a
map a -> a a b a
map b -> b
"""

# the runs of b grow without bound and never hold the start letter
PUSHY_SOURCE = """letters: a b
start: a
map a -> a a b
map b -> b
"""

# a -> a c1, c_i -> c_(i+1), c40 -> p, p -> p: one letter a generation, so
# the period p starts only after 41 letters
CHAIN = [f"c{i}" for i in range(1, 41)]
LATE_PERIOD_SOURCE = (
    f"letters: a {' '.join(CHAIN)} p\nstart: a\nmap a -> a c1\n"
    + "".join(f"map {c} -> {d}\n" for c, d in zip(CHAIN, CHAIN[1:] + ["p"]))
    + "map p -> p\n"
)


GALLERY = ["ba-example", "fibonacci", "paper12", "periodic-ab", "thue-morse"]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, preexec_fn=None):
    """``python -m iteralg *argv`` in a child process that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": search}
    return subprocess.run(
        [sys.executable, "-m", "iteralg", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
    )


# ---------------------------------------------------------------------------
# analyze


def test_analyze_paper12_text(capsys):
    code, out, err = run(capsys, "analyze", "gallery/paper12.morph")
    assert code == 0
    assert out.startswith("morphism:")
    assert "prime" in out


def test_analyze_paper12_json(capsys):
    code, out, _ = run(capsys, "analyze", "gallery/paper12.morph", "--format", "json")
    assert code == 0
    doc = json.loads(out)
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
    assert doc["properties"]["prime"]["value"] == "Yes"
    assert doc["properties"]["gk_dimension"] == 2
    assert doc["graded"]["rotation_audit"]["pass"] is True
    assert doc["diagnostics"]["weights"]["convention_mismatch"] is True


@pytest.mark.parametrize("entry", GALLERY)
def test_analyze_json_matches_golden(capsys, entry):
    """Refactor gate: default-budget analyze JSON stays byte-identical."""
    code, out, err = run(capsys, "analyze", f"gallery/{entry}.morph", "--format", "json")
    expected = json.loads((GOLDEN / "expected.json").read_text())["analyze_exit"]
    assert (code, err) == (expected, "")
    assert out.encode() == (GOLDEN / f"analyze-{entry}.json").read_bytes()
    # the scan's top level is phi^G(start), the whole prefix the chains read
    graded = json.loads(out)["graded"]
    top = [int(row["values"][-1]) for row in graded["nilpotency_scan"]["table"]]
    assert top == [chain["max_r"] for chain in graded["chains"]]


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, "analyze", "nonexistent.morph")
    assert code == 2
    assert "no such file" in err


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.morph"
    bad.write_text("letters: a\nstart: a\nmap a -> q\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 3" in err and "undeclared" in err


@pytest.mark.parametrize("command", [["analyze"], ["decide", "periodic"], ["audit"]])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_path_is_a_parse_error(tmp_path, command, kind):
    path = tmp_path / "in.morph"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    src = str(Path(__file__).resolve().parents[1] / "src")
    search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": search}
    argv = [sys.executable, "-m", "iteralg", command[0], str(path), *command[1:]]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot read {path}: ")


def test_analyze_of_a_hundred_thousand_letter_image_exits_cleanly(tmp_path):
    # char_poly's Cayley-Hamilton check once chained one lazy sum per letter
    # of phi(b), and 10^5 of them overflowed the C stack (exit -11)
    path = tmp_path / "long.morph"
    path.write_text("letters: a b\nstart: a\nmap a -> a b\nmap b ->" + " b" * 10**5 + "\n")
    proc = run_module("analyze", str(path))
    assert proc.returncode == 0, proc.stderr


def test_analyze_strict_unknown(tmp_path, capsys):
    src = tmp_path / "u.morph"
    src.write_text(UNKNOWN_UR_SOURCE)
    budget = ("--max-len", "16", "--prefix-letters", "4096")
    code, out, _ = run(capsys, "analyze", str(src), "--strict", *budget)
    assert code == 3
    code2, _, _ = run(capsys, "analyze", str(src), *budget)
    assert code2 == 0


@pytest.mark.parametrize("letters, n_max", [(21, 20), (22, 21)])
def test_analyze_weights_cover_the_recurrence(tmp_path, capsys, letters, n_max):
    """x0 -> x0 x1, x_i -> x_{i+1} x0, x_last -> x0 has a degree-``letters``
    characteristic polynomial, so the recurrence needs that many weights."""
    names = [f"x{i}" for i in range(letters)]
    maps = ["map x0 -> x0 x1"]
    maps += [f"map x{i} -> x{i + 1} x0" for i in range(1, letters - 1)]
    maps.append(f"map x{letters - 1} -> x0")
    src = tmp_path / "cyclic.morph"
    src.write_text(f"letters: {' '.join(names)}\nstart: x0\n" + "\n".join(maps) + "\n")
    code, out, err = run(capsys, "analyze", str(src), "--format", "json")
    assert code == 0, err
    weights = json.loads(out)["diagnostics"]["weights"]
    assert weights["recurrence"]["order"] == letters
    assert weights["n_max"] == n_max


def test_analyze_long_images_in_bounded_memory(tmp_path):
    """a -> a b^39, b -> b a^39: the block-cover search reads |phi^k(a)| and its
    first letter, never phi^6(a) itself (40^6 letters), so analyze at default
    budgets fits in 1.5 GB of address space."""
    src = tmp_path / "long.morph"
    src.write_text("letters: a b\nstart: a\nmap a -> a" + " b" * 39 + "\nmap b -> b" + " a" * 39 + "\n")
    limit = 1_500_000 * 1024
    proc = run_module(
        "analyze", str(src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_letter_degree_far_above_d_max(tmp_path):
    """degree b = 2 * 10^9: the graded dimensions count a letter's degree only
    up to D + 1, so analyze fits in 1.5 GB of address space."""
    src = tmp_path / "deg.morph"
    src.write_text(
        "letters: a b\nstart: a\nmap a -> a b\nmap b -> a\n"
        "degree a = 1\ndegree b = 2000000000\n"
    )
    limit = 1_500_000 * 1024
    proc = run_module(
        "analyze", str(src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_reads_local_file_over_gallery(tmp_path, capsys):
    local = tmp_path / "fibonacci.morph"
    local.write_text("letters: z\nstart: z\nmap z -> z z\n")
    code, out, _ = run(capsys, "analyze", str(local))
    assert code == 0
    assert "z" in out.splitlines()[2]


# ---------------------------------------------------------------------------
# decide


@pytest.mark.parametrize(
    "path, prop, expected_code, fragment",
    [
        ("gallery/ba-example.morph", "prime", 1, "exactly once"),
        ("gallery/thue-morse.morph", "primitive", 0, "support-closure"),
        ("gallery/fibonacci.morph", "periodic", 1, "conditional"),
        ("gallery/periodic-ab.morph", "periodic", 0, "period"),
        ("gallery/paper12.morph", "ur", 0, "block-cover"),
        ("gallery/paper12.morph", "pi", 1, "complexity-exceeds-n"),
        ("gallery/ba-example.morph", "noetherian", 0, "period"),
    ],
)
def test_decide_matrix(capsys, path, prop, expected_code, fragment):
    code, out, err = run(capsys, "decide", path, prop)
    assert code == expected_code
    assert fragment in out
    assert err == ""


@pytest.mark.parametrize("entry", ["ba-example", "paper12"])
def test_decide_prime_certificate_matches_analyze(capsys, entry):
    path = f"gallery/{entry}.morph"
    _, out, _ = run(capsys, "decide", path, "prime")
    cert_line = out.splitlines()[1]
    assert cert_line.startswith("certificate: ")
    _, doc_out, _ = run(capsys, "analyze", path, "--max-len", "12", "--format", "json")
    expected = json.loads(doc_out)["properties"]["prime"]["certificate"]
    assert json.loads(cert_line[len("certificate: "):]) == expected


@pytest.mark.parametrize("entry", GALLERY)
def test_decide_matches_analyze(capsys, entry):
    """decide prime/ur/periodic/primitive/pi/noetherian print analyze's value, flag,
    bound and certificate."""
    path = f"gallery/{entry}.morph"
    budget = ("--max-len", "24")
    _, doc_out, _ = run(capsys, "analyze", path, "--format", "json", *budget)
    props = json.loads(doc_out)["properties"]
    keys = {
        "prime": "prime",
        "ur": "uniformly_recurrent",
        "periodic": "eventually_periodic",
        "primitive": "primitive_morphism",
        "pi": "pi",
        "noetherian": "noetherian",
    }
    for prop, key in keys.items():
        code, out, err = run(capsys, "decide", path, prop, *budget)
        v = props[key]
        suffix = " (conditional)" if v["conditional"] and v["value"] != "Unknown" else ""
        bound = f" bound={v['bound']}" if v["bound"] is not None else ""
        assert out == (
            f"{prop}: {v['value']}{suffix}{bound}\n"
            f"certificate: {json.dumps(v['certificate'], sort_keys=True)}\n"
        )
        assert (code, err) == ({"Yes": 0, "No": 1, "Unknown": 3}[v["value"]], "")


def test_decide_unknown_exit(tmp_path, capsys):
    src = tmp_path / "u.morph"
    src.write_text(UNKNOWN_UR_SOURCE)
    code, out, _ = run(capsys, "decide", str(src), "ur", "--max-len", "16")
    assert code == 3
    assert out.startswith("ur: Unknown")


def test_decide_ur_pushy_is_no(tmp_path, capsys):
    src = tmp_path / "pushy.morph"
    src.write_text(PUSHY_SOURCE)
    code, out, _ = run(capsys, "decide", str(src), "ur")
    assert code == 1
    assert out == 'ur: No\ncertificate: {"letter": "a", "witness": "pushy"}\n'


def test_late_period_is_found_from_a_short_prefix(tmp_path, capsys):
    # the period search reads p(k) + k letters of its own, so a one-letter
    # prefix budget cannot hide the period
    src = tmp_path / "late.morph"
    src.write_text(LATE_PERIOD_SOURCE)
    code, out, err = run(
        capsys, "analyze", str(src), "--prefix-letters", "1", "--max-len", "64", "--format", "json"
    )
    assert (code, err) == (0, "")
    cert = json.loads(out)["properties"]["eventually_periodic"]["certificate"]
    assert cert["preperiod"] == " ".join(["a", *CHAIN])
    assert (cert["period"], cert["mh_length"]) == ("p", 42)


@pytest.mark.parametrize("max_len", ["8", "41"])
def test_decide_periodic_fires_on_a_flat_step(tmp_path, capsys, max_len):
    # p(1) = p(2) = 42 > 8: the flat step decides Yes below the first n
    # with p(n) <= n
    src = tmp_path / "late.morph"
    src.write_text(LATE_PERIOD_SOURCE)
    code, out, _ = run(capsys, "decide", str(src), "periodic", "--max-len", max_len)
    assert code == 0
    assert out.startswith("periodic: Yes bound=") and '"mh_length": 42' in out


def test_commands_at_a_factor_bound_of_one(capsys):
    # the graded audits skip below length 2; periodicity reads p(0) < p(1)
    code, out, err = run(capsys, "analyze", "gallery/paper12.morph", "--max-len", "1",
                         "--format", "json")
    assert (code, err) == (0, "")
    graded_doc = json.loads(out)["graded"]
    skipped = {"max_len": 1, "pass": None, "skipped": "factor bound below 2"}
    assert graded_doc["rotation_audit"] == skipped and graded_doc["lie"] == skipped
    assert graded_doc["graded_dims"] == ["1", "1"]
    code, out, _ = run(capsys, "decide", "gallery/paper12.morph", "periodic", "--max-len", "1")
    assert code == 1
    assert out.startswith("periodic: No (conditional) bound=1\n")


def test_decide_parse_error(capsys, tmp_path):
    src = tmp_path / "broken.morph"
    src.write_text("letters: a\n")
    code, _, err = run(capsys, "decide", str(src), "prime")
    assert code == 2


def test_invariant_failure_has_its_own_stderr_line(monkeypatch, capsys):
    """A failed self-check is not a budget error: it says the results cannot
    be trusted, on its own line, with the same exit code."""

    def failing(*args):
        raise InvariantError("Cayley-Hamilton check failed for computed polynomial")

    monkeypatch.setattr(report, "analyze", failing)
    code, out, err = run(capsys, "analyze", "gallery/fibonacci.morph")
    assert (code, out) == (2, "")
    assert err == (
        "internal error: Cayley-Hamilton check failed for computed polynomial"
        " (results cannot be trusted)\n"
    )


def test_recurrence_violation_in_analyze_is_an_internal_error(monkeypatch, capsys):
    """analyze validates checked weights against a checked polynomial, so a
    violated recurrence there is the program's fault, not a budget's."""

    def failing(poly, initial):
        raise RecurrenceValidationError(3, 5, 6)

    monkeypatch.setattr(report, "recurrence_from_charpoly", failing)
    code, out, err = run(capsys, "analyze", "gallery/fibonacci.morph")
    assert (code, out) == (2, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert err.endswith(" (results cannot be trusted)\n")


def test_prefix_budget_stops_analyze_but_not_decide(tmp_path, capsys):
    """The README's budget example: for a -> a b, b -> b^30000 the held prefix
    would be phi^3(a), about 9·10^8 letters, so analyze stops with one fatal
    line; decide holds no prefix and answers."""
    src = tmp_path / "long.morph"
    src.write_text("letters: a b\nstart: a\nmap a -> a b\nmap b ->" + " b" * 30000 + "\n")
    code, out, err = run(capsys, "analyze", str(src))
    assert (code, out) == (2, "")
    assert err == "fatal: prefix generation exceeds the 536870912-byte budget\n"
    code, out, err = run(capsys, "decide", str(src), "periodic")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "periodic: Yes bound=64"


# ---------------------------------------------------------------------------
# audit


def test_audit_paper12(capsys):
    code, out, _ = run(capsys, "audit", "gallery/paper12.morph", "--max-len", "12")
    assert code == 0
    assert "pass: True" in out
    assert "counterexample: rotation" not in out


def test_audit_json_matches_golden(capsys):
    """Refactor gate: the paper12 audit at --max-len 48 stays byte-identical."""
    code, out, err = run(
        capsys, "audit", "gallery/paper12.morph", "--max-len", "48", "--format", "json"
    )
    expected = json.loads((GOLDEN / "expected.json").read_text())["audit_exit"]
    assert (code, err) == (expected, "")
    assert out.encode() == (GOLDEN / "audit-paper12-48.json").read_bytes()


def test_audit_periodic_fails(capsys):
    code, out, _ = run(capsys, "audit", "gallery/periodic-ab.morph", "--max-len", "8")
    assert code == 1
    assert "rotation audit" in out
    assert "\ncounterexample: rotation audit: " in out  # text mode lists them after the document


def test_audit_window_scan_stops_at_the_prefix_budget(tmp_path, capsys):
    """a -> a b^20, b -> c b^20, ..., f -> a f^20: the block cover has
    max_block 21^5, and 64 blocks pass the prefix budget, so the scan stops
    at the 21^4 letters the run already holds.  Those are fewer than the
    window, where every window check passes, so the check is skipped."""
    letters = "abcdef"
    maps = [f"map {x} -> {y}" + f" {x}" * 20 for x, y in zip(letters, "bcdefa")]
    maps[0] = "map a -> a" + " b" * 20
    src = tmp_path / "cycle.morph"
    src.write_text(f"letters: {' '.join(letters)}\nstart: a\n" + "\n".join(maps) + "\n")
    code, out, err = run(capsys, "audit", str(src), "--format", "json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    window = doc["checks"]["window"]
    assert window == {
        "applicable": True,
        "window": 21**5,
        "scanned_letters": 21**4,
        "pass": None,
        "skipped": "scanned prefix is shorter than the window",
    }
    assert any("prefix identity fails" in c for c in doc["result"]["counterexamples"])


def test_audit_fibonacci_default_grading(capsys):
    code, out, _ = run(capsys, "audit", "gallery/fibonacci.morph", "--max-len", "8")
    assert code == 1  # ab and ba are both factors


@pytest.mark.parametrize("entry", ["paper12", "periodic-ab"])
def test_analyze_and_audit_share_graded_entries(capsys, entry):
    path = f"gallery/{entry}.morph"
    _, analyze_out, _ = run(capsys, "analyze", path, "--max-len", "12", "--format", "json")
    _, audit_out, _ = run(capsys, "audit", path, "--max-len", "12", "--format", "json")
    analyzed = json.loads(analyze_out)["graded"]
    audited = json.loads(audit_out)
    keys = ["s_prefix", "chains", "rotation_audit", "lie"]
    assert list(audited["graded"]) == keys
    assert {k: analyzed[k] for k in keys} == audited["graded"]


def test_morphism_without_degrees_reports_as_parsed():
    # a Morphism built without degrees is graded 1 per letter, as a file
    # without degree lines is, so both give the same documents
    parsed = parse_morphism("letters: a b\nstart: a\nmap a -> a b\nmap b -> a\n")
    built = Morphism(parsed.letters, parsed.images, parsed.start)
    assert built.degrees == (1,) * built.size
    assert built == parsed
    cfg = AnalysisConfig(max_len=12)
    for run_report in (report.analyze, report.audit):
        doc_built = run_report(built, cfg, "built")[0]
        doc_parsed = run_report(parsed, cfg, "parsed")[0]
        assert doc_built["morphism"].pop("source") == "built"
        assert doc_parsed["morphism"].pop("source") == "parsed"
        assert report.to_json(doc_built) == report.to_json(doc_parsed)


# ---------------------------------------------------------------------------
# gallery


def test_gallery_list(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    assert out.split() == [
        "ba-example",
        "fibonacci",
        "paper12",
        "periodic-ab",
        "thue-morse",
    ]


def test_gallery_show_paper12(capsys):
    code, out, _ = run(capsys, "gallery", "show", "paper12")
    assert code == 0
    assert out.count("map ") == 12
    assert "degree x1 = 1" in out
    assert "degree default = 2" in out


def test_gallery_show_unknown(capsys):
    # main reports the ContractError with the same prefix as the other commands
    assert run(capsys, "gallery", "show", "nope") == (
        2, "", "error: no gallery entry named 'nope'\n"
    )


# ---------------------------------------------------------------------------
# determinism (in-process; cross-process covered by the acceptance suite)


def test_json_output_repeatable(capsys):
    _, out1, _ = run(capsys, "analyze", "gallery/fibonacci.morph", "--format", "json")
    _, out2, _ = run(capsys, "analyze", "gallery/fibonacci.morph", "--format", "json")
    assert out1 == out2


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_cli(monkeypatch):
    """``iteralg.cli`` imported anew, with ``argparse.ArgumentParser``
    constructions counted from before the import; the old module comes back
    after the test."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(iteralg, "cli", iteralg.cli)
    monkeypatch.delitem(sys.modules, "iteralg.cli")
    return importlib.import_module("iteralg.cli"), built


def test_parser_is_built_once_per_process(fresh_cli, capsys):
    cli, built = fresh_cli
    assert built == []  # importing builds no parser
    assert cli.main(["gallery", "list"]) == 0
    one_tree = len(built)
    assert one_tree == 7  # iteralg, its four commands, gallery's list and show
    argvs = [
        ["analyze", "gallery/ba-example.morph", "--max-len", "8"],
        ["decide", "gallery/paper12.morph", "prime"],
        ["audit", "gallery/periodic-ab.morph", "--max-len", "8"],
        ["gallery", "show", "fibonacci"],
    ]
    for argv in argvs * 3:
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == one_tree


def test_argparse_errors_leave_the_parser_usable(capsys):
    for argv in (
        ["decide", "gallery/paper12.morph", "bogus"],
        ["analyze", "gallery/paper12.morph", "--max-len", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
    code, out, err = run(capsys, "analyze", "gallery/fibonacci.morph", "--format", "json")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "analyze-fibonacci.json").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["gallery", "show", "--help"]])
def test_help_text_repeats(fresh_cli, capsys, argv):
    cli, _ = fresh_cli
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: iteralg")


# ---------------------------------------------------------------------------
# option surface


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "gallery/fibonacci.morph", "--mh-bound", "8"],
        ["decide", "gallery/fibonacci.morph", "periodic", "--mh-bound", "8"],
        ["audit", "gallery/fibonacci.morph", "--mh-bound", "8"],
        ["decide", "gallery/fibonacci.morph", "periodic", "--prefix-letters", "8"],
        ["decide", "gallery/fibonacci.morph", "prime", "--format", "json"],
        ["decide", "gallery/fibonacci.morph", "prime", "--d-max", "3"],
    ],
)
def test_unread_flags_are_usage_errors(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: iteralg")
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_budget_flags_are_the_config_fields(capsys):
    """analyze takes one flag per AnalysisConfig field, and each sets its field."""
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    options = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    names = [f.name for f in dataclasses.fields(AnalysisConfig)]
    assert options == {"help", "format", "strict"} | {n.replace("_", "-") for n in names}
    values = {n: 2 + i for i, n in enumerate(names)}
    argv = ["analyze", "x.morph"]
    for n, v in values.items():
        argv += ["--" + n.replace("_", "-"), str(v)]
    assert _config_from_args(build_parser().parse_args(argv)) == AnalysisConfig(**values)
