"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts the criterion's facts.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from coordsem import (
    STANDARD_LAWS,
    Category,
    Mode,
    Polarity,
    Provenance,
    SearchStatus,
    check_disjunction_corollary,
    check_explosion_irrelevance,
    check_frege_theorem,
    check_law,
    check_relevance_ordering,
    consistent,
    corpus_lookup,
    denote_options,
    eval_formula,
    grid,
    judge,
    length_metric,
    parse,
    project,
    unparse,
    xor_parity,
)
from coordsem.cli import main
from coordsem.formula import DIS1
from coordsem.report import compare

LAWS = {law.name: law for law in STANDARD_LAWS}


def _report(criterion: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}"
          + (f"  [{'; '.join(failures)}]" if failures else ""))
    assert ok, failures


def test_criterion_01_classical_law_matrix():
    failures = []
    for law in STANDARD_LAWS:
        verdict = check_law(law)
        if not verdict.valid:
            failures.append(f"{law.name} not valid classically")
    _report("criterion 1: classical law matrix all valid", not failures, failures)


def test_criterion_02_xor_substitution():
    expected_invalid = ("Dis.2", "Abs.1", "Abs.2", "Ide.1")
    failures = []
    if not check_law(LAWS["Dis.1"].with_connectives(join="xor")).valid:
        failures.append("Dis.1 should stay valid under xor")
    for name in expected_invalid:
        schema = LAWS[name].with_connectives(join="xor")
        verdict = check_law(schema)
        if verdict.valid:
            failures.append(f"{name} should fail under xor")
            continue
        if verdict.counterexample is None:
            failures.append(f"{name}: no witness reported")
            continue
        witness = verdict.counterexample
        if eval_formula(schema.lhs, witness) == eval_formula(schema.rhs, witness):
            failures.append(f"{name}: witness does not separate the sides")
    _report("criterion 2: xor keeps Dis.1, breaks Dis.2/Abs/Ide.1 with witnesses",
            not failures, failures)


def test_criterion_03_xor_parity():
    failures = [f"n={n}" for n in range(1, 13) if xor_parity(n) is not True]
    _report("criterion 3: n-fold xor is odd-parity for n=1..12", not failures, failures)


EXPECTED_OPTIONS = {
    "1a": [{"A": 1, "B": 1}, {"A": 1, "C": 1}],
    "1b": [{"A": 1, "B": 1}, {"A": 1, "C": 1}],
    "2a": [{"A": 1}, {"B": 1, "C": 1}],
    "2b": [{"A": 2}, {"A": 1, "B": 1}, {"A": 1, "C": 1}, {"B": 1, "C": 1}],
    "5a": [{"A": 1}, {"A": 1, "B": 1}],
    "5c": [{"A": 2}, {"A": 1, "B": 1}],
    "6a": [{"A": 1}],
    "6c": [{"A": 2}],
}


def test_criterion_04_option_sets():
    failures = []
    for label, expected in EXPECTED_OPTIONS.items():
        got = {p.parts for p in denote_options(corpus_lookup(label))}
        want = {tuple(sorted(d.items())) for d in expected}
        if got != want:
            failures.append(f"options({label}) = {sorted(got)}, expected {sorted(want)}")
    _report("criterion 4: corpus option sets, exact set equality",
            not failures, failures)


EXPECTED_JUDGMENTS = {
    "1a": Category.ACCEPTABLE, "1b": Category.ACCEPTABLE, "2a": Category.ACCEPTABLE,
    "5a": Category.ACCEPTABLE, "5b": Category.ACCEPTABLE, "6b": Category.ACCEPTABLE,
    "6a": Category.ODD_HOBSON,
    "2b": Category.WEIRD_DOUBLE_IMAGE, "2b'": Category.WEIRD_DOUBLE_IMAGE,
    "5c": Category.WEIRD_DOUBLE_IMAGE, "5c'": Category.WEIRD_DOUBLE_IMAGE,
    "6c": Category.WEIRD_DOUBLE_IMAGE,
}


def test_criterion_05_judgment_table():
    failures = []
    for label, expected in EXPECTED_JUDGMENTS.items():
        got = judge(corpus_lookup(label)).category
        if got is not expected:
            failures.append(f"{label}: {got.value}, expected {expected.value}")
    iterable = judge(parse("talks:iterable and talks:iterable")).category
    if iterable is not Category.ACCEPTABLE:
        failures.append(f"iterable 6c variant: {iterable.value}")
    _report("criterion 5: acceptability judgments reproduce the data",
            not failures, failures)


# boolean-equivalent, option-set-equal, equivalence-judgment-affirmed
DIVERGENT_PAIRS = {
    ("2a", "2b"): (True, False, False),
    ("5a", "5b"): (True, False, False),
    ("5a", "5c"): (True, False, False),
    ("6a", "6b"): (True, True, False),  # same options, but 6a is odd (Hobson)
    ("6c", "6b"): (True, False, False),
    ("1a", "1b"): (True, True, True),
}


def test_criterion_06_divergence_of_the_semantics():
    failures = []
    for (left, right), expected in DIVERGENT_PAIRS.items():
        cmp = compare(corpus_lookup(left), corpus_lookup(right))
        got = (cmp.boolean_equivalent, cmp.option_equivalent, cmp.judged_equivalent)
        if got != expected:
            failures.append(f"({left},{right}): {got}, expected {expected}")
    _report("criterion 6: boolean equivalence diverges from vector equivalence",
            not failures, failures)


def _suppression_of_ignorance(label: str, failures: list[str]) -> None:
    report = project(corpus_lookup(label), Mode.GAZDAR)
    hits = [s for s in report.suppressed
            if s.constraint.polarity is Polarity.NOT_K
            and s.constraint.provenance is Provenance.CLAUSAL
            and unparse(s.constraint.body) == "A"]
    if not hits:
        failures.append(f"{label}: notK(A) not suppressed")
        return
    for s in hits:
        if not s.clashes_with or any(c.provenance is not Provenance.ASSERTION
                                     for c in s.clashes_with):
            failures.append(f"{label}: clash partners not the asserted content")


def test_criterion_07_implicature_projection():
    failures = []
    for label in ("6a", "5c", "5a"):
        _suppression_of_ignorance(label, failures)
    report = project(corpus_lookup("2b"), Mode.GAZDAR)
    if report.suppressed:
        failures.append(f"2b: {len(report.suppressed)} suppressed, expected none")
    if len(report.accepted_by(Provenance.CLAUSAL)) != 8:
        failures.append(f"2b: {len(report.accepted_by(Provenance.CLAUSAL))} clausal accepted,"
                        " expected 8")
    if len(report.accepted_by(Provenance.SCALAR_STRONG)) != 2:
        failures.append("2b: expected 2 strong constraints accepted")
    for label in ("6a", "5c", "5a", "2b"):
        ok, model = consistent(project(corpus_lookup(label), Mode.GAZDAR).accepted)
        if not ok or not model:
            failures.append(f"{label}: accepted set fails the belief-model oracle")
    _report("criterion 7: assertion-precedence projection", not failures, failures)


def test_criterion_08_brevity_does_not_explain_the_data():
    failures = []
    if length_metric(corpus_lookup("2b")) != length_metric(corpus_lookup("1b")):
        failures.append("length(2b) != length(1b)")
    if not length_metric(corpus_lookup("5a")) > length_metric(corpus_lookup("5b")):
        failures.append("length(5a) not > length(5b)")
    if not length_metric(DIS1.rhs) > length_metric(DIS1.lhs):
        failures.append("Dis.1 instance: rhs not longer than lhs")
    _report("criterion 8: the three brevity comparisons", not failures, failures)


def test_criterion_09_probability_theorems():
    failures = []
    for den in (2, 4, 6, 12):
        if check_frege_theorem(den).status is not SearchStatus.NO_COUNTEREXAMPLE:
            failures.append(f"frege denominator {den}")
        if check_disjunction_corollary(den).status is not SearchStatus.NO_COUNTEREXAMPLE:
            failures.append(f"corollary denominator {den}")
    if check_frege_theorem(6, drop_beta=True).status is not SearchStatus.COUNTEREXAMPLE:
        failures.append("dropping the uncertainty premise should yield a counterexample")
    events = [parse(t) for t in ("B", "not B", "A", "A and B", "A or B")]
    for d in grid(("A", "B"), 4):
        for b in events:
            if not check_explosion_irrelevance(d, b):
                failures.append(f"explosion irrelevance fails at {d}")
    if check_relevance_ordering(4).status is not SearchStatus.NO_COUNTEREXAMPLE:
        failures.append("relevance ordering violated on the denominator-4 grid")
    _report("criterion 9: probability theorems on exact grids", not failures, failures)


def _process(*argv: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of a `python -m coordsem` process."""
    done = subprocess.run([sys.executable, "-m", "coordsem", *argv],
                          capture_output=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def _in_process(*argv: str) -> tuple[int, bytes, bytes]:
    """The same three of `main(argv)` called in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_criterion_10_reproduce_is_deterministic(fmt):
    first = _process("--format", fmt, "reproduce")
    second = _process("--format", fmt, "reproduce")
    failures = []
    if first[0] != 0:
        failures.append(f"exit code {first[0]}: {first[2].decode()[:200]}")
    if first[0] != second[0]:
        failures.append("exit codes differ between runs")
    if first[1] != second[1]:
        failures.append("stdout bytes differ between runs")
    if not first[1]:
        failures.append("no output produced")
    if _in_process("--format", fmt, "reproduce") != first:
        failures.append("main(argv) differs from the process")
    _report(f"criterion 10: reproduce is byte-deterministic ({fmt})",
            not failures, failures)


# 4096 options: about 2.9 MB of JSON, far more than a pipe holds, so the
# process entry exits only after its reader has taken most of the output
LARGE = " and ".join(f"(A{i} or B{i})" for i in range(12))

# argv with {} for an --out file, and the exit code both entries must give
AGREEMENT_CASES = {
    "out": (("--out", "{}", "reproduce"), 0),
    "large-json": (("--format", "json", "judge", LARGE), 0),
    "large-out": (("--out", "{}", "--format", "json", "judge", LARGE), 0),
    "usage": (("prob", "nosuchcheck"), 2),
    "help": (("prob", "-h"), 0),
    "workbench": (("prob", "corollary", "--drop-beta"), 2),
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_criterion_10_process_agrees_with_main(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one terminal width for both, should output follow it
    argv, status = AGREEMENT_CASES[case]
    files = {side: tmp_path / f"{side}.json" for side in ("process", "main")}
    process = _process(*(a.format(files["process"]) for a in argv))
    in_process = _in_process(*(a.format(files["main"]) for a in argv))
    failures = []
    if process[0] != status:
        failures.append(f"exit code {process[0]}, not {status}: {process[2].decode()[:200]}")
    if in_process != process:
        failures.append("main(argv) differs from the process")
    if "{}" in argv:
        written = [f.read_bytes() if f.exists() else None for f in files.values()]
        if not written[0] or written[0] != written[1]:
            failures.append("--out files differ or are missing")
    _report(f"criterion 10: python -m coordsem agrees with main ({case})",
            not failures, failures)


def _unwritable_stdout(stdout, argv, unbuffered) -> tuple[int, str]:
    """Exit code and stderr of `python -m coordsem argv` writing to the file
    descriptor stdout, with Python's own output buffer on or off."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run([sys.executable, "-m", "coordsem", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=300)
    return done.returncode, done.stderr.decode()


_OUTPUTS = pytest.mark.parametrize("argv", [("laws",), ("--format", "json", "judge", LARGE)],
                                   ids=["small", "large"])
_BUFFERS = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@_OUTPUTS
@_BUFFERS
def test_criterion_10_closed_stdout_pipe(argv, unbuffered):
    # A write to a pipe whose reader has gone fails, in main()'s write or,
    # for output still buffered, in its flush. Either way it is a usage
    # failure, not a claim mismatch: exit 2 and one line.
    read, write = os.pipe()
    os.close(read)
    try:
        got = _unwritable_stdout(write, argv, unbuffered)
    finally:
        os.close(write)
    expected = (2, "error: cannot write stdout: Broken pipe\n")
    _report("criterion 10: a closed stdout pipe exits 2 with one line",
            got == expected, [] if got == expected else [repr(got)[:300]])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@_OUTPUTS
@_BUFFERS
def test_criterion_10_full_stdout_device(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        got = _unwritable_stdout(full, argv, unbuffered)
    expected = (2, "error: cannot write stdout: No space left on device\n")
    _report("criterion 10: a full stdout device exits 2 with one line",
            got == expected, [] if got == expected else [repr(got)[:300]])


# argv, and whether stdout goes to /dev/full as well as stderr
_FULL_STDERR_CASES = {
    "parse error": (("judge", "A and ?"), False),
    "full stdout": (("laws",), True),
    "usage error": (("--nosuch",), False),
    "help to a full stdout": (("-h",), True),
    "unwritable --out": (("--out", "/nonexistent/x", "laws"), False),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("case", _FULL_STDERR_CASES)
def test_criterion_10_full_stderr_device(case):
    # The report is lost with stderr, but the code is still 2, not the 1
    # of a claim mismatch or of a traceback that cannot be written either.
    argv, full_stdout = _FULL_STDERR_CASES[case]
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "coordsem", *argv],
                              stdout=full if full_stdout else subprocess.PIPE, stderr=full,
                              timeout=300)
    failures = [] if done.returncode == 2 else [f"exit code {done.returncode}"]
    if not full_stdout and done.stdout != _process(*argv)[1]:
        failures.append(f"stdout {done.stdout[:200]!r} differs from a run with a writable stderr")
    _report(f"criterion 10: a full stderr device exits 2 ({case})", not failures, failures)


def test_criterion_10_stdout_that_cannot_encode_the_text():
    # the parser takes any Unicode whitespace, and the text output echoes it
    done = subprocess.run([sys.executable, "-m", "coordsem", "judge", "A\xa0and B"],
                          capture_output=True, env={**os.environ, "PYTHONIOENCODING": "ascii"},
                          timeout=300)
    got = done.returncode, done.stdout, done.stderr.decode()
    expected = (2, b"", "error: cannot write stdout: 'ascii' codec can't encode character "
                        "'\\xa0' in position 1: ordinal not in range(128)\n")
    _report("criterion 10: a stdout that cannot encode the text exits 2 with one line",
            got == expected, [] if got == expected else [repr(got)[:300]])
