"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts the criterion's facts.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from coordsem import (
    STANDARD_LAWS,
    Atom,
    AtomNode,
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
    instantiate,
    judge,
    length_metric,
    parse,
    project,
    unparse,
    xor_parity,
)
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
        binding = {mv: AtomNode(Atom(atom)) for mv, atom in verdict.binding.items()}
        lhs, rhs = instantiate(schema, binding)
        if eval_formula(lhs, verdict.counterexample) == eval_formula(rhs, verdict.counterexample):
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
    lhs, rhs = instantiate(DIS1, {v: AtomNode(Atom(v)) for v in ("X", "Y", "Z")})
    if not length_metric(rhs) > length_metric(lhs):
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


def _run_reproduce(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "coordsem", *extra, "reproduce"],
        capture_output=True, timeout=300)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_criterion_10_reproduce_is_deterministic(fmt):
    first = _run_reproduce("--format", fmt)
    second = _run_reproduce("--format", fmt)
    failures = []
    if first.returncode != 0:
        failures.append(f"exit code {first.returncode}: {first.stderr.decode()[:200]}")
    if first.returncode != second.returncode:
        failures.append("exit codes differ between runs")
    if first.stdout != second.stdout:
        failures.append("stdout bytes differ between runs")
    if not first.stdout:
        failures.append("no output produced")
    _report(f"criterion 10: reproduce is byte-deterministic ({fmt})",
            not failures, failures)
