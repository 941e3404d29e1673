"""Claim-by-claim reproduction: every checkable fact the workbench is built
around, as records pairing a hardcoded expected value with the value the
engines compute. The expected values are frozen literals on purpose, so that
any regression in parsing, denotation, law checking, implicature projection
or the probability searches surfaces as a mismatch.
"""

from __future__ import annotations

from . import implicature as imp
from ._record import Record
from .boolean import LawVerdict, check_law, equivalent, eval_formula, xor_parity
from .formula import (
    STANDARD_LAWS,
    Atom,
    AtomNode,
    Formula,
    LawSchema,
    corpus_lookup,
    instantiate,
    length_metric,
    parse,
    unparse,
)
from .prospect import (
    Category,
    Judgment,
    OptionComparison,
    OptionSet,
    _compare_options,
    _judged,
    denote_options,
    judge,
)
from .relevance import (
    SearchStatus,
    check_disjunction_corollary,
    check_frege_theorem,
    check_relevance_ordering,
    explosion_on_grid,
)

LAWS_BY_NAME = {law.name: law for law in STANDARD_LAWS}


# ---------------------------------------------------------------------------
# Side-by-side comparison of two formulas under both semantics

class PairComparison(Record):
    boolean: LawVerdict
    options: OptionComparison
    judgment_left: Judgment
    judgment_right: Judgment

    @property
    def boolean_equivalent(self) -> bool:
        return self.boolean.valid

    @property
    def option_equivalent(self) -> bool:
        return self.options.equal

    @property
    def judged_equivalent(self) -> bool:
        """The equivalence judgment the vector semantics predicts a speaker
        to affirm: identical option sets and neither side odd or weird."""
        return (self.options.equal
                and self.judgment_left.category is Category.ACCEPTABLE
                and self.judgment_right.category is Category.ACCEPTABLE)

    def serialize(self) -> dict[str, object]:
        return {
            "boolean_equivalent": self.boolean_equivalent,
            "boolean_witness": self.boolean.counterexample,
            "option_equivalent": self.option_equivalent,
            "option_witness": (self.options.witness.serialize()
                               if self.options.witness else None),
            "judgments": [self.judgment_left.category.value,
                          self.judgment_right.category.value],
            "judged_equivalent": self.judged_equivalent,
        }


def compare(f: Formula, g: Formula) -> PairComparison:
    verdict = equivalent(f, g)  # its errors come before the option passes'
    return _comparison(verdict, _judged(f), _judged(g))


def _comparison(verdict: LawVerdict, left: tuple[OptionSet, Judgment],
                right: tuple[OptionSet, Judgment]) -> PairComparison:
    """The comparison of two formulas from their boolean verdict and each
    side's option set and judgment, as one option pass gives them."""
    (fo, fj), (go, gj) = left, right
    return PairComparison(verdict, _compare_options(fo, go), fj, gj)


# ---------------------------------------------------------------------------
# Records

class ReportRecord(Record):
    claim: str
    inputs: str
    expected: object
    computed: object

    @property
    def matches(self) -> bool:
        return self.expected == self.computed

    @property
    def status(self) -> str:
        return "match" if self.matches else "mismatch"

    def serialize(self) -> dict[str, object]:
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


CLASSICAL_LAW_EXPECTED = {name: "valid" for name in LAWS_BY_NAME}

XOR_LAW_EXPECTED = {
    "Dis.1": "valid",
    "Dis.2": "invalid",
    "Abs.1": "invalid",
    "Abs.2": "invalid",
    "Ide.1": "invalid",
    "Ide.2": "valid",
}

OPTION_SET_EXPECTED = {
    "1a": [[["A", 1], ["B", 1]], [["A", 1], ["C", 1]]],
    "1b": [[["A", 1], ["B", 1]], [["A", 1], ["C", 1]]],
    "2a": [[["A", 1]], [["B", 1], ["C", 1]]],
    "2b": [[["A", 1], ["B", 1]], [["A", 1], ["C", 1]], [["A", 2]], [["B", 1], ["C", 1]]],
    "5a": [[["A", 1]], [["A", 1], ["B", 1]]],
    "5c": [[["A", 1], ["B", 1]], [["A", 2]]],
    "6a": [[["A", 1]]],
    "6c": [[["A", 2]]],
}

JUDGMENT_EXPECTED = {
    "1a": "acceptable",
    "1b": "acceptable",
    "2a": "acceptable",
    "5a": "acceptable",
    "5b": "acceptable",
    "6b": "acceptable",
    "6a": "odd_hobson",
    "2b": "weird_double_image",
    "2b'": "weird_double_image",
    "5c": "weird_double_image",
    "5c'": "weird_double_image",
    "6c": "weird_double_image",
}

ITERABLE_VARIANT_TEXT = "talks:iterable and talks:iterable"

# (left, right) -> (boolean_equivalent, option_equivalent, judged_equivalent)
DIVERGENCE_EXPECTED = {
    ("1a", "1b"): (True, True, True),
    ("2a", "2b"): (True, False, False),
    ("5a", "5b"): (True, False, False),
    ("5a", "5c"): (True, False, False),
    ("6a", "6b"): (True, True, False),
    ("6c", "6b"): (True, False, False),
}

BREVITY_EXPECTED = [
    ("brevity.2b_vs_1b", "2b", "1b", "equal"),
    ("brevity.5a_vs_5b", "5a", "5b", "longer"),
]

PROBABILITY_DENOMINATORS = (2, 4, 6)


def _law_record(prefix: str, law: LawSchema, expected_status: str) -> ReportRecord:
    verdict = check_law(law)
    if verdict.valid:
        computed: dict[str, object] = {"status": "valid", "witness_separates": None}
    else:
        binding = {name: AtomNode(Atom(atom)) for name, atom in verdict.binding.items()}
        lhs, rhs = instantiate(law, binding)
        witness = verdict.counterexample
        separates = eval_formula(lhs, witness) != eval_formula(rhs, witness)
        computed = {"status": "invalid", "witness_separates": separates}
    expected = {"status": expected_status,
                "witness_separates": True if expected_status == "invalid" else None}
    return ReportRecord(f"{prefix}.{law.name}", law.name, expected, computed)


def law_records() -> list[ReportRecord]:
    records = []
    for law in STANDARD_LAWS:
        records.append(_law_record("laws.classical", law, CLASSICAL_LAW_EXPECTED[law.name]))
    for law in STANDARD_LAWS:
        records.append(_law_record("laws.xor", law.with_connectives(join="xor"),
                                   XOR_LAW_EXPECTED[law.name]))
    return records


def parity_records() -> list[ReportRecord]:
    return [ReportRecord(f"xor_parity.n{n:02d}", f"n={n}", True, xor_parity(n))
            for n in range(1, 13)]


def option_records() -> list[ReportRecord]:
    records = []
    for label, expected in OPTION_SET_EXPECTED.items():
        computed = denote_options(corpus_lookup(label)).serialize()
        records.append(ReportRecord(f"appendix.options.{label}", label, expected, computed))
    return records


def judgment_records() -> list[ReportRecord]:
    records = []
    for label, expected in JUDGMENT_EXPECTED.items():
        computed = judge(corpus_lookup(label)).category.value
        records.append(ReportRecord(f"judgment.{label}", label, expected, computed))
    variant = parse(ITERABLE_VARIANT_TEXT)
    records.append(ReportRecord("judgment.6c_iterable", ITERABLE_VARIANT_TEXT,
                                "acceptable", judge(variant).category.value))
    return records


def divergence_records() -> list[ReportRecord]:
    records = []
    for (left, right), (b, o, j) in DIVERGENCE_EXPECTED.items():
        cmp = compare(corpus_lookup(left), corpus_lookup(right))
        expected = {"boolean_equivalent": b, "option_equivalent": o, "judged_equivalent": j}
        computed = {"boolean_equivalent": cmp.boolean_equivalent,
                    "option_equivalent": cmp.option_equivalent,
                    "judged_equivalent": cmp.judged_equivalent}
        records.append(ReportRecord(f"divergence.{left}-{right}",
                                    f"{left}, {right}", expected, computed))
    return records


def _ignorance_suppression(label: str) -> dict[str, object]:
    report = imp.project(corpus_lookup(label), imp.Mode.GAZDAR)
    target = None
    for s in report.suppressed:
        c = s.constraint
        if (c.provenance is imp.Provenance.CLAUSAL
                and c.polarity is imp.Polarity.NOT_K
                and unparse(c.body) == "A"):
            target = s
            break
    ok, _ = imp.consistent(report.accepted)
    return {
        "notK_A_suppressed": target is not None,
        "clash_is_asserted": (target is not None
                              and all(c.provenance is imp.Provenance.ASSERTION
                                      for c in target.clashes_with)
                              and len(target.clashes_with) > 0),
        "accepted_consistent": ok,
    }


def implicature_records() -> list[ReportRecord]:
    records = []
    expected = {"notK_A_suppressed": True, "clash_is_asserted": True,
                "accepted_consistent": True}
    for label in ("6a", "5c", "5a"):
        records.append(ReportRecord(f"implicature.{label}.gazdar", label,
                                    expected, _ignorance_suppression(label)))
    report = imp.project(corpus_lookup("2b"), imp.Mode.GAZDAR)
    ok, _ = imp.consistent(report.accepted)
    computed = {
        "suppressed": len(report.suppressed),
        "clausal_accepted": len(report.accepted_by(imp.Provenance.CLAUSAL)),
        "strong_accepted": len(report.accepted_by(imp.Provenance.SCALAR_STRONG)),
        "accepted_consistent": ok,
    }
    records.append(ReportRecord(
        "implicature.2b.gazdar", "2b",
        {"suppressed": 0, "clausal_accepted": 8, "strong_accepted": 2,
         "accepted_consistent": True},
        computed))
    return records


def brevity_records() -> list[ReportRecord]:
    def relation(a: int, b: int) -> str:
        return "equal" if a == b else ("longer" if a > b else "shorter")

    records = []
    for claim, left, right, expected in BREVITY_EXPECTED:
        la = length_metric(corpus_lookup(left))
        lb = length_metric(corpus_lookup(right))
        records.append(ReportRecord(claim, f"{left} vs {right}", expected, relation(la, lb)))
    lhs, rhs = instantiate(LAWS_BY_NAME["Dis.1"],
                           {v: AtomNode(Atom(v)) for v in ("X", "Y", "Z")})
    records.append(ReportRecord(
        "brevity.dis1_rhs_vs_lhs", f"{unparse(rhs)} vs {unparse(lhs)}",
        "longer", relation(length_metric(rhs), length_metric(lhs))))
    return records


def probability_records() -> list[ReportRecord]:
    records = []
    for den in PROBABILITY_DENOMINATORS:
        result = check_frege_theorem(den)
        records.append(ReportRecord(f"probability.frege.den{den}", f"denominator={den}",
                                    "no_counterexample", result.status.value))
    control = check_frege_theorem(6, drop_beta=True)
    records.append(ReportRecord("probability.frege.drop_beta",
                                "denominator=6, premises reduced to alpha",
                                "counterexample", control.status.value))
    for den in PROBABILITY_DENOMINATORS:
        result = check_disjunction_corollary(den)
        records.append(ReportRecord(f"probability.corollary.den{den}", f"denominator={den}",
                                    "no_counterexample", result.status.value))
    records.append(ReportRecord("probability.explosion.den4",
                                "all denominator-4 distributions over {A,B}", True,
                                explosion_on_grid(4).status is SearchStatus.NO_COUNTEREXAMPLE))
    for den in (4, 6):
        result = check_relevance_ordering(den)
        records.append(ReportRecord(f"probability.ordering.den{den}", f"denominator={den}",
                                    "no_counterexample", result.status.value))
    return records


def build_records() -> list[ReportRecord]:
    return (law_records() + parity_records() + option_records() + judgment_records()
            + divergence_records() + implicature_records() + brevity_records()
            + probability_records())


def summarize(records: list[ReportRecord]) -> dict[str, object]:
    return {
        "claims": len(records),
        "matches": sum(1 for r in records if r.matches),
        "mismatches": sum(1 for r in records if not r.matches),
    }

