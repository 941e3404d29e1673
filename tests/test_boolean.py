"""Truth-table semantics: evaluation, equivalence, law checking, duality."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from coordsem import (
    ABS1,
    ABS2,
    DIS1,
    DIS2,
    IDE1,
    IDE2,
    STANDARD_LAWS,
    Atom,
    AtomNode,
    AtomLimitError,
    And,
    MissingAtomError,
    Not,
    Or,
    Xor,
    UnsupportedConnectiveError,
    Verdict,
    LawSchema,
    LawVerdict,
    check_law,
    corpus_lookup,
    dual,
    equivalent,
    eval_formula,
    parse,
    unparse,
    xor_parity,
)
from coordsem.boolean import ATOM_LIMIT, _odd_worlds, assignments, truth_mask, world
from coordsem.formula import atom_names

A = AtomNode(Atom("A"))


def test_eval_basics():
    assert eval_formula(parse("A and A"), {"A": True}) is True
    assert eval_formula(parse("A and A"), {"A": False}) is False
    assert eval_formula(parse("not A"), {"A": False}) is True
    # exclusive disjunction chains are true on odd counts only
    assert eval_formula(parse("A xor (B xor C)"), {"A": True, "B": True, "C": False}) is False
    assert eval_formula(parse("A xor (B xor C)"), {"A": True, "B": True, "C": True}) is True
    # row of the truth table for A or (B and C)
    assert eval_formula(corpus_lookup("2a"), {"A": False, "B": True, "C": True}) is True


def test_eval_missing_atom():
    # both operands are evaluated, so the error does not depend on their order
    for text in ("A and B", "A or B", "B or A", "not A and B", "B and not A", "A xor B"):
        with pytest.raises(MissingAtomError, match="^assignment lacks atom 'B'$"):
            eval_formula(parse(text), {"A": True})


def test_eval_returns_a_bool():
    assert eval_formula(parse("A"), {"A": 1}) is True
    assert eval_formula(parse("A or B"), {"A": 0, "B": 2}) is True
    assert eval_formula(parse("A and B"), {"A": 1, "B": 0}) is False


def test_equivalent_valid_pairs():
    assert equivalent(corpus_lookup("1a"), corpus_lookup("1b")).valid
    assert equivalent(corpus_lookup("5a"), corpus_lookup("5b")).valid
    assert equivalent(corpus_lookup("5c"), corpus_lookup("5c'")).valid  # or commutes
    assert equivalent(corpus_lookup("6a"), corpus_lookup("6b")).valid


def test_equivalent_xor_distribution_counterexample():
    verdict = equivalent(parse("A xor (B and C)"), parse("(A xor B) and (A xor C)"))
    assert not verdict.valid
    assert verdict.counterexample == {"A": True, "B": True, "C": False}


def test_equivalent_uses_union_of_atoms():
    # A entails A or B but they differ at A=0, B=1
    verdict = equivalent(parse("A"), parse("A or B"))
    assert not verdict.valid
    assert verdict.counterexample == {"A": False, "B": True}


def test_frege_or_definition():
    # X or Y is equivalent to (not X) implies Y, with implication spelled
    # not(antecedent and not consequent)
    assert equivalent(parse("A or B"), parse("not (not A and not B)")).valid


def test_equivalent_agrees_with_signature_oracle():
    # signature = tuple of values over a fixed assignment enumeration
    labels = ["1a", "1b", "2a", "2b", "5a", "5b", "5c", "6a", "6b", "6c"]
    formulas = {lbl: corpus_lookup(lbl) for lbl in labels}
    rows = [dict(zip("ABC", bits)) for bits in product([True, False], repeat=3)]
    signature = {lbl: tuple(eval_formula(f, r) for r in rows) for lbl, f in formulas.items()}
    for left in labels:
        for right in labels:
            expected = signature[left] == signature[right]
            assert equivalent(formulas[left], formulas[right]).valid is expected


def test_check_law_classical_all_valid():
    for law in STANDARD_LAWS:
        verdict = check_law(law)
        assert verdict.status is Verdict.VALID, law.name
        assert verdict.counterexample is None


XOR_EXPECTED = {
    "Dis.1": True,
    "Dis.2": False,
    "Abs.1": False,
    "Abs.2": False,
    "Ide.1": False,
    "Ide.2": True,
}


@pytest.mark.parametrize("law", STANDARD_LAWS, ids=lambda l: l.name)
def test_check_law_xor_substitution(law):
    schema = law.with_connectives(join="xor")
    verdict = check_law(schema)
    assert verdict.valid is XOR_EXPECTED[law.name]
    if not verdict.valid:
        # the reported witness must actually separate the two templates
        assert eval_formula(schema.lhs, verdict.counterexample) != \
            eval_formula(schema.rhs, verdict.counterexample)


def test_xor_dis2_witness_value():
    verdict = check_law(DIS2.with_connectives(join="xor"))
    assert verdict.counterexample == {"X": True, "Y": True, "Z": False}


# The standard laws with `or` in place of `and`, built by hand.
MEET_AS_OR = {
    "Dis.1": ("X or (Y or Z)", "(X or Y) or (X or Z)"),
    "Dis.2": ("X or (Y or Z)", "(X or Y) or (X or Z)"),
    "Abs.1": ("X or (X or Y)", "X"),
    "Abs.2": ("X or (X or Y)", "X"),
    "Ide.1": ("X or X", "X"),
    "Ide.2": ("X or X", "X"),
}

# Each standard law in three variants, with frozen results: both templates,
# the verdict with its counterexample, and the dual's templates (None where
# a template holds xor and duality is undefined).
LAW_TABLE = [
    ("Dis.1", "classical", ("X and (Y or Z)", "X and Y or X and Z"), "valid", None,
     ("X or Y and Z", "(X or Y) and (X or Z)")),
    ("Dis.1", "join=xor", ("X and (Y xor Z)", "X and Y xor X and Z"), "valid", None, None),
    ("Dis.1", "meet=or", ("X or Y or Z", "(X or Y) or X or Z"), "valid", None,
     ("X and Y and Z", "(X and Y) and X and Z")),
    ("Dis.2", "classical", ("X or Y and Z", "(X or Y) and (X or Z)"), "valid", None,
     ("X and (Y or Z)", "X and Y or X and Z")),
    ("Dis.2", "join=xor", ("X xor Y and Z", "(X xor Y) and (X xor Z)"), "invalid",
     {"X": True, "Y": True, "Z": False}, None),
    ("Dis.2", "meet=or", ("X or Y or Z", "(X or Y) or X or Z"), "valid", None,
     ("X and Y and Z", "(X and Y) and X and Z")),
    ("Abs.1", "classical", ("X or X and Y", "X"), "valid", None, ("X and (X or Y)", "X")),
    ("Abs.1", "join=xor", ("X xor X and Y", "X"), "invalid", {"X": True, "Y": True}, None),
    ("Abs.1", "meet=or", ("X or X or Y", "X"), "invalid",
     {"X": False, "Y": True}, ("X and X and Y", "X")),
    ("Abs.2", "classical", ("X and (X or Y)", "X"), "valid", None, ("X or X and Y", "X")),
    ("Abs.2", "join=xor", ("X and (X xor Y)", "X"), "invalid", {"X": True, "Y": True}, None),
    ("Abs.2", "meet=or", ("X or X or Y", "X"), "invalid",
     {"X": False, "Y": True}, ("X and X and Y", "X")),
    ("Ide.1", "classical", ("X or X", "X"), "valid", None, ("X and X", "X")),
    ("Ide.1", "join=xor", ("X xor X", "X"), "invalid", {"X": True}, None),
    ("Ide.1", "meet=or", ("X or X", "X"), "valid", None, ("X and X", "X")),
    ("Ide.2", "classical", ("X and X", "X"), "valid", None, ("X or X", "X")),
    # no join node, so the xor variant is the law itself, and has a dual
    ("Ide.2", "join=xor", ("X and X", "X"), "valid", None, ("X or X", "X")),
    ("Ide.2", "meet=or", ("X or X", "X"), "valid", None, ("X and X", "X")),
]

LAWS_BY_NAME = {law.name: law for law in STANDARD_LAWS}


def _variant(name, variant):
    if variant == "meet=or":
        return LawSchema(name, *map(parse, MEET_AS_OR[name]))
    law = LAWS_BY_NAME[name]
    return law.with_connectives(join="xor") if variant == "join=xor" else law


def _sides(schema):
    return unparse(schema.lhs), unparse(schema.rhs)


@pytest.mark.parametrize("name, variant, sides, status, counterexample, dual_sides", LAW_TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in LAW_TABLE])
def test_law_table(name, variant, sides, status, counterexample, dual_sides):
    schema = _variant(name, variant)
    assert _sides(schema) == sides
    assert check_law(schema) == LawVerdict(Verdict(status), counterexample)
    if dual_sides is None:
        with pytest.raises(UnsupportedConnectiveError):
            dual(schema)
    else:
        assert dual(schema).name == f"dual({name})"
        assert _sides(dual(schema)) == dual_sides
        assert dual(dual(schema)) == schema


def test_dual_pairs():
    assert dual(DIS1) == DIS2
    assert dual(DIS2) == DIS1
    assert dual(ABS1) == ABS2
    assert dual(IDE1) == IDE2
    assert dual(dual(IDE1)) == IDE1
    assert dual(IDE2.with_connectives(join="xor")) == IDE1


def test_dual_rejects_xor():
    for law in STANDARD_LAWS[:5]:
        with pytest.raises(UnsupportedConnectiveError):
            dual(law.with_connectives(join="xor"))


def test_duality_principle():
    # over {and, or}, a law and its dual share their verdict
    for law in STANDARD_LAWS:
        assert check_law(law).status is check_law(dual(law)).status


@pytest.mark.parametrize("n", range(1, 13))
def test_xor_parity(n):
    assert xor_parity(n) is True


def reference_odd_worlds(n):
    """The odd-parity worlds over n names, counted on each assignment's
    values: the reference side `xor_parity` used before `_odd_worlds`."""
    names = [f"P{i}" for i in range(1, n + 1)]
    return sum(1 << i for i, v in enumerate(assignments(names)) if sum(v.values()) % 2)


@pytest.mark.parametrize("n", range(1, ATOM_LIMIT + 1))
def test_odd_worlds_matches_the_per_assignment_count(n):
    assert _odd_worlds(n) == reference_odd_worlds(n)


def test_xor_parity_range():
    with pytest.raises(AtomLimitError):
        xor_parity(0)
    with pytest.raises(AtomLimitError):
        xor_parity(13)


def test_atom_limit_on_equivalence():
    wide = " and ".join(f"P{i}" for i in range(13))
    with pytest.raises(AtomLimitError):
        equivalent(parse(wide), A)


# ---------------------------------------------------------------------------
# The truth-mask kernel against the per-assignment loops it replaced

def reference_mask(f, names):
    """Bit i set iff eval_formula holds in the i-th assignment."""
    return sum(1 << i for i, v in enumerate(assignments(names)) if eval_formula(f, v))


def reference_counterexample(f, g):
    """The first assignment, in world order, on which f and g differ."""
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    for v in assignments(names):
        if eval_formula(f, v) != eval_formula(g, v):
            return v
    return None


_leaf = st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from("ABCD"))
formulas = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Xor, kids, kids),
        st.builds(Not, kids),
    ),
    max_leaves=8,
)


@given(formulas, st.sets(st.sampled_from("ABCDEF")))
def test_truth_mask_matches_eval_formula(f, extra):
    names = sorted(set(atom_names(f)) | extra)
    assert truth_mask(f, names) == reference_mask(f, names)


@given(formulas, formulas)
def test_equivalent_reports_the_first_separating_assignment(f, g):
    verdict = equivalent(f, g)
    assert verdict.counterexample == reference_counterexample(f, g)
    assert verdict.valid is (verdict.counterexample is None)


def entails(f, g) -> bool:
    """Whether every world that makes f true makes g true, read off the two
    truth masks over the union of their atoms."""
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    return truth_mask(f, names) & ~truth_mask(g, names) == 0


@given(formulas, formulas)
def test_entails_matches_the_truth_table(f, g):
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    expected = all(eval_formula(g, v) for v in assignments(names) if eval_formula(f, v))
    assert entails(f, g) is expected


def product_assignments(names):
    """The world order spelled out: lexicographic, True before False."""
    for bits in product([True, False], repeat=len(names)):
        yield dict(zip(names, bits))


def test_world_is_the_ith_assignment():
    for n in range(ATOM_LIMIT + 1):
        names = [f"P{i}" for i in range(n)]
        expected = list(product_assignments(names))
        assert [world(names, i) for i in range(2 ** n)] == expected
        assert list(assignments(names)) == expected


def test_assignments_refuse_too_many_atoms_on_first_iteration():
    worlds = assignments([f"P{i}" for i in range(ATOM_LIMIT + 1)])
    with pytest.raises(AtomLimitError):
        next(worlds)


def test_truth_mask_error_paths():
    with pytest.raises(AtomLimitError):
        truth_mask(A, [f"P{i}" for i in range(13)])
    with pytest.raises(MissingAtomError):
        truth_mask(parse("A and B"), ["A"])
