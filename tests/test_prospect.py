"""Formal-vector denotations: single prospects, option sets, judgments."""

from __future__ import annotations

import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsem import (
    And,
    Atom,
    AtomLimitError,
    AtomNode,
    Category,
    Judgment,
    Not,
    OptionSet,
    Or,
    Prospect,
    SizeLimitError,
    UnsupportedConnectiveError,
    WorkbenchError,
    Xor,
    compare,
    corpus_lookup,
    denote_one,
    denote_options,
    eval_formula,
    judge,
    option_equivalent,
    parse,
)
from coordsem import boolean, formula, prospect
from coordsem.boolean import assignments, truth_mask
from coordsem.formula import STATIVE, atom_names, atoms, or_nodes
from coordsem.prospect import OptionComparison
from small_scope import and_or_formulas

A, B, C = (AtomNode(Atom(n)) for n in "ABC")


def options_as_dicts(f) -> list[dict[str, int]]:
    return [p.as_dict() for p in denote_options(f).sorted()]


def test_denote_one_addition():
    assert denote_one(parse("A and A"), {}).as_dict() == {"A": 2}
    assert denote_one(parse("A and (B and A)"), {}).as_dict() == {"A": 2, "B": 1}


def test_denote_one_branch_choice():
    f = parse("A and (A or B)")
    assert denote_one(f, {0: 1}).as_dict() == {"A": 2}
    assert denote_one(f, {0: 0}).as_dict() == {"A": 1, "B": 1}


def test_denote_one_requires_total_assignment():
    with pytest.raises(WorkbenchError):
        denote_one(parse("A or B"), {})
    with pytest.raises(WorkbenchError):
        denote_one(parse("A or B"), {0: 2})
    # an or-node counts even on a branch not chosen; the first missing one
    # in textual order is named
    with pytest.raises(WorkbenchError, match="lacks or-node 2$"):
        denote_one(parse("(A or B) or (C or D)"), {0: 1, 1: 1})
    with pytest.raises(WorkbenchError, match="lacks or-node 0$"):
        denote_one(parse("(A or B) or (C or D)"), {1: 1})


def test_denotation_rejects_negation_and_xor():
    for text in ("not A", "A xor B", "A and not B", "A or (B xor C)"):
        with pytest.raises(UnsupportedConnectiveError):
            denote_options(parse(text))
        with pytest.raises(UnsupportedConnectiveError):
            judge(parse(text))


def _chain(k: int) -> str:
    return " or ".join(chr(ord("A") + i) for i in range(k + 1))


def test_size_limit_and_error_order():
    limit = prospect.COEFF_LIMIT
    assert len(denote_options(parse(_chain(limit)))) == limit + 1
    over = parse(_chain(limit + 1))
    with pytest.raises(SizeLimitError, match=f"^{limit + 1} or-nodes exceed the enumeration limit$"):
        denote_options(over)
    with pytest.raises(SizeLimitError):
        next(prospect.coefficient_assignments(over))
    # an unsupported connective is reported before the size limit, however
    # late it comes in the text
    for tail, message in (("not A", "negation"), ("A xor B", "xor")):
        f = And(over, parse(tail))
        for call in (denote_options, judge, lambda f: option_equivalent(A, f)):
            with pytest.raises(UnsupportedConnectiveError,
                               match=f"^{message} has no vector denotation$"):
                call(f)


@pytest.mark.parametrize("f, message", [
    (And(Xor(A, B), Not(A)), "xor"),
    (And(Not(A), Xor(A, B)), "negation"),
    (Xor(Not(A), B), "xor"),
    (Not(Xor(A, B)), "negation"),
])
def test_the_first_unsupported_connective_in_pre_order_is_reported(f, message):
    for call in (denote_options, judge, lambda f: denote_one(f, {})):
        with pytest.raises(UnsupportedConnectiveError,
                           match=f"^{message} has no vector denotation$"):
            call(f)


OPTION_SETS = {
    "1a": [{"A": 1, "B": 1}, {"A": 1, "C": 1}],
    "1b": [{"A": 1, "B": 1}, {"A": 1, "C": 1}],
    "2a": [{"A": 1}, {"B": 1, "C": 1}],
    "2b": [{"A": 1, "B": 1}, {"A": 1, "C": 1}, {"A": 2}, {"B": 1, "C": 1}],
    "2b'": [{"A": 1, "B": 1}, {"A": 1, "C": 1}, {"A": 2}, {"B": 1, "C": 1}],
    "5a": [{"A": 1}, {"A": 1, "B": 1}],
    "5b": [{"A": 1}],
    "5c": [{"A": 1, "B": 1}, {"A": 2}],
    "5c'": [{"A": 1, "B": 1}, {"A": 2}],
    "6a": [{"A": 1}],
    "6b": [{"A": 1}],
    "6c": [{"A": 2}],
}


@pytest.mark.parametrize("label", sorted(OPTION_SETS))
def test_corpus_option_sets(label):
    assert options_as_dicts(corpus_lookup(label)) == OPTION_SETS[label]


def test_option_equivalent_pairs():
    assert option_equivalent(corpus_lookup("1a"), corpus_lookup("1b")).equal

    cmp = option_equivalent(corpus_lookup("2a"), corpus_lookup("2b"))
    assert not cmp.equal
    assert cmp.witness.as_dict() == {"A": 2}

    cmp = option_equivalent(corpus_lookup("5a"), corpus_lookup("5b"))
    assert not cmp.equal
    assert cmp.witness.as_dict() == {"A": 1, "B": 1}


def test_option_equivalence_is_or_idempotent():
    # "A or A" denotes exactly what "A" denotes, option-wise
    assert option_equivalent(corpus_lookup("6a"), corpus_lookup("6b")).equal


def test_non_idempotence_of_and():
    assert not option_equivalent(corpus_lookup("6c"), corpus_lookup("6b")).equal


@pytest.mark.parametrize("name", ["A", "B", "tall", "Q_1"])
def test_non_idempotence_for_any_atom(name):
    assert not option_equivalent(parse(f"{name} and {name}"), parse(name)).equal
    assert option_equivalent(parse(f"{name} or {name}"), parse(name)).equal


JUDGMENTS = {
    "1a": Category.ACCEPTABLE,
    "1b": Category.ACCEPTABLE,
    "2a": Category.ACCEPTABLE,
    "5a": Category.ACCEPTABLE,
    "5b": Category.ACCEPTABLE,
    "6b": Category.ACCEPTABLE,
    "6a": Category.ODD_HOBSON,
    "2b": Category.WEIRD_DOUBLE_IMAGE,
    "2b'": Category.WEIRD_DOUBLE_IMAGE,
    "5c": Category.WEIRD_DOUBLE_IMAGE,
    "5c'": Category.WEIRD_DOUBLE_IMAGE,
    "6c": Category.WEIRD_DOUBLE_IMAGE,
}


@pytest.mark.parametrize("label", sorted(JUDGMENTS))
def test_corpus_judgments(label):
    assert judge(corpus_lookup(label)).category is JUDGMENTS[label]


def test_double_image_diagnostics():
    j = judge(corpus_lookup("2b"))
    assert [(p.as_dict(), name, coeff) for p, name, coeff in j.double_images] == \
        [({"A": 2}, "A", 2)]


def test_hobson_diagnostics():
    j = judge(corpus_lookup("6a"))
    assert j.hobson_nodes == (0,)
    assert j.double_images == ()


def test_hobson_detection_is_semantic():
    # branches differ syntactically but denote the same options
    j = judge(parse("A or (A or A)"))
    assert j.category is Category.ODD_HOBSON
    assert j.hobson_nodes == (0, 1)


def test_double_image_outranks_hobson():
    j = judge(parse("(A or A) and A"))
    assert j.category is Category.WEIRD_DOUBLE_IMAGE
    assert j.hobson_nodes == (0,)  # both defects diagnosed, stronger one reported


def test_iterable_repetition_is_acceptable():
    j = judge(parse("talks:iterable and talks:iterable"))
    assert j.category is Category.ACCEPTABLE
    assert options_as_dicts(parse("talks:iterable and talks:iterable")) == [{"talks": 2}]


def test_mixed_aspects():
    # a stative double image is weird even next to an iterable one
    j = judge(parse("(talks:iterable and talks) and (A and A)"))
    assert j.category is Category.WEIRD_DOUBLE_IMAGE
    assert [(name, coeff) for _, name, coeff in j.double_images] == [("A", 2)]


def test_prospect_invariants():
    with pytest.raises(ValueError):
        Prospect(())
    with pytest.raises(ValueError):
        Prospect((("A", 0),))
    with pytest.raises(ValueError):
        Prospect.from_dict({"A": -1})
    assert str(Prospect((("A", 2), ("B", 1)))) == "A + A + B"
    # the names must strictly increase: out of order, or one name twice
    # (which would print A + A + A yet differ from 3A), is refused
    for parts in [(("B", 1), ("A", 1)), (("A", 1), ("A", 2)), (("A", 2), ("A", 1)),
                  (("A", 1), ("A", 1)), (("A", 1), ("B", 1), ("B", 1))]:
        with pytest.raises(ValueError, match="^prospect parts must be sorted by atom name, each name once$"):
            Prospect(parts)
    # a name is a str and a coefficient an int, not a float or a bool, so
    # every prospect prints, and True is not taken for 1
    for parts in [(("A", 1.5),), (("A", 1.0),), ((1, 1),), (("A", True),),
                  (("A", 1), ("B", "2")), ((b"A", 1),)]:
        with pytest.raises(ValueError, match="^prospect parts must pair a str name with an int coefficient$"):
            Prospect(parts)
    for coeffs in [{"A": 1.5}, {1: 1}, {"A": True}]:
        with pytest.raises(ValueError, match="^prospect parts must pair a str name with an int coefficient$"):
            Prospect.from_dict(coeffs)


_A_ITERABLE = AtomNode(Atom("A", "iterable"))


@pytest.mark.parametrize("f, category", [
    (And(A, _A_ITERABLE), Category.WEIRD_DOUBLE_IMAGE),
    (And(_A_ITERABLE, A), Category.ACCEPTABLE),
    # the first occurrence in the text is the deeper one
    (And(And(_A_ITERABLE, B), A), Category.ACCEPTABLE),
    (And(And(A, B), _A_ITERABLE), Category.WEIRD_DOUBLE_IMAGE),
    (Or(_A_ITERABLE, And(A, A)), Category.ACCEPTABLE),
])
def test_the_first_occurrence_in_the_text_sets_an_atoms_aspect(f, category):
    # parse refuses a name with two aspects; a hand-built formula can have one
    judgment = judge(f)
    assert judgment.category == category
    assert judgment == _reference_judge(f, reference_options(f))


def _calls(function, run) -> int:
    """How many times `run()` enters `function`, under whatever name it is
    called: the profile hook matches the code object."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is function.__code__

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(old)
    return calls


def test_judge_and_compare_walk_each_formula_once_before_the_pass():
    f, g = parse("A or (B and A)"), parse("(A or B) and (A:iterable or C)")
    with mock.patch.object(prospect, "_walk", wraps=prospect._walk) as walk_spy:
        assert _calls(formula._walk, lambda: judge(f)) == 1
        assert walk_spy.call_args_list == [mock.call(f)]
        with mock.patch.object(boolean, "atom_names", wraps=boolean.atom_names) as names_spy:
            walks = _calls(formula._walk, lambda: compare(f, g))
    # the truth-table verdict collects each side's atom names, and the option
    # layer walks each side once before its pass: one walk per side per layer
    assert names_spy.call_count == 2
    assert walks == 4
    assert [c.args[0] for c in walk_spy.call_args_list] == [f, f, g]


def test_option_set_equality_is_order_insensitive():
    p1, p2 = Prospect((("A", 1),)), Prospect((("B", 1),))
    assert OptionSet((p1, p2)) == OptionSet((p2, p1))
    assert OptionSet((p1,)) != OptionSet((p1, p2))


# ---------------------------------------------------------------------------
# The enumerator as oracle: denote_one under every coefficient assignment,
# all-ones first, duplicates dropped at their first appearance.

def reference_options(f) -> tuple[Prospect, ...]:
    seen: dict[Prospect, None] = {}
    for c in prospect.coefficient_assignments(f):
        seen.setdefault(denote_one(f, c))
    return tuple(seen)


def _reference_judge(f, options):
    """Double images over f's enumerated `options` (`reference_options(f)`,
    which the caller has already built); an or-node is Hobson's choice when
    its branches, each enumerated on its own, give equal sets."""
    aspect = {name: atom.aspect for name, atom in atoms(f).items()}
    doubles = tuple((p, name, coeff)
                    for p in OptionSet(options).sorted()
                    for name, coeff in p.parts
                    if coeff >= 2 and aspect[name] == STATIVE)
    hobsons = tuple(n for n, (_, node) in enumerate(or_nodes(f))
                    if OptionSet(reference_options(node.left))
                    == OptionSet(reference_options(node.right)))
    if doubles:
        category = Category.WEIRD_DOUBLE_IMAGE
    elif hobsons:
        category = Category.ODD_HOBSON
    else:
        category = Category.ACCEPTABLE
    return Judgment(category, doubles, hobsons)


_mixed_denotable = st.recursive(
    st.builds(lambda n, iterable: AtomNode(Atom(n, "iterable" if iterable else "stative")),
              st.sampled_from("ABCD"), st.booleans()),
    lambda kids: st.one_of(st.builds(And, kids, kids), st.builds(Or, kids, kids)),
    max_leaves=14,
)


# The slowest example known, the first below (13 or-nodes), took 0.27 to
# 0.5 s on a shared 2-vCPU machine, almost all of it in the reference
# enumerator; hypothesis's default 200 ms deadline made it a flake.
@settings(max_examples=400, deadline=1000)
@given(_mixed_denotable)
@example(parse("(A or B) or ((C or D) or ((A and B) or (C or D))) "
               "or ((A or C) or (B or D)) or (A or D) or B"))
# B first arises on the right branch of the outer or-node, with a smaller
# key than on its left branch: keeping the first key seen puts C before B
@example(Or(Or(A, B), Or(B, C)))
# the Hobson nodes, found in the order 0, 2, 1, are reported sorted
@example(Or(Or(A, A), Or(A, A)))
@example(parse("(A or B) or (B or A)"))
@example(parse("(A or A) and (B or (C or C))"))
@example(parse("A or (A or B)"))
def test_options_match_the_enumerator(f):
    options = reference_options(f)
    assert denote_options(f).prospects == options
    assert judge(f) == _reference_judge(f, options)


def test_options_match_the_enumerator_on_every_small_formula():
    formulas = and_or_formulas(3)
    for f in formulas:
        options = reference_options(f)
        assert denote_options(f).prospects == options
        assert judge(f) == _reference_judge(f, options)
    assert len(formulas) == 237


def _assert_checked(prospects) -> int:
    """Every prospect is the one the public constructor, with all its
    checks, builds from its parts. Returns how many there were."""
    n = 0
    for p in prospects:
        checked = Prospect(p.parts)
        assert checked == p, p
        assert (hash(checked), repr(checked)) == (hash(p), repr(p))
        n += 1
    return n


def _returned_prospects(f, g):
    """The prospects of `denote_options(f)`, `judge(f)` and `compare(g, f)`."""
    cmp = compare(g, f)
    yield from denote_options(f)
    for j in (judge(f), cmp.judgment_left, cmp.judgment_right):
        yield from (p for p, _, _ in j.double_images)
    if cmp.options.witness is not None:
        yield cmp.options.witness


def test_unchecked_prospects_pass_the_checks_on_every_small_formula():
    formulas = and_or_formulas(3)
    # each formula is compared with its predecessor, the first with the last
    assert sum(_assert_checked(_returned_prospects(f, g))
               for f, g in zip(formulas, formulas[-1:] + formulas[:-1])) == 909


@settings(max_examples=100, deadline=1000)
@given(_mixed_denotable, _mixed_denotable)
def test_unchecked_prospects_pass_the_checks(f, g):
    _assert_checked(_returned_prospects(f, g))


_coeffs = st.dictionaries(st.sampled_from("ABCD"), st.integers(1, 3), min_size=1)


@given(_coeffs, _coeffs)
def test_add_builds_a_checked_prospect(x, y):
    p = Prospect.from_dict(x).add(Prospect.from_dict(y))
    assert _assert_checked([p]) == 1
    assert p == Prospect.from_dict({n: x.get(n, 0) + y.get(n, 0) for n in {*x, *y}})


def test_the_option_pass_builds_its_prospects_unchecked():
    f, g = parse("(A or B) and (A or C)"), parse("A or (A and B)")
    check = Prospect.__post_init__
    assert _calls(check, lambda: prospect._option_pass(f)) == 0
    assert _calls(check, lambda: (denote_options(f), judge(f), compare(f, g))) == 0
    one = Prospect.from_dict({"A": 1})
    assert _calls(check, lambda: one.add(one)) == 0
    # the public constructors check once per prospect
    assert _calls(check, lambda: (Prospect.from_dict({"A": 1}), Prospect((("B", 2),)))) == 2


@pytest.mark.parametrize("text, nodes", [
    # the branches' options are {A, B} on both sides, first reached under
    # different assignments, so the two dicts differ in their values only
    ("(A or B) or (B or A)", (1,)),
    ("(A or A) and (B or (C or C))", (0, 2)),
    # once B is merged in, the left branch's options are the right's
    ("A or (A or B)", ()),
])
def test_pinned_hobson_nodes(text, nodes):
    f = parse(text)
    assert judge(f).hobson_nodes == nodes
    assert _reference_judge(f, reference_options(f)).hobson_nodes == nodes


def test_judge_makes_one_option_pass():
    f = parse(_chain(prospect.COEFF_LIMIT))
    with mock.patch.object(prospect, "_option_pass", wraps=prospect._option_pass) as spy:
        judge(f)
    assert spy.call_count == 1


def test_compare_makes_one_option_pass_per_side():
    f, g = parse("A or (B and C)"), parse("(A or B) and (A or C)")
    with mock.patch.object(prospect, "_option_pass", wraps=prospect._option_pass) as spy:
        cmp = compare(f, g)
    assert spy.call_count == 2
    assert cmp.options == option_equivalent(f, g)
    assert (cmp.judgment_left, cmp.judgment_right) == (judge(f), judge(g))


def test_compare_checks_the_truth_tables_before_the_option_passes():
    # a side without an option set still reports the atom limit first
    wide = parse(" and ".join(f"P{i}" for i in range(13)))
    with pytest.raises(AtomLimitError):
        compare(parse("A xor B"), wide)


@pytest.mark.parametrize("text", [
    _chain(12),
    " and ".join(f"({x} or {y})" for x, y in zip("AABCDBAECD", "BCCDEEDAAB")),
], ids=["chain12", "conj10"])
def test_long_formulas_match_the_enumerator(text):
    f = parse(text)
    assert denote_options(f).prospects == reference_options(f)


def test_add_merges_sorted_parts():
    p, q = Prospect.from_dict({"A": 1, "C": 2}), Prospect.from_dict({"B": 1, "C": 1, "D": 3})
    assert p.add(q).parts == (("A", 1), ("B", 1), ("C", 3), ("D", 3))
    assert q.add(p) == p.add(q)


# ---------------------------------------------------------------------------
# Properties over random denotable formulas

_leaf = st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from(["A", "B", "C", "D"]))
_denotable = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
    ),
    max_leaves=10,
)


def _swap_children_everywhere(f):
    if isinstance(f, AtomNode):
        return f
    if isinstance(f, And):
        return And(_swap_children_everywhere(f.right), _swap_children_everywhere(f.left))
    return Or(_swap_children_everywhere(f.right), _swap_children_everywhere(f.left))


@given(_denotable)
def test_options_invariant_under_commutation(f):
    assert denote_options(f) == denote_options(_swap_children_everywhere(f))


@given(_denotable)
def test_option_count_bounded_by_choices(f):
    k = sum(1 for p in _paths(f))
    assert 1 <= len(denote_options(f)) <= 2 ** k


def _paths(f):
    if isinstance(f, Or):
        yield f
    if isinstance(f, (And, Or)):
        yield from _paths(f.left)
        yield from _paths(f.right)


@given(_denotable)
def test_or_free_formulas_denote_occurrence_counts(f):
    if any(True for _ in _paths(f)):
        return
    counts: dict[str, int] = {}
    def count(node):
        if isinstance(node, AtomNode):
            counts[node.atom.name] = counts.get(node.atom.name, 0) + 1
        else:
            count(node.left)
            count(node.right)
    count(f)
    assert [p.as_dict() for p in denote_options(f)] == [counts]


def test_and_associativity_of_options():
    left = parse("(A and B) and C")
    right = parse("A and (B and C)")
    assert denote_options(left) == denote_options(right)


@given(st.sampled_from("ABC"), st.sampled_from("ABC"), st.sampled_from("ABC"))
def test_arithmetic_distributivity_of_options(x, y, z):
    lhs = parse(f"{x} and ({y} or {z})")
    rhs = parse(f"({x} and {y}) or ({x} and {z})")
    assert option_equivalent(lhs, rhs).equal


# ---------------------------------------------------------------------------
# The scan as oracle for the comparison: membership in an OptionSet scans its
# tuple, so this takes time proportional to the product of the sets' sizes.

def reference_compare_options(fo: OptionSet, go_: OptionSet) -> OptionComparison:
    if fo == go_:
        return OptionComparison(True)
    for p in go_:
        if p not in fo:
            return OptionComparison(False, witness=p)
    for p in fo:
        if p not in go_:
            return OptionComparison(False, witness=p)
    raise AssertionError("unequal sets with empty symmetric difference")


def test_comparison_matches_the_scan_on_every_small_pair():
    option_sets = [denote_options(f) for f in and_or_formulas(3)]
    unequal = from_f = 0
    for fo in option_sets:
        for go_ in option_sets:
            cmp = prospect._compare_options(fo, go_)
            assert cmp == reference_compare_options(fo, go_), (fo, go_)
            if not cmp.equal:
                unequal += 1
                from_f += cmp.witness in fo  # g's options are all among f's
    assert (len(option_sets) ** 2, unequal, from_f) == (56169, 54558, 1830)


@given(_mixed_denotable, _mixed_denotable)
def test_comparison_matches_the_scan(f, g):
    fo, go_ = denote_options(f), denote_options(g)
    assert option_equivalent(f, g) == reference_compare_options(fo, go_)


def _pairs(k: int) -> str:
    return " and ".join(f"(A{i} or B{i})" for i in range(k))


def test_comparison_is_linear_in_the_option_sets():
    p = parse(_pairs(10))
    f = Or(parse("Z"), p)
    sizes = len(denote_options(f)) + len(denote_options(p))
    assert sizes == 1025 + 1024
    calls = 0
    original = Prospect.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    for left, right in ((f, p), (p, f)):
        with mock.patch.object(Prospect, "__eq__", counted):
            cmp = option_equivalent(left, right)
        assert (cmp.equal, cmp.witness) == (False, Prospect.from_dict({"Z": 1}))
    # the scan makes about 500,000 calls on the first order
    assert calls <= 2 * sizes


# ---------------------------------------------------------------------------
# Option equivalence implies boolean equivalence: an option set fixes the
# truth table, which is the disjunction over options of the conjunction of
# each option's atoms.

def test_option_equivalent_formulas_are_boolean_equivalent():
    formulas = and_or_formulas(4)
    tables = {}  # option set -> the truth table of every formula denoting it
    for f in formulas:
        table = truth_mask(f, ("A", "B", "C"))
        assert tables.setdefault(denote_options(f), table) == table
    assert (len(formulas), len(tables)) == (3477, 218)


def _assert_the_option_set_fixes_the_truth_table(f):
    options = denote_options(f)
    for v in assignments(sorted(atom_names(f))):
        assert eval_formula(f, v) == any(all(v[name] for name, _ in p.parts)
                                         for p in options)


@given(_denotable)
def test_the_option_set_fixes_the_truth_table(f):
    _assert_the_option_set_fixes_the_truth_table(f)


def test_the_option_set_fixes_the_truth_table_of_every_small_formula():
    formulas = and_or_formulas(3)
    for f in formulas:
        _assert_the_option_set_fixes_the_truth_table(f)
    assert len(formulas) == 237
