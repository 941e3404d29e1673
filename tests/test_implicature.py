"""Implicature generation, belief-model satisfiability, projection."""

from __future__ import annotations

import json
import re
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from coordsem import (
    CORPUS_LABELS,
    And,
    Atom,
    AtomLimitError,
    AtomNode,
    ImplicatureReport,
    Mode,
    Not,
    Or,
    Polarity,
    Provenance,
    assertions,
    consistent,
    corpus_lookup,
    equivalent,
    parse,
    potential_clausal,
    potential_scalar,
    project,
    eval_formula,
    unparse,
    WorkbenchError,
    Xor,
)
from coordsem.boolean import ATOM_LIMIT, _evaluate, _name_masks, truth_mask
from coordsem.formula import IDE2, _walk, atom_names, instantiate, or_nodes, subformulas
from coordsem import cli, implicature
from coordsem.implicature import (
    EpistemicConstraint,
    Suppression,
    _minimal_clash_set,
)
from small_scope import and_or_formulas, connective_formulas
from test_formula import _in_order_ors


def _c(polarity, text, provenance=Provenance.ASSERTION, source=None):
    return EpistemicConstraint(polarity, parse(text), provenance, source)


def _texts(constraints):
    return [str(c) for c in constraints]


def test_assertions_atomic_and_disjunctive():
    assert _texts(assertions(parse("A"))) == ["K(A)"]
    assert _texts(assertions(parse("A or B"))) == ["K(A or B)"]


def test_assertions_top_level_conjunction():
    # conjunct diagnostics first, whole sentence last
    assert _texts(assertions(corpus_lookup("5c"))) == \
        ["K(A)", "K(A or B)", "K(A and (A or B))"]


def test_project_atom_limit():
    # Generating constraints enumerates nothing; the truth tables of the
    # consistency check refuse more than ATOM_LIMIT atoms.
    f = parse(" and ".join(f"P{i}" for i in range(ATOM_LIMIT + 1)))
    assert len(assertions(f)) == 3
    with pytest.raises(AtomLimitError):
        project(f)


def test_project_five_atom_conjunction():
    report = project(parse("A and B and C and D and E"))
    assert _texts(report.accepted) == \
        ["K(A)", "K(B and C and D and E)", "K(A and B and C and D and E)"]
    assert report.suppressed == ()


def test_clausal_plain_disjunction():
    got = potential_clausal(parse("A or B"))
    assert _texts(got) == ["notK(A)", "notK(not A)", "notK(B)", "notK(not B)"]
    assert all(c.provenance is Provenance.CLAUSAL for c in got)


def test_clausal_self_disjunction_deduplicates():
    assert _texts(potential_clausal(corpus_lookup("6a"))) == ["notK(A)", "notK(not A)"]


def test_clausal_equal_disjuncts_with_or_give_one_pair():
    got = potential_clausal(parse("(A or B) or (A or B)"))
    root = [str(c) for c in got if c.source == 1]  # the root is or-node 1
    assert root == ["notK(A or B)", "notK(not (A or B))"]
    assert len(got) == 2 + 4 + 4  # each inner or-node keeps its own entries


def test_clausal_conjunction_has_none():
    assert potential_clausal(parse("A and B")) == []


def test_clausal_2b_keeps_per_node_entries():
    got = potential_clausal(corpus_lookup("2b"))
    assert len(got) == 8
    # ignorance about A arises from each or-node separately
    sources = {c.source for c in got if unparse(c.body) == "A"}
    assert sources == {0, 1}


def test_scalar_gazdar():
    got = potential_scalar(parse("A or B"), Mode.GAZDAR)
    assert _texts(got) == ["notK(A and B)", "K(not (A and B))"]


def test_scalar_6a_strong_form_reduces_to_known_falsity():
    got = potential_scalar(corpus_lookup("6a"), Mode.GAZDAR)
    strong = [c for c in got if c.provenance is Provenance.SCALAR_STRONG]
    assert len(strong) == 1
    assert equivalent(strong[0].body, parse("not A")).valid


def test_scalar_soames_needs_opinionatedness():
    weak_only = potential_scalar(parse("A or B"), Mode.SOAMES)
    assert _texts(weak_only) == ["notK(A and B)"]
    both = potential_scalar(parse("A or B"), Mode.SOAMES, opinionated=(0,))
    assert _texts(both) == ["notK(A and B)", "K(not (A and B))"]


def test_scalar_soames_names_or_nodes_by_position():
    # or-node 0 is the inner node, which comes second in pre-order
    got = potential_scalar(parse("(A or B) or C"), Mode.SOAMES, opinionated=(0,))
    assert [(str(c), c.source) for c in got] == [
        ("notK((A or B) and C)", 1),
        ("notK(A and B)", 0), ("K(not (A and B))", 0)]


_any_formula = st.recursive(
    st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from("ABC")),
    lambda kids: st.one_of(st.builds(And, kids, kids),
                           st.builds(Or, kids, kids),
                           st.builds(Xor, kids, kids),
                           st.builds(Not, kids)),
    max_leaves=12,
)


@given(_any_formula)
def test_walk_reads_or_nodes_in_pre_order_with_their_numbers(f):
    pre_order = [(p, n) for p, n in subformulas(f) if isinstance(n, Or)]
    in_order = [p for p, _ in _in_order_ors(f)]
    found, ors, numbers, refused = _walk(f)
    # the atoms, first occurrence first, and the first not or xor, against
    # the reference pre-order walk
    first = {}
    for _, node in subformulas(f):
        if isinstance(node, AtomNode):
            first.setdefault(node.atom.name, node.atom)
    assert list(found.items()) == list(first.items())
    assert refused is next((n for _, n in subformulas(f) if isinstance(n, (Not, Xor))), None)
    assert len(ors) == len(pre_order)
    assert all(node is n for node, (_, n) in zip(ors, pre_order))
    # each or-node's number is its position in the reference's in-order walk
    assert numbers == [in_order.index(p) for p, _ in pre_order]
    # one number per or-node and two polarities per node: nothing to deduplicate
    for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, _every_or_node(f))):
        scalar = potential_scalar(f, mode, opinionated)
        assert scalar == list(dict.fromkeys(scalar))


@pytest.mark.parametrize("text, bodies", [
    ("A or A", ["A", "not A"]),
    ("A or not A", ["A", "not A", "not not A"]),
    ("not A or A", ["not A", "not not A", "A"]),
    ("not A or not A", ["not A", "not not A"]),
])
def test_clausal_bodies_that_repeat_a_disjunct_or_its_negation(text, bodies):
    assert [unparse(c.body) for c in potential_clausal(parse(text))] == bodies


def test_consistent_direct_contradiction():
    ok, model = consistent([_c(Polarity.K, "A"), _c(Polarity.NOT_K, "A")])
    assert not ok and model is None


def test_consistent_ignorance_witness():
    constraints = [
        _c(Polarity.K, "A or B"),
        _c(Polarity.NOT_K, "A"),
        _c(Polarity.NOT_K, "not A"),
        _c(Polarity.NOT_K, "B"),
        _c(Polarity.NOT_K, "not B"),
    ]
    ok, model = consistent(constraints)
    assert ok
    assert model == ({"A": True, "B": False}, {"A": False, "B": True})


def test_consistent_2b_with_strong_implicatures():
    f = corpus_lookup("2b")
    constraints = (assertions(f) + potential_clausal(f)
                   + potential_scalar(f, Mode.GAZDAR))
    ok, model = consistent(constraints)
    assert ok
    assert model  # nonempty belief model


def test_consistent_empty_set_trivially_satisfiable():
    ok, model = consistent([])
    assert ok and model == ({},)


def test_consistent_atom_limit():
    with pytest.raises(AtomLimitError):
        consistent([_c(Polarity.K, f"P{i}") for i in range(ATOM_LIMIT + 1)])


def _worlds_and_masks(constraints):
    """The worlds over the constraints' atoms, the mask of the K-worlds and
    the mask of each notK body, with one eval_formula call per world and body."""
    names = sorted({a for c in constraints for a in atom_names(c.body)})
    worlds = [dict(zip(names, bits)) for bits in product([True, False], repeat=len(names))]

    def mask_of(body):
        return sum(1 << i for i, w in enumerate(worlds) if eval_formula(body, w))

    k_mask = (1 << len(worlds)) - 1
    for c in constraints:
        if c.polarity is Polarity.K:
            k_mask &= mask_of(c.body)
    notk_masks = [mask_of(c.body) for c in constraints if c.polarity is Polarity.NOT_K]
    return worlds, k_mask, notk_masks


def _model(worlds, candidate):
    return tuple(w for i, w in enumerate(worlds) if candidate >> i & 1)


def reference_consistent(constraints):
    """Belief-model search over every candidate set of worlds up to the
    K-worlds, by increasing value."""
    worlds, k_mask, notk_masks = _worlds_and_masks(constraints)
    for candidate in range(1, k_mask + 1):
        if candidate & ~k_mask == 0 and all(candidate & ~m for m in notk_masks):
            return True, _model(worlds, candidate)
    return False, None


def reference_submask_consistent(constraints):
    """Belief-model search over the nonempty subsets of the K-worlds alone,
    by increasing value: `(s - k) & k` is the next submask of k after s."""
    worlds, k, notk_masks = _worlds_and_masks(constraints)
    s = (0 - k) & k
    while s:
        if all(s & ~m for m in notk_masks):
            return True, _model(worlds, s)
        s = (s - k) & k
    return False, None


def _constraints(names, max_leaves):
    """Constraints of either polarity over bodies built from `names`."""
    bodies = st.recursive(
        st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from(names)),
        lambda kids: st.one_of(st.builds(And, kids, kids),
                               st.builds(Or, kids, kids),
                               st.builds(Not, kids)),
        max_leaves=max_leaves,
    )
    return st.builds(
        lambda polarity, body: EpistemicConstraint(polarity, body, Provenance.ASSERTION, ()),
        st.sampled_from(list(Polarity)), bodies)


@given(st.lists(_constraints("ABCD", 4), max_size=6))
def test_consistent_matches_the_per_world_search(constraints):
    assert consistent(constraints) == reference_consistent(constraints)


@st.composite
def _wide_constraints(draw):
    """Constraints over five or six atoms whose K-bodies leave at most 16
    worlds: all but four atoms are pinned by a K-known literal, and every
    atom occurs, in a K-known tautology at least."""
    names = "ABCDEF"[:draw(st.integers(5, 6))]
    atoms = {a: AtomNode(Atom(a)) for a in names}
    pinned = draw(st.permutations(names))[:len(names) - 4]
    known = [atoms[a] if draw(st.booleans()) else Not(atoms[a]) for a in pinned]
    known += [Or(atoms[a], Not(atoms[a])) for a in names]
    constraints = ([EpistemicConstraint(Polarity.K, body, Provenance.ASSERTION, ())
                    for body in known]
                   + draw(st.lists(_constraints(names, 6), max_size=6)))
    return draw(st.permutations(constraints))


@given(_wide_constraints())
def test_consistent_matches_the_submask_search_on_wider_constraints(constraints):
    assert consistent(constraints) == reference_submask_consistent(constraints)


def _suppressed_texts(report):
    return [str(s.constraint) for s in report.suppressed]


def test_project_6a():
    report = project(corpus_lookup("6a"))
    assert "notK(A)" in _suppressed_texts(report)
    assert "notK(not A)" in _texts(report.accepted)
    clash = next(s for s in report.suppressed if str(s.constraint) == "notK(A)")
    assert [str(c) for c in clash.clashes_with] == ["K(A or A)"]
    # the strong exclusivity constraint (knowing A and A is false) clashes too
    strong = [s for s in report.suppressed
              if s.constraint.provenance is Provenance.SCALAR_STRONG]
    assert len(strong) == 1


def test_project_5c():
    report = project(corpus_lookup("5c"))
    clash = next(s for s in report.suppressed if str(s.constraint) == "notK(A)")
    assert [str(c) for c in clash.clashes_with] == ["K(A)"]
    assert all(c.provenance is Provenance.ASSERTION for c in clash.clashes_with)


def test_project_5a():
    report = project(corpus_lookup("5a"))
    clash = next(s for s in report.suppressed if str(s.constraint) == "notK(A)")
    # the assertion's truth conditions already entail A
    assert [str(c) for c in clash.clashes_with] == ["K(A or A and B)"]


def test_project_2b_nothing_suppressed():
    report = project(corpus_lookup("2b"))
    assert report.suppressed == ()
    assert len(report.accepted_by(Provenance.ASSERTION)) == 3
    assert len(report.accepted_by(Provenance.CLAUSAL)) == 8
    assert len(report.accepted_by(Provenance.SCALAR_WEAK)) == 2
    assert len(report.accepted_by(Provenance.SCALAR_STRONG)) == 2


def test_project_soames_mode_defers_strong_form():
    report = project(parse("A or B"), Mode.SOAMES)
    assert report.accepted_by(Provenance.SCALAR_STRONG) == []
    report = project(parse("A or B"), Mode.SOAMES, opinionated=(0,))
    assert len(report.accepted_by(Provenance.SCALAR_STRONG)) == 1


@pytest.mark.parametrize("mode, strong", [(Mode.GAZDAR, 1), (Mode.SOAMES, 0)])
def test_a_mode_may_be_given_by_its_value(mode, strong):
    f = parse("A or B")
    report = project(f, mode)
    assert len(report.accepted_by(Provenance.SCALAR_STRONG)) == strong
    assert project(f, mode.value) == report
    assert project(f, mode.value).serialize() == report.serialize()
    assert report.serialize()["mode"] == mode.value
    assert potential_scalar(f, mode.value) == potential_scalar(f, mode)


@pytest.mark.parametrize("mode", ["GAZDAR", "stalnaker", None])
def test_an_unknown_mode_is_refused(mode):
    for call in (project, potential_scalar):
        with pytest.raises(WorkbenchError, match=r"^unknown projection mode .*; "
                                                 r"the modes are gazdar, soames$"):
            call(parse("A or B"), mode)


@pytest.mark.parametrize("text, mode, opinionated, message", [
    ("A or B", Mode.SOAMES, (5,), "no or-node 5: the or-node ids of 'A or B' are [0]"),
    ("A or B", Mode.SOAMES, (-1,), "no or-node -1: the or-node ids of 'A or B' are [0]"),
    ("(A or B) or C", "soames", (0, 2),
     "no or-node 2: the or-node ids of '(A or B) or C' are [0, 1]"),
    ("A and B", "soames", (0,), "no or-node 0: the or-node ids of 'A and B' are none"),
    ("A or B", "soames", "0", "no or-node '0': the or-node ids of 'A or B' are [0]"),
    ("A or B", Mode.GAZDAR, (0,),
     "opinionated or-node ids apply to soames mode only, got 0 in gazdar mode"),
    ("A and B", "gazdar", (3,),
     "opinionated or-node ids apply to soames mode only, got 3 in gazdar mode"),
], ids=["past-the-end", "negative", "one-of-two", "no-or-node", "a-string", "gazdar",
        "gazdar-no-or-node"])
def test_a_bad_opinionated_id_is_refused(text, mode, opinionated, message):
    for call in (project, potential_scalar):
        with pytest.raises(WorkbenchError) as err:
            call(parse(text), mode, opinionated)
        assert str(err.value) == message


def test_each_opinionated_id_adds_the_strong_form_of_its_or_node():
    # every or-node of every formula with at most 3 leaves, by itself, then
    # all of them in any iterable
    for f in and_or_formulas(3):
        numbered = or_nodes(f)
        for n, node in enumerate(numbered):
            scalar = potential_scalar(f, Mode.SOAMES, (n,))
            assert [c for c in scalar if c.provenance is Provenance.SCALAR_STRONG] == [
                EpistemicConstraint(Polarity.K, Not(And(node.left, node.right)),
                                    Provenance.SCALAR_STRONG, n)]
        every = potential_scalar(f, Mode.SOAMES, _every_or_node(f))
        assert every == potential_scalar(f, Mode.GAZDAR)
        assert potential_scalar(f, "soames", range(len(numbered))) == every
        assert potential_scalar(f, "soames", list(reversed(range(len(numbered))))) == every


def test_assertions_never_suppressed():
    for label in ("1a", "2b", "5a", "5c", "6a", "6c"):
        report = project(corpus_lookup(label))
        assert all(s.constraint.provenance is not Provenance.ASSERTION
                   for s in report.suppressed)


def test_accepted_sets_are_consistent():
    for label in ("1a", "2a", "2b", "5a", "5c", "6a", "6c"):
        report = project(corpus_lookup(label))
        ok, model = consistent(report.accepted)
        assert ok and model


def test_project_deterministic():
    for label in ("2b", "5c", "6a"):
        assert project(corpus_lookup(label)) == project(corpus_lookup(label))


def test_monotone_precedence():
    # dropping the strong-scalar tier (soames, nobody opinionated) leaves
    # every higher-priority acceptance decision unchanged
    for label in ("2b", "5a", "5c", "6a"):
        full = project(corpus_lookup(label), Mode.GAZDAR)
        reduced = project(corpus_lookup(label), Mode.SOAMES)
        strip = lambda cs: [c for c in cs if c.provenance is not Provenance.SCALAR_STRONG]
        assert strip(full.accepted) == strip(reduced.accepted)
        assert strip(full.suppressed_constraints()) == strip(reduced.suppressed_constraints())


_leaf = st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from(["A", "B", "C"]))
_sentence = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
    ),
    max_leaves=6,
)


@given(_sentence, st.sampled_from([Mode.GAZDAR, Mode.SOAMES]))
def test_projection_invariants_hold_generally(f, mode):
    report = project(f, mode)
    ok, _ = consistent(report.accepted)
    assert ok
    for a in assertions(f):
        assert a in report.accepted


def reference_project(f, mode=Mode.GAZDAR, opinionated=()):
    """The projection loop with one `consistent` call per candidate, each
    over the tested set's own atoms and building the least belief model, and
    the shrink of `reference_minimal_clash_set`."""
    scalar = potential_scalar(f, mode, opinionated)
    tiers = [
        potential_clausal(f),
        [c for c in scalar if c.provenance is Provenance.SCALAR_WEAK],
        [c for c in scalar if c.provenance is Provenance.SCALAR_STRONG],
    ]
    accepted = assertions(f)
    ok, _ = consistent(accepted)
    if not ok:
        raise WorkbenchError("asserted content is epistemically unsatisfiable")
    suppressed = []
    for tier in tiers:
        for candidate in tier:
            ok, _ = consistent(accepted + [candidate])
            if ok:
                accepted.append(candidate)
            else:
                suppressed.append(Suppression(
                    candidate, reference_minimal_clash_set(accepted, candidate)))
    return ImplicatureReport(mode, tuple(accepted), tuple(suppressed))


def _outcome(run, f, mode, opinionated=()):
    """The serialized report, order included, or the error's type and message."""
    try:
        return run(f, mode, opinionated).serialize()
    except WorkbenchError as err:
        return type(err), str(err)


def _assert_projects_as_the_reference(f, mode, opinionated=()):
    assert _outcome(project, f, mode, opinionated) == \
        _outcome(reference_project, f, mode, opinionated)


def _every_or_node(f):
    return tuple(range(len(or_nodes(f))))


def test_project_matches_the_reference_on_the_corpus():
    for label in CORPUS_LABELS:
        f = corpus_lookup(label)
        _assert_projects_as_the_reference(f, Mode.GAZDAR)
        _assert_projects_as_the_reference(f, Mode.SOAMES)
        _assert_projects_as_the_reference(f, Mode.SOAMES, _every_or_node(f))


@given(st.data(), _any_formula, st.sampled_from(list(Mode)))
def test_project_matches_the_reference_on_formulas(data, f, mode):
    ids = _every_or_node(f)
    opinionated = data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else ()
    _assert_projects_as_the_reference(f, mode, tuple(opinionated))


@pytest.mark.parametrize("ors", range(1, 13))
def test_project_matches_the_reference_on_one_atom_or_chains(ors):
    f = parse(" or ".join(["A"] * (ors + 1)))
    _assert_projects_as_the_reference(f, Mode.GAZDAR)
    _assert_projects_as_the_reference(f, Mode.SOAMES)
    _assert_projects_as_the_reference(f, Mode.SOAMES, tuple(range(0, ors, 2)))


def projects_as_the_reference(formulas):
    """Check `project` against `reference_project` on each formula in gazdar
    mode, soames mode and soames mode with every or-node opinionated. Returns
    the number of projections, of suppressions and of refused projections."""
    checked = suppressed = refused = 0
    for f in formulas:
        for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, ()),
                                  (Mode.SOAMES, _every_or_node(f))):
            got = _outcome(project, f, mode, opinionated)
            assert got == _outcome(reference_project, f, mode, opinionated), \
                (unparse(f), mode, opinionated)
            checked += 1
            if isinstance(got, dict):
                suppressed += len(got["suppressed"])
            else:
                refused += 1
    return checked, suppressed, refused


def test_project_matches_the_reference_on_every_small_formula():
    assert projects_as_the_reference(and_or_formulas(3)) == (711, 732, 0)


def test_project_matches_the_reference_with_not_and_xor():
    # every formula with at most 2 leaves; CI runs those with at most 3
    assert projects_as_the_reference(connective_formulas(2)) == (666, 210, 72)


@pytest.mark.parametrize("text, error", [
    (" and ".join(f"P{i}" for i in range(ATOM_LIMIT + 1)), AtomLimitError),
    ("A and not A", WorkbenchError),
])
def test_project_refuses_as_the_reference(text, error):
    for mode in Mode:
        got = _outcome(project, parse(text), mode)
        assert got[0] is error
        assert got == _outcome(reference_project, parse(text), mode)


@pytest.mark.parametrize("f, mode, suppressions", [
    (corpus_lookup("6a"), Mode.GAZDAR, 3),
    (corpus_lookup("2b"), Mode.GAZDAR, 0),
    (corpus_lookup("2b"), Mode.SOAMES, 0),
    (parse(" or ".join(["A"] * 13)), Mode.GAZDAR, 47),
    (parse(" or ".join(["A"] * 13)), Mode.SOAMES, 35),
], ids=["6a", "2b", "2b-soames", "12-or chain", "12-or chain-soames"])
def test_project_builds_no_belief_model(f, mode, suppressions):
    # Each candidate gets a yes/no verdict over f's atoms, collected by one
    # walk of f that also finds its or-nodes: no `consistent` call, no
    # witness world and no `atom_names` call. f is evaluated once, one
    # evaluator call per part (f, or its two conjuncts), and every
    # candidate's mask is built from its or-node's operand masks, so no
    # truth table is computed; the suppressions reuse their failed tests'
    # masks.
    with mock.patch.object(implicature, "consistent", wraps=consistent) as consistent_spy, \
            mock.patch.object(implicature, "world", wraps=implicature.world) as world_spy, \
            mock.patch.object(implicature, "atom_names", wraps=atom_names) as names_spy, \
            mock.patch.object(implicature, "_walk", wraps=_walk) as walk_spy, \
            mock.patch.object(implicature, "_evaluate", wraps=_evaluate) as evaluate_spy, \
            mock.patch.object(implicature, "truth_mask", wraps=truth_mask) as mask_spy:
        report = project(f, mode)
    assert consistent_spy.call_count == 0
    assert world_spy.call_count == 0
    assert names_spy.call_count == 0
    assert len(report.suppressed) == suppressions
    assert mask_spy.call_count == 0
    assert walk_spy.call_count == 1
    assert walk_spy.call_args.args == (f,)
    parts = (f.left, f.right) if isinstance(f, And) else (f,)
    assert evaluate_spy.call_count == len(parts)
    for part, call in zip(parts, evaluate_spy.call_args_list):
        evaluated, atom, _, _ = call.args
        assert evaluated is part and list(atom) == atom_names(f)
    assert len(report.accepted) + len(report.suppressed) == (
        len(assertions(f)) + len(potential_clausal(f)) + len(potential_scalar(f, mode)))


def _operand_masks(f):
    """The masks of the operands of f's or-nodes, in pre-order, from one
    evaluation of f over its atoms."""
    names = atom_names(f)
    operands = []
    _evaluate(f, _name_masks(names), (1 << 2 ** len(names)) - 1, operands)
    return operands


def _assert_pass_masks_are_truth_masks(f):
    # gazdar mode's scalar list holds every body soames mode can emit
    names = atom_names(f)
    universe, asserted, candidates = implicature._candidates(f, Mode.GAZDAR, ())
    assert universe == (1 << 2 ** len(names)) - 1
    assert asserted == [truth_mask(c.body, names) for c in assertions(f)]
    scalar = potential_scalar(f, Mode.GAZDAR)
    assert [c for c, _, _ in candidates] == [
        *potential_clausal(f), *(c for c in scalar if c.provenance is Provenance.SCALAR_WEAK),
        *(c for c in scalar if c.provenance is Provenance.SCALAR_STRONG)]
    assert [(known, m) for _, known, m in candidates] == [
        (c.polarity is Polarity.K, truth_mask(c.body, names)) for c, _, _ in candidates]


def test_pass_masks_are_truth_masks_on_every_small_formula():
    formulas = and_or_formulas(3)
    assert len(formulas) == 237
    for f in formulas:
        _assert_pass_masks_are_truth_masks(f)


@given(_any_formula)
def test_pass_masks_are_truth_masks_on_formulas(f):
    # _any_formula reaches `not` and `xor`, which and_or_formulas never builds
    _assert_pass_masks_are_truth_masks(f)


def test_a_shared_leaf_gets_the_same_mask_at_every_path():
    # parse builds one leaf per name, so the leaves of A are one object
    f = parse("(A or B) and (B or (C or A))")
    leaves = {}
    for _, node in subformulas(f):
        if isinstance(node, AtomNode):
            leaves.setdefault(node.atom.name, set()).add(id(node))
    assert leaves and all(len(ids) == 1 for ids in leaves.values())
    _, ors, _, _ = _walk(f)
    assert [(unparse(node.left), unparse(node.right)) for node in ors] == \
        [("A", "B"), ("B", "C or A"), ("C", "A")]
    a, b, c = (truth_mask(parse(n), atom_names(f)) for n in "ABC")
    assert _operand_masks(f) == [(a, b), (b, c | a), (c, a)]


def test_one_or_object_at_two_positions_is_two_or_nodes():
    # instantiate puts the one bound formula at both places of X in X and X,
    # so nothing keyed on the node object may number or evaluate it
    f, _ = instantiate(IDE2, {"X": parse("A or B")})
    assert f.left is f.right
    assert or_nodes(f) == [f.left, f.right]
    assert _walk(f)[2] == [0, 1]
    a, b = (truth_mask(parse(n), ["A", "B"]) for n in "AB")
    assert _operand_masks(f) == [(a, b), (a, b)]
    twice = parse("(A or B) and (A or B)")
    assert twice.left is not twice.right
    for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, ()), (Mode.SOAMES, (1,))):
        assert project(f, mode, opinionated).serialize() == \
            project(twice, mode, opinionated).serialize()


_TAG = re.compile(r"\[([a-z_]+)(?: at or-node (\d+))?\]")


def test_every_source_is_the_number_of_the_or_node_that_builds_its_body():
    # In every mode, the JSON's source of a constraint and the text's "at
    # or-node N" agree, and or-node N's disjuncts build the body; one hand-built
    # tree holds one Or object at or-nodes 0 and 2.
    shared = parse("A or B")
    formulas = [*and_or_formulas(3), *connective_formulas(2),
                Or(shared, And(AtomNode(Atom("C")), shared))]
    checked = 0
    for f in formulas:
        numbered = or_nodes(f)
        assert numbered == [node for _, node in _in_order_ors(f)]
        for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, ()),
                                  (Mode.SOAMES, _every_or_node(f))):
            try:
                report = project(f, mode, opinionated)
            except WorkbenchError:
                continue
            payload = {"command": "implicatures", "input": "f", "formula": unparse(f),
                       **report.serialize()}
            data = json.loads(cli._json(payload))
            entries = [*data["accepted"], *(s["constraint"] for s in data["suppressed"])]
            tags = _TAG.findall(cli._render_implicatures(payload))
            constraints = [*report.accepted, *report.suppressed_constraints()]
            assert len(entries) == len(tags) == len(constraints)
            for c, entry, (provenance, number) in zip(constraints, entries, tags):
                assert (entry["provenance"], entry["source"]) == (provenance, c.source)
                if c.provenance is Provenance.ASSERTION:
                    assert c.source is None and number == ""
                    continue
                assert number == str(c.source)
                node = numbered[c.source]
                left, right = node.left, node.right
                assert c.body in {
                    Provenance.CLAUSAL: (left, Not(left), right, Not(right)),
                    Provenance.SCALAR_WEAK: (And(left, right),),
                    Provenance.SCALAR_STRONG: (Not(And(left, right)),),
                }[c.provenance]
                checked += 1
    assert checked > len(formulas)


def reference_minimal_clash_set(accepted, candidate):
    """The shrink with one `consistent` call per trial: drop accepted
    constraints latest first, keeping each drop that leaves the rest still
    inconsistent with the candidate."""
    kept = list(accepted)
    for c in reversed(list(accepted)):
        trial = [k for k in kept if k is not c]
        ok, _ = consistent(trial + [candidate])
        if not ok:
            kept = trial
    return tuple(kept)


def trial_list_minimal_clash_set(masks, universe):
    """The shrink with one `_verdict` call on a freshly built trial list per
    accepted constraint: drop indices latest first, keeping each drop that
    leaves the rest still failing with the candidate, which is last."""
    kept = list(range(len(masks)))
    for i in reversed(range(len(masks) - 1)):
        trial = [j for j in kept if j != i]
        if implicature._verdict([masks[j] for j in trial], universe) is None:
            kept = trial
    return kept[:-1]


@st.composite
def _failing_masks(draw):
    """A universe of 1 to 16 worlds and a list of K and notK masks over it,
    the last standing for the candidate, that fails `_verdict`."""
    universe = (1 << draw(st.integers(1, 16))) - 1
    entry = st.tuples(st.booleans(), st.integers(0, universe))
    masks = draw(st.lists(entry, min_size=1, max_size=12))
    assume(implicature._verdict(masks, universe) is None)
    return masks, universe


def _prefix_ands(masks, universe):
    """below[i]: the AND of the K masks among masks[:i]; below[0] is the universe."""
    below = [universe]
    for known, m in masks:
        below.append(below[-1] & m if known else below[-1])
    return below


@given(_failing_masks())
def test_the_shrink_matches_the_trial_list_shrink(case):
    masks, universe = case
    accepted, candidate = masks[:-1], masks[-1]
    assert _minimal_clash_set(accepted, _prefix_ands(accepted, universe), candidate) == \
        trial_list_minimal_clash_set(masks, universe)


def _shrinks(f, mode):
    """The report of projecting f, and each clash-set shrink it made: the
    accepted set and candidate whose masks it was given, over f's atoms, and
    the clash set its kept indices name in that accepted set."""
    calls = []

    def spy(masks, below, candidate):
        kept = _minimal_clash_set(masks, below, candidate)
        calls.append((list(masks), list(below), candidate, kept))  # project appends later
        return kept

    with mock.patch.object(implicature, "_minimal_clash_set", spy):
        report = project(f, mode)
    assert len(calls) == len(report.suppressed)
    names = atom_names(f)
    universe = (1 << 2 ** len(names)) - 1
    shrinks = []
    for (masks, below, candidate, kept), suppression in zip(calls, report.suppressed):
        # The accepted set only grows, so the shrink's is a prefix of the final one.
        accepted = list(report.accepted[:len(masks)])
        assert masks == [(c.polarity is Polarity.K, truth_mask(c.body, names))
                         for c in accepted]
        c = suppression.constraint
        assert candidate == (c.polarity is Polarity.K, truth_mask(c.body, names))
        # the prefix ANDs project keeps as it accepts
        assert below == _prefix_ands(masks, universe)
        clash = tuple(accepted[j] for j in kept)
        assert clash == suppression.clashes_with
        shrinks.append((accepted, suppression.constraint, clash))
    return report, shrinks


def _assert_shrinks_match_the_reference(f, mode):
    _, calls = _shrinks(f, mode)
    for accepted, candidate, clash in calls:
        assert clash == reference_minimal_clash_set(accepted, candidate)
    return len(calls)


@pytest.mark.parametrize("mode", list(Mode))
def test_clash_sets_match_the_reference_on_the_corpus(mode):
    shrinks = sum(_assert_shrinks_match_the_reference(corpus_lookup(label), mode)
                  for label in CORPUS_LABELS)
    assert shrinks > 0


@given(_sentence, st.sampled_from(list(Mode)))
def test_clash_sets_match_the_reference_on_sentences(f, mode):
    _assert_shrinks_match_the_reference(f, mode)


@pytest.mark.parametrize("ors", range(1, 13))
def test_clash_sets_match_the_reference_on_one_atom_or_chains(ors):
    f = parse(" or ".join(["A"] * (ors + 1)))
    for mode in Mode:
        assert _assert_shrinks_match_the_reference(f, mode) > 0


@given(_sentence, st.sampled_from(list(Mode)))
def test_clash_sets_are_minimal(f, mode):
    for s in project(f, mode).suppressed:
        members = list(s.clashes_with)
        assert not consistent(members + [s.constraint])[0]
        for i in range(len(members)):
            rest = members[:i] + members[i + 1:]
            assert consistent(rest + [s.constraint])[0]


def test_a_shrink_computes_no_truth_table_and_collects_no_atoms():
    # The shrink's trials are sublists of the masks it is given, so its
    # truth-table work is that of the failed test that called it.
    f = parse(" or ".join(["A"] * 13))
    _, calls = _shrinks(f, Mode.GAZDAR)
    accepted, candidate, clash = calls[-1]
    assert len(accepted) > 20
    names = atom_names(f)
    masks = [(c.polarity is Polarity.K, truth_mask(c.body, names)) for c in accepted]
    below = _prefix_ands(masks, (1 << 2 ** len(names)) - 1)
    tested = (candidate.polarity is Polarity.K, truth_mask(candidate.body, names))
    with mock.patch.object(implicature, "truth_mask", wraps=truth_mask) as mask_spy, \
            mock.patch.object(implicature, "atom_names", wraps=atom_names) as names_spy:
        kept = _minimal_clash_set(masks, below, tested)
    assert mask_spy.call_count == names_spy.call_count == 0
    assert tuple(accepted[j] for j in kept) == clash
