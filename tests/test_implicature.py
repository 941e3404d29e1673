"""Implicature generation, belief-model satisfiability, projection."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from coordsem import (
    And,
    Atom,
    AtomLimitError,
    AtomNode,
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
)
from coordsem.boolean import ATOM_LIMIT
from coordsem.formula import atom_names, renumber_coefficients
from coordsem.implicature import EpistemicConstraint


def _c(polarity, text, provenance=Provenance.ASSERTION, source=()):
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


def test_clausal_conjunction_has_none():
    assert potential_clausal(parse("A and B")) == []


def test_clausal_2b_keeps_per_node_entries():
    got = potential_clausal(corpus_lookup("2b"))
    assert len(got) == 8
    # ignorance about A arises from each or-node separately
    sources = {c.source for c in got if unparse(c.body) == "A"}
    assert sources == {(0,), (1,)}


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
                               st.builds(lambda l, r: Or(l, r, 0), kids, kids),
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
    known += [Or(atoms[a], Not(atoms[a]), 0) for a in names]
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
        st.builds(lambda l, r: Or(l, r, 0), kids, kids),
    ),
    max_leaves=6,
).map(renumber_coefficients)


@given(_sentence, st.sampled_from([Mode.GAZDAR, Mode.SOAMES]))
def test_projection_invariants_hold_generally(f, mode):
    report = project(f, mode)
    ok, _ = consistent(report.accepted)
    assert ok
    for a in assertions(f):
        assert a in report.accepted
