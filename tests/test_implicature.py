"""Implicature generation, belief-model satisfiability, projection."""

from __future__ import annotations

from itertools import product
from unittest import mock

import pytest
from hypothesis import given, strategies as st

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
from coordsem.boolean import ATOM_LIMIT, truth_mask
from coordsem.formula import atom_names, or_nodes, subformulas
from coordsem import implicature
from coordsem.implicature import (
    EpistemicConstraint,
    Suppression,
    _minimal_clash_set,
    _ordered_or_paths,
)
from small_scope import and_or_formulas


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


def test_clausal_equal_disjuncts_with_or_give_one_pair():
    got = potential_clausal(parse("(A or B) or (A or B)"))
    root = [str(c) for c in got if c.source == ()]
    assert root == ["notK(A or B)", "notK(not (A or B))"]
    assert len(got) == 2 + 4 + 4  # each inner or-node keeps its own entries


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


def test_scalar_soames_names_or_nodes_by_position():
    # or-node 0 is the inner node, which comes second in path order
    got = potential_scalar(parse("(A or B) or C"), Mode.SOAMES, opinionated=(0,))
    assert [(str(c), c.source) for c in got] == [
        ("notK((A or B) and C)", ()),
        ("notK(A and B)", (0,)), ("K(not (A and B))", (0,))]


_any_formula = st.recursive(
    st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from("ABC")),
    lambda kids: st.one_of(st.builds(And, kids, kids),
                           st.builds(Or, kids, kids),
                           st.builds(Xor, kids, kids),
                           st.builds(Not, kids)),
    max_leaves=12,
)


@given(_any_formula)
def test_or_paths_come_in_path_order(f):
    path_sorted = sorted(((p, n) for p, n in subformulas(f) if isinstance(n, Or)),
                         key=lambda pn: pn[0])
    assert _ordered_or_paths(f) == path_sorted
    # one or-node per path and two polarities per node: nothing to deduplicate
    for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, _every_or_node(f))):
        scalar = potential_scalar(f, mode, opinionated)
        assert scalar == list(dict.fromkeys(scalar))


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
        for n, (path, node) in enumerate(numbered):
            scalar = potential_scalar(f, Mode.SOAMES, (n,))
            assert [c for c in scalar if c.provenance is Provenance.SCALAR_STRONG] == [
                EpistemicConstraint(Polarity.K, Not(And(node.left, node.right)),
                                    Provenance.SCALAR_STRONG, path)]
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


def test_project_matches_the_reference_on_every_small_formula():
    # each formula in gazdar mode, soames mode and soames mode with every
    # or-node opinionated
    checked = suppressed = 0
    for f in and_or_formulas(3):
        for mode, opinionated in ((Mode.GAZDAR, ()), (Mode.SOAMES, ()),
                                  (Mode.SOAMES, _every_or_node(f))):
            got = _outcome(project, f, mode, opinionated)
            assert got == _outcome(reference_project, f, mode, opinionated)
            checked += 1
            suppressed += len(got["suppressed"])
    assert (checked, suppressed) == (711, 732)


@pytest.mark.parametrize("text, error", [
    (" and ".join(f"P{i}" for i in range(ATOM_LIMIT + 1)), AtomLimitError),
    ("A and not A", WorkbenchError),
])
def test_project_refuses_as_the_reference(text, error):
    for mode in Mode:
        got = _outcome(project, parse(text), mode)
        assert got[0] is error
        assert got == _outcome(reference_project, parse(text), mode)


@pytest.mark.parametrize("label", ["2b", "6a"])
def test_project_builds_no_belief_model(label):
    # Each candidate gets a yes/no verdict over f's atoms, collected once:
    # no `consistent` call, no witness world and one `atom_names` call in
    # all. On 6a, `A or A`, the truth tables are the assertion's and those of
    # the four tested sets (2, 2, 3 and 3 bodies); the three suppressions
    # reuse their failed tests' masks.
    with mock.patch.object(implicature, "consistent", wraps=consistent) as consistent_spy, \
            mock.patch.object(implicature, "world", wraps=implicature.world) as world_spy, \
            mock.patch.object(implicature, "atom_names", wraps=atom_names) as names_spy, \
            mock.patch.object(implicature, "truth_mask", wraps=truth_mask) as mask_spy:
        report = project(corpus_lookup(label))
    assert consistent_spy.call_count == 0
    assert world_spy.call_count == 0
    assert names_spy.call_count == 1
    if label == "2b":
        assert report.suppressed == ()
    else:
        assert len(report.suppressed) == 3
        assert mask_spy.call_count == 11


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


def _shrinks(f, mode):
    """The report of projecting f, and each clash-set shrink it made: the
    accepted set and candidate whose masks it was given, over f's atoms, and
    the clash set its kept indices name in that accepted set."""
    calls = []

    def spy(masks, universe):
        kept = _minimal_clash_set(masks, universe)
        calls.append((masks, universe, kept))
        return kept

    with mock.patch.object(implicature, "_minimal_clash_set", spy):
        report = project(f, mode)
    assert len(calls) == len(report.suppressed)
    names = atom_names(f)
    shrinks = []
    for (masks, universe, kept), suppression in zip(calls, report.suppressed):
        # The accepted set only grows, so the shrink's is a prefix of the final one.
        accepted = list(report.accepted[:len(masks) - 1])
        assert masks == [(c.polarity is Polarity.K, truth_mask(c.body, names))
                         for c in accepted + [suppression.constraint]]
        assert universe == (1 << 2 ** len(names)) - 1
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
    masks = [(c.polarity is Polarity.K, truth_mask(c.body, names))
             for c in accepted + [candidate]]
    with mock.patch.object(implicature, "truth_mask", wraps=truth_mask) as mask_spy, \
            mock.patch.object(implicature, "atom_names", wraps=atom_names) as names_spy:
        kept = _minimal_clash_set(masks, (1 << 2 ** len(names)) - 1)
    assert mask_spy.call_count == names_spy.call_count == 0
    assert tuple(accepted[j] for j in kept) == clash
