"""Exact-rational probability engine and the relevance theorem searches."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from coordsem import (
    And,
    Atom,
    AtomNode,
    MissingAtomError,
    Not,
    Or,
    RationalDist,
    SearchResult,
    SearchStatus,
    SizeLimitError,
    WorkbenchError,
    Xor,
    ZeroProbabilityError,
    check_disjunction_corollary,
    check_explosion_irrelevance,
    check_frege_theorem,
    check_relevance_ordering,
    cond_prob,
    eval_formula,
    explosion_on_grid,
    grid,
    llr,
    parse,
    prob,
)
from coordsem import relevance
from coordsem.boolean import assignments, truth_mask
from coordsem.formula import atom_names
from coordsem.relevance import (
    GRID_DENOMINATOR_LIMIT,
    LikelihoodPair,
    _compositions,
    _dist,
    _ordering_points,
    _search,
)

F = Fraction


def dist(atoms, **cells):
    """Shorthand: keys like ``tf`` give the cell (True, False) in atom order."""
    table = {tuple(ch == "t" for ch in key): value for key, value in cells.items()}
    return RationalDist.from_cells(atoms, table)


def stopped_at(d, denominator, checked):
    """The result of a search that found grid distribution d as its
    counterexample, the `checked`-th point to meet its premises: its point
    is d's masses times the denominator, and its witness is d."""
    counts = tuple(m * denominator for m in d.masses)
    assert all(c.denominator == 1 for c in counts)  # d is a grid point
    result = SearchResult(SearchStatus.COUNTEREXAMPLE,
                          (d.atoms, tuple(c.numerator for c in counts), denominator), checked)
    assert result.witness == d
    return result


def grid_size(n_atoms: int, denominator: int) -> int:
    """The number of points of `grid(atoms, denominator)` over n_atoms
    atoms, by stars and bars over the 2^n_atoms cells."""
    n_cells = 2 ** n_atoms
    return comb(denominator + n_cells - 1, n_cells - 1)


def test_distribution_validation():
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(1, 2), F(1, 4)))  # does not sum to 1
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(3, 2), F(-1, 2)))  # negative mass
    with pytest.raises(ValueError):
        RationalDist(("B", "A"), (F(1, 4),) * 4)  # unsorted atoms
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(1),))  # wrong arity


def test_repeated_atom_names_rejected():
    # prob would otherwise read one copy of the atom: P(A) = 1/2 here
    with pytest.raises(ValueError):
        RationalDist(("A", "A"), (F(1, 4),) * 4)
    with pytest.raises(ValueError):
        RationalDist.from_cells(["A", "A"], {(True, True): F(1)})
    with pytest.raises(ValueError):
        list(grid(["A", "A"], 1))


def test_prob_basics():
    u1 = RationalDist.uniform(["A"])
    assert prob(u1, parse("A")) == F(1, 2)
    assert prob(u1, parse("A or not A")) == 1
    assert prob(u1, parse("A and not A")) == 0
    skewed = dist(["A"], t=F(1, 3), f=F(2, 3))
    assert prob(skewed, parse("A")) == F(1, 3)


def test_prob_unknown_atom():
    with pytest.raises(MissingAtomError):
        prob(RationalDist.uniform(["A"]), parse("B"))


def reference_prob(d, f):
    """The mass of the assignments on which eval_formula holds."""
    return sum((m for v, m in zip(assignments(d.atoms), d.masses) if eval_formula(f, v)),
               F(0))


_event = st.recursive(
    st.builds(lambda n: AtomNode(Atom(n)), st.sampled_from("ABC")),
    lambda kids: st.one_of(st.builds(And, kids, kids),
                           st.builds(Or, kids, kids),
                           st.builds(Xor, kids, kids),
                           st.builds(Not, kids)),
    max_leaves=6,
)


@given(_event, st.sets(st.sampled_from("ABCD")), st.data())
def test_prob_matches_the_per_assignment_sum(f, extra, data):
    atoms = tuple(sorted(set(atom_names(f)) | extra))
    weights = data.draw(st.lists(st.integers(0, 5), min_size=2 ** len(atoms),
                                 max_size=2 ** len(atoms)).filter(any))
    d = RationalDist(atoms, tuple(F(w, sum(weights)) for w in weights))
    assert prob(d, f) == reference_prob(d, f)


def test_prob_refuses_more_atoms_than_the_truth_table_limit():
    wide = RationalDist.uniform([f"P{i:02d}" for i in range(13)])
    with pytest.raises(WorkbenchError):
        prob(wide, parse("P00"))


def test_cond_prob():
    u2 = RationalDist.uniform(["A", "C"])
    assert cond_prob(u2, parse("C"), parse("A")) == F(1, 2)  # independent
    assert cond_prob(u2, parse("A"), parse("A")) == 1
    # P(A and not C) = 0 with both marginals strictly between 0 and 1
    d = dist(["A", "C"], tt=F(1, 2), ff=F(1, 2))
    assert cond_prob(d, parse("C"), parse("A")) == 1
    assert prob(d, parse("C")) == F(1, 2)


def test_cond_prob_zero_event():
    d = dist(["A", "C"], tt=F(1))
    with pytest.raises(ZeroProbabilityError):
        cond_prob(d, parse("C"), parse("not A"))


def test_grid_counts_match_stars_and_bars():
    assert len(list(grid(["A"], 2))) == 3 == grid_size(1, 2)
    assert len(list(grid(["A", "B"], 4))) == 35 == grid_size(2, 4)
    assert grid_size(2, 4) == comb(4 + 3, 3)


def test_grid_masses_sum_to_one_exactly():
    for d in grid(["A", "B"], 5):
        assert sum(d.masses, F(0)) == 1


def test_grid_limits():
    with pytest.raises(SizeLimitError):
        list(grid(["A", "B", "C", "D"], 2))
    with pytest.raises(SizeLimitError):
        list(grid(["A"], 13))


EVENTS = [parse(t) for t in ("A", "B", "not A", "A and B", "A or B", "A xor B")]


def test_prob_is_finitely_additive():
    for d in grid(["A", "B"], 3):
        for f in EVENTS:
            for g in EVENTS:
                assert prob(d, Or(f, g)) + prob(d, And(f, g)) == \
                    prob(d, f) + prob(d, g)


@pytest.mark.parametrize("den", [2, 4, 6, 12])
def test_frege_theorem_no_counterexample(den):
    result = check_frege_theorem(den)
    assert result.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result.checked > 0
    assert result.witness is None


def test_frege_checked_counts_each_point_once():
    # 15 premise-satisfying distributions at denominator 6, each tested once
    assert check_frege_theorem(6).checked == 15


def test_frege_without_uncertainty_premise_fails():
    result = check_frege_theorem(6, drop_beta=True)
    assert result.status is SearchStatus.COUNTEREXAMPLE
    d = result.witness
    assert prob(d, parse("not (A and not C)")) == 1  # alpha holds
    pa = prob(d, parse("A"))
    assert pa > 0
    assert cond_prob(d, parse("C"), parse("A")) <= prob(d, parse("C"))


@pytest.mark.parametrize("den", [2, 4, 6, 12])
def test_disjunction_corollary_no_counterexample(den):
    result = check_disjunction_corollary(den)
    assert result.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result.checked > 0


def test_disjunction_corollary_checked_count():
    assert check_disjunction_corollary(6).checked == 15


def test_extreme_negative_relevance():
    d = dist(["A", "B"], tf=F(1, 2), ft=F(1, 2))
    assert prob(d, parse("A and B")) == 0
    assert cond_prob(d, parse("B"), parse("A")) == 0
    assert cond_prob(d, parse("B"), parse("A")) < prob(d, parse("B"))


def test_explosion_irrelevance_on_grid():
    events = [parse(t) for t in ("B", "not B", "A", "A and B", "A or B")]
    for d in grid(["A", "B"], 4):
        for b in events:
            assert check_explosion_irrelevance(d, b)
    assert explosion_on_grid(4) == \
        SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, grid_size(2, 4))


def test_explosion_irrelevance_degenerate_point_mass():
    d = dist(["A", "B"], tt=F(1))
    assert check_explosion_irrelevance(d, parse("B or not B"))


def reference_explosion(d, b, contradiction_atom="A"):
    """The single-event check, each probability from its own event."""
    a = AtomNode(Atom(contradiction_atom))
    contradiction = And(a, Not(a))
    return prob(d, And(contradiction, b)) == prob(d, contradiction) * prob(d, b)


_EVENT_TEXTS = ("B", "not B", "A", "A and B", "A or B", "A xor not B", "B and not B")


@settings(max_examples=50)
@given(st.integers(1, 6), st.data())
def test_explosion_over_events_matches_the_single_event_check(den, data):
    d = data.draw(st.sampled_from(list(grid(["A", "B"], den))))
    events = [parse(t) for t in data.draw(st.lists(st.sampled_from(_EVENT_TEXTS)))]
    expected = all(reference_explosion(d, b) for b in events)
    assert check_explosion_irrelevance(d, *events) is expected
    assert check_explosion_irrelevance(d, *events, contradiction_atom="B") is all(
        reference_explosion(d, b, "B") for b in events)


def test_explosion_errors_match_the_single_event_check():
    d = dist(["A", "B"], tt=F(1))
    for b, atom in ((parse("C"), "A"), (parse("B"), "C")):
        with pytest.raises(MissingAtomError) as mine:
            check_explosion_irrelevance(d, parse("A"), b, contradiction_atom=atom)
        with pytest.raises(MissingAtomError) as theirs:
            reference_explosion(d, b, atom)
        assert str(mine.value) == str(theirs.value)


_GRID_EVENT_TEXTS = ("B", "not B", "A", "A and B", "A or B")


def reference_explosion_on_grid(denominator):
    """The per-point Fraction loop that the integer search replaced: one
    check per grid point."""
    events = [parse(t) for t in _GRID_EVENT_TEXTS]
    checked = 0
    for d in grid(("A", "B"), denominator):
        checked += 1
        if not check_explosion_irrelevance(d, *events):
            return stopped_at(d, denominator, checked)
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked)


@pytest.mark.parametrize("den", range(1, GRID_DENOMINATOR_LIMIT + 1))
def test_explosion_on_grid_matches_the_reference_loop(den):
    # one test per grid point: every point is checked, none twice
    assert explosion_on_grid(den) == reference_explosion_on_grid(den) == \
        SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, grid_size(2, den))


def test_explosion_on_grid_reads_the_event_masses(monkeypatch):
    # With A, which is no contradiction, in its place the check fails at
    # the first point where A is dependent on one of the events.
    a = parse("A")
    events = [parse(t) for t in _GRID_EVENT_TEXTS]
    first, witness = next(
        (i, d) for i, d in enumerate(grid(("A", "B"), 4), 1)
        if any(prob(d, And(a, e)) != prob(d, a) * prob(d, e) for e in events))
    monkeypatch.setattr(relevance, "_CONTRADICTION", a)
    assert explosion_on_grid(4) == stopped_at(witness, 4, first)
    assert first < grid_size(2, 4)


def test_llr_self_evidence_is_infinitely_positive():
    d = dist(["A", "H"], tt=F(1, 4), tf=F(1, 4), ft=F(1, 4), ff=F(1, 4))
    pair = llr(d, parse("H"), parse("H"))
    assert pair == LikelihoodPair(F(1), F(0))
    assert pair.sign() == 1
    finite = llr(d, parse("A"), parse("H"))
    assert finite < pair  # infinite relevance dominates by cross-multiplication


def test_llr_independence_is_zero():
    d = RationalDist.uniform(["A", "H"])
    assert llr(d, parse("A"), parse("H")).sign() == 0


def test_llr_requires_uncertain_hypothesis():
    d = dist(["A", "H"], tt=F(1, 2), ft=F(1, 2))
    with pytest.raises(ZeroProbabilityError):
        llr(d, parse("A"), parse("H"))


def test_relevance_ordering_denominator_4_is_vacuous():
    # no quarter-mass distribution meets the conditional-independence filter
    result = check_relevance_ordering(4)
    assert result.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result.checked == 0


def test_relevance_ordering_nonvacuous_denominators():
    checked = {6: 1, 8: 9, 9: 20, 10: 30, 11: 58, 12: 64}
    for den, count in checked.items():
        assert check_relevance_ordering(den) == \
            SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, count)


def test_relevance_ordering_denominator_limit():
    # the ordering obeys the grid limits every search shares
    for den in (0, GRID_DENOMINATOR_LIMIT + 1):
        with pytest.raises(SizeLimitError):
            check_relevance_ordering(den)


def test_search_checks_the_grid_limits_before_building_points():
    built = []
    for den in (0, GRID_DENOMINATOR_LIMIT + 1):
        with pytest.raises(SizeLimitError):
            _search(("A",), den, {}, lambda mass: True, built.append)
    assert built == []


def test_conditional_independence_filter_accepts_product_distribution():
    # H-part concentrated on A,B; not-H-part uniform: independent given each
    d = dist(["A", "B", "H"],
             ttt=F(1, 2), ttf=F(1, 8), tff=F(1, 8), ftf=F(1, 8), fff=F(1, 8))
    h, not_h = parse("H"), parse("not H")
    conj = parse("A and B")
    assert cond_prob(d, conj, h) == cond_prob(d, parse("A"), h) * cond_prob(d, parse("B"), h)
    assert cond_prob(d, conj, not_h) == \
        cond_prob(d, parse("A"), not_h) * cond_prob(d, parse("B"), not_h)
    assert llr(d, parse("A"), h).sign() == 1
    assert llr(d, parse("B"), h).sign() == 1
    assert cond_prob(d, h, conj) < 1
    # and the ordering itself holds here
    strongest = max(llr(d, parse("A"), h), llr(d, parse("B"), h))
    assert llr(d, parse("A or B"), h) <= strongest
    assert strongest <= llr(d, conj, h)


def test_equirelevant_disjuncts_with_disjoint_support():
    # with P(A and B) = 0 and equally relevant disjuncts, the disjunction is
    # exactly as relevant as either disjunct (mediant of equal ratios)
    d = dist(["A", "B", "H"],
             tft=F(1, 4), ftt=F(1, 4), tff=F(1, 8), ftf=F(1, 8), fff=F(1, 4))
    h = parse("H")
    lr_a, lr_b = llr(d, parse("A"), h), llr(d, parse("B"), h)
    assert lr_a.same_relevance(lr_b)
    assert llr(d, parse("A or B"), h).same_relevance(lr_a)


@given(st.integers(min_value=1, max_value=8))
def test_grid_sizes_formula(den):
    assert sum(1 for _ in grid(["A"], den)) == grid_size(1, den)


# ---------------------------------------------------------------------------
# Reference searches: the per-point Fraction loops over `grid()` that the
# integer-count searches replaced, kept as oracles.

_A, _B, _C, _H = (AtomNode(Atom(n)) for n in "ABCH")


def reference_frege(denominator, premise_variants):
    """Every premise variant is tested at each point it admits:
        beta:  0 < P(A) < 1 and 0 < P(C) < 1
        delta: P(A) != 0 and P(C) != 1
        none:  P(A) > 0 only"""
    implication = Not(And(_A, Not(_C)))
    checked = 0
    for d in grid(("A", "C"), denominator):
        if prob(d, implication) != 1:  # alpha
            continue
        pa, pc = prob(d, _A), prob(d, _C)
        for variant in premise_variants:
            if variant == "beta" and not (0 < pa < 1 and 0 < pc < 1):
                continue
            if variant == "delta" and not (pa != 0 and pc != 1):
                continue
            if variant == "none" and pa == 0:
                continue
            checked += 1
            if not cond_prob(d, _C, _A) > pc:
                return stopped_at(d, denominator, checked)
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked)


def reference_corollary(denominator):
    disjunction = Or(_A, _B)
    both = And(_A, _B)
    checked = 0
    for d in grid(("A", "B"), denominator):
        pa, pb = prob(d, _A), prob(d, _B)
        if prob(d, disjunction) != 1 or not (0 < pa < 1 and 0 < pb < 1):
            continue
        checked += 1
        pb_given_a = cond_prob(d, _B, _A)
        pa_given_b = cond_prob(d, _A, _B)
        if not (pb_given_a < pb and pa_given_b < pa):
            return stopped_at(d, denominator, checked)
        if prob(d, both) == 0 and pb_given_a != 0:
            return stopped_at(d, denominator, checked)
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked)


def reference_ordering(denominator):
    """The search result, and the number of checked points where an
    inequality held with equality."""
    conj, disj = And(_A, _B), Or(_A, _B)
    checked = 0
    equalities = 0
    for d in grid(("A", "B", "H"), denominator):
        ph = prob(d, _H)
        if not 0 < ph < 1:
            continue
        not_h = Not(_H)
        # conditional independence given H and given not-H
        if cond_prob(d, conj, _H) != cond_prob(d, _A, _H) * cond_prob(d, _B, _H):
            continue
        if cond_prob(d, conj, not_h) != cond_prob(d, _A, not_h) * cond_prob(d, _B, not_h):
            continue
        lr_a, lr_b = llr(d, _A, _H), llr(d, _B, _H)
        if lr_a.sign() <= 0 or lr_b.sign() <= 0:
            continue
        if prob(d, conj) == 0 or not cond_prob(d, _H, conj) < 1:
            continue
        checked += 1
        strongest = lr_b if lr_a < lr_b else lr_a
        lr_or, lr_and = llr(d, disj, _H), llr(d, conj, _H)
        if not (lr_or <= strongest and strongest <= lr_and):
            return stopped_at(d, denominator, checked), equalities
        if lr_or.same_relevance(strongest) or strongest.same_relevance(lr_and):
            equalities += 1
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked), equalities


@pytest.mark.parametrize("drop_beta", [False, True])
def test_frege_drop_beta_matches_the_reference_search(drop_beta):
    variant = "none" if drop_beta else "beta"
    for den in range(1, GRID_DENOMINATOR_LIMIT + 1):
        assert check_frege_theorem(den, drop_beta).serialize() == \
            reference_frege(den, (variant,)).serialize()


def test_beta_and_delta_are_equivalent_under_alpha():
    # alpha makes P(A) <= P(C), so P(A) != 0 and P(C) != 1 put both in (0, 1)
    implication = Not(And(_A, Not(_C)))
    for den in range(1, GRID_DENOMINATOR_LIMIT + 1):
        for d in grid(("A", "C"), den):
            if prob(d, implication) == 1:
                pa, pc = prob(d, _A), prob(d, _C)
                assert (0 < pa < 1 and 0 < pc < 1) == (pa != 0 and pc != 1)
        assert reference_frege(den, ("beta",)) == reference_frege(den, ("delta",))


_VARIANTS = ("beta", "delta", "none")
_VARIANT_ORDERS = [order for k in range(1, len(_VARIANTS) + 1)
                   for order in permutations(_VARIANTS, k)]


@pytest.mark.parametrize("variants", _VARIANT_ORDERS, ids="-".join)
def test_frege_matches_the_reference_search(variants):
    # Any set of premise variants finds what drop_beta finds when it holds
    # "none", the weakest, and what the default finds otherwise; only
    # `checked`, which counted each admitting variant, differs.
    for den in range(1, GRID_DENOMINATOR_LIMIT + 1):
        mine = check_frege_theorem(den, "none" in variants)
        theirs = reference_frege(den, variants)
        assert (mine.status, mine.witness) == (theirs.status, theirs.witness)


def test_corollary_matches_the_reference_search():
    for den in range(1, 13):
        assert check_disjunction_corollary(den).serialize() == \
            reference_corollary(den).serialize()


@pytest.mark.parametrize("den", range(1, 10))
def test_ordering_matches_the_reference_search(den):
    result, equalities = reference_ordering(den)
    assert check_relevance_ordering(den) == result
    assert equalities == 0  # both inequalities are strict under the premises


def reference_ordering_walk(denominator):
    """The integer search the ordering ran before its points were built by
    construction: every point of the joint grid over (A, B, H), with the
    premises in their old order (0 < h < den, independence given H, then
    given not-H, relevance of A and of B, n_AB-notH > 0) and the
    conclusion at each point that passes them. Returns the search result
    and those points."""
    den = denominator
    atoms = ("A", "B", "H")
    conj, disj, not_h = And(_A, _B), Or(_A, _B), Not(_H)
    events = {"h": _H}
    for side, suffix in ((_H, "_h"), (not_h, "_nh")):
        for name, e in (("a", _A), ("b", _B), ("ab", conj), ("or", disj)):
            events[name + suffix] = And(e, side)
    cells = {name: [i for i in range(8) if truth_mask(e, atoms) >> i & 1]
             for name, e in events.items()}
    passed = []
    for counts in _compositions(den, 8):
        def mass(name):
            return sum(counts[i] for i in cells[name])

        h = mass("h")
        if not 0 < h < den:
            continue
        nh = den - h
        a_h, b_h, ab_h = mass("a_h"), mass("b_h"), mass("ab_h")
        if ab_h * h != a_h * b_h:
            continue
        a_nh, b_nh, ab_nh = mass("a_nh"), mass("b_nh"), mass("ab_nh")
        if ab_nh * nh != a_nh * b_nh:
            continue
        if a_h * nh <= a_nh * h or b_h * nh <= b_nh * h:
            continue
        if ab_nh == 0:
            continue
        passed.append(counts)
        s_h, s_nh = (b_h, b_nh) if a_h * b_nh < b_h * a_nh else (a_h, a_nh)
        if not (mass("or_h") * s_nh < s_h * mass("or_nh") and s_h * ab_nh < ab_h * s_nh):
            return SearchResult(SearchStatus.COUNTEREXAMPLE, (atoms, counts, den),
                                len(passed)), passed
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, len(passed)), passed


@pytest.mark.parametrize("den", range(1, GRID_DENOMINATOR_LIMIT + 1))
def test_ordering_points_are_the_joint_grid_points_that_pass_the_premises(den):
    result, passed = reference_ordering_walk(den)
    assert check_relevance_ordering(den) == result
    assert _ordering_points(den) == passed  # the same points, in grid order


def reference_compositions(total, parts):
    """The recursive generator `_compositions` replaced: descending
    lexicographic order, first count first."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("parts", [1, 2, 4, 8])
def test_compositions_match_the_recursive_generator(parts):
    for total in range(GRID_DENOMINATOR_LIMIT + 1):
        assert list(_compositions(total, parts)) == list(reference_compositions(total, parts))


@st.composite
def _probability_above(draw, low):
    """A fraction with denominator at most 8 in (low, 1], or in (0, 1) when
    `low` is 0: P(H) and P(e|not H) may be neither 0 nor 1."""
    den = draw(st.integers(2 if low == 0 else 1, 8))
    top = den - 1 if low == 0 else den
    return F(draw(st.integers(int(low * den) + 1, top)), den)


@st.composite
def _relevant_pair(draw):
    """(P(e|H), P(e|not H)) with P(e|H) > P(e|not H) > 0."""
    given_not_h = draw(_probability_above(0))
    return draw(_probability_above(given_not_h)), given_not_h


@settings(max_examples=300)
@given(_probability_above(0), _relevant_pair(), _relevant_pair())
def test_relevance_ordering_is_strict_under_its_premises(ph, a_pair, b_pair):
    # A product distribution: A and B independent given H and given not-H,
    # with the chosen conditional probabilities.
    (a, a_nh), (b, b_nh) = a_pair, b_pair
    table = {}
    for in_a, in_b, in_h in product([True, False], repeat=3):
        pa, pb, p = (a, b, ph) if in_h else (a_nh, b_nh, 1 - ph)
        table[(in_a, in_b, in_h)] = p * (pa if in_a else 1 - pa) * (pb if in_b else 1 - pb)
    d = RationalDist.from_cells(["A", "B", "H"], table)
    conj, disj, not_h = And(_A, _B), Or(_A, _B), Not(_H)
    # every premise of check_relevance_ordering holds
    assert cond_prob(d, conj, _H) == cond_prob(d, _A, _H) * cond_prob(d, _B, _H)
    assert cond_prob(d, conj, not_h) == cond_prob(d, _A, not_h) * cond_prob(d, _B, not_h)
    lr_a, lr_b = llr(d, _A, _H), llr(d, _B, _H)
    assert lr_a.sign() == lr_b.sign() == 1
    assert prob(d, conj) > 0 and cond_prob(d, _H, conj) < 1
    # and both inequalities of its conclusion are strict
    strongest = lr_b if lr_a < lr_b else lr_a
    assert llr(d, disj, _H) < strongest < llr(d, conj, _H)


def test_witness_is_the_grid_point():
    for atoms in (("A",), ("A", "B"), ("A", "B", "H")):
        for den in (1, 3):
            points = list(_compositions(den, 2 ** len(atoms)))
            dists = list(grid(atoms, den))
            assert len(points) == len(dists) == grid_size(len(atoms), den)
            for counts, d in zip(points, dists):
                assert _dist(atoms, counts, den) == d
                assert d.masses == tuple(F(k, den) for k in counts)
