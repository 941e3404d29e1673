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
from coordsem.boolean import assignments
from coordsem.formula import atom_names
from coordsem.relevance import (
    FREGE_PREMISE_VARIANTS,
    GRID_DENOMINATOR_LIMIT,
    LikelihoodPair,
    _compositions,
    _counterexample,
    _dist,
    _no_counterexample,
    grid_size,
)

F = Fraction


def dist(atoms, **cells):
    """Shorthand: keys like ``tf`` give the cell (True, False) in atom order."""
    table = {tuple(ch == "t" for ch in key): value for key, value in cells.items()}
    return RationalDist.from_cells(atoms, table)


def test_distribution_validation():
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(1, 2), F(1, 4)))  # does not sum to 1
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(3, 2), F(-1, 2)))  # negative mass
    with pytest.raises(ValueError):
        RationalDist(("B", "A"), (F(1, 4),) * 4)  # unsorted atoms
    with pytest.raises(ValueError):
        RationalDist(("A",), (F(1),))  # wrong arity


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
                           st.builds(lambda l, r: Or(l, r, 0), kids, kids),
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
                assert prob(d, Or(f, g, 0)) + prob(d, And(f, g)) == \
                    prob(d, f) + prob(d, g)


@pytest.mark.parametrize("den", [2, 4, 6, 12])
def test_frege_theorem_no_counterexample(den):
    result = check_frege_theorem(den)
    assert result.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result.checked > 0
    assert result.witness is None


def test_frege_checked_counts_both_premise_variants():
    # at denominator 6 each variant admits the same 15 premise-satisfying
    # distributions (delta plus alpha entails beta)
    assert check_frege_theorem(6).checked == 30


def test_frege_without_uncertainty_premise_fails():
    result = check_frege_theorem(6, premise_variants=("none",))
    assert result.status is SearchStatus.COUNTEREXAMPLE
    d = result.witness
    assert prob(d, parse("not (A and not C)")) == 1  # alpha holds
    pa = prob(d, parse("A"))
    assert pa > 0
    assert cond_prob(d, parse("C"), parse("A")) <= prob(d, parse("C"))


def test_frege_rejects_unknown_variant():
    with pytest.raises(ValueError):
        check_frege_theorem(4, premise_variants=("gamma",))


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
    assert explosion_on_grid(4) == (True, grid_size(2, 4))


def test_explosion_irrelevance_degenerate_point_mass():
    d = dist(["A", "B"], tt=F(1))
    assert check_explosion_irrelevance(d, parse("B or not B"))


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
    result6 = check_relevance_ordering(6)
    assert result6.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result6.checked == 1
    result8 = check_relevance_ordering(8)
    assert result8.status is SearchStatus.NO_COUNTEREXAMPLE
    assert result8.checked == 9


def test_relevance_ordering_denominator_limit():
    with pytest.raises(SizeLimitError):
        check_relevance_ordering(9)


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


def reference_frege(denominator, premise_variants=("beta", "delta")):
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
                return _counterexample(d, checked)
    return _no_counterexample(checked)


def reference_corollary(denominator):
    disjunction = Or(_A, _B, 0)
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
            return _counterexample(d, checked)
        if prob(d, both) == 0 and pb_given_a != 0:
            return _counterexample(d, checked)
    return _no_counterexample(checked)


def reference_ordering(denominator):
    """The search result, and the number of checked points where an
    inequality held with equality."""
    conj, disj = And(_A, _B), Or(_A, _B, 0)
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
            return _counterexample(d, checked), equalities
        if lr_or.same_relevance(strongest) or strongest.same_relevance(lr_and):
            equalities += 1
    return _no_counterexample(checked), equalities


_VARIANT_ORDERS = [order for k in range(1, len(FREGE_PREMISE_VARIANTS) + 1)
                   for order in permutations(FREGE_PREMISE_VARIANTS, k)]


@pytest.mark.parametrize("variants", _VARIANT_ORDERS, ids="-".join)
def test_frege_matches_the_reference_search(variants):
    for den in range(1, 13):
        assert check_frege_theorem(den, variants).serialize() == \
            reference_frege(den, variants).serialize()


def test_corollary_matches_the_reference_search():
    for den in range(1, 13):
        assert check_disjunction_corollary(den).serialize() == \
            reference_corollary(den).serialize()


@pytest.mark.parametrize("den", range(1, 9))
def test_ordering_matches_the_reference_search(den):
    result, equalities = reference_ordering(den)
    assert check_relevance_ordering(den).serialize() == \
        {**result.serialize(), "equalities": equalities}


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
    conj, disj, not_h = And(_A, _B), Or(_A, _B, 0), Not(_H)
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
