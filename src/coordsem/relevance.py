"""Exact-rational probability over truth assignments, and exhaustive grid
searches for counterexamples to relevance facts about the connectives.

Distributions assign Fraction masses to the truth assignments over a fixed
atom tuple, in the world order of `coordsem.boolean`; all arithmetic is
exact, and likelihood-ratio comparisons are decided by cross-multiplication
rather than floating logarithms.

The grid searches run on integer cell counts over the grid's common
denominator: an event's mass is a sum of counts over its cells, taken only
when a premise or conclusion reads it, and every premise and conclusion is
an integer comparison by cross-multiplication.
They build a distribution of Fraction masses only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .boolean import assignments, truth_mask
from .errors import SizeLimitError, ZeroProbabilityError
from .formula import And, Atom, AtomNode, Formula, Not, Or

GRID_ATOM_LIMIT = 3
GRID_DENOMINATOR_LIMIT = 12


@dataclass(frozen=True)
class RationalDist:
    """Probability distribution over the truth assignments of `atoms`;
    masses follow `assignments(atoms)`, are nonnegative and sum to exactly 1."""

    atoms: tuple[str, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.atoms)) != self.atoms:
            raise ValueError("atoms must be sorted")
        if len(self.masses) != 2 ** len(self.atoms):
            raise ValueError("one mass per truth assignment required")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        if sum(self.masses, Fraction(0)) != 1:
            raise ValueError("masses must sum to exactly 1")

    @classmethod
    def from_cells(cls, atoms: Sequence[str],
                   table: dict[tuple[bool, ...], Fraction]) -> "RationalDist":
        ordered = tuple(sorted(atoms))
        return cls(ordered, tuple(table.get(tuple(v.values()), Fraction(0))
                                  for v in assignments(ordered)))

    @classmethod
    def uniform(cls, atoms: Sequence[str]) -> "RationalDist":
        n = 2 ** len(atoms)
        return cls(tuple(sorted(atoms)), tuple([Fraction(1, n)] * n))

    def serialize(self) -> list[list[object]]:
        out = []
        for v, mass in zip(assignments(self.atoms), self.masses):
            if mass:
                key = ",".join(f"{a}={'1' if b else '0'}" for a, b in v.items())
                out.append([key, str(mass)])
        return out

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}: {v}" for k, v in self.serialize()) + "}"


def prob(d: RationalDist, f: Formula) -> Fraction:
    """Probability of the event described by f: the mass of its satisfying
    assignments."""
    mask = truth_mask(f, d.atoms)
    return sum((m for i, m in enumerate(d.masses) if mask >> i & 1), Fraction(0))


def cond_prob(d: RationalDist, f: Formula, g: Formula) -> Fraction:
    """P(f | g); conditioning on a zero-probability g is an error."""
    pg = prob(d, g)
    if pg == 0:
        raise ZeroProbabilityError("conditioning on an event of probability zero")
    return prob(d, And(f, g)) / pg


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of `parts` counts that sum to `total`, in descending
    lexicographic order. The successor of a tuple moves one unit from its
    rightmost nonzero count short of the last one to the next place, and
    gathers the last count there too; the places between are zero."""
    counts = [total] + [0] * (parts - 1)
    last = parts - 1
    while True:
        yield tuple(counts)
        j = last - 1
        while j >= 0 and not counts[j]:
            j -= 1
        if j < 0:
            return
        tail = counts[last]
        counts[last] = 0
        counts[j] -= 1
        counts[j + 1] = tail + 1


def _grid_atoms(atoms: Sequence[str], denominator: int) -> tuple[str, ...]:
    """The sorted atoms of a grid, once its size limits are checked."""
    if len(atoms) > GRID_ATOM_LIMIT:
        raise SizeLimitError(f"grids support at most {GRID_ATOM_LIMIT} atoms")
    if not 1 <= denominator <= GRID_DENOMINATOR_LIMIT:
        raise SizeLimitError(
            f"denominator must be in 1..{GRID_DENOMINATOR_LIMIT}, got {denominator}")
    return tuple(sorted(atoms))


def _dist(atoms: tuple[str, ...], counts: tuple[int, ...], denominator: int) -> RationalDist:
    """The grid point whose cell masses are counts / denominator."""
    return RationalDist(atoms, tuple(Fraction(k, denominator) for k in counts))


def grid(atoms: Sequence[str], denominator: int) -> Iterator[RationalDist]:
    """Every distribution whose masses are multiples of 1/denominator;
    there are C(denominator + 2^n - 1, 2^n - 1) of them."""
    ordered = _grid_atoms(atoms, denominator)
    for counts in _compositions(denominator, 2 ** len(ordered)):
        yield _dist(ordered, counts, denominator)


def grid_size(n_atoms: int, denominator: int) -> int:
    n_cells = 2 ** n_atoms
    return comb(denominator + n_cells - 1, n_cells - 1)


class SearchStatus(Enum):
    NO_COUNTEREXAMPLE = "no_counterexample"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    witness: Optional[RationalDist]
    checked: int

    def serialize(self) -> dict[str, object]:
        return {
            "status": self.status.value,
            "witness": self.witness.serialize() if self.witness else None,
            "checked": self.checked,
            # Boundary cases where a weak inequality held with equality. Every
            # conclusion the searches test is strict, and the ordering's weak
            # inequalities are strict under its premises (see
            # check_relevance_ordering), so there are none.
            "equalities": 0,
        }


def _no_counterexample(checked: int) -> SearchResult:
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked)


def _counterexample(d: RationalDist, checked: int) -> SearchResult:
    return SearchResult(SearchStatus.COUNTEREXAMPLE, d, checked)


def _search(atoms: Sequence[str], denominator: int, events: Mapping[str, Formula],
            tests: Callable[[Callable[[str], int]], Sequence[bool]]) -> SearchResult:
    """The integer loop of the grid searches. It walks the cell counts of
    `grid(atoms, denominator)` in the same order. At each point it calls
    `tests(mass)`, where `mass(name)` is the mass of the named event times
    the denominator: the sum of the counts of the event's cells. `tests`
    returns, for each premise-satisfying test at the point, whether its
    conclusion holds; the first that does not ends the search with the point
    as the witness.

    A sum is taken only when `mass` is called, so `tests` checks its
    premises cheapest first and reads an event only at a point that passed
    every premise before the first one that needs it: alpha, then the
    marginals, then A and C for Frege; the disjunction, then the marginals,
    then A and B for the corollary; for the ordering, 0 < P(H) < 1, then
    independence given H, then given not-H, then relevance, with the
    disjunction's masses read only for the conclusion."""
    ordered = _grid_atoms(atoms, denominator)
    n_cells = 2 ** len(ordered)
    cells = {}
    for name, event in events.items():
        mask = truth_mask(event, ordered)
        cells[name] = [i for i in range(n_cells) if mask >> i & 1]
    counts: tuple[int, ...] = ()

    def mass(name: str) -> int:
        # `counts` is the point the loop below is at. A plain loop over one
        # to four cells costs less than sum(map(...)).
        total = 0
        for i in cells[name]:
            total += counts[i]
        return total

    checked = 0
    for counts in _compositions(denominator, n_cells):
        for holds in tests(mass):
            checked += 1
            if not holds:
                return _counterexample(_dist(ordered, counts, denominator), checked)
    return _no_counterexample(checked)


_A, _B, _C, _H = (AtomNode(Atom(n)) for n in "ABCH")

FREGE_PREMISE_VARIANTS = ("beta", "delta", "none")


def check_frege_theorem(
    denominator: int,
    premise_variants: Sequence[str] = ("beta", "delta"),
) -> SearchResult:
    """Conditionalization on A raises the probability of C whenever the
    material implication from A to C is certain and the premises hold.

    Premise predicates over the grid on atoms {A, C}:
        alpha: P(A implies C) = 1       (always required)
        beta:  0 < P(A) < 1 and 0 < P(C) < 1
        delta: P(A) != 0 and P(C) != 1  (weakening of beta given alpha)
        none:  only alpha (plus P(A) > 0 so conditioning is defined) —
               dropping beta entirely, which admits counterexamples.

    The conclusion tested is P(C|A) > P(C). One result covers every
    requested variant; `checked` counts premise-satisfying tests."""
    for variant in premise_variants:
        if variant not in FREGE_PREMISE_VARIANTS:
            raise ValueError(f"unknown premise variant {variant!r}")
    den = denominator

    def tests(mass: Callable[[str], int]) -> list[bool]:
        if mass("implication") != den:  # alpha
            return []
        a, c = mass("a"), mass("c")
        premises = {"beta": 0 < a < den and 0 < c < den,
                    "delta": a != 0 and c != den,
                    "none": a != 0}
        admitted = sum(premises[variant] for variant in premise_variants)
        if not admitted:
            return []
        # P(C|A) > P(C), that is ac / a > c / den; every variant needs a > 0
        return [mass("ac") * den > c * a] * admitted

    return _search(("A", "C"), den,
                   {"implication": Not(And(_A, Not(_C))), "a": _A, "c": _C,
                    "ac": And(_A, _C)}, tests)


def check_disjunction_corollary(denominator: int) -> SearchResult:
    """For a certain disjunction with both disjuncts uncertain, each
    disjunct is negatively relevant to the other: P(B|A) < P(B), and
    symmetrically P(A|B) < P(A). When additionally P(A and B) = 0, the
    negative relevance is extreme: P(B|A) = 0."""
    den = denominator

    def tests(mass: Callable[[str], int]) -> tuple[bool, ...]:
        if mass("disjunction") != den:
            return ()
        a, b = mass("a"), mass("b")
        if not (0 < a < den and 0 < b < den):
            return ()
        # P(B|A) < P(B) and P(A|B) < P(A) both read both * den < a * b.
        # P(B|A) = both / a is zero exactly when P(A and B) is, so the
        # extreme case needs no test of its own.
        return (mass("both") * den < a * b,)

    return _search(("A", "B"), den, {"disjunction": Or(_A, _B, 0), "a": _A, "b": _B,
                                     "both": And(_A, _B)}, tests)


def check_explosion_irrelevance(d: RationalDist, b: Formula,
                                contradiction_atom: str = "A") -> bool:
    """A contradiction is probabilistically irrelevant to anything:
    P((A and not A) and B) equals P(A and not A) * P(B), both sides zero."""
    contradiction = And(AtomNode(Atom(contradiction_atom)),
                        Not(AtomNode(Atom(contradiction_atom))))
    return prob(d, And(contradiction, b)) == prob(d, contradiction) * prob(d, b)


_EXPLOSION_EVENTS = (_B, Not(_B), _A, And(_A, _B), Or(_A, _B, 0))


def explosion_on_grid(denominator: int) -> tuple[bool, int]:
    """Explosion irrelevance for each of B, not B, A, A and B, A or B at
    every point of the grid over {A, B}: whether it holds throughout, and
    the number of grid points. Points after a violation are counted but not
    checked."""
    holds, points = True, 0
    for d in grid(("A", "B"), denominator):
        points += 1
        holds = holds and all(check_explosion_irrelevance(d, b) for b in _EXPLOSION_EVENTS)
    return holds, points


@dataclass(frozen=True)
class LikelihoodPair:
    """(P(e|h), P(e|not h)); ordering compares the ratios by
    cross-multiplication, so a zero denominator encodes infinite relevance
    without ever forming a quotient."""

    given_h: Fraction
    given_not_h: Fraction

    def sign(self) -> int:
        """+1 positive relevance, -1 negative, 0 none."""
        diff = self.given_h - self.given_not_h
        return (diff > 0) - (diff < 0)

    def _cross(self, other: "LikelihoodPair") -> tuple[Fraction, Fraction]:
        return self.given_h * other.given_not_h, other.given_h * self.given_not_h

    def __lt__(self, other: "LikelihoodPair") -> bool:
        left, right = self._cross(other)
        return left < right

    def __le__(self, other: "LikelihoodPair") -> bool:
        left, right = self._cross(other)
        return left <= right

    def same_relevance(self, other: "LikelihoodPair") -> bool:
        left, right = self._cross(other)
        return left == right


def llr(d: RationalDist, e: Formula, h: Formula) -> LikelihoodPair:
    """Likelihood pair of evidence e for hypothesis h."""
    ph = prob(d, h)
    if ph == 0 or ph == 1:
        raise ZeroProbabilityError("hypothesis must have probability strictly between 0 and 1")
    return LikelihoodPair(cond_prob(d, e, h), cond_prob(d, e, Not(h)))


def check_relevance_ordering(denominator: int) -> SearchResult:
    """Where A and B are independent conditional on H and on not-H, both
    positively relevant to H, and their conjunction does not make H certain,
    relevance increases from the disjunction through the stronger disjunct
    to the conjunction:

        llr(A or B) <= max(llr(A), llr(B)) <= llr(A and B).

    Both inequalities are in fact strict, and the search tests them strictly.
    Write a, b for P(A|H), P(B|H) and a', b' for P(A|not H), P(B|not H).
    The premises give a > a' and b > b' by relevance, and a'b' =
    P(A and B | not H) > 0 because P(H | A and B) < 1, so a', b' > 0. Say
    A is the stronger disjunct, a/a' >= b/b' (B is symmetric). Then
    llr(A and B) = (a/a')(b/b') > a/a', since b/b' > 1. And
    llr(A or B) = (a + b(1-a)) / (a' + b'(1-a')) is the mediant of a/a' and
    b(1-a) / (b'(1-a')), whose denominators are positive (a' < 1); the second
    ratio is (b/b')((1-a)/(1-a')) < b/b' <= a/a', because 1-a < 1-a', so the
    mediant is below a/a'. Hence no grid point meets either inequality with
    equality, and `equalities` is always 0."""
    if denominator > 8:
        raise SizeLimitError("relevance ordering supports denominators up to 8")
    den = denominator
    conj, disj, not_h = And(_A, _B), Or(_A, _B, 0), Not(_H)
    events = {"h": _H}
    for side, suffix in ((_H, "_h"), (not_h, "_nh")):
        for name, e in (("a", _A), ("b", _B), ("ab", conj), ("or", disj)):
            events[name + suffix] = And(e, side)

    def tests(mass: Callable[[str], int]) -> tuple[bool, ...]:
        h = mass("h")
        if not 0 < h < den:
            return ()
        nh = den - h
        # conditional independence given H, then given not-H
        a_h, b_h, ab_h = mass("a_h"), mass("b_h"), mass("ab_h")
        if ab_h * h != a_h * b_h:
            return ()
        a_nh, b_nh, ab_nh = mass("a_nh"), mass("b_nh"), mass("ab_nh")
        if ab_nh * nh != a_nh * b_nh:
            return ()
        # positive relevance of A and of B: P(e|H) > P(e|not H)
        if a_h * nh <= a_nh * h or b_h * nh <= b_nh * h:
            return ()
        # P(A and B) > 0 and P(H | A and B) < 1: some of A and B lies in not-H
        if ab_nh == 0:
            return ()
        # The likelihood pair of e is (e_h / h, e_nh / nh). Comparing two
        # pairs by cross-multiplication, the positive h * nh cancels, so the
        # pair of counts (e_h, e_nh) compares the same way.
        s_h, s_nh = (b_h, b_nh) if a_h * b_nh < b_h * a_nh else (a_h, a_nh)
        return (mass("or_h") * s_nh < s_h * mass("or_nh")  # llr(A or B) < strongest
                and s_h * ab_nh < ab_h * s_nh,)  # strongest < llr(A and B)

    return _search(("A", "B", "H"), den, events, tests)
