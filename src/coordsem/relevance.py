"""Exact-rational probability over truth assignments, and exhaustive grid
searches for counterexamples to relevance facts about the connectives.

Distributions assign Fraction masses to the truth assignments over a fixed
atom tuple, in the world order of `coordsem.boolean`; all arithmetic is
exact, and likelihood-ratio comparisons are decided by cross-multiplication
rather than floating logarithms.

The grid searches run on integer cell counts over the grid's common
denominator: an event's mass is a sum of counts over its cells, and every
premise and conclusion is an integer comparison by cross-multiplication.
They build a distribution of Fraction masses only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Optional, Sequence

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
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    equalities: int = 0  # boundary cases where a weak inequality held with equality

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.COUNTEREXAMPLE

    def serialize(self) -> dict[str, object]:
        return {
            "status": self.status.value,
            "witness": self.witness.serialize() if self.witness else None,
            "checked": self.checked,
            "equalities": self.equalities,
        }


def _no_counterexample(checked: int, equalities: int = 0) -> SearchResult:
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked, equalities)


def _counterexample(d: RationalDist, checked: int) -> SearchResult:
    return SearchResult(SearchStatus.COUNTEREXAMPLE, d, checked)


# Outcomes of one premise-satisfying test at a grid point.
_HOLDS, _BOUNDARY, _FAILS = range(3)


def _search(atoms: Sequence[str], denominator: int, events: Sequence[Formula],
            tests: Callable[..., Sequence[int]]) -> SearchResult:
    """The integer loop of the grid searches. It walks the cell counts of
    `grid(atoms, denominator)` in the same order. At each point it passes
    `tests` the mass of every event times the denominator, an integer sum
    over the event's cells; `tests` returns one outcome per premise-satisfying
    test there. The first `_FAILS` ends the search with that point as the
    witness; `_BOUNDARY` counts a weak inequality that held with equality."""
    ordered = _grid_atoms(atoms, denominator)
    n_cells = 2 ** len(ordered)
    cells = [[i for i in range(n_cells) if mask >> i & 1]
             for mask in (truth_mask(e, ordered) for e in events)]
    checked = 0
    equalities = 0
    for counts in _compositions(denominator, n_cells):
        for outcome in tests(*[sum(map(counts.__getitem__, c)) for c in cells]):
            checked += 1
            if outcome == _FAILS:
                return _counterexample(_dist(ordered, counts, denominator), checked)
            equalities += outcome == _BOUNDARY
    return _no_counterexample(checked, equalities)


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

    def tests(implication: int, a: int, c: int, ac: int) -> list[int]:
        if implication != den:  # alpha
            return []
        premises = {"beta": 0 < a < den and 0 < c < den,
                    "delta": a != 0 and c != den,
                    "none": a != 0}
        # P(C|A) > P(C), that is ac / a > c / den; every variant needs a > 0
        outcome = _HOLDS if ac * den > c * a else _FAILS
        return [outcome for variant in premise_variants if premises[variant]]

    return _search(("A", "C"), den,
                   (Not(And(_A, Not(_C))), _A, _C, And(_A, _C)), tests)


def check_disjunction_corollary(denominator: int) -> SearchResult:
    """For a certain disjunction with both disjuncts uncertain, each
    disjunct is negatively relevant to the other: P(B|A) < P(B), and
    symmetrically P(A|B) < P(A). When additionally P(A and B) = 0, the
    negative relevance is extreme: P(B|A) = 0."""
    den = denominator

    def tests(disjunction: int, a: int, b: int, both: int) -> tuple[int, ...]:
        if disjunction != den or not (0 < a < den and 0 < b < den):
            return ()
        # P(B|A) < P(B) and P(A|B) < P(A) both read both * den < a * b.
        # P(B|A) = both / a is zero exactly when P(A and B) is, so the
        # extreme case needs no test of its own.
        return (_HOLDS if both * den < a * b else _FAILS,)

    return _search(("A", "B"), den, (Or(_A, _B, 0), _A, _B, And(_A, _B)), tests)


def check_explosion_irrelevance(d: RationalDist, b: Formula,
                                contradiction_atom: str = "A") -> bool:
    """A contradiction is probabilistically irrelevant to anything:
    P((A and not A) and B) equals P(A and not A) * P(B), both sides zero."""
    contradiction = And(AtomNode(Atom(contradiction_atom)),
                        Not(AtomNode(Atom(contradiction_atom))))
    return prob(d, And(contradiction, b)) == prob(d, contradiction) * prob(d, b)


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

    Checked as weak inequalities over the 3-atom grid; equality cases are
    counted in `equalities`, not as violations."""
    if denominator > 8:
        raise SizeLimitError("relevance ordering supports denominators up to 8")
    den = denominator
    conj, disj, not_h = And(_A, _B), Or(_A, _B, 0), Not(_H)
    events = [_H] + [And(e, side) for side in (_H, not_h) for e in (_A, _B, conj, disj)]

    def tests(h: int, a_h: int, b_h: int, ab_h: int, or_h: int,
              a_nh: int, b_nh: int, ab_nh: int, or_nh: int) -> tuple[int, ...]:
        nh = den - h
        if not 0 < h < den:
            return ()
        # conditional independence given H and given not-H
        if ab_h * h != a_h * b_h or ab_nh * nh != a_nh * b_nh:
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
        or_left, or_right = or_h * s_nh, s_h * or_nh  # llr(A or B) vs strongest
        and_left, and_right = s_h * ab_nh, ab_h * s_nh  # strongest vs llr(A and B)
        if or_left > or_right or and_left > and_right:
            return (_FAILS,)
        return (_BOUNDARY if or_left == or_right or and_left == and_right else _HOLDS,)

    return _search(("A", "B", "H"), den, events, tests)
