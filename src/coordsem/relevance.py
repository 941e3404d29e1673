"""Exact-rational probability over truth assignments, and exhaustive grid
searches for counterexamples to relevance facts about the connectives.

Distributions assign Fraction masses to the truth assignments over a fixed
atom tuple, in the world order of `coordsem.boolean`; all arithmetic is
exact, and likelihood-ratio comparisons are decided by cross-multiplication
rather than floating logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Sequence

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


def grid(atoms: Sequence[str], denominator: int) -> Iterator[RationalDist]:
    """Every distribution whose masses are multiples of 1/denominator;
    there are C(denominator + 2^n - 1, 2^n - 1) of them."""
    if len(atoms) > GRID_ATOM_LIMIT:
        raise SizeLimitError(f"grids support at most {GRID_ATOM_LIMIT} atoms")
    if not 1 <= denominator <= GRID_DENOMINATOR_LIMIT:
        raise SizeLimitError(
            f"denominator must be in 1..{GRID_DENOMINATOR_LIMIT}, got {denominator}")
    ordered = tuple(sorted(atoms))
    n_cells = 2 ** len(ordered)
    for combo in _compositions(denominator, n_cells):
        yield RationalDist(ordered, tuple(Fraction(k, denominator) for k in combo))


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


def check_disjunction_corollary(denominator: int) -> SearchResult:
    """For a certain disjunction with both disjuncts uncertain, each
    disjunct is negatively relevant to the other: P(B|A) < P(B), and
    symmetrically P(A|B) < P(A). When additionally P(A and B) = 0, the
    negative relevance is extreme: P(B|A) = 0."""
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
            return _counterexample(d, checked)
        if lr_or.same_relevance(strongest) or strongest.same_relevance(lr_and):
            equalities += 1
    return _no_counterexample(checked, equalities)
