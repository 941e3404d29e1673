"""Exact-rational probability over truth assignments, and exhaustive grid
searches for counterexamples to relevance facts about the connectives.

Distributions assign Fraction masses to the truth assignments over a fixed
atom tuple, in the world order of `coordsem.boolean`; all arithmetic is
exact, and likelihood-ratio comparisons are decided by cross-multiplication
rather than floating logarithms.

The four grid claims (Frege's theorem, the disjunction corollary, explosion
irrelevance and the relevance ordering) share one search loop, one result
type, `SearchResult`, and one set of size limits, `GRID_ATOM_LIMIT` and
`GRID_DENOMINATOR_LIMIT`. The loop runs on integer cell counts over the
grid's common denominator: an event's mass is a sum of counts over its
cells, taken only when a premise or conclusion reads it, and every premise
and conclusion is an integer comparison by cross-multiplication. A
distribution of Fraction masses is built only for a witness.

Frege, the corollary and explosion walk the whole grid. The ordering walks
only the points that meet its premises, built by construction from the two
halves of the grid, given H and given not-H, in grid order; its `checked`
counts the same points that a filter over the whole grid would keep.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ._record import Record
from .boolean import assignments, truth_mask
from .errors import SizeLimitError, ZeroProbabilityError
from .formula import And, Atom, AtomNode, Formula, Not, Or

GRID_ATOM_LIMIT = 3
GRID_DENOMINATOR_LIMIT = 12


class RationalDist(Record):
    """Probability distribution over the truth assignments of `atoms`;
    masses follow `assignments(atoms)`, are nonnegative and sum to exactly 1."""

    atoms: tuple[str, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.atoms))) != self.atoms:
            raise ValueError("atoms must be sorted and distinct")
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
    return _mass(d, truth_mask(f, d.atoms))


def _mass(d: RationalDist, mask: int) -> Fraction:
    """The mass of the worlds in `mask`."""
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


class SearchResult(Record):
    status: SearchStatus
    witness: Optional[RationalDist]
    checked: int

    def serialize(self) -> dict[str, object]:
        return {
            "status": self.status.value,
            "witness": self.witness.serialize() if self.witness else None,
            "checked": self.checked,
        }


def _search(atoms: Sequence[str], denominator: int, events: Mapping[str, Formula],
            tests: Callable[[Callable[[str], int]], Optional[bool]],
            points: Optional[Callable[[int], Iterable[tuple[int, ...]]]] = None
            ) -> SearchResult:
    """The integer loop of the grid searches. It walks the cell counts of
    `grid(atoms, denominator)` in the same order, or, given `points`, the
    counts `points(denominator)` yields once the grid limits are checked:
    a subsequence of the grid in grid order. At each point it calls
    `tests(mass)`, where `mass(name)` is the mass of the named event times
    the denominator: the sum of the counts of the event's cells. `tests`
    returns None where the premises fail, and otherwise whether the
    conclusion holds; `checked` counts the points that are not None, and the
    first False ends the search with the point as the witness.

    A sum is taken only when `mass` is called, so `tests` checks its
    premises cheapest first and reads an event only at a point that passed
    every premise before the first one that needs it: alpha, then the
    marginals, then A and C for Frege; the disjunction, then the marginals,
    then A and B for the corollary. The ordering's premises are met by
    construction (`_ordering_points`), so its `tests` reads only the
    conclusion and every point it is given is checked."""
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
    walk = _compositions(denominator, n_cells) if points is None else points(denominator)
    for counts in walk:
        holds = tests(mass)
        if holds is None:
            continue
        checked += 1
        if not holds:
            return SearchResult(SearchStatus.COUNTEREXAMPLE,
                                _dist(ordered, counts, denominator), checked)
    return SearchResult(SearchStatus.NO_COUNTEREXAMPLE, None, checked)


_A, _B, _C, _H = (AtomNode(Atom(n)) for n in "ABCH")


def check_frege_theorem(denominator: int, drop_beta: bool = False) -> SearchResult:
    """Conditionalization on A raises the probability of C whenever the
    material implication from A to C is certain and the premises hold.

    Premise predicates over the grid on atoms {A, C}:
        alpha: P(A implies C) = 1       (always required)
        beta:  0 < P(A) < 1 and 0 < P(C) < 1

    With `drop_beta`, only alpha and P(A) > 0, so that conditioning is
    defined, are required; that admits counterexamples. Under alpha,
    P(A) <= P(C), so beta is equivalent to its seeming weakening
    P(A) != 0 and P(C) != 1: one test per point covers both.

    The conclusion tested is P(C|A) > P(C); `checked` counts the points
    that satisfy the premises."""
    den = denominator

    def tests(mass: Callable[[str], int]) -> Optional[bool]:
        if mass("implication") != den:  # alpha
            return None
        a, c = mass("a"), mass("c")
        if not (a != 0 if drop_beta else (0 < a < den and 0 < c < den)):
            return None
        # P(C|A) > P(C), that is ac / a > c / den, with a > 0
        return mass("ac") * den > c * a

    return _search(("A", "C"), den,
                   {"implication": Not(And(_A, Not(_C))), "a": _A, "c": _C,
                    "ac": And(_A, _C)}, tests)


def check_disjunction_corollary(denominator: int) -> SearchResult:
    """For a certain disjunction with both disjuncts uncertain, each
    disjunct is negatively relevant to the other: P(B|A) < P(B), and
    symmetrically P(A|B) < P(A). When additionally P(A and B) = 0, the
    negative relevance is extreme: P(B|A) = 0."""
    den = denominator

    def tests(mass: Callable[[str], int]) -> Optional[bool]:
        if mass("disjunction") != den:
            return None
        a, b = mass("a"), mass("b")
        if not (0 < a < den and 0 < b < den):
            return None
        # P(B|A) < P(B) and P(A|B) < P(A) both read both * den < a * b.
        # P(B|A) = both / a is zero exactly when P(A and B) is, so the
        # extreme case needs no test of its own.
        return mass("both") * den < a * b

    return _search(("A", "B"), den, {"disjunction": Or(_A, _B), "a": _A, "b": _B,
                                     "both": And(_A, _B)}, tests)


def check_explosion_irrelevance(d: RationalDist, *events: Formula,
                                contradiction_atom: str = "A") -> bool:
    """A contradiction is probabilistically irrelevant to anything:
    P((A and not A) and B) equals P(A and not A) * P(B), both sides zero,
    for each event B of `events`. The contradiction, its mask and its mass
    are found once per call; the mask of (A and not A) and B is the two
    masks' intersection."""
    a = AtomNode(Atom(contradiction_atom))
    contradiction = truth_mask(And(a, Not(a)), d.atoms)
    p_contradiction = _mass(d, contradiction)
    for b in events:
        event = truth_mask(b, d.atoms)
        if _mass(d, contradiction & event) != p_contradiction * _mass(d, event):
            return False
    return True


_CONTRADICTION = And(_A, Not(_A))
_EXPLOSION_EVENTS = (_B, Not(_B), _A, And(_A, _B), Or(_A, _B))


def explosion_on_grid(denominator: int) -> SearchResult:
    """Explosion irrelevance, as `check_explosion_irrelevance` finds it with
    the contradiction on A, for each of B, not B, A, A and B, A or B at
    every point of the grid over {A, B}, one test per point. In counts,
    P(contradiction and e) = P(contradiction) * P(e) reads
    both * den == contradiction * e. The contradiction's mask is empty, so
    both sides are zero, no point violates it and every point is checked."""
    den = denominator
    events = {"contradiction": _CONTRADICTION}
    pairs = []
    for i, e in enumerate(_EXPLOSION_EVENTS):
        events[f"e{i}"], events[f"both{i}"] = e, And(_CONTRADICTION, e)
        pairs.append((f"both{i}", f"e{i}"))

    def tests(mass: Callable[[str], int]) -> bool:
        c = mass("contradiction")
        return all(mass(both) * den == c * mass(e) for both, e in pairs)

    return _search(("A", "B"), den, events, tests)


class LikelihoodPair(Record):
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
    equality.

    The search walks `_ordering_points(denominator)`, which meet every
    premise by construction, so `checked` counts them all."""
    conj, disj, not_h = And(_A, _B), Or(_A, _B), Not(_H)
    events: dict[str, Formula] = {}
    for side, suffix in ((_H, "_h"), (not_h, "_nh")):
        for name, e in (("a", _A), ("b", _B), ("ab", conj), ("or", disj)):
            events[name + suffix] = And(e, side)

    def tests(mass: Callable[[str], int]) -> bool:
        # The likelihood pair of e is (e_h / h, e_nh / nh). Comparing two
        # pairs by cross-multiplication, the positive h * nh cancels, so the
        # pair of counts (e_h, e_nh) compares the same way.
        a_h, a_nh, b_h, b_nh = mass("a_h"), mass("a_nh"), mass("b_h"), mass("b_nh")
        s_h, s_nh = (b_h, b_nh) if a_h * b_nh < b_h * a_nh else (a_h, a_nh)
        return (mass("or_h") * s_nh < s_h * mass("or_nh")  # llr(A or B) < strongest
                and s_h * mass("ab_nh") < mass("ab_h") * s_nh)  # strongest < llr(A and B)

    return _search(("A", "B", "H"), denominator, events, tests, _ordering_points)


def _independent_halves(total: int) -> list[tuple[int, ...]]:
    """The 2x2 tables (n_AB, n_A-notB, n_notA-B, n_notA-notB) of `total`
    counts, in descending lexicographic order, in which A and B are
    independent. With a = n_AB + n_A-notB and b = n_AB + n_notA-B,
    independence n_AB * total == a * b expands to
    n_AB * n_notA-notB == n_A-notB * n_notA-B."""
    return [t for t in _compositions(total, 4) if t[0] * t[3] == t[1] * t[2]]


def _ordering_points(denominator: int) -> list[tuple[int, ...]]:
    """The points of the grid over (A, B, H) that meet the premises of
    `check_relevance_ordering`, in grid order. World i makes H true exactly
    when i is even, so a point interleaves its H half, the table of
    `_independent_halves(h)`, with its not-H half, a table of
    `_independent_halves(den - h)`, for 0 < h < den. A pair of halves is
    kept when A and B are each positively relevant to H,
    a_h / h > a_nh / nh, and some of A and B lies in not-H, n_AB-notH > 0.
    Sorting the points in descending lexicographic order puts them in the
    order of `_compositions`."""
    den = denominator
    halves = [_independent_halves(total) for total in range(den)]
    points = []
    for h in range(1, den):
        nh = den - h
        for x, y, z, w in halves[h]:
            a_h, b_h = x + y, x + z
            for xn, yn, zn, wn in halves[nh]:
                if xn and a_h * nh > (xn + yn) * h and b_h * nh > (xn + zn) * h:
                    points.append((x, xn, y, yn, z, zn, w, wn))
    points.sort(reverse=True)
    return points
