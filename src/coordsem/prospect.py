"""Formal-vector sentence denotations.

A sentence denotes a nonnegative-integer vector over its atoms (a
"prospect"): an atom is a unit vector, `and` is vector addition, and each
`or` node picks its left or right branch according to a {0,1} coefficient
attached to that node. Ranging over all coefficient assignments yields the
sentence's option set. Because every `or` node has its own coefficient, the
option set is built from the parts in one pass over the tree: an atom has
one option, `and` takes every pairwise sum of its children's options and
`or` the union of its branches'. Options are ordered by the index, in the
canonical enumeration of coefficient assignments (all-ones first), of the
first assignment that yields them. Diagnostics on the option set reproduce
acceptability judgments: an option giving a stative atom a coefficient >= 2
is a double image ("A and A"); an `or` whose branches denote identically
offers no real alternative (Hobson's choice, "A or A"), found by the same
pass. Before the pass, the formula's one structural walk (`formula._walk`)
counts its or-nodes, collects its atoms and finds an unsupported connective.
Two option sets are compared through one hash set per side, with each
prospect hashed into its side's set once, so the comparison is linear in the
sets' sizes. The pass and `Prospect.add` build their prospects unchecked,
since their parts are valid by construction; `Prospect(...)` and
`Prospect.from_dict` check every part.

Negation and xor have no vector denotation here and raise
UnsupportedConnectiveError.
"""

from __future__ import annotations

from enum import Enum
from itertools import count, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional

from ._record import Record, _set
from .errors import SizeLimitError, UnsupportedConnectiveError, WorkbenchError
from .formula import And, Atom, AtomNode, Formula, Not, STATIVE, _walk, or_nodes

COEFF_LIMIT = 16  # at most 16 or-nodes, so 2^16 coefficient assignments

CoefficientAssignment = Mapping[int, int]  # or-node number -> 0 or 1
Parts = tuple[tuple[str, int], ...]  # a prospect's sorted (name, coeff) pairs


def _merge(a: Parts, b: Parts) -> Parts:
    """Vector sum of two sorted, nonempty parts tuples. A pair present on one
    side only is reused, not rebuilt; when every name of one side precedes
    every name of the other, the sum is the two tuples joined."""
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        name_a, name_b = a[i][0], b[j][0]
        if name_a < name_b:
            out.append(a[i])
            i += 1
        elif name_b < name_a:
            out.append(b[j])
            j += 1
        else:
            out.append((name_a, a[i][1] + b[j][1]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class Prospect(Record):
    """Immutable vector over atom names; entries are positive integers
    (absent means zero). Never the null vector. Its parts pair a str name
    with an int coefficient (not a bool) and name each atom once, in
    increasing order."""

    parts: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if not parts:
            raise ValueError("the null vector is not a sentence denotation")
        if any(type(name) is not str or type(coeff) is not int for name, coeff in parts):
            raise ValueError("prospect parts must pair a str name with an int coefficient")
        if any(coeff <= 0 for _, coeff in parts):
            raise ValueError("prospect coefficients must be positive")
        if any(a >= b for (a, _), (b, _) in zip(parts, parts[1:])):
            raise ValueError("prospect parts must be sorted by atom name, each name once")

    @classmethod
    def from_dict(cls, coeffs: Mapping[str, int]) -> "Prospect":
        return cls(tuple(sorted((k, v) for k, v in coeffs.items() if v)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.parts)

    def add(self, other: "Prospect") -> "Prospect":
        return _unchecked(_merge(self.parts, other.parts))

    def __str__(self) -> str:
        return " + ".join(name for name, coeff in self.parts for _ in range(coeff))

    def serialize(self) -> list[list[object]]:
        return [[name, coeff] for name, coeff in self.parts]


_new = object.__new__


def _unchecked(parts: Parts) -> Prospect:
    """The prospect of parts that are valid by construction (nonempty,
    positive, names strictly increasing), such as `_merge` makes from valid
    parts: binds `parts` as the generated `__init__` does, without
    `__post_init__`."""
    p = _new(Prospect)
    _set(p, "parts", parts)
    return p


class OptionSet(Record):
    """The prospects of a formula, one per coefficient assignment, with
    duplicates collapsed. Equality and hashing are set-level; iteration
    follows first appearance in the canonical coefficient enumeration
    (all-ones first): each prospect's key is the index of the first
    assignment that yields it, and the prospects come in key order."""

    prospects: tuple[Prospect, ...]

    def __contains__(self, p: Prospect) -> bool:
        return p in self.prospects

    def __iter__(self) -> Iterator[Prospect]:
        return iter(self.prospects)

    def __len__(self) -> int:
        return len(self.prospects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OptionSet):
            return NotImplemented
        return frozenset(self.prospects) == frozenset(other.prospects)

    def __hash__(self) -> int:
        return hash(frozenset(self.prospects))

    def sorted(self) -> list[Prospect]:
        return sorted(self.prospects, key=lambda p: p.parts)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.sorted()) + "}"

    def serialize(self) -> list[list[list[object]]]:
        return [p.serialize() for p in self.sorted()]


def _denotable(f: Formula) -> tuple[dict[str, Atom], int]:
    """f's atoms and or-count, from `formula._walk`; f's first `not` or `xor`
    in pre-order raises UnsupportedConnectiveError."""
    found, ors, _, refused = _walk(f)
    if refused is not None:
        raise UnsupportedConnectiveError(
            "negation has no vector denotation" if type(refused) is Not
            else "xor has no vector denotation")
    return found, len(ors)


def _within_limit(ors: int) -> int:
    if ors > COEFF_LIMIT:
        raise SizeLimitError(f"{ors} or-nodes exceed the enumeration limit")
    return ors


def denote_one(f: Formula, c: CoefficientAssignment) -> Prospect:
    """The prospect of f under one coefficient assignment: unit vector at
    atoms, vector addition at `and`, branch choice at `or` (1 = left). The
    assignment is keyed by or-node number and must cover every or-node; the
    first one missing in textual order is reported."""
    for n in range(_denotable(f)[1]):
        if n not in c:
            raise WorkbenchError(f"coefficient assignment lacks or-node {n}")
        if c[n] not in (0, 1):
            raise WorkbenchError(f"coefficient must be 0 or 1, got {c[n]!r}")
    return _denoted(f, c, count())


def _denoted(node: Formula, c: CoefficientAssignment, number: Iterator[int]) -> Prospect:
    """`denote_one` of node, whose or-nodes take their numbers from `number`."""
    if isinstance(node, AtomNode):
        return Prospect(((node.atom.name, 1),))
    left = _denoted(node.left, c, number)
    if isinstance(node, And):
        return left.add(_denoted(node.right, c, number))
    choice = c[next(number)]
    right = _denoted(node.right, c, number)
    return left if choice == 1 else right


def coefficient_assignments(f: Formula) -> Iterator[dict[int, int]]:
    """All 2^k choices over f's k or-nodes, keyed by number, all-ones first:
    or-node 0 varies slowest."""
    for bits in product([1, 0], repeat=_within_limit(len(or_nodes(f)))):
        yield dict(enumerate(bits))


def denote_options(f: Formula) -> OptionSet:
    """The prospects over all coefficient assignments, built from f's parts."""
    return _option_pass(f)[0]


def _option_pass(f: Formula) -> tuple[OptionSet, tuple[int, ...], dict[str, Atom]]:
    """f's option set, its Hobson nodes' numbers, sorted, and its atoms,
    from one walk before the pass (`_denotable`) and one pass, so `_judged`
    walks f for nothing else.

    The pass numbers each or-node after its left subtree, as `or_nodes`
    does. Assignment i of `coefficient_assignments` sets or-node n to 0
    exactly when bit k-1-n of i is set. A prospect is keyed by the smallest
    i that yields it: an atom's option has key 0, a sum's key is the sum of
    its summands' keys (their or-nodes are disjoint), and a right branch's
    keys grow by its or-node's bit. Where a prospect arises twice it keeps
    the smaller key; sorting by key gives the order of first appearance. An
    or-node is Hobson's choice when its branches' dicts have the same keys
    (not values), compared before the right is merged in. The prospects are
    built unchecked (`_unchecked`): atoms give one positive part, and
    `_merge` keeps parts sorted, positive and each name once."""
    found, ors = _denotable(f)
    k = _within_limit(ors)
    number = count()
    hobsons = []

    def go(node: Formula) -> dict[Parts, int]:
        if isinstance(node, AtomNode):
            return {((node.atom.name, 1),): 0}
        left = go(node.left)
        if isinstance(node, And):
            out: dict[Parts, int] = {}
            seen = out.get
            right = go(node.right)
            for x, kx in left.items():
                for y, ky in right.items():
                    parts, key = _merge(x, y), kx + ky
                    old = seen(parts)
                    if old is None or key < old:
                        out[parts] = key
            return out
        n = next(number)
        right = go(node.right)
        if left.keys() == right.keys():
            hobsons.append(n)
        w = 1 << (k - 1 - n)
        seen = left.get
        for y, ky in right.items():
            key = ky + w
            old = seen(y)
            if old is None or key < old:
                left[y] = key
        return left

    keyed = sorted(go(f).items(), key=itemgetter(1))
    options = OptionSet(tuple([_unchecked(parts) for parts, _ in keyed]))
    return options, tuple(sorted(hobsons)), found


class OptionComparison(Record):
    equal: bool
    witness: Optional[Prospect] = None  # a prospect in the symmetric difference

    def __bool__(self) -> bool:
        return self.equal


def option_equivalent(f: Formula, g: Formula) -> OptionComparison:
    """Set equality of the two option sets. On inequality the witness is the
    first prospect of g (in canonical coefficient order) missing from f's
    options, else the first of f missing from g's. Time is linear in the
    two sets' sizes."""
    return _compare_options(denote_options(f), denote_options(g))


def _compare_options(fo: OptionSet, go_: OptionSet) -> OptionComparison:
    """`option_equivalent` on the two formulas' option sets. Each side's
    prospects go into one hash set, so each is hashed once to decide
    equality, and the witness search looks each prospect up once."""
    f_set, g_set = set(fo.prospects), set(go_.prospects)
    if f_set == g_set:
        return OptionComparison(True)
    for p in go_:
        if p not in f_set:
            return OptionComparison(False, witness=p)
    for p in fo:
        if p not in g_set:
            return OptionComparison(False, witness=p)
    raise AssertionError("unreachable: unequal sets with empty symmetric difference")


class Category(Enum):
    ACCEPTABLE = "acceptable"
    ODD_HOBSON = "odd_hobson"
    WEIRD_DOUBLE_IMAGE = "weird_double_image"


class Judgment(Record):
    category: Category
    # every (option, atom, coefficient) with a stative atom at coefficient >= 2
    double_images: tuple[tuple[Prospect, str, int], ...] = ()
    # numbers of the or-nodes whose branches denote identical option sets
    hobson_nodes: tuple[int, ...] = ()

    def serialize(self) -> dict[str, object]:
        return {
            "category": self.category.value,
            "double_images": [[p.serialize(), name, coeff]
                              for p, name, coeff in self.double_images],
            "hobson_nodes": list(self.hobson_nodes),
        }


def judge(f: Formula) -> Judgment:
    """Acceptability judgment from the option set. A double image (stative
    atom at coefficient >= 2 in some option) outranks Hobson's choice, which
    outranks plain acceptability; one pass finds the options and Hobson nodes."""
    return _judged(f)[1]


def _judged(f: Formula) -> tuple[OptionSet, Judgment]:
    """f's option set and judgment, from one option pass. The options are
    sorted for the double images only when there is one."""
    options, hobsons, found = _option_pass(f)
    doubles: tuple[tuple[Prospect, str, int], ...] = ()
    if next(_double_images(options, found), None):
        doubles = tuple(_double_images(options.sorted(), found))
    if doubles:
        category = Category.WEIRD_DOUBLE_IMAGE
    elif hobsons:
        category = Category.ODD_HOBSON
    else:
        category = Category.ACCEPTABLE
    return options, Judgment(category, doubles, hobsons)


def _double_images(prospects: Iterable[Prospect],
                   found: Mapping[str, Atom]) -> Iterator[tuple[Prospect, str, int]]:
    """Each (option, atom, coefficient) with a stative atom at coefficient >= 2,
    the atoms keyed by name as `atoms` gives them."""
    return ((p, name, coeff) for p in prospects for name, coeff in p.parts
            if coeff >= 2 and found[name].aspect == STATIVE)
