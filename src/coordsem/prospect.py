"""Formal-vector sentence denotations.

A sentence denotes a nonnegative-integer vector over its atoms (a
"prospect"): an atom is a unit vector, `and` is vector addition, and each
`or` node picks its left or right branch according to a {0,1} coefficient
attached to that node. Ranging over all coefficient assignments yields the
sentence's option set. Because every `or` node has its own coefficient, the
option set is built from the parts in one pass over the tree: an atom has one
option, `and` takes every pairwise sum of its children's options and `or` the
union of its branches'. Options are ordered by the index, in the canonical
enumeration of coefficient assignments (all-ones first), of the first
assignment that yields them. Diagnostics on the option set reproduce
acceptability judgments: an option giving a stative atom a coefficient >= 2
is a double image ("A and A"); an `or` whose branches denote identically
offers no real alternative (Hobson's choice, "A or A").

Negation and xor have no vector denotation here and raise
UnsupportedConnectiveError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .errors import SizeLimitError, UnsupportedConnectiveError, WorkbenchError
from .formula import (
    And,
    AtomNode,
    Formula,
    Not,
    Or,
    STATIVE,
    Xor,
    atoms,
    or_nodes,
)

COEFF_LIMIT = 16  # at most 16 or-nodes, so 2^16 coefficient assignments

CoefficientAssignment = Mapping[int, int]  # coeff_id -> 0 or 1
Parts = tuple[tuple[str, int], ...]  # a prospect's sorted (name, coeff) pairs


def _merge(a: Parts, b: Parts) -> Parts:
    """Vector sum of two sorted parts tuples. A pair present on one side
    only is reused, not rebuilt."""
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


@dataclass(frozen=True)
class Prospect:
    """Immutable vector over atom names; entries are positive integers
    (absent means zero). Never the null vector."""

    parts: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("the null vector is not a sentence denotation")
        if any(coeff <= 0 for _, coeff in self.parts):
            raise ValueError("prospect coefficients must be positive")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("prospect parts must be sorted by atom name")

    @classmethod
    def from_dict(cls, coeffs: Mapping[str, int]) -> "Prospect":
        return cls(tuple(sorted((k, v) for k, v in coeffs.items() if v)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.parts)

    def add(self, other: "Prospect") -> "Prospect":
        return Prospect(_merge(self.parts, other.parts))

    def __str__(self) -> str:
        return " + ".join(name for name, coeff in self.parts for _ in range(coeff))

    def serialize(self) -> list[list[object]]:
        return [[name, coeff] for name, coeff in self.parts]


@dataclass(frozen=True)
class OptionSet:
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


def _check_denotable(f: Formula) -> None:
    if isinstance(f, Not):
        raise UnsupportedConnectiveError("negation has no vector denotation")
    if isinstance(f, Xor):
        raise UnsupportedConnectiveError("xor has no vector denotation")
    if isinstance(f, (And, Or)):
        _check_denotable(f.left)
        _check_denotable(f.right)


def denote_one(f: Formula, c: CoefficientAssignment) -> Prospect:
    """The prospect of f under one coefficient assignment: unit vector at
    atoms, vector addition at `and`, branch choice at `or` (1 = left)."""
    _check_denotable(f)

    def go(node: Formula) -> Prospect:
        if isinstance(node, AtomNode):
            return Prospect(((node.atom.name, 1),))
        if isinstance(node, And):
            return go(node.left).add(go(node.right))
        assert isinstance(node, Or)
        try:
            choice = c[node.coeff_id]
        except KeyError:
            raise WorkbenchError(
                f"coefficient assignment lacks or-node {node.coeff_id}") from None
        if choice not in (0, 1):
            raise WorkbenchError(f"coefficient must be 0 or 1, got {choice!r}")
        return go(node.left) if choice == 1 else go(node.right)

    return go(f)


def _coeff_ids(f: Formula) -> list[int]:
    """f's or-node ids, sorted. Each Or node needs its own coeff_id: a shared
    one would tie the nodes' choices together."""
    ids = [node.coeff_id for _, node in or_nodes(f)]
    for prev, cur in zip(ids, ids[1:]):  # or_nodes sorts by coeff_id
        if prev == cur:
            raise WorkbenchError(f"coefficient id {cur} is shared by more than one or-node")
    if len(ids) > COEFF_LIMIT:
        raise SizeLimitError(f"{len(ids)} or-nodes exceed the enumeration limit")
    return ids


def coefficient_assignments(f: Formula) -> Iterator[dict[int, int]]:
    """All 2^k choices over f's Or nodes, all-ones first: the first id in
    sorted order varies slowest."""
    ids = _coeff_ids(f)
    for bits in product([1, 0], repeat=len(ids)):
        yield dict(zip(ids, bits))


def denote_options(f: Formula) -> OptionSet:
    """The set of prospects over all coefficient assignments, built from the
    parts of f without enumerating the assignments.

    Assignment i of `coefficient_assignments` sets the or-node of rank r
    among the sorted ids to 0 exactly when bit k-1-r of i is set. A prospect
    is keyed by the smallest i that yields it: an atom's option has key 0, a
    sum's key is the sum of its summands' keys (their or-nodes are disjoint),
    and a right branch's keys grow by its or-node's bit. Where a prospect
    arises twice it keeps the smaller key; sorting by key gives the order of
    first appearance."""
    _check_denotable(f)
    ids = _coeff_ids(f)
    bit = {cid: 1 << (len(ids) - 1 - rank) for rank, cid in enumerate(ids)}

    def go(node: Formula) -> dict[Parts, int]:
        if isinstance(node, AtomNode):
            return {((node.atom.name, 1),): 0}
        left, right = go(node.left), go(node.right)
        if isinstance(node, And):
            out: dict[Parts, int] = {}
            for x, kx in left.items():
                for y, ky in right.items():
                    _keep_first(out, _merge(x, y), kx + ky)
            return out
        assert isinstance(node, Or)
        w = bit[node.coeff_id]
        for y, ky in right.items():
            _keep_first(left, y, ky + w)
        return left

    keyed = sorted(go(f).items(), key=itemgetter(1))
    return OptionSet(tuple(Prospect(parts) for parts, _ in keyed))


def _keep_first(options: dict[Parts, int], parts: Parts, key: int) -> None:
    """Record `key` for `parts` unless an earlier assignment yields it too."""
    old = options.get(parts)
    if old is None or key < old:
        options[parts] = key


@dataclass(frozen=True)
class OptionComparison:
    equal: bool
    witness: Optional[Prospect] = None  # a prospect in the symmetric difference

    def __bool__(self) -> bool:
        return self.equal


def option_equivalent(f: Formula, g: Formula) -> OptionComparison:
    """Set equality of the two option sets. On inequality the witness is the
    first prospect of g (in canonical coefficient order) missing from f's
    options, else the first of f missing from g's."""
    fo, go_ = denote_options(f), denote_options(g)
    if fo == go_:
        return OptionComparison(True)
    for p in go_:
        if p not in fo:
            return OptionComparison(False, witness=p)
    for p in fo:
        if p not in go_:
            return OptionComparison(False, witness=p)
    raise AssertionError("unreachable: unequal sets with empty symmetric difference")


class Category(Enum):
    ACCEPTABLE = "acceptable"
    ODD_HOBSON = "odd_hobson"
    WEIRD_DOUBLE_IMAGE = "weird_double_image"


@dataclass(frozen=True)
class Judgment:
    category: Category
    # every (option, atom, coefficient) with a stative atom at coefficient >= 2
    double_images: tuple[tuple[Prospect, str, int], ...] = ()
    # coeff_ids of or-nodes whose branches denote identical option sets
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
    outranks plain acceptability."""
    _check_denotable(f)
    aspect = {name: atom.aspect for name, atom in atoms(f).items()}
    options = denote_options(f)

    doubles = []
    for p in options.sorted():
        for name, coeff in p.parts:
            if coeff >= 2 and aspect[name] == STATIVE:
                doubles.append((p, name, coeff))

    hobsons = []
    for _, node in or_nodes(f):
        if denote_options(node.left) == denote_options(node.right):
            hobsons.append(node.coeff_id)

    if doubles:
        category = Category.WEIRD_DOUBLE_IMAGE
    elif hobsons:
        category = Category.ODD_HOBSON
    else:
        category = Category.ACCEPTABLE
    return Judgment(category, tuple(doubles), tuple(hobsons))
