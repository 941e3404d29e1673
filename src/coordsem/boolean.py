"""Classical truth-table semantics: evaluation, equivalence with
counterexample extraction, law checking under connective substitution, and
the meet/join duality transform, over one truth-table kernel, `_evaluate`,
which `implicature.project` reads too.

World order, shared by every module that searches truth assignments and
defined only by the atom masks `_ATOM_MASKS`: lexicographic over the names
with True before False, so world 0 is the all-true world. `truth_mask` sets
bit i for world i, `world(names, i)`, and `assignments(names)` yields the
worlds in order. The first witness in this order (the lowest set bit) is
the one reported.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence

from ._record import Record
from .errors import AtomLimitError, MissingAtomError, UnsupportedConnectiveError
from .formula import (
    JOIN,
    MEET,
    And,
    Atom,
    AtomNode,
    Formula,
    LawSchema,
    Not,
    Or,
    atom_names,
    instantiate,
    parse,
)

Assignment = Mapping[str, bool]

ATOM_LIMIT = 12  # beyond this, exhaustive evaluation is refused

# _ATOM_MASKS[n][j]: the worlds over n names where name j is true, that is
# runs of 2^(n-1-j) set bits alternating with as many clear bits.
_ATOM_MASKS = tuple(
    tuple(((1 << 2 ** n) - 1) // ((1 << 2 ** (n - j)) - 1) * ((1 << 2 ** (n - 1 - j)) - 1)
          for j in range(n))
    for n in range(ATOM_LIMIT + 1))


def eval_formula(f: Formula, v: Assignment) -> bool:
    """Classical evaluation; Xor is exclusive disjunction."""
    if isinstance(f, AtomNode):
        try:
            return v[f.atom.name]
        except KeyError:
            raise MissingAtomError(f"assignment lacks atom {f.atom.name!r}") from None
    if isinstance(f, Not):
        return not eval_formula(f.child, v)
    if isinstance(f, And):
        return eval_formula(f.left, v) and eval_formula(f.right, v)
    if isinstance(f, Or):
        return eval_formula(f.left, v) or eval_formula(f.right, v)
    return eval_formula(f.left, v) != eval_formula(f.right, v)


def assignments(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """All assignments over names in the world order: `world(names, i)` for
    i = 0, 1, ..., all-true first."""
    masks = _name_masks(names).items()
    for i in range(1 << len(names)):
        yield {name: bool(m >> i & 1) for name, m in masks}


def _name_masks(names: Sequence[str]) -> dict[str, int]:
    """Each name's truth mask over names; more than ATOM_LIMIT are refused."""
    if len(names) > ATOM_LIMIT:
        raise AtomLimitError(
            f"{len(names)} atoms exceed the exhaustive-evaluation limit {ATOM_LIMIT}")
    return dict(zip(names, _ATOM_MASKS[len(names)]))


def _evaluate(node: Formula, atom: Mapping[str, int], universe: int,
              operands: list[tuple[int, int]]) -> int:
    """The truth mask of node, bottom-up, given each atom's mask and the
    mask of all worlds, appending the masks of each or-node's two operands
    to `operands` in pre-order. An atom missing from `atom` raises KeyError."""
    kind = type(node)
    if kind is AtomNode:
        return atom[node.atom.name]
    if kind is Not:
        return universe ^ _evaluate(node.child, atom, universe, operands)
    if kind is Or:
        index = len(operands)  # taken on entry: the pre-order index
        operands.append((0, 0))
        left = _evaluate(node.left, atom, universe, operands)
        right = _evaluate(node.right, atom, universe, operands)
        operands[index] = left, right
        return left | right
    if kind is And:
        return _evaluate(node.left, atom, universe, operands) & \
            _evaluate(node.right, atom, universe, operands)
    return _evaluate(node.left, atom, universe, operands) ^ \
        _evaluate(node.right, atom, universe, operands)


def truth_mask(f: Formula, names: Sequence[str]) -> int:
    """The truth table of f over names as a bitset: bit i is set iff f holds
    in the i-th of `assignments(names)`."""
    masks = _name_masks(names)
    try:
        return _evaluate(f, masks, (1 << 2 ** len(names)) - 1, [])
    except KeyError as missing:
        raise MissingAtomError(
            f"atom {missing.args[0]!r} is not among {list(names)}") from None


def world(names: Sequence[str], i: int) -> dict[str, bool]:
    """The i-th of `assignments(names)`, read off bit i of the atom masks."""
    return {name: bool(m >> i & 1) for name, m in zip(names, _ATOM_MASKS[len(names)])}


class Verdict(Enum):
    VALID = "valid"
    INVALID = "invalid"


class LawVerdict(Record):
    status: Verdict
    counterexample: Optional[dict[str, bool]] = None
    binding: Optional[dict[str, str]] = None  # metavariable -> atom name

    @property
    def valid(self) -> bool:
        return self.status is Verdict.VALID


def equivalent(f: Formula, g: Formula) -> LawVerdict:
    """Valid iff f and g agree on every assignment over their combined
    atoms; otherwise carries the first witnessing assignment."""
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    differ = truth_mask(f, names) ^ truth_mask(g, names)
    if not differ:
        return LawVerdict(Verdict.VALID)
    first = (differ & -differ).bit_length() - 1
    return LawVerdict(Verdict.INVALID, counterexample=world(names, first))


def check_law(schema: LawSchema) -> LawVerdict:
    """Instantiate the schema's metavariables with distinct fresh atoms and
    test the two sides for truth-table equivalence. By functional
    completeness over fresh atoms this decides schematic validity."""
    binding = {name: AtomNode(Atom(name)) for name in sorted(schema.metavariables)}
    lhs, rhs = instantiate(schema, binding)
    verdict = equivalent(lhs, rhs)
    if verdict.valid:
        return verdict
    return LawVerdict(Verdict.INVALID, counterexample=verdict.counterexample,
                      binding={name: name for name in binding})


def dual(schema: LawSchema) -> LawSchema:
    """Swap meet and join, that is `and` and `or`, in both templates.
    Undefined when the schema maps a connective to xor."""
    targets = {dst for _, dst in schema.connective_map}
    if "xor" in targets:
        raise UnsupportedConnectiveError("duality is undefined for xor substitutions")
    swapped = LawSchema(schema.name, schema.lhs, schema.rhs, ((MEET, "or"), (JOIN, "and")))
    lhs, rhs = instantiate(swapped, {name: AtomNode(Atom(name)) for name in schema.metavariables})
    return LawSchema(f"dual({schema.name})", lhs, rhs, schema.connective_map)


def _odd_worlds(n: int) -> int:
    """The worlds over n names with an odd number of true atoms, as a mask in
    the world order, built by Thue-Morse doubling from the world indices
    alone, with neither the atom masks nor `truth_mask`. World 0 makes all n
    names true. For i < 2^k < 2^n, worlds i and i + 2^k differ in the one
    name that bit k of the index decides, so their parities differ: the
    first 2^(k+1) worlds are the first 2^k followed by their complement."""
    mask, width = n & 1, 1
    for _ in range(n):
        mask |= (mask ^ ((1 << width) - 1)) << width
        width <<= 1
    return mask


def xor_parity(n: int) -> bool:
    """True iff the right-associated n-fold xor chain over distinct atoms is
    true exactly on the assignments with an odd number of true atoms.

    The chain's side is its `truth_mask`. The reference side, `_odd_worlds`,
    doubles the parity mask of world 0 n times, flipping each copy, so it
    shares no step with the kernel, which XORs the atom masks."""
    if not 1 <= n <= ATOM_LIMIT:
        raise AtomLimitError(f"n must be in 1..{ATOM_LIMIT}, got {n}")
    names = [f"P{i}" for i in range(1, n + 1)]
    chain = parse(" xor ".join(names))  # xor associates to the right
    return truth_mask(chain, names) == _odd_worlds(n)
