"""Gricean implicature machinery over a single knowledge operator.

An utterance contributes epistemic constraints of the shapes K(phi) ("the
speaker knows phi") and notK(phi). Assertions yield K of the asserted
content; each disjunction yields ignorance constraints about its disjuncts
(the speaker knows neither to be true nor to be false) and exclusivity
constraints (weak: the speaker does not know both disjuncts hold; strong:
the speaker knows they do not both hold). Projection feeds potential
constraints into the accepted set one at a time, assertions first, and
suppresses any candidate that would make the set unsatisfiable by a belief
model (a nonempty set of worlds: K phi holds iff phi is true at every
world, notK phi iff phi fails somewhere). One rule, `_verdict`, decides
that from the truth masks of the bodies. `project` evaluates the formula
once, keeping every subformula's mask, and reads each constraint's mask off
those, so no candidate computes a truth table. It keeps the accepted set as
one running state, the K-worlds and the notK masks, so each candidate is
decided by a few bit operations; a suppressed candidate's clash set is
shrunk on the masks of its failed test with prefix ANDs and a running
state, building no trial list. `consistent` also builds the least belief
model from the rule's answer, greedily, for callers that want the witness,
so the only atom limit is `boolean.ATOM_LIMIT`.

Strong exclusivity is a defeasible default in `gazdar` mode; in `soames`
mode it is emitted only for or-nodes the caller declares the speaker
opinionated about.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Iterable, Optional, Sequence

from ._record import Record
from .boolean import ATOM_LIMIT, _name_masks, truth_mask, world
from .errors import WorkbenchError
from .formula import (And, AtomNode, Formula, Not, Or, atom_names, or_nodes, subformulas,
                      unparse)

EPISTEMIC_ATOM_LIMIT = ATOM_LIMIT  # read by benchmarks/; ROADMAP item 1 drops it


class Polarity(Enum):
    K = "K"
    NOT_K = "notK"


class Provenance(Enum):
    ASSERTION = "assertion"
    CLAUSAL = "clausal"
    SCALAR_WEAK = "scalar_weak"
    SCALAR_STRONG = "scalar_strong"


class Mode(Enum):
    GAZDAR = "gazdar"
    SOAMES = "soames"


def _mode(mode: Mode | str) -> Mode:
    """`mode` as a `Mode`; its value names it too, as in `project(f, "soames")`."""
    try:
        return Mode(mode)
    except ValueError:
        raise WorkbenchError(f"unknown projection mode {mode!r}; the modes are "
                             + ", ".join(m.value for m in Mode)) from None


class EpistemicConstraint(Record):
    """polarity(body), tagged with how it arose and the path of the
    subformula (for clausal/scalar: the generating or-node) it came from."""

    polarity: Polarity
    body: Formula
    provenance: Provenance
    source: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.polarity.value}({unparse(self.body)})"

    def serialize(self) -> dict[str, object]:
        return {
            "polarity": self.polarity.value,
            "body": unparse(self.body),
            "provenance": self.provenance.value,
            "source": list(self.source),
        }


BeliefModel = tuple[dict[str, bool], ...]  # nonempty, worlds in boolean's world order


def assertions(f: Formula) -> list[EpistemicConstraint]:
    """K of the asserted content. For a top-level And the conjuncts are
    asserted too; they are emitted first, the whole sentence last."""
    out = []
    if isinstance(f, And):
        out.append(EpistemicConstraint(Polarity.K, f.left, Provenance.ASSERTION, (0,)))
        out.append(EpistemicConstraint(Polarity.K, f.right, Provenance.ASSERTION, (1,)))
    out.append(EpistemicConstraint(Polarity.K, f, Provenance.ASSERTION, ()))
    return out


def _ordered_or_paths(f: Formula) -> list[tuple[tuple[int, ...], Or]]:
    """f's or-nodes with their paths, in path order: pre-order is path order."""
    return [(p, n) for p, n in subformulas(f) if isinstance(n, Or)]


def potential_clausal(f: Formula) -> list[EpistemicConstraint]:
    """Ignorance constraints: for each disjunct psi of each or-node,
    notK(psi) and notK(not psi). Duplicates collapse within a node (an
    or-node with identical disjuncts contributes one pair); distinct nodes
    keep distinct entries."""
    out = []
    for path, node in _ordered_or_paths(f):
        bodies: list[Formula] = []
        for disjunct in (node.left, node.right):
            for body in (disjunct, Not(disjunct)):
                if body not in bodies:
                    bodies.append(body)
        out.extend(EpistemicConstraint(Polarity.NOT_K, body, Provenance.CLAUSAL, path)
                   for body in bodies)
    return out


def potential_scalar(
    f: Formula,
    mode: Mode | str = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> list[EpistemicConstraint]:
    """Exclusivity constraints per or-node over disjuncts psi, chi. The weak
    form notK(psi and chi) is always emitted; the strong form
    K(not (psi and chi)) by default in gazdar mode, and in soames mode only
    for or-nodes listed as opinionated by number (see `formula.or_nodes`).
    Each entry has its own node's path, and a node's two entries differ in
    polarity, so none repeat. `mode` may be a `Mode` or its value; any
    other raises `WorkbenchError`, as does an opinionated id outside soames
    mode or one that numbers none of f's or-nodes."""
    mode = _mode(mode)
    strong = set()
    if opinionated:
        numbered = or_nodes(f)
        ids = range(len(numbered))
        for n in opinionated:
            if mode is not Mode.SOAMES:
                raise WorkbenchError(f"opinionated or-node ids apply to soames mode only, "
                                     f"got {n!r} in {mode.value} mode")
            if n not in ids:
                raise WorkbenchError(f"no or-node {n!r}: the or-node ids of {unparse(f)!r} "
                                     f"are {list(ids) or 'none'}")
        strong = {path for n, (path, _) in enumerate(numbered) if n in opinionated}
    out = []
    for path, node in _ordered_or_paths(f):
        both = And(node.left, node.right)
        out.append(EpistemicConstraint(
            Polarity.NOT_K, both, Provenance.SCALAR_WEAK, path))
        if mode is Mode.GAZDAR or path in strong:
            out.append(EpistemicConstraint(
                Polarity.K, Not(both), Provenance.SCALAR_STRONG, path))
    return out


def _masks(constraints: Iterable[EpistemicConstraint],
           names: Sequence[str]) -> list[tuple[bool, int]]:
    """Each constraint as (is it K, its body's truth mask over `names`),
    which must include every atom of the bodies."""
    return [(c.polarity is Polarity.K, truth_mask(c.body, names)) for c in constraints]


def _pass_masks(f: Formula, constraints: Iterable[EpistemicConstraint]
                ) -> tuple[int, list[tuple[bool, int]]]:
    """The universe over f's atoms and the `_masks` of `constraints` over
    them, from one bottom-up evaluation of f that keeps every subformula's
    mask. Each body must be, as `assertions`, `potential_clausal` and
    `potential_scalar` build them, a subformula of f or `not psi`,
    `psi and chi` or `not (psi and chi)` over subformulas psi, chi of f.
    A subformula gives its kept mask m, `not` gives U ^ m for the universe
    U, and `and` the AND of its operands' masks. More than ATOM_LIMIT atoms
    are refused, as `truth_mask` refuses them, before the universe."""
    names = atom_names(f)
    atom = _name_masks(names)
    universe = (1 << 2 ** len(names)) - 1
    by_id: dict[int, int] = {}  # f holds every node, so no id is reused

    def go(node: Formula) -> int:
        kind = type(node)
        if kind is AtomNode:
            m = atom[node.atom.name]
        elif kind is Not:
            m = universe ^ go(node.child)
        elif kind is And:
            m = go(node.left) & go(node.right)
        elif kind is Or:
            m = go(node.left) | go(node.right)
        else:
            m = go(node.left) ^ go(node.right)
        by_id[id(node)] = m
        return m

    def body_mask(body: Formula) -> int:
        m = by_id.get(id(body))
        if m is not None:
            return m
        if type(body) is Not:
            return universe ^ body_mask(body.child)
        return body_mask(body.left) & body_mask(body.right)

    go(f)
    return universe, [(c.polarity is Polarity.K, body_mask(c.body)) for c in constraints]


def _verdict(masks: Sequence[tuple[bool, int]], universe: int) -> Optional[tuple[int, list[int]]]:
    """The verdict rule, over `_masks` and the mask of all worlds. The
    K-worlds are the worlds where every K body holds, and a notK body's need
    is the K-worlds where it fails. The set is satisfiable iff some K-world
    exists and every need is nonempty; then every K-world together is a
    model. Returns the K-worlds and the needs, or None if the set is
    unsatisfiable. No belief model is built."""
    k_mask = universe
    for known, m in masks:
        if known:
            k_mask &= m
    if not k_mask:
        return None
    needs = [k_mask & ~m for known, m in masks if not known]
    return (k_mask, needs) if all(needs) else None


def consistent(
    constraints: Iterable[EpistemicConstraint],
) -> tuple[bool, Optional[BeliefModel]]:
    """Satisfiability by a belief model, with the least witness.

    A model is a nonempty set of K-worlds (where every K-body holds), as a
    bitset in the world order of `coordsem.boolean`, that meets every need:
    the K-worlds where one notK body fails. The least model is the one the
    greedy descent finds, dropping each K-world, highest first, while the
    rest is still a model. With all lower worlds present, the descent keeps
    world i iff i is the lowest world of a need that no kept higher world
    meets, so the model is built need by need, by lowest world descending,
    or is the lowest K-world if there are no needs. No smaller model T
    exists: at the highest world i where T and the result differ, the
    result keeps i for some need; T agrees with the result above i, lacks
    i, and the need has no world below i, so T misses that need."""
    constraints = list(constraints)
    names = sorted({a for c in constraints for a in atom_names(c.body)})
    masks = _masks(constraints, names)  # refuses > ATOM_LIMIT names before the universe
    verdict = _verdict(masks, (1 << 2 ** len(names)) - 1)
    if verdict is None:
        return False, None
    k_mask, needs = verdict
    model = 0
    for need in sorted(needs, key=lambda need: need & -need, reverse=True):
        if not model & need:
            model |= need & -need
    model = model or k_mask & -k_mask
    return True, tuple(world(names, i) for i in range(model.bit_length())
                       if model >> i & 1)


class Suppression(Record):
    constraint: EpistemicConstraint
    clashes_with: tuple[EpistemicConstraint, ...]

    def serialize(self) -> dict[str, object]:
        return {
            "constraint": self.constraint.serialize(),
            "clashes_with": [c.serialize() for c in self.clashes_with],
        }


class ImplicatureReport(Record):
    mode: Mode
    accepted: tuple[EpistemicConstraint, ...]
    suppressed: tuple[Suppression, ...]

    def accepted_by(self, provenance: Provenance) -> list[EpistemicConstraint]:
        return [c for c in self.accepted if c.provenance is provenance]

    def suppressed_constraints(self) -> list[EpistemicConstraint]:
        return [s.constraint for s in self.suppressed]

    def serialize(self) -> dict[str, object]:
        return {
            "mode": self.mode.value,
            "accepted": [c.serialize() for c in self.accepted],
            "suppressed": [s.serialize() for s in self.suppressed],
        }


def _minimal_clash_set(masks: Sequence[tuple[bool, int]], universe: int) -> list[int]:
    """Shrink a set that fails `_verdict`, given as its `_masks` with the
    candidate last, to a minimal subset still inconsistent with the
    candidate, dropping later-accepted constraints first so the blame lands
    on the earliest (highest-precedence) partners. Returns the indices of
    the accepted constraints kept, in order.

    The trial for index i is every index below i, the indices above i kept
    so far and the candidate; i is dropped iff that trial fails `_verdict`.
    Its K-worlds are the AND of the K masks below i, read off prefix ANDs,
    and the running AND of the kept K masks above; the trial fails iff that
    is empty or leaves some notK body no world, checking the notK masks
    kept above, then those below. So no trial list is built and no truth
    table computed, and a trial's verdict is the one `consistent` gives it
    over its own atoms, because atoms that no body mentions do not change
    satisfiability."""
    below = [universe]  # below[i]: the K-worlds of the K masks below i
    for known, m in islice(masks, len(masks) - 1):
        below.append(below[-1] & m if known else below[-1])
    above, notk_above = universe, []
    known, m = masks[-1]
    if known:
        above = m
    else:
        notk_above.append(m)
    kept = []
    for i in reversed(range(len(masks) - 1)):
        k = below[i] & above
        if (k and all(k & ~m for m in notk_above)
                and all(k & ~m for known, m in islice(masks, i) if not known)):
            kept.append(i)  # the trial without i is satisfiable, so i stays
            known, m = masks[i]
            if known:
                above &= m
            else:
                notk_above.append(m)
    kept.reverse()
    return kept


def project(
    f: Formula,
    mode: Mode | str = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> ImplicatureReport:
    """Assertion-precedence projection: assertions are accepted outright;
    clausal, then weak-scalar, then strong-scalar candidates are accepted
    one at a time iff the accepted set stays satisfiable, suppressed
    candidates carrying their minimal clash set.

    f is evaluated once, over its own atoms: every tested set contains
    K(f) and every body is built from f's subformulas, so these are the
    atoms `consistent` would collect, and `_pass_masks` reads every
    constraint's mask off that one pass. The accepted set is kept as one
    running state: its K-worlds k and its notK masks. A notK candidate
    with mask m passes iff k & ~m is nonzero; a K candidate iff k & m is
    nonzero and leaves every need, (k & m) & ~n for each notK mask n,
    nonzero. These are `_verdict`'s answers, since the accepted set is
    satisfiable. A failed test hands the accepted masks and the
    candidate's to `_minimal_clash_set`. No belief model is built; call
    `consistent` on the accepted set for the least one. `mode` and
    `opinionated` are read, and refused, as in `potential_scalar`."""
    mode = _mode(mode)
    scalar = potential_scalar(f, mode, opinionated)
    candidates = [
        *potential_clausal(f),
        *(c for c in scalar if c.provenance is Provenance.SCALAR_WEAK),
        *(c for c in scalar if c.provenance is Provenance.SCALAR_STRONG),
    ]
    accepted = assertions(f)
    universe, masks = _pass_masks(f, accepted + candidates)
    accepted_masks = masks[:len(accepted)]  # for the shrink
    verdict = _verdict(accepted_masks, universe)
    if verdict is None:
        raise WorkbenchError("asserted content is epistemically unsatisfiable")
    k, _ = verdict  # the assertions are all K, so there is no need yet
    notk: list[int] = []
    suppressed = []
    for candidate, (known, m) in zip(candidates, masks[len(accepted):]):
        if known:
            tested = k & m
            passes = tested and all(tested & ~n for n in notk)
        else:
            passes = k & ~m
        if passes:
            accepted.append(candidate)
            accepted_masks.append((known, m))
            if known:
                k = tested
            else:
                notk.append(m)
        else:
            clash = _minimal_clash_set([*accepted_masks, (known, m)], universe)
            suppressed.append(Suppression(candidate, tuple(accepted[j] for j in clash)))
    return ImplicatureReport(mode, tuple(accepted), tuple(suppressed))
