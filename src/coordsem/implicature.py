"""Gricean implicature machinery over a single knowledge operator.

An utterance contributes epistemic constraints of the shapes K(phi) ("the
speaker knows phi") and notK(phi). Assertions yield K of the asserted
content; each disjunction yields ignorance constraints about its disjuncts
(the speaker knows neither to be true nor to be false) and exclusivity
constraints (weak: the speaker does not know both disjuncts hold; strong:
the speaker knows they do not both hold). Projection feeds potential
constraints into the accepted set one at a time, assertions first, and
suppresses any candidate that would make the set unsatisfiable by a belief
model (a nonempty set of worlds: K phi holds iff phi is true at every world,
notK phi iff phi fails somewhere). One rule, `_verdict`, decides that from the
truth masks of the bodies. `project` walks the formula once for its atoms and
or-nodes, with the package's one structural walk (`formula._walk`), and
evaluates it once, with the evaluator behind `boolean.truth_mask`, keeping the
masks of each or-node's operands. It builds every candidate together with its
mask from those, so no candidate computes a truth table. It keeps the accepted
set as one running state, the K-worlds and the notK masks, so each candidate
is decided by a few bit operations, and keeps the K-worlds after each
acceptance, so a suppressed candidate's clash set is shrunk on the masks of
its failed test with those prefix ANDs and a running state, building no trial
list. `potential_clausal` and `potential_scalar` read the same walk and build
the same constraints, without masks. `consistent` also builds the least belief
model from the rule's answer, greedily, for callers that want the witness, so
the only atom limit is `boolean.ATOM_LIMIT`.

Strong exclusivity is a defeasible default in `gazdar` mode; in `soames`
mode it is emitted only for or-nodes the caller declares the speaker
opinionated about.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Container, Iterable, Optional, Sequence

from ._record import Record
from .boolean import ATOM_LIMIT, _evaluate, _name_masks, truth_mask, world
from .errors import WorkbenchError
from .formula import And, Formula, Not, Or, _walk, atom_names, unparse

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
    """polarity(body), tagged with how it arose and where from: for a
    clausal or scalar constraint, the number of the or-node that generated
    it (see `formula.or_nodes`); for an assertion, None."""

    polarity: Polarity
    body: Formula
    provenance: Provenance
    source: Optional[int]

    def __str__(self) -> str:
        return f"{self.polarity.value}({unparse(self.body)})"

    def serialize(self) -> dict[str, object]:
        return {
            "polarity": self.polarity.value,
            "body": unparse(self.body),
            "provenance": self.provenance.value,
            "source": self.source,
        }


BeliefModel = tuple[dict[str, bool], ...]  # nonempty, worlds in boolean's world order


def assertions(f: Formula) -> list[EpistemicConstraint]:
    """K of the asserted content. For a top-level And the conjuncts are
    asserted too; they are emitted first, the whole sentence last."""
    out = []
    if isinstance(f, And):
        out.append(EpistemicConstraint(Polarity.K, f.left, Provenance.ASSERTION, None))
        out.append(EpistemicConstraint(Polarity.K, f.right, Provenance.ASSERTION, None))
    out.append(EpistemicConstraint(Polarity.K, f, Provenance.ASSERTION, None))
    return out


def _strong(f: Formula, mode: Mode, opinionated: Sequence[int], ors: int) -> Container[int]:
    """The numbers of f's `ors` or-nodes that get a strong form: all of them
    in gazdar mode, the opinionated ones in soames mode. Refuses an
    opinionated id outside soames mode, one that numbers none of f's
    or-nodes, or one that is not an int (a bool or a float that `range`
    admits), checking the ids in their order."""
    ids = range(ors)
    for n in opinionated:
        if mode is not Mode.SOAMES:
            raise WorkbenchError(f"opinionated or-node ids apply to soames mode only, "
                                 f"got {n!r} in {mode.value} mode")
        if n not in ids:
            raise WorkbenchError(f"no or-node {n!r}: the or-node ids of {unparse(f)!r} "
                                 f"are {list(ids) or 'none'}")
        if type(n) is not int:
            raise WorkbenchError(f"an or-node id must be an int, got {n!r}")
    return ids if mode is Mode.GAZDAR else opinionated


_Candidate = tuple[EpistemicConstraint, bool, int]  # the constraint, is it K, its mask


def _ignorance(number: int, node: Or, left: int, right: int,
               universe: int) -> list[_Candidate]:
    """The clausal candidates of the or-node `node` numbered `number`, given its
    operands' masks: notK of psi and of not psi for each disjunct psi, left
    first, with masks m and U ^ m, each body kept only if no earlier one
    equals it. Callers that want no masks pass zeros."""
    kept: list[_Candidate] = []
    bodies: list[Formula] = []
    for disjunct, m in ((node.left, left), (node.right, right)):
        for body, mask in ((disjunct, m), (Not(disjunct), universe ^ m)):
            if body not in bodies:
                bodies.append(body)
                kept.append((EpistemicConstraint(Polarity.NOT_K, body, Provenance.CLAUSAL,
                                                 number), False, mask))
    return kept


def _exclusivity(number: int, node: Or, both: int, universe: int,
                 strong: bool) -> list[_Candidate]:
    """The weak candidate of the or-node `node` numbered `number`, then its strong
    one if `strong`, given the mask `both` of its operands' AND: notK(psi and
    chi) with mask `both` and K(not (psi and chi)) with U ^ `both`. Callers
    that want no masks pass zeros."""
    conjunction = And(node.left, node.right)
    out = [(EpistemicConstraint(Polarity.NOT_K, conjunction, Provenance.SCALAR_WEAK, number),
            False, both)]
    if strong:
        out.append((EpistemicConstraint(Polarity.K, Not(conjunction),
                                        Provenance.SCALAR_STRONG, number), True, universe ^ both))
    return out


def potential_clausal(f: Formula) -> list[EpistemicConstraint]:
    """Ignorance constraints: for each disjunct psi of each or-node,
    notK(psi) and notK(not psi). Duplicates collapse within a node (an
    or-node with identical disjuncts contributes one pair); distinct nodes
    keep distinct entries. The or-nodes come in pre-order."""
    _, ors, numbers, _ = _walk(f)
    return [c for node, n in zip(ors, numbers) for c, _, _ in _ignorance(n, node, 0, 0, 0)]


def potential_scalar(
    f: Formula,
    mode: Mode | str = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> list[EpistemicConstraint]:
    """Exclusivity constraints per or-node over disjuncts psi, chi. The weak
    form notK(psi and chi) is always emitted; the strong form
    K(not (psi and chi)) by default in gazdar mode, and in soames mode only
    for or-nodes listed as opinionated by number (see `formula.or_nodes`).
    Each entry has its own node's number, and a node's two entries differ in
    polarity, so none repeat. `mode` may be a `Mode` or its value; any
    other raises `WorkbenchError`, as does an opinionated id outside soames
    mode or one that numbers none of f's or-nodes."""
    mode = _mode(mode)
    _, ors, numbers, _ = _walk(f)
    strong = _strong(f, mode, opinionated, len(ors))
    return [c for node, n in zip(ors, numbers)
            for c, _, _ in _exclusivity(n, node, 0, 0, n in strong)]


def _masks(constraints: Iterable[EpistemicConstraint],
           names: Sequence[str]) -> list[tuple[bool, int]]:
    """Each constraint as (is it K, its body's truth mask over `names`),
    which must include every atom of the bodies."""
    return [(c.polarity is Polarity.K, truth_mask(c.body, names)) for c in constraints]


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


def _minimal_clash_set(masks: Sequence[tuple[bool, int]], below: Sequence[int],
                       candidate: tuple[bool, int]) -> list[int]:
    """Shrink an accepted set that fails `_verdict` together with a
    candidate, given as their `_masks`, to a minimal subset still
    inconsistent with the candidate, dropping later-accepted constraints
    first so the blame lands on the earliest (highest-precedence) partners.
    `below[i]` is the AND of the K masks among `masks[:i]`, `below[0]` the
    universe, kept by the caller as the set grew. Returns the indices of
    the accepted constraints kept, in order.

    The trial for index i is every index below i, the indices above i kept
    so far and the candidate; i is dropped iff that trial fails `_verdict`.
    Its K-worlds are `below[i]` ANDed with the running AND of the kept K
    masks above; the trial fails iff that is empty or leaves some notK body
    no world, checking the notK masks kept above, then those below. So no
    trial list is built and no truth table computed, and a trial's verdict
    is the one `consistent` gives it over its own atoms, because atoms that
    no body mentions do not change satisfiability. The last K-worlds that a
    kept notK mask above covered are remembered: `below[i]` changes only at
    K masks, so each index of a run of notK masks then costs a comparison."""
    known, m = candidate
    above, notk_above = (m, []) if known else (below[0], [m])
    covered = 0  # K-worlds that a kept notK mask above leaves no world
    kept = []
    for i in reversed(range(len(masks))):
        k = below[i] & above
        if not k or k == covered:
            continue
        if not all(k & ~m for m in notk_above):
            covered = k  # and stays so: the kept notK masks only grow
            continue
        if all(k & ~m for known, m in islice(masks, i) if not known):
            kept.append(i)  # the trial without i is satisfiable, so i stays
            known, m = masks[i]
            if known:
                above &= m
            else:
                notk_above.append(m)
    kept.reverse()
    return kept


def _candidates(f: Formula, mode: Mode, opinionated: Sequence[int]
                ) -> tuple[int, list[int], list[_Candidate]]:
    """The universe over f's atoms, the masks of `assertions(f)` and the
    candidates in projection order: every clausal one, then every weak one,
    then every strong one, each tier in the or-nodes' pre-order, each
    candidate with its mask. Opinionated ids are refused before the atom
    limit."""
    found, ors, numbers, _ = _walk(f)
    strong = _strong(f, mode, opinionated, len(ors))
    atom = _name_masks(sorted(found))  # refuses > ATOM_LIMIT names before the universe
    universe = (1 << 2 ** len(found)) - 1
    operands: list[tuple[int, int]] = []  # each or-node's operand masks, in pre-order
    if type(f) is And:
        left = _evaluate(f.left, atom, universe, operands)
        right = _evaluate(f.right, atom, universe, operands)
        asserted = [left, right, left & right]
    else:
        asserted = [_evaluate(f, atom, universe, operands)]
    clausal: list[_Candidate] = []
    weak: list[_Candidate] = []
    strong_forms: list[_Candidate] = []
    for node, n, (left, right) in zip(ors, numbers, operands):
        clausal += _ignorance(n, node, left, right, universe)
        weak_form, *strong_form = _exclusivity(n, node, left & right, universe, n in strong)
        weak.append(weak_form)
        strong_forms += strong_form
    return universe, asserted, clausal + weak + strong_forms


def project(
    f: Formula,
    mode: Mode | str = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> ImplicatureReport:
    """Assertion-precedence projection: assertions are accepted outright;
    clausal, then weak-scalar, then strong-scalar candidates are accepted
    one at a time iff the accepted set stays satisfiable, suppressed
    candidates carrying their minimal clash set.

    f is walked once for its atoms and or-nodes (`formula._walk`) and
    evaluated once over those atoms by `truth_mask`'s evaluator
    (`boolean._evaluate`), called on f, or on its conjuncts if f is an And:
    every tested set contains K(f) and every body is built from f's
    subformulas, so these are the atoms `consistent` would collect. Each
    candidate is built with its mask from its or-node's operand masks m_l
    and m_r: m and U ^ m for a disjunct and its negation, m_l & m_r for the
    weak form, U ^ (m_l & m_r) for the strong one. The accepted set is kept
    as one running state: its K-worlds k and its notK masks. A notK
    candidate with mask m passes iff k & ~m is nonzero; a K candidate iff
    k & m is nonzero and leaves every need, (k & m) & ~n for each notK mask
    n, nonzero. These are `_verdict`'s
    answers, since the accepted set is satisfiable. The K-worlds after each
    acceptance are kept too, as the prefix ANDs a failed test hands to
    `_minimal_clash_set` with the accepted masks and the candidate's. No
    belief model is built; call `consistent` on the accepted set for the
    least one. `mode` and `opinionated` are read, and refused, as in
    `potential_scalar`, before the atom limit is checked."""
    mode = _mode(mode)
    universe, asserted, candidates = _candidates(f, mode, opinionated)
    accepted = assertions(f)
    accepted_masks = [(True, m) for m in asserted]
    below = [universe]  # below[i]: the K-worlds of accepted[:i]
    for m in asserted:
        below.append(below[-1] & m)
    k = below[-1]
    if not k:
        raise WorkbenchError("asserted content is epistemically unsatisfiable")
    notk: list[int] = []
    suppressed = []
    for candidate, known, m in candidates:
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
            below.append(k)
        else:
            clash = _minimal_clash_set(accepted_masks, below, (known, m))
            suppressed.append(Suppression(candidate, tuple(accepted[j] for j in clash)))
    return ImplicatureReport(mode, tuple(accepted), tuple(suppressed))
