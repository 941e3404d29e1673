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
world, notK phi iff phi fails somewhere).

Strong exclusivity is a defeasible default in `gazdar` mode; in `soames`
mode it is emitted only for or-nodes the caller declares the speaker
opinionated about.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .boolean import truth_mask, world
from .errors import AtomLimitError, WorkbenchError
from .formula import And, Formula, Not, Or, atom_names, subformulas, unparse

EPISTEMIC_ATOM_LIMIT = 4


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


@dataclass(frozen=True)
class EpistemicConstraint:
    """polarity(body), tagged with how it arose and the path of the
    subformula (for clausal/scalar: the generating or-node) it came from."""

    polarity: Polarity
    body: Formula
    provenance: Provenance
    source: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_atom_limit(atom_names(self.body))

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


def _check_atom_limit(names: Sequence[str]) -> None:
    if len(names) > EPISTEMIC_ATOM_LIMIT:
        raise AtomLimitError(
            f"{len(names)} atoms exceed the epistemic limit {EPISTEMIC_ATOM_LIMIT}")


def assertions(f: Formula) -> list[EpistemicConstraint]:
    """K of the asserted content. For a top-level And the conjuncts are
    asserted too; they are emitted first, the whole sentence last."""
    _check_atom_limit(atom_names(f))
    out = []
    if isinstance(f, And):
        out.append(EpistemicConstraint(Polarity.K, f.left, Provenance.ASSERTION, (0,)))
        out.append(EpistemicConstraint(Polarity.K, f.right, Provenance.ASSERTION, (1,)))
    out.append(EpistemicConstraint(Polarity.K, f, Provenance.ASSERTION, ()))
    return out


def _ordered_or_paths(f: Formula) -> list[tuple[tuple[int, ...], Or]]:
    return sorted(((p, n) for p, n in subformulas(f) if isinstance(n, Or)),
                  key=lambda pn: pn[0])


def _dedup(constraints: Iterable[EpistemicConstraint]) -> list[EpistemicConstraint]:
    return list(dict.fromkeys(constraints))


def potential_clausal(f: Formula) -> list[EpistemicConstraint]:
    """Ignorance constraints: for each disjunct psi of each or-node,
    notK(psi) and notK(not psi). Duplicates collapse within a node (an
    or-node with identical disjuncts contributes one pair); distinct nodes
    keep distinct entries."""
    _check_atom_limit(atom_names(f))
    out = []
    for path, node in _ordered_or_paths(f):
        for disjunct in (node.left, node.right):
            out.append(EpistemicConstraint(
                Polarity.NOT_K, disjunct, Provenance.CLAUSAL, path))
            out.append(EpistemicConstraint(
                Polarity.NOT_K, Not(disjunct), Provenance.CLAUSAL, path))
    return _dedup(out)


def potential_scalar(
    f: Formula,
    mode: Mode = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> list[EpistemicConstraint]:
    """Exclusivity constraints per or-node over disjuncts psi, chi. The weak
    form notK(psi and chi) is always emitted; the strong form
    K(not (psi and chi)) by default in gazdar mode, and in soames mode only
    for or-nodes (by coeff_id) listed as opinionated."""
    _check_atom_limit(atom_names(f))
    out = []
    for path, node in _ordered_or_paths(f):
        both = And(node.left, node.right)
        out.append(EpistemicConstraint(
            Polarity.NOT_K, both, Provenance.SCALAR_WEAK, path))
        if mode is Mode.GAZDAR or node.coeff_id in opinionated:
            out.append(EpistemicConstraint(
                Polarity.K, Not(both), Provenance.SCALAR_STRONG, path))
    return _dedup(out)


def consistent(
    constraints: Iterable[EpistemicConstraint],
) -> tuple[bool, Optional[BeliefModel]]:
    """Satisfiability by a belief model, with the least witness.

    Candidate models are the nonempty sets of worlds over the union of the
    constraints' atoms that satisfy every K-body, as bitsets in the world
    order of `coordsem.boolean`, enumerated by increasing value; the first
    model meeting every notK constraint is returned."""
    constraints = list(constraints)
    names = sorted({a for c in constraints for a in atom_names(c.body)})
    _check_atom_limit(names)
    universe = (1 << 2 ** len(names)) - 1
    k_mask = universe
    for c in constraints:
        if c.polarity is Polarity.K:
            k_mask &= truth_mask(c.body, names)
    notk_masks = [truth_mask(c.body, names) for c in constraints
                  if c.polarity is Polarity.NOT_K]

    # Satisfiable iff some K-world exists and every notK-body fails at some
    # K-world; the subset scan below then only runs when a witness exists.
    if k_mask == 0 or any(k_mask & ~m == 0 for m in notk_masks):
        return False, None
    for candidate in range(1, universe + 1):
        if candidate & ~k_mask:
            continue
        if all(candidate & ~m for m in notk_masks):
            model = tuple(world(names, i) for i in range(candidate.bit_length())
                          if candidate >> i & 1)
            return True, model
    raise AssertionError("unreachable: satisfiable set with no witness found")


@dataclass(frozen=True)
class Suppression:
    constraint: EpistemicConstraint
    clashes_with: tuple[EpistemicConstraint, ...]

    def serialize(self) -> dict[str, object]:
        return {
            "constraint": self.constraint.serialize(),
            "clashes_with": [c.serialize() for c in self.clashes_with],
        }


@dataclass(frozen=True)
class ImplicatureReport:
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


def _minimal_clash_set(
    accepted: Sequence[EpistemicConstraint],
    candidate: EpistemicConstraint,
) -> tuple[EpistemicConstraint, ...]:
    """Shrink the accepted set to a minimal subset still inconsistent with
    the candidate, dropping later-accepted constraints first so the blame
    lands on the earliest (highest-precedence) partners."""
    kept = list(accepted)
    for c in reversed(list(accepted)):
        trial = [k for k in kept if k is not c]
        ok, _ = consistent(trial + [candidate])
        if not ok:
            kept = trial
    return tuple(kept)


def project(
    f: Formula,
    mode: Mode = Mode.GAZDAR,
    opinionated: Sequence[int] = (),
) -> ImplicatureReport:
    """Assertion-precedence projection: assertions are accepted outright;
    clausal, then weak-scalar, then strong-scalar candidates are accepted
    one at a time iff the accepted set stays satisfiable, suppressed
    candidates carrying their minimal clash set."""
    scalar = potential_scalar(f, mode, opinionated)
    tiers = [
        potential_clausal(f),
        [c for c in scalar if c.provenance is Provenance.SCALAR_WEAK],
        [c for c in scalar if c.provenance is Provenance.SCALAR_STRONG],
    ]
    accepted = assertions(f)
    ok, _ = consistent(accepted)
    if not ok:
        raise WorkbenchError("asserted content is epistemically unsatisfiable")
    suppressed = []
    for tier in tiers:
        for candidate in tier:
            ok, _ = consistent(accepted + [candidate])
            if ok:
                accepted.append(candidate)
            else:
                suppressed.append(Suppression(
                    candidate, _minimal_clash_set(accepted, candidate)))
    return ImplicatureReport(mode, tuple(accepted), tuple(suppressed))
