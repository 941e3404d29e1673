"""Output checks for every workload, written against coordsem's public
functions only. Each returns a list of problems; an empty list means the
output is correct. An op whose check reports a problem counts as failed.
"""

from __future__ import annotations

from itertools import product

from coordsem import And, AtomNode, Category, Or, WorkbenchError, consistent, eval_formula
from coordsem.formula import atom_names, atoms

REPRODUCE_SUMMARY = "68 claims, 68 match, 0 mismatch"


def check_reproduce(returncode: int, stdout: bytes, reference: bytes) -> list[str]:
    """A cold `coordsem reproduce`: exit 0, every claim matching, and stdout
    byte-identical to the reference run."""
    problems = []
    if returncode != 0:
        problems.append(f"reproduce exited {returncode}")
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[-1] != REPRODUCE_SUMMARY:
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    if stdout != reference:
        problems.append("stdout differs from the first run")
    return problems


def _rows(names):
    for bits in product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


def check_equivalence(f, g, verdict) -> list[str]:
    """`equivalent(f, g)`: a counterexample must separate f and g, and a
    claim of validity must survive a full truth table."""
    if not verdict.valid:
        v = verdict.counterexample
        if v is None or eval_formula(f, v) == eval_formula(g, v):
            return [f"counterexample {v} does not separate the formulas"]
        return []
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    for v in _rows(names):
        if eval_formula(f, v) != eval_formula(g, v):
            return [f"claimed equivalent, but {v} separates the formulas"]
    return []


def option_oracle(f) -> set[tuple[tuple[str, int], ...]]:
    """The option set built from the formula's parts, as sorted (atom,
    coefficient) tuples: a unit vector at an atom, pairwise sums at `and`,
    the union at `or`. Independent of how the package enumerates."""
    if isinstance(f, AtomNode):
        return {((f.atom.name, 1),)}
    left, right = option_oracle(f.left), option_oracle(f.right)
    if isinstance(f, Or):
        return left | right
    if not isinstance(f, And):
        raise ValueError(f"no option set for {type(f).__name__}")
    out = set()
    for a in left:
        for b in right:
            total = dict(a)
            for name, coeff in b:
                total[name] = total.get(name, 0) + coeff
            out.add(tuple(sorted(total.items())))
    return out


def check_options(f, ors: int, options, judgment) -> list[str]:
    """`denote_options` and `judge` on one and/or formula with `ors` or-nodes."""
    problems = []
    if {p.parts for p in options} != option_oracle(f) or len(set(options)) != len(options):
        problems.append("options differ from the set built from the formula's parts")
    names = atom_names(f)
    for p in options:
        support = p.as_dict()
        if not eval_formula(f, {n: n in support for n in names}):
            problems.append(f"option {p} does not satisfy the formula")
    if len(options) > 2 ** ors:
        problems.append(f"{len(options)} options from {ors} or-nodes")
    aspect = {name: atom.aspect for name, atom in atoms(f).items()}
    doubles = {(p, name, coeff) for p in options for name, coeff in p.parts
               if coeff >= 2 and aspect[name] == "stative"}
    if set(judgment.double_images) != doubles:
        problems.append("double images disagree with the option set")
    if not set(judgment.hobson_nodes) <= set(range(ors)):
        problems.append(f"hobson nodes {judgment.hobson_nodes} outside 0..{ors - 1}")
    expected = (Category.WEIRD_DOUBLE_IMAGE if judgment.double_images
                else Category.ODD_HOBSON if judgment.hobson_nodes
                else Category.ACCEPTABLE)
    if judgment.category is not expected:
        problems.append(f"category {judgment.category.value}, expected {expected.value}")
    return problems


def check_comparison(f, g, f_options, g_options, f_judgment, g_judgment, cmp) -> list[str]:
    """`report.compare(f, g)` against the two items' own outputs."""
    problems = check_equivalence(f, g, cmp.boolean)
    same = set(f_options) == set(g_options)
    if cmp.options.equal != same:
        problems.append(f"option equality {cmp.options.equal}, sets say {same}")
    if not same and (cmp.options.witness is None
                     or (cmp.options.witness in f_options) == (cmp.options.witness in g_options)):
        problems.append("option witness is not in the symmetric difference")
    if (cmp.judgment_left, cmp.judgment_right) != (f_judgment, g_judgment):
        problems.append("comparison judgments differ from the items' own")
    return problems


def _satisfiable(f) -> bool:
    return any(eval_formula(f, v) for v in _rows(atom_names(f)))


def check_projection(f, outcome) -> list[str]:
    """`project(f, ...)`: `outcome` is the report, or the WorkbenchError it
    raised. The accepted set must be consistent, each suppressed candidate
    inconsistent with its clash set, and an error only allowed when f has
    no satisfying assignment."""
    if isinstance(outcome, WorkbenchError):
        return [] if not _satisfiable(f) else [f"error on a satisfiable formula: {outcome}"]
    problems = []
    ok, _ = consistent(outcome.accepted)
    if not ok:
        problems.append("accepted constraints are inconsistent")
    for s in outcome.suppressed:
        clash, _ = consistent(list(s.clashes_with) + [s.constraint])
        if clash:
            problems.append(f"suppressed {s.constraint} is consistent with its clash set")
    return problems
