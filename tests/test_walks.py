"""Structural walks: the package's walkers leave no garbage cycles, and the
iterative ones read hand-built trees far deeper than the parser's
`MAX_DEPTH` admits and than Python's recursion limit would allow."""

from __future__ import annotations

import gc

import pytest

from coordsem import (
    CORPUS_LABELS,
    DIS1,
    And,
    Atom,
    AtomNode,
    Mode,
    Or,
    SizeLimitError,
    STANDARD_LAWS,
    assertions,
    check_law,
    consistent,
    corpus_lookup,
    denote_one,
    denote_options,
    dual,
    equivalent,
    instantiate,
    length_metric,
    parse,
    potential_clausal,
    potential_scalar,
    project,
    unparse,
)
from coordsem.boolean import truth_mask
from coordsem.formula import atom_names, atoms, or_nodes

CORPUS = [corpus_lookup(label) for label in CORPUS_LABELS]
TEXTS = [unparse(f) for f in CORPUS]


def _every(call):
    return lambda: [call(f) for f in CORPUS]


# Each entry runs over the whole corpus. The entries that reach the option
# pass (`denote_options`, `judge`, `compare`, `option_equivalent`) are left
# out: its walker is still a self-calling closure (ROADMAP item 12).
_ENTRIES = {
    "parse": lambda: [parse(text) for text in TEXTS],
    "unparse": _every(unparse),
    "atoms": _every(atoms),
    "atom_names": _every(atom_names),
    "or_nodes": _every(or_nodes),
    "truth_mask": _every(lambda f: truth_mask(f, atom_names(f))),
    "equivalent": lambda: [equivalent(f, g) for f, g in zip(CORPUS, CORPUS[1:])],
    "check_law": lambda: [check_law(law) for law in STANDARD_LAWS],
    "instantiate": _every(lambda f: instantiate(DIS1, {"X": f, "Y": f, "Z": f})),
    "dual": lambda: [dual(law) for law in STANDARD_LAWS],
    "project gazdar": _every(lambda f: project(f, Mode.GAZDAR)),
    "project soames": _every(
        lambda f: project(f, Mode.SOAMES, tuple(range(len(or_nodes(f)))))),
    "potential_clausal": _every(potential_clausal),
    "potential_scalar": _every(potential_scalar),
    "consistent": _every(lambda f: consistent(assertions(f) + potential_clausal(f))),
    "denote_one": _every(lambda f: denote_one(f, dict.fromkeys(range(len(or_nodes(f))), 1))),
    "length_metric": _every(length_metric),
}


@pytest.mark.parametrize("name", _ENTRIES)
def test_no_garbage_cycles(name):
    call = _ENTRIES[name]
    call()  # a first call may fill a cache
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


DEPTH = 3000  # past the interpreter's default recursion limit, 1000


def _chain(kind):
    """kind(A1, kind(A2, ... kind(A3000, A0))): DEPTH nodes of `kind`, over
    five atoms, built by hand."""
    f = AtomNode(Atom("A0"))
    for i in range(DEPTH, 0, -1):
        f = kind(AtomNode(Atom(f"A{i % 5}")), f)
    return f


@pytest.mark.parametrize("kind", [Or, And])
def test_deep_hand_built_trees(kind):
    f = _chain(kind)
    ors = or_nodes(f)
    assert len(ors) == (DEPTH if kind is Or else 0)
    assert [len(path) for path, _ in ors] == list(range(len(ors)))
    assert list(atoms(f)) == ["A1", "A2", "A3", "A4", "A0"]
    assert atom_names(f) == ["A0", "A1", "A2", "A3", "A4"]
    assert length_metric(f) == 2 * DEPTH + 1
    if kind is Or:
        with pytest.raises(SizeLimitError, match=f"^{DEPTH} or-nodes exceed"):
            denote_options(f)
