"""Structural walks: the package's walkers and its command line leave no
garbage cycles (in JSON format, none beyond the stdlib encoder's), no
function in `src/` defines a nested function that calls itself, and the
iterative walkers read hand-built trees far deeper than the parser's
`MAX_DEPTH` admits and than Python's recursion limit would allow."""

from __future__ import annotations

import ast
import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
    compare,
    consistent,
    corpus_lookup,
    denote_one,
    denote_options,
    dual,
    equivalent,
    instantiate,
    judge,
    length_metric,
    option_equivalent,
    parse,
    potential_clausal,
    potential_scalar,
    project,
    unparse,
)
from coordsem.boolean import truth_mask
from coordsem.cli import COMMANDS, main, parse_argv
from coordsem.formula import atom_names, atoms, or_nodes

CORPUS = [corpus_lookup(label) for label in CORPUS_LABELS]
TEXTS = [unparse(f) for f in CORPUS]


def _every(call):
    return lambda: [call(f) for f in CORPUS]


def _cli(*argv):
    """`main(argv)` with its output discarded; the command must succeed."""
    def call():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0
    return call


# Each walker entry runs over the whole corpus, each command in text format
# and in JSON format.
_ARGVS = {
    "laws": ["laws"],
    "laws xor": ["laws", "--connectives", "xor"],
    "denote": ["denote", *CORPUS_LABELS],
    "judge": ["judge", *CORPUS_LABELS],
    "equiv": ["equiv", "2a", "2b"],
    "implicatures gazdar": ["implicatures", "2b"],
    "implicatures soames": ["implicatures", "--mode", "soames", "--opinionated", "0", "2b"],
    "prob frege": ["prob", "frege"],
    "prob frege drop-beta": ["prob", "frege", "--drop-beta"],
    "prob corollary": ["prob", "corollary"],
    "prob explosion": ["prob", "explosion"],
    "prob ordering": ["prob", "ordering"],
    "reproduce": ["reproduce"],
}
_COMMANDS = {name: _cli(*argv) for name, argv in _ARGVS.items()}
# `--format json` leaves the garbage of the stdlib's indenting encoder, whose
# nested functions refer to one another: the same as `json.dumps` of the
# payload alone leaves, whatever the Python version makes of it.
_JSON_ARGVS = {f"cli json {name}": ["--format", "json", *argv] for name, argv in _ARGVS.items()}
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
    "denote_options": _every(denote_options),
    "judge": _every(judge),
    "compare": lambda: [compare(f, g) for f, g in zip(CORPUS, CORPUS[1:])],
    "option_equivalent": lambda: [option_equivalent(f, g) for f, g in zip(CORPUS, CORPUS[1:])],
    **{f"cli {name}": call for name, call in _COMMANDS.items()},
    **{name: _cli(*argv) for name, argv in _JSON_ARGVS.items()},
}


def test_every_command_is_checked_for_garbage():
    assert {name.split()[0] for name in _COMMANDS} == set(COMMANDS)


def _garbage(call):
    """The objects that 100 calls of `call` leave for the collector."""
    call()  # a first call may fill a cache
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", _ENTRIES)
def test_no_garbage_cycles(name):
    alone = 0
    if name in _JSON_ARGVS:
        args = parse_argv(_JSON_ARGVS[name])
        payload = args.handler(args)
        alone = _garbage(lambda: json.dumps(payload, indent=2, sort_keys=True))
    assert _garbage(_ENTRIES[name]) == alone


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
    # or-node i is the i-th Or down the right spine
    spine = [f]
    while len(spine) < len(ors):
        spine.append(spine[-1].right)
    assert all(node is at for node, at in zip(ors, spine))
    assert list(atoms(f)) == ["A1", "A2", "A3", "A4", "A0"]
    assert atom_names(f) == ["A0", "A1", "A2", "A3", "A4"]
    assert length_metric(f) == 2 * DEPTH + 1
    if kind is Or:
        with pytest.raises(SizeLimitError, match=f"^{DEPTH} or-nodes exceed"):
            denote_options(f)


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "coordsem").glob("*.py"))
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calling_closures(source: str) -> list[str]:
    """Each function nested in another function that names itself in its own
    body. Such a closure refers to itself through a cell, so every call of
    its outer function leaves a function <-> cell cycle for the collector."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _DEF):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, _DEF) and any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for stmt in inner.body for node in ast.walk(stmt)):
                found.append(f"line {inner.lineno}: {outer.name}.{inner.name}")
    return found


def test_the_scan_flags_a_self_calling_closure():
    source = ("def walk(f):\n"
              "    def go(node):\n        return [go(c) for c in node]\n"
              "    def leaf(node):\n        return node\n"
              "    return go(f), leaf(f)\n"
              "def rec(n):\n    return rec(n - 1)\n")
    assert self_calling_closures(source) == ["line 2: walk.go"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_self_calling_closures(path):
    assert self_calling_closures(path.read_text()) == []
