"""Object language: aspect-annotated atoms, binary connectives, parsing and
printing, the corpus of schematic coordination examples, and law schemas,
whose templates are formulas of the same language.

Grammar (lowercase keywords, right-associative binary connectives):

    expr    := conj (("or" | "xor") expr)?
    conj    := unary ("and" conj)?
    unary   := "not" unary | primary
    primary := atom | "(" expr ")"
    atom    := NAME (":" ("stative" | "iterable"))?

`and` binds tighter than `or`/`xor`; `not` tighter than `and`. An Or node is
numbered by its position: or-node i is the i-th `or` keyword of the text, so
the numbering is in-order (a node comes after its left subtree). `or_nodes`
defines it for every tree, parsed or built by hand. One structural walk,
`_walk`, pre-order on its own stack, reads a formula's atoms, its or-nodes and
their numbering, and its first `not` or `xor`, for `atoms`, `atom_names`,
`or_nodes`, the option pass and projection alike. An atom name has one aspect
per formula; unannotated occurrences default to stative unless another
occurrence declares an aspect. Nesting is limited to MAX_DEPTH levels,
counting each "(", each "not" and each right operand of a binary connective.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Iterator, Mapping, Optional, Union

from ._record import Record
from .errors import ParseError, UnboundMetavariableError, UnknownLabelError

STATIVE = "stative"
ITERABLE = "iterable"
ASPECTS = (STATIVE, ITERABLE)


class Atom(Record):
    """A propositional letter with an aspect class.

    Statives ("is affable") resist additive repetition in the vector
    semantics; iterables ("talks") permit it. The name is a word that is
    not a keyword, so `unparse`'s text parses back to the atom.
    """

    name: str
    aspect: str = STATIVE

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", self.name) or self.name in _KINDS:
            raise ValueError(f"bad atom name: {self.name!r}")
        if self.aspect not in ASPECTS:
            raise ValueError(f"bad aspect: {self.aspect!r}")


class AtomNode(Record):
    atom: Atom


class Not(Record):
    child: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


class Xor(Record):
    left: "Formula"
    right: "Formula"


Formula = Union[AtomNode, Not, And, Or, Xor]

_BINARY = (And, Or, Xor)


def subformulas(f: Formula) -> Iterator[tuple[tuple[int, ...], Formula]]:
    """Yield (path, node) pairs in pre-order; path is the child-index route."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Not):
            stack.append((path + (0,), node.child))
        elif isinstance(node, _BINARY):
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))


_OrPaths = list[tuple[tuple[int, ...], Or]]


def _walk(f: Formula) -> tuple[dict[str, Atom], _OrPaths, list[int], Optional[Formula]]:
    """One pre-order walk of f, on its own stack: f's atoms keyed by name,
    in textual order, the first occurrence deciding; its or-nodes with their
    paths, in pre-order, which is path order; for each or-node number n (see
    `or_nodes`), the pre-order index of or-node n; and f's first `not` or
    `xor` node in pre-order, or None. An or-node's number counts the
    or-nodes an in-order walk visits before it, so a marker holding its
    index is pushed between its right and left subtrees."""
    found: dict[str, Atom] = {}
    ors: _OrPaths = []
    by_number: list[int] = []
    refused = None
    stack = [((), f)]
    pop, push = stack.pop, stack.append
    while stack:
        path, node = pop()
        kind = type(node)
        if kind is AtomNode:
            found.setdefault(node.atom.name, node.atom)
        elif node is None:  # the marker of the or-node whose index is `path`
            by_number.append(path)
        elif kind is Not:
            if refused is None:
                refused = node
            push((path + (0,), node.child))
        else:
            push((path + (1,), node.right))
            if kind is Or:
                push((len(ors), None))
                ors.append((path, node))
            elif kind is Xor and refused is None:
                refused = node
            push((path + (0,), node.left))
    return found, ors, by_number, refused


def atoms(f: Formula) -> dict[str, Atom]:
    """Atom objects of f keyed by name, insertion in textual order."""
    return _walk(f)[0]


def atom_names(f: Formula) -> list[str]:
    return sorted(_walk(f)[0])


def or_nodes(f: Formula) -> _OrPaths:
    """All Or nodes with their paths, in the order of their numbers: or-node
    i is the i-th `or` keyword of `unparse(f)`. That order is in-order, a
    node after its left subtree and before its right one, and is read off
    `_walk`'s numbering, so one Or object at two positions is two nodes."""
    _, ors, by_number, _ = _walk(f)
    return [ors[i] for i in by_number]


def _rebuild(f: Formula, leaf: Callable[[AtomNode], Formula],
             connective: Mapping[type, type]) -> Formula:
    """Rebuild f bottom-up: atom nodes through `leaf`, binary nodes as
    `connective[type(node)]`, negation as is."""
    kind = type(f)
    if kind is AtomNode:
        return leaf(f)
    if kind is Not:
        return Not(_rebuild(f.child, leaf, connective))
    return connective[kind](_rebuild(f.left, leaf, connective),
                            _rebuild(f.right, leaf, connective))


# ---------------------------------------------------------------------------
# Parsing

# Deep enough for any hand-written formula, and shallow enough that every
# recursive walk over the parse tree stays far from Python's recursion limit.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[():]")
# A character no token takes: one that is neither space, letter, digit, "_"
# nor punctuation, or a digit or "_" that no name has begun.
_STRAY_RE = re.compile(r"[^A-Za-z0-9_():\s]|(?<![A-Za-z0-9_])[0-9_]")
_KINDS = {"and", "or", "xor", "not", "(", ")", ":"}
_END = "end of input"  # the last token: no token of a text holds a space
_NOT_NAMES = _KINDS | {_END}


def _tokens(text: str) -> list[str]:
    """The tokens of text, then `_END`, from one scan. A token that is not a
    keyword, punctuation or `_END` is a name. A stray character is refused
    first, wherever it stands."""
    stray = _STRAY_RE.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = toks = _tokens(text)
        self.index = 0  # of the next token
        self.depth = 0
        # Every name annotated iterable somewhere; _primary reports conflicts.
        self.iterable = {name for name, colon, aspect in zip(toks, toks[1:], toks[2:])
                         if colon == ":" and aspect == ITERABLE and name not in _KINDS
                         } if ":" in toks else set()
        self.declared: dict[str, str] = {}  # name -> its first annotation
        self.leaves: dict[str, AtomNode] = {}  # name -> the one leaf of its occurrences

    def _error(self, message: str, index: int) -> ParseError:
        """A ParseError at token `index`, whose position is found only now."""
        if index == len(self.tokens) - 1:
            return ParseError(message, len(self.text))
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None))
        return ParseError(message, match.start())

    def parse(self) -> Formula:
        f = self._expr()
        token = self.tokens[self.index]
        if token != _END:
            raise self._error(f"unexpected {token!r}", self.index)
        return f

    def _nested(self, parse_part: Callable[[], Formula]) -> Formula:
        if self.depth == MAX_DEPTH:
            raise self._error(f"formula nests deeper than {MAX_DEPTH} levels", self.index)
        self.depth += 1
        f = parse_part()
        self.depth -= 1
        return f

    def _expr(self) -> Formula:
        left = self._conj()
        token = self.tokens[self.index]
        if token == "or":
            self.index += 1
            return Or(left, self._nested(self._expr))
        if token == "xor":
            self.index += 1
            return Xor(left, self._nested(self._expr))
        return left

    def _conj(self) -> Formula:
        left = self._unary()
        if self.tokens[self.index] == "and":
            self.index += 1
            return And(left, self._nested(self._conj))
        return left

    def _unary(self) -> Formula:
        if self.tokens[self.index] == "not":
            self.index += 1
            return Not(self._nested(self._unary))
        return self._primary()

    def _primary(self) -> Formula:
        at = self.index
        token = self.tokens[at]
        self.index += 1
        if token == "(":
            inner = self._nested(self._expr)
            found = self.tokens[self.index]
            self.index += 1
            if found != ")":
                raise self._error(f"expected ')', found {found!r}", self.index - 1)
            return inner
        if token in _NOT_NAMES:
            raise self._error(f"expected a formula, found {token!r}", at)
        if self.tokens[self.index] == ":":
            aspect = self.tokens[self.index + 1]
            self.index += 2
            if aspect not in ASPECTS:
                raise self._error(f"expected aspect {ASPECTS}, found {aspect!r}", self.index - 1)
            first = self.declared.setdefault(token, aspect)
            if first != aspect:
                raise self._error(
                    f"conflicting aspect for atom {token!r}: {first} vs {aspect}", at)
        leaf = self.leaves.get(token)
        if leaf is None:
            aspect = ITERABLE if token in self.iterable else STATIVE
            leaf = self.leaves[token] = AtomNode(Atom(token, aspect))
        return leaf


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises ParseError with a character position on malformed input or on
    conflicting aspect annotations for one atom name. The occurrences of
    one name share one leaf, so its atom is built and checked once.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing and the length metric

# precedence for minimal-parenthesis printing, and each connective's word
_LEVEL = {Or: 1, Xor: 1, And: 2, Not: 3, AtomNode: 4}
_WORD = {And: "and", Or: "or", Xor: "xor"}


def unparse(f: Formula) -> str:
    """Canonical text: lowercase connective words, minimal parentheses.

    Iterable atoms print with their annotation so the text reparses to the
    same formula; statives print bare (the default)."""
    kind = type(f)
    if kind is AtomNode:
        a = f.atom
        return a.name if a.aspect == STATIVE else f"{a.name}:{a.aspect}"
    if kind is Not:
        inner = unparse(f.child)
        if _LEVEL[type(f.child)] < _LEVEL[Not]:
            inner = f"({inner})"
        return f"not {inner}"
    lvl = _LEVEL[kind]
    left = unparse(f.left)
    if _LEVEL[type(f.left)] <= lvl:  # equal level on the left breaks right-assoc
        left = f"({left})"
    right = unparse(f.right)
    if _LEVEL[type(f.right)] < lvl:
        right = f"({right})"
    return f"{left} {_WORD[kind]} {right}"


def length_metric(f: Formula) -> int:
    """Token count of the canonical unparse: atoms and connective words,
    parentheses excluded, that is f's node count. The prolixity measure
    behind brevity comparisons."""
    return sum(1 for _ in subformulas(f))


# ---------------------------------------------------------------------------
# Corpus of schematic examples (atoms A, B, C stand for the three clauses;
# bracketing renders the prosodic grouping of the originals)

_CORPUS_TEXT = {
    "1a": "A and (B or C)",
    "1b": "(A and B) or (A and C)",
    "2a": "A or (B and C)",
    "2b": "(A or B) and (A or C)",
    "2b'": "(A or B) and (C or A)",
    "3a": "A or (B and C)",
    "3b": "(A or B) and (A or C)",
    "4a": "A or (B and C)",
    "4b": "(A or B) and (A or C)",
    "5a": "A or (A and B)",
    "5b": "A",
    "5c": "A and (A or B)",
    "5c'": "A and (B or A)",
    "6a": "A or A",
    "6b": "A",
    "6c": "A and A",
}

CORPUS_LABELS = tuple(_CORPUS_TEXT)

# Each corpus text parsed once, at import, as the law schemas below are.
# Formulas are immutable, so every lookup of a label can share one tree, and
# labels with the same text (2a, 3a and 4a) share one parse.
_CORPUS = {text: parse(text) for text in dict.fromkeys(_CORPUS_TEXT.values())}


def corpus_lookup(label: str) -> Formula:
    """The schematic formula registered under a corpus label (1a ... 6c)."""
    try:
        text = _CORPUS_TEXT[label]
    except KeyError:
        raise UnknownLabelError(
            f"unknown corpus label {label!r}; known: {', '.join(CORPUS_LABELS)}") from None
    return _CORPUS[text]


# ---------------------------------------------------------------------------
# Law schemas: templates are formulas over metavariable atoms, in which `and`
# stands for meet and `or` for join

MEET = "meet"
JOIN = "join"

_ROLE = {And: MEET, Or: JOIN}
_CONNECTIVE = {"and": And, "or": Or, "xor": Xor}


class LawSchema(Record, uncompared=("name",)):
    """A candidate identity: two templates plus a map from meet and join to
    concrete connectives. A template is a formula whose atoms are the
    metavariables (their aspects are ignored), with `and` for meet, `or` for
    join, and no `not` or `xor`. Name is informational only: equality and
    hashing ignore it."""

    name: str
    lhs: Formula
    rhs: Formula
    connective_map: tuple[tuple[str, str], ...] = ((MEET, "and"), (JOIN, "or"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "connective_map", tuple(sorted(set(self.connective_map))))
        table = dict(self.connective_map)
        if len(table) != len(self.connective_map):
            raise ValueError(f"{self.name}: conflicting connective_map entries")
        kinds = {type(node) for t in (self.lhs, self.rhs) for _, node in subformulas(t)}
        if kinds & {Not, Xor}:
            raise ValueError(f"{self.name}: a template may use only 'and' and 'or'")
        used = {_ROLE[kind] for kind in kinds if kind in _ROLE}
        if not used <= table.keys():
            raise ValueError(f"{self.name}: connective_map not total on {used - table.keys()}")
        for src, dst in self.connective_map:
            if src not in (MEET, JOIN) or dst not in _CONNECTIVE:
                raise ValueError(f"{self.name}: bad connective_map entry {(src, dst)!r}")

    @property
    def metavariables(self) -> set[str]:
        return set(atoms(self.lhs)) | set(atoms(self.rhs))

    def with_connectives(self, **ops: str) -> "LawSchema":
        """Same templates, different concrete connectives, e.g. join='xor'."""
        table = {**dict(self.connective_map), **ops}
        return LawSchema(self.name, self.lhs, self.rhs, tuple(table.items()))


def instantiate(schema: LawSchema, binding: Mapping[str, Formula]) -> tuple[Formula, Formula]:
    """Substitute formulas for metavariables and concrete connectives for
    meet/join. Like any formula's, each result's or-nodes are numbered by
    position, those inside the substituted formulas too."""
    table = dict(schema.connective_map)
    connective = {kind: _CONNECTIVE[table[role]] for kind, role in _ROLE.items()
                  if role in table}

    def bind(node: AtomNode) -> Formula:
        try:
            return binding[node.atom.name]
        except KeyError:
            raise UnboundMetavariableError(
                f"{schema.name}: no binding for metavariable {node.atom.name!r}") from None

    return _rebuild(schema.lhs, bind, connective), _rebuild(schema.rhs, bind, connective)


DIS1 = LawSchema("Dis.1", parse("X and (Y or Z)"), parse("(X and Y) or (X and Z)"))
DIS2 = LawSchema("Dis.2", parse("X or (Y and Z)"), parse("(X or Y) and (X or Z)"))
ABS1 = LawSchema("Abs.1", parse("X or (X and Y)"), parse("X"))
ABS2 = LawSchema("Abs.2", parse("X and (X or Y)"), parse("X"))
IDE1 = LawSchema("Ide.1", parse("X or X"), parse("X"))
IDE2 = LawSchema("Ide.2", parse("X and X"), parse("X"))

STANDARD_LAWS = (DIS1, DIS2, ABS1, ABS2, IDE1, IDE2)
