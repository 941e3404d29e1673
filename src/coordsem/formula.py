"""Object language: aspect-annotated atoms, binary connectives, parsing and
printing, the corpus of schematic coordination examples, and law templates.

Grammar (lowercase keywords, right-associative binary connectives):

    expr    := conj (("or" | "xor") expr)?
    conj    := unary ("and" conj)?
    unary   := "not" unary | primary
    primary := atom | "(" expr ")"
    atom    := NAME (":" ("stative" | "iterable"))?

`and` binds tighter than `or`/`xor`; `not` tighter than `and`. Every Or node
carries a coefficient id, numbered 0,1,... in textual order of the `or`
keywords. An atom name has one aspect per formula; unannotated occurrences
default to stative unless another occurrence declares an aspect. Nesting is
limited to MAX_DEPTH levels, counting each "(", each "not" and each right
operand of a binary connective.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Union

from .errors import ParseError, UnboundMetavariableError, UnknownLabelError

STATIVE = "stative"
ITERABLE = "iterable"
ASPECTS = (STATIVE, ITERABLE)


@dataclass(frozen=True)
class Atom:
    """A propositional letter with an aspect class.

    Statives ("is affable") resist additive repetition in the vector
    semantics; iterables ("talks") permit it.
    """

    name: str
    aspect: str = STATIVE

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad atom name: {self.name!r}")
        if self.aspect not in ASPECTS:
            raise ValueError(f"bad aspect: {self.aspect!r}")


@dataclass(frozen=True)
class AtomNode:
    atom: Atom


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"
    coeff_id: int


@dataclass(frozen=True)
class Xor:
    left: "Formula"
    right: "Formula"


Formula = Union[AtomNode, Not, And, Or, Xor]

_BINARY = (And, Or, Xor)

# precedence levels for minimal-parenthesis printing
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3
_LEVEL_ATOM = 4


def _level(f: Formula) -> int:
    if isinstance(f, AtomNode):
        return _LEVEL_ATOM
    if isinstance(f, Not):
        return _LEVEL_NOT
    if isinstance(f, And):
        return _LEVEL_AND
    return _LEVEL_OR


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


def atoms(f: Formula) -> dict[str, Atom]:
    """Atom objects of f keyed by name, insertion in textual order."""
    found: dict[str, Atom] = {}
    def go(node: Formula) -> None:
        if isinstance(node, AtomNode):
            found.setdefault(node.atom.name, node.atom)
        elif isinstance(node, Not):
            go(node.child)
        else:
            go(node.left)
            go(node.right)
    go(f)
    return found


def atom_names(f: Formula) -> list[str]:
    return sorted(atoms(f))


def or_nodes(f: Formula) -> list[tuple[tuple[int, ...], Or]]:
    """All Or nodes with their paths, ordered by coefficient id."""
    nodes = [(p, n) for p, n in subformulas(f) if isinstance(n, Or)]
    nodes.sort(key=lambda pn: pn[1].coeff_id)
    return nodes


# ---------------------------------------------------------------------------
# Parsing

# Deep enough for any hand-written formula, and shallow enough that every
# recursive walk over the parse tree stays far from Python's recursion limit.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"(?P<word>[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[():])")
_KEYWORDS = {"and", "or", "xor", "not"}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        pos = 0
        text = self.text
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.group("word"):
                word = m.group("word")
                kind = word if word in _KEYWORDS else "name"
                self.tokens.append((kind, word, pos))
            else:
                self.tokens.append((m.group("punct"), m.group("punct"), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.next_coeff = 0
        self.depth = 0
        # name -> (aspect or None if only defaulted, position of first annotation)
        self.aspects: dict[str, tuple[str | None, int]] = {}

    def parse(self) -> Formula:
        f = self._expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return self._apply_aspects(f)

    def _nested(self, parse_part: Callable[[], Formula]) -> Formula:
        if self.depth == MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                             self.toks.peek()[2])
        self.depth += 1
        f = parse_part()
        self.depth -= 1
        return f

    def _expr(self) -> Formula:
        left = self._conj()
        kind, _, _ = self.toks.peek()
        if kind == "or":
            self.toks.take()
            cid = self.next_coeff
            self.next_coeff += 1
            return Or(left, self._nested(self._expr), cid)
        if kind == "xor":
            self.toks.take()
            return Xor(left, self._nested(self._expr))
        return left

    def _conj(self) -> Formula:
        left = self._unary()
        if self.toks.peek()[0] == "and":
            self.toks.take()
            return And(left, self._nested(self._conj))
        return left

    def _unary(self) -> Formula:
        if self.toks.peek()[0] == "not":
            self.toks.take()
            return Not(self._nested(self._unary))
        return self._primary()

    def _primary(self) -> Formula:
        kind, value, pos = self.toks.take()
        if kind == "(":
            inner = self._nested(self._expr)
            self.toks.expect(")")
            return inner
        if kind == "name":
            aspect = None
            if self.toks.peek()[0] == ":":
                self.toks.take()
                _, aval, apos = self.toks.take()
                if aval not in ASPECTS:
                    raise ParseError(f"expected aspect {ASPECTS}, found {aval!r}", apos)
                aspect = aval
            self._record_aspect(value, aspect, pos)
            # aspect fixed after the whole parse; placeholder stative for now
            return AtomNode(Atom(value))
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)

    def _record_aspect(self, name: str, aspect: str | None, pos: int) -> None:
        prev = self.aspects.get(name)
        if prev is None:
            self.aspects[name] = (aspect, pos)
        elif aspect is not None:
            prev_aspect, _ = prev
            if prev_aspect is None:
                self.aspects[name] = (aspect, pos)
            elif prev_aspect != aspect:
                raise ParseError(
                    f"conflicting aspect for atom {name!r}: {prev_aspect} vs {aspect}", pos)

    def _apply_aspects(self, f: Formula) -> Formula:
        table = {name: (a or STATIVE) for name, (a, _) in self.aspects.items()}
        def go(node: Formula) -> Formula:
            if isinstance(node, AtomNode):
                return AtomNode(Atom(node.atom.name, table[node.atom.name]))
            if isinstance(node, Not):
                return Not(go(node.child))
            if isinstance(node, And):
                return And(go(node.left), go(node.right))
            if isinstance(node, Or):
                return Or(go(node.left), go(node.right), node.coeff_id)
            return Xor(go(node.left), go(node.right))
        return go(f)


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Or nodes receive coefficient ids 0,1,... in textual order. Raises
    ParseError with a character position on malformed input or on
    conflicting aspect annotations for one atom name.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing and the length metric

def _word(f: Formula) -> str:
    if isinstance(f, And):
        return "and"
    if isinstance(f, Or):
        return "or"
    return "xor"


def unparse(f: Formula) -> str:
    """Canonical text: lowercase connective words, minimal parentheses.

    Iterable atoms print with their annotation so the text reparses to the
    same formula; statives print bare (the default)."""
    def go(node: Formula) -> str:
        if isinstance(node, AtomNode):
            a = node.atom
            return a.name if a.aspect == STATIVE else f"{a.name}:{a.aspect}"
        if isinstance(node, Not):
            inner = go(node.child)
            if _level(node.child) < _LEVEL_NOT:
                inner = f"({inner})"
            return f"not {inner}"
        lvl = _level(node)
        left = go(node.left)
        if _level(node.left) <= lvl:  # equal level on the left breaks right-assoc
            left = f"({left})"
        right = go(node.right)
        if _level(node.right) < lvl:
            right = f"({right})"
        return f"{left} {_word(node)} {right}"
    return go(f)


def length_metric(f: Formula) -> int:
    """Token count of the canonical unparse: atoms and connective words,
    parentheses excluded. The prolixity measure behind brevity comparisons."""
    if isinstance(f, AtomNode):
        return 1
    if isinstance(f, Not):
        return 1 + length_metric(f.child)
    return 1 + length_metric(f.left) + length_metric(f.right)


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


def corpus_lookup(label: str) -> Formula:
    """The schematic formula registered under a corpus label (1a ... 6c)."""
    try:
        text = _CORPUS_TEXT[label]
    except KeyError:
        raise UnknownLabelError(
            f"unknown corpus label {label!r}; known: {', '.join(CORPUS_LABELS)}") from None
    return parse(text)


# ---------------------------------------------------------------------------
# Law schemas: formula templates over metavariables with meet/join connectives

MEET = "meet"
JOIN = "join"


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TOp:
    op: str  # MEET or JOIN
    left: "Template"
    right: "Template"


Template = Union[TVar, TOp]


def template_vars(t: Template) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    return template_vars(t.left) | template_vars(t.right)


def template_ops(t: Template) -> set[str]:
    if isinstance(t, TVar):
        return set()
    return {t.op} | template_ops(t.left) | template_ops(t.right)


@dataclass(frozen=True)
class LawSchema:
    """A candidate identity: two templates plus a map from template
    connectives to concrete ones. Name is informational only."""

    name: str = field(compare=False)
    lhs: Template
    rhs: Template
    connective_map: tuple[tuple[str, str], ...] = ((MEET, "and"), (JOIN, "or"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "connective_map", tuple(sorted(set(self.connective_map))))
        mapped = {src for src, _ in self.connective_map}
        if len(mapped) != len(self.connective_map):
            raise ValueError(f"{self.name}: conflicting connective_map entries")
        used = template_ops(self.lhs) | template_ops(self.rhs)
        if not used <= mapped:
            raise ValueError(f"{self.name}: connective_map not total on {used - mapped}")

    @property
    def metavariables(self) -> set[str]:
        return template_vars(self.lhs) | template_vars(self.rhs)

    def with_connectives(self, **ops: str) -> "LawSchema":
        """Same templates, different concrete connectives, e.g. join='xor'."""
        table = dict(self.connective_map)
        for src, dst in ops.items():
            if src not in (MEET, JOIN):
                raise ValueError(f"unknown template connective {src!r}")
            if dst not in ("and", "or", "xor"):
                raise ValueError(f"unknown concrete connective {dst!r}")
            table[src] = dst
        return LawSchema(self.name, self.lhs, self.rhs, tuple(table.items()))


def instantiate(schema: LawSchema, binding: Mapping[str, Formula]) -> tuple[Formula, Formula]:
    """Substitute formulas for metavariables and concrete connectives for
    meet/join; Or coefficients are renumbered 0,1,... left-to-right across
    each resulting formula."""
    table = dict(schema.connective_map)

    def build(t: Template) -> Formula:
        if isinstance(t, TVar):
            try:
                return binding[t.name]
            except KeyError:
                raise UnboundMetavariableError(
                    f"{schema.name}: no binding for metavariable {t.name!r}") from None
        concrete = table[t.op]
        left, right = build(t.left), build(t.right)
        if concrete == "and":
            return And(left, right)
        if concrete == "or":
            return Or(left, right, -1)  # renumbered below
        return Xor(left, right)

    return renumber_coefficients(build(schema.lhs)), renumber_coefficients(build(schema.rhs))


def renumber_coefficients(f: Formula) -> Formula:
    """Fresh coefficient ids 0,1,... assigned to Or nodes in textual order
    (in-order traversal, which follows the `or` keyword positions)."""
    counter = 0

    def go(node: Formula) -> Formula:
        nonlocal counter
        if isinstance(node, AtomNode):
            return node
        if isinstance(node, Not):
            return Not(go(node.child))
        if isinstance(node, And):
            return And(go(node.left), go(node.right))
        if isinstance(node, Xor):
            return Xor(go(node.left), go(node.right))
        left = go(node.left)
        cid = counter
        counter += 1
        return Or(left, go(node.right), cid)

    return go(f)


def _t(op: str, left: Template, right: Template) -> TOp:
    return TOp(op, left, right)


_X, _Y, _Z = TVar("X"), TVar("Y"), TVar("Z")

DIS1 = LawSchema("Dis.1", _t(MEET, _X, _t(JOIN, _Y, _Z)),
                 _t(JOIN, _t(MEET, _X, _Y), _t(MEET, _X, _Z)))
DIS2 = LawSchema("Dis.2", _t(JOIN, _X, _t(MEET, _Y, _Z)),
                 _t(MEET, _t(JOIN, _X, _Y), _t(JOIN, _X, _Z)))
ABS1 = LawSchema("Abs.1", _t(JOIN, _X, _t(MEET, _X, _Y)), _X)
ABS2 = LawSchema("Abs.2", _t(MEET, _X, _t(JOIN, _X, _Y)), _X)
IDE1 = LawSchema("Ide.1", _t(JOIN, _X, _X), _X)
IDE2 = LawSchema("Ide.2", _t(MEET, _X, _X), _X)

STANDARD_LAWS = (DIS1, DIS2, ABS1, ABS2, IDE1, IDE2)
