"""Object language: parsing, printing, corpus, length metric, law templates."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coordsem import (
    ABS1,
    ABS2,
    DIS1,
    DIS2,
    IDE1,
    IDE2,
    And,
    Atom,
    AtomNode,
    LawSchema,
    Not,
    Or,
    ParseError,
    UnboundMetavariableError,
    UnknownLabelError,
    Xor,
    check_law,
    corpus_lookup,
    equivalent,
    instantiate,
    length_metric,
    parse,
    unparse,
)
from coordsem import formula
from coordsem.formula import CORPUS_LABELS, ITERABLE, JOIN, MEET, or_nodes, subformulas

A, B, C = (AtomNode(Atom(n)) for n in "ABC")


def test_parse_grouping():
    assert parse("A and (B or C)") == And(A, Or(B, C))


def test_parse_self_disjunction():
    assert parse("A or A") == Or(A, A)


def test_parse_distinct_coefficients():
    f = parse("(A or B) and (A or C)")
    assert f == And(Or(A, B), Or(A, C))
    assert [path for path, _ in or_nodes(f)] == [(0,), (1,)]


def test_parse_precedence_and_tighter_than_or():
    assert parse("A and B or C") == Or(And(A, B), C)
    assert parse("A or B and C") == Or(A, And(B, C))


def test_parse_right_associativity():
    assert parse("A or B or C") == Or(A, Or(B, C))
    assert parse("A and B and C") == And(A, And(B, C))


def test_parse_coefficients_follow_textual_order():
    f = parse("(A or B) or (C or A)")
    assert f == Or(Or(A, B), Or(C, A))
    assert [path for path, _ in or_nodes(f)] == [(0,), (), (1,)]


def test_or_values_compare_equal_wherever_they_stand():
    f = parse("(A or B) or (A or B)")
    assert f.left == f.right == parse("A or B")
    assert len({f.left, f.right}) == 1


def test_parse_not_and_xor():
    assert parse("not A and B") == And(Not(A), B)
    assert parse("A xor B xor C") == Xor(A, Xor(B, C))
    assert parse("not not A") == Not(Not(A))


def test_parse_aspect_annotations():
    f = parse("talks:iterable and talks")
    atom = Atom("talks", "iterable")
    assert f == And(AtomNode(atom), AtomNode(atom))
    assert parse("talks and talks:iterable") == f  # a later annotation fixes it too
    assert parse("A") == A  # stative by default


@pytest.mark.parametrize("word", ["and", "or", "xor", "not"])
def test_a_keyword_is_no_atom_name(word):
    # `or and B` would be the text of such an atom and B, which parse refuses.
    with pytest.raises(ValueError, match="bad atom name"):
        Atom(word)
    for name in (word.upper(), word + "1", "stative"):  # near misses stay names
        f = And(AtomNode(Atom(name)), B)
        assert parse(unparse(f)) == f


def test_parse_conflicting_aspects_rejected():
    # reported at the annotation that conflicts
    for text, position in (("A:stative and A:iterable", 14),
                           ("A and A:iterable and B or A:stative", 26)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert "conflicting aspect for atom 'A'" in str(err.value)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("A and (B or")
    assert err.value.position == 11
    with pytest.raises(ParseError):
        parse("A &&& B")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("A or or B")
    with pytest.raises(ParseError):
        parse("(A or B")
    with pytest.raises(ParseError):
        parse("A:stale")


@pytest.mark.parametrize("text, message", [
    # the aspect scan never raises: the ')' is reported before the conflict
    ("A:stative ) A:iterable", "unexpected ')' (at position 10)"),
    ("A:foo", "expected aspect ('stative', 'iterable'), found 'foo' (at position 2)"),
    ("not " * 101 + "A", "formula nests deeper than 100 levels (at position 404)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, position", [("A:", 2), ("A and", 5), ("(A", 2), ("", 0)])
def test_parse_errors_at_the_end_name_the_end_of_input(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert "found 'end of input'" in str(err.value)


def test_unparse_minimal_parentheses():
    assert unparse(parse("A and (B or C)")) == "A and (B or C)"
    assert unparse(parse("(A and B) or (A and C)")) == "A and B or A and C"
    assert unparse(parse("(A or B) and (A or C)")) == "(A or B) and (A or C)"
    assert unparse(parse("(A or B) or C")) == "(A or B) or C"
    assert unparse(parse("not (A and B)")) == "not (A and B)"
    assert unparse(parse("talks:iterable")) == "talks:iterable"


@pytest.mark.parametrize("label", CORPUS_LABELS)
def test_corpus_round_trip(label):
    f = corpus_lookup(label)
    assert parse(unparse(f)) == f


@pytest.mark.parametrize("text", [
    "A or B", "(A or B) and (A or C)", "A or (B or (C or A))",
    "((A or B) or C) or A", "not (A or B) xor (C or A)",
])
def test_or_node_i_is_the_ith_or_keyword(text):
    # turning the i-th `or` of the text into `xor` turns or-node i into xor
    f = parse(text)
    keywords = [m.start() for m in re.finditer(r"\bor\b", text)]
    assert len(or_nodes(f)) == len(keywords)
    for (path, node), pos in zip(or_nodes(f), keywords):
        g = dict(subformulas(parse(f"{text[:pos]}xor{text[pos + 2:]}")))
        assert g[path] == Xor(node.left, node.right)


def test_or_nodes_are_in_order_not_pre_order():
    f = parse("((A or B) or C) or A")
    assert [path for path, _ in or_nodes(f)] == [(0, 0), (0,), ()]
    assert [path for path, node in subformulas(f) if isinstance(node, Or)] == \
        [(), (0,), (0, 0)]


def test_corpus_contents():
    assert corpus_lookup("1b") == Or(And(A, B), And(A, C))
    assert corpus_lookup("5a") == Or(A, And(A, B))
    assert corpus_lookup("6c") == And(A, A)
    assert corpus_lookup("2a") == Or(A, And(B, C))
    assert corpus_lookup("3a") == corpus_lookup("2a")  # sentential expansion
    assert corpus_lookup("4b") == corpus_lookup("2b")


def test_corpus_primed_variants_swap_one_or():
    assert corpus_lookup("2b") == And(Or(A, B), Or(A, C))
    assert corpus_lookup("2b'") == And(Or(A, B), Or(C, A))
    assert corpus_lookup("5c") == And(A, Or(A, B))
    assert corpus_lookup("5c'") == And(A, Or(B, A))


def test_corpus_unknown_label():
    with pytest.raises(UnknownLabelError):
        corpus_lookup("7a")


# Counts the calls of `formula.parse` with each text, from before the
# package's import to the end of an in-process `reproduce`.
PARSE_SPY = """
import contextlib, io, sys
from collections import Counter
texts = Counter()
def spy(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_name == "parse"
            and code.co_filename.endswith("formula.py") and "text" in frame.f_locals):
        texts[frame.f_locals["text"]] += 1
sys.setprofile(spy)
from coordsem.cli import main
from coordsem.formula import CORPUS_LABELS, corpus_lookup, _CORPUS_TEXT
with contextlib.redirect_stdout(io.StringIO()):
    main(["reproduce"])
    for label in CORPUS_LABELS:
        corpus_lookup(label)
sys.setprofile(None)
print(sorted({texts[_CORPUS_TEXT[label]] for label in CORPUS_LABELS}), texts["X or X"])
"""


def test_each_corpus_label_is_parsed_at_most_once_per_process():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", PARSE_SPY], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    # every corpus text parsed once; the spy sees the law schemas' parses too
    assert done.stdout == "[1] 1\n"


def test_a_corpus_lookup_shares_one_formula():
    for label in CORPUS_LABELS:
        assert corpus_lookup(label) is corpus_lookup(label)
    assert corpus_lookup("3a") is corpus_lookup("2a")  # one text, one parse
    with pytest.raises(UnknownLabelError) as err:
        corpus_lookup("7a")
    assert str(err.value) == ("unknown corpus label '7a'; known: 1a, 1b, 2a, 2b, 2b', "
                              "3a, 3b, 4a, 4b, 5a, 5b, 5c, 5c', 6a, 6b, 6c")


def test_length_metric():
    assert length_metric(A) == 1
    assert length_metric(corpus_lookup("2b")) == 7
    assert length_metric(corpus_lookup("1b")) == 7
    assert length_metric(corpus_lookup("5a")) == 5
    assert length_metric(parse("not A")) == 2


def test_instantiate_dis2():
    lhs, rhs = instantiate(DIS2, {"X": A, "Y": B, "Z": C})
    assert lhs == parse("A or (B and C)")
    assert rhs == parse("(A or B) and (A or C)")


def test_instantiate_ide2():
    lhs, rhs = instantiate(IDE2, {"X": A})
    assert lhs == parse("A and A")
    assert rhs == A


def test_instantiate_dis1_collapses_to_absorption():
    # the special case Z = X turns distribution into an absorption instance
    lhs, rhs = instantiate(DIS1, {"X": A, "Y": B, "Z": A})
    assert equivalent(lhs, A).valid
    assert equivalent(rhs, A).valid


def test_instantiate_numbers_or_nodes_by_position():
    lhs, rhs = instantiate(IDE1, {"X": parse("A or B")})
    assert (lhs, rhs) == (parse("(A or B) or (A or B)"), parse("A or B"))
    assert [path for path, _ in or_nodes(lhs)] == [(0,), (), (1,)]
    # the bound formula's or-node precedes the template's
    lhs, _ = instantiate(DIS2, {"X": parse("A or B"), "Y": B, "Z": C})
    assert [path for path, _ in or_nodes(lhs)] == [(0,), ()]


def test_instantiate_unbound_metavariable():
    with pytest.raises(UnboundMetavariableError):
        instantiate(DIS2, {"X": A, "Y": B})


def test_law_schema_templates_are_formulas():
    assert DIS1.lhs == parse("X and (Y or Z)")
    assert DIS1.metavariables == {"X", "Y", "Z"}
    assert IDE2.metavariables == {"X"}
    commutativity = LawSchema("Comm.1", parse("X and Y"), parse("Y and X"))
    assert check_law(commutativity).valid
    assert not check_law(LawSchema("Abs.0", parse("X and Y"), parse("X"))).valid


_CLASSICAL = ((MEET, "and"), (JOIN, "or"))


@pytest.mark.parametrize("lhs, rhs, connective_map, reason", [
    ("X and not Y", "X", _CLASSICAL, "only 'and' and 'or'"),
    ("X", "not X", _CLASSICAL, "only 'and' and 'or'"),
    ("X xor Y", "Y xor X", _CLASSICAL, "only 'and' and 'or'"),
    ("X or Y", "Y or X", ((MEET, "and"),), "not total on {'join'}"),
    ("X and Y", "Y and X", ((MEET, "and"), (MEET, "or")), "conflicting"),
    ("X and Y", "Y and X", ((MEET, "nand"),), "bad connective_map entry"),
    ("X and Y", "Y and X", ((MEET, "and"), ("top", "or")), "bad connective_map entry"),
])
def test_law_schema_rejects(lhs, rhs, connective_map, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        LawSchema("Bad", parse(lhs), parse(rhs), connective_map)


def test_with_connectives_rejects_unknown_connectives():
    with pytest.raises(ValueError, match="bad connective_map entry"):
        DIS1.with_connectives(join="nand")
    with pytest.raises(ValueError, match="bad connective_map entry"):
        DIS1.with_connectives(top="or")


def test_law_schema_equality_ignores_name():
    assert ABS1 != ABS2
    assert DIS1 != DIS2
    assert IDE1 != IDE2


# ---------------------------------------------------------------------------
# Properties

def _trees(aspects):
    """Formulas over the names of `aspects`, each atom with its name's aspect."""
    return st.recursive(
        st.builds(lambda n: AtomNode(Atom(n, aspects[n])), st.sampled_from(sorted(aspects))),
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Xor, kids, kids),
            st.builds(Not, kids),
        ),
        max_leaves=10,
    )


_tree = _trees(dict.fromkeys("ABCD", "stative"))


@given(_tree)
def test_parse_unparse_round_trip(f):
    assert parse(unparse(f)) == f


def _in_order_ors(f, path=()):
    """The reference numbering: a walk that visits a node between its
    children's subtrees."""
    if isinstance(f, Not):
        return _in_order_ors(f.child, path + (0,))
    if isinstance(f, AtomNode):
        return []
    here = [(path, f)] if isinstance(f, Or) else []
    return _in_order_ors(f.left, path + (0,)) + here + _in_order_ors(f.right, path + (1,))


@given(_tree)
def test_or_nodes_follow_an_in_order_walk(f):
    assert or_nodes(f) == _in_order_ors(f)


@given(_trees({"A": "iterable", "B": "iterable", "C": "stative", "D": "iterable"}),
       st.randoms(use_true_random=False))
def test_one_annotation_per_name_fixes_every_occurrence(f, rng):
    # strip `:iterable` from all but one occurrence of each iterable name
    annotated = re.compile(r"(\w+):iterable")
    text = unparse(f)
    starts: dict[str, list[int]] = {}
    for m in annotated.finditer(text):
        starts.setdefault(m.group(1), []).append(m.start())
    keep = {rng.choice(found) for found in starts.values()}
    stripped = annotated.sub(lambda m: m.group() if m.start() in keep else m.group(1), text)
    assert parse(stripped) == f


@given(_tree)
def test_length_counts_tokens_of_unparse(f):
    text = unparse(f)
    tokens = text.replace("(", " ").replace(")", " ").split()
    assert length_metric(f) == len(tokens)


# ---------------------------------------------------------------------------
# The tokenizer against a reference

_REFERENCE_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[():]|(\S)")
_KEYWORDS = {"and", "or", "xor", "not", "(", ")", ":"}


def reference_tokens(text):
    """(kind, value, position) of each token, then an end token, from one
    match object per token. A keyword's or punctuation's kind is its text;
    any other word is a "name"."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        if m.group(1):
            raise ParseError(f"unexpected character {m.group(1)!r}", m.start())
        value = m.group()
        tokens.append((value if value in _KEYWORDS else "name", value, m.start()))
    tokens.append(("end", "end of input", len(text)))
    return tokens


class ReferenceParser(formula._Parser):
    """parse's descent over `reference_tokens`, each token's position read
    off its match and each name's aspects found by kind."""

    def __init__(self, text):
        tokens = reference_tokens(text)
        self.text = text
        self.tokens = [value for _, value, _ in tokens]
        self.positions = [pos for _, _, pos in tokens]
        self.index = self.depth = 0
        self.iterable = {name for (kind, name, _), (colon, _, _), (_, aspect, _)
                         in zip(tokens, tokens[1:], tokens[2:])
                         if kind == "name" and colon == ":" and aspect == ITERABLE}
        self.declared = {}
        self.leaves = {}

    def _error(self, message, index):
        return ParseError(message, self.positions[index])


def _parsed(parser, text):
    """The tree, or the ParseError's message and position."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.position


def _assert_parses_as_the_reference(text):
    assert _parsed(parse, text) == _parsed(lambda t: ReferenceParser(t).parse(), text)


_PIECES = ["A", "B", "x1", "talks", "Or", "iterable", "stative", "and", "or", "xor", "not",
           "(", ")", ":", " ", " ", " ", "\t", "\n", "\xa0", "?", "é", "9", "_", "&", "1A"]


@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_parse_matches_the_reference_tokenizer(text):
    _assert_parses_as_the_reference(text)


@pytest.mark.parametrize("text", [
    "", "A", "A and ?", "A and (B or", "A9 and _b", "x_9 or 9x", "Aé or B", "A\xa0or B",
    "talks:iterable and talks", "A:stative and A:iterable", "A:", "A:foo", "(A or B",
    "A or B)", "not " * 101 + "A", "A &&& B", "A or or B", *formula._CORPUS_TEXT.values(),
])
def test_parse_matches_the_reference_tokenizer_on_examples(text):
    _assert_parses_as_the_reference(text)


def test_the_occurrences_of_a_name_share_one_leaf():
    f = parse("A:iterable or (B and not A)")
    assert f.left is f.right.right.child
    assert f.left.atom == Atom("A", ITERABLE)
    assert f == Or(AtomNode(Atom("A", ITERABLE)),
                   And(AtomNode(Atom("B")), Not(AtomNode(Atom("A", ITERABLE)))))
