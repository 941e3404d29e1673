"""The immutable-record base against `@dataclass(frozen=True)` twins.

Each of the package's record classes has a frozen-dataclass twin here, with
the same name, fields, defaults and `__post_init__`, as the classes were
declared before the base replaced the decorator. The twins are the oracle
for hashes (which fix set and dict iteration orders), reprs, equality,
frozenness, construction and the checks run after it.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from coordsem import boolean, formula as fm, implicature as imp, prospect as ps
from coordsem import relevance as rl, report as rp
from coordsem._record import Record

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Twins

@dataclass(frozen=True)
class Atom:
    name: str
    aspect: str = fm.STATIVE
    __post_init__ = fm.Atom.__post_init__


@dataclass(frozen=True)
class AtomNode:
    atom: Atom


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Xor:
    left: object
    right: object


@dataclass(frozen=True)
class LawSchema:
    name: str = field(compare=False)
    lhs: object
    rhs: object
    connective_map: tuple = ((fm.MEET, "and"), (fm.JOIN, "or"))
    __post_init__ = fm.LawSchema.__post_init__


@dataclass(frozen=True)
class Prospect:
    parts: tuple
    __post_init__ = ps.Prospect.__post_init__


@dataclass(frozen=True)
class OptionSet:
    prospects: tuple

    def __eq__(self, other):
        if not isinstance(other, OptionSet):
            return NotImplemented
        return frozenset(self.prospects) == frozenset(other.prospects)

    def __hash__(self):
        return hash(frozenset(self.prospects))


@dataclass(frozen=True)
class OptionComparison:
    equal: bool
    witness: Optional[Prospect] = None


@dataclass(frozen=True)
class Judgment:
    category: ps.Category
    double_images: tuple = ()
    hobson_nodes: tuple = ()


@dataclass(frozen=True)
class PairComparison:
    boolean: object
    options: object
    judgment_left: object
    judgment_right: object


@dataclass(frozen=True)
class ReportRecord:
    claim: str
    inputs: str
    expected: object
    computed: object


@dataclass(frozen=True)
class EpistemicConstraint:
    polarity: imp.Polarity
    body: object
    provenance: imp.Provenance
    source: Optional[int]


@dataclass(frozen=True)
class Suppression:
    constraint: object
    clashes_with: tuple


@dataclass(frozen=True)
class ImplicatureReport:
    mode: imp.Mode
    accepted: tuple
    suppressed: tuple


@dataclass(frozen=True)
class RationalDist:
    atoms: tuple
    masses: tuple
    __post_init__ = rl.RationalDist.__post_init__


@dataclass(frozen=True)
class SearchResult:
    status: rl.SearchStatus
    point: object
    checked: int


@dataclass(frozen=True)
class LikelihoodPair:
    given_h: Fraction
    given_not_h: Fraction


@dataclass(frozen=True)
class LawVerdict:
    status: boolean.Verdict
    counterexample: Optional[dict] = None
    binding: Optional[dict] = None


TWINS = {
    fm.Atom: Atom, fm.AtomNode: AtomNode, fm.Not: Not, fm.And: And, fm.Or: Or,
    fm.Xor: Xor, fm.LawSchema: LawSchema, ps.Prospect: Prospect, ps.OptionSet: OptionSet,
    ps.OptionComparison: OptionComparison, ps.Judgment: Judgment,
    rp.PairComparison: PairComparison, rp.ReportRecord: ReportRecord,
    imp.EpistemicConstraint: EpistemicConstraint, imp.Suppression: Suppression,
    imp.ImplicatureReport: ImplicatureReport, rl.RationalDist: RationalDist,
    rl.SearchResult: SearchResult, rl.LikelihoodPair: LikelihoodPair,
    boolean.LawVerdict: LawVerdict,
}


def twin(x):
    """x with every record in it, at any depth, replaced by its twin."""
    if type(x) in TWINS:
        cls = TWINS[type(x)]
        return cls(**{f.name: twin(getattr(x, f.name)) for f in fields(cls)})
    if type(x) is tuple:
        return tuple(twin(v) for v in x)
    return x


def records_in(x):
    """Every record in x, at any depth, x first."""
    if type(x) in TWINS:
        yield x
        for f in fields(TWINS[type(x)]):
            yield from records_in(getattr(x, f.name))
    elif type(x) is tuple:
        for v in x:
            yield from records_in(v)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as err:  # a field holds a dict
        return str(err)


def _samples():
    options, judgment = ps._judged(fm.parse("A and (A or B)"))
    d = rl.RationalDist.from_cells(["A", "H"], {(True, True): Fraction(1, 2),
                                                (False, False): Fraction(1, 2)})
    return [
        fm.parse("A:iterable and (B or not C) xor D"),
        fm.DIS2,
        fm.DIS2.with_connectives(join="xor"),
        options,
        judgment,
        ps.judge(fm.parse("A or A")),
        rp.compare(fm.corpus_lookup("2a"), fm.corpus_lookup("2b")),
        rp.parity_records()[0],
        imp.project(fm.corpus_lookup("6a")),
        rl.check_frege_theorem(6, ("none",)),
        d,
        rl.llr(d, fm.parse("A"), fm.parse("H")),
        boolean.check_law(fm.DIS2.with_connectives(join="xor")),
    ]


SAMPLES = [r for s in _samples() for r in records_in(s)]


# ---------------------------------------------------------------------------
# Tests

def test_every_record_class_has_a_twin_and_a_sample():
    assert set(Record.__subclasses__()) == set(TWINS)
    assert len(TWINS) == 20
    assert {type(r) for r in SAMPLES} == set(TWINS)
    # no metaclass, so isinstance keeps CPython's fast path
    assert all(type(cls) is type for cls in TWINS)


def test_hash_and_repr_match_the_twin():
    for record in SAMPLES:
        other = twin(record)
        assert repr(record) == repr(other)
        assert hash_or_error(record) == hash_or_error(other)


def test_equality_matches_the_twin():
    for x in SAMPLES:
        for y in SAMPLES:
            if type(x) is type(y):
                assert (x == y) is (twin(x) == twin(y))
                assert (x != y) is (twin(x) != twin(y))


def test_a_rebuilt_record_is_equal():
    for record in SAMPLES:
        names = [f.name for f in fields(TWINS[type(record)])]
        copy = type(record)(*(getattr(record, name) for name in names))
        assert copy == record and copy is not record
        assert hash_or_error(copy) == hash_or_error(record)
        assert type(record)(**{name: getattr(record, name) for name in names}) == record


def test_assignment_and_deletion_raise_as_in_the_twin():
    for record in SAMPLES:
        other = twin(record)
        for name in [f.name for f in fields(other)] + ["extra"]:
            for act in (lambda x: setattr(x, name, None), lambda x: delattr(x, name)):
                with pytest.raises(AttributeError) as mine:
                    act(record)
                with pytest.raises(AttributeError) as theirs:
                    act(other)
                assert str(mine.value) == str(theirs.value)
        assert twin(record) == other  # nothing changed


_leaf = st.builds(lambda name, aspect: fm.AtomNode(fm.Atom(name, aspect)),
                  st.sampled_from("ABC"), st.sampled_from(fm.ASPECTS))
_formulas = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(fm.Not, kids),
        st.builds(fm.And, kids, kids),
        st.builds(fm.Or, kids, kids),
        st.builds(fm.Xor, kids, kids),
    ),
    max_leaves=8,
)


@given(_formulas, _formulas)
def test_formulas_hash_print_and_compare_as_their_twins(f, g):
    assert hash(f) == hash(twin(f))
    assert repr(f) == repr(twin(f))
    assert (f == g) is (twin(f) == twin(g))
    assert fm.And(f, g) != fm.Xor(f, g)
    assert twin(fm.And(f, g)) != twin(fm.Xor(f, g))
    # sets of formulas iterate in the same order as sets of their twins
    assert [twin(x) for x in {f, g, fm.Not(f)}] == list({twin(f), twin(g), Not(twin(f))})


_a, _b = fm.parse("A"), fm.parse("B")

CONSTRUCTIONS = [
    (fm.Atom, ("A",), {}),
    (fm.Atom, (), {"name": "A", "aspect": fm.ITERABLE}),
    (fm.Atom, ("A",), {"aspect": fm.ITERABLE}),
    (fm.Or, (_a,), {"right": _b}),
    (fm.LawSchema, ("L", _a, _b), {}),
    (fm.LawSchema, (), {"name": "L", "lhs": fm.parse("X or Y"), "rhs": fm.parse("Y or X"),
                        "connective_map": ((fm.JOIN, "xor"), (fm.JOIN, "xor"))}),
    (ps.OptionComparison, (True,), {}),
    (ps.OptionComparison, (False,), {"witness": ps.Prospect((("A", 1),))}),
    (ps.Judgment, (ps.Category.ACCEPTABLE,), {}),
    (ps.Judgment, (ps.Category.ODD_HOBSON,), {"hobson_nodes": (0,)}),
    (boolean.LawVerdict, (boolean.Verdict.VALID,), {}),
    (boolean.LawVerdict, (boolean.Verdict.INVALID,), {"binding": {"X": "X"}}),
    (rl.LikelihoodPair, (), {"given_not_h": Fraction(1, 3), "given_h": Fraction(1, 2)}),
]


@pytest.mark.parametrize("cls, args, kwargs", CONSTRUCTIONS,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(CONSTRUCTIONS)])
def test_keyword_construction_and_defaults(cls, args, kwargs):
    assert repr(cls(*args, **kwargs)) == repr(TWINS[cls](*args, **kwargs))


def _assert_raises_as_the_twin(cls, args, kwargs):
    with pytest.raises(TypeError) as mine:
        cls(*args, **kwargs)
    with pytest.raises(TypeError) as theirs:
        TWINS[cls](*args, **kwargs)
    assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # name missing
    (("A", fm.STATIVE, 1), {}),  # one too many
    (("A",), {"name": "B"}),  # name twice
    (("A",), {"colour": "red"}),  # no such field
])
def test_bad_calls_raise_type_error(args, kwargs):
    _assert_raises_as_the_twin(fm.Atom, args, kwargs)


BAD_CALLS = [
    (fm.And, (), {}),  # two required fields
    (fm.And, (_a,), {}),
    (fm.And, (_a, _b, _a), {}),
    (fm.And, (), {"right": _b}),
    (boolean.LawVerdict, (), {"binding": None}),  # defaults
    (boolean.LawVerdict, (boolean.Verdict.VALID, None, None, None), {}),
    (boolean.LawVerdict, (boolean.Verdict.VALID, None), {"counterexample": None}),
    (fm.LawSchema, ("L",), {"connective_map": ()}),  # a __post_init__
    (fm.LawSchema, ("L", _a, _b), {"name": "M"}),
    (fm.LawSchema, ("L", _a, _b, (), None), {}),
]


@pytest.mark.parametrize("cls, args, kwargs", BAD_CALLS,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(BAD_CALLS)])
def test_bad_calls_to_more_classes_raise_as_in_the_twin(cls, args, kwargs):
    _assert_raises_as_the_twin(cls, args, kwargs)


def test_signatures_match_the_twin():
    def parameters(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    for cls, other in TWINS.items():
        assert parameters(cls) == parameters(other), cls.__name__


_F = Fraction
POST_INIT_ERRORS = [
    (fm.Atom, ("1A",)),
    (fm.Atom, ("A", "momentary")),
    (ps.Prospect, ((),)),
    (ps.Prospect, ((("A", 0),),)),
    (ps.Prospect, ((("B", 1), ("A", 1)),)),
    (rl.RationalDist, (("B", "A"), (_F(1, 4),) * 4)),
    (rl.RationalDist, (("A",), (_F(1),))),
    (rl.RationalDist, (("A",), (_F(3, 2), _F(-1, 2)))),
    (rl.RationalDist, (("A",), (_F(1, 2), _F(1, 4)))),
    (fm.LawSchema, ("L", fm.parse("not X"), fm.parse("X"))),
    (fm.LawSchema, ("L", fm.parse("X or Y"), fm.parse("Y or X"), ((fm.MEET, "and"),))),
    (fm.LawSchema, ("L", _a, _b, ((fm.JOIN, "or"), (fm.JOIN, "and")))),
    (fm.LawSchema, ("L", _a, _b, (("top", "or"),))),
]


@pytest.mark.parametrize("cls, args", POST_INIT_ERRORS,
                         ids=[f"{c.__name__}-{i}" for i, (c, _) in enumerate(POST_INIT_ERRORS)])
def test_post_init_errors_are_unchanged(cls, args):
    with pytest.raises(ValueError) as mine:
        cls(*args)
    with pytest.raises(ValueError) as theirs:
        TWINS[cls](*args)
    assert str(mine.value) == str(theirs.value)


def test_law_schema_equality_and_hash_ignore_the_name():
    one, two = fm.LawSchema("one", _a, _b), fm.LawSchema("two", _a, _b)
    assert one == two and hash(one) == hash(two)
    assert twin(one) == twin(two) and hash(twin(one)) == hash(twin(two))
    assert "name='one'" in repr(one)
    assert one != fm.LawSchema("one", _b, _a)


def test_option_sets_keep_set_level_equality():
    p, q = ps.Prospect((("A", 1),)), ps.Prospect((("B", 1),))
    assert ps.OptionSet((p, q)) == ps.OptionSet((q, p))
    assert hash(ps.OptionSet((p, q))) == hash(ps.OptionSet((q, p)))
    assert repr(ps.OptionSet((p, q))) == repr(OptionSet((twin(p), twin(q))))


def test_cold_import_leaves_dataclasses_and_inspect_out():
    # only what the package itself imports counts, not what the
    # interpreter's start-up had loaded already
    code = ("import sys\nbefore = set(sys.modules)\nimport coordsem.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
