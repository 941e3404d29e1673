"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coordsem import (
    assertions,
    cli,
    consistent,
    parse,
    potential_clausal,
    potential_scalar,
    prospect,
    report,
)
from coordsem.boolean import ATOM_LIMIT
from coordsem.cli import main
from coordsem.formula import _CORPUS_TEXT, CORPUS_LABELS, MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_laws_text(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0
    for name in ("Dis.1", "Dis.2", "Abs.1", "Abs.2", "Ide.1", "Ide.2"):
        assert f"{name:<6} valid" in out


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "laws")
    assert code == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_laws_xor_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "laws", "--connectives", "xor")
    assert code == 0
    data = json.loads(out)
    verdicts = {row["name"]: row["status"] for row in data["laws"]}
    assert verdicts == {"Dis.1": "valid", "Dis.2": "invalid", "Abs.1": "invalid",
                        "Abs.2": "invalid", "Ide.1": "invalid", "Ide.2": "valid"}
    for row in data["laws"]:
        assert (row["counterexample"] is not None) == (row["status"] == "invalid")


def test_denote_labels_and_text(capsys):
    code, out, _ = run(capsys, "denote", "5c", "A and A")
    assert code == 0
    assert "2A" in out and "A+B" in out


def test_judge_pair(capsys):
    code, out, _ = run(capsys, "judge", "2a", "2b")
    assert code == 0
    assert "judgment: acceptable" in out
    assert "judgment: weird_double_image" in out
    assert "boolean-equivalent: yes" in out
    assert "option-equivalent:  no" in out


@pytest.mark.parametrize("argv, passes", [
    (("judge", "1a"), 1),
    (("judge", "1a", "2b"), 2),
    (("judge", "1a", "2b", "5a"), 3),
    (("denote", "1a", "2b"), 2),
    (("equiv", "1a", "2b"), 2),
])
def test_one_option_pass_per_item(capsys, argv, passes):
    # each item's options and judgment come from one pass, and its pairs reuse it
    with mock.patch.object(prospect, "_option_pass", wraps=prospect._option_pass) as spy:
        code, _, _ = run(capsys, *argv)
    assert code == 0
    assert spy.call_count == passes


def test_judge_json_and_text_carry_the_same_payload(capsys, tmp_path):
    out_file = tmp_path / "payload.json"
    code, text_out, _ = run(capsys, "--out", str(out_file), "judge", "5a", "5b")
    assert code == 0
    code, json_out, _ = run(capsys, "--format", "json", "judge", "5a", "5b")
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(json_out)
    assert text_out  # text mode rendered the same payload
    both_file = tmp_path / "both.json"
    code, both_out, _ = run(capsys, "--format", "json", "--out", str(both_file),
                            "judge", "5a", "5b")
    assert code == 0
    assert both_file.read_text() == both_out == json_out  # the same bytes on both paths


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "1a", "1b")
    assert code == 0
    assert "boolean-equivalent: yes" in out
    assert "option-equivalent:  yes" in out


XOR_PAIR = ("A xor (B and C)", "(A xor B) and (A xor C)")
NOT_PAIR = ("not (A and B)", "not A or not B")


@pytest.mark.parametrize("pair, verdict, error", [
    (XOR_PAIR, ["no", "    counterexample: A=1 B=1 C=0"], "xor has no vector denotation"),
    (NOT_PAIR, ["yes"], "negation has no vector denotation"),
], ids=["xor", "not"])
def test_equiv_without_an_option_set_text(capsys, pair, verdict, error):
    code, out, err = run(capsys, "equiv", *pair)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{pair[0]} vs {pair[1]}:",
        f"  boolean-equivalent: {verdict[0]}",
        *verdict[1:],
        f"  option-equivalent:  undefined ({error})",
        "  judgments:          undefined",
        "  judged equivalent:  undefined",
    ]


@pytest.mark.parametrize("pair, valid, witness, error", [
    (XOR_PAIR, False, {"A": True, "B": True, "C": False}, "xor has no vector denotation"),
    (NOT_PAIR, True, None, "negation has no vector denotation"),
], ids=["xor", "not"])
def test_equiv_without_an_option_set_json(capsys, pair, valid, witness, error):
    code, out, err = run(capsys, "--format", "json", "equiv", *pair)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "command": "equiv", "left": pair[0], "right": pair[1],
        "boolean_equivalent": valid, "boolean_witness": witness,
        "option_equivalent": None, "option_witness": None,
        "judgments": None, "judged_equivalent": None, "vector_error": error,
    }


def test_equiv_with_option_sets_has_no_vector_error(capsys):
    code, out, _ = run(capsys, "--format", "json", "equiv", "1a", "2b")
    assert code == 0
    assert "vector_error" not in json.loads(out)


@pytest.mark.parametrize("pair", [XOR_PAIR, NOT_PAIR, ("1a", "2b")], ids=["xor", "not", "or"])
def test_equiv_compares_the_truth_tables_once(capsys, pair):
    # the verdict is computed first and reused whether or not both sides have options
    spy = mock.Mock(wraps=cli.equivalent)
    with mock.patch.object(cli, "equivalent", spy), mock.patch.object(report, "equivalent", spy):
        code, _, _ = run(capsys, "equiv", *pair)
    assert code == 0
    assert spy.call_count == 1


def test_implicatures_modes(capsys):
    code, gazdar, _ = run(capsys, "implicatures", "A or B")
    assert code == 0
    assert "K(not (A and B))" in gazdar
    code, soames, _ = run(capsys, "implicatures", "A or B", "--mode", "soames")
    assert code == 0
    assert "K(not (A and B))" not in soames
    code, opinion, _ = run(capsys, "implicatures", "A or B", "--mode", "soames",
                           "--opinionated", "0")
    assert code == 0
    assert "K(not (A and B))" in opinion


def test_implicatures_collapse_equal_disjuncts_that_contain_or(capsys):
    code, out, _ = run(capsys, "implicatures", "(A or B) or (A or B)")
    assert code == 0
    assert out.count("notK(A or B)") == 1
    assert out.count("notK(not (A or B))") == 1
    # the equal inner nodes' entries are told apart by their or-node numbers
    for node in (0, 2):
        assert out.count(f"  notK(A)  [clausal at or-node {node}]\n") == 1
        assert out.count(f"  K(not (A and B))  [scalar_strong at or-node {node}]\n") == 1
    assert "  notK(A or B)  [clausal at or-node 1]  clashes with: " in out
    assert "  K((A or B) or A or B)  [assertion]\n" in out


def test_prob_frege(capsys):
    code, out, _ = run(capsys, "prob", "frege", "--denominator", "4")
    assert code == 0
    assert "no_counterexample" in out
    code, out, _ = run(capsys, "prob", "frege", "--denominator", "4", "--drop-beta")
    assert code == 0
    assert "counterexample" in out and "witness" in out


def test_prob_explosion(capsys):
    code, out, _ = run(capsys, "prob", "explosion", "--denominator", "4")
    assert code == 0
    assert "explosion at denominator 4: no_counterexample (35 distributions checked)" in out


@pytest.mark.parametrize("check", ["frege", "corollary", "explosion", "ordering"])
def test_prob_searches_share_one_result_and_one_limit(capsys, check):
    code, out, _ = run(capsys, "--format", "json", "prob", check, "--denominator", "12")
    assert code == 0
    result = json.loads(out)["result"]
    assert sorted(result) == ["checked", "status", "witness"]
    code, out, err = run(capsys, "prob", check, "--denominator", "13")
    assert (code, out) == (2, "")
    assert "denominator must be in 1..12, got 13" in err


@pytest.mark.parametrize("check", ["corollary", "explosion", "ordering"])
def test_drop_beta_is_refused_outside_frege(capsys, check):
    code, out, err = run(capsys, "prob", check, "--denominator", "4", "--drop-beta")
    assert (code, out) == (2, "")
    assert f"--drop-beta applies to frege only, not {check}" in err


@pytest.mark.parametrize("argv, message", [
    (["A or B", "--opinionated", "0"],
     "opinionated or-node ids apply to soames mode only, got 0 in gazdar mode"),
    (["A or B", "--mode", "gazdar", "--opinionated", "0"],
     "opinionated or-node ids apply to soames mode only, got 0 in gazdar mode"),
    (["A or B", "--mode", "soames", "--opinionated", "5"],
     "no or-node 5: the or-node ids of 'A or B' are [0]"),
    (["A or B or C", "--mode", "soames", "--opinionated", "1,-1"],
     "no or-node -1: the or-node ids of 'A or B or C' are [0, 1]"),
    (["A and B", "--mode", "soames", "--opinionated", "0"],
     "no or-node 0: the or-node ids of 'A and B' are none"),
], ids=["default mode", "gazdar", "unknown id", "negative id", "no or-node"])
def test_opinionated_is_refused_outside_soames_or_on_unknown_ids(capsys, argv, message):
    code, out, err = run(capsys, "implicatures", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_reproduce_matches(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "0 mismatch" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("argv", [["reproduce"], ["laws"]], ids=" ".join)
@pytest.mark.parametrize("target", ["missing directory", "directory", "empty name"])
def test_unwritable_out_file_exits_2(capsys, tmp_path, argv, target):
    out_file = {"missing directory": tmp_path / "missing" / "x.json", "directory": tmp_path,
                "empty name": ""}[target]
    code, out, err = run(capsys, "--out", str(out_file), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_file}: ")
    assert err.count("\n") == 1


def test_reproduce_has_one_record_per_claim(capsys):
    code, out, _ = run(capsys, "--format", "json", "reproduce")
    data = json.loads(out)
    claims = [r["claim"] for r in data["records"]]
    assert len(claims) == len(set(claims))
    assert data["summary"]["claims"] == len(claims)


@pytest.mark.parametrize("atoms, status", [(5, 0), (ATOM_LIMIT + 1, 2)])
def test_implicatures_atom_limit_exits_2(capsys, atoms, status):
    code, out, err = run(capsys, "implicatures", " or ".join(f"P{i}" for i in range(atoms)))
    assert code == status
    assert ("accepted:" in out) == (status == 0)
    assert (f"{atoms} atoms exceed" in err) == (status == 2)


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "denote", "A and (B or")
    assert code == 2
    assert "position" in err


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("usage: coordsem ")
    assert "\ncoordsem: error: argument COMMAND: invalid choice: 'frobnicate' " in err


def test_tampered_corpus_is_detected(capsys, monkeypatch):
    # negative control: swap the 2b entry for 1b's text and watch the claim fail
    monkeypatch.setitem(_CORPUS_TEXT, "2b", _CORPUS_TEXT["1b"])
    records = report.build_records()
    failing = [r.claim for r in records if not r.matches]
    assert "appendix.options.2b" in failing
    code, out, _ = run(capsys, "reproduce")
    assert code == 1
    assert "MISMATCH" in out


# ---------------------------------------------------------------------------
# Deep and arbitrary input ends in a result or exit 2, never a traceback

def nested(shape, depth):
    """Formula text nesting `depth` levels through one construction."""
    if shape == "parens":
        return "(" * depth + "A" + ")" * depth
    if shape == "not":
        return "not " * depth + "A"
    return f" {shape} ".join(["A"] * (depth + 1))


SHAPES = ("parens", "and", "or", "not")
COMMANDS = ("denote", "judge", "equiv", "implicatures")


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_past_the_limit_is_a_parse_error(shape, command):
    args = (nested(shape, MAX_DEPTH + 1),) + (("A",) if command == "equiv" else ())
    code, err = run_quietly(command, *args)
    assert code == 2
    assert f"nests deeper than {MAX_DEPTH} levels" in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_is_accepted(shape, command):
    text = nested(shape, MAX_DEPTH)
    if (shape, command) == ("or", "implicatures"):
        # Projecting a 100-node or-chain takes seconds (its cost grows with
        # about the cube of the or-count; the CI workflow runs it in full),
        # so build every potential constraint and check them all together
        # instead: the same walks over the chain that projection makes.
        f = parse(text)
        constraints = assertions(f) + potential_clausal(f) + potential_scalar(f)
        assert consistent(constraints)[0] is False
        assert all(str(c) for c in constraints)
        return
    args = (text,) + (("A",) if command == "equiv" else ())
    code, err = run_quietly(command, *args)
    assert code in (0, 2)
    assert "nests deeper" not in err


_TOKENS = ["A", "B", "C:iterable", "D:stative", "and", "or", "xor", "not", "(", ")", ":"]


@settings(deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join)))
def test_equiv_on_arbitrary_text_exits_0_or_2(text):
    # text that reads as an unknown option exits 2, and -h exits 0
    code, _ = run_quietly("equiv", text, "A")
    assert code in (0, 2)


# ---------------------------------------------------------------------------
# The process contract: every argv, with stdout and stderr failing after any
# number of characters, ends in exit 0 or 2 and never in an exception

class FailingStream(io.StringIO):
    """A stream that takes `limit` characters and raises `OSError(code)`
    on the write that would pass them; a limit of None takes everything."""

    def __init__(self, limit, code):
        super().__init__()
        self.limit, self.code = limit, code

    def write(self, text):
        if self.limit is not None and self.tell() + len(text) > self.limit:
            super().write(text[:self.limit - self.tell()])
            raise OSError(self.code, os.strerror(self.code))
        return super().write(text)


_OPTIONS = cli.GLOBAL_OPTIONS + tuple(option for spec in cli.COMMANDS.values()
                                      for option in spec[4])
_CHOICES = tuple(choice for _, values, _, _ in _OPTIONS if isinstance(values, tuple)
                 for choice in values) + tuple(
    choice for spec in cli.COMMANDS.values() for _, _, values in spec[3]
    if isinstance(values, tuple) for choice in values)
# Commands, flags, choices and corpus labels from the CLI's tables, values
# in and out of range, and formula text that parses, does not, or passes a
# limit on its first check. The 2^16-option conjunction is left out: it
# takes seconds.
_WORDS = st.sampled_from((
    *cli.COMMANDS, *(flag for flag, _, _, _ in _OPTIONS if flag != "--out"), *_CHOICES,
    *CORPUS_LABELS, "-h", "--nosuch", "--", "0", "1", "12", "13", "-1", "x", "0,1",
    "A or B", "A and ?", nested("parens", MAX_DEPTH), nested("parens", MAX_DEPTH + 1),
    " or ".join(f"P{i}" for i in range(ATOM_LIMIT + 1)),
    " or ".join(f"P{i}" for i in range(prospect.COEFF_LIMIT + 2)),
))
# the global options: --format, and --out to a file that can be written,
# into a missing directory, or named ""
_GLOBAL = st.one_of(st.sampled_from(("text", "json")).map(lambda f: ["--format", f]),
                    st.sampled_from(("FILE", "MISSING", "")).map(lambda f: ["--out", f]))
# Before the command, global options or any word; after it, any words, or a
# few labels and choices, which more often make a command line that runs.
_CONTRACT_ARGVS = st.tuples(
    st.lists(st.one_of(_GLOBAL, _WORDS.map(lambda word: [word])), max_size=2),
    st.sampled_from(tuple(cli.COMMANDS)),
    st.one_of(st.lists(_WORDS, max_size=4),
              st.lists(st.sampled_from(CORPUS_LABELS + _CHOICES), max_size=2)),
).map(lambda t: [*(word for words in t[0] for word in words), t[1], *t[2]])
_LIMITS = st.one_of(st.none(), st.integers(0, 4000))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@settings(max_examples=400, deadline=None)
@given(argv=_CONTRACT_ARGVS, out_limit=_LIMITS, err_limit=_LIMITS,
       code=st.sampled_from((errno.EPIPE, errno.ENOSPC)))
def test_every_argv_and_failed_write_exits_0_or_2(out_dir, argv, out_limit, err_limit, code):
    targets = {"FILE": str(out_dir / "x.json"), "MISSING": str(out_dir / "missing" / "x.json")}
    argv = [targets.get(word, word) for word in argv]
    out, err = FailingStream(out_limit, code), FailingStream(err_limit, code)
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)  # no exception leaves main
    assert status in (0, 2)
    if status == 0:
        working = io.StringIO()
        with redirect_stdout(working), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        assert out.getvalue() == working.getvalue()
    elif err_limit is None:
        report = err.getvalue()
        assert report.endswith("\n")
        *before, last = report[:-1].split("\n")
        if last.startswith("coordsem: error: "):
            assert len(before) == 1 and before[0].startswith("usage: coordsem")
        else:
            assert last.startswith("error: ") and before == []


# ---------------------------------------------------------------------------
# The command table reads the command line as the argparse parser it
# replaced did. That parser is kept here as the oracle.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coordsem")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="FILE")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("laws")
    p.add_argument("--connectives", choices=("classical", "xor"), default="classical")
    p.set_defaults(handler=cli._cmd_laws, render=cli._render_laws)

    p = sub.add_parser("denote")
    p.add_argument("items", nargs="+", metavar="ITEM")
    p.set_defaults(handler=cli._cmd_denote, render=cli._render_denote)

    p = sub.add_parser("judge")
    p.add_argument("items", nargs="+", metavar="ITEM")
    p.set_defaults(handler=cli._cmd_judge, render=cli._render_judge)

    p = sub.add_parser("equiv")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=cli._cmd_equiv, render=cli._render_equiv)

    p = sub.add_parser("implicatures")
    p.add_argument("item")
    p.add_argument("--mode", choices=("gazdar", "soames"), default="gazdar")
    p.add_argument("--opinionated", default="")
    p.set_defaults(handler=cli._cmd_implicatures, render=cli._render_implicatures)

    p = sub.add_parser("prob")
    p.add_argument("check", choices=("frege", "corollary", "explosion", "ordering"))
    p.add_argument("--denominator", type=int, default=6)
    p.add_argument("--drop-beta", action="store_true")
    p.set_defaults(handler=cli._cmd_prob, render=cli._render_prob)

    p = sub.add_parser("reproduce")
    p.set_defaults(handler=cli._cmd_reproduce, render=cli._render_reproduce)

    return parser


# every field main() or a handler reads
FIELDS = ("format", "out", "handler", "render", "connectives", "items", "left", "right",
          "item", "mode", "opinionated", "check", "denominator", "drop_beta")


def fields(args) -> dict:
    return {name: getattr(args, name) for name in FIELDS if hasattr(args, name)}


def oracle(argv: list[str]):
    """argparse's reading of `argv`: the fields, or the exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as stop:
            return stop.code
    read = fields(args)
    # A second "--" taken alone by a one-token positional: argparse drops
    # it from that positional's tokens too and leaves an empty list, which
    # the handler fails on with a traceback. The table keeps the "--".
    for name in ("left", "right", "item"):
        if read.get(name) == []:
            read[name] = "--"
    return read


def table(argv: list[str]):
    """`cli.parse_argv`'s reading of `argv`: the fields, or the exit code."""
    try:
        args = cli.parse_argv(argv)
    except cli.UsageExit as stop:
        return 0 if stop.error is None else 2
    return fields(args)


COMMAND_NAMES = ("laws", "denote", "judge", "equiv", "implicatures", "prob", "reproduce")
ALPHABET = (
    *COMMAND_NAMES,
    "--format", "--out", "--connectives", "--mode", "--opinionated", "--denominator",
    "--drop-beta", "--form", "--conn", "--den", "--drop", "--d",
    "--format=json", "--format=xml", "--out=x.json", "--conn=xor", "--mode=soames",
    "--mode=", "--opinionated=0", "--den=8", "--denominator=x", "--d=4", "--drop-beta=1",
    "text", "json", "classical", "xor", "gazdar", "soames", "frege", "corollary",
    "explosion", "ordering", "nosuch", "7", "-3", "x", "1a", "2b", "5c", "A or B",
    "-h", "--help", "-x", "--nosuch", "--",
)
TOKENS = st.sampled_from(ALPHABET)
ARGVS = st.one_of(
    st.lists(TOKENS, max_size=6),
    st.tuples(st.lists(TOKENS, max_size=2), st.sampled_from(COMMAND_NAMES),
              st.lists(TOKENS, max_size=3)).map(lambda t: [*t[0], t[1], *t[2]]),
)


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_the_table_reads_argv_as_argparse_did(argv):
    assert table(argv) == oracle(argv)


# One token of each kind: exact flag, prefix, ambiguous prefix, "=" form,
# choice, bad choice, int, negative number, spaced text, help, unknown
# option and "--". Every argv of a command and up to 2 of them, or of up to
# 2 of them and `reproduce`, takes about a second against argparse.
SHORT_ALPHABET = (
    "--format", "--denominator", "--drop-beta", "--form", "--den", "--d",
    "--format=json", "--conn=xor", "--mode=soames", "--den=8", "--drop-beta=1",
    "json", "soames", "ordering", "nosuch", "7", "-3", "A or B", "-h", "-x", "--",
)


def test_the_table_reads_every_short_argv_as_argparse_did():
    assert set(SHORT_ALPHABET) <= set(ALPHABET)
    parser = build_parser()
    argvs = [[command, *rest] for command in COMMAND_NAMES
             for n in range(3) for rest in product(SHORT_ALPHABET, repeat=n)]
    argvs += [[*first, "reproduce"] for n in (1, 2) for first in product(SHORT_ALPHABET, repeat=n)]
    with mock.patch(f"{__name__}.build_parser", return_value=parser):
        for argv in argvs:
            assert table(argv) == oracle(argv), argv
    assert len(argvs) == 3703


@pytest.mark.parametrize("argv, expected", [
    # "--" ends the options; it is dropped where a positional takes a token beside it
    (["prob", "--", "ordering"], {"check": "ordering"}),
    (["prob", "ordering", "--"], {"check": "ordering"}),
    (["judge", "--", "-x", "--h"], {"items": ["-x", "--h"]}),
    (["judge", "2a", "--", "--", "2b"], {"items": ["2a", "--", "2b"]}),
    (["equiv", "1a", "--", "-3"], {"left": "1a", "right": "-3"}),
    (["implicatures", "--mode", "soames", "--", "--mode"], {"item": "--mode", "mode": "soames"}),
    (["prob", "frege", "--", "--drop-beta"], 2),
    (["prob", "frege", "--drop-beta", "--"], 2),
    (["reproduce", "--"], 2),
    (["--", "reproduce"], 2),
    (["judge", "--"], 2),
    # unique prefixes, and a prefix of two flags
    (["prob", "ordering", "--den", "8", "--dr"], {"denominator": 8, "drop_beta": True}),
    (["--form=json", "laws", "--conn=xor"], {"format": "json", "connectives": "xor"}),
    (["prob", "ordering", "--d", "8"], 2),
    (["prob", "ordering", "--d=8"], 2),
    (["prob", "--d", "-h"], 2),
    # global options after the command
    (["laws", "--format", "json"], 2),
    (["reproduce", "--out", "x.json"], 2),
    (["judge", "2a", "--format=json"], 2),
    # negative numbers are values and positionals
    (["prob", "ordering", "--denominator", "-3"], {"denominator": -3}),
    (["--out", "-1", "denote", "-1"], {"out": "-1", "items": ["-1"]}),
    # help answers at once; unknown options are refused after it
    (["-x", "laws", "-h"], 0),
    (["prob", "--nosuch", "--help"], 0),
    (["prob", "nosuch", "-h"], 2),
    (["--format", "xml", "-h"], 2),
])
def test_the_table_and_argparse_agree_on(argv, expected):
    read = table(argv)
    assert read == oracle(argv)
    if isinstance(expected, int):
        assert read == expected
    else:
        assert expected.items() <= read.items()


def test_a_run_fills_the_positionals_it_can():
    # argparse fills `left` from the run before the option, so only `right`
    # is missing
    with pytest.raises(cli.UsageExit, match="^the following arguments are required: RIGHT$"):
        cli.parse_argv(["equiv", "1a", "-x"])


def test_a_second_dash_dash_taken_alone_is_formula_text(capsys):
    # argparse gave `right` an empty list here, and the handler a traceback
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert build_parser().parse_args(["equiv", "1a", "--", "--"]).right == []
    assert cli.parse_argv(["equiv", "1a", "--", "--"]).right == "--"
    code, out, err = run(capsys, "equiv", "1a", "--", "--")
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '-' (at position 0)\n"


def test_help_joined_to_more_letters_is_an_unknown_option(capsys):
    # argparse read -hh as -h -h; the table knows -h and --help alone
    assert oracle(["-hh"]) == 0
    assert table(["-hh"]) == 2
    code, out, err = run(capsys, "laws", "-hh")
    assert (code, out) == (2, "")
    assert err.endswith("coordsem: error: unrecognized arguments: -hh\n")


@pytest.mark.parametrize("argv", [["prob", "nosuch"], ["judge"], ["prob", "ordering", "--d", "8"],
                                  ["--format"], []], ids=" ".join)
def test_a_usage_error_prints_usage_and_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage_line, error_line = err.splitlines()
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    assert usage_line == f"usage: {cli.usage(command)}"
    assert error_line.startswith("coordsem: error: ")


def words_of(parser: argparse.ArgumentParser) -> tuple[set[str], dict]:
    """Every flag and choice of `parser`'s arguments, and its commands' parsers."""
    words, commands = set(), {}
    for action in parser._actions:
        words.update(action.option_strings)
        words.update(action.choices or ())
        if isinstance(action, argparse._SubParsersAction):
            commands = action.choices
    return words, commands


def unnamed(words: set[str], text: str) -> list[str]:
    return sorted(w for w in words if not re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", text))


def test_help_names_every_command_option_and_choice(capsys):
    words, commands = words_of(build_parser())
    assert set(commands) == set(COMMAND_NAMES)
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: {cli.usage()}\n")
        assert unnamed(words, out) == []
    for command, parser in commands.items():
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: {cli.usage(command)}\n")
        assert unnamed(words_of(parser)[0], out) == []


def test_the_readme_shows_the_usage_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```\n(.*?)```\n", readme, re.M | re.S).group(1)
    assert block.splitlines() == [cli.usage(), *map(cli.usage, cli.COMMANDS)]
