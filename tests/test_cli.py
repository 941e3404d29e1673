"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
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
from coordsem.formula import _CORPUS_TEXT, MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_laws_text(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0
    for name in ("Dis.1", "Dis.2", "Abs.1", "Abs.2", "Ide.1", "Ide.2"):
        assert f"{name:<6} valid" in out


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
    (["A or B", "--opinionated", "0"], "--opinionated applies to soames mode only"),
    (["A or B", "--mode", "gazdar", "--opinionated", "0"],
     "--opinionated applies to soames mode only"),
    (["A or B", "--mode", "soames", "--opinionated", "5"],
     "--opinionated names or-node 5, but the or-node ids of 'A or B' are [0]"),
    (["A or B or C", "--mode", "soames", "--opinionated", "1,-1"],
     "--opinionated names or-node -1, but the or-node ids of 'A or B or C' are [0, 1]"),
    (["A and B", "--mode", "soames", "--opinionated", "0"],
     "--opinionated names or-node 0, but the or-node ids of 'A and B' are none"),
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
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_file_exits_2(capsys, tmp_path, argv, target):
    out_file = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
    try:
        code, _ = run_quietly("equiv", text, "A")
    except SystemExit as exc:
        # argparse exits 2 on text that reads as an unknown option and 0 on -h
        code = exc.code
    assert code in (0, 2)
