"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from coordsem import assertions, consistent, parse, potential_clausal, potential_scalar, report
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


def test_judge_json_and_text_carry_the_same_payload(capsys, tmp_path):
    out_file = tmp_path / "payload.json"
    code, text_out, _ = run(capsys, "--out", str(out_file), "judge", "5a", "5b")
    assert code == 0
    code, json_out, _ = run(capsys, "--format", "json", "judge", "5a", "5b")
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(json_out)
    assert text_out  # text mode rendered the same payload


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "1a", "1b")
    assert code == 0
    assert "boolean-equivalent: yes" in out
    assert "option-equivalent:  yes" in out


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
    assert "holds" in out and "35 distributions" in out


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
        # Projecting a 100-node or-chain takes minutes (the consistency
        # checks grow with the fourth power of the or-count), so build
        # every potential constraint and check them all together instead:
        # the same walks over the chain that projection makes.
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
