"""Command-line front end.

Subcommands: laws, denote, judge, equiv, implicatures, prob, reproduce.
Every subcommand builds one JSON-serializable payload; --format picks the
rendering (text tables or JSON of that same payload), --out additionally
dumps the payload as JSON to a file, before anything is printed. Exit codes:
0 success, 1 claim mismatch from `reproduce`, 2 usage or parse errors or an
--out file that cannot be written.

`run` is the process entry, behind both the `coordsem` script and
`python -m coordsem`: it freezes everything the imports built out of the
garbage collector, runs `main`, flushes stdout and stderr and ends the
process with `main`'s code, skipping the interpreter's teardown.
`main(argv)` is the in-process entry and leaves the collector as it finds
it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import combinations
from typing import NoReturn, Optional, Sequence

from . import implicature as imp
from . import report
from .boolean import check_law, equivalent
from .errors import UnsupportedConnectiveError, WorkbenchError
from .formula import (
    CORPUS_LABELS,
    STANDARD_LAWS,
    Formula,
    corpus_lookup,
    length_metric,
    or_nodes,
    parse,
    unparse,
)
from .prospect import Judgment, OptionSet, _judged
from .relevance import (
    check_disjunction_corollary,
    check_frege_theorem,
    check_relevance_ordering,
    explosion_on_grid,
)


def _resolve(item: str) -> Formula:
    """Corpus label if it is one, otherwise formula text."""
    if item in CORPUS_LABELS:
        return corpus_lookup(item)
    return parse(item)


# ---------------------------------------------------------------------------
# Handlers: each returns a JSON-serializable payload

def _cmd_laws(args: argparse.Namespace) -> dict:
    rows = []
    for law in STANDARD_LAWS:
        schema = law if args.connectives == "classical" else law.with_connectives(join="xor")
        verdict = check_law(schema)
        rows.append({
            "name": law.name,
            "status": verdict.status.value,
            "counterexample": verdict.counterexample,
            "binding": verdict.binding,
        })
    return {"command": "laws", "connectives": args.connectives, "laws": rows}


def _render_laws(data: dict) -> str:
    lines = [f"law matrix under {data['connectives']} connectives"]
    for row in data["laws"]:
        if row["counterexample"] is None:
            lines.append(f"  {row['name']:<6} {row['status']}")
        else:
            lines.append(f"  {row['name']:<6} {row['status']}  "
                         f"counterexample: {_format_assignment(row['counterexample'])}")
    return "\n".join(lines) + "\n"


def _format_assignment(assignment: dict) -> str:
    return " ".join(f"{k}={'1' if v else '0'}" for k, v in assignment.items())


def _item(item: str) -> tuple[Formula, tuple[OptionSet, Judgment], dict]:
    """An item's formula, its option set and judgment from one pass, and its payload."""
    f = _resolve(item)
    options, judgment = judged = _judged(f)
    return f, judged, {"input": item, "formula": unparse(f), "length": length_metric(f),
                       "options": options.serialize(), "judgment": judgment.serialize()}


def _cmd_denote(args: argparse.Namespace) -> dict:
    return {"command": "denote", "items": [_item(i)[2] for i in args.items]}


def _format_options(serialized: list) -> str:
    return "{" + ", ".join("+".join(f"{name}" if coeff == 1 else f"{coeff}{name}"
                                    for name, coeff in option)
                           for option in serialized) + "}"


def _render_denote(data: dict) -> str:
    lines = []
    for item in data["items"]:
        lines.append(f"{item['input']}: {item['formula']}")
        lines.append(f"  options: {_format_options(item['options'])}")
    return "\n".join(lines) + "\n"


def _cmd_judge(args: argparse.Namespace) -> dict:
    items = [_item(i) for i in args.items]  # each payload before the next parse
    # the pairs reuse their items' option passes
    pairs = [{"left": a, "right": b, **report._comparison(equivalent(f, g), fj, gj).serialize()}
             for (a, (f, fj, _)), (b, (g, gj, _)) in combinations(zip(args.items, items), 2)]
    return {"command": "judge", "items": [payload for _, _, payload in items], "pairs": pairs}


def _render_judge(data: dict) -> str:
    lines = []
    for item in data["items"]:
        j = item["judgment"]
        lines.append(f"{item['input']}: {item['formula']}")
        lines.append(f"  options:  {_format_options(item['options'])}")
        lines.append(f"  judgment: {j['category']}")
        for option, name, coeff in j["double_images"]:
            lines.append(f"    double image: {_format_options([option])} "
                         f"({name} at coefficient {coeff})")
        for node in j["hobson_nodes"]:
            lines.append(f"    hobson's choice at or-node {node}")
    for pair in data["pairs"]:
        lines.append(f"{pair['left']} vs {pair['right']}:")
        lines.append(f"  boolean-equivalent: {_yn(pair['boolean_equivalent'])}")
        lines.append(f"  option-equivalent:  {_yn(pair['option_equivalent'])}")
        if pair["option_witness"] is not None:
            lines.append(f"    differing option: {_format_options([pair['option_witness']])}")
        lines.append(f"  judged equivalent:  {_yn(pair['judged_equivalent'])}")
    return "\n".join(lines) + "\n"


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _cmd_equiv(args: argparse.Namespace) -> dict:
    f, g = _resolve(args.left), _resolve(args.right)
    verdict = equivalent(f, g)  # its errors come before the option passes'
    try:
        cmp = report._comparison(verdict, _judged(f), _judged(g)).serialize()
    except UnsupportedConnectiveError as err:
        # not and xor have a truth table but no option set: the vector half is undefined
        cmp = {"boolean_equivalent": verdict.valid, "boolean_witness": verdict.counterexample,
               "option_equivalent": None, "option_witness": None, "judgments": None,
               "judged_equivalent": None, "vector_error": str(err)}
    return {"command": "equiv", "left": args.left, "right": args.right, **cmp}


def _render_equiv(data: dict) -> str:
    lines = [f"{data['left']} vs {data['right']}:",
             f"  boolean-equivalent: {_yn(data['boolean_equivalent'])}"]
    if data["boolean_witness"] is not None:
        lines.append(f"    counterexample: {_format_assignment(data['boolean_witness'])}")
    if "vector_error" in data:
        lines += [f"  option-equivalent:  undefined ({data['vector_error']})",
                  "  judgments:          undefined",
                  "  judged equivalent:  undefined"]
    else:
        lines.append(f"  option-equivalent:  {_yn(data['option_equivalent'])}")
        if data["option_witness"] is not None:
            lines.append(f"    differing option: {_format_options([data['option_witness']])}")
        lines.append(f"  judgments:          {data['judgments'][0]}, {data['judgments'][1]}")
        lines.append(f"  judged equivalent:  {_yn(data['judged_equivalent'])}")
    return "\n".join(lines) + "\n"


def _cmd_implicatures(args: argparse.Namespace) -> dict:
    f = _resolve(args.item)
    mode = imp.Mode(args.mode)
    try:
        opinionated = tuple(int(x) for x in args.opinionated.split(",")) \
            if args.opinionated else ()
    except ValueError:
        raise WorkbenchError(
            f"--opinionated expects comma-separated or-node ids, got {args.opinionated!r}")
    if opinionated and mode is not imp.Mode.SOAMES:
        raise WorkbenchError("--opinionated applies to soames mode only")
    ids = range(len(or_nodes(f)))
    unknown = [i for i in opinionated if i not in ids]
    if unknown:
        raise WorkbenchError(f"--opinionated names or-node {unknown[0]}, but the or-node ids "
                             f"of {unparse(f)!r} are {list(ids) or 'none'}")
    rep = imp.project(f, mode, opinionated)
    return {"command": "implicatures", "input": args.item, "formula": unparse(f),
            **rep.serialize()}


def _render_implicatures(data: dict) -> str:
    # Clausal and scalar entries name their or-node by its number, so equal
    # nodes' entries stay apart; the formula text round-trips through parse.
    number = {tuple(path): i for i, (path, _) in enumerate(or_nodes(parse(data["formula"])))}

    def entry(c: dict) -> str:
        tag = c["provenance"]
        if tag != "assertion":
            tag += f" at or-node {number[tuple(c['source'])]}"
        return f"  {c['polarity']}({c['body']})  [{tag}]"

    lines = [f"{data['input']}: {data['formula']} ({data['mode']} mode)", "accepted:"]
    lines += [entry(c) for c in data["accepted"]]
    if data["suppressed"]:
        lines.append("suppressed:")
        for s in data["suppressed"]:
            partners = ", ".join(f"{p['polarity']}({p['body']})" for p in s["clashes_with"])
            lines.append(f"{entry(s['constraint'])}  clashes with: {partners}")
    else:
        lines.append("suppressed: none")
    return "\n".join(lines) + "\n"


_SEARCHES = {"frege": check_frege_theorem, "corollary": check_disjunction_corollary,
             "explosion": explosion_on_grid, "ordering": check_relevance_ordering}


def _cmd_prob(args: argparse.Namespace) -> dict:
    den, search = args.denominator, _SEARCHES[args.check]
    if args.drop_beta and args.check != "frege":
        raise WorkbenchError(f"--drop-beta applies to frege only, not {args.check}")
    result = search(den, args.drop_beta) if args.check == "frege" else search(den)
    return {"command": "prob", "check": args.check, "denominator": den,
            "result": result.serialize()}


def _render_prob(data: dict) -> str:
    result = data["result"]
    lines = [f"{data['check']} at denominator {data['denominator']}: {result['status']}"
             f" ({result['checked']} distributions checked)"]
    if result["witness"]:
        lines.append("  witness:")
        for key, mass in result["witness"]:
            lines.append(f"    P({key}) = {mass}")
    return "\n".join(lines) + "\n"


def _cmd_reproduce(args: argparse.Namespace) -> dict:
    records = report.build_records()
    return {"command": "reproduce",
            "records": [r.serialize() for r in records],
            "summary": report.summarize(records)}


def _render_reproduce(data: dict) -> str:
    lines = []
    width = max(len(r["claim"]) for r in data["records"])
    for r in data["records"]:
        lines.append(f"{r['status'].upper():<8}  {r['claim']:<{width}}  {r['inputs']}")
        if r["status"] == "mismatch":
            lines.append(f"          expected: {r['expected']!r}")
            lines.append(f"          computed: {r['computed']!r}")
    s = data["summary"]
    lines.append(f"{s['claims']} claims, {s['matches']} match, {s['mismatches']} mismatch")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordsem",
        description="Coordination-semantics workbench: boolean and formal-vector "
                    "denotations, Gricean implicature projection, and exact-rational "
                    "relevance checks for and/or/xor sentence schemas.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (default: text)")
    parser.add_argument("--out", metavar="FILE",
                        help="additionally write the payload as JSON to FILE")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("laws", help="verdict matrix for the six lattice laws")
    p.add_argument("--connectives", choices=("classical", "xor"), default="classical")
    p.set_defaults(handler=_cmd_laws, render=_render_laws)

    p = sub.add_parser("denote", help="option sets of formulas or corpus labels")
    p.add_argument("items", nargs="+", metavar="ITEM")
    p.set_defaults(handler=_cmd_denote, render=_render_denote)

    p = sub.add_parser("judge", help="acceptability judgments, plus pairwise comparisons")
    p.add_argument("items", nargs="+", metavar="ITEM")
    p.set_defaults(handler=_cmd_judge, render=_render_judge)

    p = sub.add_parser("equiv", help="boolean and option equivalence of two items")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_equiv, render=_render_equiv)

    p = sub.add_parser("implicatures", help="assertion-precedence implicature projection")
    p.add_argument("item")
    p.add_argument("--mode", choices=("gazdar", "soames"), default="gazdar")
    p.add_argument("--opinionated", default="",
                   help="comma-separated or-node ids the speaker is opinionated about "
                        "(soames mode only; exit 2 otherwise or on an id the formula lacks)")
    p.set_defaults(handler=_cmd_implicatures, render=_render_implicatures)

    p = sub.add_parser("prob", help="exact-rational relevance checks on probability grids")
    p.add_argument("check", choices=tuple(_SEARCHES))
    p.add_argument("--denominator", type=int, default=6)
    p.add_argument("--drop-beta", action="store_true",
                   help="frege only: drop the uncertainty premise (expect a counterexample); "
                        "exit 2 with any other check")
    p.set_defaults(handler=_cmd_prob, render=_render_prob)

    p = sub.add_parser("reproduce", help="run every claim check; nonzero exit on mismatch")
    p.set_defaults(handler=_cmd_reproduce, render=_render_reproduce)

    return parser


def _json(payload: dict) -> str:
    """The payload as JSON, the form of --format json and of --out. `json`
    is imported here, so a cold start that renders text never loads it."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except WorkbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_json(payload))
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
            return 2
    if args.format == "json":
        out = _json(payload)
    else:
        out = args.render(payload)
    sys.stdout.write(out)
    if payload["command"] == "reproduce" and payload["summary"]["mismatches"]:
        return 1
    return 0


def run() -> NoReturn:
    """Process entry: freeze, run `main()`, flush, and end the process with
    `main()`'s code. By now every module a command needs is imported, and
    the objects those imports built (functions, classes, the corpus) live
    until exit. `gc.freeze()` moves them to the permanent generation, so the
    collections during the command do not scan them. No `gc.collect()`
    first: it costs more than the garbage it would free. Only a process
    entry may freeze, since it changes the collector for the whole
    interpreter.

    Once the output is flushed nothing is left to do, so `os._exit` ends the
    process without the interpreter's teardown, which frees every module
    and object one by one; `atexit` hooks, `coverage` among them, do not
    run. If a flush fails (stdout is a closed pipe, say), `sys.exit` takes
    the ordinary way out instead, and the teardown reports the failure and
    sets the exit code as it always has."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
