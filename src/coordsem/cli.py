"""Command-line front end.

Subcommands: laws, denote, judge, equiv, implicatures, prob, reproduce.
Every subcommand builds one JSON-serializable payload; --format picks the
rendering (text tables or JSON of that same payload), --out additionally
dumps the payload as JSON to a file, before anything is printed. Exit codes:
0 success, 1 claim mismatch from `reproduce`, 2 usage or parse errors, an
--out file that cannot be written, a stdout or stderr that cannot be
written, or a stdout whose encoding cannot take the text.

One table, `COMMANDS`, names each subcommand's handler, renderer, help,
positionals and options; `parse_argv` reads the command line from it and
`usage` and `-h` are written from it. argparse is not used: its import,
with `gettext` and `locale`, cost a cold command a few milliseconds. The
reader is argparse's classify-then-match algorithm (see `_read`), and
`tests/test_cli.py` keeps an argparse parser of the table as its oracle.

`run` is the process entry, behind both the `coordsem` script and
`python -m coordsem`: it freezes everything the imports built out of the
garbage collector, runs `main` and ends the process with `main`'s code,
skipping the interpreter's teardown. `main(argv)` is the in-process entry
and leaves the collector as it finds it: `_outcome` computes the code,
stdout and stderr, and `_write` delivers each stream and flushes it.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from itertools import combinations
from types import SimpleNamespace
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

def _cmd_laws(args: SimpleNamespace) -> dict:
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


def _cmd_denote(args: SimpleNamespace) -> dict:
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


def _cmd_judge(args: SimpleNamespace) -> dict:
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


def _cmd_equiv(args: SimpleNamespace) -> dict:
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


def _cmd_implicatures(args: SimpleNamespace) -> dict:
    f = _resolve(args.item)
    try:
        opinionated = tuple(int(x) for x in args.opinionated.split(",")) \
            if args.opinionated else ()
    except ValueError:
        raise WorkbenchError(
            f"--opinionated expects comma-separated or-node ids, got {args.opinionated!r}")
    rep = imp.project(f, args.mode, opinionated)
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


def _cmd_prob(args: SimpleNamespace) -> dict:
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


def _cmd_reproduce(args: SimpleNamespace) -> dict:
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


# ---------------------------------------------------------------------------
# The command table, and the command line read from it

_DESCRIPTION = ("Coordination-semantics workbench: boolean and formal-vector denotations,\n"
               "Gricean implicature projection, and exact-rational relevance checks for\n"
               "and/or/xor sentence schemas.")

# An option is (flag, values, default, help): values is a tuple of choices,
# `int`, the metavar of free text, or None for a flag that takes no value
# and is True when given. The global options come before the command.
GLOBAL_OPTIONS = (
    ("--format", ("text", "json"), "text", "output rendering"),
    ("--out", "FILE", None, "additionally write the payload as JSON to FILE"),
)

# A command is (handler, renderer, help, positionals, options), and a
# positional is (name, count, values): count 1 or "+", values a tuple of
# choices or the metavar of free text.
COMMANDS = {
    "laws": (_cmd_laws, _render_laws, "verdict matrix for the six lattice laws", (),
             (("--connectives", ("classical", "xor"), "classical",
               "the laws as stated, or with xor as their join"),)),
    "denote": (_cmd_denote, _render_denote, "option sets of formulas or corpus labels",
               (("items", "+", "ITEM"),), ()),
    "judge": (_cmd_judge, _render_judge, "acceptability judgments, plus pairwise comparisons",
              (("items", "+", "ITEM"),), ()),
    "equiv": (_cmd_equiv, _render_equiv, "boolean and option equivalence of two items",
              (("left", 1, "LEFT"), ("right", 1, "RIGHT")), ()),
    "implicatures": (_cmd_implicatures, _render_implicatures,
                     "assertion-precedence implicature projection", (("item", 1, "ITEM"),),
                     (("--mode", ("gazdar", "soames"), "gazdar", "projection mode"),
                      ("--opinionated", "IDS", "",
                       "soames mode only (exit 2 otherwise): comma-separated ids of\n"
                       "the formula's or-nodes the speaker is opinionated about"))),
    "prob": (_cmd_prob, _render_prob, "exact-rational relevance checks on probability grids",
             (("check", 1, tuple(_SEARCHES)),),
             (("--denominator", int, 6, "denominator of the grid, 1 to 12"),
              ("--drop-beta", None, False,
               "frege only (exit 2 otherwise): drop the uncertainty premise"))),
    "reproduce": (_cmd_reproduce, _render_reproduce,
                  "run every claim check; nonzero exit on mismatch", (), ()),
}

_HELP = ("--help", None, False, "show this help and exit")
# argparse's test for a negative number, which is a value, not an option;
# compiled on first use, which most command lines never make
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class UsageExit(Exception):
    """A request for help (`error` None: exit 0) or a malformed command line
    (exit 2). `command` names the command whose usage applies, None for the
    global options."""

    def __init__(self, command: Optional[str], error: Optional[str] = None) -> None:
        super().__init__(error)
        self.command, self.error = command, error


def _shown(values: object) -> str:
    """How usage and help show a value: its choices or its metavar."""
    if values is int:
        return "N"
    if isinstance(values, tuple):
        return "{" + ",".join(values) + "}"
    return values


def usage(command: Optional[str] = None) -> str:
    """The usage line of `command`, or of the global options before one."""
    if command is None:
        words = [f"[{flag} {_shown(values)}]" for flag, values, _, _ in GLOBAL_OPTIONS]
        return " ".join(["coordsem", *words, "COMMAND ..."])
    _, _, _, positionals, options = COMMANDS[command]
    words = ["coordsem", command]
    for _, count, values in positionals:
        words.append(_shown(values) + (f" [{_shown(values)} ...]" if count == "+" else ""))
    for flag, values, _, _ in options:
        words.append(f"[{flag}]" if values is None else f"[{flag} {_shown(values)}]")
    return " ".join(words)


def _help(command: Optional[str]) -> str:
    if command is None:
        lines = [f"usage: {usage()}", "", _DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<14}{spec[2]}" for name, spec in COMMANDS.items()]
        options = GLOBAL_OPTIONS
    else:
        lines = [f"usage: {usage(command)}", "", COMMANDS[command][2]]
        options = COMMANDS[command][4]
    rows = [("-h, --help", _HELP[3])]
    for flag, values, default, text in options:
        rows.append((flag if values is None else f"{flag} {_shown(values)}",
                     text if default in (None, False, "") else f"{text} (default: {default})"))
    width = max(len(left) for left, _ in rows)
    lines += ["", "options:"]
    for left, text in rows:
        lines.append(f"  {left:<{width}}  " + text.replace("\n", "\n" + " " * (width + 4)))
    return "\n".join(lines) + "\n"


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _option(token: str, flags: dict, command: Optional[str]) -> Optional[tuple]:
    """None if `token` is a positional. If it is an option, (flag, value):
    the flag it names exactly or by a unique prefix, or None if it names
    none, and the text after its `=`, or None. A prefix of two flags is an
    error."""
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flag, value
    if token.startswith("--"):
        matches = [known for known in flags if known.startswith(flag)]
        if len(matches) > 1:
            raise UsageExit(command, f"ambiguous option: {token} could match "
                                     f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if re.match(_NEGATIVE, token) or " " in token:
        return None
    return None, None


def _value(command: Optional[str], name: str, values: object, text: str) -> object:
    if values is int:
        try:
            return int(text)
        except ValueError:
            raise UsageExit(command, f"argument {name}: invalid int value: {text!r}")
    if isinstance(values, tuple) and text not in values:
        raise UsageExit(command, f"argument {name}: invalid choice: {text!r} "
                                 f"(choose from {', '.join(map(repr, values))})")
    return text


def _read(tokens: list[str], command: Optional[str], args: SimpleNamespace,
          unknown: list[str]) -> int:
    """Reads `tokens` into `args` as argparse does. Each token is an option,
    a positional (A) or the first `--` (-). Each run of positionals fills
    the longest prefix of the unfilled positionals whose nargs patterns,
    `(-*A-*)` for a count of 1 and `(-*A[A-]*)` for "+", match it; the
    first `--` goes into no value. Unknown options and whatever a run leaves
    are added to `unknown`. With `command` None the tokens are the global
    options, read up to the command's name, whose index is returned
    (len(tokens) if there is none)."""
    positionals, options = COMMANDS[command][3:] if command else ((), GLOBAL_OPTIONS)
    flags = {"-h": _HELP, "--help": _HELP, **{spec[0]: spec for spec in options}}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, flags, command) if i < end else None for i, token in enumerate(tokens)]
    pattern = "".join("O" if kind else "-" if i == end else "A" for i, kind in enumerate(kinds))
    i = 0
    while i < len(tokens):
        if pattern[i] != "O":
            if command is None:
                return i
            run = pattern[i:].split("O")[0]
            n = len(positionals)
            while not (match := re.match("".join("(-*A-*)" if count == 1 else "(-*A[A-]*)"
                                                 for _, count, _ in positionals[:n]), run)):
                n -= 1
            for group, (name, count, values) in enumerate(positionals[:n], 1):
                taken = [_value(command, name, values, tokens[k])
                         for k in range(i + match.start(group), i + match.end(group)) if k != end]
                setattr(args, name, taken if count == "+" else taken[0])
            positionals = positionals[n:]
            unknown += tokens[i + match.end():i + len(run)]
            i += len(run)
            continue
        flag, value = kinds[i]
        i += 1
        spec = flags.get(flag)
        if spec is None:
            unknown.append(tokens[i - 1])
        elif spec[1] is None:
            if value is not None:
                raise UsageExit(command, f"argument {flag}: ignored explicit argument {value!r}")
            if spec is _HELP:
                raise UsageExit(command)
            setattr(args, _dest(flag), True)
        else:
            if value is None:
                if pattern[i:i + 1] != "A":
                    raise UsageExit(command, f"argument {flag}: expected one argument")
                value, i = tokens[i], i + 1
            setattr(args, _dest(flag), _value(command, flag, spec[1], value))
    if positionals:
        raise UsageExit(command, "the following arguments are required: "
                                 + ", ".join(_shown(values) for _, _, values in positionals))
    return len(tokens)


def parse_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace a handler reads, with its `handler` and `render`: the
    global options, then a command from `COMMANDS` and its positionals and
    options, in any order. Raises `UsageExit` for help or a malformed
    command line.

    The syntax is argparse's for the parser the table describes: `--opt
    value` and `--opt=value`, unique prefixes of a flag, help that answers
    as soon as it is read, and every token after `--` a positional. A token
    that starts with `-` is an option unless it reads as a negative number
    or holds a space. Unknown options are refused last, after any other
    error and after help."""
    tokens = list(argv)
    args = SimpleNamespace(**{_dest(spec[0]): spec[2] for spec in GLOBAL_OPTIONS})
    unknown: list[str] = []
    at = _read(tokens, None, args, unknown)
    if at == len(tokens):
        raise UsageExit(None, "the following arguments are required: COMMAND")
    command = tokens[at]
    if command not in COMMANDS:
        raise UsageExit(None, f"argument COMMAND: invalid choice: {command!r} "
                              f"(choose from {', '.join(map(repr, COMMANDS))})")
    args.handler, args.render, _, _, options = COMMANDS[command]
    for flag, _, default, _ in options:
        setattr(args, _dest(flag), default)
    _read(tokens[at + 1:], command, args, unknown)
    if unknown:
        raise UsageExit(command, f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _json(payload: dict) -> str:
    """The payload as JSON, the form of --format json and of --out. `json`
    is imported here, so a cold start that renders text never loads it."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _outcome(argv: Sequence[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the command line `argv`. Only
    the --out file is written here."""
    try:
        args = parse_argv(argv)
    except UsageExit as stop:
        if stop.error is None:
            return 0, _help(stop.command), ""
        return 2, "", f"usage: {usage(stop.command)}\ncoordsem: error: {stop.error}\n"
    try:
        payload = args.handler(args)
    except WorkbenchError as err:
        return 2, "", f"error: {err}\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_json(payload))
        except OSError as err:
            return 2, "", f"error: cannot write {args.out}: {err.strerror or err}\n"
    out = _json(payload) if args.format == "json" else args.render(payload)
    mismatch = payload["command"] == "reproduce" and payload["summary"]["mismatches"]
    return 1 if mismatch else 0, out, ""


def _write(stream, text: str) -> Optional[Exception]:
    """Write `text` to `stream` and flush it; the error if that fails (a
    full disk, a pipe whose reader has gone, a character the stream's
    encoding lacks). A failed stream's file descriptor then points at
    `os.devnull`, so what is still buffered is dropped without a second
    error when the stream is next flushed, at teardown included."""
    try:
        stream.write(text)
        stream.flush()
    except (OSError, UnicodeEncodeError) as err:
        try:
            fd, devnull = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        except OSError:  # a stream with no file descriptor
            return err
        os.dup2(devnull, fd)
        os.close(devnull)
        return err
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`), write its
    output to stdout and its report to stderr, and return the exit code. A
    stdout that cannot be written gives code 2 and the report `error:
    cannot write stdout: reason`; a stderr that cannot be written loses
    its report and keeps the code."""
    code, out, err = _outcome(sys.argv[1:] if argv is None else argv)
    failed = _write(sys.stdout, out)
    if failed is not None:
        reason = getattr(failed, "strerror", None) or failed  # an encoding error has none
        code, err = 2, f"error: cannot write stdout: {reason}\n"
    _write(sys.stderr, err)
    return code


def run() -> NoReturn:
    """Process entry: freeze, run `main()`, and end the process with
    `main()`'s code. By now every module a command needs is imported, and
    the objects those imports built (functions, classes, the corpus) live
    until exit. `gc.freeze()` moves them to the permanent generation, so the
    collections during the command do not scan them. No `gc.collect()`
    first: it costs more than the garbage it would free. Only a process
    entry may freeze, since it changes the collector for the whole
    interpreter.

    `main()` has flushed both streams, so nothing is left to do, and
    `os._exit` ends the process without the interpreter's teardown, which
    frees every module and object one by one; `atexit` hooks, `coverage`
    among them, do not run."""
    gc.freeze()
    os._exit(main())


if __name__ == "__main__":
    run()
