"""No module of the package, its tests or its demos imports a name it never
uses, and the package holds no function that only tests call, apart from a
pinned allow-list. Stdlib `ast` scans stand in for a linter, so the checks
need no extra dependency. A cold import of the command line loads no heavy module
and leaves the garbage collector alone; only the process entry freezes it,
and it ends the process through `os._exit`. The command line never loads
argparse. `reproduce` loads no `fractions`; only reading a search's
witness does."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/coordsem/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module never references. Names listed
    in `__all__` count as referenced; `from __future__` imports are skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_the_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c\n" \
             "__all__ = ['c']\nb()\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read in tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_functions(package: dict[str, str], readers: list[str]) -> list[str]:
    """`module.function` for each module-level function of package (module
    name -> source) that nothing in package or readers (more sources)
    references outside the function's own body. Imports and `__all__` do
    not count; the CLI's command table does, as names."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = sum((_references(tree) for tree in [*trees.values(), *map(ast.parse, readers)]),
               Counter())
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and read[node.name] == _references(node)[node.name])


def test_the_scan_flags_a_function_only_it_calls():
    package = {"m": "from x import y\n__all__ = ['a', 'b']\n"
                    "def a(n):\n    return a(n - 1)\n"
                    "def b():\n    return c\n"
                    "def c():\n    pass\n"
                    "def y():\n    pass\n"}
    assert unreferenced_functions(package, ["import m\nm.y()\n"]) == ["m.a", "m.b"]


# Module-level functions of the package that nothing in `src/` or `demos/`
# calls, each kept for a reason; a function that joins this list is test-only
# code and belongs in `tests/` (ROADMAP item 8).
UNCALLED = {
    "boolean.dual": "public API: the README's quick reference documents it",
    "formula.instantiate": "public API: the README's quick reference documents it",
    "implicature.potential_clausal": "public API: the README's quick reference documents it",
    "implicature.potential_scalar": "public API: the README's quick reference documents it",
    "relevance.grid": "benchmarks/spans.py wraps it as a counter (ROADMAP item 1)",
    "relevance.check_explosion_irrelevance": "benchmarks/spans.py wraps it as a span "
                                             "(ROADMAP item 1)",
    "prospect.coefficient_assignments": "benchmarks/spans.py wraps it as a counter "
                                        "(ROADMAP item 1)",
}


def test_src_holds_no_test_only_functions():
    package = {path.stem: path.read_text() for path in ROOT.glob("src/coordsem/*.py")}
    demos = [path.read_text() for path in ROOT.glob("demos/*.py")]
    assert unreferenced_functions(package, demos) == sorted(UNCALLED)


def fresh(probe: str, *args: str) -> str:
    """Stdout of `probe` run in a fresh interpreter, so that no other test's
    imports or collector state are counted."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


NUMERIC = ("decimal", "fractions", "numbers")
ARGPARSE = ("argparse", "gettext", "locale")


def test_cold_cli_import_stays_light():
    probe = ("import sys\nimport coordsem.cli\n"
             f"print(sorted({{'dataclasses', 'inspect', 'json', *{NUMERIC}}} & set(sys.modules)))")
    assert fresh(probe) == "[]\n"


def test_the_command_line_loads_no_argparse():
    # the import, a command, help and a usage error
    probe = ("import io, sys\nfrom contextlib import redirect_stderr, redirect_stdout\n"
             "import coordsem.cli\n"
             f"loaded = lambda: sorted({set(ARGPARSE)!r} & set(sys.modules))\n"
             "print(loaded())\n"
             "for argv in (['reproduce'], ['-h'], ['prob', 'nosuch']):\n"
             "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
             "        code = coordsem.cli.main(argv)\n"
             "    print(code, loaded())\n")
    assert fresh(probe) == "[]\n0 []\n0 []\n2 []\n"


@pytest.mark.parametrize("module", ["coordsem", "coordsem.cli"])
def test_a_library_import_leaves_the_collector_alone(module):
    probe = (f"import gc\nfrozen = gc.get_freeze_count()\nimport {module}\n"
             "print(gc.get_freeze_count() == frozen, gc.isenabled())")
    assert fresh(probe) == "True True\n"


def test_the_process_entry_freezes_the_imports():
    # `python -m coordsem laws`, run by runpy; a stand-in for `os._exit`
    # prints the code and the collector's state at the entry's exit call
    probe = ("import gc, os, runpy, sys\n"
             "frozen = gc.get_freeze_count()\n"  # not 0 at start-up on Python 3.12
             "hard_exit = os._exit\n"
             "def exit(code):\n"
             "    print(code, gc.get_freeze_count() > frozen)\n"
             "    sys.stdout.flush()\n"
             "    hard_exit(code)\n"
             "os._exit = exit\n"
             "runpy.run_module('coordsem', run_name='__main__', alter_sys=True)\n"
             "print('the entry returned without calling os._exit')")
    out = fresh(probe, "laws")
    assert out.startswith("law matrix under classical connectives\n")
    assert out.splitlines()[-1] == "0 True"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reproduce_never_loads_fractions(fmt):
    # The searches keep a counterexample as integer counts; nothing that
    # reproduce reads builds a Fraction.
    probe = ("import sys\nfrom coordsem.cli import main\n"
             f"main(['--format', '{fmt}', 'reproduce'])\n"
             f"print(sorted({set(NUMERIC)!r} & set(sys.modules)))")
    assert fresh(probe).splitlines()[-1] == "[]"


def test_reading_the_drop_beta_witness_loads_fractions():
    # The witness is built when it is read: the text and JSON of
    # `prob frege --drop-beta` are the grid point the search stopped at,
    # as they were when every counterexample was built as a distribution.
    probe = ("import sys\nfrom coordsem.cli import main\n"
             "for den in range(1, 13):\n"
             "    main(['prob', 'frege', '--drop-beta', '--denominator', str(den)])\n"
             "    main(['--format', 'json', 'prob', 'frege', '--drop-beta',\n"
             "          '--denominator', str(den)])\n"
             f"print(sorted({set(NUMERIC)!r} & set(sys.modules)))")
    out = fresh(probe)
    expected = ""
    for den in range(1, 13):
        expected += (f"frege at denominator {den}: counterexample (1 distributions checked)\n"
                     "  witness:\n    P(A=1,C=1) = 1\n")
        expected += json.dumps({"command": "prob", "check": "frege", "denominator": den,
                                "result": {"checked": 1, "status": "counterexample",
                                           "witness": [["A=1,C=1", "1"]]}},
                               indent=2, sort_keys=True) + "\n"
    expected += f"{list(NUMERIC)}\n"
    assert out == expected


def test_the_script_and_python_m_share_one_process_entry():
    # Plain text: Python 3.10 has no tomllib.
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        (ROOT / "pyproject.toml").read_text(), re.M | re.S).group(1)
    target = re.fullmatch(r'coordsem = "([\w.]+):(\w+)"\n*', scripts).groups()
    entry = ast.parse((ROOT / "src" / "coordsem" / "__main__.py").read_text())
    imported = [(f"coordsem.{node.module}", alias.name) for node in entry.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    called = [node.func.id for node in ast.walk(entry)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert imported == [target]
    assert called == [target[1]]
