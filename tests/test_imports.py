"""No module of the package, its tests or its demos imports a name it never
uses. A stdlib `ast` scan stands in for a linter, so the check needs no
extra dependency. A cold import of the command line loads no heavy module
and leaves the garbage collector alone; only the process entry freezes it."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
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


def fresh(probe: str, *args: str) -> str:
    """Stdout of `probe` run in a fresh interpreter, so that no other test's
    imports or collector state are counted."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cold_cli_import_stays_light():
    probe = ("import sys\nimport coordsem.cli\n"
             "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    assert fresh(probe) == "[]\n"


@pytest.mark.parametrize("module", ["coordsem", "coordsem.cli"])
def test_a_library_import_leaves_the_collector_alone(module):
    probe = (f"import gc\nfrozen = gc.get_freeze_count()\nimport {module}\n"
             "print(gc.get_freeze_count() == frozen, gc.isenabled())")
    assert fresh(probe) == "True True\n"


def test_the_process_entry_freezes_the_imports():
    # `python -m coordsem laws`, run by runpy so the probe sees the collector after it
    probe = ("import gc, runpy\n"
             "try:\n    runpy.run_module('coordsem', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exit:\n    code = exit.code\n"
             "print(code, gc.get_freeze_count() > 0)")
    out = fresh(probe, "laws")
    assert out.startswith("law matrix under classical connectives\n")
    assert out.splitlines()[-1] == "0 True"


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
