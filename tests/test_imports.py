"""No module of the package, its tests or its demos imports a name it never
uses. A stdlib `ast` scan stands in for a linter, so the check needs no
extra dependency. A cold import of the command line loads no heavy module."""

from __future__ import annotations

import ast
import os
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


def test_cold_cli_import_stays_light():
    # A fresh interpreter, so that no other test's imports are counted.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys\nimport coordsem.cli\n"
             "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
