"""Every name a module of the package imports is read in that module.

The package has no linter, so this stands in for the unused-import rule:
each ``src/loghodge`` module is parsed with ``ast`` and every name bound by
an import must appear as a loaded name.  ``generate.rref`` is the one
exception: perfbench's tracer rebinds ``rref`` in every module that binds
it, and its tests read the name there.

The package stays dependency-free: every absolute import names a module of
the standard library, and every relative one a module of the package.

Importing the modules a verb runs stays lean: a fresh interpreter loads
none of the modules of ``HEAVY`` with them.

No module uses an ``assert`` statement, which ``python -O`` strips: each
self-check raises its ``AssertionError`` explicitly, so it holds under
every optimisation level.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loghodge"
KEPT = {("generate", "rref")}
# what dataclasses, the exit-3 traceback and typing annotations would add to
# every process; the records are plain classes, cli imports traceback where
# it prints one, and annotations name collections.abc
HEAVY = ("dataclasses", "inspect", "traceback", "typing")


def _unread_imports(source: str):
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    unread = [name for name in _unread_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in KEPT]
    assert unread == [], f"{path.name} imports {unread} and never reads them"


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\n"
              "from .linalg import Matrix, rref\n"
              "def f(x: Matrix):\n"
              "    return regex.escape(x)\n")
    assert _unread_imports(source) == ["os", "rref"]


def _foreign_imports(source: str):
    """The imports that name neither a standard library module nor, by a
    relative import, a module of the package."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            foreign += [alias.name for alias in node.names
                        if alias.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            known = (top in sys.stdlib_module_names if node.level == 0 else
                     node.level == 1 and (not top or (SRC / f"{top}.py").exists()))
            if not known:
                foreign.append("." * node.level + (node.module or ""))
    return foreign


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_the_standard_library_or_the_package(path):
    foreign = _foreign_imports(path.read_text(encoding="utf-8"))
    assert foreign == [], f"{path.name} imports {foreign}"


def test_a_third_party_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from math import gcd\n"
              "from sympy.matrices import Matrix\n"
              "from . import linalg\n"
              "from .linalg import rref\n"
              "from .nowhere import x\n"
              "from ..elsewhere import y\n")
    assert _foreign_imports(source) == ["numpy", "sympy.matrices", ".nowhere",
                                        "..elsewhere"]


def _assert_lines(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_uses_an_assert_statement(path):
    lines = _assert_lines(path.read_text(encoding="utf-8"))
    assert lines == [], f"{path.name} asserts at lines {lines}"


def test_an_assert_statement_is_found():
    source = ("def f(x):\n"
              "    assert x, 'bare'\n"
              "    if not x:\n"
              "        raise AssertionError('explicit')\n")
    assert _assert_lines(source) == [2]


def test_importing_the_cli_modules_loads_no_heavy_module():
    """Under python -S -E, with src in place of the script directory on
    sys.path, importing the modules perfbench times adds none of HEAVY."""
    code = (f"import sys; sys.path[0] = {str(SRC.parent)!r}; "
            "before = set(sys.modules); "
            "import loghodge.cli, loghodge.generate, loghodge.model; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout.split()
    assert "loghodge.cli" in added
    assert [name for name in HEAVY if name in added] == []
