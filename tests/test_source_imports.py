"""Every name a module of the package imports is read in that module.

The package has no linter, so this stands in for the unused-import rule:
each ``src/loghodge`` module is parsed with ``ast`` and every name bound by
an import must appear as a loaded name.  ``generate.rref`` is the one
exception: perfbench's tracer rebinds ``rref`` in every module that binds
it, and its tests read the name there.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loghodge"
KEPT = {("generate", "rref")}


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
