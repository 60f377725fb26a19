"""Source hygiene: every name a module in ``src/`` or ``tests/`` imports is
read somewhere in that module.  Package ``__init__.py`` files are exempt,
as their imports are the package's re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of each name bound by an import in ``source`` and never
    read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as p\nfrom a import (b, c as d)\n"
              "from __future__ import annotations\n"
              "def f(x=b): return p.sep\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


def test_no_unused_imports():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "tests").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
