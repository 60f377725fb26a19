"""Source hygiene: every name a module in ``src/`` or ``tests/`` imports is
read somewhere in that module, every top-level definition in ``src/`` is
read somewhere in ``src/``, ``tests/`` or ``perfbench/``, and so is every
method and property of a class in ``src/``, as an attribute.  Package
``__init__.py`` files are exempt, as their imports are the package's
re-exports; those imports still count as reads."""

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


def top_level_definitions(source: str):
    """(line, name) of each function, class and assignment target at the
    top level of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                yield from ((n.lineno, n.id) for n in ast.walk(target)
                            if isinstance(n, ast.Name))


def methods(source: str):
    """(line, "Class.name", name) of each method and property, dunders
    excepted, of each class at the top level of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def attributes_read(source: str):
    """Every name ``source`` reads as an attribute, ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def names_read(source: str):
    """Every name ``source`` reads: as a variable, as an attribute, or by
    importing it from a module.  A name built as a string, as for
    ``getattr``, is not seen, so tests read definitions by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unreferenced_definitions_are_found():
    source = ("import m\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
              "def f(): return g()\ndef g(): return A + m.B\n"
              "class K: pass\nclass L(K): pass\n")
    read = names_read(source) | names_read("from x import D")
    assert [(line, name) for line, name in top_level_definitions(source)
            if name not in read] == [(2, "C"), (4, "f"), (7, "L")]


def test_unread_methods_are_found():
    source = ("class K:\n    x = 1\n    def __len__(self): return 0\n"
              "    def used(self): return self.p\n"
              "    def unused(self): return used\n"
              "    @property\n    def p(self): return 1\n"
              "    @property\n    def q(self): return 2\n"
              "def f(k): return k.used()\n")
    read = attributes_read(source)
    assert [(line, qualified) for line, qualified, name in methods(source)
            if name not in read] == [(5, "K.unused"), (9, "K.q")]


def test_no_unreferenced_definitions():
    read, attributes = set(), set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            source = path.read_text()
            read |= names_read(source)
            attributes |= attributes_read(source)
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text()
        where = path.relative_to(ROOT)
        if path.name != "__init__.py":
            found += [f"{where}:{line}: {name}"
                      for line, name in top_level_definitions(source)
                      if name not in read]
        found += [f"{where}:{line}: {qualified}"
                  for line, qualified, name in methods(source)
                  if name not in attributes]
    assert not found, "definitions nothing reads:\n" + "\n".join(found)


def imported_modules(source: str):
    """The last dotted part of each module that ``source`` imports, imports
    from, or imports from a package (``from . import m``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[-1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_imported_modules_are_found():
    source = ("import json\nfrom .growth import label_diagram\n"
              "from growthdiagrams.enumeration import count_table\n"
              "from . import local_rules\n")
    assert imported_modules(source) == {"json", "growth", "enumeration",
                                        "local_rules"}


def test_chain_statistics_import_no_growth_code():
    """The chain statistics the verifiers certify the growth labels with
    read no growth label: fillings.py imports none of the modules that make
    or use them."""
    source = (ROOT / "src" / "growthdiagrams" / "fillings.py").read_text()
    assert not imported_modules(source) & {"growth", "local_rules",
                                           "correspondences", "enumeration"}
