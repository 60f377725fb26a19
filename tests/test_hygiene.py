"""Source hygiene: every name a module in ``src/`` or ``tests/`` imports is
read somewhere in that module, every top-level definition in ``src/`` is
read somewhere in ``src/``, ``tests/`` or ``perfbench/``, and so is every
method and property of a class in ``src/``, as an attribute.  Package
``__init__.py`` files are exempt, as their imports are the package's
re-exports; those imports still count as reads.  No two top-level
definitions in ``src/`` call each other, one meter in ``enumeration.py``
reads the budget of every enumeration, one count in ``growth.py`` bounds
the fold's memo, only ``label_diagram`` makes a growth diagram, and the
chain statistics read neither the oracle ``longest_chain`` nor the growth
layer's memo bound."""

import ast
from pathlib import Path
from types import ModuleType

import growthdiagrams

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


def test_rsk_oracle_imports_no_library_code():
    """The insertion engine's oracle shares no code with it: rsk_oracle.py
    imports no module of the growthdiagrams package, nor the package."""
    package = ROOT / "src" / "growthdiagrams"
    library = {path.stem for path in package.glob("*.py")} | {package.name}
    source = (ROOT / "tests" / "rsk_oracle.py").read_text()
    assert not imported_modules(source) & library


def test_verifiers_read_no_set_partition():
    """The set-partition verifiers walk the staircase's rook placements:
    enumeration.py reads neither the set partitions' generator nor their
    class."""
    source = (ROOT / "src" / "growthdiagrams" / "enumeration.py").read_text()
    assert not names_read(source) & {"all_set_partitions", "SetPartition"}


def readers_of(source: str, names) -> dict:
    """For each of ``names``, the top-level statements of ``source`` that
    read it, each by its name or, without one, its line."""
    readers = {name: set() for name in names}
    for node in ast.parse(source).body:
        for name in names_read(ast.get_source_segment(source, node)) & set(
                readers):
            readers[name].add(getattr(node, "name", node.lineno))
    return readers


def test_counts_read_the_walk_not_fillings():
    """Every enumeration in enumeration.py reads the walk's codes through
    the meter: of its top-level statements only ``_Budget`` reads
    ``_codes``, and none reads ``all_fillings``, the one enumeration that
    decodes fillings.  The unmetered generator of decoded fillings is
    gone."""
    source = (ROOT / "src" / "growthdiagrams" / "enumeration.py").read_text()
    assert readers_of(source, ("_codes", "all_fillings")) == {
        "_codes": {"_Budget"}, "all_fillings": set()}
    assert not hasattr(growthdiagrams.enumeration, "generate_fillings")


def test_no_module_makes_a_growth_diagram():
    """``label_diagram`` is the only maker of a GrowthDiagram: no module in
    ``src/`` or ``perfbench/`` calls the class."""
    found = [str(path.relative_to(ROOT)) for folder in ("src", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if calls_to(path.read_text(), "GrowthDiagram")]
    assert found == []


def test_package_exports_its_names_and_no_module():
    """``__all__`` holds every name the package imports from its modules,
    and none of the submodules that those imports bind."""
    tree = ast.parse((ROOT / "src" / "growthdiagrams" / "__init__.py")
                     .read_text())
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(growthdiagrams.__all__) == imported
    assert not [name for name in growthdiagrams.__all__
                if isinstance(getattr(growthdiagrams, name), ModuleType)]


def mutual_calls(sources: dict):
    """The pairs of top-level functions and classes of the modules, each
    ``(module, name)``, that call each other by name: in their own module,
    or imported from a sibling module (``from .m import name``).  Sources
    are keyed by module name."""
    calls = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        defined = [node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        known = {alias.asname or alias.name: (node.module, alias.name)
                 for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        known.update((node.name, (module, node.name)) for node in defined)
        for node in defined:
            calls[module, node.name] = {
                known[call.func.id] for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id in known}
    return sorted((a, b) for a, called in calls.items() for b in called
                  if a < b and a in calls.get(b, ()))


def test_mutual_calls_are_found():
    sources = {"a": "from .b import g\ndef f(): return g()\n"
                    "def h(): return k()\ndef k(): return h\ndef r(): r()\n",
               "b": "from .a import f as e\ndef g(): return e()\n"}
    assert mutual_calls(sources) == [(("a", "f"), ("b", "g"))]


def test_no_definitions_call_each_other():
    """Each job has one way of being done, so no two top-level definitions
    in ``src/`` hand a job back and forth."""
    package = ROOT / "src" / "growthdiagrams"
    assert mutual_calls({path.stem: path.read_text()
                         for path in package.glob("*.py")}) == []


def test_swaps_are_named_by_their_forward_variant():
    """The swap verifiers name a swap by its forward variant, not by
    ``swap_chain_statistics``' modes.  The code maps are kept in
    ``growth._SWAPS``, which only ``growth._shape_swap`` reads; no plan
    keeps maps of its own."""
    package = ROOT / "src" / "growthdiagrams"
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    assert "_SWAP_FORWARD" not in names_read(sources["enumeration"])
    touching = {f"{stem}.{name}" for stem, source in sources.items()
                for name in readers_of(source, ("_SWAPS",))["_SWAPS"]}
    assert touching == {"growth._shape_swap"}
    assert not [stem for stem, source in sources.items()
                if "swaps" in attributes_read(source)]


def touching(source: str, name: str) -> set:
    """The top-level statements of ``source`` that read, write or declare
    global ``name``: a function by its name, a class's method as
    ``Class.method``, any other statement by its line."""
    def uses(node):
        return any(isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   or isinstance(n, ast.Global) and name in n.names
                   for n in ast.walk(node))
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}.{getattr(item, 'name', item.lineno)}"
                         for item in node.body if uses(item))
        elif uses(node):
            found.add(getattr(node, "name", node.lineno))
    return found


def test_touching_is_found():
    source = ("n = 0\ndef f():\n    global n\n    n = 1\n"
              "class C:\n    def g(self): return m.n\n    def h(self): pass\n"
              "def k(): return 2\n")
    assert touching(source, "n") == {1, "f", "C.g"}


def test_one_fold_count():
    """The fold's memo has one count of its entries, and, like the one
    meter ``_Budget``, only the fold's own functions touch it: ``_vector_id``
    and ``_Steps.__missing__`` add to it and ``_clear_fold_memo`` resets
    it.  No other module touches it."""
    package = ROOT / "src" / "growthdiagrams"
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    defined = {name: line for line, name in
               top_level_definitions(sources["growth"])}
    found = {f"{stem}.{label}" for stem, source in sources.items()
             for label in touching(source, "_FOLD_ENTRIES")}
    assert found == {f"growth.{defined['_FOLD_ENTRIES']}", "growth._vector_id",
                     "growth._Steps.__missing__", "growth._clear_fold_memo"}


def calls_to(source: str, name: str) -> int:
    """How many calls in ``source`` call ``name``, by name or as an
    attribute."""
    return sum(isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source)))


def test_calls_are_counted():
    source = ("from m import f\nimport m\ndef g(): return f(1) + m.f(2)\n"
              "h = f\nf.x()\n")
    assert (calls_to(source, "f"), calls_to(source, "h")) == (2, 0)


def test_one_budget():
    """Every enumeration is charged to the one meter of enumeration.py,
    which reads ``budget_limit()`` and builds ``InstanceTooLarge`` once
    each; besides it only shapes.py, whose text readers refuse a row or a
    column longer than the budget, calls ``budget_limit()``.  The meters it
    replaced are gone."""
    package = ROOT / "src" / "growthdiagrams"
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    enumeration = sources["enumeration"]
    assert calls_to(enumeration, "budget_limit") == 1
    assert calls_to(enumeration, "InstanceTooLarge") == 1
    assert {stem for stem, source in sources.items()
            if calls_to(source, "budget_limit")} == {"enumeration", "shapes"}
    defined = {name for source in sources.values()
               for _, name in top_level_definitions(source)}
    assert not defined & {"_metered", "_metered_groups", "_too_large",
                          "_placements"}


def test_statistics_read_no_oracle_and_no_memo_bound():
    """The production statistics are the chain tables' states alone: no
    top-level statement of fillings.py or enumeration.py reads
    ``longest_chain`` but its own definition (it stays the public
    statistic and the tests' oracle), and neither module reads
    ``MEMO_MAX_CELLS``, the growth layer's memo bound."""
    package = ROOT / "src" / "growthdiagrams"
    for stem in ("fillings", "enumeration"):
        readers = readers_of((package / f"{stem}.py").read_text(),
                             ("longest_chain", "MEMO_MAX_CELLS"))
        assert readers["longest_chain"] <= {"longest_chain"}, stem
        assert readers["MEMO_MAX_CELLS"] == set(), stem
