"""Static guards: every name a package module imports is used in it, every
module-level ``_private`` name is referenced somewhere in the package, every
dataclass field the package declares is read somewhere in the repo, every
name ``__init__`` re-exports is reached from the package or the benchmark,
every import site the benchmark's tracer wraps exists, and only the harness
imports ``csv``.

No lint tool is part of the toolchain, so these tests walk each module's
syntax tree with the standard-library ``ast`` module. The import guard skips
``__init__.py``: its imports are the package's public re-exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunable_oracle"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level or nested imports that are never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def referenced_names(tree: ast.AST) -> set[str]:
    """Names loaded, accessed as an attribute or imported in ``tree``; a
    ``def``, ``class`` or assignment alone is not a reference."""
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)
    return referenced


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions, classes and constants that no
    module in ``sources`` (module name -> source) references by name."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        referenced |= referenced_names(tree)
    return sorted(f"{module}.{name} (line {line})"
                  for module, name, line in defined if name not in referenced)


def unreached_exports(init_source: str, sources: list[str]) -> list[str]:
    """Names ``init_source`` re-exports that no source in ``sources``
    references (see ``referenced_names``)."""
    exported = {alias.asname or alias.name: alias.lineno
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = set()
    for source in sources:
        referenced |= referenced_names(ast.parse(source))
    return sorted(f"{name} (line {line})" for name, line in exported.items()
                  if name not in referenced)


def _is_dataclass(node: ast.ClassDef) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(defining: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the dataclasses declared in ``defining`` (module name ->
    source) that no source in ``readers`` loads as an attribute."""
    read = set()
    for source in readers:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for module, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            unread += [f"{module}.{cls.name}.{stmt.target.id} (line {stmt.lineno})"
                       for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    return sorted(unread)


def test_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "sep (line 2)"]


def test_attribute_and_annotation_uses_count():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from typing import Callable\n"
              "def f(x: Callable) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == []


def test_no_orphaned_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_detects_an_orphaned_private_name():
    sources = {
        "a": ("_LIMIT = 3\n_SHARED: int = 4\n"
              "def _orphan():\n    return _LIMIT\n"
              "def _imported():\n    return 1\n"
              "class _Hidden:\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"),
        "b": "from .a import _imported\nimport a\nprint(a._SHARED)\n",
    }
    assert orphaned_private_names(sources) == ["a._Hidden (line 7)",
                                               "a._orphan (line 3)"]


def test_every_dataclass_field_is_read():
    defining = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [p.read_text() for top in ("src", "tests", "bench")
               for p in (ROOT / top).rglob("*.py")]
    assert unread_dataclass_fields(defining, readers) == []


def test_detects_an_unread_dataclass_field():
    defining = {"a": ("from dataclasses import dataclass\nimport dataclasses\n"
                      "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n"
                      "@dataclasses.dataclass\nclass Q:\n    z: float\n"
                      "class Plain:\n    w: int\n")}
    readers = ["def f(p, q):\n    q.z = 1\n    return p.x\n"]
    assert unread_dataclass_fields(defining, readers) == ["a.P.y (line 6)",
                                                          "a.Q.z (line 9)"]


def test_every_export_is_reached():
    sources = [p.read_text() for p in MODULES]
    sources += [p.read_text() for p in (ROOT / "bench").rglob("*.py")]
    assert unreached_exports((PACKAGE / "__init__.py").read_text(), sources) == []


def test_detects_an_unreached_export():
    init = ("from .a import called, orphan, imported\n"
            "from .b import (\n    Attr,\n    Defined,\n)\n__version__ = '1'\n")
    sources = ["def called():\n    return 1\ndef orphan():\n    return called()\n",
               "class Defined:\n    pass\nimport b\nb.Attr\n",
               "from a import imported\n"]
    assert unreached_exports(init, sources) == ["Defined (line 4)",
                                                "orphan (line 1)"]


def imports_module(source: str, name: str) -> bool:
    """Whether ``source`` imports the top-level module ``name`` anywhere."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == name for alias in node.names):
                return True
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == name):
            return True
    return False


def test_only_the_harness_imports_csv():
    # one module owns the CSV format of every file the package reads or writes
    importers = [p.name for p in PACKAGE.glob("*.py")
                 if imports_module(p.read_text(), "csv")]
    assert importers == ["harness.py"]


def test_detects_a_csv_import():
    assert imports_module("import csv\n", "csv")
    assert imports_module("def f():\n    from csv import writer\n", "csv")
    assert imports_module("import os, csv as c\n", "csv")
    assert not imports_module("import csvkit\nfrom .csv import x\n", "csv")


def tracer_sites(source: str) -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of the ``SITES`` tuple assigned at
    the top level of ``source``, read without importing it."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SITES" for t in node.targets)):
            return [tuple(site[:2]) for site in ast.literal_eval(node.value)]
    raise AssertionError("no SITES assignment")


def unresolved_sites(sites: list[tuple[str, str]]) -> list[str]:
    """Sites whose attribute is not a callable of its package module."""
    return [f"{module}.{attr}" for module, attr in sites
            if not callable(getattr(importlib.import_module(
                f"tunable_oracle.{module}"), attr, None))]


def test_every_tracer_site_resolves():
    # the tracer swaps a wrapper in at each site; a refactor that drops an
    # import site would otherwise fail only a traced benchmark run
    sites = tracer_sites((ROOT / "bench" / "tracer.py").read_text())
    assert len(sites) >= 20
    assert unresolved_sites(sites) == []


def test_detects_an_unresolved_site():
    source = ("X = 1\nSITES = (\n    ('harness', 'fgm_run', 'fgm.fgm_run'),\n"
              "    ('harness', 'FgmConfig', 'fgm.FgmConfig'),\n"
              "    ('harness', 'ALL_SCHEDULES', 'harness.ALL_SCHEDULES'),\n)\n")
    assert unresolved_sites(tracer_sites(source)) == ["harness.FgmConfig",
                                                      "harness.ALL_SCHEDULES"]
