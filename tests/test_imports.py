"""Static guards: every name a package module imports is used in it, and
every module-level ``_private`` name is referenced somewhere in the package.

No lint tool is part of the toolchain, so these tests walk each module's
syntax tree with the standard-library ``ast`` module. The import guard skips
``__init__.py``: its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tunable_oracle"
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name} (line {line})"
                  for module, name, line in defined if name not in referenced)


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
