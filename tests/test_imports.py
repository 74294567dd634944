"""Static guards: every name a package module imports is used in it, every
module-level ``_private`` name is referenced somewhere in the package, every
dataclass field the package declares is read somewhere in the repo, every
public module-level function and class of the package is reached from the
package or the benchmark, every import site the benchmark's tracer wraps
exists, only the harness imports ``csv``, only the harness's experiment
record and config validation branch on the experiment id, only
``accuracy_problem`` and ``_transient`` branch on the cost kind in the
schedule solver, the harness and the oracles test neither a cost kind
nor the exponent r outside the harness's one r -> cost model function,
the harness's run path names no oracle, no inner state and no family, the
CLI imports no private name of the package, one guard in the schedule solver
raises the errors that say what left the doubles, the power weights
(b a^r)^(1/(r+1)) are written once, and the schedule solver has no ``@``.

No lint tool is part of the toolchain, so these tests walk each module's
syntax tree with the standard-library ``ast`` module. The import guard skips
``__init__.py``: its imports are the package's public re-exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

from tunable_oracle.harness import ALL_SCHEDULES

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


def unreached_public_names(package: dict[str, str], reachers: list[str]) -> list[str]:
    """Public module-level functions and classes of ``package`` (module name
    -> source) that no source in ``reachers`` references and no module of
    ``package`` references outside the name's own definition."""
    statements = [(module, node, referenced_names(node))
                  for module, source in package.items()
                  for node in ast.parse(source).body]
    reached = set()
    for source in reachers:
        reached |= referenced_names(ast.parse(source))
    unreached = []
    for module, node, _ in statements:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in reached
                and not any(node.name in refs for _, other, refs in statements
                            if other is not node)):
            unreached.append(f"{module}.{node.name} (line {node.lineno})")
    return sorted(unreached)


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
    # code only the tests reach belongs under tests/; a re-export from
    # __init__ alone does not count as a use
    package = {p.stem: p.read_text() for p in MODULES}
    bench = [p.read_text() for p in (ROOT / "bench").rglob("*.py")]
    assert unreached_public_names(package, bench) == []


def test_detects_an_unreached_export():
    package = {
        "a": ("def called():\n    return 1\n"
              "def orphan():\n    return called()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class Unused:\n    pass\n"
              "def _private():\n    pass\n"
              "async def from_bench():\n    pass\n"
              "def imported():\n    pass\n"),
        "b": ("from .a import imported\nimport a\na.Attr\n"
              "class Attr:\n    pass\n"
              "class Annotated:\n    pass\ndef uses(x: Annotated):\n    return x\n"),
    }
    bench = ["from tunable_oracle.a import from_bench\nimport tunable_oracle.b\n"
             "tunable_oracle.b.uses(1)\n"]
    assert unreached_public_names(package, bench) == ["a.Unused (line 7)",
                                                      "a.orphan (line 3)",
                                                      "a.recursive (line 5)"]


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


def private_relative_imports(source: str) -> list[str]:
    """``_``-prefixed names that relative imports in ``source`` bind, by the
    name imported (an alias does not hide it)."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_the_cli_imports_only_public_names():
    # the CLI reaches the package through its public functions; a private
    # helper imported here is a second way to do what one of them does
    assert private_relative_imports((PACKAGE / "cli.py").read_text()) == []


def test_detects_a_private_relative_import():
    source = ("from .harness import (load_config,\n    _parse_value)\n"
              "from ._private import x\nfrom os import _exit\n"
              "def f():\n    from .a import _g as g\n    return g\n")
    assert private_relative_imports(source) == ["_parse_value (line 1)", "_g (line 6)"]


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


def _reads_attribute(node: ast.AST, attr: str) -> bool:
    """A comparison with ``.<attr>``, or a lookup keyed on it: a subscript, a
    ``.get`` call or a ``match`` subject."""
    def is_attr(n):
        return isinstance(n, ast.Attribute) and n.attr == attr
    if isinstance(node, ast.Compare):
        return any(map(is_attr, [node.left, *node.comparators]))
    if isinstance(node, ast.Subscript):
        return is_attr(node.slice)
    if isinstance(node, ast.Match):
        return is_attr(node.subject)
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
        return bool(node.args) and is_attr(node.args[0])
    return False


def attribute_branches(source: str, attr: str, allowed: set[str]) -> list[str]:
    """Where ``source`` compares or keys a lookup on ``.<attr>`` outside the
    functions named in ``allowed`` (qualified, ``Class.method``) and the
    functions nested in them."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif _reads_attribute(child, attr) and not any(
                    scope == name or scope.startswith(f"{name}.") for name in allowed):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, inner)
    visit(ast.parse(source), "")
    return found


def test_only_the_record_reads_the_experiment_id():
    # one record per sweep describes the experiment; the run path reads the
    # record's fields, not the id, so adding an experiment touches one place
    source = (PACKAGE / "harness.py").read_text()
    assert attribute_branches(
        source, "experiment", {"ExperimentConfig.__post_init__", "_experiment"}) == []


def test_detects_an_experiment_id_branch():
    allowed = {"Config.__post_init__", "_experiment"}
    source = ("class Config:\n"
              "    def __post_init__(self):\n        assert self.experiment in (1, 2)\n"
              "    def other(self):\n        return self.experiment != 1\n"
              "def _experiment(config):\n"
              "    def nested():\n        return config.experiment == 3\n"
              "    return {1: 0}[config.experiment]\n"
              "def _run(config, table):\n"
              "    if config.experiment == 2:\n        pass\n"
              "    row = table.get(config.experiment)\n"
              "    match config.experiment:\n        case 1:\n            pass\n"
              "    return [config.experiment], table[config.experiment]\n"
              "FLAG = Config().experiment > 1\n")
    assert attribute_branches(source, "experiment", allowed) == [
        "Config.other (line 5)", "_run (line 11)", "_run (line 13)",
        "_run (line 14)", "_run (line 17)", "<module> (line 18)"]
    # a branch planted in the real harness is found, and only it
    harness = (PACKAGE / "harness.py").read_text()
    planted = harness + "\n\ndef _planted(config):\n    if config.experiment == 2:\n        pass\n"
    line = len(harness.splitlines()) + 4
    assert attribute_branches(
        planted, "experiment", {"ExperimentConfig.__post_init__", "_experiment"}) == [
            f"_planted (line {line})"]


def run_path_names(source: str, functions: set[str], names: set[str],
                   literals: set[str]) -> list[str]:
    """Where the top-level functions of ``source`` named in ``functions``
    name one of ``names`` (loaded or as an attribute) or hold a string
    literal in ``literals``."""
    found = []
    for node in ast.parse(source).body:
        if getattr(node, "name", None) not in functions:
            continue
        for child in ast.walk(node):
            name = getattr(child, "id", getattr(child, "attr", None))
            if isinstance(child, ast.Constant) and child.value in literals:
                name = repr(child.value)
            elif name not in names:
                continue
            found.append((child.lineno, node.name, name))
    return [f"{func}: {name} (line {line})" for line, func, name in sorted(found)]


RUN_PATH = {"_run_one", "run_experiment"}
RUN_PATH_NAMES = {"InnerState", "hull_oracle", "hull_value", "noisy_oracle",
                  "softmax_value_grad"}


def test_the_run_path_names_no_oracle_and_no_family():
    # each run's oracle and sampler come from the experiment record, and the
    # horizon-dependent families are named once, outside the run path
    source = (PACKAGE / "harness.py").read_text()
    assert run_path_names(source, RUN_PATH, RUN_PATH_NAMES, set(ALL_SCHEDULES)) == []


def test_detects_a_run_path_name():
    source = ("def _run_one(exp, h):\n    state = InnerState()\n"
              "    return h.hull_value(state), 'tunable', 'tuna'\n"
              "def run_experiment(names):\n    return 'constant' in names\n"
              "def _other():\n    return InnerState(), 'tunable'\n")
    assert run_path_names(source, RUN_PATH, RUN_PATH_NAMES, set(ALL_SCHEDULES)) == [
        "_run_one: InnerState (line 2)", "_run_one: 'tunable' (line 3)",
        "_run_one: hull_value (line 3)", "run_experiment: 'constant' (line 5)"]
    # a family test planted in the real run_experiment is found, and only it
    harness = (PACKAGE / "harness.py").read_text()
    head, tail = harness.split("def run_experiment(", 1)
    body, rest = tail.split("    for delta_ref in config.delta_ref:\n", 1)
    planted = (f"{head}def run_experiment({body}    assert 'poly3'\n"
               f"    for delta_ref in config.delta_ref:\n{rest}")
    line = len(f"{head}def run_experiment({body}".splitlines()) + 1
    assert run_path_names(planted, RUN_PATH, RUN_PATH_NAMES, set(ALL_SCHEDULES)) == [
        f"run_experiment: 'poly3' (line {line})"]


KIND_READERS = {"accuracy_problem", "_transient"}


def test_only_the_transient_reads_the_cost_kind():
    # each accuracy cost kind lives in one function; the water-filling driver
    # and both front ends run one path whatever the kind
    source = (PACKAGE / "schedule_solver.py").read_text()
    assert attribute_branches(source, "kind", KIND_READERS) == []


def test_detects_a_cost_kind_branch():
    # a branch planted in the real solve_accuracy is found, and only it
    source = (PACKAGE / "schedule_solver.py").read_text()
    head, tail = source.split("def solve_accuracy(", 1)
    body, rest = tail.split("    cm = p.cost_model\n", 1)
    planted = (f"{head}def solve_accuracy({body}    cm = p.cost_model\n"
               f"    if cm.kind == POWER:\n        pass\n{rest}")
    line = len(f"{head}def solve_accuracy({body}".splitlines()) + 2
    assert attribute_branches(planted, "kind", KIND_READERS) == [
        f"solve_accuracy (line {line})"]
    assert attribute_branches("def f(cm):\n    return {1: 2}.get(cm.kind)\n",
                              "kind", KIND_READERS) == ["f (line 2)"]


R_READERS = {"ExperimentConfig.__post_init__", "_cost_model"}


def test_one_cost_model_from_config_to_oracle():
    # the harness resolves the config's exponent into one CostModel; the run
    # path and the oracle read that model, and cost_models answers its domain
    harness, problems = ((PACKAGE / name).read_text() for name in ("harness.py", "problems.py"))
    # export_schedule reads a Schedule's kind (accuracy or work), not a cost's
    assert attribute_branches(harness, "kind", {"export_schedule"}) == []
    assert attribute_branches(problems, "kind", set()) == []
    assert attribute_branches(harness, "r", R_READERS) == []
    assert attribute_branches(problems, "r", set()) == []
    oracle = next(node for node in ast.parse(problems).body
                  if getattr(node, "name", None) == "noisy_oracle")
    # a bare parameter r is invisible to attribute_branches
    assert "r" not in [arg.arg for arg in oracle.args.args + oracle.args.kwonlyargs]
    # the charge comes from the caller's model: cost takes no default
    params = [arg.arg for arg in oracle.args.args]
    assert params.index("cost") < len(params) - len(oracle.args.defaults)


def test_detects_a_cost_model_branch():
    # a test of r planted in the real harness run path is found, and only it
    harness = (PACKAGE / "harness.py").read_text()
    head, tail = harness.split("def _tunable_values(", 1)
    body, rest = tail.split("    problem = ScheduleProblem(", 1)
    planted = (f"{head}def _tunable_values({body}    if config.r == 0.0:\n        pass\n"
               f"    problem = ScheduleProblem({rest}")
    line = len(f"{head}def _tunable_values({body}".splitlines()) + 1
    assert attribute_branches(planted, "r", R_READERS) == [f"_tunable_values (line {line})"]
    assert attribute_branches("def f(exp):\n    return exp.cost.kind == 'power'\n",
                              "kind", set()) == ["f (line 2)"]


def doubles_raisers(source: str) -> list[str]:
    """The functions (qualified, ``outer.inner``) of ``source`` that raise a
    ``SolverError`` whose message text says "the doubles"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "SolverError"
                    and any(isinstance(n, ast.Constant) and "the doubles" in str(n.value)
                            for n in ast.walk(child.exc))):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, inner)
    visit(ast.parse(source), "")
    return found


def test_one_guard_names_what_leaves_the_doubles():
    # every quantity the water-filling forms from a and b passes one guard,
    # so "leaves the doubles" has one wording and one NaN rule
    source = (PACKAGE / "schedule_solver.py").read_text()
    assert [site.split(" ")[0] for site in doubles_raisers(source)] == ["_in_doubles"]


def test_detects_a_second_doubles_raiser():
    source = ("def _guard(x):\n    raise SolverError(f'{x} leaves the doubles')\n"
              "def solve(p):\n    def inner():\n"
              "        raise SolverError('the key leaves the doubles at index 0')\n"
              "    if p:\n        raise SolverError(f'the values leave the doubles at {p}')\n"
              "    raise ValueError('the doubles')\n"
              "def other():\n    raise SolverError('budget equation violated')\n")
    assert doubles_raisers(source) == ["_guard (line 2)", "solve.inner (line 5)",
                                       "solve (line 7)"]
    # a check planted in the real solve_work is found, next to the guard
    solver = (PACKAGE / "schedule_solver.py").read_text()
    head, tail = solver.split("def solve_work(", 1)
    body, rest = tail.split("    tol = _REL_TOL * p.omega_bar\n", 1)
    planted = (f"{head}def solve_work({body}    if not w.max() < math.inf:\n"
               f"        raise SolverError('the work weight leaves the doubles')\n"
               f"    tol = _REL_TOL * p.omega_bar\n{rest}")
    line = len(f"{head}def solve_work({body}".splitlines()) + 2
    assert [site for site in doubles_raisers(planted)
            if not site.startswith("_in_doubles ")] == [f"solve_work (line {line})"]


def power_weight_sites(source: str) -> list[int]:
    """Lines of ``source`` that raise a product with a power factor to a
    power, as the weights (b a^r)^(1/(r+1)) do, by ``**`` or ``np.power``."""
    def product_with_power(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Pow)
                        for side in (node.left, node.right)))
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "power"):
            base = node.args[0]
        else:
            continue
        if product_with_power(base):
            sites.append(node.lineno)
    return sorted(sites)


def test_the_power_weights_are_written_once():
    # the accuracy solve's power kind and the work split share one formula
    sites = {p.name: power_weight_sites(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert [name for name, lines in sites.items() for _ in lines] == ["schedule_solver.py"]


def test_detects_a_second_power_weight():
    source = ("w = (b * a**r) ** (1.0 / (r + 1.0))\n"
              "v = (p.a ** p.r * p.b) ** (1 / (p.r + 1))\n"
              "u = np.power(b * a**r, 1.0 / (r + 1.0))\n"
              "f = (b_q * a_k / (a_q * b_k)) ** (1.0 / (r + 1.0))\n"
              "g = nu ** (1.0 / (r + 1.0)) * b ** 2\n")
    assert power_weight_sites(source) == [1, 2, 3]


def matmul_sites(source: str) -> list[int]:
    """Lines of ``source`` that apply the ``@`` operator, as ``x @ y`` or ``x @= y``;
    a decorator is no operator."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult))


def test_the_schedule_solver_has_no_matmul():
    # BLAS splits a long ``@`` across threads and rounds its sum by the
    # split, so the solver's sums over ranks go through numpy's own loop
    assert matmul_sites((PACKAGE / "schedule_solver.py").read_text()) == []


def test_detects_a_matmul():
    source = ("@dataclass(frozen=True)\nclass P:\n    x: float\n"
              "s = float(b[i:j] @ (w * w))\nt @= u\n"
              "v = np.einsum('i,i->', b, w)  # b @ w\n")
    assert matmul_sites(source) == [4, 5]
    # one planted in the real solver is found
    solver = (PACKAGE / "schedule_solver.py").read_text()
    head, tail = solver.split("        return _dot(b[i:j], w * w)\n", 1)
    planted = f"{head}        return float(b[i:j] @ (w * w))\n{tail}"
    assert matmul_sites(planted) == [len(head.splitlines()) + 1]
