"""Import layering: the process generators and the baselines build on
``core`` alone, so neither imports the optimizer, its subproblems or the
experiment tables.  The package's ``__init__`` imports nothing, so the
layering holds at import time too."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import wcmean

ABOVE = {"optimizer", "subproblems", "experiments"}


def relative_imports(module: str) -> set[str]:
    """Package modules named by the ``from .x import`` and ``from . import x``
    lines of a wcmean module."""
    tree = ast.parse((Path(wcmean.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module", ["collectors", "baselines"])
def test_module_imports_nothing_above_it(module):
    assert relative_imports(module) & ABOVE == set()


def test_package_init_imports_nothing():
    tree = ast.parse((Path(wcmean.__file__).parent / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


# the package modules a fresh import of each module loads: itself and
# what it builds on
LOADS = {
    "core": ["wcmean.core"],
    "baselines": ["wcmean.baselines", "wcmean.core"],
    "collectors": ["wcmean.baselines", "wcmean.collectors", "wcmean.core"],
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_fresh_import_loads_nothing_above(module):
    src = str(Path(wcmean.__file__).parent.parent)
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import wcmean.{module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wcmean.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == LOADS[module]


# The estimator's storage format is known to ``core`` alone: no other
# module reads an attribute named ``weights`` or calls the
# ``SemilinearEstimator`` constructor.  Other objects' ``weights``
# attributes are named here, each expected exactly where it is read.
OTHER_WEIGHTS = {("optimizer", "geom.weights")}


def format_uses(module: str) -> tuple[set, list]:
    """(module, expression) of each ``.weights`` read, and each
    ``SemilinearEstimator(...)`` call, in a wcmean module."""
    tree = ast.parse((Path(wcmean.__file__).parent / f"{module}.py").read_text())
    reads, calls = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "weights":
            reads.add((module, ast.unparse(node)))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "SemilinearEstimator":
                calls.append((module, ast.unparse(node)))
    return reads, calls


def test_only_core_knows_the_estimator_format():
    modules = sorted(p.stem for p in Path(wcmean.__file__).parent.glob("*.py"))
    reads, calls = set(), []
    for module in modules:
        if module != "core":
            module_reads, module_calls = format_uses(module)
            reads |= module_reads
            calls += module_calls
    assert calls == []
    assert reads == OTHER_WEIGHTS
