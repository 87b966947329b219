"""Import layering: the process generators and the baselines build on
``core`` alone, so neither imports the optimizer, its subproblems or the
experiment tables."""

import ast
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
