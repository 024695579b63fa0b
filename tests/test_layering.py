"""The package's modules form a stack: every import sits at module level and
points to a module of strictly lower rank."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matpart"

RANK = {
    "model": 0,
    "solver": 1,
    "randtypes": 1,
    "constructions": 2,
    "textio": 3,
    "cli": 4,
}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_rank():
    assert MODULES == sorted(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function_or_class(module):
    nested = sorted({
        inner.lineno
        for outer in ast.walk(parse(module))
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for inner in ast.walk(outer)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert not nested, f"{module}: import inside a function or class on lines {nested}"


@pytest.mark.parametrize("module", MODULES)
def test_relative_imports_point_down_the_stack(module):
    upward = []
    for node in ast.walk(parse(module)):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None:  # from . import a, b
            targets = [alias.name for alias in node.names]
        else:
            targets = [node.module.split(".")[0]]
        upward.extend(t for t in targets if RANK[t] >= RANK[module])
    assert not upward, f"{module} (rank {RANK[module]}) imports {upward}"
