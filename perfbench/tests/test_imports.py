"""perfbench stands alone: nothing from the code the roadmap may delete."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent
FORBIDDEN = ("repro.bench", "benchmarks", "scripts")


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_forbidden_imports():
    for path in sorted(PACKAGE.rglob("*.py")):
        for module in imported_modules(path):
            assert not any(module == bad or module.startswith(bad + ".")
                           for bad in FORBIDDEN), (path.name, module)


def test_platforms_are_built_in_one_place():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "workloads.py":
            continue
        names = {node.id for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Name)}
        assert "DlaasPlatform" not in names, path.name
