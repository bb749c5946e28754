"""Checks on the package's source text rather than on its behaviour."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superposer"


def test_package_has_no_assert_statements():
    # python -O strips assert, so no check in the package may rest on one.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_only_the_simulator_imports_numpy():
    # Gate matrices in ir, and every layer but dense simulation, stay usable without numpy.
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_numpy(node)
    }
    assert importers == {"simulator.py"}
