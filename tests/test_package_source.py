"""Checks on the package's source text rather than on its behaviour."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superposer"


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


def _public_names(tree: ast.Module):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )


def test_every_public_name_has_a_caller_outside_the_tests():
    # A name seen only at its definition is surface that nothing but a test reads.
    sources = sorted(PACKAGE.glob("*.py"))
    readers = (*sources, *sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md")
    texts = [path.read_text() for path in readers]
    unused = [
        f"{path.name}:{name}"
        for path, text in zip(sources, texts)
        for name in _public_names(ast.parse(text, str(path)))
        if sum(len(re.findall(rf"\b{name}\b", other)) for other in texts) < 2
    ]
    assert not unused, f"public names with no caller outside the tests: {unused}"
