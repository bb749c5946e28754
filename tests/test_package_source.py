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
