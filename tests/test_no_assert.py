"""No module of the package checks anything with `assert`.

`python -O` strips assert statements, so a witness check written as one
would silently stop running; checks raise `VerificationError` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_has_no_assert_statement():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
