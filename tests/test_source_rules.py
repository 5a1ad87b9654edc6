"""Rules on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pushcrit as pc

SOURCE = Path(pc.__file__).parent


def test_the_library_has_no_assert_statements():
    # python -O strips assert statements, so a check that gates an answer
    # must raise instead (SelfCheckError for the library's own checks)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
