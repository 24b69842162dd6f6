"""Library-wide source checks."""

import ast
from pathlib import Path

import hilden

SRC = Path(hilden.__file__).parent


def test_no_assert_in_library_code():
    # python -O strips assert statements, so library invariants must raise
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
