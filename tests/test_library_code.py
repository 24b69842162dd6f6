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


def test_every_private_function_is_used():
    # a private top-level function that nothing else in the package names is
    # dead code left behind by a refactor
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    uses = [(stmt, names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [f"{fname}:{fn.lineno} {fn.name}"
              for fname, tree in trees.items() for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
              and not fn.name.startswith("__")
              and not any(fn.name in used for stmt, used in uses if stmt is not fn)]
    assert not unused, unused
