"""Library-wide source checks."""

import ast
import re
import sys
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


def _absolute_imports():
    """(file name, line, dotted module) of every absolute import in the
    package; relative imports stay inside it."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((path.name, node.lineno, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.lineno, node.module


def test_library_imports_only_the_standard_library():
    # hilden is stdlib-only: an absolute import must name a standard-library
    # module or hilden itself
    allowed = set(sys.stdlib_module_names) | {"hilden"}
    found = [f"{fname}:{line} {mod}" for fname, line, mod in _absolute_imports()
             if mod.split(".")[0] not in allowed]
    assert not found, found


def test_library_starts_no_worker_processes():
    # verification is one serial loop; a process pool paid on some commands
    # and cost on others, and no row count told which
    found = [f"{fname}:{line} {mod}" for fname, line, mod in _absolute_imports()
             if mod.split(".")[0] in ("concurrent", "multiprocessing")]
    assert not found, found


def test_only_the_ladder_calls_the_word_problem_oracles():
    # cli and presentations decide triviality through spheremcg.closes_at, so
    # the order of the permutation / braid / sphere checks lives in one place
    oracles = re.compile(r"\b(braids_equal|braid_is_trivial|mcg_equal|sphere_trivial)\b")
    found = [f"{fname}:{i} {m.group()}" for fname in ("cli.py", "presentations.py")
             for i, line in enumerate((SRC / fname).read_text().splitlines(), start=1)
             for m in oracles.finditer(line)]
    assert not found, found


def test_only_words_spells_the_letter_arithmetic():
    # inverting a letter sequence and concatenating with cancellation at the
    # seam are words._inv and words._cat; other modules import them
    spellings = re.compile(r"-(\w+) for \1 in reversed\(|\[-1\] == -")
    found = [f"{path.name}:{i} {m.group()}" for path in sorted(SRC.rglob("*.py"))
             if path.name != "words.py"
             for i, line in enumerate(path.read_text().splitlines(), start=1)
             for m in spellings.finditer(line)]
    assert not found, found


def _bound_names(stmt):
    if isinstance(stmt, ast.FunctionDef):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unused_private_names(kinds):
    """Private names bound at the top level by statements of ``kinds`` that no
    other top-level statement in the package names (as an AST name or
    attribute)."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    uses = [(stmt, names(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{fname}:{stmt.lineno} {name}"
            for fname, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, kinds)
            for name in _bound_names(stmt)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in used for other, used in uses if other is not stmt)]


def test_every_private_function_is_used():
    # a private top-level function that nothing else in the package names is
    # dead code left behind by a refactor
    unused = _unused_private_names(ast.FunctionDef)
    assert not unused, unused


def test_every_private_constant_is_used():
    # so is a private module constant, such as a table whose reader is gone
    unused = _unused_private_names((ast.Assign, ast.AnnAssign))
    assert not unused, unused


def test_only_normal_form_builds_a_normal_form():
    # nf_multiply and nf_inverse normalize a word, so a GarsideNF has one road
    tree = ast.parse((SRC / "braids.py").read_text())
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("_normalize_factors", "GarsideNF")):
                where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
                found.append(f"{where}:{node.lineno} {node.func.id}")
    assert found and all(f.startswith("normal_form:") for f in found), found
