"""The package's public names, and no dead ones."""

import ast
from pathlib import Path

import muscletract


def test_every_exported_name_resolves():
    assert len(set(muscletract.__all__)) == len(muscletract.__all__)
    assert [name for name in muscletract.__all__ if not hasattr(muscletract, name)] == []


def test_import_star():
    namespace = {}
    exec("from muscletract import *", namespace)
    assert set(muscletract.__all__) <= set(namespace)


# Top-level names that nothing in src/ uses and __all__ does not export, each
# kept for the reason given.
KEPT_ORPHANS = {
    "formats.load_density": "the DENS reader, which acceptance criterion 10 round-trips",
    "formats.load_streamlines": "the whole-set STRL reader, which the benchmark's output "
                                "checks (perfbench/checks.py) and the tests call",
}


def _top_level_names(tree: ast.Module):
    """(name, statement) of every function, class and variable that a module
    defines at its top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def _used_names(node) -> set[str]:
    """Names that a statement reads, imports or reaches as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_top_level_name_is_used_or_exported():
    """A top-level name of a library module that no other statement in src/
    uses, and that __all__ does not export, is dead code."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(muscletract.__file__).parent.glob("*.py"))}
    uses = [(stmt, _used_names(stmt)) for tree in trees.values() for stmt in tree.body]
    orphans = set()
    for module, tree in trees.items():
        for name, defined_in in _top_level_names(tree):
            if name.startswith("__") or name in muscletract.__all__:
                continue
            if not any(name in used for stmt, used in uses if stmt is not defined_in):
                orphans.add(f"{module}.{name}")
    assert orphans == set(KEPT_ORPHANS)
