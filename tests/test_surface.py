"""`src/stratiform` holds what the command line runs; oracles live in tests.

A module-level definition in the package is reachable when its name
occurs, as a name or an attribute, in module-level code outside every
definition or inside a reachable definition, starting from `cli.main`.
Names are matched across modules, so the search over-approximates what
runs.  What it cannot reach belongs in `tests/reference.py`, unless it is
listed below with the reason it stays.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratiform"

KEPT_UNREACHABLE = {
    # acceptance criterion 3 checks it against brute force, and the
    # reference layer poset of the tests builds on it
    "layers_from_equations",
    # the layers that `layers_from_equations` returns
    "Layer",
    # acceptance criterion 8
    "localization_betti",
    "LocalizedBetti",
    # the canonical text form for library callers; the command line
    # digests the canonical file it already holds
    "render_arrangement",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def unreachable_definitions():
    """(module, name) of every module-level definition not reachable from `cli.main`."""
    definitions = {}
    roots = {("cli", "main")}
    top_level_names = set()
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
            else:
                top_level_names.update(_names(node))
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1], []).append(key)
    roots.update(key for name in top_level_names for key in by_name.get(name, ()))
    reached = set(roots)
    todo = list(roots)
    while todo:
        for name in _names(definitions[todo.pop()]):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(key)
    return set(definitions) - reached


def test_every_other_definition_is_reachable_from_the_command_line():
    unreachable = unreachable_definitions()
    assert {name for _, name in unreachable} == KEPT_UNREACHABLE, sorted(unreachable)


def test_the_package_imports_nothing_from_the_tests():
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module or ""]
            else:
                continue
            for target in targets:
                assert target.split(".")[0] not in {"reference", "tests"}, (module, target)
