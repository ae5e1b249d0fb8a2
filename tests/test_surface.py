"""`src/stratiform` holds what the command line runs; oracles live in tests.

A module-level definition in the package is reachable when its name
occurs, as a name or an attribute, in module-level code outside every
definition or inside a reachable definition, starting from `cli.main`.
A method of a reachable class is reachable when its name occurs as an
attribute there.  Names are matched across modules and classes, so the
search over-approximates what runs.  What it cannot reach belongs in
`tests/reference.py`, unless it is listed below with the reason it stays;
a method is listed as `Class.method`.

Because names are matched across classes, a method whose name another
class also uses passes the search whenever the other member is read, so
a dead method can hide behind it.  Those shared names are listed below
as well, each with who reads it, and a new one fails until it is listed.
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
    # argparse calls it on a bad command line
    "_Parser.error",
}

# Method names, dunders aside, that another package class also defines as
# a method, property, field or instance attribute.
SHARED_METHOD_NAMES = {
    # the property `Layer.codim`, which `Layer.dim` reads; the strata hold a field
    "codim",
    # the model route reads `BigradedModel.dim`, `CompactificationDatum.dim`
    # and the property `_ColumnCohomology.dim`, and the layer search the
    # property `ToricHypersurface.dim`; `Layer.dim` is a property of a
    # class kept above, and `LerayTable.dim` is read only by
    # tests/test_leraymodel.py; `ArrangementFile` holds a field
    "dim",
    # `Layer.equations` and `Layer.key`, methods of a class kept above,
    # beside the fields `ArrangementFile.equations` and `Stratum.key`
    "equations", "key",
    # the property `AxiomReport.passed`, which `model-selftest` reads,
    # beside the field `PurityReport.passed`
    "passed",
    # `LerayTable.rows`, which the `e2` command reads, beside `Matrix.rows`
    "rows",
    # `StrataData.validate`, which the E2 route calls, and
    # `CompactificationDatum.validate`, which only the tests call
    "validate",
    # `CdgaMorphism.violations`, which `check_r_quasi_iso` calls, beside
    # the field `AxiomReport.violations`
    "violations",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
OPERATORS = {ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__", ast.MatMult: "__matmul__",
             ast.USub: "__neg__"}


def _names(node):
    """(name, True) for each attribute that `node` reads, an operator reading
    its method, and (name, False) for each plain name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True
        elif isinstance(sub, (ast.BinOp, ast.UnaryOp, ast.AugAssign)) and type(sub.op) in OPERATORS:
            yield OPERATORS[type(sub.op)], True


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def unreachable_definitions():
    """(module, name) of every module-level definition, and every method
    (module, "Class.method") of a reachable class, not reachable from
    `cli.main`.  A class stands for its body without its methods.  A dunder
    method is a hook that Python calls itself, so it is reachable with its
    class, except an arithmetic operator, which needs its operator."""
    definitions, top_level = {}, []
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                methods = [n for n in node.body if isinstance(n, FUNCTIONS)] if isinstance(node, ast.ClassDef) else []
                definitions[module, node.name] = [n for n in ast.iter_child_nodes(node) if n not in methods]
                definitions.update({(module, "%s.%s" % (node.name, m.name)): [m] for m in methods})
            else:
                top_level.append(node)
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    reached, seen, todo = set(), set(), [("cli", "main")]

    def see(node):
        for name, attribute in set(_names(node)) - seen:
            seen.add((name, attribute))
            todo.extend(by_name.get(name, ()))

    for node in top_level:
        see(node)
    while todo:
        key = todo.pop()
        module, name = key
        owner, _, method = name.rpartition(".")
        hook = method.startswith("__") and method not in OPERATORS.values()
        if key in reached or owner and ((module, owner) not in reached or not (hook or (method, True) in seen)):
            continue
        reached.add(key)
        todo.extend(k for k in definitions if k[0] == module and k[1].startswith(name + "."))
        for node in definitions[key]:
            see(node)
    return {(module, name) for module, name in set(definitions) - reached
            if "." not in name or (module, name.rpartition(".")[0]) in reached}


def shared_method_names():
    """Each method name, dunders aside, of a package class that another
    package class also defines as a method, a property, a field (a name
    bound in its body) or an instance attribute (set on a method's first
    argument)."""
    members = []
    for tree in _modules().values():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods, others = set(), set()
            for node in cls.body:
                if isinstance(node, FUNCTIONS):
                    methods.add(node.name)
                    me = node.args.args[0].arg if node.args.args else None
                    others.update(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                                  and isinstance(sub.ctx, ast.Store) and isinstance(sub.value, ast.Name)
                                  and sub.value.id == me)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    others.update(sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name))
            members.append((methods, methods | others))
    return {name for n, (methods, _) in enumerate(members) for name in methods if not name.startswith("__")
            and any(name in defined for m, (_, defined) in enumerate(members) if m != n)}


def test_every_other_definition_is_reachable_from_the_command_line():
    unreachable = unreachable_definitions()
    assert {name for _, name in unreachable} == KEPT_UNREACHABLE, sorted(unreachable)


def test_every_method_name_shared_between_classes_is_listed():
    shared = shared_method_names()
    assert shared == SHARED_METHOD_NAMES, sorted(shared ^ SHARED_METHOD_NAMES)


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
