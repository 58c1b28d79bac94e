"""The package namespace: every exported name resolves, the package
imports nothing outside itself and the standard library, and every
definition in it has a caller."""

import ast
import sys
from pathlib import Path

import clustercat

from conftest import load_tracing


def test_every_name_in_all_resolves():
    assert [name for name in clustercat.__all__ if not hasattr(clustercat, name)] == []
    namespace = {}
    exec("from clustercat import *", namespace)  # raises on a stale name
    assert set(clustercat.__all__) <= set(namespace)


def test_every_import_is_relative_or_stdlib():
    # pyproject.toml declares dependencies = []; this keeps it true
    package = Path(clustercat.__file__).resolve().parent
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or one relative to clustercat
            top = {name.split(".")[0] for name in names}
            outside += [(path.name, t) for t in sorted(top - {"clustercat"}) if t not in sys.stdlib_module_names]
    assert outside == []


def test_every_definition_is_referenced_exported_or_traced():
    # "delete code nothing calls": a top-level function or class, or a
    # method that is not a dunder, needs a reference elsewhere in the
    # package, a place in __all__, or a name in the benchmark tracer
    package = Path(clustercat.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    tracing = load_tracing()
    traced = {name for names in (*tracing.STAGES.values(), *tracing.COUNTS.values()) for name in names}
    traced_classes = {f"{layer}.{name}" for layer, names in tracing.CLASSES.items() for name in names}
    kept = referenced | set(clustercat.__all__)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    candidates = []  # (name, dotted name)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            dotted = f"{module}.{node.name}"
            if dotted in traced_classes:
                continue  # the tracer wraps the class and its methods
            candidates.append((node.name, dotted))
            if isinstance(node, ast.ClassDef):
                candidates += [(m.name, f"{dotted}.{m.name}") for m in node.body if isinstance(m, defs)]
    kept |= {name for name, _ in candidates if name[:2] == name[-2:] == "__"}  # Python calls dunders
    dead = [dotted for name, dotted in candidates if name not in kept and dotted not in traced]
    assert dead == []
