"""The package namespace: every exported name resolves, and the package
imports nothing outside itself and the standard library."""

import ast
import sys
from pathlib import Path

import clustercat


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
