"""The benchmark tracer finds clustercat's stages and counters by name.

``perfbench/tracing.py`` wraps functions and methods by their dotted
names; a renamed one would silently read as zero in a traced run, so
every name it relies on must resolve to an attribute of the package.
"""

import importlib

import pytest

from conftest import load_tracing

_tracing = load_tracing()
_NAMES = sorted(
    {name for names in (*_tracing.STAGES.values(), *_tracing.COUNTS.values()) for name in names}
)


@pytest.mark.parametrize("name", _NAMES)
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module(f"clustercat.{layer}")
    for attr in path:
        target = getattr(target, attr)
    assert callable(target) or hasattr(target, "func"), name


def test_traced_classes_exist():
    for layer, class_names in _tracing.CLASSES.items():
        module = importlib.import_module(f"clustercat.{layer}")
        for class_name in class_names:
            assert isinstance(getattr(module, class_name), type)
