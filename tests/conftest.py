import importlib.util
from pathlib import Path

import pytest
from hypothesis import strategies as st

import clustercat as cc
from clustercat.derived import DObject
from clustercat.verify import DIAGRAMS, orientations

A1 = "vertices 1\n"
A2 = "vertices 2\narrow 1 2\n"
A3 = "vertices 3\narrow 1 2\narrow 2 3\n"
A4 = "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4\n"
D4 = "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4\n"
D5 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5\n"
A7 = "vertices 7\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 7))
# E_n: the chain 1 -> 2 -> ... -> n-1 plus the arrow 3 -> n
E6 = "vertices 6\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 5)) + "arrow 3 6\n"
E7 = "vertices 7\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 6)) + "arrow 3 7\n"
E8 = "vertices 8\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 7)) + "arrow 3 8\n"

# the 23 labelled orientations of the default verify battery
BATTERY_QUIVERS = dict(oriented for name in DIAGRAMS for oriented in orientations(name))

# Dynkin trees up to rank 6 as edge lists, for tests that orient and label them at random
TREES = {
    "A1": (),
    "A3": ((1, 2), (2, 3)),
    "A5": ((1, 2), (2, 3), (3, 4), (4, 5)),
    "D5": ((1, 2), (2, 3), (3, 4), (3, 5)),
    "A6": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
    "D6": ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)),
    "E6": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
}


@st.composite
def oriented_trees(draw, edges):
    """The tree with these edges under a random orientation and vertex numbering."""
    n = len(edges) + 1
    label = draw(st.permutations(range(1, n + 1)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arrows = tuple(
        (label[b - 1], label[a - 1]) if flip else (label[a - 1], label[b - 1])
        for (a, b), flip in zip(edges, flips)
    )
    return cc.Quiver(n, arrows)

_cache: dict = {}


@pytest.fixture(scope="session")
def build():
    """Session-cached DerivedCategory factory keyed by quiver text."""

    def _build(text: str) -> cc.DerivedCategory:
        if text not in _cache:
            q = cc.parse_quiver(text)
            _cache[text] = cc.DerivedCategory(cc.ARQuiver(q))
        return _cache[text]

    return _build


def module_id(ar, dim_vector) -> int:
    """Id of the AR quiver's module with this dimension vector."""
    return next(m.id for m in ar.modules if m.dim_vector == tuple(dim_vector))


def module_obj(cat, dim_vector, shift: int = 0) -> int:
    """Catalog position of the orbit category's object by module dimension vector."""
    return cat.canonicalize(DObject(module_id(cat.ar, dim_vector), shift))


def load_tracing():
    """perfbench/tracing.py, loaded from its file: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
