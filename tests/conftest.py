import pytest

import clustercat as cc
from clustercat.derived import DObject
from clustercat.verify import DIAGRAMS, orientations

A1 = "vertices 1\n"
A2 = "vertices 2\narrow 1 2\n"
A3 = "vertices 3\narrow 1 2\narrow 2 3\n"
A4 = "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4\n"
D4 = "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4\n"
D5 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5\n"
# E_n: the chain 1 -> 2 -> ... -> n-1 plus the arrow 3 -> n
E6 = "vertices 6\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 5)) + "arrow 3 6\n"
E7 = "vertices 7\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 6)) + "arrow 3 7\n"
E8 = "vertices 8\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 7)) + "arrow 3 8\n"

# the 23 labelled orientations of the default verify battery
BATTERY_QUIVERS = dict(oriented for name in DIAGRAMS for oriented in orientations(name))

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
