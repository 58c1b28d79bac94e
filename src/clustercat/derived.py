"""Stalk-complex model of the bounded derived category of a Dynkin algebra.

Since the algebra is hereditary, every indecomposable is a shifted module,
so objects are just (catalog id, shift) pairs.  The AR translation is
total here: it sends a projective P_i to I_i[-1].  The twist functor
(inverse translation followed by the shift) is the automorphism whose
powers get quotiented out in the orbit categories.  tau, its inverse, the
twist and its inverse read per-module step tables built once from the AR
quiver's translation, projectives and injectives; ``twist_power`` walks
the table one step at a time without building the objects in between.
"""

from __future__ import annotations

import re
import weakref
from functools import cached_property
from typing import NamedTuple

from .arquiver import ARQuiver
from .quiver import shown

SHIFT_LIMIT = 10**6
# no module id or shift in range needs more digits, and int() refuses past 4300
MAX_DIGITS = 20

_OBJECT_RE = re.compile(r"^m(\d+)\[(-?\d+)\]$")


class DObject(NamedTuple):
    module_id: int
    shift: int

    @property
    def text(self) -> str:
        return f"m{self.module_id}[{self.shift}]"


class ObjectSyntaxError(ValueError):
    """Malformed or unknown textual object reference."""


class DerivedCategory:
    def __init__(self, ar: ARQuiver):
        self.ar = ar
        # weak, since each orbit category holds this one: no reference cycle
        self._orbit_cache = weakref.WeakValueDictionary()

    def object(self, module_id: int, shift: int = 0) -> DObject:
        if not 1 <= module_id <= len(self.ar.modules):
            raise ObjectSyntaxError(f"unknown module id m{module_id}")
        if abs(shift) > SHIFT_LIMIT:
            raise ObjectSyntaxError(f"shift {shift} of m{module_id} exceeds limit {SHIFT_LIMIT}")
        return DObject(module_id, shift)

    def parse_object(self, text: str) -> DObject:
        m = _OBJECT_RE.match(text.strip())
        if not m:
            raise ObjectSyntaxError(f"bad object syntax {shown(text)!r}; expected e.g. m3[-1]")
        module_id, shift = m.groups()
        if max(len(module_id), len(shift.lstrip("-"))) > MAX_DIGITS:
            raise ObjectSyntaxError(f"object {shown(text)} has a number of over {MAX_DIGITS} digits")
        return self.object(int(module_id), int(shift))

    def shift(self, x: DObject, t: int) -> DObject:
        s = x.shift + t
        if abs(s) > SHIFT_LIMIT:
            raise ValueError(f"shift {s} exceeds limit {SHIFT_LIMIT}")
        return DObject(x.module_id, s)

    @cached_property
    def _steps(self) -> tuple[dict, ...]:
        """Step tables of tau, tau_inv, twist and twist_inv by module id: (image
        module id, shift change), plus for the twists the change whose result
        ``shift`` would check against SHIFT_LIMIT in the composite."""
        ar = self.ar
        tau = {m.id: (ar.injectives[m.projective_vertex], -1) if m.is_projective else (ar.tau[m.id], 0) for m in ar.modules}
        tau_inv = {m.id: (ar.projectives[m.injective_vertex], 1) if m.is_injective else (ar.tau_inverse[m.id], 0) for m in ar.modules}
        # twist = shift(tau_inv(x), 1) checks its result, twist_inv = tau(shift(x, -1)) checks x[-1]
        twist = {i: (k, s + 1, s + 1) for i, (k, s) in tau_inv.items()}
        return tau, tau_inv, twist, {i: (k, s - 1, -1) for i, (k, s) in tau.items()}

    def tau(self, x: DObject) -> DObject:
        k, s = self._steps[0][x.module_id]
        return DObject(k, x.shift + s)

    def tau_inv(self, x: DObject) -> DObject:
        k, s = self._steps[1][x.module_id]
        return DObject(k, x.shift + s)

    def twist(self, x: DObject) -> DObject:
        """Inverse AR translation composed with the shift."""
        return _walk(x, self._steps[2], 1)

    def twist_inv(self, x: DObject) -> DObject:
        return _walk(x, self._steps[3], 1)

    def twist_power(self, x: DObject, t: int) -> DObject:
        return _walk(x, self._steps[2 if t >= 0 else 3], abs(t))

    def hom(self, x: DObject, y: DObject) -> int:
        """Hom dimension; nonzero only at shift gap 0 (Hom) or 1 (Ext^1)."""
        gap = y.shift - x.shift
        if gap == 0:
            return self.ar.hom_dim(x.module_id, y.module_id)
        if gap == 1:
            return self.ar.ext_dim(x.module_id, y.module_id)
        return 0

    def serre(self, x: DObject) -> DObject:
        """Serre functor at object level: translation followed by shift."""
        return self.shift(self.tau(x), 1)

    def orbit(self, modulus: int):
        """Orbit category for this modulus, memoized while anything holds it
        (a category at modulus m > 1 holds its modulus-1 base)."""
        from .orbit import OrbitCategory

        cache = self._orbit_cache
        cat = cache[modulus] = cache.get(modulus) or OrbitCategory(self, modulus)
        return cat


def _walk(x: DObject, table: list, count: int) -> DObject:
    """count steps of a twist step table from x, one step at a time."""
    k, s = x
    for _ in range(count):
        k, step, checked = table[k]
        if abs(s + checked) > SHIFT_LIMIT:
            raise ValueError(f"shift {s + checked} exceeds limit {SHIFT_LIMIT}")
        s += step
    return DObject(k, s)
