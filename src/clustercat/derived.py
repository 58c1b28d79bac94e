"""Stalk-complex model of the bounded derived category of a Dynkin algebra.

Since the algebra is hereditary, every indecomposable is a shifted module,
so objects are just (catalog id, shift) pairs.  The AR translation is
total here: it sends a projective P_i to I_i[-1].  The twist functor
(inverse translation followed by the shift) is the automorphism whose
powers get quotiented out in the orbit categories.
"""

from __future__ import annotations

import re
import weakref
from typing import NamedTuple

from .arquiver import ARQuiver

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
            shown = text if len(text) <= 24 else f"{text.strip()[:24]}..."
            raise ObjectSyntaxError(f"bad object syntax {shown!r}; expected e.g. m3[-1]")
        module_id, shift = m.groups()
        if max(len(module_id), len(shift.lstrip("-"))) > MAX_DIGITS:
            raise ObjectSyntaxError(f"object {text.strip()[:24]}... has a number of over {MAX_DIGITS} digits")
        return self.object(int(module_id), int(shift))

    def shift(self, x: DObject, t: int) -> DObject:
        s = x.shift + t
        if abs(s) > SHIFT_LIMIT:
            raise ValueError(f"shift {s} exceeds limit {SHIFT_LIMIT}")
        return DObject(x.module_id, s)

    def tau(self, x: DObject) -> DObject:
        mod = self.ar.module(x.module_id)
        if mod.is_projective:
            return DObject(self.ar.injectives[mod.projective_vertex], x.shift - 1)
        return DObject(self.ar.tau[x.module_id], x.shift)

    def tau_inv(self, x: DObject) -> DObject:
        mod = self.ar.module(x.module_id)
        if mod.is_injective:
            return DObject(self.ar.projectives[mod.injective_vertex], x.shift + 1)
        return DObject(self.ar.tau_inverse[x.module_id], x.shift)

    def twist(self, x: DObject) -> DObject:
        """Inverse AR translation composed with the shift."""
        return self.shift(self.tau_inv(x), 1)

    def twist_inv(self, x: DObject) -> DObject:
        return self.tau(self.shift(x, -1))

    def twist_power(self, x: DObject, t: int) -> DObject:
        step = self.twist if t >= 0 else self.twist_inv
        for _ in range(abs(t)):
            x = step(x)
        return x

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
