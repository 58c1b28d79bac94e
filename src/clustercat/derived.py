"""Stalk-complex model of the bounded derived category of a Dynkin algebra.

Since the algebra is hereditary, every indecomposable is a shifted module,
so objects are just (catalog id, shift) pairs.  The AR translation is
total here: it sends a projective P_i to I_i[-1].  The twist functor
(inverse translation followed by the shift) is the automorphism whose
powers get quotiented out in the orbit categories.  tau and tau_inv read
per-module step tables built once from the AR quiver; the twist is a
tau_inv step and [1].  ``twist_power`` reads F^h = [h + 2] (Keller): F^t
shifts by q(h + 2) for q, r = divmod(t, h) and walks only r < h steps.
"""

from __future__ import annotations

import re
import weakref
from functools import cached_property
from typing import NamedTuple

from .arquiver import ARQuiver
from .quiver import shown

SHIFT_LIMIT = 10**6  # the input bound, checked by ``object`` alone
# no module id or shift in range needs more digits, and int() refuses past 4300
MAX_DIGITS = 20

_OBJECT_RE = re.compile(r"^m([0-9]+)\[(-?[0-9]+)\]$")  # ASCII digits only


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
        self.coxeter_number = 2 * len(ar.modules) // ar.quiver.vertex_count  # h, with F^h = [h + 2]
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
        return DObject(x.module_id, x.shift + t)

    @cached_property
    def _steps(self) -> tuple[dict, dict]:
        """Step tables of tau and tau_inv by module id: (image module id, shift change)."""
        ar = self.ar
        tau = {m.id: (ar.injectives[m.projective_vertex], -1) if m.is_projective else (ar.tau[m.id], 0) for m in ar.modules}
        tau_inv = {m.id: (ar.projectives[m.injective_vertex], 1) if m.is_injective else (ar.tau_inverse[m.id], 0) for m in ar.modules}
        return tau, tau_inv

    def tau(self, x: DObject) -> DObject:
        k, s = self._steps[0][x.module_id]
        return DObject(k, x.shift + s)

    def tau_inv(self, x: DObject) -> DObject:
        k, s = self._steps[1][x.module_id]
        return DObject(k, x.shift + s)

    def twist(self, x: DObject) -> DObject:
        """Inverse AR translation composed with the shift."""
        k, s = self._steps[1][x.module_id]
        return DObject(k, x.shift + s + 1)

    def twist_inv(self, x: DObject) -> DObject:
        return self.twist_power(x, -1)

    def twist_power(self, x: DObject, t: int) -> DObject:
        """F^t(x): q whole periods F^h = [h + 2] as one shift, then r < h twist steps."""
        h, table = self.coxeter_number, self._steps[1]
        q, r = divmod(t, h)
        k, s = x.module_id, x.shift + q * (h + 2)
        for _ in range(r):
            k, step = table[k]
            s += step + 1
        return DObject(k, s)

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

