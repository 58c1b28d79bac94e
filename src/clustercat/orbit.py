"""Orbit categories of the derived category under powers of the twist.

The fundamental domain of the modulus-1 orbit category consists of the
modules at shift 0 together with the shifted projectives P_i[1]; for
modulus m the domain is the union of the first m twist-tiers of that
domain.  Hom spaces are finite sums of derived Hom spaces over all
modulus-multiples of the twist; the sum terminates because the twist
strictly raises shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .derived import DerivedCategory, DObject


class OrbitObject(NamedTuple):
    rep: DObject
    modulus: int

    @property
    def text(self) -> str:
        return self.rep.text


@dataclass(frozen=True)
class TwistStableObject:
    """Object of the form X + twist(X) + ... + twist^{m-1}(X).

    generator holds the modulus-1 pieces of X (a multiset); expansion is
    the induced multiset of modulus-m objects, m per generator element.
    """

    generator: tuple[OrbitObject, ...]
    modulus: int
    expansion: tuple[OrbitObject, ...]

    @property
    def orbit_count(self) -> int:
        """Number of distinct twist-orbits among the summands."""
        return len(set(self.generator))


def distinct_count(objects: Iterable[OrbitObject]) -> int:
    """Number of pairwise non-isomorphic objects in a multiset."""
    return len(set(objects))


class OrbitCategory:
    def __init__(self, derived: DerivedCategory, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self.derived = derived
        self.ar = derived.ar
        self.modulus = modulus

    # -- canonical forms ------------------------------------------------

    def _in_base_domain(self, x: DObject) -> bool:
        if x.shift == 0:
            return True
        return x.shift == 1 and self.ar.module(x.module_id).is_projective

    def _twist_index(self, x: DObject) -> tuple[DObject, int]:
        """Write x = twist^j(y) with y in the base fundamental domain."""
        d = self.derived
        y, j = x, 0
        while not self._in_base_domain(y):
            if y.shift >= 1:
                y = d.twist_inv(y)
                j += 1
            else:
                y = d.twist(y)
                j -= 1
        return y, j

    def canonicalize(self, x: DObject) -> OrbitObject:
        """Unique representative in the tiered fundamental domain."""
        base, j = self._twist_index(x)
        tier = j % self.modulus
        return OrbitObject(self.derived.twist_power(base, tier), self.modulus)

    def tier_of(self, obj: OrbitObject) -> int:
        self._check(obj)
        return self._twist_index(obj.rep)[1]

    def _check(self, obj: OrbitObject) -> None:
        if obj.modulus != self.modulus:
            raise ValueError(
                f"modulus mismatch: object has {obj.modulus}, category has {self.modulus}"
            )

    # -- catalog ---------------------------------------------------------

    @cached_property
    def catalog(self) -> list[OrbitObject]:
        """All indecomposables: m tiers over the base domain, tier-major."""
        base = [DObject(m.id, 0) for m in self.ar.modules]
        base += [DObject(pid, 1) for v, pid in sorted(self.ar.projectives.items())]
        out = []
        for tier in range(self.modulus):
            for b in base:
                out.append(OrbitObject(self.derived.twist_power(b, tier), self.modulus))
        return out

    def position(self, obj: OrbitObject) -> int:
        self._check(obj)
        return self._positions[obj.rep]

    @cached_property
    def _positions(self) -> dict[DObject, int]:
        return {obj.rep: i for i, obj in enumerate(self.catalog)}

    # -- dimensions -------------------------------------------------------

    def _hom_raw(self, x: OrbitObject, y: OrbitObject) -> int:
        d = self.derived
        z = y.rep
        while z.shift >= x.rep.shift:
            z = d.twist_power(z, -self.modulus)
        total = 0
        while z.shift <= x.rep.shift + 1:
            total += d.hom(x.rep, z)
            z = d.twist_power(z, self.modulus)
        return total

    def hom(self, x: OrbitObject, y: OrbitObject) -> int:
        """Sum of derived Hom spaces over all modulus-power twists of y."""
        self._check(x)
        self._check(y)
        if "hom_table" in self.__dict__:
            i = self._positions.get(x.rep)
            j = self._positions.get(y.rep)
            if i is not None and j is not None:
                return self.hom_table[i][j]
        return self._hom_raw(x, y)

    def ext1(self, x: OrbitObject, y: OrbitObject) -> int:
        self._check(x)
        self._check(y)
        if "ext_table" in self.__dict__:
            i = self._positions.get(x.rep)
            j = self._positions.get(y.rep)
            if i is not None and j is not None:
                return self.ext_table[i][j]
        return self.hom(x, self.canonicalize(self.derived.shift(y.rep, 1)))

    @cached_property
    def hom_table(self) -> list[list[int]]:
        cat = self.catalog
        return [[self._hom_raw(x, y) for y in cat] for x in cat]

    @cached_property
    def ext_table(self) -> list[list[int]]:
        cat = self.catalog
        shifted = [self.canonicalize(self.derived.shift(y.rep, 1)) for y in cat]
        pos = self._positions
        return [[self.hom_table[i][pos[s.rep]] for s in shifted] for i in range(len(cat))]

    # -- functors ----------------------------------------------------------

    def project(self, x: OrbitObject) -> OrbitObject:
        """Covering projection onto the modulus-1 orbit category."""
        self._check(x)
        base, _ = self._twist_index(x.rep)
        return OrbitObject(base, 1)

    def twist_action(self, x: OrbitObject) -> OrbitObject:
        self._check(x)
        return self.canonicalize(self.derived.twist(x.rep))

    def serre(self, x: OrbitObject) -> OrbitObject:
        """Dimension-level Serre permutation inherited from the derived category."""
        self._check(x)
        return self.canonicalize(self.derived.shift(self.derived.tau(x.rep), 1))

    @cached_property
    def twist_permutation(self) -> list[int]:
        pos = self._positions
        return [pos[self.twist_action(x).rep] for x in self.catalog]

    # -- twist-stable objects ------------------------------------------------

    def build_twist_stable(self, generator: Iterable[OrbitObject]) -> TwistStableObject:
        gen = tuple(sorted(generator, key=lambda o: (o.rep.shift, o.rep.module_id)))
        for g in gen:
            if g.modulus != 1:
                raise ValueError("generator objects must have modulus 1")
        expansion = []
        for tier in range(self.modulus):
            for g in gen:
                expansion.append(
                    OrbitObject(self.derived.twist_power(g.rep, tier), self.modulus)
                )
        return TwistStableObject(gen, self.modulus, tuple(expansion))

    # -- compatibility bitmasks (ext-vanishing, used by tilting search) -------

    @cached_property
    def ext_zero_out(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[i], cat[j]) == 0."""
        table = self.ext_table
        size = len(self.catalog)
        out = []
        for i in range(size):
            mask = 0
            for j in range(size):
                if table[i][j] == 0:
                    mask |= 1 << j
            out.append(mask)
        return out

    @cached_property
    def ext_zero_in(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[j], cat[i]) == 0."""
        table = self.ext_table
        size = len(self.catalog)
        out = []
        for i in range(size):
            mask = 0
            for j in range(size):
                if table[j][i] == 0:
                    mask |= 1 << j
            out.append(mask)
        return out

    @cached_property
    def compat_mask(self) -> list[int]:
        """Bit j set in entry i iff ext1 vanishes both ways (including i == j)."""
        return [a & b for a, b in zip(self.ext_zero_out, self.ext_zero_in)]
