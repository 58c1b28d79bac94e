"""Orbit categories of the derived category under powers of the twist.

The fundamental domain of the modulus-1 orbit category consists of the
modules at shift 0 together with the shifted projectives P_i[1]; for
modulus m the domain is the union of the first m twist-tiers of that
domain.  Hom spaces are sums of derived Hom spaces over the modulus-multiples
of the twist F (Keller): Hom(F^a X, F^b Y) = sum_t Hom_D(X, F^(b-a+mt) Y).
Over the base domain only F^0 and F^1 can carry maps, and for
Ext^1 = Hom(-, -[1]) only F^-1 and F^0: F raises shifts by 1 or 2, a derived
Hom needs a shift gap of 0 or 1, and the gap-1 cases left over are Ext^1 out
of a projective.  So both dimensions are read from four base-domain
``layers`` at the tier gap b - a mod m (independent of m, so read from the
base), and the full tables are tiled from them, one B x B block per tier
gap.  The battery's ``hom-walk-oracle`` check compares the tables at every
m with the sum walked along each twist orbit.

Layout contract: with B = modules + n, the catalog is tier-major, so
twist^t of base object k sits at position t*B + k and the twist acts on
positions as i -> (i + B) mod mB.  Lifts, tiers, twist-orbits and the
covering projection use this arithmetic instead of walking the twist; the
battery's ``twist-free-orbits`` check asserts it against the walked
``twist_permutation``.

An object of the orbit category is its catalog position: the catalog holds
one ``DObject`` per twist-orbit, ``canonicalize`` sends any ``DObject`` to
the position of its orbit, and ``tier_of``, ``project``, ``twist_action``,
``serre`` and ``dim`` take positions.  A tilting object is its generator's
base positions (ascending, which is the (shift, module id) order of the
base domain), and so is its lift: ``build_twist_stable`` lays the lift's
summands out by tier where a caller needs their positions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .derived import DerivedCategory, DObject
from .quiver import QuiverTooLargeError, cluster_number

# the catalog holds m(modules + n) objects (A2 at m = 20000: 100000); a full
# table holds N^2 entries and its JSON grows with them, so the side is capped;
# listing every tilting object lifted to m tiers prints count * m * n member
# texts (E8 at m = 2: 401280), so that total is capped too; the tilting
# search walks every rigid set, so their count is capped (A12 has 742900)
MAX_CATALOG = 100_000
MAX_TABLE_SIDE = 400
MAX_LISTED_MEMBERS = 500_000
MAX_TILTING_OBJECTS = 250_000


class OrbitCategory:
    def __init__(self, derived: DerivedCategory, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self._tier_size = len(derived.ar.modules) + derived.ar.quiver.vertex_count
        size = modulus * self._tier_size
        if size > MAX_CATALOG:
            raise QuiverTooLargeError(
                f"{derived.ar.dynkin} at m={modulus} has {size} orbit objects;"
                f" at most {MAX_CATALOG} are supported"
            )
        self.derived = derived
        self.ar = derived.ar
        self.modulus = modulus
        # held here so that the derived category's weak cache keeps it
        self._base = derived.orbit(1) if modulus > 1 else None

    @property
    def base(self) -> OrbitCategory:
        """The modulus-1 category this one covers (itself at m = 1)."""
        return self._base or self

    @property
    def quiver_label(self) -> str:
        """The Dynkin type and arrows, naming the quiver in failure messages."""
        return f"{self.ar.dynkin} quiver {list(self.ar.quiver.arrows)}"

    # -- canonical forms ------------------------------------------------

    def _in_base_domain(self, x: DObject) -> bool:
        if x.shift == 0:
            return True
        return x.shift == 1 and self.ar.module(x.module_id).is_projective

    def canonicalize(self, x: DObject) -> int:
        """Catalog position of the orbit of x: write x = twist^j(y) with y in
        the base domain, then look up twist^(j mod m)(y) in the catalog."""
        d = self.derived
        j = 0
        while not self._in_base_domain(x):
            if x.shift >= 1:
                x = d.twist_inv(x)
                j += 1
            else:
                x = d.twist(x)
                j -= 1
        return self._positions[d.twist_power(x, j % self.modulus)]

    def tier_of(self, i: int) -> int:
        return i // self._tier_size

    # -- catalog ---------------------------------------------------------

    @cached_property
    def catalog(self) -> list[DObject]:
        """All indecomposables: m tiers over the base domain, tier-major."""
        base = [DObject(m.id, 0) for m in self.ar.modules]
        base += [DObject(pid, 1) for v, pid in sorted(self.ar.projectives.items())]
        reps = list(base)
        for _ in range(self.modulus - 1):
            reps += [self.derived.twist(x) for x in reps[-len(base) :]]
        return reps

    @cached_property
    def _positions(self) -> dict[DObject, int]:
        return {x: i for i, x in enumerate(self.catalog)}

    def texts(self, positions: Iterable[int]) -> list[str]:
        """The catalog texts at the given positions, as output and messages print them."""
        return [self.catalog[p].text for p in positions]

    # -- dimensions -------------------------------------------------------

    @cached_property
    def layers(self) -> dict[tuple[int, int], list[list[int]]]:
        """layers[e, s][k][l] = dim Hom_D(X_k, F^s(X_l)[e]) over the base
        domain X_0 .. X_{B-1}; no other (e, s) is nonzero there."""
        if self._base:
            return self._base.layers
        d, base = self.derived, self.catalog[: self._tier_size]
        out = {}
        for e, s in ((0, 0), (0, 1), (1, -1), (1, 0)):
            column = [d.shift(d.twist_power(y, s), e) for y in base]
            out[e, s] = [[d.hom(x, z) for z in column] for x in base]
        return out

    def dim(self, i: int, j: int, e: int) -> int:
        """dim Hom(X_i, X_j[e]) by catalog position, e in {0, 1}: layer (e, 0) at
        tier gap 0 plus layer (e, 1 - 2e) at tier gap 1 - 2e (mod m); both at m = 1."""
        a, k = divmod(i, self._tier_size)
        b, l = divmod(j, self._tier_size)
        gap, near = (b - a) % self.modulus, 1 - 2 * e
        total = self.layers[e, 0][k][l] if gap == 0 else 0
        return total + (self.layers[e, near][k][l] if gap == near % self.modulus else 0)

    def _table(self, e: int) -> list[list[int]]:
        size = len(self.catalog)
        if size > MAX_TABLE_SIDE:
            raise QuiverTooLargeError(
                f"full Hom/Ext tables of {self.ar.dynkin} at m={self.modulus} need"
                f" {size} objects per side; at most {MAX_TABLE_SIDE} are supported"
            )
        # as dim reads: the block at tier gap g is layer (e, 0) at 0 plus (e, 1 - 2e) at near
        m, near = self.modulus, (1 - 2 * e) % self.modulus
        rows = list(zip(self.layers[e, 0], self.layers[e, 1 - 2 * e]))
        blocks = [[[x * (g == 0) + y * (g == near) for x, y in zip(*r)] for r in rows] for g in range(m)]
        tier = range(len(rows))
        return [[v for b in range(m) for v in blocks[(b - a) % m][k]] for a in range(m) for k in tier]

    @cached_property
    def hom_table(self) -> list[list[int]]:
        return self._table(0)

    @cached_property
    def ext_table(self) -> list[list[int]]:
        return self._table(1)

    # -- functors ----------------------------------------------------------

    def project(self, i: int) -> int:
        """Covering projection onto the modulus-1 orbit category: base position i mod B."""
        return i % self._tier_size

    def twist_action(self, i: int) -> int:
        return self.canonicalize(self.derived.twist(self.catalog[i]))

    def serre(self, i: int) -> int:
        """Dimension-level Serre permutation inherited from the derived category."""
        return self.canonicalize(self.derived.serre(self.catalog[i]))

    @cached_property
    def twist_permutation(self) -> list[int]:
        """Catalog position of the walked twist of each object: the layout's reference."""
        return [self.twist_action(i) for i in range(len(self.catalog))]

    @cached_property
    def twist_orbits(self) -> list[tuple[int, ...]]:
        """Catalog positions split into twist-orbits {k, k + B, ..., k + (m-1)B}, by k."""
        step = self._tier_size
        return [tuple(range(k, step * self.modulus, step)) for k in range(step)]

    # -- twist-stable objects ------------------------------------------------

    def build_twist_stable(self, generator: Iterable[int]) -> tuple[int, ...]:
        """Catalog positions of X + twist(X) + ... + twist^{m-1}(X), X given by base positions
        (a multiset): tier t is t*B + the sorted generator, so the tuple is ascending."""
        gen, size = sorted(generator), self._tier_size
        if gen and (gen[0] < 0 or gen[-1] >= size):
            raise ValueError(f"generator positions must lie in 0..{size - 1}, got {gen}")
        return tuple(t * size + k for t in range(self.modulus) for k in gen)

    # -- compatibility bitmasks (ext-vanishing, used by tilting search) -------

    @cached_property
    def ext_zero_out(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[i], cat[j]) == 0."""
        return [mask_of(j for j, e in enumerate(row) if e == 0) for row in self.ext_table]

    @cached_property
    def ext_zero_in(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[j], cat[i]) == 0."""
        return [mask_of(j for j, e in enumerate(col) if e == 0) for col in zip(*self.ext_table)]

    @cached_property
    def compat_mask(self) -> list[int]:
        """Bit j set in entry i iff ext1 vanishes both ways (including i == j)."""
        return [a & b for a, b in zip(self.ext_zero_out, self.ext_zero_in)]

    def is_rigid(self, positions: list[int]) -> bool:
        """True iff ext1 vanishes both ways between the given positions, each with itself too."""
        return mask_of(positions) & ~self.compatible_with_all(positions) == 0

    def compatible_with_all(self, positions: tuple[int, ...]) -> int:
        """Mask of the positions whose ext1 with each given position vanishes
        both ways; it contains the given ones when they are rigid."""
        compat = self.compat_mask
        out = (1 << len(compat)) - 1
        for p in positions:
            out &= compat[p]
        return out

    def rigid_position_sets(self) -> Iterator[tuple[int, ...]]:
        """Every nonempty rigid set of at most n positions (n the number of
        vertices), ascending tuples in depth-first (hence lexicographic) order."""
        compat = self.compat_mask
        n = self.ar.quiver.vertex_count

        def extend(chosen: tuple[int, ...], candidates: int):
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                j = low.bit_length() - 1
                grown = chosen + (j,)
                yield grown
                if len(grown) < n:
                    yield from extend(grown, candidates & compat[j])

        yield from extend((), sum(1 << j for j, c in enumerate(compat) if c >> j & 1))

    @cached_property
    def tilting_sets(self) -> list[tuple[int, ...]]:
        """Position sets of the cluster tilting objects: the rigid n-sets, each
        passing ``cluster_tilting_check`` (in a Dynkin cluster category every
        one does).  Modulus 1 only."""
        from .tilting import cluster_tilting_check  # tilting builds on this module

        if self.modulus != 1:
            raise ValueError("enumeration runs in the modulus-1 category")
        if (count := cluster_number(self.ar.dynkin)) > MAX_TILTING_OBJECTS:
            raise QuiverTooLargeError(
                f"{self.ar.dynkin} has {count} cluster tilting objects;"
                f" at most {MAX_TILTING_OBJECTS} are supported"
            )
        n = self.ar.quiver.vertex_count
        found = [chosen for chosen in self.rigid_position_sets() if len(chosen) == n]
        if not all(cluster_tilting_check(self, chosen)[0] for chosen in found):
            raise RuntimeError("rigid n-set is not cluster tilting; not a Dynkin situation")
        return found

    @cached_property
    def exchange_edges(self) -> list[tuple[int, int]]:
        """Index pairs (i < k) of tilting_sets that differ by one mutation.

        Dropping p from a tilting set T leaves an almost complete one with
        exactly two complements (Buan-Marsh-Reineke-Reiten-Todorov): p and
        its partner, the single position outside T compatible with all of
        T - p.
        """
        masks = [mask_of(t) for t in self.tilting_sets]
        index = {mask: i for i, mask in enumerate(masks)}
        edges, common = set(), self.compatible_with_all
        for i, (t, mask) in enumerate(zip(self.tilting_sets, masks)):
            for j, p in enumerate(t):
                partner = common(t[:j] + t[j + 1 :]) & ~mask
                k = index.get(mask ^ (1 << p) | partner) if partner.bit_count() == 1 else None
                if k is None:
                    raise RuntimeError(
                        f"{self.quiver_label}: dropping {self.catalog[p].text} from T{i + 1} leaves"
                        f" {partner.bit_count()} candidate partners, not one tilting neighbour"
                    )
                edges.add((min(i, k), max(i, k)))
        return sorted(edges)


def mask_of(positions: Iterable[int]) -> int:
    """Bitmask with bit p set for each given catalog position p."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask
