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
``twist_permutation``.  ``canonicalize`` reads it too: it cuts x's shift
into [0, h + 1] by periods F^h = [h + 2], walks x = twist^j(y) back on
(module id, shift) pairs into the base domain in at most h + 1 steps, and
returns (j mod m)*B + the base index of y, with no map over the catalog.

An object of the orbit category is its catalog position: the catalog holds
one ``DObject`` per twist-orbit, ``canonicalize`` sends any ``DObject`` to
the position of its orbit, and ``tier_of``, ``project``, ``twist_action``,
``serre_permutation`` and ``dim`` act on positions.  A tilting object is its
generator's base positions (ascending, the (shift, module id) order of the
base domain), and so is its lift: ``build_twist_stable`` lays the lift's
summands out by tier where a caller needs their positions.  One walk of the
mutations over ``compat_mask`` finds the tilting sets and the exchange edges.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, chain
from operator import add, and_, itemgetter
from typing import Iterable, Iterator

from .derived import DerivedCategory, DObject
from .quiver import QuiverTooLargeError, cluster_number

# the catalog holds m(modules + n) objects (A2 at m = 20000: 100000); a full
# table holds N^2 entries and its JSON grows with them, so the side is capped;
# listing every tilting object lifted to m tiers prints count * m * n member
# texts (E8 at m = 2: 401280), so that total is capped too; the exchange walk
# keeps each tilting set and its n neighbours: A11's 208012 take 4 to 7 s and
# 81 MiB in graph --format dot (2-vCPU VM), so the count is capped (A12: 742900)
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

    def canonicalize(self, x: DObject) -> int:
        """Catalog position of the orbit of x: cut x's shift into [0, h + 1] by
        periods F^h = [h + 2], walk x = twist^j(y) back by tau after [-1] (each
        step lowers the shift, and shift 0 is home) into the base domain, at
        y's base index k, and read the position (j mod m)*B + k off the layout."""
        h, home, tau = self.derived.coxeter_number, self._home, self.derived._steps[0]
        q, s = divmod(x.shift, h + 2)
        k, j = x.module_id, q * h
        while (k, s) not in home:
            k, step = tau[k]
            s += step - 1
            j += 1
        return j % self.modulus * self._tier_size + home[k, s]

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
    def _home(self) -> dict[DObject, int]:
        """Base index of each object of the base domain (the first tier)."""
        if self._base:
            return self._base._home
        return {x: k for k, x in enumerate(self.catalog)}

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
        d, base, hom, ext = self.derived, self.catalog, self.ar.hom_table, self.ar.ext_table
        size, out = len(hom), {}
        for e, s in ((0, 0), (0, 1), (1, -1), (1, 0)):
            column = [d.shift(d.twist_power(y, s), e) for y in base]
            # a row at a time: Hom_D(x, z) is x's module row of the Hom table at
            # shift gap 0 and of the Ext^1 table at gap 1 (``derived.hom``), else 0;
            # the row from x's shift t is read off hom + ext + [0] at these indices
            read = [
                itemgetter(*[z.module_id - 1 + size * (z.shift - t) if 0 <= z.shift - t <= 1 else 2 * size for z in column])
                for t in (0, 1)
            ]
            out[e, s] = [list(read[x.shift](hom[x.module_id - 1] + ext[x.module_id - 1] + [0])) for x in base]
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
        size = self.modulus * self._tier_size
        if size > MAX_TABLE_SIDE:
            raise QuiverTooLargeError(
                f"full Hom/Ext tables of {self.ar.dynkin} at m={self.modulus} need"
                f" {size} objects per side; at most {MAX_TABLE_SIDE} are supported"
            )
        # as dim reads: the block at tier gap g is layer (e, 0) at 0 plus (e, 1 - 2e) at near
        m, near = self.modulus, (1 - 2 * e) % self.modulus
        same, other = self.layers[e, 0], self.layers[e, 1 - 2 * e]
        blocks = [[[0] * len(same)] * len(same)] * m
        blocks[0], blocks[near] = same, other if near else [list(map(add, x, y)) for x, y in zip(same, other)]
        # row k of tier a joins row k of the blocks at tier gaps -a, 1 - a, ..., m - 1 - a
        turned = [blocks[m - a :] + blocks[: m - a] for a in range(m)]
        return [list(chain.from_iterable(map(itemgetter(k), gaps))) for gaps in turned for k in range(len(same))]

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

    @cached_property
    def serre_permutation(self) -> list[int]:
        """The Serre image of each catalog position, inherited from the derived category."""
        return [self.canonicalize(self.derived.serre(x)) for x in self.catalog]

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
        return tuple([t + k for t in range(0, self.modulus * size, size) for k in gen])

    # -- compatibility bitmasks (ext-vanishing, used by tilting search) -------

    @cached_property
    def ext_zero_out(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[i], cat[j]) == 0."""
        return list(map(_zero_mask, self.ext_table))

    @cached_property
    def ext_zero_in(self) -> list[int]:
        """Bit j set in entry i iff ext1(cat[j], cat[i]) == 0."""
        return list(map(_zero_mask, zip(*self.ext_table)))

    @cached_property
    def compat_mask(self) -> list[int]:
        """Bit j set in entry i iff ext1 vanishes both ways (including i == j)."""
        return [a & b for a, b in zip(self.ext_zero_out, self.ext_zero_in)]

    @cached_property
    def loops(self) -> int:
        """Bitmask of the self-compatible positions (ext1(X, X) == 0): the members rigid sets draw on."""
        return mask_of(j for j, c in enumerate(self.compat_mask) if c >> j & 1)

    def is_rigid(self, positions: list[int]) -> bool:
        """True iff ext1 vanishes both ways between the given positions, each with itself too."""
        mask = mask_of(positions)
        return all(self.compat_mask[p] & mask == mask for p in positions)

    def rigid_position_sets(self) -> Iterator[tuple[int, ...]]:
        """Every nonempty rigid set of at most n positions (n the number of
        vertices), ascending tuples in depth-first (hence lexicographic) order."""
        return _rigid_extensions((), self.loops, self.compat_mask, self.ar.quiver.vertex_count)

    @cached_property
    def tilting_sets(self) -> list[tuple[int, ...]]:
        """Position sets of the cluster tilting objects in lexicographic order (modulus 1 only)."""
        return sorted(self._exchange_walk[0])

    @cached_property
    def exchange_edges(self) -> array:
        """The index pairs (i < k) of tilting_sets that differ by one mutation, sorted, laid flat:
        i, k of the first pair, then of the second, ...; ``pairs`` reads them back."""
        (found, near), n = self._exchange_walk, self.ar.quiver.vertex_count
        order = sorted(range(len(found)), key=found.__getitem__)  # index in tilting_sets -> in walk
        rank = sorted(range(len(order)), key=order.__getitem__)
        ends = (sorted(rank[x] for x in near[w * n : w * n + n]) for w in order)
        return array("i", chain.from_iterable((i, k) for i, row in enumerate(ends) for k in row if k > i))

    def refuse_large_walk(self) -> None:
        """Raise QuiverTooLargeError, before any walk, past MAX_TILTING_OBJECTS tilting objects."""
        if (count := cluster_number(self.ar.dynkin)) > MAX_TILTING_OBJECTS:
            raise QuiverTooLargeError(
                f"{self.ar.dynkin} has {count} cluster tilting objects;"
                f" at most {MAX_TILTING_OBJECTS} are supported"
            )

    @cached_property
    def _exchange_walk(self) -> tuple[list[tuple[int, ...]], array]:
        """The tilting sets in walk order and their neighbours' walk indices, n to a set, walked
        over ``compat_mask`` from the greedy maximal rigid set: T - p has two complements (Buan-
        Marsh-Reineke-Reiten-Todorov), p and the one self-compatible position outside T compatible
        with all of T - p.  The walk reaches its seed's component; ``tilting-brute-force`` shows
        that is every set."""
        if self.modulus != 1:
            raise ValueError("enumeration runs in the modulus-1 category")
        self.refuse_large_walk()
        compat, n, label, texts = self.compat_mask, self.ar.quiver.vertex_count, self.quiver_label, self.texts
        loops = seed = self.loops
        for j in range(len(compat)):  # keep each self-compatible j compatible with all kept
            seed &= compat[j] if seed >> j & 1 else -1
        if (size := seed.bit_count()) != n:
            raise RuntimeError(f"{label}: greedy maximal rigid set {texts(_bits(seed))} has {size} members, expected {n}")
        index, masks, found, near = {seed: 0}, [seed], [], array("i")
        for mask in masks:  # masks grows as the walk finds sets
            found.append(members := tuple(_bits(mask)))
            rests, free = list(all_but_one(compat, members)), loops & ~mask
            if outside := rests[0] & compat[members[0]] & free:
                raise RuntimeError(
                    f"{label}: tilting set {texts(members)} is not maximal: {texts(_bits(outside))} compatible with all of it"
                )
            for p, rest in zip(members, rests):
                if (partner := rest & free).bit_count() != 1:
                    almost, count = texts(_bits(mask ^ 1 << p)), partner.bit_count() + 1
                    raise RuntimeError(f"{label}: almost complete set {almost} lies in {count} tilting sets, expected 2")
                if (k := index.setdefault(swapped := mask ^ 1 << p | partner, len(masks))) == len(masks):
                    masks.append(swapped)
                near.append(k)
        return found, near


def all_but_one(masks: list[int], members) -> Iterator[int]:
    """Per member, the AND of masks over all the other members (-1, every bit,
    when there is none): a prefix and a suffix sweep."""
    row = [masks[p] for p in members]
    suffix = [*accumulate(reversed(row), and_, initial=-1)][-2::-1]
    return map(and_, accumulate(row, and_, initial=-1), suffix)


def pairs(flat: array) -> Iterator[tuple[int, int]]:
    """The pairs (flat[0], flat[1]), (flat[2], flat[3]), ... of a flat pair array, as they are read."""
    items = iter(flat)
    return zip(items, items)


def _rigid_extensions(chosen: tuple[int, ...], candidates: int, compat: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """chosen grown by each candidate, then by the later ones compatible with it, up to n (no closure cycle)."""
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        j = low.bit_length() - 1
        grown = chosen + (j,)
        yield grown
        if len(grown) < n:
            yield from _rigid_extensions(grown, candidates & compat[j], compat, n)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def mask_of(positions: Iterable[int]) -> int:
    """Bitmask with bit p set for each given catalog position p."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def _zero_mask(row) -> int:
    """Bitmask with bit j set where row[j] == 0, read off the whole row at once."""
    return int("".join(["0" if e else "1" for e in reversed(row)]), 2)
