"""Cluster tilting objects, their complements, and the exchange graph.

A cluster tilting object is its generator's base positions: an ascending
tuple of n modulus-1 catalog positions with ext-vanishing in both
directions between all members (``OrbitCategory.tilting_sets``).  Its lift
to modulus m is the ``TwistStableObject`` over that generator.  The graph's
edges do not depend on the modulus: they come from bitmask mutation in
the modulus-1 category (``OrbitCategory.exchange_edges``).  The slow
paths are the battery's oracles: ``near_complements`` re-derives every
edge by completing each almost tilting object at modulus m, and a direct
scan over twist-orbit unions re-derives the lifts at small rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .orbit import OrbitCategory, TwistStableObject, mask_of


class NotRigidError(ValueError):
    """The input has a nonvanishing self-extension somewhere."""


class NotExchangeError(ValueError):
    """The inputs do not form an exchange configuration."""


@dataclass
class TiltingGraph:
    vertices: list[TwistStableObject]
    edges: list[tuple[int, int]]
    modulus: int

    @cached_property
    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in self.vertices]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


def is_connected(g: TiltingGraph) -> bool:
    if not g.vertices:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def enumerate_cluster_tilting(cat1: OrbitCategory) -> list[tuple[int, ...]]:
    """All cluster tilting objects of the modulus-1 category as base
    positions, canonical order: ``cat1.tilting_sets``.  Kept as a function
    because the benchmark tracer (perfbench/tracing.py) times it as a stage."""
    return cat1.tilting_sets


def lift(t: tuple[int, ...], cat: OrbitCategory) -> TwistStableObject:
    """Twist-stable expansion of a modulus-1 cluster tilting object, given
    by its base positions."""
    stable = cat.build_twist_stable(t)
    if stable.mask.bit_count() != cat.modulus * cat.ar.quiver.vertex_count:
        raise RuntimeError(
            f"{cat.quiver_label}: lift of {cat.base.texts(t)}"
            " does not have m*n distinct summands"
        )
    return stable


def cluster_tilting_check(cat: OrbitCategory, positions) -> tuple[bool, int | None]:
    """Two-sided add-characterization over the whole catalog.

    True iff for every indecomposable X: ext1(X, each member) all vanish
    exactly when X is a member, and likewise for ext1(each member, X).
    Members and the result are catalog positions; the first violating
    position, in catalog order, is returned otherwise.
    """
    left = right = (1 << len(cat.catalog)) - 1
    zero_in, zero_out = cat.ext_zero_in, cat.ext_zero_out
    for p in positions:
        left &= zero_in[p]  # X with ext1(X, every member) == 0
        right &= zero_out[p]  # X with ext1(every member, X) == 0
    support = mask_of(positions)
    bad = (left ^ support) | (right ^ support)
    if bad:
        return False, (bad & -bad).bit_length() - 1
    return True, None


def complements(cat: OrbitCategory, positions) -> list[int]:
    """Positions of all Y completing an almost tilting object to a cluster
    tilting one, ascending.

    The members, given by position, must be rigid with nm-1 distinct
    summands; a rigid but non-extendable input yields the empty list
    (distinct from the error cases, which raise).
    """
    support = mask_of(positions)
    expected = cat.modulus * cat.ar.quiver.vertex_count - 1
    if support.bit_count() != expected:
        raise ValueError(
            f"almost tilting object needs {expected} distinct summands,"
            f" got {support.bit_count()}"
        )
    common = cat.compatible_with_all(positions)
    if support & ~common:
        raise NotRigidError("input is not rigid")
    candidates, out = common & ~support, []
    while candidates:
        j = (candidates & -candidates).bit_length() - 1
        candidates ^= 1 << j
        if cat.compat_mask[j] >> j & 1 and cluster_tilting_check(cat, [*positions, j])[0]:
            out.append(j)
    return out


def near_complements(
    cat: OrbitCategory, almost: TwistStableObject
) -> tuple[TwistStableObject, TwistStableObject]:
    """The two twist-stable completions of an almost near tilting object."""
    n = cat.ar.quiver.vertex_count
    if almost.modulus != cat.modulus:
        raise ValueError("modulus mismatch")
    if almost.orbit_count != n - 1:
        raise ValueError(
            f"almost near tilting object needs {n - 1} orbits, got {almost.orbit_count}"
        )
    if not cat.is_rigid(almost.positions):
        raise NotRigidError("input is not rigid")
    comps = complements(cat.base, almost.generator)
    if len(comps) != 2:
        raise NotExchangeError(
            f"generator is not an almost tilting object (found {len(comps)} complements)"
        )
    completions = []
    for x in comps:
        stable = cat.build_twist_stable({*almost.generator, x})
        ok, witness = cluster_tilting_check(cat, stable.positions)
        if not ok:
            raise RuntimeError(
                f"{cat.quiver_label}: completion {cat.base.texts(stable.generator)}"
                f" failed the tilting check at {cat.catalog[witness].text}"
            )
        completions.append(stable)
    return completions[0], completions[1]


def build_tilting_graph(cat: OrbitCategory) -> TiltingGraph:
    """Vertices are all lifts, each passing the modulus-m tilting check;
    edges are the modulus-1 mutations.  ``cat.tilting_graph`` caches it."""
    cat1 = cat.base
    vertices = [lift(t, cat) for t in enumerate_cluster_tilting(cat1)]
    for i, v in enumerate(vertices):
        ok, witness = cluster_tilting_check(cat, v.positions)
        if not ok:
            at = cat.catalog[witness].text
            raise RuntimeError(f"{cat.quiver_label}: lift T{i + 1} fails the tilting check at {at}")
    return TiltingGraph(vertices, list(cat1.exchange_edges), cat.modulus)


def exchange_pair_ext(cat1: OrbitCategory, p1: int, p2: int) -> int:
    """Ext^1 dimension across an exchange pair of the modulus-1 category,
    given by catalog position."""
    if cat1.modulus != 1:
        raise ValueError("exchange pairs live in the modulus-1 category")
    if p1 == p2:
        raise NotExchangeError("an exchange pair consists of two distinct objects")
    # p2 replaces p1 in T iff p1 is the only member whose ext1 with p2 is nonzero
    if any(mask & ~cat1.compat_mask[p2] == 1 << p1 for mask in cat1.tilting_masks):
        return cat1.dim(p1, p2, 1)
    raise NotExchangeError(f"{cat1.catalog[p1].text}, {cat1.catalog[p2].text} do not exchange")


def enumerate_stable_tilting_direct(cat: OrbitCategory) -> list[tuple[int, ...]]:
    """Independent oracle: scan twist-orbit unions inside the category itself.

    Enumerates all unions of n twist-orbits of the catalog that pass the
    two-sided add-characterization, without using the modulus-1 detour,
    as ascending position tuples.  Intended for small rank; cost grows as
    C(#orbits, n).
    """
    from itertools import combinations

    combos = combinations(cat.twist_orbits, cat.ar.quiver.vertex_count)
    unions = (sorted(j for orbit in combo for j in orbit) for combo in combos)
    return sorted(tuple(u) for u in unions if cluster_tilting_check(cat, u)[0])
