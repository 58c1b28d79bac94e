"""Cluster tilting objects, their complements, and the exchange graph.

Enumeration happens in the modulus-1 category (sets of n indecomposables
with ext-vanishing in both directions between all members) and is
transported to higher modulus by twist-stable expansion.  The graph's
edges do not depend on the modulus: they come from bitmask mutation in
the modulus-1 category (``OrbitCategory.exchange_edges``).  The slow
paths are the battery's oracles: ``near_complements`` re-derives every
edge by completing each almost tilting object at modulus m, and a direct
scan over twist-orbit unions re-derives the lifts at small rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .orbit import OrbitCategory, OrbitObject, TwistStableObject, distinct_count, mask_of


class NotRigidError(ValueError):
    """The input has a nonvanishing self-extension somewhere."""


class NotExchangeError(ValueError):
    """The inputs do not form an exchange configuration."""


@dataclass(frozen=True)
class ClusterTilting:
    """Maximal rigid object of the modulus-1 category, n summands."""

    members: tuple[OrbitObject, ...]

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(m.text for m in self.members)


@dataclass(frozen=True)
class GenClusterTilting:
    """Lift of a cluster tilting object: twist-stable with n orbits."""

    stable: TwistStableObject

    @property
    def members(self) -> tuple[OrbitObject, ...]:
        return self.stable.expansion

    @property
    def generator(self) -> tuple[OrbitObject, ...]:
        return self.stable.generator


@dataclass
class TiltingGraph:
    vertices: list[GenClusterTilting]
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


def enumerate_cluster_tilting(cat1: OrbitCategory) -> list[ClusterTilting]:
    """All cluster tilting objects of the modulus-1 category, canonical order."""
    return cat1.cluster_tiltings


def lift(t: ClusterTilting, cat: OrbitCategory) -> GenClusterTilting:
    """Twist-stable expansion of a modulus-1 cluster tilting object."""
    stable = cat.build_twist_stable(t.members)
    n = cat.ar.quiver.vertex_count
    if distinct_count(stable.expansion) != cat.modulus * n:
        raise RuntimeError("lift does not have m*n distinct summands")
    return GenClusterTilting(stable)


def cluster_tilting_check(
    cat: OrbitCategory, members
) -> tuple[bool, OrbitObject | None]:
    """Two-sided add-characterization over the whole catalog.

    True iff for every indecomposable X: ext1(X, each member) all vanish
    exactly when X is a member, and likewise for ext1(each member, X).
    Returns the first violating object, in catalog order, otherwise.
    """
    positions = [cat.position(x) for x in members]
    left = right = (1 << len(cat.catalog)) - 1
    for p in positions:
        left &= cat.ext_zero_in[p]  # X with ext1(X, every member) == 0
        right &= cat.ext_zero_out[p]  # X with ext1(every member, X) == 0
    support = mask_of(positions)
    bad = (left ^ support) | (right ^ support)
    if bad:
        return False, cat.catalog[(bad & -bad).bit_length() - 1]
    return True, None


def complements(cat: OrbitCategory, members) -> list[OrbitObject]:
    """All Y completing an almost tilting object to a cluster tilting one.

    members must be rigid with nm-1 distinct summands; a rigid but
    non-extendable input yields the empty list (distinct from the error
    cases, which raise).
    """
    n = cat.ar.quiver.vertex_count
    positions = [cat.position(x) for x in members]
    expected = cat.modulus * n - 1
    if distinct_count(members) != expected:
        raise ValueError(
            f"almost tilting object needs {expected} distinct summands,"
            f" got {distinct_count(members)}"
        )
    if not cat.is_rigid(positions):
        raise NotRigidError("input is not rigid")
    support = mask_of(positions)
    candidates = ~support
    for p in set(positions):
        candidates &= cat.compat_mask[p]
    out = []
    for j in range(len(cat.catalog)):
        if candidates & (1 << j) and cat.compat_mask[j] & (1 << j):
            ok, _ = cluster_tilting_check(cat, list(members) + [cat.catalog[j]])
            if ok:
                out.append(cat.catalog[j])
    return out


def near_complements(
    cat: OrbitCategory, almost: TwistStableObject
) -> tuple[GenClusterTilting, GenClusterTilting]:
    """The two twist-stable completions of an almost near tilting object."""
    n = cat.ar.quiver.vertex_count
    if almost.modulus != cat.modulus:
        raise ValueError("modulus mismatch")
    if almost.orbit_count != n - 1:
        raise ValueError(
            f"almost near tilting object needs {n - 1} orbits, got {almost.orbit_count}"
        )
    if not cat.is_rigid([cat.position(x) for x in almost.expansion]):
        raise NotRigidError("input is not rigid")
    cat1 = cat.derived.orbit(1)
    gen = tuple(dict.fromkeys(almost.generator))  # distinct, order kept
    comps = complements(cat1, gen)
    if len(comps) != 2:
        raise NotExchangeError(
            f"generator is not an almost tilting object (found {len(comps)} complements)"
        )
    completions = []
    for x in comps:
        stable = cat.build_twist_stable(gen + (x,))
        ok, witness = cluster_tilting_check(cat, stable.expansion)
        if not ok:
            raise RuntimeError(f"completion failed the tilting check at {witness.text}")
        completions.append(GenClusterTilting(stable))
    return completions[0], completions[1]


def build_tilting_graph(cat: OrbitCategory) -> TiltingGraph:
    """Vertices are all lifts, each passing the modulus-m tilting check;
    edges are the modulus-1 mutations.  ``cat.tilting_graph`` caches it."""
    cat1 = cat.derived.orbit(1)
    vertices = [lift(t, cat) for t in enumerate_cluster_tilting(cat1)]
    for i, v in enumerate(vertices):
        ok, witness = cluster_tilting_check(cat, v.members)
        if not ok:
            label = f"{cat.ar.dynkin} quiver {list(cat.ar.quiver.arrows)}"
            raise RuntimeError(f"{label}: lift T{i + 1} fails the tilting check at {witness.text}")
    return TiltingGraph(vertices, list(cat1.exchange_edges), cat.modulus)


def exchange_pair_ext(cat1: OrbitCategory, x1: OrbitObject, x2: OrbitObject) -> int:
    """Ext^1 dimension across an exchange pair of the modulus-1 category."""
    if cat1.modulus != 1:
        raise ValueError("exchange pairs live in the modulus-1 category")
    if x1 == x2:
        raise NotExchangeError("an exchange pair consists of two distinct objects")
    # x2 replaces x1 in T iff x1 is the only member whose ext1 with x2 is nonzero
    p1, p2 = cat1.position(x1), cat1.position(x2)
    for t in cat1.tilting_sets:
        if mask_of(t) & ~cat1.compat_mask[p2] == 1 << p1:
            return cat1.ext1(x1, x2)
    raise NotExchangeError(f"{x1.text}, {x2.text} do not exchange")


def enumerate_stable_tilting_direct(cat: OrbitCategory) -> list[tuple[OrbitObject, ...]]:
    """Independent oracle: scan twist-orbit unions inside the category itself.

    Enumerates all unions of n twist-orbits of the catalog that pass the
    two-sided add-characterization, without using the modulus-1 detour.
    Intended for small rank; cost grows as C(#orbits, n).
    """
    from itertools import combinations

    results = []
    for combo in combinations(cat.twist_orbits, cat.ar.quiver.vertex_count):
        members = [cat.catalog[j] for orbit in combo for j in orbit]
        ok, _ = cluster_tilting_check(cat, members)
        if ok:
            results.append(tuple(sorted(members, key=cat.position)))
    return sorted(results)
