"""Cluster tilting objects, their complements, and the exchange graph.

A cluster tilting object is its generator's base positions, an ascending
tuple of n modulus-1 catalog positions with ext-vanishing both ways
between all members, and so is its lift to modulus m (``build_twist_stable``
lays out the summands).  The exchange graph is a modulus-1 object at every
m: the lift T -> T + FT + ... + F^(m-1)T is a bijection carrying mutations
to mutations (Buan-Marsh-Reineke-Reiten-Todorov), so it is the base's
``tilting_sets`` and ``exchange_edges``, found by one walk over
``compat_mask``.  The battery's oracles are the slow paths:
``near_complements`` re-derives every edge from Ext^1, a subset scan and
(at small rank) a direct scan over twist-orbit unions re-derive the sets
and the lifts, and ``cluster_tilting_check`` checks every lift at modulus m.
"""

from __future__ import annotations

from typing import Iterator

from .orbit import OrbitCategory, pairs
from .quiver import reachable


class NotRigidError(ValueError):
    """The input has a nonvanishing self-extension somewhere."""


class NotExchangeError(ValueError):
    """The inputs do not form an exchange configuration."""


def is_connected(count: int, edges) -> bool:
    """True iff the graph on vertices 0 .. count-1 with these edges is connected."""
    if not count:
        return True
    adjacency = [[] for _ in range(count)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return len(reachable(0, adjacency)) == count


def enumerate_cluster_tilting(cat1: OrbitCategory) -> list[tuple[int, ...]]:
    """All cluster tilting objects of the modulus-1 category as base
    positions, canonical order: ``cat1.tilting_sets``.  Kept as a function
    because the benchmark tracer (perfbench/tracing.py) times it as a stage."""
    return cat1.tilting_sets


def cluster_tilting_check(cat: OrbitCategory, positions) -> tuple[bool, int | None]:
    """Two-sided add-characterization over the whole catalog.

    True iff for every indecomposable X: ext1(X, each member) all vanish
    exactly when X is a member, and likewise for ext1(each member, X).
    Members and the result are catalog positions; the first violating
    position, in catalog order, is returned otherwise.
    """
    support, left, right = _ext_zero_with_all(cat, positions)
    bad = (left ^ support) | (right ^ support)
    if bad:
        return False, (bad & -bad).bit_length() - 1
    return True, None


def _ext_zero_with_all(cat: OrbitCategory, positions) -> tuple[int, int, int]:
    """Masks of the members, of the X with ext1(X, every member) == 0 and of
    the X with ext1(every member, X) == 0, in one pass over the members."""
    zero_in, zero_out = cat.ext_zero_in, cat.ext_zero_out
    left = right = (1 << len(zero_in)) - 1
    support = 0
    for p in positions:
        support |= 1 << p
        left &= zero_in[p]
        right &= zero_out[p]
    return support, left, right


def complements(cat: OrbitCategory, positions) -> list[int]:
    """Positions of all Y completing an almost tilting object to a cluster
    tilting one, ascending.

    The members, given by position, must be rigid with nm-1 distinct
    summands; a rigid but non-extendable input yields the empty list
    (distinct from the error cases, which raise).
    """
    return completions(cat, *_ext_zero_with_all(cat, positions))


def completions(cat: OrbitCategory, support: int, left: int, right: int) -> list[int]:
    """``complements`` of the members with mask ``support``, given the ANDs of
    their ``ext_zero_in`` (left) and ``ext_zero_out`` (right) masks."""
    expected = cat.modulus * cat.ar.quiver.vertex_count - 1
    if support.bit_count() != expected:
        raise ValueError(
            f"almost tilting object needs {expected} distinct summands,"
            f" got {support.bit_count()}"
        )
    if support & ~(left & right):
        raise NotRigidError("input is not rigid")
    candidates, out = left & right & ~support, []
    zero_in, zero_out = cat.ext_zero_in, cat.ext_zero_out
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        j = low.bit_length() - 1
        if (left & zero_in[j]) == support | low == (right & zero_out[j]):
            out.append(j)
    return out


def near_complements(
    cat1: OrbitCategory, almost: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The generators of the two twist-stable completions of an almost near tilting
    generator: its two completions in the modulus-1 category ``cat1``."""
    n, orbits = cat1.ar.quiver.vertex_count, set(almost)
    if len(orbits) != n - 1:
        raise ValueError(f"almost near tilting object needs {n - 1} orbits, got {len(orbits)}")
    comps = complements(cat1, almost)  # raises NotRigidError unless the generator is rigid
    if len(comps) != 2:
        raise NotExchangeError(
            f"generator is not an almost tilting object (found {len(comps)} complements)"
        )
    return tuple(tuple(sorted({*orbits, x})) for x in comps)


def build_tilting_graph(cat: OrbitCategory) -> Iterator[tuple[int, int]]:
    """The exchange graph's edges, index pairs into ``enumerate_cluster_tilting(cat.base)``:
    the modulus-1 mutations, at every modulus, read off the base's flat ``exchange_edges``.
    Kept as a function because the benchmark tracer (perfbench/tracing.py) times it as a stage."""
    return pairs(cat.base.exchange_edges)


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
