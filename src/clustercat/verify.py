"""Verification battery: runs every invariant suite over small Dynkin cells.

The default battery is every orientation of A_1..A_4 and D_4, each in the
cells m = None, 1, 2 and 3.  Each check is one row of ``CHECKS``: name,
scope, gate and function.  A ``quiver`` check reads the module and
derived level and runs once, in the cell m = None.  A ``base`` check
reads only the modulus-1 category; it runs once per quiver and its detail
is reported in each of the quiver's cells, since the exchange graph is a
modulus-1 object at every m (the lift carries mutations to mutations) and
no endomorphism block sum of a generator depends on m.  A
``cell`` check reads the cell's own orbit category.  A gate, when given,
is a predicate of (n, m): the cells where the check holds at all, or
where its face search stays small.  Each check reports a name and an
optional failure detail; the report is machine readable and deterministic.
It is made a cell at a time (``verification_report``): an orientation is
knitted as its first cell is read, its AR quiver and categories are let go
once its cells are read, and the totals are read from a tally after the
last cell.

A lift is its generator, one of the shared ``tilting_sets``; a check lays
out the summands it needs itself, and ``lift-check`` is the one place
that checks each lift at modulus m.  ``hom-walk-oracle`` walks each
object's F^m-orbit through per-module F^{+-m} step tables and reads the
module Hom and Ext^1 tables a whole row of the transpose (the Hom into
one module) at a time, at shift gap 0 or 1, never the ``layers`` the
tables are tiled from; ``serre-derived`` reads them a row at a time both
ways.  The checks on whole tables, the matrix oracles and the mesh identity
at the quiver level among them, compare rows and columns at once and
search for the first mismatch only when there is one.  The expected
tilting counts come from the Dynkin class (``cluster_number``), so the
battery reads no diagram name past the orientations it builds.

The paper's connectivity theorem (the tilting graph of C_{F^m} is connected;
at every m it is the modulus-1 graph) is checked by two rows:
``tilting-count``, since the walk from one seed set, along the graph's
edges, reaches ``cluster_number`` sets (``graph``'s ``connected`` field
reads the same thing), and ``tilting-brute-force``, since no tilting set
lies outside the walk: it keeps the maximal rigid n-sets of the face search
``rigid_position_sets`` (``orbit-count-criterion`` reads it too, and
``direct-enumeration`` at modulus m), and a rigid n-set is tilting
(Buan-Marsh-Reineke-Reiten-Todorov).  With those, ``complement-counts``
at m = 1 (each rest has two completions) and ``graph-shape`` (an n-regular
list of distinct edges whose ends differ in one orbit) prove the edge set
is the whole exchange graph.  tests/test_tampers.py holds, for every row, a
tamper that fails it, and pins the rows each tamper fails.
"""

from __future__ import annotations

import time
from operator import add, itemgetter, sub
from typing import Iterator

from .arquiver import ARQuiver
from .derived import DerivedCategory, DObject
from .orbit import OrbitCategory, all_but_one, mask_of, pairs
from .quiver import DIAGRAMS, Quiver, cluster_number
from .tilting import cluster_tilting_check, completions, enumerate_cluster_tilting
from .endo import generator_sums

M_VALUES = (1, 2, 3)


def orientations(name: str) -> list[tuple[str, Quiver]]:
    """All 2^edges orientations of a diagram, labelled name#k."""
    n, edges = DIAGRAMS[name]
    out = []
    for bits in range(1 << len(edges)):
        arrows = tuple(
            (a, b) if not bits & (1 << i) else (b, a) for i, (a, b) in enumerate(edges)
        )
        out.append((f"{name}#{bits}", Quiver(n, arrows)))
    return out


def verification_report(diagrams=None, tamper=None, timings=False) -> dict:
    """The battery's report as it is written: ``cells`` is a generator that
    runs each cell's checks as the cell is read, and ``checks_total``,
    ``checks_failed`` and ``passed`` are zero-argument callables that read
    the tally of the cells read so far, so they are read after the last.

    A diagram named twice runs once, where it is first named; an unknown
    one raises ValueError here, before any cell.  An orientation is knitted
    as its first cell is read, and tamper, when given, is called as
    tamper(label, ar) right after its AR quiver is built; it exists so tests
    can corrupt internal tables and confirm the battery notices.  timings
    adds each check's wall time to its result as ``seconds``; a check's
    seconds include the shared structures it is the first to read, which
    are built lazily: ``reps`` in ``mesh-additivity``, the module and the
    matrix Hom tables in ``oracle-hom-equivalence``, ``layers`` and the orbit
    Hom and Ext^1 tables in ``hom-walk-oracle``, the exchange walk (the
    tilting sets and their neighbours) in ``tilting-count``, its
    ``exchange_edges`` and ``exchange_pairs`` in ``graph-shape``, the cell's
    catalog and ``twist_permutation`` in ``twist-free-orbits`` and
    ``serre_permutation`` in ``serre-orbit``.
    """
    names = list(dict.fromkeys(diagrams)) if diagrams else list(DIAGRAMS)
    for name in names:
        if name not in DIAGRAMS:
            raise ValueError(f"unknown diagram {name!r}; choose from {list(DIAGRAMS)}")
    tally = {"total": 0, "failed": 0}
    return {
        "battery": names,
        "m_values": list(M_VALUES),
        "cells": _cells(names, tamper, time.perf_counter if timings else None, tally),
        "checks_total": lambda: tally["total"],
        "checks_failed": lambda: tally["failed"],
        "passed": lambda: tally["failed"] == 0,
    }


def run_verification(diagrams=None, tamper=None, timings=False) -> dict:
    """Run the full battery; returns ``verification_report`` collected into a
    JSON-ready dict: the cells read to the last, then the tally."""
    report = verification_report(diagrams, tamper, timings)
    report["cells"] = list(report["cells"])
    return {key: value() if callable(value) else value for key, value in report.items()}


def _cells(names: list[str], tamper, clock, tally: dict) -> Iterator[dict]:
    """Each cell of the battery with its check results, counted into tally as it is made.
    One orientation at a time is knitted, tampered and read: its AR quiver and categories
    go once its four cells are read."""
    for name in names:
        for label, q in orientations(name):
            ar = ARQuiver(q)
            if tamper is not None:
                tamper(label, ar)
            derived = DerivedCategory(ar)
            cell, memo = {"quiver": label, "arrows": [list(a) for a in q.arrows]}, {}
            for m in (None, *M_VALUES):
                cat = derived if m is None else derived.orbit(m)  # held while the next m is built: one shared base
                checks = _run_cell(cat, memo, clock)
                tally["total"] += len(checks)
                tally["failed"] += sum(not check["passed"] for check in checks)
                yield {**cell, "m": m, "checks": checks}


def _key(cat: OrbitCategory, t: tuple[int, ...]) -> tuple[str, ...]:
    """A modulus-1 tilting object's texts, as failure details print it."""
    return tuple(cat.base.texts(t))


def _first_difference(a, b) -> int | None:
    """The first index where rows a and b differ, or None; rows are compared whole before any
    search.  Rows of different lengths raise ValueError naming both, the check's detail."""
    if a == b:
        return None
    if len(a) != len(b):
        raise ValueError(f"rows of lengths {len(a)} and {len(b)} compared")
    return next(j for j, (x, y) in enumerate(zip(a, b)) if x != y)


def _first_unshared(cat: OrbitCategory, a: list, b: list, names: tuple[str, str]) -> str:
    """A failure detail's tail: the first position set, in sorted order, that only one of the
    lists a and b holds, by its texts in cat, and the name (names[0] for a, names[1] for b)
    of the list that holds it; empty when both hold the same sets, one of them a set twice."""
    first = min(set(a) ^ set(b), default=None)
    return "" if first is None else f"; {tuple(cat.texts(first))} only in the {names[first not in a]}"


def _run_cell(cat, memo: dict | None = None, clock=None) -> list[dict]:
    """One cell's check results in table order.  cat is the DerivedCategory in the
    cell m = None, else the cell's OrbitCategory; memo keeps the quiver's base details."""
    m = cat.modulus if isinstance(cat, OrbitCategory) else None
    n, memo, results = cat.ar.quiver.vertex_count, {} if memo is None else memo, []
    for name, scope, gate, check in CHECKS:
        if (scope == "quiver") != (m is None) or gate and not gate(n, m):
            continue
        start = clock and clock()
        if name in memo:
            detail = memo[name]
        else:
            # a corrupted structure may make a check raise instead of returning a
            # detail string; either way it must land in the report, not crash it
            try:
                detail = check(cat.base if scope == "base" else cat)
            except Exception as exc:  # noqa: BLE001 - report and move on
                detail = f"check raised {type(exc).__name__}: {exc}"
            if scope == "base":
                memo[name] = detail
        results.append({"name": name, "passed": detail is None, "detail": detail})
        if clock:
            results[-1]["seconds"] = round(clock() - start, 6)
    return results


# -- quiver checks -------------------------------------------------------


def _check_mesh_additivity(derived: DerivedCategory) -> str | None:
    # the knit adds dimension vectors along each mesh; the replay builds
    # every module as a matrix cokernel along the same meshes
    for m, rep in zip(derived.ar.modules, derived.ar.reps):
        if rep.dims != m.dim_vector:
            return f"m{m.id}: knitted dimension vector {m.dim_vector}, cokernel {rep.dims}"
    return None


def _check_multiplicities(derived: DerivedCategory) -> str | None:
    for s, t, mult in derived.ar.arrow_multiplicities():
        if mult != 1:
            return f"arrow m{s} -> m{t} has multiplicity {mult}"
    return None


def _check_hom_oracle(derived: DerivedCategory) -> str | None:
    ar = derived.ar
    for a, (fast, oracle) in enumerate(zip(ar.hom_table, ar.matrix_hom_table, strict=True), start=1):
        if (b := _first_difference(fast, oracle)) is not None:
            return f"hom(m{a}, m{b + 1}): recursion {fast[b]}, matrix oracle {oracle[b]}"
    return None


def _check_ext_oracle(derived: DerivedCategory) -> str | None:
    ar = derived.ar
    for a, (fast, oracle) in enumerate(zip(ar.ext_table, ar.resolution_ext_table, strict=True), start=1):
        # the row's first entry that is off the oracle or negative (abs moves only the negative ones)
        if off := {_first_difference(fast, oracle), _first_difference(fast, [*map(abs, fast)])} - {None}:
            b = min(off)
            if fast[b] != oracle[b]:
                return f"ext(m{a}, m{b + 1}): AR formula {fast[b]}, resolution oracle {oracle[b]}"
            return f"ext(m{a}, m{b + 1}) negative: {fast[b]}"
    return None


def _check_mesh_hom_identity(derived: DerivedCategory) -> str | None:
    # along 0 -> tauN -> E -> N -> 0, a sum of Hom-table columns:
    # hom(M, tauN) - sum_E hom(M, E) + hom(M, N) = [M == N]
    ar = derived.ar
    hom_in, zero = list(zip(*ar.hom_table)), [0] * len(ar.hom_table)
    for nid, middles in ar.mesh_middles.items():
        xid = ar.tau_inverse[nid]
        val = [*map(add, hom_in[nid - 1], hom_in[xid - 1])]
        for e in middles:
            val = [*map(sub, val, hom_in[e - 1])]
        val[xid - 1] -= 1
        if (k := _first_difference(val, zero)) is not None:
            return f"mesh Hom identity fails at M=m{k + 1}, mesh of m{nid}"
    return None


def _check_serre_derived(derived: DerivedCategory) -> str | None:
    # Hom_D(x, y) = D Hom_D(y, Sx) over the window of shifts -2..2, each side
    # a whole row over the window's objects (module-major, shift-minor): a
    # derived Hom needs a shift gap of 0 or 1, so Hom_D(x, -) is x's row of
    # the module Hom table at x's shift and of the Ext^1 table one shift up,
    # and Hom_D(-, Sx) the columns of Sx's module at Sx's shift and one below
    ar, shifts = derived.ar, range(-2, 3)
    hom_in, ext_in = list(zip(*ar.hom_table)), list(zip(*ar.ext_table))
    objs = [DObject(m.id, s) for m in ar.modules for s in shifts]

    def spread(parts) -> list[int]:
        row = [0] * len(objs)
        for s, values in parts:
            if s in shifts:
                row[s + 2 :: len(shifts)] = values
        return row

    for x in objs:
        (k, s), (l, t) = x, derived.serre(x)
        out = spread(((s, ar.hom_table[k - 1]), (s + 1, ar.ext_table[k - 1])))
        into = spread(((t, hom_in[l - 1]), (t - 1, ext_in[l - 1])))
        if (y := _first_difference(out, into)) is not None:
            return f"Serre duality fails at ({x.text}, {objs[y].text})"
    return None


def _check_twist_steps(derived: DerivedCategory) -> str | None:
    # twist_inv is F^(h-1)[-(h+2)], so twist_inv(twist(x)) == x asserts F^h = [h + 2]
    for m in derived.ar.modules:
        x = DObject(m.id, 0)
        step = derived.twist(x).shift - x.shift
        expected = 2 if m.is_injective else 1
        if step != expected:
            return f"twist shift step at m{m.id}: {step} != {expected}"
        if derived.twist_inv(derived.twist(x)) != x:
            return f"twist inverse fails at m{m.id}"
        if derived.tau_inv(derived.tau(x)) != x:
            return f"tau inverse fails at m{m.id}"
    return None


# -- base and cell checks -------------------------------------------------


def _check_twist_orbits(cat: OrbitCategory) -> str | None:
    # the walked twist must shift catalog positions by one tier, so that each
    # orbit is {k, k + B, ..., k + (m - 1)B}: the layout lifts and tiers read
    size = len(cat.catalog)
    for i, j in enumerate(cat.twist_permutation):
        if j != (i + size // cat.modulus) % size:
            return f"twist sends catalog position {i} to {j}, not one tier on"
    return None


def _check_hom_walk(cat: OrbitCategory) -> str | None:
    # the definition the layered tables must match: Hom(x, y) sums Hom_D(x, w)
    # over the F^m-orbit of y, walked once per y across the catalog's shift
    # window by per-module F^{+-m} step tables; the x at shift t take column
    # k of the module Hom table from the w of module k at shift t and that of
    # the Ext^1 table from the w at t + 1 (a derived Hom needs a shift gap of
    # 0 or 1); Ext^1(x, y) is Hom(x, y[1]), read from the column of y[1]
    d, m, catalog, ar, size = cat.derived, cat.modulus, cat.catalog, cat.ar, len(cat.ar.modules)
    up, down = ({k: d.twist_power(DObject(k, 0), t) for k in range(1, size + 1)} for t in (m, -m))
    low, high = min(x.shift for x in catalog), max(x.shift for x in catalog) + 1
    # module id 0 reads a zero column; the sums run by (shift, module) from low
    zero = (0,) * size
    hom_in, ext_in = [zero, *zip(*ar.hom_table)], [zero, *zip(*ar.ext_table)]
    x_at = itemgetter(*[(x.shift - low) * size + x.module_id - 1 for x in catalog])
    walked = []
    for k, s in catalog:
        while s >= low:
            k, step = down[k]
            s += step
        orbit = {}  # the module of the orbit's object at each shift up to high
        while s <= high:
            orbit[s] = k
            k, step = up[k]
            s += step
        sums = []
        for t in range(low, high):
            sums += map(add, hom_in[orbit.get(t, 0)], ext_in[orbit.get(t + 1, 0)])
        walked.append(x_at(sums))
    tables = {"hom": list(zip(*cat.hom_table)), "ext1": list(zip(*cat.ext_table))}
    for j, y in enumerate(catalog):
        shifted = walked[cat.canonicalize(d.shift(y, 1))]
        for name, ref in (("hom", walked[j]), ("ext1", shifted)):
            if (i := _first_difference(col := tables[name][j], ref)) is not None:
                return f"{name}({catalog[i].text}, {y.text}): table {col[i]}, walked {ref[i]}"
    return None


def _check_self_ext(cat: OrbitCategory) -> str | None:
    for i, x in enumerate(cat.catalog):
        if cat.ext_table[i][i] != 0:
            return f"self-extension at {x.text}"
    return None


def _check_end_dims(cat: OrbitCategory) -> str | None:
    for i, x in enumerate(cat.catalog):
        d = cat.dim(i, i, 0)
        if d != 1:
            return f"endomorphism dimension {d} at {x.text}"
    return None


def _check_serre_orbit(cat: OrbitCategory) -> str | None:
    # Hom(X_i, X_j) = D Hom(X_j, S X_i): row i against column S(i), whole
    serre_idx, table = cat.serre_permutation, cat.hom_table
    columns = list(zip(*table))
    for i, row in enumerate(table):
        if (j := _first_difference(tuple(row), columns[serre_idx[i]])) is not None:
            return (
                f"orbit Serre duality fails at ({cat.catalog[i].text},"
                f" {cat.catalog[j].text})"
            )
    return None


def _check_cy_symmetry(cat: OrbitCategory) -> str | None:
    table = cat.ext_table
    for i, (row, col) in enumerate(zip(table, zip(*table))):
        if (j := _first_difference(tuple(row), col)) is not None:
            return (
                f"ext not symmetric at ({cat.catalog[i].text},"
                f" {cat.catalog[j].text})"
            )
    return None


def _check_fractional_cy(cat: OrbitCategory) -> str | None:
    # the double shift by the modulus equals the modulus-th Serre power
    serre_idx, power = cat.serre_permutation, range(len(cat.catalog))
    for _ in range(cat.modulus):
        power = itemgetter(*power)(serre_idx)
    canonicalize, shift = cat.canonicalize, cat.derived.shift
    for x, j in zip(cat.catalog, power):
        if canonicalize(shift(x, 2 * cat.modulus)) != j:
            return f"fractional CY permutation fails at {x.text}"
    return None


def _check_rigidity_transfer(cat: OrbitCategory) -> str | None:
    # pairs suffice: both sides of the transfer identity are sums over
    # ordered pairs of generator summands.  Orbit i's rows are ext[i::B]; their
    # sum over orbit j is the slice [j::B] of the summed row.  A total of m
    # times the base total is zero exactly when the base total is, so the
    # identity carries the rigidity equivalence with it
    base, ext, m = cat.base, cat.ext_table, cat.modulus
    size = len(base.catalog)
    for i, a in enumerate(base.catalog):
        summed = [sum(col) for col in zip(*ext[i::size])]
        totals = [sum(summed[j::size]) for j in range(size)]
        if (j := _first_difference(totals, [m * v for v in base.ext_table[i]])) is not None:
            return (
                f"expansion ext total {totals[j]} != m * {base.ext_table[i][j]}"
                f" at ({a.text}, {base.catalog[j].text})"
            )
    return None


def _check_twist_hom_invariance(cat: OrbitCategory) -> str | None:
    # the twist is walked (twist_permutation), not read from the layout; the
    # Hom into y from an orbit's rows hom[k::B] must not move along y's twist
    # orbit, which holds exactly when it does not move under one twist
    twist, hom, m = cat.twist_permutation, cat.hom_table, cat.modulus
    size, twisted = len(cat.base.catalog), itemgetter(*twist)
    for k, g in enumerate(cat.base.catalog):
        into = tuple(map(sum, zip(*hom[k::size])))
        if m == 1 or twisted(into) == into:
            continue
        for y, target in enumerate(cat.catalog):
            z = y
            for _ in range(m - 1):
                z = twist[z]
                if into[z] != into[y]:
                    return f"twist Hom invariance fails at generator {g.text}, y {target.text}"
    return None


def _check_orbit_count_criterion(cat: OrbitCategory) -> str | None:
    # twist-stable rigid objects are tilting exactly when they use n orbits
    base = cat.base
    n = cat.ar.quiver.vertex_count
    for chosen in base.rigid_position_sets():
        stable = cat.build_twist_stable(chosen)
        if not cat.is_rigid(stable):
            return f"expansion of a rigid generator is not rigid: {base.texts(chosen)}"
        ok, _ = cluster_tilting_check(cat, stable)
        if ok != (len(chosen) == n):  # chosen is a set: one orbit per position
            return (
                f"orbit-count criterion fails for generator {base.texts(chosen)}:"
                f" tilting={ok}, orbits={len(chosen)}"
            )
    return None


def _check_tilting_count(base: OrbitCategory) -> str | None:
    tiltings = enumerate_cluster_tilting(base)
    expected = cluster_number(base.ar.dynkin)
    if len(tiltings) != expected:
        return f"{len(tiltings)} tilting objects, expected {expected}"
    return None


def _check_tilting_brute_force(base: OrbitCategory) -> str | None:
    # a rigid n-set is tilting (Buan-Marsh-Reineke-Reiten-Todorov) and an n-face of the search; a face
    # grows through its earlier members' compat bits only, so each is tested both ways here, and for
    # maximality (compat is symmetric): no self-compatible position outside is compatible with all
    n, compat, loops = base.ar.quiver.vertex_count, base.compat_mask, base.loops
    found = []
    for face in base.rigid_position_sets():
        if len(face) == n:
            mask, common = 0, -1
            for p in face:
                mask |= 1 << p
                common &= compat[p]
            if mask & ~common == 0 and common & loops & ~mask == 0:
                found.append(face)
    fast = enumerate_cluster_tilting(base)
    if sorted(found) != sorted(fast):
        unshared = _first_unshared(base, found, fast, ("search", "enumeration"))
        return f"rigid-set search found {len(found)}, enumeration {len(fast)}{unshared}"
    return None


def _check_lifts(cat: OrbitCategory) -> str | None:
    # the one modulus-m tilting check of each lift: the graph and the
    # completions are read in the modulus-1 category
    build, summands = cat.build_twist_stable, cat.modulus * cat.ar.quiver.vertex_count
    for i, t in enumerate(enumerate_cluster_tilting(cat.base)):
        positions = build(t)
        if len(set(positions)) != summands:
            return f"{cat.ar.quiver_label}: lift of {_key(cat, t)} does not have m*n distinct summands"
        ok, witness = cluster_tilting_check(cat, positions)
        if not ok:
            at = cat.catalog[witness].text
            return f"{cat.ar.quiver_label}: lift T{i + 1} of {_key(cat, t)} fails the tilting check at {at}"
    return None


def _check_direct_enumeration(cat: OrbitCategory) -> str | None:
    # the definition inside C_{F^m}, twist-stable or not: each mn-face of the rigid-set search that
    # passes the tilting check, in the search's (lexicographic) order.  That every one is a lift is
    # observed, not cited: on every battery orientation at m = 2, and on A1-A3 at m = 3, the rigid
    # mn-sets are exactly the lifts
    summands = cat.modulus * cat.ar.quiver.vertex_count
    direct = [face for face in cat.rigid_position_sets() if len(face) == summands and cluster_tilting_check(cat, face)[0]]
    lifted = sorted(cat.build_twist_stable(t) for t in enumerate_cluster_tilting(cat.base))
    if direct != lifted:
        found = _first_unshared(cat, direct, lifted, ("direct enumeration", "lifts"))
        return f"direct in-category enumeration found {len(direct)} objects, lifts give {len(lifted)}{found}"
    return None


def _check_complements(cat: OrbitCategory) -> str | None:
    expected, build = 1 if cat.modulus >= 2 else 2, cat.build_twist_stable
    # a position's ext_zero_in mask above its ext_zero_out mask, so that one
    # sweep ANDs both; each half is cut back to the catalog's width
    size, full = len(cat.catalog), (1 << len(cat.catalog)) - 1
    paired = [left << size | right for left, right in zip(cat.ext_zero_in, cat.ext_zero_out)]
    for t in enumerate_cluster_tilting(cat.base):
        members = build(t)
        support = mask_of(members)
        for drop, both in zip(members, all_but_one(paired, members)):
            found = completions(cat, support & ~(1 << drop), both >> size & full, both & full)
            if len(found) != expected:
                return (
                    f"{len(found)} complements after dropping {cat.catalog[drop].text}"
                    f" from {_key(cat, t)}, expected {expected}"
                )
            if drop not in found:
                return f"dropped summand {cat.catalog[drop].text} not among its complements"
    return None


def _check_graph_shape(base: OrbitCategory) -> str | None:
    # the whole exchange graph: tilting-count and tilting-brute-force show the sets, and
    # complement-counts at m = 1 that every rest has two completions, so each set has exactly
    # n neighbours (Buan-Marsh-Reineke-Reiten-Todorov).  Two tilting sets that differ in one
    # orbit are neighbours, so an n-regular list of distinct one-orbit edges misses none
    n = base.ar.quiver.vertex_count
    if bad := _bad_edge(base):
        return bad
    edges, count = base.exchange_edges, len(base.tilting_sets)
    degrees = [0] * count
    for a, b in set(pairs(edges)):
        degrees[a] += 1
        degrees[b] += 1
    if degrees and set(degrees) != {n}:
        return f"vertex degrees {sorted(set(degrees))} != {n}"
    # n-regular on the cluster number of vertices (A2: the pentagon)
    expected = cluster_number(base.ar.dynkin)
    if (shape := (count, len(edges) // 2)) != (expected, n * expected // 2):
        return f"(vertices, edges) = {shape}, expected {(expected, n * expected // 2)}"
    # distinct as unordered pairs too, as exchange_edges lists them: ascending ends, in sorted
    # order; an edge listed both ways keeps every degree at n
    listed = list(pairs(edges))
    for (a, b), before in zip(listed, [(-1, -1), *listed]):
        if a >= b or (a, b) <= before:
            return f"edge T{a + 1} -- T{b + 1} breaks the ascending order of the edge list"
    return None


def _bad_edge(base: OrbitCategory) -> str | None:
    """A detail naming the first edge whose ends do not differ in exactly one orbit, or None."""
    if None not in (exchanged := base.exchange_pairs):
        return None
    sets, (a, b) = base.tilting_sets, list(pairs(base.exchange_edges))[exchanged.index(None)]
    return f"edge T{a + 1} {_key(base, sets[a])} -- T{b + 1} {_key(base, sets[b])}: endpoints do not differ in exactly one orbit"


def _check_exchange_pairs(cat: OrbitCategory) -> str | None:
    # an edge's two differing positions are its exchange pair (Buan-Marsh-Reineke-Reiten-Todorov)
    if bad := _bad_edge(cat):
        return bad
    for x1, x2 in cat.exchange_pairs:
        for one, two in ((x1, x2), (x2, x1)):
            if cat.dim(one, two, 1) != 1:
                one_text, two_text = cat.texts((one, two))
                return f"exchange pair ({one_text}, {two_text}) not one-dimensional"
    return None


def _check_endo_blocks(base: OrbitCategory) -> str | None:
    # (same, up) = (dim C, dim E) is the cyclic block pattern at every m >= 2, and gives
    # the one block same + up = C + E at m = 1
    # kQ's generator: every summand a projective module at shift 0
    projectives = {k for k, x in enumerate(base.catalog) if x.shift == 0 and base.ar.module(x.module_id).is_projective}
    for t in enumerate_cluster_tilting(base):
        same, up, dim_c, dim_e = generator_sums(base, t)  # dim C and dim E are None off the module tier
        if dim_c is not None and (same, up) != (dim_c, dim_e):
            return f"block pattern deviations at {_key(base, t)}: layers give {(same, up)}, Hom gives {(dim_c, dim_e)}"
        if dim_e and projectives.issuperset(t):
            return "projective generator has nonzero superdiagonal dimension"
    return None


# -- the battery -----------------------------------------------------------

# (name, scope, gate, check) in report order; scopes and gates are as the
# module docstring defines them
CHECKS = (
    ("mesh-additivity", "quiver", None, _check_mesh_additivity),
    ("arrow-multiplicity", "quiver", None, _check_multiplicities),
    ("oracle-hom-equivalence", "quiver", None, _check_hom_oracle),
    ("oracle-ext-equivalence", "quiver", None, _check_ext_oracle),
    ("ar-mesh-hom-identity", "quiver", None, _check_mesh_hom_identity),
    ("serre-derived", "quiver", None, _check_serre_derived),
    ("twist-shift-step", "quiver", None, _check_twist_steps),
    ("twist-free-orbits", "cell", None, _check_twist_orbits),
    ("hom-walk-oracle", "cell", None, _check_hom_walk),
    ("self-ext-vanishing", "cell", None, _check_self_ext),
    ("end-dim-one", "cell", None, _check_end_dims),
    ("serre-orbit", "cell", None, _check_serre_orbit),
    ("cy-symmetry", "cell", lambda n, m: m == 1, _check_cy_symmetry),
    ("fractional-cy", "cell", None, _check_fractional_cy),
    ("rigidity-transfer", "cell", None, _check_rigidity_transfer),
    ("twist-hom-invariance", "cell", None, _check_twist_hom_invariance),
    ("orbit-count-criterion", "cell", lambda n, m: n <= 3, _check_orbit_count_criterion),
    ("tilting-count", "base", None, _check_tilting_count),
    ("tilting-brute-force", "base", None, _check_tilting_brute_force),
    ("lift-check", "cell", None, _check_lifts),
    ("direct-enumeration", "cell", lambda n, m: n <= 3 and m <= 2, _check_direct_enumeration),
    ("complement-counts", "cell", None, _check_complements),
    ("graph-shape", "base", None, _check_graph_shape),
    ("exchange-pair-ext", "cell", lambda n, m: m == 1, _check_exchange_pairs),
    # base scope: none of a generator's four sums depends on the modulus
    ("endo-blocks", "base", None, _check_endo_blocks),
)
