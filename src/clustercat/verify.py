"""Verification battery: runs every invariant suite over small Dynkin cells.

The default battery is every orientation of A_1..A_4 and D_4, each with
modulus 1, 2 and 3.  Checks come in two groups: per-quiver (module and
derived level, modulus independent) and per-(quiver, modulus).  Each
check reports a name and an optional failure detail; the report is
machine readable and deterministic.  The exchange graph is a modulus-1
object at every m (the lift carries mutations to mutations), so the
checks that read only the modulus-1 category run once per quiver and
are reported at every m under the same name: ``tilting-count``,
``tilting-brute-force``, ``near-complement-pairs`` (which completes each
almost tilting object once), ``graph-connected`` and ``graph-shape``.  A
lift is its generator, one of the shared ``tilting_sets``; a check lays
out the summands it needs itself, and ``lift-check`` is the one place
that checks each lift at modulus m.
"""

from __future__ import annotations

from itertools import combinations

from .arquiver import ARQuiver
from .derived import DerivedCategory, DObject
from .orbit import OrbitCategory, mask_of
from .quiver import DIAGRAMS, DynkinClass, Quiver, cluster_number, positive_root_count
from .tilting import (
    cluster_tilting_check,
    complements,
    enumerate_cluster_tilting,
    enumerate_stable_tilting_direct,
    is_connected,
    near_complements,
)
from .endo import block_pattern_report, endo_profile, exchange_layer_dim

TILTING_COUNTS = {name: cluster_number(DynkinClass(name[0], int(name[1:]))) for name in DIAGRAMS}

DEFAULT_M_VALUES = (1, 2, 3)


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


def run_verification(diagrams=None, m_values=DEFAULT_M_VALUES, tamper=None) -> dict:
    """Run the full battery; returns a JSON-ready report dict.

    tamper, when given, is called as tamper(label, ar) right after each
    AR quiver is built; it exists so tests can corrupt internal tables
    and confirm the battery notices.
    """
    names = list(diagrams) if diagrams else list(DIAGRAMS)
    for name in names:
        if name not in DIAGRAMS:
            raise ValueError(f"unknown diagram {name!r}; choose from {list(DIAGRAMS)}")
    cells = []
    total = failed = 0
    for name in names:
        for label, q in orientations(name):
            ar = ARQuiver(q)
            if tamper is not None:
                tamper(label, ar)
            derived = DerivedCategory(ar)
            once = {}  # the modulus-1 checks' details, shared by this quiver's cells
            cell = {"quiver": label, "arrows": [list(a) for a in q.arrows]}
            cells.append({**cell, "m": None, "checks": _quiver_checks(name, q, ar, derived)})
            for m in m_values:
                cat = derived.orbit(m)  # held while the next m is built: one shared base
                cells.append({**cell, "m": m, "checks": _orbit_checks(name, cat, once)})
    for cell in cells:
        for check in cell["checks"]:
            total += 1
            if not check["passed"]:
                failed += 1
    return {
        "battery": names,
        "m_values": list(m_values),
        "cells": cells,
        "checks_total": total,
        "checks_failed": failed,
        "passed": failed == 0,
    }


def _key(cat: OrbitCategory, t: tuple[int, ...]) -> tuple[str, ...]:
    """A modulus-1 tilting object's texts, as failure details print it."""
    return tuple(cat.base.texts(t))


def _result(name: str, detail: str | None) -> dict:
    return {"name": name, "passed": detail is None, "detail": detail}


def _run_check(checks: list, check_name: str, fn) -> None:
    # a corrupted structure may make a check raise instead of returning a
    # detail string; either way it must land in the report, not crash it
    try:
        detail = fn()
    except Exception as exc:  # noqa: BLE001 - report and move on
        detail = f"check raised {type(exc).__name__}: {exc}"
    checks.append(_result(check_name, detail))


def _quiver_checks(name: str, q: Quiver, ar: ARQuiver, derived: DerivedCategory) -> list[dict]:
    checks = []

    def run(check_name, fn):
        _run_check(checks, check_name, fn)

    run("catalog-size-modules", lambda: _check_module_count(ar))
    run("mesh-additivity", lambda: _check_mesh_additivity(ar))
    run("arrow-multiplicity", lambda: _check_multiplicities(ar))
    run("oracle-hom-equivalence", lambda: _check_hom_oracle(ar))
    run("oracle-ext-equivalence", lambda: _check_ext_oracle(ar))
    run("ar-mesh-hom-identity", lambda: _check_mesh_hom_identity(ar))
    run("serre-derived", lambda: _check_serre_derived(derived))
    run("twist-shift-step", lambda: _check_twist_steps(derived))
    run("orientation-reversal", lambda: _check_reversal(q, ar))
    return checks


def _orbit_checks(name: str, cat: OrbitCategory, once: dict | None = None) -> list[dict]:
    """The per-(quiver, m) checks; a check given ``base`` reads only the modulus-1
    category, and its detail is kept in ``once`` for the quiver's other cells."""
    n = cat.ar.quiver.vertex_count
    m = cat.modulus
    checks, once = [], {} if once is None else once

    def run(check_name, fn, base=False):
        if base and check_name in once:
            checks.append(_result(check_name, once[check_name]))
            return
        _run_check(checks, check_name, fn)
        if base:
            once[check_name] = checks[-1]["detail"]

    run("catalog-size-orbit", lambda: _check_orbit_count(cat))
    run("covering-fibers", lambda: _check_covering(cat))
    run("twist-free-orbits", lambda: _check_twist_orbits(cat))
    run("hom-walk-oracle", lambda: _check_hom_walk(cat))
    run("self-ext-vanishing", lambda: _check_self_ext(cat))
    run("end-dim-one", lambda: _check_end_dims(cat))
    run("serre-orbit", lambda: _check_serre_orbit(cat))
    if m == 1:
        run("cy-symmetry", lambda: _check_cy_symmetry(cat))
    run("fractional-cy", lambda: _check_fractional_cy(cat))
    run("rigidity-transfer", lambda: _check_rigidity_transfer(cat))
    run("twist-hom-invariance", lambda: _check_twist_hom_invariance(cat))
    if n <= 3:
        run("orbit-count-criterion", lambda: _check_orbit_count_criterion(cat))
    run("tilting-count", lambda: _check_tilting_count(name, cat.base), base=True)
    run("tilting-brute-force", lambda: _check_tilting_brute_force(cat.base), base=True)
    run("lift-check", lambda: _check_lifts(cat))
    if n <= 3 and m <= 2:
        run("direct-enumeration", lambda: _check_direct_enumeration(cat))
    run("complement-counts", lambda: _check_complements(cat))
    run("near-complement-pairs", lambda: _check_near_complements(cat.base), base=True)
    run("graph-connected", lambda: _check_graph_connected(cat.base), base=True)
    run("graph-shape", lambda: _check_graph_shape(name, cat.base), base=True)
    run("exchange-layer-dim", lambda: _check_exchange_layers(cat))
    if m == 1:
        run("exchange-pair-ext", lambda: _check_exchange_pairs(cat))
    run("endo-blocks", lambda: _check_endo_blocks(cat))
    return checks


# -- per-quiver checks ---------------------------------------------------


def _check_module_count(ar: ARQuiver) -> str | None:
    expected = positive_root_count(ar.dynkin)
    if len(ar.modules) != expected:
        return f"catalog has {len(ar.modules)} modules, expected {expected}"
    return None


def _check_mesh_additivity(ar: ARQuiver) -> str | None:
    for nid, middles in ar.mesh_middles.items():
        xid = ar.tau_inverse[nid]
        lhs = tuple(
            a + b
            for a, b in zip(ar.module(nid).dim_vector, ar.module(xid).dim_vector)
        )
        rhs = tuple(
            sum(ar.module(e).dim_vector[v] for e in middles)
            for v in range(ar.quiver.vertex_count)
        )
        if lhs != rhs:
            return f"mesh at m{nid}: {lhs} != {rhs}"
    return None


def _check_multiplicities(ar: ARQuiver) -> str | None:
    for s, t, mult in ar.arrow_multiplicities():
        if mult != 1:
            return f"arrow m{s} -> m{t} has multiplicity {mult}"
    return None


def _check_hom_oracle(ar: ARQuiver) -> str | None:
    for a in ar.modules:
        for b in ar.modules:
            fast = ar.hom_dim(a.id, b.id)
            oracle = ar.matrix_hom_dim(a.id, b.id)
            if fast != oracle:
                return f"hom(m{a.id}, m{b.id}): recursion {fast}, matrix oracle {oracle}"
    return None


def _check_ext_oracle(ar: ARQuiver) -> str | None:
    for a in ar.modules:
        for b in ar.modules:
            fast = ar.ext_dim(a.id, b.id)
            oracle = ar.resolution_ext_dim(a.id, b.id)
            if fast != oracle:
                return f"ext(m{a.id}, m{b.id}): AR formula {fast}, resolution oracle {oracle}"
            if fast < 0:
                return f"ext(m{a.id}, m{b.id}) negative: {fast}"
    return None


def _check_mesh_hom_identity(ar: ARQuiver) -> str | None:
    # along 0 -> tauN -> E -> N -> 0:
    # hom(M, tauN) - sum_E hom(M, E) + hom(M, N) = [M == N]
    for nid, middles in ar.mesh_middles.items():
        xid = ar.tau_inverse[nid]
        for m in ar.modules:
            val = (
                ar.hom_dim(m.id, nid)
                - sum(ar.hom_dim(m.id, e) for e in middles)
                + ar.hom_dim(m.id, xid)
            )
            if val != (1 if m.id == xid else 0):
                return f"mesh Hom identity fails at M=m{m.id}, mesh of m{nid}"
    return None


def _check_serre_derived(derived: DerivedCategory) -> str | None:
    ar = derived.ar
    objs = [DObject(m.id, s) for m in ar.modules for s in range(-2, 3)]
    for x in objs:
        sx = derived.serre(x)
        for y in objs:
            if derived.hom(x, y) != derived.hom(y, sx):
                return f"Serre duality fails at ({x.text}, {y.text})"
    return None


def _check_twist_steps(derived: DerivedCategory) -> str | None:
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


def _check_reversal(q: Quiver, ar: ARQuiver) -> str | None:
    rev = ARQuiver(q.reversed())
    if len(rev.modules) != len(ar.modules):
        return "reversed orientation changes the catalog size"
    if sorted(m.dim_vector for m in rev.modules) != sorted(
        m.dim_vector for m in ar.modules
    ):
        return "reversed orientation changes the dimension-vector multiset"
    if rev.dynkin != ar.dynkin:
        return "reversed orientation changes the Dynkin class"
    return None


# -- per-(quiver, m) checks ------------------------------------------------


def _check_orbit_count(cat: OrbitCategory) -> str | None:
    n = cat.ar.quiver.vertex_count
    expected = cat.modulus * (len(cat.ar.modules) + n)
    if len(cat.catalog) != expected:
        return f"orbit catalog has {len(cat.catalog)} objects, expected {expected}"
    if len(set(cat.catalog)) != expected:
        return "orbit catalog contains duplicates"
    return None


def _check_covering(cat: OrbitCategory) -> str | None:
    base = cat.base
    fibers = [0] * len(base.catalog)
    for i, (x, twisted) in enumerate(zip(cat.catalog, cat.twist_permutation)):
        image = cat.project(i)
        fibers[image] += 1
        if cat.project(twisted) != image:
            return f"projection not twist-invariant at {x.text}"
    bad = {x.text: v for x, v in zip(base.catalog, fibers) if v != cat.modulus}
    if bad:
        return f"fiber sizes off: {bad}"
    return None


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
    # window; Ext^1(x, y) is Hom(x, y[1]), read from the column of y[1]
    d, m = cat.derived, cat.modulus
    low = min(x.shift for x in cat.catalog)
    high = max(x.shift for x in cat.catalog) + 1
    walked = []
    for y in cat.catalog:
        w, orbit = y, []
        while w.shift >= low:
            w = d.twist_power(w, -m)
        while w.shift <= high:
            orbit.append(w)
            w = d.twist_power(w, m)
        walked.append([sum(d.hom(x, w) for w in orbit) for x in cat.catalog])
    hom, ext = cat.hom_table, cat.ext_table
    for j, y in enumerate(cat.catalog):
        shifted = walked[cat.canonicalize(d.shift(y, 1))]
        for name, table, ref in (("hom", hom, walked[j]), ("ext1", ext, shifted)):
            for i, x in enumerate(cat.catalog):
                if table[i][j] != ref[i]:
                    return f"{name}({x.text}, {y.text}): table {table[i][j]}, walked {ref[i]}"
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
    serre_idx = [cat.serre(i) for i in range(len(cat.catalog))]
    table = cat.hom_table
    for i in range(len(cat.catalog)):
        for j in range(len(cat.catalog)):
            if table[i][j] != table[j][serre_idx[i]]:
                return (
                    f"orbit Serre duality fails at ({cat.catalog[i].text},"
                    f" {cat.catalog[j].text})"
                )
    return None


def _check_cy_symmetry(cat: OrbitCategory) -> str | None:
    table = cat.ext_table
    for i in range(len(table)):
        for j in range(len(table)):
            if table[i][j] != table[j][i]:
                return (
                    f"ext not symmetric at ({cat.catalog[i].text},"
                    f" {cat.catalog[j].text})"
                )
    return None


def _check_fractional_cy(cat: OrbitCategory) -> str | None:
    # the double shift by the modulus equals the modulus-th Serre power
    serre_idx = [cat.serre(i) for i in range(len(cat.catalog))]
    for i, x in enumerate(cat.catalog):
        j = i
        for _ in range(cat.modulus):
            j = serre_idx[j]
        if cat.canonicalize(cat.derived.shift(x, 2 * cat.modulus)) != j:
            return f"fractional CY permutation fails at {x.text}"
    return None


def _check_rigidity_transfer(cat: OrbitCategory) -> str | None:
    # pairs suffice: both sides of the transfer identity are sums over
    # ordered pairs of generator summands
    base, ext, orbits = cat.base, cat.ext_table, cat.twist_orbits
    for i, a in enumerate(base.catalog):
        for j, b in enumerate(base.catalog):
            total = sum(ext[x][y] for x in orbits[i] for y in orbits[j])
            base_total = base.ext_table[i][j]
            if total != cat.modulus * base_total:
                return (
                    f"expansion ext total {total} != m * {base_total}"
                    f" at ({a.text}, {b.text})"
                )
            if (total == 0) != (base_total == 0):
                return f"rigidity transfer equivalence fails at ({a.text}, {b.text})"
    return None


def _check_twist_hom_invariance(cat: OrbitCategory) -> str | None:
    # the twist is walked (twist_permutation), not read from the layout
    twist, hom = cat.twist_permutation, cat.hom_table
    for k, g in enumerate(cat.base.catalog):
        into = [sum(col) for col in zip(*(hom[s] for s in cat.twist_orbits[k]))]
        for y, target in enumerate(cat.catalog):
            z = y
            for _ in range(cat.modulus - 1):
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


def _check_tilting_count(name: str, base: OrbitCategory) -> str | None:
    tiltings = enumerate_cluster_tilting(base)
    expected = TILTING_COUNTS[name]
    if len(tiltings) != expected:
        return f"{len(tiltings)} tilting objects, expected {expected}"
    return None


def _check_tilting_brute_force(base: OrbitCategory) -> str | None:
    n = base.ar.quiver.vertex_count
    size = len(base.catalog)
    compat = base.compat_mask
    brute = []
    for combo in combinations(range(size), n):
        mask = mask_of(combo)
        if all(mask & ~compat[p] == 0 for p in combo):
            outside = 0
            rest = ((1 << size) - 1) & ~mask
            for j in range(size):
                if rest & (1 << j) and mask & ~compat[j] == 0 and compat[j] & (1 << j):
                    outside += 1
            if outside == 0:
                brute.append(combo)
    fast = enumerate_cluster_tilting(base)
    if sorted(brute) != sorted(fast):
        return f"brute-force subset scan found {len(brute)}, enumeration {len(fast)}"
    return None


def _check_lifts(cat: OrbitCategory) -> str | None:
    # the one modulus-m tilting check of each lift: the graph and the
    # completions are read in the modulus-1 category
    for i, t in enumerate(enumerate_cluster_tilting(cat.base)):
        positions = cat.build_twist_stable(t)
        if len(set(positions)) != cat.modulus * cat.ar.quiver.vertex_count:
            return f"{cat.quiver_label}: lift of {_key(cat, t)} does not have m*n distinct summands"
        ok, witness = cluster_tilting_check(cat, positions)
        if not ok:
            at = cat.catalog[witness].text
            return f"{cat.quiver_label}: lift T{i + 1} of {_key(cat, t)} fails the tilting check at {at}"
    return None


def _check_direct_enumeration(cat: OrbitCategory) -> str | None:
    direct = enumerate_stable_tilting_direct(cat)
    lifted = sorted(cat.build_twist_stable(t) for t in enumerate_cluster_tilting(cat.base))
    if direct != lifted:
        return (
            f"direct in-category enumeration found {len(direct)} objects,"
            f" lifts give {len(lifted)}"
        )
    return None


def _check_complements(cat: OrbitCategory) -> str | None:
    expected = 1 if cat.modulus >= 2 else 2
    for t in enumerate_cluster_tilting(cat.base):
        members = cat.build_twist_stable(t)
        for drop in members:
            rest = [x for x in members if x != drop]
            found = complements(cat, rest)
            if len(found) != expected:
                return (
                    f"{len(found)} complements after dropping {cat.catalog[drop].text}"
                    f" from {_key(cat, t)}, expected {expected}"
                )
            if drop not in found:
                return f"dropped summand {cat.catalog[drop].text} not among its complements"
    return None


def _check_near_complements(base: OrbitCategory) -> str | None:
    # the oracle for the exchange graph: both completions of every
    # (vertex, dropped orbit) pair, and the edge each one gives
    tiltings = enumerate_cluster_tilting(base)
    index = {v: i for i, v in enumerate(tiltings)}
    edges = set(base.exchange_edges)
    found, completed = set(), {}
    for t in tiltings:
        for drop in t:
            rest = tuple(g for g in t if g != drop)
            if rest not in completed:
                completed[rest] = near_complements(base, rest)
            elif t in completed[rest]:
                continue  # both ends of an edge share rest; the first ran every comparison
            if t not in completed[rest]:
                return f"near completion loses the original vertex at {_key(base, t)}"
            edge = tuple(sorted(index.get(g, -1) for g in completed[rest]))
            if edge not in edges:
                at = base.catalog[drop].text
                return f"exchange of {at} at {_key(base, t)} is not a graph edge"
            found.add(edge)
    if found != edges:
        return f"near completions give {len(found)} edges, the graph has {len(edges)}"
    return None


def _check_graph_connected(base: OrbitCategory) -> str | None:
    if not is_connected(len(base.tilting_sets), base.exchange_edges):
        return "tilting graph is disconnected"
    return None


def _check_graph_shape(name: str, base: OrbitCategory) -> str | None:
    n = base.ar.quiver.vertex_count
    if bad := _bad_edge(base):
        return bad
    edges, count = base.exchange_edges, len(base.tilting_sets)
    degrees = [0] * count
    for a, b in set(edges):
        degrees[a] += 1
        degrees[b] += 1
    if degrees and set(degrees) != {n}:
        return f"vertex degrees {sorted(set(degrees))} != {n}"
    # n-regular on the cluster number of vertices (A2: the pentagon)
    expected = TILTING_COUNTS[name]
    if (shape := (count, len(edges))) != (expected, n * expected // 2):
        return f"(vertices, edges) = {shape}, expected {(expected, n * expected // 2)}"
    return None


def _bad_edge(base: OrbitCategory) -> str | None:
    """A detail naming the first edge whose endpoints do not differ in exactly one orbit."""
    sets = base.tilting_sets
    for a, b in base.exchange_edges:
        ga, gb = sets[a], sets[b]
        if len(set(ga) - set(gb)) != 1 or len(set(gb) - set(ga)) != 1:
            return (
                f"edge T{a + 1} {_key(base, ga)} -- T{b + 1} {_key(base, gb)}:"
                " endpoints do not differ in exactly one orbit"
            )
    return None


def _check_exchange_layers(cat: OrbitCategory) -> str | None:
    base = cat.base
    if bad := _bad_edge(base):
        return bad
    for a, b in base.exchange_edges:
        va, vb = base.tilting_sets[a], base.tilting_sets[b]
        for one, two in ((va, vb), (vb, va)):
            dim = exchange_layer_dim(cat, one, tuple(set(two) - set(one)))
            if dim != cat.modulus:
                return f"exchange layer dimension {dim} != modulus on an edge"
    return None


def _check_exchange_pairs(cat: OrbitCategory) -> str | None:
    # an edge's two differing positions are its exchange pair (Buan-Marsh-Reineke-Reiten-Todorov)
    if bad := _bad_edge(cat):
        return bad
    for a, b in cat.exchange_edges:
        ga, gb = set(cat.tilting_sets[a]), set(cat.tilting_sets[b])
        (x1,), (x2,) = ga - gb, gb - ga
        for one, two in ((x1, x2), (x2, x1)):
            if cat.dim(one, two, 1) != 1:
                one_text, two_text = cat.texts((one, two))
                return f"exchange pair ({one_text}, {two_text}) not one-dimensional"
    return None


def _check_endo_blocks(cat: OrbitCategory) -> str | None:
    # a passing pattern fixes the diagonal at dim C and the total at m(C+E)
    projective_gen = None
    for t in enumerate_cluster_tilting(cat.base):
        profile = endo_profile(cat, t)
        report = block_pattern_report(profile)
        if not profile.module_tier:
            if report.ok is not None:
                return "pattern check ran on a non-module-tier generator"
            continue
        if report.ok is not True:
            return f"block pattern deviations at {_key(cat, t)}: {report.deviations}"
        reps = [cat.base.catalog[g] for g in t]
        if all(cat.ar.module(x.module_id).is_projective and x.shift == 0 for x in reps):
            projective_gen = profile
    if projective_gen is not None and projective_gen.dim_e != 0:
        return "projective generator has nonzero superdiagonal dimension"
    return None
