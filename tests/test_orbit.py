import gc
import weakref

import pytest

import clustercat as cc
from clustercat.derived import DObject
from clustercat.orbit import mask_of
from clustercat.verify import _check_hom_walk, _check_twist_orbits, _run_cell

from conftest import A2, A3, BATTERY_QUIVERS, D4, D5, E6, E7, module_id, module_obj


# Frozen 5x5 tables for the modulus-1 orbit category of A_2 (1 -> 2), in
# catalog order P_1, P_2, S_1, P_1[1], P_2[1].  Derived by hand from the
# windowed twist sums; the ext table doubles as the pentagon-diagonal
# crossing pattern (each object crosses exactly two others).
A2_HOM = [
    [1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0],
    [0, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
    [0, 0, 0, 1, 1],
]
A2_EXT = [
    [0, 0, 0, 1, 1],
    [0, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0],
]


def test_a2_m1_hom_and_ext_tables(build):
    cat = build(A2).orbit(1)
    assert [o.text for o in cat.catalog] == ["m1[0]", "m2[0]", "m3[0]", "m1[1]", "m2[1]"]
    assert cat.hom_table == A2_HOM
    assert cat.ext_table == A2_EXT


def test_a2_m1_compatibility_graph_is_pentagon(build):
    # the ext-vanishing graph on the five objects is a single 5-cycle
    cat = build(A2).orbit(1)
    n = len(cat.catalog)
    neighbors = {
        i: {j for j in range(n) if j != i and cat.ext_table[i][j] == 0}
        for i in range(n)
    }
    assert all(len(v) == 2 for v in neighbors.values())
    start, prev, cur, steps = 0, None, 0, 0
    while True:
        nxt = next(j for j in neighbors[cur] if j != prev)
        prev, cur, steps = cur, nxt, steps + 1
        if cur == start:
            break
    assert steps == n


def test_canonicalize_walks_into_domain(build):
    dc = build(A2)
    cat = dc.orbit(1)
    s1 = module_id(dc.ar, (1, 0))
    x = DObject(s1, 5)
    rep = cat.catalog[cat.canonicalize(x)]
    assert rep.shift == 0 or (
        rep.shift == 1 and dc.ar.module(rep.module_id).is_projective
    )
    # the representative is twist-power related to the input
    assert any(dc.twist_power(rep, k) == x for k in range(-20, 21))


def test_canonicalize_idempotent():
    # canonicalize sends each catalog object to its own position
    for q in BATTERY_QUIVERS.values():
        dc = cc.DerivedCategory(cc.ARQuiver(q))
        for m in (1, 2, 3):
            cat = dc.orbit(m)
            for i, x in enumerate(cat.catalog):
                assert cat.canonicalize(x) == i


def test_canonicalize_tiers_distinct_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    x = DObject(1, 0)
    a = cat.canonicalize(x)
    b = cat.canonicalize(dc.twist(x))
    assert cat.catalog[a] == x
    assert cat.catalog[b] == dc.twist(x)
    assert a != b
    assert cat.tier_of(a) == 0 and cat.tier_of(b) == 1


@pytest.mark.parametrize("text", [A2, A3, D4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_catalog_sizes(build, text, m):
    dc = build(text)
    cat = dc.orbit(m)
    n = dc.ar.quiver.vertex_count
    assert len(cat.catalog) == m * (len(dc.ar.modules) + n)
    assert len(set(cat.catalog)) == len(cat.catalog)


@pytest.mark.parametrize("text", [A3, D4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_catalog_positions_match_the_walked_twist(build, text, m):
    # lifts, tiers, projections and endo tiers read catalog positions; the
    # walked twist is the definition they must agree with
    dc = build(text)
    base, cat = dc.orbit(1), dc.orbit(m)
    size = len(base.catalog)
    for i, x in enumerate(cat.catalog):
        t, k = divmod(i, size)
        assert x == dc.twist_power(base.catalog[k], t)
        assert cat.project(i) == base.canonicalize(x)
    generator = [base.canonicalize(x) for x in base.catalog[::-1] + base.catalog[:1]]
    assert list(cat.build_twist_stable(generator)) == [
        cat.canonicalize(dc.twist_power(base.catalog[g], t))
        for t in range(m)
        for g in sorted(generator)
    ]
    for tilting in cc.enumerate_cluster_tilting(base):
        assert cc.endo_profile(cat, tilting).tiers == [
            [dc.twist_power(base.catalog[g], t) for g in tilting] for t in range(m)
        ]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("label", BATTERY_QUIVERS)
def test_position_api_on_every_catalog_position(label, m):
    # an object of the orbit category is its catalog position (canonicalize:
    # test_canonicalize_idempotent); size is the tier size B
    dc = cc.DerivedCategory(cc.ARQuiver(BATTERY_QUIVERS[label]))
    cat = dc.orbit(m)
    size = len(cat.catalog) // m
    for i, x in enumerate(cat.catalog):
        assert (cat.tier_of(i), cat.project(i)) == divmod(i, size)
        assert cat.twist_action(i) == cat.twist_permutation[i]
        assert cat.serre_permutation[i] == cat.canonicalize(dc.serre(x))


def test_twist_orbit_check_catches_a_shuffled_tier(build):
    cat = cc.OrbitCategory(build(A2), 2)
    b = len(cat.catalog) // 2
    cat.catalog[b], cat.catalog[b + 1] = cat.catalog[b + 1], cat.catalog[b]
    # canonicalize finds each walked image's tier by arithmetic, so the walked
    # twist is still a bijection of the positions: a permutation check alone
    # would pass, though the swapped tier-1 objects step to the wrong base index
    perm = cat.twist_permutation
    assert sorted(perm) == list(range(len(perm)))
    assert perm == [5, 6, 7, 8, 9, 1, 0, 2, 3, 4]
    assert _check_twist_orbits(cat) == "twist sends catalog position 5 to 1, not one tier on"


def test_self_hom_one_everywhere(build):
    for text in (A2, A3):
        dc = build(text)
        for m in (1, 2, 3):
            cat = dc.orbit(m)
            for i in range(len(cat.catalog)):
                assert cat.dim(i, i, 0) == 1
                assert cat.dim(i, i, 1) == 0


def test_covering_projection_fibers(build):
    dc = build(A2)
    cat = dc.orbit(2)
    base = dc.orbit(1)
    fibers = {i: 0 for i in range(len(base.catalog))}
    for i in range(len(cat.catalog)):
        fibers[cat.project(i)] += 1
    assert set(fibers.values()) == {2}
    assert len(fibers) == 5


def test_projection_identity_at_m1(build):
    cat = build(A2).orbit(1)
    for i in range(len(cat.catalog)):
        assert cat.project(i) == i


def test_projection_twist_invariant(build):
    cat = build(A3).orbit(3)
    for i in range(len(cat.catalog)):
        assert cat.project(cat.twist_action(i)) == cat.project(i)


def test_twist_action_m1_identity(build):
    cat = build(A2).orbit(1)
    for i in range(len(cat.catalog)):
        assert cat.twist_action(i) == i


def test_twist_action_m2_involution(build):
    cat = build(A2).orbit(2)
    for i in range(len(cat.catalog)):
        assert cat.twist_action(cat.twist_action(i)) == i


def test_twist_action_a2_m3_orbits(build):
    cat = build(A2).orbit(3)
    perm = cat.twist_permutation
    assert len(perm) == 15
    seen, cycles = set(), []
    for s in range(len(perm)):
        if s in seen:
            continue
        cycle, j = [], s
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        cycles.append(cycle)
    assert len(cycles) == 5
    assert all(len(c) == 3 for c in cycles)


def test_build_twist_stable_sizes(build):
    dc = build(A2)
    cat = dc.orbit(2)
    single = cat.build_twist_stable([module_obj(dc.orbit(1), (1, 1))])
    assert len([cat.catalog[p] for p in single]) == 2
    assert len({cat.catalog[p] for p in single}) == 2  # {X, FX} hits two tiers
    assert cat.build_twist_stable([]) == ()


def test_build_twist_stable_takes_base_positions(build):
    dc = build(A2)
    cat = dc.orbit(2)
    size = len(dc.orbit(1).catalog)
    for bad in (size, -1):
        with pytest.raises(ValueError, match="generator positions"):
            cat.build_twist_stable([bad])
    assert cat.build_twist_stable([]) == ()
    # a multiset generator, sorted: each tier repeats the repeated summand
    stable = cat.build_twist_stable([size - 1, 0, 0])
    assert stable == (0, 0, size - 1, size, size, 2 * size - 1)


def test_build_twist_stable_tilting_generator(build):
    dc = build(A3)
    cat3 = dc.orbit(3)
    tilting = cc.enumerate_cluster_tilting(dc.orbit(1))[0]
    stable = cat3.build_twist_stable(tilting)
    assert len([cat3.catalog[p] for p in stable]) == 3 * 3
    assert len({cat3.catalog[p] for p in stable}) == 9
    assert {cat3.project(p) for p in stable} == set(tilting)  # one orbit per generator summand


def test_twist_stability_of_expansion(build):
    dc = build(A3)
    cat = dc.orbit(3)
    base = dc.orbit(1)
    stable = cat.build_twist_stable([0, 3])
    expanded = sorted(stable)
    twisted = sorted(cat.twist_action(p) for p in stable)
    assert expanded == twisted


def test_orbit_count_and_distinct_count(build):
    dc = build(A2)
    cat = dc.orbit(2)
    base = dc.orbit(1)
    x = base.catalog[0]
    assert len({cat.project(p) for p in cat.build_twist_stable([0, 1])}) == 2
    assert len({cat.project(p) for p in cat.build_twist_stable([0, 0])}) == 1
    # tiers are disjoint, so X and its twist stay distinct for m >= 2
    fx = cat.twist_action(cat.canonicalize(x))
    assert len({cat.canonicalize(x), fx}) == 2


def test_delta_of_lifted_tilting_a2_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    t = cc.enumerate_cluster_tilting(dc.orbit(1))[0]
    assert len({cat.catalog[p] for p in cat.build_twist_stable(t)}) == 4


def test_rigidity_transfer_pairs(build):
    # expansion ext totals are m times the base totals, pairwise
    dc = build(A2)
    base = dc.orbit(1)
    for m in (2, 3):
        cat = dc.orbit(m)
        for a in range(len(base.catalog)):
            for b in range(len(base.catalog)):
                sa = cat.build_twist_stable([a])
                sb = cat.build_twist_stable([b])
                total = sum(cat.dim(x, y, 1) for x in sa for y in sb)
                assert total == m * base.dim(a, b, 1)


def test_twist_hom_invariance(build):
    dc = build(A2)
    for m in (2, 3):
        cat = dc.orbit(m)
        base = dc.orbit(1)
        for g in range(len(base.catalog)):
            expansion = cat.build_twist_stable([g])
            for y in range(len(cat.catalog)):
                ref = sum(cat.dim(s, y, 0) for s in expansion)
                z = y
                for _ in range(m - 1):
                    z = cat.twist_action(z)
                    assert sum(cat.dim(s, z, 0) for s in expansion) == ref


def test_cy_symmetry_m1(build):
    for text in (A2, A3):
        cat = build(text).orbit(1)
        t = cat.ext_table
        for i in range(len(t)):
            for j in range(len(t)):
                assert t[i][j] == t[j][i]


def test_serre_symmetry_orbit(build):
    dc = build(A3)
    for m in (1, 2):
        cat = dc.orbit(m)
        for x in range(len(cat.catalog)):
            sx = cat.serre_permutation[x]
            for y in range(len(cat.catalog)):
                assert cat.dim(x, y, 0) == cat.dim(y, sx, 0)


def test_fractional_cy_permutation(build):
    dc = build(A2)
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        for i, x in enumerate(cat.catalog):
            target = i
            for _ in range(m):
                target = cat.serre_permutation[target]
            assert cat.canonicalize(dc.shift(x, 2 * m)) == target


def test_symmetric_ext_formula_cross_check(build):
    # at modulus 1 the ext of (x, y) can also be computed from the
    # symmetric side; both windowed sums agree
    cat = build(A2).orbit(1)
    s1 = module_obj(cat, (1, 0))
    p2 = module_obj(cat, (0, 1))
    assert cat.dim(s1, p2, 1) == cat.dim(p2, s1, 1)


LAYERS = ((0, 0), (0, 1), (1, -1), (1, 0))
PREMISE_QUIVERS = {**BATTERY_QUIVERS, "E6": cc.parse_quiver(E6), "E7": cc.parse_quiver(E7)}


@pytest.mark.parametrize("key", LAYERS)
def test_hom_walk_oracle_catches_a_tampered_layer(build, key):
    cat = cc.OrbitCategory(build(A2), 2)
    b = len(cat.catalog) // 2
    layer = cat.layers[key]
    k, l = next((k, l) for k, row in enumerate(layer) for l, v in enumerate(row) if v)
    layer[k][l] += 1
    # the entry is read at tier gap 0 (s = 0) or 1 (s = +-1) modulo 2
    gap = abs(key[1])
    hit = {
        (cat.catalog[a * b + k].text, cat.catalog[(a + gap) % 2 * b + l].text) for a in range(2)
    }
    detail = _check_hom_walk(cat)
    name, pair = detail.split(":")[0].split("(")
    assert name == ("hom" if key[0] == 0 else "ext1")
    assert tuple(pair.rstrip(")").split(", ")) in hit


@pytest.mark.parametrize(
    "text,m",
    [(E6, 1), (E6, 2), (E6, 3), (E7, 1), (E7, 2), (D5, 12)],
    ids=["E6-m1", "E6-m2", "E6-m3", "E7-m1", "E7-m2", "D5-m12"],
)
def test_hom_walk_oracle_beyond_the_battery(build, text, m):
    assert _check_hom_walk(build(text).orbit(m)) is None


@pytest.mark.parametrize("label", PREMISE_QUIVERS)
def test_only_four_layers_carry_maps(label):
    # Hom_D(X_k, F^s(X_l)[e]) over the base domain vanishes for every other
    # (e, s), which is why Hom and Ext^1 of C_{F^m} need no twist walk
    dc = cc.DerivedCategory(cc.ARQuiver(PREMISE_QUIVERS[label]))
    cat = dc.orbit(1)
    base = cat.catalog
    for e in (0, 1):
        for s in range(-4, 6):
            column = [dc.shift(dc.twist_power(y, s), e) for y in base]
            dims = [[dc.hom(x, z) for z in column] for x in base]
            assert dims == cat.layers.get((e, s), [[0] * len(base)] * len(base)), (e, s)


@pytest.mark.parametrize("label", PREMISE_QUIVERS)
def test_position_read_matches_tables_and_object_wrappers(label):
    # the tables are tiled by tier gap; dim reads each entry on its own
    dc = cc.DerivedCategory(cc.ARQuiver(PREMISE_QUIVERS[label]))
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        canon = [cat.canonicalize(x) for x in cat.catalog]
        for e, table in ((0, cat.hom_table), (1, cat.ext_table)):
            for i, ci in enumerate(canon):
                for j, cj in enumerate(canon):
                    assert cat.dim(i, j, e) == table[i][j] == cat.dim(ci, cj, e), (m, e, i, j)


@pytest.mark.parametrize("label", BATTERY_QUIVERS)
def test_twist_stable_positions_and_mask(label):
    dc = cc.DerivedCategory(cc.ARQuiver(BATTERY_QUIVERS[label]))
    base = dc.orbit(1)
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        generators = list(cc.enumerate_cluster_tilting(base))
        generators += [(k, k) for k in range(len(base.catalog))]  # a multiset
        for generator in generators:
            stable = cat.build_twist_stable(generator)
            # the summands are the walked twists of the generator, tier-major
            assert list(stable) == [
                cat.canonicalize(dc.twist_power(base.catalog[g], t))
                for t in range(m)
                for g in generator
            ]
            # ascending, as `tilting` and `graph` list the members without sorting
            assert list(stable) == sorted(stable)
            assert mask_of(stable).bit_count() == m * len(set(generator))
            # tier 0 holds the generator's modulus-1 positions
            tier0 = stable[: len(generator)]
            assert [base.catalog[p] for p in tier0] == [base.catalog[g] for g in generator]


def test_categories_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        derived = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
        cats = [derived.orbit(m) for m in (1, 2, 3)]
        assert derived.orbit(1) is derived.orbit(1) is cats[0]
        assert all(check["passed"] for cat in cats for check in _run_cell(cat))
        refs = [weakref.ref(x) for x in (derived, *cats)]
        del derived, cats
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_orbit_category_keeps_its_derived_category_and_base():
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A3))).orbit(2)
    assert cat.derived.orbit(2) is cat
    assert cat.base is cat.derived.orbit(1) and cat.base.base is cat.base
    assert len(cat.base.tilting_sets) == 14
