from array import array
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat import verify
from clustercat.orbit import mask_of, pairs
from clustercat.quiver import reachable
from clustercat.tilting import NotRigidError

from conftest import A1, A2, A3, A4, A7, BATTERY_QUIVERS, D4, D5, E6, E7, E8, TREES, module_obj, oriented_trees


EXPECTED_COUNTS = {A1: 2, A2: 5, A3: 14, A4: 42, D4: 50}


@pytest.mark.parametrize("text,count", sorted(EXPECTED_COUNTS.items()))
def test_tilting_counts(build, text, count):
    cat1 = build(text).orbit(1)
    assert len(cc.enumerate_cluster_tilting(cat1)) == count


@pytest.mark.parametrize("text", [A1, A2, A3])
def test_counts_match_brute_force_subsets(build, text):
    # independent oracle: scan every n-subset for rigidity plus maximality
    cat = build(text).orbit(1)
    n = cat.ar.quiver.vertex_count
    size = len(cat.catalog)
    found = []
    for combo in combinations(range(size), n):
        if any(
            cat.ext_table[i][j] or cat.ext_table[j][i]
            for i in combo
            for j in combo
        ):
            continue
        outside = [
            j
            for j in range(size)
            if j not in combo
            and all(
                cat.ext_table[i][j] == 0 and cat.ext_table[j][i] == 0 for i in combo
            )
            and cat.ext_table[j][j] == 0
        ]
        if not outside:
            found.append(combo)
    fast = cc.enumerate_cluster_tilting(cat)
    assert sorted(found) == sorted(fast)


def test_count_orientation_independent():
    for bits in range(4):
        base = [(1, 2), (2, 3)]
        arrows = tuple(
            (a, b) if not bits & (1 << i) else (b, a) for i, (a, b) in enumerate(base)
        )
        q = cc.Quiver(3, arrows)
        dc = cc.DerivedCategory(cc.ARQuiver(q))
        assert len(cc.enumerate_cluster_tilting(dc.orbit(1))) == 14


def test_lift_m1_is_identity_on_members(build):
    dc = build(A2)
    cat1 = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(cat1):
        lifted = cat1.build_twist_stable(t)
        assert sorted(cat1.catalog[p] for p in lifted) == sorted(
            cat1.catalog[p] for p in t
        )


def test_lift_a2_m2_has_four_summands(build):
    dc = build(A2)
    cat = dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        lifted = cat.build_twist_stable(t)
        assert len({cat.catalog[p] for p in lifted}) == 4


def test_lift_projects_back_m_to_one(build):
    dc = build(A3)
    cat = dc.orbit(3)
    base = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(base):
        images = [cat.project(p) for p in cat.build_twist_stable(t)]
        assert sorted(set(images)) == sorted(t)
        assert all(images.count(p) == 3 for p in t)


@pytest.mark.parametrize("text", [A2, A3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lifts_pass_definition_check(build, text, m):
    dc = build(text)
    cat = dc.orbit(m)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        members = [cat.catalog[p] for p in cat.build_twist_stable(t)]
        ok, witness = cc.cluster_tilting_check(cat, [cat.canonicalize(x) for x in members])
        assert ok, witness


def test_definition_check_fails_after_deletion(build):
    dc = build(A2)
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        lifted = cat.build_twist_stable(cc.enumerate_cluster_tilting(dc.orbit(1))[0])
        deleted, *rest = lifted
        ok, witness = cc.cluster_tilting_check(cat, rest)
        assert not ok
        assert witness is not None
        # the deleted summand itself violates the add-characterization:
        # it is rigid against the rest but is not a member
        assert all(cat.dim(deleted, s, 1) == 0 for s in rest)
        assert all(cat.dim(s, deleted, 1) == 0 for s in rest)
        if m >= 2:
            assert witness == deleted


def test_definition_check_rejects_tier_zero_slice(build):
    # keeping only the tier-0 copies is not twist stable and must fail;
    # in particular the tier-1 twist of any member is fully compatible
    # with the slice without belonging to it
    dc = build(A2)
    cat = dc.orbit(2)
    t = cc.enumerate_cluster_tilting(dc.orbit(1))[0]
    tier0 = [cat.canonicalize(dc.orbit(1).catalog[g]) for g in t]
    ok, witness = cc.cluster_tilting_check(cat, tier0)
    assert not ok
    assert witness is not None and witness not in tier0
    twisted = cat.twist_action(tier0[0])
    assert cat.tier_of(twisted) == 1
    assert all(cat.dim(twisted, s, 1) == 0 for s in tier0)
    assert all(cat.dim(s, twisted, 1) == 0 for s in tier0)


def test_complements_single_deletion_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        members = cat.build_twist_stable(t)
        for drop in members:
            rest = [x for x in members if x != drop]
            assert cc.complements(cat, rest) == [drop]


def test_complements_two_at_m1(build):
    dc = build(A2)
    cat = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(cat):
        for drop in t:
            rest = [x for x in t if x != drop]
            found = cc.complements(cat, rest)
            assert len(found) == 2
            assert drop in found


def test_complements_exhaustive_a3_m3(build):
    dc = build(A3)
    cat = dc.orbit(3)
    tiltings = cc.enumerate_cluster_tilting(dc.orbit(1))
    assert len(tiltings) == 14
    for t in tiltings:
        members = cat.build_twist_stable(t)
        assert len(members) == 9
        for drop in members:
            rest = [x for x in members if x != drop]
            assert cc.complements(cat, rest) == [drop]


def test_complements_rejects_non_rigid(build):
    dc = build(A2)
    cat = dc.orbit(2)
    # S_1 and S_2 extend each other; pad with their twists to reach nm-1
    s1 = module_obj(cat, (1, 0))
    s2 = module_obj(cat, (0, 1))
    third = cat.twist_action(s1)
    with pytest.raises(NotRigidError):
        cc.complements(cat, [s1, s2, third])


def test_complements_rejects_wrong_size(build):
    dc = build(A2)
    cat = dc.orbit(2)
    lifted = cat.build_twist_stable(cc.enumerate_cluster_tilting(dc.orbit(1))[0])
    with pytest.raises(ValueError, match="distinct summands"):
        cc.complements(cat, lifted)


def test_near_complements_a2_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    base = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(base):
        for drop, rest, comps in cc.near_complements(base, t):
            assert rest == mask_of(t) & ~(1 << drop) and drop in comps
            one, two = (tuple(sorted(set(t) - {drop} | {x})) for x in comps)
            assert one != two
            assert t in (one, two)
            for completion in (one, two):
                ok, _ = cc.cluster_tilting_check(cat, cat.build_twist_stable(completion))
                assert ok


@pytest.mark.parametrize("label", [*BATTERY_QUIVERS, "E6"])
def test_near_complements_sweep_every_rest_of_a_tilting_set(label):
    # one sweep per set gives each member's rest and the completions complements finds for it
    q = BATTERY_QUIVERS[label] if label in BATTERY_QUIVERS else cc.parse_quiver(E6)
    base = cc.DerivedCategory(cc.ARQuiver(q)).orbit(1)
    n = base.ar.quiver.vertex_count
    for t in base.tilting_sets:
        triples = cc.near_complements(base, t)
        assert [p for p, _, _ in triples] == list(t)
        for drop, rest, comps in triples:
            others = [p for p in t if p != drop]
            assert rest == mask_of(others)
            assert comps == cc.complements(base, others) and len(comps) == 2
    # a generator one orbit short, or with a member repeated in place of one, is refused
    t = base.tilting_sets[0]
    for short in (t[1:], t[1:] + t[1:2]):
        with pytest.raises(ValueError, match=f"tilting generator needs {n} orbits, got {n - 1}"):
            cc.near_complements(base, short)


def test_near_complements_refuse_a_rest_that_is_not_almost_tilting(build):
    base = build(A3).orbit(1)
    x, y = next((i, j) for i, j in combinations(range(len(base.catalog)), 2) if base.ext_table[i][j])
    with pytest.raises(NotRigidError):
        cc.near_complements(base, (x, y, next(z for z in range(len(base.catalog)) if z not in (x, y))))
    # a fresh A2 whose P_2 row forgets Ext^1 vanishes from P_1: P_2 has one completion left
    fresh = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(1)
    t = fresh.tilting_sets[0]
    assert t == (0, 1)
    fresh.ext_zero_in[1] &= ~1
    with pytest.raises(cc.NotExchangeError, match=r"less m1\[0\] is not an almost tilting object \(found 1 complements\)"):
        cc.near_complements(fresh, t)


def _degrees(count, edges):
    ends = Counter(v for edge in edges for v in edge)
    return [ends[v] for v in range(count)]


def _connected(count, edges):
    """True iff the graph on vertices 0 .. count-1 with these edges is connected."""
    adjacency = [[] for _ in range(count)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return not count or len(reachable(0, adjacency)) == count


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a2_is_pentagon(build, m):
    cat = build(A2).orbit(m)
    sets, edges = cc.enumerate_cluster_tilting(cat.base), list(cc.build_tilting_graph(cat))
    assert len(sets) == 5
    assert len(edges) == 5
    assert _degrees(5, edges) == [2] * 5
    assert _connected(5, edges)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a1_single_edge(build, m):
    cat = build(A1).orbit(m)
    assert len(cc.enumerate_cluster_tilting(cat.base)) == 2
    assert list(cc.build_tilting_graph(cat)) == [(0, 1)]
    assert _connected(2, [(0, 1)])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a3_three_regular(build, m):
    cat = build(A3).orbit(m)
    edges = list(cc.build_tilting_graph(cat))
    assert len(cc.enumerate_cluster_tilting(cat.base)) == 14
    assert _degrees(14, edges) == [3] * 14
    assert _connected(14, edges)


def test_graph_connected_d4(build):
    for m in (1, 2):
        cat = build(D4).orbit(m)
        assert len(cat.base.tilting_sets) == 50
        assert _connected(50, cc.build_tilting_graph(cat))


def test_connectivity_oracle_sees_a_missing_bridge():
    assert _connected(0, []) and _connected(1, [])
    assert _connected(4, [(0, 1), (1, 2), (2, 3)])
    assert not _connected(4, [(0, 1), (2, 3)])
    assert not _connected(3, [(0, 1)])


def test_graph_edges_differ_in_one_orbit(build):
    cat = build(A3).orbit(2)
    sets = cat.base.tilting_sets
    for a, b in cc.build_tilting_graph(cat):
        ga, gb = set(sets[a]), set(sets[b])
        assert len(ga - gb) == 1
        assert len(gb - ga) == 1


def test_graphs_isomorphic_across_m(build):
    # the lift bijection matches vertices by generator and carries mutations
    # to mutations, so the graph at every m is the modulus-1 graph itself
    dc = build(A3)
    base = dc.orbit(1)  # held, so that every modulus shares it
    edges = list(cc.build_tilting_graph(base))
    for m in (2, 3):
        assert list(cc.build_tilting_graph(dc.orbit(m))) == edges == list(pairs(base.exchange_edges)) != []
        assert cc.enumerate_cluster_tilting(dc.orbit(m).base) is base.tilting_sets


def _exchange_pair(sets, a, b):
    """The two positions in which tilting sets a and b differ, a's first."""
    (x1,), (x2,) = set(sets[a]) - set(sets[b]), set(sets[b]) - set(sets[a])
    return x1, x2


def test_exchange_pair_ext_is_one():
    # a fresh category: the check is tampered with below
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(1)
    sets, edges = cat1.tilting_sets, list(pairs(cat1.exchange_edges))
    for a, b in edges:
        x1, x2 = _exchange_pair(sets, a, b)
        assert cat1.dim(x1, x2, 1) == cat1.dim(x2, x1, 1) == 1
    assert verify._check_exchange_pairs(cat1) is None
    # with Ext^1 read as zero, the battery check names the first edge's pair
    zero = [[0] * len(cat1.catalog) for _ in cat1.catalog]
    cat1.__dict__["layers"] = {**cat1.layers, (1, 0): zero, (1, -1): zero}
    one, two = cat1.texts(_exchange_pair(sets, *edges[0]))
    assert verify._check_exchange_pairs(cat1) == f"exchange pair ({one}, {two}) not one-dimensional"


@pytest.mark.parametrize("text", [A3, D4])
def test_exchange_pair_ext_matches_complements(build, text):
    # oracle: (x1, x2) exchange iff dropping x1 from some tilting object
    # leaves the two complements x1 and x2; the pairs read off the edges are
    # exactly these, with Ext^1 one-dimensional both ways
    cat1 = build(text).orbit(1)
    exchanged = set()
    for t in cc.enumerate_cluster_tilting(cat1):
        for x1 in t:
            comps = cc.complements(cat1, [x for x in t if x != x1])
            exchanged |= {(x1, x2) for x2 in comps if x2 != x1}
    from_edges = set()
    for a, b in pairs(cat1.exchange_edges):
        x1, x2 = _exchange_pair(cat1.tilting_sets, a, b)
        from_edges |= {(x1, x2), (x2, x1)}
    assert from_edges == exchanged
    assert all(cat1.dim(x1, x2, 1) == 1 for x1, x2 in exchanged)


# the row past the battery's gate (n <= 3 and m <= 2) too: the battery's orientations of rank 3 or
# less at m = 3, those of A4 and D4 at m = 2, and D5 at m = 2
_DIRECT_QUIVERS = {**BATTERY_QUIVERS, "D5": cc.parse_quiver(D5)}
_DIRECT_CELLS = [(label, m) for label, q in BATTERY_QUIVERS.items() if q.vertex_count <= 3 for m in (1, 2, 3)]
_DIRECT_CELLS += [(label, 2) for label in _DIRECT_QUIVERS if label[:2] in ("A4", "D4", "D5")]


@pytest.mark.parametrize("label,m", _DIRECT_CELLS)
def test_direct_enumeration_agrees(label, m):
    # the cluster tilting objects of C_{F^m} with mn summands are the lifts
    cat = cc.DerivedCategory(cc.ARQuiver(_DIRECT_QUIVERS[label])).orbit(m)
    assert verify._check_direct_enumeration(cat) is None


def test_direct_enumeration_keeps_only_the_faces_that_pass_the_tilting_check():
    # every pair marked compatible makes every 4-set of A2's 10 positions at m = 2 a face; the
    # tilting check reads ext_zero_in and ext_zero_out, not compat_mask, and keeps the 5 lifts
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(2)
    size = len(cat.catalog)
    cat.__dict__["compat_mask"] = [(1 << size) - 1] * size
    assert sum(len(face) == 4 for face in cat.rigid_position_sets()) == comb(size, 4)
    assert verify._check_direct_enumeration(cat) is None


def test_orbit_count_criterion_a2(build):
    # twist-stable rigid objects are tilting exactly when they span n orbits
    dc = build(A2)
    base = dc.orbit(1)
    n = 2
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        for size in (1, 2):
            for combo in combinations(range(len(base.catalog)), size):
                if any(
                    base.dim(x, y, 1) or base.dim(y, x, 1) for x in combo for y in combo
                ):
                    continue
                ok, _ = cc.cluster_tilting_check(cat, cat.build_twist_stable(combo))
                assert ok == (len(combo) == n)


# Cluster numbers (Fomin-Zelevinsky, Cluster algebras II): the vertex counts
# of the exchange graphs, which are n-regular and connected.
def _text(n: int, arrows) -> str:
    return f"vertices {n}\n" + "".join(f"arrow {a} {b}\n" for a, b in arrows)


def _path(n: int) -> list[tuple[int, int]]:
    """The arrows of 1 -> 2 -> ... -> n."""
    return [(i, i + 1) for i in range(1, n)]


A5 = _text(5, _path(5))

# one orientation each; D_n is the path to n - 1 with the arrow n - 2 -> n
CLUSTER_NUMBER_QUIVERS = {
    **{f"A{n}": _text(n, _path(n)) for n in range(1, 8)},
    **{f"D{n}": _text(n, [*_path(n - 1), (n - 2, n)]) for n in range(4, 8)},
    "E6": E6,
    "E7": E7,
    "E8": E8,
}


@pytest.mark.parametrize("label", CLUSTER_NUMBER_QUIVERS)
def test_cluster_number_counts_the_tilting_sets(build, label):
    cat1 = build(CLUSTER_NUMBER_QUIVERS[label]).orbit(1)
    assert str(cat1.ar.dynkin) == label
    assert len(cat1.tilting_sets) == cc.cluster_number(cat1.ar.dynkin)


@pytest.mark.parametrize(
    "text,n,vertices,m",
    [(A5, 5, 132, 1), (D5, 5, 182, 1), (E6, 6, 833, 1), (A7, 7, 1430, 1), (E7, 7, 4160, 1),
     (E6, 6, 833, 2)],
    ids=["A5", "D5", "E6", "A7", "E7", "E6-m2"],
)
def test_graph_matches_cluster_numbers(build, text, n, vertices, m):
    cat = build(text).orbit(m)
    edges = list(cc.build_tilting_graph(cat))
    assert len(cat.base.tilting_sets) == vertices
    # the base holds the edges laid flat, two ints an edge (E6: 2 x 2499)
    flat = cat.base.exchange_edges
    assert isinstance(flat, array) and flat.typecode == "i" and len(flat) == 2 * (n * vertices // 2)
    assert len(edges) == n * vertices // 2
    assert set(_degrees(vertices, edges)) == {n}
    assert _connected(vertices, edges)


# the W-Narayana numbers h_0..h_n of each type (Athanasiadis, Trans. AMS 357 (2005)); E6 and E7
# by the antichains of the root poset, counted by size
NARAYANA = {
    **{f"A{n}": [comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(n + 1)] for n in (5, 7)},
    **{
        f"D{n}": [comb(n, k) ** 2 - (n * comb(n - 1, k) * comb(n - 1, k - 1) // (n - 1) if k else 0) for k in range(n + 1)]
        for n in (5, 6)
    },
    "E6": [1, 36, 204, 351, 204, 36, 1],
    "E7": [1, 63, 546, 1470, 1470, 546, 63, 1],
}
FACE_TREES = {**TREES, "A7": tuple(_path(7)), "E7": (*_path(6), (3, 7))}


@settings(max_examples=3, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("diagram", NARAYANA)
def test_rigid_sets_count_the_faces_of_the_cluster_complex(data, diagram):
    # the face search's sets of each size k are the cluster complex's f_k = sum_i C(n - i, k - i) h_i
    # (Fomin-Reading, math/0505518), under a random orientation and vertex numbering
    cat = cc.DerivedCategory(cc.ARQuiver(data.draw(oriented_trees(FACE_TREES[diagram])))).orbit(1)
    assert str(cat.ar.dynkin) == diagram
    h, n = NARAYANA[diagram], cat.ar.quiver.vertex_count
    assert sum(h) == cc.cluster_number(cat.ar.dynkin)
    sizes = Counter(map(len, cat.rigid_position_sets()))
    assert sizes == {k: sum(comb(n - i, k - i) * h[i] for i in range(k + 1)) for k in range(1, n + 1)}


def _near_complement_edges(cat):
    sets = cc.enumerate_cluster_tilting(cat)
    index, edges = {mask_of(t): i for i, t in enumerate(sets)}, set()
    for i, t in enumerate(sets):
        for drop, rest, comps in cc.near_complements(cat, t):
            (partner,) = set(comps) - {drop}
            edges.add(tuple(sorted((i, index[rest | 1 << partner]))))
    return sorted(edges)


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_mutation_edges_equal_near_complement_edges(data):
    # a random orientation and vertex numbering of each tree; the edges group
    # the tilting sets, the oracle completes each almost complete set from Ext^1
    for diagram in ("A5", "D5", "A6", "D6", "E6"):
        q = data.draw(oriented_trees(TREES[diagram]))
        cat = cc.DerivedCategory(cc.ARQuiver(q)).orbit(1)
        assert str(cat.ar.dynkin) == diagram
        assert list(cc.build_tilting_graph(cat)) == _near_complement_edges(cat)


def test_enumeration_is_cached_per_category(build):
    # the battery enumerates each category about nine times
    cat1 = build(A3).orbit(1)
    first = cc.enumerate_cluster_tilting(cat1)
    assert cc.enumerate_cluster_tilting(cat1) is first
    assert first == cat1.tilting_sets


@pytest.mark.parametrize("m", [1, 2])
def test_rigid_position_sets_stop_at_n(build, m):
    # faces grow to mn members; the longest are the lifts, and each passes the tilting check
    dc = build(A3)
    cat = dc.orbit(m)
    sets = list(cat.rigid_position_sets())
    longest = [s for s in sets if len(s) == 3 * m]
    assert max(map(len, sets)) == 3 * m
    assert longest == [cat.build_twist_stable(t) for t in dc.orbit(1).tilting_sets]
    assert all(cc.cluster_tilting_check(cat, s)[0] for s in longest)
    assert sets == sorted(sets)
    assert all(cat.is_rigid(list(s)) for s in sets)


def _walk_error(text, change):
    """The exchange walk's RuntimeError once change(compat) has tampered a copy of
    the modulus-1 category's compat_mask, the one table the walk reads."""
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(text))).orbit(1)
    compat = list(cat1.compat_mask)
    change(compat)
    cat1.__dict__["compat_mask"] = compat
    with pytest.raises(RuntimeError) as raised:
        cat1.exchange_edges
    with pytest.raises(RuntimeError):
        cat1.tilting_sets  # the walk gives both, so neither is left half built
    return str(raised.value)


def _toggle(compat, i, j):
    """Flip whether positions i and j are compatible, both ways."""
    compat[i] ^= 1 << j
    if i != j:
        compat[j] ^= 1 << i


def test_exchange_without_single_partner_names_quiver_and_vertex():
    # A2's positions m1[0], m2[0], m3[0], m1[1], m2[1] form a pentagon of
    # compatible pairs; the walk starts at (m1[0], m2[0]), and {m1[0]} is
    # completed by m2[0] and m3[0]
    lone = _walk_error(A2, lambda compat: _toggle(compat, 2, 2))  # m3[0] not rigid
    assert lone == "A2 quiver [(1, 2)]: almost complete set ['m1[0]'] lies in 1 tilting sets, expected 2"
    extra = _walk_error(A2, lambda compat: _toggle(compat, 0, 4))  # m1[0] and m2[1] compatible
    assert extra == "A2 quiver [(1, 2)]: almost complete set ['m1[0]'] lies in 3 tilting sets, expected 2"


def test_exchange_walk_names_a_seed_without_n_members():
    # m2[0] and m3[0] not rigid: the greedy seed stops at m1[0]; A1's two
    # positions made compatible: the seed takes both
    few = _walk_error(A2, lambda compat: [_toggle(compat, k, k) for k in (1, 2)])
    assert few == "A2 quiver [(1, 2)]: greedy maximal rigid set ['m1[0]'] has 1 members, expected 2"
    many = _walk_error(A1, lambda compat: _toggle(compat, 0, 1))
    assert many == "A1 quiver []: greedy maximal rigid set ['m1[0]', 'm1[1]'] has 2 members, expected 1"


def test_exchange_walk_names_a_tilting_set_that_is_not_maximal():
    # compat_mask is symmetric by construction, and then a walk from a maximal
    # seed meets only maximal sets; m1[0] reading m1[1] as compatible, one way
    # only, leaves the seed (m1[1]) maximal and makes its partner (m1[0]) not
    def one_way(compat):
        compat[0] |= 1 << 1

    detail = _walk_error(A1, one_way)
    assert detail == "A1 quiver []: tilting set ['m1[0]'] is not maximal: ['m1[1]'] compatible with all of it"


def test_exchange_walk_reads_only_the_compat_mask(monkeypatch):
    def fresh():
        return cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4))).orbit(1)

    expected, cat1 = fresh(), fresh()
    assert len(expected.tilting_sets) == 50 and len(expected.exchange_edges) == 2 * 100
    assert cat1.compat_mask

    def unread(cat):
        raise AssertionError("the exchange walk read an Ext^1 table or mask")

    for name in ("ext_zero_in", "ext_zero_out", "ext_table", "layers"):
        monkeypatch.setattr(cc.OrbitCategory, name, property(unread))
    assert cat1.exchange_edges == expected.exchange_edges
    assert cat1.tilting_sets == expected.tilting_sets


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tilting_check_matches_catalog_scan(build, data):
    # reference: the add-characterization tested object by object
    dc = build(D4)
    cat = dc.orbit(2)
    t = data.draw(st.sampled_from(cc.enumerate_cluster_tilting(dc.orbit(1))))
    toggles = data.draw(st.lists(st.sampled_from(range(len(cat.catalog))), max_size=2))
    members = sorted(set(cat.build_twist_stable(t)).symmetric_difference(toggles))
    expected = (True, None)
    for x in range(len(cat.catalog)):
        member = x in members
        if any(
            all(ext == 0 for ext in exts) != member
            for exts in ([cat.dim(x, s, 1) for s in members], [cat.dim(s, x, 1) for s in members])
        ):
            expected = (False, x)
            break
    assert cc.cluster_tilting_check(cat, members) == expected


LIFT_QUIVERS = {
    **BATTERY_QUIVERS,
    "E6": cc.parse_quiver(E6),
    "E7": cc.parse_quiver(E7),
    "E8": cc.parse_quiver(E8),
}


@pytest.mark.parametrize("label", LIFT_QUIVERS)
def test_lift_generator_is_the_tilting_set_in_shift_module_order(label):
    dc = cc.DerivedCategory(cc.ARQuiver(LIFT_QUIVERS[label]))
    base = dc.orbit(1)
    # ascending base positions list the modules by id, then P_i[1] by vertex
    assert base.catalog == sorted(base.catalog, key=lambda x: (x.shift, x.module_id))
    for m in (1, 2):
        cat = dc.orbit(m)
        for t in base.tilting_sets:
            assert cat.build_twist_stable(t)[: len(t)] == t  # the lift's tier 0
            reps = [base.catalog[g] for g in t]
            assert reps == sorted(reps, key=lambda x: (x.shift, x.module_id))


def test_lift_without_m_times_n_summands_names_quiver_and_generator():
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(2)
    # a generator repeating one summand has too few orbits
    cat.base.__dict__["tilting_sets"] = [(0, 0)]
    details = {c["name"]: c["detail"] for c in verify._run_cell(cat)}
    assert details["lift-check"] == (
        "A2 quiver [(1, 2)]: lift of ('m1[0]', 'm1[0]') does not have m*n distinct summands"
    )


def test_lift_failing_the_tilting_check_names_quiver_and_index():
    # lift-check is the one modulus-m tilting check of a lift
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(2)
    assert cat.compat_mask  # rigidity still holds; only the tilting check sees the tampering
    cat.__dict__["ext_zero_out"] = [0] * len(cat.catalog)
    details = {c["name"]: c["detail"] for c in verify._run_cell(cat)}
    assert details["lift-check"] == (
        "A2 quiver [(1, 2)]: lift T1 of ('m1[0]', 'm2[0]') fails the tilting check at m1[0]"
    )
