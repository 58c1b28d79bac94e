from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat import tilting
from clustercat.orbit import mask_of
from clustercat.tilting import NotExchangeError, NotRigidError
from clustercat.verify import run_verification

from conftest import A1, A2, A3, A4, BATTERY_QUIVERS, D4, D5, E6, E7, E8


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
        dc = cc.DerivedCategory(cc.knit_ar_quiver(q))
        assert len(cc.enumerate_cluster_tilting(dc.orbit(1))) == 14


def test_lift_m1_is_identity_on_members(build):
    dc = build(A2)
    cat1 = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(cat1):
        lifted = cc.lift(t, cat1)
        assert sorted(cat1.catalog[p] for p in lifted.positions) == sorted(
            cat1.catalog[p] for p in t
        )


def test_lift_a2_m2_has_four_summands(build):
    dc = build(A2)
    cat = dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        lifted = cc.lift(t, cat)
        assert len({cat.catalog[p] for p in lifted.positions}) == 4


def test_lift_projects_back_m_to_one(build):
    dc = build(A3)
    cat = dc.orbit(3)
    base = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(base):
        lifted = cc.lift(t, cat)
        images = [cat.project(cat.catalog[p]) for p in lifted.positions]
        assert sorted(set(images)) == sorted(base.catalog[p] for p in t)
        assert all(images.count(base.catalog[p]) == 3 for p in t)


@pytest.mark.parametrize("text", [A2, A3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lifts_pass_definition_check(build, text, m):
    dc = build(text)
    cat = dc.orbit(m)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        members = [cat.catalog[p] for p in cc.lift(t, cat).positions]
        ok, witness = cc.cluster_tilting_check(cat, [cat.position(x) for x in members])
        assert ok, witness


def test_definition_check_fails_after_deletion(build):
    dc = build(A2)
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        lifted = cc.lift(cc.enumerate_cluster_tilting(dc.orbit(1))[0], cat)
        members = [cat.catalog[p] for p in lifted.positions]
        deleted = members[0]
        ok, witness = cc.cluster_tilting_check(cat, [cat.position(x) for x in members[1:]])
        assert not ok
        assert witness is not None
        # the deleted summand itself violates the add-characterization:
        # it is rigid against the rest but is not a member
        rest = members[1:]
        assert all(cat.ext1(deleted, s) == 0 for s in rest)
        assert all(cat.ext1(s, deleted) == 0 for s in rest)
        if m >= 2:
            assert witness == cat.position(deleted)


def test_definition_check_rejects_tier_zero_slice(build):
    # keeping only the tier-0 copies is not twist stable and must fail;
    # in particular the tier-1 twist of any member is fully compatible
    # with the slice without belonging to it
    dc = build(A2)
    cat = dc.orbit(2)
    t = cc.enumerate_cluster_tilting(dc.orbit(1))[0]
    tier0 = [cat.canonicalize(dc.orbit(1).catalog[g].rep) for g in t]
    ok, witness = cc.cluster_tilting_check(cat, [cat.position(x) for x in tier0])
    assert not ok
    assert witness is not None and cat.catalog[witness] not in tier0
    twisted = cat.twist_action(tier0[0])
    assert cat.tier_of(twisted) == 1
    assert all(cat.ext1(twisted, s) == 0 for s in tier0)
    assert all(cat.ext1(s, twisted) == 0 for s in tier0)


def test_complements_single_deletion_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
        members = [cat.catalog[p] for p in cc.lift(t, cat).positions]
        for drop in members:
            rest = [x for x in members if x != drop]
            assert cc.complements(cat, [cat.position(x) for x in rest]) == [cat.position(drop)]


def test_complements_two_at_m1(build):
    dc = build(A2)
    cat = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(cat):
        members = [cat.catalog[p] for p in t]
        for drop in members:
            rest = [x for x in members if x != drop]
            found = cc.complements(cat, [cat.position(x) for x in rest])
            assert len(found) == 2
            assert cat.position(drop) in found


def test_complements_exhaustive_a3_m3(build):
    dc = build(A3)
    cat = dc.orbit(3)
    tiltings = cc.enumerate_cluster_tilting(dc.orbit(1))
    assert len(tiltings) == 14
    for t in tiltings:
        members = [cat.catalog[p] for p in cc.lift(t, cat).positions]
        assert len(members) == 9
        for drop in members:
            rest = [x for x in members if x != drop]
            assert cc.complements(cat, [cat.position(x) for x in rest]) == [cat.position(drop)]


def test_complements_rejects_non_rigid(build):
    dc = build(A2)
    cat = dc.orbit(2)
    # S_1 and S_2 extend each other; pad with their twists to reach nm-1
    s1 = cat.canonicalize(cc.DObject(dc.ar.module_by_dim((1, 0)).id, 0))
    s2 = cat.canonicalize(cc.DObject(dc.ar.module_by_dim((0, 1)).id, 0))
    third = cat.twist_action(s1)
    with pytest.raises(NotRigidError):
        cc.complements(cat, [cat.position(x) for x in [s1, s2, third]])


def test_complements_rejects_wrong_size(build):
    dc = build(A2)
    cat = dc.orbit(2)
    lifted = cc.lift(cc.enumerate_cluster_tilting(dc.orbit(1))[0], cat)
    members = [cat.catalog[p] for p in lifted.positions]
    with pytest.raises(ValueError, match="distinct summands"):
        cc.complements(cat, [cat.position(x) for x in members])


def test_near_complements_a2_m2(build):
    dc = build(A2)
    cat = dc.orbit(2)
    base = dc.orbit(1)
    for t in cc.enumerate_cluster_tilting(base):
        vertex = cc.lift(t, cat)
        for drop in vertex.generator:
            rest = tuple(g for g in vertex.generator if g != drop)
            almost = cat.build_twist_stable(rest)
            one, two = cc.near_complements(cat, almost)
            assert one.generator != two.generator
            assert vertex.generator in (one.generator, two.generator)
            for completion in (one, two):
                ok, _ = cc.cluster_tilting_check(cat, completion.positions)
                assert ok
            # the swapped orbits match the two modulus-1 complements
            swapped = {
                next(iter(set(g.generator) - set(rest))) for g in (one, two)
            }
            comps = cc.complements(base, rest)
            assert swapped == set(comps)


def test_near_complements_rejects_full_orbit_count(build):
    dc = build(A2)
    cat = dc.orbit(2)
    vertex = cc.lift(cc.enumerate_cluster_tilting(dc.orbit(1))[0], cat)
    with pytest.raises(ValueError, match="orbits"):
        cc.near_complements(cat, vertex)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a2_is_pentagon(build, m):
    cat = build(A2).orbit(m)
    g = cc.build_tilting_graph(cat)
    assert len(g.vertices) == 5
    assert len(g.edges) == 5
    assert all(g.degree(i) == 2 for i in range(5))
    assert cc.is_connected(g)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a1_single_edge(build, m):
    cat = build(A1).orbit(m)
    g = cc.build_tilting_graph(cat)
    assert len(g.vertices) == 2
    assert g.edges == [(0, 1)]
    assert cc.is_connected(g)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_a3_three_regular(build, m):
    cat = build(A3).orbit(m)
    g = cc.build_tilting_graph(cat)
    assert len(g.vertices) == 14
    assert all(g.degree(i) == 3 for i in range(14))
    assert cc.is_connected(g)


def test_graph_connected_d4(build):
    for m in (1, 2):
        cat = build(D4).orbit(m)
        g = cc.build_tilting_graph(cat)
        assert len(g.vertices) == 50
        assert cc.is_connected(g)


def test_graph_edges_differ_in_one_orbit(build):
    cat = build(A3).orbit(2)
    g = cc.build_tilting_graph(cat)
    for a, b in g.edges:
        ga, gb = set(g.vertices[a].generator), set(g.vertices[b].generator)
        assert len(ga - gb) == 1
        assert len(gb - ga) == 1


def test_graphs_isomorphic_across_m(build):
    # the lift bijection matches vertices by generator; edges transport
    dc = build(A3)
    g1 = cc.build_tilting_graph(dc.orbit(1))
    for m in (2, 3):
        gm = cc.build_tilting_graph(dc.orbit(m))
        key1 = {i: v.generator for i, v in enumerate(g1.vertices)}
        keym = {v.generator: i for i, v in enumerate(gm.vertices)}
        mapped = sorted(
            tuple(sorted((keym[key1[a]], keym[key1[b]]))) for a, b in g1.edges
        )
        assert mapped == sorted(tuple(sorted(e)) for e in gm.edges)


def test_exchange_pair_ext_is_one(build):
    dc = build(A2)
    cat1 = dc.orbit(1)
    g = cc.build_tilting_graph(cat1)
    for a, b in g.edges:
        ga, gb = set(g.vertices[a].generator), set(g.vertices[b].generator)
        (x1,) = ga - gb
        (x2,) = gb - ga
        assert cc.exchange_pair_ext(cat1, x1, x2) == 1
        assert cc.exchange_pair_ext(cat1, x2, x1) == 1


@pytest.mark.parametrize("text", [A3, D4])
def test_exchange_pair_ext_matches_complements(build, text):
    # oracle: (x1, x2) exchange iff dropping x1 from some tilting object
    # leaves the two complements x1 and x2
    cat1 = build(text).orbit(1)
    pairs = set()
    for t in cc.enumerate_cluster_tilting(cat1):
        for x1 in t:
            comps = cc.complements(cat1, [x for x in t if x != x1])
            pairs |= {(x1, x2) for x2 in comps if x2 != x1}
    for x1 in range(len(cat1.catalog)):
        for x2 in range(len(cat1.catalog)):
            if (x1, x2) in pairs:
                ext = cat1.ext1(cat1.catalog[x1], cat1.catalog[x2])
                assert cc.exchange_pair_ext(cat1, x1, x2) == ext
            else:
                with pytest.raises(NotExchangeError):
                    cc.exchange_pair_ext(cat1, x1, x2)


def test_exchange_pair_rejects_compatible_objects(build):
    dc = build(A2)
    cat1 = dc.orbit(1)
    t = cc.enumerate_cluster_tilting(cat1)[0]
    a, b = t
    with pytest.raises(NotExchangeError):
        cc.exchange_pair_ext(cat1, a, b)
    with pytest.raises(NotExchangeError):
        cc.exchange_pair_ext(cat1, a, a)


@pytest.mark.parametrize("text", [A1, A2, A3])
@pytest.mark.parametrize("m", [1, 2])
def test_direct_enumeration_agrees(build, text, m):
    dc = build(text)
    cat = dc.orbit(m)
    direct = cc.enumerate_stable_tilting_direct(cat)
    lifted = sorted(
        tuple(sorted(cc.lift(t, cat).positions))
        for t in cc.enumerate_cluster_tilting(dc.orbit(1))
    )
    assert direct == lifted


def test_orbit_count_criterion_a2(build):
    # twist-stable rigid objects are tilting exactly when they span n orbits
    dc = build(A2)
    base = dc.orbit(1)
    n = 2
    for m in (1, 2, 3):
        cat = dc.orbit(m)
        singles = list(base.catalog)
        for size in (1, 2):
            for combo in combinations(singles, size):
                if any(
                    base.ext1(x, y) or base.ext1(y, x) for x in combo for y in combo
                ):
                    continue
                stable = cat.build_twist_stable([base.position(x) for x in combo])
                ok, _ = cc.cluster_tilting_check(cat, stable.positions)
                assert ok == (stable.orbit_count == n)


# Cluster numbers (Fomin-Zelevinsky, Cluster algebras II): the vertex counts
# of the exchange graphs, which are n-regular and connected.
A5 = "vertices 5\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 5))
A7 = "vertices 7\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 7))


@pytest.mark.parametrize(
    "text,n,vertices,m",
    [(A5, 5, 132, 1), (D5, 5, 182, 1), (E6, 6, 833, 1), (A7, 7, 1430, 1), (E7, 7, 4160, 1),
     (E6, 6, 833, 2)],
    ids=["A5", "D5", "E6", "A7", "E7", "E6-m2"],
)
def test_graph_matches_cluster_numbers(build, text, n, vertices, m):
    g = cc.build_tilting_graph(build(text).orbit(m))
    assert len(g.vertices) == vertices
    assert len(g.edges) == n * vertices // 2
    assert all(g.degree(i) == n for i in range(vertices))
    assert cc.is_connected(g)


def _near_complement_edges(cat):
    index = {}
    for i, t in enumerate(cc.enumerate_cluster_tilting(cat)):
        index[cc.lift(t, cat).generator] = i
    edges = set()
    for generator in index:
        for drop in generator:
            almost = cat.build_twist_stable(g for g in generator if g != drop)
            a, b = cc.near_complements(cat, almost)
            edges.add(tuple(sorted((index[a.generator], index[b.generator]))))
    return sorted(edges)


@settings(max_examples=10, deadline=None)
@given(
    diagram=st.sampled_from([((1, 2), (2, 3), (3, 4), (4, 5)), ((1, 2), (2, 3), (3, 4), (3, 5))]),
    flips=st.lists(st.booleans(), min_size=4, max_size=4),
    relabel=st.permutations(range(1, 6)),
)
def test_mutation_edges_equal_near_complement_edges(diagram, flips, relabel):
    # a random orientation and vertex numbering of A5 or D5
    arrows = tuple(
        (relabel[b - 1], relabel[a - 1]) if flip else (relabel[a - 1], relabel[b - 1])
        for (a, b), flip in zip(diagram, flips)
    )
    cat = cc.DerivedCategory(cc.ARQuiver(cc.Quiver(5, arrows))).orbit(1)
    assert cc.build_tilting_graph(cat).edges == _near_complement_edges(cat)


def test_battery_notices_a_missing_graph_edge(monkeypatch):
    build_graph = tilting.build_tilting_graph

    def drop_first_edge(cat):
        graph = build_graph(cat)
        graph.edges.pop(0)
        return graph

    monkeypatch.setattr(tilting, "build_tilting_graph", drop_first_edge)
    report = run_verification(["A2"])
    details = {c["name"]: c["detail"] for cell in report["cells"] for c in cell["checks"]}
    assert "is not a graph edge" in details["near-complement-pairs"]
    assert not report["passed"]


def test_enumeration_is_cached_per_category(build):
    # the battery enumerates each category about nine times
    cat1 = build(A3).orbit(1)
    first = cc.enumerate_cluster_tilting(cat1)
    assert cc.enumerate_cluster_tilting(cat1) is first
    assert first == cat1.tilting_sets


def test_tilting_masks_are_cached_next_to_the_sets(build):
    cat1 = build(A3).orbit(1)
    assert cat1.tilting_masks is cat1.tilting_masks
    assert cat1.tilting_masks == [mask_of(t) for t in cat1.tilting_sets]


def test_rigid_position_sets_stop_at_n(build):
    cat1 = build(A3).orbit(1)
    sets = list(cat1.rigid_position_sets())
    assert max(map(len, sets)) == 3
    assert [s for s in sets if len(s) == 3] == cat1.tilting_sets
    assert sets == sorted(sets)
    assert all(cat1.is_rigid(list(s)) for s in sets)


def test_exchange_without_single_partner_names_quiver_and_vertex():
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(1)
    assert len(cat1.tilting_sets) == 5
    # every object compatible with every other: three partners per drop
    cat1.__dict__["compat_mask"] = [(1 << len(cat1.catalog)) - 1] * len(cat1.catalog)
    with pytest.raises(RuntimeError, match=r"A2 quiver \[\(1, 2\)\]: dropping m\d+\[\d\] from T1"):
        cat1.exchange_edges


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tilting_check_matches_catalog_scan(build, data):
    # reference: the add-characterization tested object by object
    dc = build(D4)
    cat = dc.orbit(2)
    t = data.draw(st.sampled_from(cc.enumerate_cluster_tilting(dc.orbit(1))))
    toggles = data.draw(st.lists(st.sampled_from(cat.catalog), max_size=2))
    lifted = {cat.catalog[p] for p in cc.lift(t, cat).positions}
    members = sorted(lifted.symmetric_difference(toggles))
    expected = (True, None)
    for x in cat.catalog:
        member = x in members
        if any(
            all(ext == 0 for ext in exts) != member
            for exts in ([cat.ext1(x, s) for s in members], [cat.ext1(s, x) for s in members])
        ):
            expected = (False, cat.position(x))
            break
    assert cc.cluster_tilting_check(cat, [cat.position(x) for x in members]) == expected


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
    assert base.catalog == sorted(base.catalog, key=lambda o: (o.rep.shift, o.rep.module_id))
    for m in (1, 2):
        cat = dc.orbit(m)
        for t in base.tilting_sets:
            generator = cc.lift(t, cat).generator
            assert generator == t
            reps = [base.catalog[g].rep for g in generator]
            assert reps == sorted(reps, key=lambda x: (x.shift, x.module_id))


def test_lift_without_m_times_n_summands_names_quiver_and_generator():
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(2)
    # a generator repeating one summand has too few orbits
    cat.base.__dict__["tilting_sets"] = [(0, 0)]
    pattern = r"A2 quiver \[\(1, 2\)\]: lift of \['m1\[0\]', 'm1\[0\]'\] does not have m\*n"
    with pytest.raises(RuntimeError, match=pattern):
        cc.build_tilting_graph(cat)


def test_failed_near_completion_names_quiver_and_completion():
    cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A2))).orbit(2)
    t = cat.base.tilting_sets[0]
    assert cat.compat_mask  # rigidity still holds; only the tilting check sees the tampering
    cat.__dict__["ext_zero_out"] = [0] * len(cat.catalog)
    pattern = (
        r"A2 quiver \[\(1, 2\)\]: completion \['m1\[0\]', 'm2\[0\]'\]"
        r" failed the tilting check at m1\[0\]"
    )
    with pytest.raises(RuntimeError, match=pattern):
        cc.near_complements(cat, cat.build_twist_stable(t[:1]))
