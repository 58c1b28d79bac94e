"""Fast paths that skip repeated work, against the definitions they replace.

The endomorphism blocks and exchange layers are read from the four
base-domain ``layers`` by tier gap, ``complements`` AND-s the members'
ext-vanishing masks once, and ``resolution_ext_dim`` resolves each module
once.  The battery completes each almost tilting object once, scans
subsets once per quiver, and reads each exchange pair's Ext^1 at the two
positions where the edge's ends differ, without scanning the tilting
objects.  A lift is its generator; each check lays out the summands it
needs with ``build_twist_stable``.  The old definitions stay here, inline,
as oracles; the work-count tests pin the calls the fast paths no longer
make.  The tables tiled by tier gap are checked against ``dim`` in
test_orbit.py.
"""

from collections import Counter

import pytest

import clustercat as cc
from clustercat import cli, endo, tilting, verify
from clustercat.derived import DObject
from clustercat.orbit import mask_of
from clustercat.verify import TILTING_COUNTS, orientations, run_verification

from conftest import A2, BATTERY_QUIVERS, D4, E6

QUIVERS = {**BATTERY_QUIVERS, "E6": cc.parse_quiver(E6)}


def _categories(label):
    dc = cc.DerivedCategory(cc.ARQuiver(QUIVERS[label]))
    return dc.orbit(1), [dc.orbit(m) for m in (1, 2, 3)]


def _sample(label, items):
    """Every item on the battery quivers; every seventh of E6's 833 tilting
    objects or 2499 edges, which keeps each test under a second."""
    return items[:: 7 if label == "E6" else 1]


def _complements_by_candidate(cat, positions):
    """complements as it was: one cluster_tilting_check per candidate."""
    candidates = cat.compatible_with_all(positions) & ~mask_of(positions)
    return [
        j
        for j in range(len(cat.catalog))
        if candidates >> j & 1
        and cat.compat_mask[j] >> j & 1
        and cc.cluster_tilting_check(cat, [*positions, j])[0]
    ]


def _blocks_by_pairs(cat, generator):
    """endo_profile's blocks as they were: dim summed over tier slices."""
    m, size, positions = cat.modulus, len(generator), cat.build_twist_stable(generator)
    slices = [positions[i * size : (i + 1) * size] for i in range(m)]
    return [
        [sum(cat.dim(s, t, 0) for s in slices[j] for t in slices[i]) for j in range(m)]
        for i in range(m)
    ]


def _layer_by_pairs(cat, gen1, gen2):
    """exchange_layer_dim's sum as it was: dim over every pair of summands."""
    lift1, lift2 = cat.build_twist_stable(gen1), cat.build_twist_stable(gen2)
    return sum(cat.dim(s, t, 1) for s in lift1 for t in lift2)


@pytest.mark.parametrize("label", QUIVERS)
def test_complements_match_the_per_candidate_check(label):
    base, cats = _categories(label)
    tiltings = _sample(label, cc.enumerate_cluster_tilting(base))
    for cat in cats:
        for t in tiltings:
            members = cat.build_twist_stable(t)
            for drop in members:
                rest = [x for x in members if x != drop]
                assert cc.complements(cat, rest) == _complements_by_candidate(cat, rest)
    # at m = 1 every rigid (n - 1)-set is almost tilting
    n = base.ar.quiver.vertex_count
    for chosen in base.rigid_position_sets():
        if len(chosen) == n - 1:
            assert cc.complements(base, chosen) == _complements_by_candidate(base, chosen)


@pytest.mark.parametrize("label", QUIVERS)
def test_endo_blocks_and_exchange_layers_match_pair_sums(label):
    base, cats = _categories(label)
    tiltings = _sample(label, cc.enumerate_cluster_tilting(base))
    for cat in cats:
        d = cat.derived
        for t in tiltings:
            # a repeated generator counts every copy, as the pair sums do
            for generator in (t, (*t, t[0])):
                profile = cc.endo_profile(cat, generator)
                assert profile.block_dims == _blocks_by_pairs(cat, generator), (cat.modulus, t)
            if profile.module_tier:
                ids = [base.catalog[g].module_id for g in t]
                dim_e = sum(d.hom(DObject(a, 0), d.twist(DObject(b, 0))) for a in ids for b in ids)
                assert cc.endo_profile(cat, t).dim_e == dim_e
        graph = cat.tilting_graph
        for a, b in _sample(label, graph.edges):
            va, vb = graph.vertices[a], graph.vertices[b]
            for one, two in ((va, vb), (vb, va)):
                (x2,) = set(two) - set(one)
                for swapped in ((x2,), (x2, x2)):
                    got = cc.exchange_layer_dim(cat, one, swapped)
                    assert got == _layer_by_pairs(cat, one, swapped) == cat.modulus * len(swapped)


def test_one_projective_cover_per_module_over_a_resolution_sweep(monkeypatch):
    calls = Counter()
    cover = cc.ARQuiver._projective_cover

    def counted(self, mid):
        calls[mid] += 1
        return cover(self, mid)

    monkeypatch.setattr(cc.ARQuiver, "_projective_cover", counted)
    ar = cc.ARQuiver(cc.parse_quiver(D4))
    for a in ar.modules:
        for b in ar.modules:
            assert ar.resolution_ext_dim(a.id, b.id) == ar.ext_dim(a.id, b.id)
    assert calls == {m.id: 1 for m in ar.modules}


def test_complements_make_no_tilting_checks(monkeypatch):
    calls = Counter()
    check = tilting.cluster_tilting_check

    def counted(cat, positions):
        calls["check"] += 1
        return check(cat, positions)

    monkeypatch.setattr(tilting, "cluster_tilting_check", counted)
    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base, cat = dc.orbit(1), dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(base):
        members = cat.build_twist_stable(t)
        for drop in members:
            cc.complements(cat, [x for x in members if x != drop])
    assert calls["check"] == 0
    # the counter is live: near_complements checks each of its two completions
    t = cc.enumerate_cluster_tilting(base)[0]
    cc.near_complements(cat, t[1:])
    assert calls["check"] == 2


def test_tables_endo_blocks_and_exchange_layers_make_no_dim_reads(monkeypatch):
    calls = Counter()
    dim = cc.OrbitCategory.dim

    def counted(self, i, j, e):
        calls["dim"] += 1
        return dim(self, i, j, e)

    monkeypatch.setattr(cc.OrbitCategory, "dim", counted)
    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base, cat = dc.orbit(1), dc.orbit(3)
    assert cat.hom_table and cat.ext_table
    tiltings = cc.enumerate_cluster_tilting(base)
    for t in tiltings:
        cc.endo_profile(cat, t)
    for a, b in base.exchange_edges:
        cc.exchange_layer_dim(cat, tiltings[a], tuple(set(tiltings[b]) - set(tiltings[a])))
    assert calls["dim"] == 0
    # the counter is live: a point query reads one entry
    cat.dim(0, 1, 0)
    assert calls["dim"] == 1


def test_ar_reaches_no_resolution_layer_tilting_or_endo(monkeypatch, tmp_path, capsys):
    def unreachable(*args):
        raise AssertionError("ar reached a stage it does not need")

    monkeypatch.setattr(cc.ARQuiver, "_projective_cover", unreachable)
    monkeypatch.setattr(cc.OrbitCategory, "layers", property(unreachable))
    monkeypatch.setattr(tilting, "cluster_tilting_check", unreachable)
    monkeypatch.setattr(endo, "endo_profile", unreachable)
    path = tmp_path / "d4.quiver"
    path.write_text(D4, encoding="utf-8")
    assert cli.main(["ar", "--quiver", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_ext_oracle_catches_swapped_resolutions():
    def swap(label, ar):
        if label == "A2#0":
            res = ar._resolutions
            res[0], res[-1] = res[-1], res[0]

    report = run_verification(["A2"], (1, 2), tamper=swap)
    failed = [
        (cell["quiver"], check["name"])
        for cell in report["cells"]
        for check in cell["checks"]
        if not check["passed"]
    ]
    assert failed == [("A2#0", "oracle-ext-equivalence")]
    assert report["checks_failed"] == 1 and not report["passed"]


def test_battery_shares_completions_lifts_and_the_subset_scan(monkeypatch):
    calls, builds = Counter(), Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    def laying_out(fn):
        def counted(cat, generator):
            generator = tuple(sorted(generator))
            builds[cat, generator] += 1
            return fn(cat, generator)

        return counted

    build = laying_out(cc.OrbitCategory.build_twist_stable)
    monkeypatch.setattr(cc.OrbitCategory, "build_twist_stable", build)
    monkeypatch.setattr(verify, "near_complements", counting("near", verify.near_complements))
    scan = verify._check_tilting_brute_force
    monkeypatch.setattr(verify, "_check_tilting_brute_force", counting("scan", scan))
    diagrams, m_values = ["A3", "D4"], (1, 2, 3)
    assert run_verification(diagrams, m_values)["passed"]
    cells = {d: len(orientations(d)) * len(m_values) for d in diagrams}
    # each almost tilting object is the rest of exactly two tilting objects, so
    # one completion per edge of the n-regular graph: n * |vertices| / 2 edges
    n = {"A3": 3, "D4": 4}
    assert calls["near"] == sum(cells[d] * n[d] * TILTING_COUNTS[d] // 2 for d in diagrams)
    assert calls["scan"] == sum(len(orientations(d)) for d in diagrams)
    # a lift is its generator, shared as tilting_sets; its summands are laid
    # out once each by the graph, lift-check, complement-counts and
    # endo-blocks, once per dropped summand as a near completion, and at
    # n <= 3 by orbit-count-criterion and (m <= 2) direct-enumeration
    lifted = Counter()
    for (cat, generator), count in builds.items():
        if generator in cat.base.tilting_sets:
            n, m = len(generator), cat.modulus
            assert count == 4 + n + (n <= 3) + (n <= 3 and m <= 2), (cat.quiver_label, m)
            lifted[cat.ar.dynkin] += 1
    assert lifted == {cc.DynkinClass(d[0], int(d[1:])): cells[d] * TILTING_COUNTS[d] for d in diagrams}


def test_exchange_pair_check_reads_two_dims_per_edge(monkeypatch):
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4))).orbit(1)
    edges = cat1.tilting_graph.edges
    calls = Counter()
    dim = cc.OrbitCategory.dim

    def counted(self, i, j, e):
        calls[e] += 1
        return dim(self, i, j, e)

    monkeypatch.setattr(cc.OrbitCategory, "dim", counted)
    assert verify._check_exchange_pairs(cat1) is None
    assert calls == {1: 2 * len(edges)} and len(edges) == 100


def test_layers_are_read_from_the_base_at_every_modulus():
    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base = dc.orbit(1)
    assert dc.orbit(3).layers is dc.orbit(2).layers is base.layers
