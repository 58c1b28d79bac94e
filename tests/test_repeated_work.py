"""Fast paths that skip repeated work, against the definitions they replace.

The endomorphism blocks and exchange layers are read from the four
base-domain ``layers`` by tier gap, and ``complements`` AND-s the members'
ext-vanishing masks once.  The Ext^1 oracle ``resolution_ext_dim`` reads
the representations and the Euler form, never the AR-formula table it
checks, and ``ar`` reaches neither oracle.  The battery reads the
exchange graph in the modulus-1 category: it completes each almost
tilting object and scans subsets once per quiver, checks each lift once
per modulus in ``lift-check`` only, and reads each exchange pair's Ext^1
at the two positions where the edge's ends differ, without scanning the
tilting objects.  A lift is its generator; each check lays out the
summands it needs with ``build_twist_stable``.  The old definitions stay
here, inline, as oracles; the work-count tests pin the calls the fast
paths no longer make.  The tables tiled by tier gap are checked against
``dim`` in test_orbit.py.
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
        for a, b in _sample(label, base.exchange_edges):
            va, vb = base.tilting_sets[a], base.tilting_sets[b]
            for one, two in ((va, vb), (vb, va)):
                (x2,) = set(two) - set(one)
                for swapped in ((x2,), (x2, x2)):
                    got = cc.exchange_layer_dim(cat, one, swapped)
                    assert got == _layer_by_pairs(cat, one, swapped) == cat.modulus * len(swapped)


def test_complements_make_no_tilting_checks(monkeypatch):
    calls = Counter()
    check = tilting.cluster_tilting_check

    def counted(cat, positions):
        calls["check"] += 1
        return check(cat, positions)

    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base, cat = dc.orbit(1), dc.orbit(2)
    tiltings = cc.enumerate_cluster_tilting(base)  # the enumeration checks each set once
    monkeypatch.setattr(tilting, "cluster_tilting_check", counted)
    for t in tiltings:
        members = cat.build_twist_stable(t)
        for drop in members:
            cc.complements(cat, [x for x in members if x != drop])
    # nor do near completions: they are read in the modulus-1 category
    for t in tiltings:
        cc.near_complements(base, t[1:])
    assert calls["check"] == 0
    # the counter is live: the direct scan checks every union of n of the 16 twist-orbits
    cc.enumerate_stable_tilting_direct(cat)
    assert calls["check"] == 1820


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

    monkeypatch.setattr(cc.ARQuiver, "resolution_ext_dim", unreachable)
    monkeypatch.setattr(cc.ARQuiver, "matrix_hom_dim", unreachable)
    monkeypatch.setattr(cc.OrbitCategory, "layers", property(unreachable))
    monkeypatch.setattr(tilting, "cluster_tilting_check", unreachable)
    monkeypatch.setattr(endo, "endo_profile", unreachable)
    path = tmp_path / "d4.quiver"
    path.write_text(D4, encoding="utf-8")
    assert cli.main(["ar", "--quiver", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _failed_checks(report):
    return [
        (cell["quiver"], check["name"])
        for cell in report["cells"]
        for check in cell["checks"]
        if not check["passed"]
    ]


def test_ext_oracle_reads_no_fast_table():
    # swapping the rows of a projective and a non-projective module in the
    # cached AR-formula table leaves the representations the oracle reads
    def swap(label, ar):
        if label == "A2#0":
            table = ar.ext_table
            table[0], table[-1] = table[-1], table[0]

    failed = _failed_checks(run_verification(["A2"], (1, 2), tamper=swap))
    assert ("A2#0", "oracle-ext-equivalence") in failed
    assert ("A2#0", "oracle-hom-equivalence") not in failed
    assert {label for label, _ in failed} == {"A2#0"}


def test_both_oracles_catch_swapped_representations():
    def swap(label, ar):
        if label == "A2#0":
            reps = ar.reps
            assert reps[0].dims != reps[-1].dims
            reps[0], reps[-1] = reps[-1], reps[0]

    report = run_verification(["A2"], (1, 2), tamper=swap)
    assert _failed_checks(report) == [
        ("A2#0", "oracle-hom-equivalence"),
        ("A2#0", "oracle-ext-equivalence"),
    ]
    assert report["checks_failed"] == 2 and not report["passed"]


def test_battery_shares_completions_lifts_and_the_subset_scan(monkeypatch):
    calls, builds, checked = Counter(), Counter(), Counter()

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

    def checking(cat, positions):
        checked[cat, tuple(positions)] += 1
        return check(cat, positions)

    build = laying_out(cc.OrbitCategory.build_twist_stable)
    monkeypatch.setattr(cc.OrbitCategory, "build_twist_stable", build)
    monkeypatch.setattr(verify, "near_complements", counting("near", verify.near_complements))
    scan = verify._check_tilting_brute_force
    monkeypatch.setattr(verify, "_check_tilting_brute_force", counting("scan", scan))
    check = tilting.cluster_tilting_check
    monkeypatch.setattr(tilting, "cluster_tilting_check", checking)
    monkeypatch.setattr(verify, "cluster_tilting_check", checking)
    diagrams, m_values = ["A3", "D4"], (1, 2, 3)
    assert run_verification(diagrams, m_values)["passed"]
    quivers = {d: len(orientations(d)) for d in diagrams}
    # each almost tilting object is the rest of exactly two tilting objects, so
    # one completion per edge of the n-regular graph, n * |vertices| / 2 edges,
    # once per orientation whatever the moduli
    n = {"A3": 3, "D4": 4}
    assert calls["near"] == sum(quivers[d] * n[d] * TILTING_COUNTS[d] // 2 for d in diagrams)
    assert calls["scan"] == sum(quivers.values())
    # a lift is its generator, shared as tilting_sets; its summands are laid
    # out once each by lift-check, complement-counts and endo-blocks, and at
    # n <= 3 by orbit-count-criterion and (m <= 2) direct-enumeration; the
    # graph and the near completions lay out none.  lift-check is the one
    # modulus-m tilting check of a lift, beside those two small-rank oracles;
    # at m = 1 the lift is the generator, which the enumeration checks once
    lifted = Counter()
    for (cat, generator), count in list(builds.items()):
        if generator in cat.base.tilting_sets:
            n, m = len(generator), cat.modulus
            oracles = (n <= 3) + (n <= 3 and m <= 2)
            assert count == 3 + oracles, (cat.quiver_label, m)
            assert checked[cat, cat.build_twist_stable(generator)] == 1 + oracles + (m == 1)
            lifted[cat.ar.dynkin] += 1
    cells = {d: quivers[d] * len(m_values) for d in diagrams}
    assert lifted == {cc.DynkinClass(d[0], int(d[1:])): cells[d] * TILTING_COUNTS[d] for d in diagrams}


def test_exchange_pair_check_reads_two_dims_per_edge(monkeypatch):
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4))).orbit(1)
    edges = cat1.exchange_edges
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
