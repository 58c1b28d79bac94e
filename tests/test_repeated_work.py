"""Fast paths that skip repeated work, against the definitions they replace.

The endomorphism blocks are read from the four base-domain ``layers`` by
tier gap, and ``complements`` AND-s the members' ext-vanishing masks once.
The Ext^1 oracle ``resolution_ext_table`` reads the representations and the
Euler form, never the AR-formula table it checks, and no command but
``verify`` reaches either oracle table or the representations.  The battery
reads the exchange graph in the modulus-1 category: it searches the rigid
sets once per quiver, completes each lift's almost tilting objects in
``complement-counts`` and checks each lift in ``lift-check`` once per
modulus, and reads each exchange pair's Ext^1 at the two positions where
the edge's ends differ, without scanning the tilting objects.  A lift is
its generator; each check lays out the summands it needs with
``build_twist_stable``.  The old definitions stay here, inline, as
oracles; the work-count tests pin the calls the fast paths no longer make.
The tables tiled by tier gap are checked against ``dim`` in test_orbit.py.

The battery's own checks pay only for their work: complement-counts
sweeps the lift's masks once, tilting-brute-force tests each n-face of
the rigid-set search once, serre-derived skips the pairs no shift gap
allows, endo-blocks takes each generator's sums once, on the base, the
exchange pairs are read off the sets once per quiver, and the matrix Hom
is solved once per ordered pair.  Each rewritten check is compared with its
old formulation, kept here, on intact and on corrupted tables.

``canonicalize`` cuts whole periods F^h = [h + 2] off the shift, walks
(module id, shift) pairs into the base domain and finds the tier by
arithmetic, where it used to walk into a map over the
whole catalog and back out; ``hom-walk-oracle`` adds whole columns of the
module tables along each walked orbit instead of asking ``derived.hom``
per pair; ``serre-orbit``, ``twist-hom-invariance`` and
``rigidity-transfer`` compare whole rows; the zero masks are read off
whole rows.  The old forms stay here as references.  Corrupted twist
step tables are where the two ``canonicalize`` differ by design: the new
one reads the layout that ``twist-free-orbits`` checks, so they are
compared on intact step tables only.

One walk of the mutations over ``compat_mask`` gives the tilting sets and
the exchange edges.  It replaced the depth-first search over every rigid
set (with a tilting check on each n-set) and the grouping of the tilting
sets by almost complete set; both stay here as references.  The edges
are every pair of tilting sets that differ in one orbit, and
``graph-shape`` passes them only ascending and in sorted order.
"""

import json
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat import arquiver, cli, derived, endo, orbit, tilting, verify
from clustercat.derived import DObject
from clustercat.orbit import mask_of, pairs
from clustercat.verify import DIAGRAMS, orientations, run_verification

from conftest import A2, A3, A7, BATTERY_QUIVERS, D4, D5, E6, E7, TREES, oriented_trees

QUIVERS = {**BATTERY_QUIVERS, "E6": cc.parse_quiver(E6)}
# tilting objects per diagram: the cluster numbers of the Dynkin classes
CLUSTER_NUMBERS = {name: cc.cluster_number(cc.DynkinClass(name[0], int(name[1:]))) for name in DIAGRAMS}


def _categories(label):
    dc = cc.DerivedCategory(cc.ARQuiver(QUIVERS[label]))
    return dc.orbit(1), [dc.orbit(m) for m in (1, 2, 3)]


def _sample(label, items):
    """Every item on the battery quivers; every seventh of E6's 833 tilting
    objects or 2499 edges, which keeps each test under a second."""
    return items[:: 7 if label == "E6" else 1]


def _complements_by_candidate(cat, positions):
    """complements as it was: one cluster_tilting_check per candidate."""
    candidates = (1 << len(cat.catalog)) - 1
    for p in positions:
        candidates &= cat.compat_mask[p]
    candidates &= ~mask_of(positions)
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
def test_endo_blocks_match_pair_sums(label):
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


def test_complements_make_no_tilting_checks(monkeypatch):
    calls = Counter()
    check = tilting.cluster_tilting_check

    def counted(cat, positions):
        calls["check"] += 1
        return check(cat, positions)

    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base, cat = dc.orbit(1), dc.orbit(2)
    tiltings = cc.enumerate_cluster_tilting(base)
    monkeypatch.setattr(tilting, "cluster_tilting_check", counted)
    for t in tiltings:
        members = cat.build_twist_stable(t)
        for drop in members:
            cc.complements(cat, [x for x in members if x != drop])
    # nor do near completions: they are read in the modulus-1 category
    for t in tiltings:
        cc.near_complements(base, t)
    assert calls["check"] == 0
    # the counter is live: direct-enumeration checks each of the 50 rigid 8-sets once
    monkeypatch.setattr(verify, "cluster_tilting_check", counted)
    assert verify._check_direct_enumeration(cat) is None
    assert calls["check"] == 50


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
    assert calls["dim"] == 0
    # the counter is live: a point query reads one entry
    cat.dim(0, 1, 0)
    assert calls["dim"] == 1


def test_ar_reaches_no_resolution_layer_tilting_or_endo(monkeypatch, tmp_path, capsys):
    def unreachable(*args):
        raise AssertionError("ar reached a stage it does not need")

    monkeypatch.setattr(cc.ARQuiver, "resolution_ext_table", property(unreachable))
    monkeypatch.setattr(cc.ARQuiver, "matrix_hom_table", property(unreachable))
    monkeypatch.setattr(cc.ARQuiver, "reps", property(unreachable))
    monkeypatch.setattr(cc.OrbitCategory, "layers", property(unreachable))
    monkeypatch.setattr(tilting, "cluster_tilting_check", unreachable)
    monkeypatch.setattr(endo, "endo_profile", unreachable)
    path = tmp_path / "d4.quiver"
    path.write_text(D4, encoding="utf-8")
    assert cli.main(["ar", "--quiver", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_commands_but_verify_build_neither_matrix_oracle(monkeypatch, tmp_path, capsys):
    # the representations and the two matrix tables are the battery's oracles only
    def unreachable(*args):
        raise AssertionError("a command built a matrix oracle")

    for name in ("reps", "matrix_hom_table", "resolution_ext_table"):
        monkeypatch.setattr(cc.ARQuiver, name, property(unreachable))
    path = tmp_path / "d4.quiver"
    path.write_text(D4, encoding="utf-8")
    commands = (["ind"], ["hom"], ["hom", "m1[0]", "m4[1]"], ["tilting"], ["graph"], ["endo", "1"])
    for command in commands:
        assert cli.main([command[0], "--quiver", str(path), "--m", "2", *command[1:]]) == 0, command
        out, err = capsys.readouterr()
        assert out and err == "", command


def _failed_checks(report):
    return [
        (cell["quiver"], check["name"])
        for cell in report["cells"]
        for check in cell["checks"]
        if not check["passed"]
    ]


def test_an_extra_derived_ext_fails_endo_blocks_alone(monkeypatch):
    # the module route to dim E is the package's only reader of DerivedCategory.hom;
    # one more dimension at shift gap 1 breaks (same, up) = (dim C, dim E) for every
    # module-tier generator, and the base row reports it in each of a quiver's cells
    hom = cc.DerivedCategory.hom

    def inflated(self, x, y):
        return hom(self, x, y) + (y.shift - x.shift == 1)

    monkeypatch.setattr(cc.DerivedCategory, "hom", inflated)
    report = run_verification(["A2", "D4"])
    failed = [
        (cell["quiver"], cell["m"], check["name"], check["detail"])
        for cell in report["cells"]
        for check in cell["checks"]
        if not check["passed"]
    ]
    labels = [label for d in ("A2", "D4") for label, _ in orientations(d)]
    assert len(labels) == 10
    assert [row[:3] for row in failed] == [(label, m, "endo-blocks") for label in labels for m in verify.M_VALUES]
    assert report["checks_failed"] == 30 and not report["passed"]
    # A2#0's first tilting set is its projective generator: Hom(T, FT) = 0 on the layers
    assert failed[0][3] == "block pattern deviations at ('m1[0]', 'm2[0]'): layers give (3, 0), Hom gives (3, 2)"


def test_failed_brick_test_in_the_replay_is_a_failed_battery(monkeypatch, capsys):
    # every replayed cokernel looks decomposable: the checks that read the
    # representations fail, and verify exits 1, not 3
    monkeypatch.setattr(arquiver, "rep_hom_dim", lambda q, a, b: 2)
    assert cli.main(["verify", "--battery", "A2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert {name for _, name in _failed_checks(report)} == {
        "mesh-additivity",
        "oracle-hom-equivalence",
        "oracle-ext-equivalence",
    }
    details = {c["detail"] for cell in report["cells"] for c in cell["checks"] if not c["passed"]}
    # the first mesh of A2#0 is at P_2 = m2, that of A2#1 at P_1 = m1
    assert details == {
        f"check raised KnittingError: A2 quiver {arrows}: reps: mesh cokernel at m{k} is decomposable"
        for arrows, k in (([(1, 2)], 2), ([(2, 1)], 1))
    }


def _patch_row(monkeypatch, name, wrap):
    """Put wrap(check) in place of the named row's check in the battery's table."""
    rows = tuple((n, scope, gate, wrap(check) if n == name else check) for n, scope, gate, check in verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", rows)


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
    _patch_row(monkeypatch, "tilting-brute-force", lambda scan: counting("scan", scan))
    check = tilting.cluster_tilting_check
    monkeypatch.setattr(tilting, "cluster_tilting_check", checking)
    monkeypatch.setattr(verify, "cluster_tilting_check", checking)
    diagrams = ["A3", "D4"]
    assert run_verification(diagrams)["passed"]
    quivers = {d: len(orientations(d)) for d in diagrams}
    assert calls["scan"] == sum(quivers.values())
    # a lift is its generator, shared as tilting_sets; its summands are laid
    # out once each by lift-check and complement-counts, and at n <= 3 by
    # orbit-count-criterion and (m <= 2) direct-enumeration; the graph lays
    # out none.  lift-check is the one modulus-m tilting check of a lift,
    # beside those two small-rank oracles, at m = 1 too: the exchange walk
    # reads compat_mask and checks no set
    lifted = Counter()
    for (cat, generator), count in list(builds.items()):
        if generator in cat.base.tilting_sets:
            n, m = len(generator), cat.modulus
            oracles = (n <= 3) + (n <= 3 and m <= 2)
            assert count == 2 + oracles, (cat.ar.quiver_label, m)
            assert checked[cat, cat.build_twist_stable(generator)] == 1 + oracles
            lifted[cat.ar.dynkin] += 1
    cells = {d: quivers[d] * len(verify.M_VALUES) for d in diagrams}
    assert lifted == {cc.DynkinClass(d[0], int(d[1:])): cells[d] * CLUSTER_NUMBERS[d] for d in diagrams}


# the check names of each cell of one D5 orientation, as the battery ran them
# before its checks were declared in one table, less the rows whose every
# tamper fails another row (test_tampers.py): no subset-scanning oracle at
# n = 5, and cy-symmetry and exchange-pair-ext at m = 1 only
_D5_CELL = [
    "twist-free-orbits", "hom-walk-oracle", "self-ext-vanishing", "end-dim-one", "serre-orbit",
    "cy-symmetry", "fractional-cy", "rigidity-transfer", "twist-hom-invariance", "tilting-count",
    "tilting-brute-force", "lift-check", "complement-counts", "graph-shape", "exchange-pair-ext",
    "endo-blocks",
]
D5_CHECK_NAMES = {
    None: [
        "mesh-additivity", "arrow-multiplicity", "oracle-hom-equivalence", "oracle-ext-equivalence",
        "ar-mesh-hom-identity", "serre-derived", "twist-shift-step",
    ],
    1: _D5_CELL,
    2: [name for name in _D5_CELL if name not in ("cy-symmetry", "exchange-pair-ext")],
    3: [name for name in _D5_CELL if name not in ("cy-symmetry", "exchange-pair-ext")],
}
BASE_CHECKS = ["tilting-count", "tilting-brute-force", "graph-shape", "endo-blocks"]


def _count_base_rows(monkeypatch):
    """Wrap each base row of the battery's table in a counter of its runs."""
    runs = Counter()

    def counting(name, check):
        def counted(base):
            assert base.modulus == 1
            runs[name] += 1
            return check(base)

        return counted

    for name, scope, _, _ in verify.CHECKS:
        if scope == "base":
            _patch_row(monkeypatch, name, lambda check, name=name: counting(name, check))
    return runs


def test_d5_cells_run_the_pinned_checks_and_each_base_check_once(monkeypatch):
    runs = _count_base_rows(monkeypatch)
    q = cc.parse_quiver(D5)
    derived = cc.DerivedCategory(cc.ARQuiver(q))
    memo, cells = {}, {}
    for m in D5_CHECK_NAMES:
        cat = derived if m is None else derived.orbit(m)
        cells[m] = verify._run_cell(cat, memo)
    assert {m: [check["name"] for check in cell] for m, cell in cells.items()} == D5_CHECK_NAMES
    assert all(check["passed"] for cell in cells.values() for check in cell)
    assert runs == dict.fromkeys(BASE_CHECKS, 1)


@pytest.mark.parametrize("text, moduli", [(E6, (1, 2)), (A7, (1, 2)), (E7, (1,))], ids=["E6", "A7", "E7"])
def test_every_row_passes_past_the_default_battery(build, text, moduli):
    # every row the gates let run at rank 6 and 7, tilting-brute-force among them: all but the
    # two n <= 3 oracles, and cy-symmetry and exchange-pair-ext only at m = 1
    derived, memo = build(text), {}
    ran = set()
    for m in (None, *moduli):
        checks = verify._run_cell(derived if m is None else derived.orbit(m), memo)
        assert [c["detail"] for c in checks if not c["passed"]] == [], m
        ran |= {c["name"] for c in checks}
    assert ran == {name for name, *_ in verify.CHECKS} - {"orbit-count-criterion", "direct-enumeration"}


def test_battery_runs_each_base_check_once_per_quiver_and_reports_it_in_every_cell(monkeypatch):
    runs = _count_base_rows(monkeypatch)
    diagrams = ["A1", "A2", "A3"]
    report = run_verification(diagrams)
    quivers = sum(len(orientations(d)) for d in diagrams)
    assert report["passed"] and runs == dict.fromkeys(BASE_CHECKS, quivers)
    reported = Counter(check["name"] for cell in report["cells"] for check in cell["checks"])
    assert all(reported[name] == quivers * len(verify.M_VALUES) for name in BASE_CHECKS)


def test_exchange_pair_check_reads_two_dims_per_edge(monkeypatch):
    cat1 = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4))).orbit(1)
    edges = list(pairs(cat1.exchange_edges))
    calls = Counter()
    dim = cc.OrbitCategory.dim

    def counted(self, i, j, e):
        calls[e] += 1
        return dim(self, i, j, e)

    monkeypatch.setattr(cc.OrbitCategory, "dim", counted)
    assert verify._check_exchange_pairs(cat1) is None
    assert calls == {1: 2 * len(edges)} and len(edges) == 100


def test_exchange_pairs_are_read_off_the_sets_once_per_quiver(monkeypatch):
    # graph-shape (base) and exchange-pair-ext (the m = 1 cell, whose category is the base)
    # share the pairs: A3's four orientations derive them four times, not eight
    derived_for = Counter()
    build = cc.OrbitCategory.exchange_pairs.func

    def counted(cat):
        derived_for[cat.ar.quiver_label] += 1
        return build(cat)

    prop = cached_property(counted)
    prop.__set_name__(cc.OrbitCategory, "exchange_pairs")
    monkeypatch.setattr(cc.OrbitCategory, "exchange_pairs", prop)
    assert run_verification(["A3"])["passed"]
    assert sorted(derived_for.values()) == [1] * 4


def _one_orbit_pairs(base):
    """The exchange graph by its definition: every pair of tilting sets that differ in one orbit."""
    masks = list(map(mask_of, base.tilting_sets))
    return [(i, k) for i, k in combinations(range(len(masks)), 2) if (masks[i] & ~masks[k]).bit_count() == 1]


@pytest.mark.parametrize("label", QUIVERS)
def test_graph_shape_passes_the_one_orbit_pairs_in_order_only(label):
    # graph-shape where near-complement-pairs was: the intact list is every one-orbit pair,
    # ascending and sorted, and a list that keeps every degree at n but flips an edge, trades
    # two neighbours or runs backwards fails on the order alone, at the first edge out of place
    base, _ = _categories(label)
    edges = list(pairs(base.exchange_edges))
    assert edges == _one_orbit_pairs(base) and verify._check_graph_shape(base) is None
    (a, b), *rest = edges
    arranged = [((b, a), [(b, a), *rest])]
    if rest:
        arranged += [((a, b), [rest[0], (a, b), *rest[1:]]), (edges[-2], edges[::-1])]
    for (i, k), listed in arranged:
        base.exchange_edges = array("i", chain.from_iterable(listed))
        detail = f"edge T{i + 1} -- T{k + 1} breaks the ascending order of the edge list"
        assert verify._check_graph_shape(base) == detail, listed[:3]


def test_layers_are_read_from_the_base_at_every_modulus():
    dc = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4)))
    base = dc.orbit(1)
    assert dc.orbit(3).layers is dc.orbit(2).layers is base.layers


# -- the battery's rewritten oracles against the formulations they replace --


def _detail(check, cat, *args):
    """A check's detail as the battery's runner reports it, raising checks included:
    the runner runs a table of one cell row, check(cat, *args)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(verify, "CHECKS", (("check", "cell", None, lambda cat: check(cat, *args)),))
        (result,) = verify._run_cell(cat)
    return result["detail"]


def _complement_counts_as_it_was(cat):
    """complement-counts as it was: one complements call per dropped summand."""
    expected = 1 if cat.modulus >= 2 else 2
    for t in cat.base.tilting_sets:
        members = cat.build_twist_stable(t)
        for drop in members:
            found = cc.complements(cat, [x for x in members if x != drop])
            if len(found) != expected:
                return (
                    f"{len(found)} complements after dropping {cat.catalog[drop].text}"
                    f" from {tuple(cat.base.texts(t))}, expected {expected}"
                )
            if drop not in found:
                return f"dropped summand {cat.catalog[drop].text} not among its complements"
    return None


def _brute_force_as_it_was(base):
    """tilting-brute-force's subset scan as it was: a mask, a rigidity test and
    an outside count per subset."""
    n, size, compat = base.ar.quiver.vertex_count, len(base.catalog), base.compat_mask
    brute = []
    for combo in combinations(range(size), n):
        mask = mask_of(combo)
        if all(mask & ~compat[p] == 0 for p in combo):
            rest = ((1 << size) - 1) & ~mask
            outside = [j for j in range(size) if rest >> j & 1 and mask & ~compat[j] == 0 and compat[j] >> j & 1]
            if not outside:
                brute.append(combo)
    return brute


def _one_pass_scan_as_it_was(base):
    """tilting-brute-force's subset scan before the face search: one AND of the members'
    compat_mask rows per subset, read for rigidity and for maximality alike."""
    n, size, compat = base.ar.quiver.vertex_count, len(base.catalog), base.compat_mask
    found = []
    for combo in combinations(range(size), n):
        mask, common = mask_of(combo), -1
        for p in combo:
            common &= compat[p]
        if mask & ~common == 0 and common & base.loops & ~mask == 0:
            found.append(combo)
    return found


def _serre_derived_as_it_was(derived):
    """serre-derived as it was: every pair of the window, both sides asked."""
    objs = [DObject(m.id, s) for m in derived.ar.modules for s in range(-2, 3)]
    for x in objs:
        sx = derived.serre(x)
        for y in objs:
            if derived.hom(x, y) != derived.hom(y, sx):
                return f"Serre duality fails at ({x.text}, {y.text})"
    return None


SWEPT = {label: q for label, q in BATTERY_QUIVERS.items() if label[:2] in ("A3", "D4")}


@pytest.mark.parametrize("label", SWEPT)
def test_complement_sweep_gives_the_complements_of_each_rest(label):
    dc = cc.DerivedCategory(cc.ARQuiver(SWEPT[label]))
    for cat in (dc.orbit(1), dc.orbit(2), dc.orbit(3)):
        for t in cat.base.tilting_sets:
            members = cat.build_twist_stable(t)
            support = mask_of(members)
            lefts = orbit.all_but_one(cat.ext_zero_in, members)
            rights = orbit.all_but_one(cat.ext_zero_out, members)
            for drop, left, right in zip(members, lefts, rights):
                rest = [x for x in members if x != drop]
                swept = tilting.completions(cat, support & ~(1 << drop), left, right)
                assert swept == cc.complements(cat, rest) != [], (cat.modulus, t, drop)


@pytest.mark.parametrize("label", [label for label in BATTERY_QUIVERS if label[:2] in ("A3", "A4", "D4")])
def test_one_pass_subset_scan_equals_the_old_formulation(monkeypatch, label):
    # the check passes exactly when its scan finds what the enumeration
    # returns; here the enumeration is the old scan
    monkeypatch.setattr(verify, "enumerate_cluster_tilting", _brute_force_as_it_was)
    base = cc.DerivedCategory(cc.ARQuiver(BATTERY_QUIVERS[label])).orbit(1)
    assert sorted(_brute_force_as_it_was(base)) == sorted(base.tilting_sets)
    assert verify._check_tilting_brute_force(base) is None


def _corrupted_a3(*entries):
    """A3's modulus-1 category with these Ext^1 entries (i, j, value) overwritten."""
    base = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A3))).orbit(1)
    for i, j, value in entries:
        base.ext_table[i][j] = value
    return base


def test_one_pass_subset_scan_equals_the_old_formulation_on_corrupted_tables(monkeypatch):
    # toggling one Ext^1 entry of A3 changes the rigid sets; and an outsider
    # compatible with all of a tilting set but not with itself keeps that set
    # maximal, in both scans
    monkeypatch.setattr(verify, "enumerate_cluster_tilting", _brute_force_as_it_was)
    intact = _corrupted_a3()
    ext, tiltings, size = intact.ext_table, intact.tilting_sets, len(intact.catalog)
    toggled = [_corrupted_a3((i, j, 1 - min(ext[i][j], 1))) for i in range(size) for j in range(size)]
    outsiders = [
        _corrupted_a3((i, i, 1), *((a, b, 0) for p in t for a, b in ((i, p), (p, i))))
        for t in tiltings[:4]
        for i in range(size)
        if i not in t
    ]
    for base in toggled + outsiders:
        assert verify._check_tilting_brute_force(base) is None
    assert {len(_brute_force_as_it_was(base)) for base in toggled} != {len(tiltings)}
    # a compat_mask bit flipped one way only: the face search grows a face through its earlier
    # members' rows alone, and its leaf test keeps the n-sets the subset scan kept.  The old
    # formulation reads an outsider's own row for maximality, so the two part on these
    monkeypatch.setattr(verify, "enumerate_cluster_tilting", _one_pass_scan_as_it_was)
    one_way = [_corrupted_a3() for _ in range(size * size)]
    for k, base in enumerate(one_way):
        base.compat_mask[k // size] ^= 1 << k % size
        assert verify._check_tilting_brute_force(base) is None, divmod(k, size)
    assert {len(_one_pass_scan_as_it_was(base)) for base in one_way} != {len(tiltings)}


@pytest.mark.parametrize("label", QUIVERS)
def test_base_endo_sums_decide_the_block_pattern_at_every_modulus(label):
    # the premise of running endo-blocks once per quiver, on the base: each
    # modulus's profile is the cyclic pattern of the base sums, and the pattern
    # holds at m >= 2 exactly when (same, up) = (dim C, dim E), which at m = 1
    # only the totals must meet
    base, cats = _categories(label)
    generators = [g for t in _sample(label, base.tilting_sets) for g in (t, (*t, t[0]), t[::-1])]
    warm = {(cat.modulus, g): cc.endo_profile(cat, g) for cat in cats for g in generators}
    for m in (1, 2, 3):
        # a fresh category carries nothing over from the shared one
        fresh = cc.DerivedCategory(cc.ARQuiver(QUIVERS[label])).orbit(m)
        for g in generators:
            profile = cc.endo_profile(fresh, g)
            same, up, dim_c, dim_e = endo.generator_sums(base, g)
            assert warm[m, g] == profile, (m, g)
            assert (profile.dim_c, profile.dim_e, profile.module_tier) == (dim_c, dim_e, dim_c is not None)
            assert profile.block_dims == endo._cyclic_blocks(m, same, up)
            report = cc.block_pattern_report(profile)
            if dim_c is None:
                assert report.ok is None, (m, g)
                continue
            assert (same, up) == (dim_c, dim_e) and report.ok, (m, g)
            # one dimension moved from E to C keeps the m = 1 total only
            moved = profile._replace(dim_c=dim_c + 1, dim_e=dim_e - 1)
            assert cc.block_pattern_report(moved).ok is (m == 1), (m, g)


def _flip(cat, p, j, both):
    """Flip bit j of ext_zero_in[p] alone, or whether Ext^1 vanishes both ways
    between X_p and X_j in both masks."""
    cat.ext_zero_in[p] ^= 1 << j
    if both and p != j:
        cat.ext_zero_in[j] ^= 1 << p
    if both:
        cat.ext_zero_out[p] ^= 1 << j
        cat.ext_zero_out[j] ^= 1 << p


def test_flipped_ext_zero_bits_fail_complement_counts_as_before():
    # every single flip of A3's masks at m = 2, and a sample of D4's, in
    # ext_zero_in alone or both ways
    details = Counter()
    for text, stride in ((A3, 1), (D4, 13)):
        cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(text))).orbit(2)
        size = len(cat.catalog)
        for k in range(0, size * size, stride):
            for both in (False, True):
                _flip(cat, *divmod(k, size), both)
                try:
                    detail = _detail(verify._check_complements, cat)
                    assert detail == _detail(_complement_counts_as_it_was, cat), (text, k, both)
                finally:
                    _flip(cat, *divmod(k, size), both)
                details[str(detail).split(" ")[0]] += 1
    # passes, lost complements and non-rigid rests (the check raises)
    assert {"None", "0", "check"} <= set(details)


@pytest.mark.parametrize("extra", [[], [0], [0, 1]], ids=["none", "one", "two"])
def test_complement_counts_reports_surplus_completions_as_before(monkeypatch, extra):
    # a candidate test that finds too many completions, in the sweep and in
    # complements alike: the first drop is reported, with the count found
    completions = tilting.completions

    def surplus(*args):
        return completions(*args) + extra

    monkeypatch.setattr(tilting, "completions", surplus)
    monkeypatch.setattr(verify, "completions", surplus)
    for m in (1, 2, 3):
        cat = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(A3))).orbit(m)
        detail = _detail(verify._check_complements, cat)
        assert detail == _detail(_complement_counts_as_it_was, cat)
        found = (2 if m == 1 else 1) + len(extra)
        assert detail is None if not extra else detail.startswith(f"{found} complements after dropping ")


def test_flipped_ext_zero_in_bit_at_m2_fails_complement_counts(monkeypatch):
    def flipping(check):
        def flipped(cat):
            if cat.modulus == 2 and cat.ar.quiver_label.endswith("[(1, 2)]"):
                cat.ext_zero_in[0] ^= 1 << 1
            return check(cat)

        return flipped

    _patch_row(monkeypatch, "complement-counts", flipping)
    report = run_verification(["A2"])
    failed = [(c["quiver"], c["m"], ch["name"], ch["detail"]) for c in report["cells"] for ch in c["checks"] if not ch["passed"]]
    detail = "0 complements after dropping m1[0] from ('m1[0]', 'm2[0]'), expected 1"
    assert failed == [("A2#0", 2, "complement-counts", detail)]


def test_dropped_tilting_set_fails_the_subset_scan():
    base = cc.DerivedCategory(cc.ARQuiver(cc.parse_quiver(D4))).orbit(1)
    assert verify._check_tilting_brute_force(base) is None
    base.tilting_sets.pop(17)
    assert verify._check_tilting_brute_force(base) == (
        "rigid-set search found 50, enumeration 49; ('m2[0]', 'm5[0]', 'm6[0]', 'm7[0]') only in the search"
    )


def test_corrupted_ext_entry_fails_the_oracle_that_reads_the_shared_matrix_homs(monkeypatch):
    solved = Counter()
    rep_hom_dim = arquiver.rep_hom_dim

    def counted(q, a, b):
        solved[q] += 1
        return rep_hom_dim(q, a, b)

    def corrupt(label, ar):
        if label == "A3#2":
            ar.ext_table[3][1] += 1

    monkeypatch.setattr(arquiver, "rep_hom_dim", counted)
    report = run_verification(["A3"], tamper=corrupt)
    details = {(c["quiver"], ch["name"]): ch["detail"] for c in report["cells"] for ch in c["checks"] if c["m"] is None}
    ar = cc.ARQuiver(BATTERY_QUIVERS["A3#2"])
    ext = ar.ext_table[3][1]
    assert details["A3#2", "oracle-ext-equivalence"] == f"ext(m4, m2): AR formula {ext + 1}, resolution oracle {ext}"
    assert details["A3#2", "oracle-hom-equivalence"] is None
    assert all(details[label, "oracle-ext-equivalence"] is None for label in ("A3#0", "A3#1", "A3#3"))
    # one intertwiner system per ordered pair and one brick test per translate:
    # the Ext^1 oracle reads the pairs the Hom oracle solved
    assert all(count == 6 * 6 + 3 for count in solved.values()) and len(solved) == 4


def test_matrix_oracles_solve_each_pair_once_and_name_the_first_mismatch(monkeypatch):
    # the matrix Hom table is solved whole, one intertwiner system per ordered
    # pair (plus one brick test per translate), even on an orientation whose
    # tables are corrupted; each quiver-level check names the row-major first
    # bad entry, whatever order the corruption was made in
    solved = Counter()
    rep_hom_dim = arquiver.rep_hom_dim

    def counted(q, a, b):
        solved[q] += 1
        return rep_hom_dim(q, a, b)

    def corrupt(label, ar):
        if label == "D4#5":
            ar.hom_table[7][2] += 1
            ar.hom_table[3][9] += 1
            ar.ext_table[5][1] = -1  # built from the corrupted Hom table

    monkeypatch.setattr(arquiver, "rep_hom_dim", counted)
    report = run_verification(["A3", "D4"], tamper=corrupt)
    ars = [cc.ARQuiver(q) for label, q in BATTERY_QUIVERS.items() if label[:2] in ("A3", "D4")]
    expected = sum(len(ar.modules) ** 2 + len(ar.modules) - ar.quiver.vertex_count for ar in ars)
    assert sum(solved.values()) == expected == 1372 and len(solved) == 12
    (cell,) = (c for c in report["cells"] if c["quiver"] == "D4#5" and c["m"] is None)
    details = {check["name"]: check["detail"] for check in cell["checks"]}
    assert details["oracle-hom-equivalence"] == "hom(m4, m10): recursion 2, matrix oracle 1"
    assert details["oracle-ext-equivalence"] == "ext(m6, m2): AR formula -1, resolution oracle 0"
    assert details["ar-mesh-hom-identity"] == "mesh Hom identity fails at M=m8, mesh of m3"


@pytest.mark.parametrize(
    "earlier, detail",
    [(False, "ext(m3, m2) negative: -1"), (True, "ext(m3, m1): AR formula 1, resolution oracle 0")],
    ids=["negative-first", "mismatch-first"],
)
def test_ext_oracle_names_the_first_entry_off_the_oracle_or_negative(earlier, detail):
    # a negative entry the oracle shares, a mismatch later in the same row and,
    # when earlier is set, a mismatch before both: the first of them is named
    ar = cc.ARQuiver(BATTERY_QUIVERS["A3#1"])
    derived = cc.DerivedCategory(ar)
    ar.resolution_ext_table[2][1] = ar.ext_table[2][1] = -1
    ar.ext_table[2][4] += 1
    ar.ext_table[2][0] += earlier
    assert verify._check_ext_oracle(derived) == detail


@pytest.mark.parametrize("label", ["A3#1", "A4#6", "D4#3"])
def test_corrupted_derived_hom_fails_serre_derived_at_the_same_first_pair(label):
    # the skipped pairs have a shift gap outside {0, 1} on both sides, where
    # derived.hom is 0 by its gap rule (test_derived.test_hom_gap_rules)
    ar = cc.ARQuiver(BATTERY_QUIVERS[label])
    derived = cc.DerivedCategory(ar)
    caught = 0
    for table in (ar.hom_table, ar.ext_table):
        for k, row in enumerate(table):
            for l in range(k % 3, len(row), 3):
                row[l] += 1
                detail = verify._check_serre_derived(derived)
                assert detail == _serre_derived_as_it_was(derived), (k, l)
                row[l] -= 1
                caught += detail is not None
    assert caught and verify._check_serre_derived(derived) is None


def test_default_battery_work_counts(monkeypatch):
    # deterministic counts, not wall times: one knit per orientation, one
    # matrix Hom per ordered pair plus one brick test per translate, and one
    # endo sum per (quiver, generator), read without a profile or a pattern report
    knits, solved, sums = Counter(), Counter(), Counter()
    rep_hom_dim, generator_sums = arquiver.rep_hom_dim, endo.generator_sums
    init = cc.ARQuiver.__init__

    def knitting(self, quiver):
        knits[quiver] += 1
        init(self, quiver)

    def solving(q, a, b):
        solved[q] += 1
        return rep_hom_dim(q, a, b)

    def summing(base, gen):
        sums[base.ar.quiver_label, gen] += 1
        return generator_sums(base, gen)

    def unreachable(*args):
        raise AssertionError("the battery built an endo profile or a pattern report")

    monkeypatch.setattr(arquiver, "rep_hom_dim", solving)
    for module in (endo, verify):
        monkeypatch.setattr(module, "generator_sums", summing)
    monkeypatch.setattr(endo, "endo_profile", unreachable)
    monkeypatch.setattr(endo, "block_pattern_report", unreachable)
    monkeypatch.setattr(cc.ARQuiver, "__init__", knitting)
    assert run_verification()["passed"]
    assert sum(knits.values()) == len(BATTERY_QUIVERS) == 23 and set(knits.values()) == {1}
    ars = [cc.ARQuiver(q) for q in BATTERY_QUIVERS.values()]
    pairs = sum(len(ar.modules) ** 2 for ar in ars)
    bricks = sum(len(ar.modules) - ar.quiver.vertex_count for ar in ars)
    assert sum(solved.values()) == pairs + bricks == 2115 + 126
    names = [label.split("#")[0] for label in BATTERY_QUIVERS]
    assert set(sums.values()) == {1} and len(sums) == sum(CLUSTER_NUMBERS[name] for name in names) == 804


# -- the twist walked on integers, Hom read by rows, whole-row checks --------


def _canonicalize_as_it_was(cat, positions, x):
    """canonicalize as it was: walk x = twist^j(y) into the first tier of a map
    over the whole catalog, then walk y forward j mod m twists and look it up."""
    d, size, j = cat.derived, len(cat.catalog) // cat.modulus, 0
    while positions.get(x, size) >= size:
        if x.shift >= 1:
            x = d.twist_inv(x)
            j += 1
        else:
            x = d.twist(x)
            j -= 1
    return positions[d.twist_power(x, j % cat.modulus)]


def _hom_walk_as_it_was(cat, positions):
    """hom-walk-oracle as it was: a derived.hom per pair along each walked orbit."""
    d, m, catalog = cat.derived, cat.modulus, cat.catalog
    low, high = min(x.shift for x in catalog), max(x.shift for x in catalog) + 1
    at_shift = {}
    for i, x in enumerate(catalog):
        at_shift.setdefault(x.shift, []).append(i)
    walked = []
    for y in catalog:
        w, column = y, [0] * len(catalog)
        while w.shift >= low:
            w = d.twist_power(w, -m)
        while w.shift <= high:
            for i in at_shift.get(w.shift, []) + at_shift.get(w.shift - 1, []):
                column[i] += d.hom(catalog[i], w)
            w = d.twist_power(w, m)
        walked.append(tuple(column))
    columns = {"hom": list(zip(*cat.hom_table)), "ext1": list(zip(*cat.ext_table))}
    for j, y in enumerate(catalog):
        shifted = walked[_canonicalize_as_it_was(cat, positions, d.shift(y, 1))]
        for name, ref in (("hom", walked[j]), ("ext1", shifted)):
            if (col := columns[name][j]) != ref:
                i = next(i for i, (a, b) in enumerate(zip(col, ref)) if a != b)
                return f"{name}({catalog[i].text}, {y.text}): table {col[i]}, walked {ref[i]}"
    return None


def _serre_orbit_as_it_was(cat):
    """serre-orbit as it was: every pair (i, j) on its own."""
    serre_idx, table = cat.serre_permutation, cat.hom_table
    for i in range(len(cat.catalog)):
        for j in range(len(cat.catalog)):
            if table[i][j] != table[j][serre_idx[i]]:
                return f"orbit Serre duality fails at ({cat.catalog[i].text}, {cat.catalog[j].text})"
    return None


def _twist_hom_invariance_as_it_was(cat):
    """twist-hom-invariance as it was: every twist power of every y."""
    twist, hom = cat.twist_permutation, cat.hom_table
    for k, g in enumerate(cat.base.catalog):
        into = [sum(col) for col in zip(*(hom[s] for s in range(k, len(hom), len(cat.base.catalog))))]
        for y, target in enumerate(cat.catalog):
            z = y
            for _ in range(cat.modulus - 1):
                z = twist[z]
                if into[z] != into[y]:
                    return f"twist Hom invariance fails at generator {g.text}, y {target.text}"
    return None


def _rigidity_transfer_as_it_was(cat):
    """rigidity-transfer as it was: a sum over the two orbits per pair."""
    base, ext = cat.base, cat.ext_table
    orbits = [range(k, len(ext), len(base.catalog)) for k in range(len(base.catalog))]
    for i, a in enumerate(base.catalog):
        for j, b in enumerate(base.catalog):
            total = sum(ext[x][y] for x in orbits[i] for y in orbits[j])
            base_total = base.ext_table[i][j]
            if total != cat.modulus * base_total:
                return f"expansion ext total {total} != m * {base_total} at ({a.text}, {b.text})"
            if (total == 0) != (base_total == 0):
                return f"rigidity transfer equivalence fails at ({a.text}, {b.text})"
    return None


def _zero_masks_as_they_were(cat):
    """ext_zero_out and ext_zero_in as they were: one mask_of per row and column."""
    ext = cat.ext_table
    out = [mask_of(j for j, e in enumerate(row) if e == 0) for row in ext]
    return out, [mask_of(j for j, e in enumerate(col) if e == 0) for col in zip(*ext)]


_POSITIONED = {}


def _positioned(label, m):
    """label's orbit category at modulus m and its map from objects to positions, kept."""
    if (label, m) not in _POSITIONED:
        cat = cc.DerivedCategory(cc.ARQuiver(QUIVERS[label])).orbit(m)
        _POSITIONED[label, m] = cat, {x: i for i, x in enumerate(cat.catalog)}
    return _POSITIONED[label, m]


WHOLE_ROW_CHECKS = {
    "hom-walk-oracle": (verify._check_hom_walk, _hom_walk_as_it_was),
    "serre-orbit": (verify._check_serre_orbit, _serre_orbit_as_it_was),
    "twist-hom-invariance": (verify._check_twist_hom_invariance, _twist_hom_invariance_as_it_was),
    "rigidity-transfer": (verify._check_rigidity_transfer, _rigidity_transfer_as_it_was),
}


def _compare_whole_row_checks(cat, positions, seen):
    for name, (check, as_it_was) in WHOLE_ROW_CHECKS.items():
        old = _detail(as_it_was, cat, positions) if name == "hom-walk-oracle" else _detail(as_it_was, cat)
        assert _detail(check, cat) == old, (name, cat.ar.quiver_label, cat.modulus)
        seen[name, old is None] += 1


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("label", QUIVERS)
def test_canonicalize_on_a_window_of_shifts_equals_the_walk_over_a_position_map(label, m):
    cat, positions = _positioned(label, m)
    for x in cat.base.catalog:
        for shift in range(-7, 8):
            y = DObject(x.module_id, x.shift + shift)
            assert cat.canonicalize(y) == _canonicalize_as_it_was(cat, positions, y), y


@settings(max_examples=60, deadline=None)
@example(label="A1#0", m=2, module=1, shift=derived.SHIFT_LIMIT)
@example(label="A1#0", m=2, module=1, shift=-derived.SHIFT_LIMIT)
@example(label="A1#0", m=3, module=1, shift=derived.SHIFT_LIMIT + 2)
@example(label="E6", m=3, module=5, shift=-(10**12) - 1)
@given(
    label=st.sampled_from(sorted(QUIVERS)),
    m=st.integers(1, 3),
    module=st.integers(1, 36),
    shift=st.one_of(
        st.integers(-400, 400),
        st.sampled_from([s * (derived.SHIFT_LIMIT + k) for s in (-1, 1) for k in (3, 4, 1000, 10**12)]),
    ),
)
def test_canonicalize_matches_the_walk_over_a_position_map(label, m, module, shift):
    # the walk takes a step per shift or two, so past |shift| 400 whole periods
    # [p(h + 2)] = F^(ph) first bring x into [0, h + 1] and move the walk's
    # tier by p*h (test_coxeter_periodicity walks F^h = [h + 2] step by step)
    cat, positions = _positioned(label, m)
    h, size = cat.derived.coxeter_number, len(cat.catalog) // m
    x = DObject((module - 1) % len(cat.ar.modules) + 1, shift)
    p = shift // (h + 2) if abs(shift) > 400 else 0
    tier, k = divmod(_canonicalize_as_it_was(cat, positions, DObject(x.module_id, shift - p * (h + 2))), size)
    assert cat.canonicalize(x) == (tier + p * h) % m * size + k


@pytest.mark.parametrize("label", QUIVERS)
def test_whole_row_checks_equal_their_per_pair_formulations(label):
    # intact, then one entry at a time raised: in a Hom or Ext^1 table of the
    # orbit category, in a layer the tables are tiled from (fresh tables), in
    # a module Hom or Ext^1 table the walk reads, and in the walked twist and
    # Serre permutations
    seen = Counter()
    for m in (1, 2, 3):
        cat, positions = _positioned(label, m)
        _compare_whole_row_checks(cat, positions, seen)
        size, ar = len(cat.catalog), cat.ar
        cells = [(i * 7) % size for i in range(1, 3)]
        for table in (cat.hom_table, cat.ext_table, ar.hom_table, ar.ext_table):
            for i in cells:
                j = (i * 5 + 3) % len(table)
                table[i % len(table)][j] += 1
                try:
                    _compare_whole_row_checks(cat, positions, seen)
                finally:
                    table[i % len(table)][j] -= 1
        for key in ((0, 0), (0, 1), (1, -1), (1, 0)):
            fresh = cc.OrbitCategory(cat.derived, m)
            layer = fresh.layers[key]
            k, l = cells[0] % len(layer), cells[1] % len(layer)
            layer[k][l] += 1
            try:
                _compare_whole_row_checks(fresh, {x: i for i, x in enumerate(fresh.catalog)}, seen)
            finally:
                layer[k][l] -= 1
        for perm in (cat.twist_permutation, cat.serre_permutation):
            perm[0], perm[-1] = perm[-1], perm[0]
            try:
                _compare_whole_row_checks(cat, positions, seen)
            finally:
                perm[0], perm[-1] = perm[-1], perm[0]
    # every rewritten check passed somewhere and was caught somewhere
    assert {name for name, passed in seen if passed} == set(WHOLE_ROW_CHECKS)
    assert {name for name, passed in seen if not passed} == set(WHOLE_ROW_CHECKS)


@pytest.mark.parametrize("label", QUIVERS)
def test_zero_masks_read_off_whole_rows_equal_the_mask_of_formulation(label):
    derived_category = _positioned(label, 1)[0].derived
    for m in (1, 2, 3):
        for value in (None, 0, 1, 2, -1):
            cat = cc.OrbitCategory(derived_category, m)
            if value is not None:  # a corrupted entry on the diagonal and one off it
                size = len(cat.ext_table)
                for i, j in ((1, 1), (0, size - 1)):
                    cat.ext_table[i][j] = value
            assert (cat.ext_zero_out, cat.ext_zero_in) == _zero_masks_as_they_were(cat), (m, value)


# -- the exchange walk against the face search and the grouping it replaced --


def _tilting_sets_by_faces(base):
    """tilting_sets as they were: the n-sets of the depth-first search over
    the rigid sets, each passing the tilting check."""
    n = base.ar.quiver.vertex_count
    found = [chosen for chosen in base.rigid_position_sets() if len(chosen) == n]
    assert all(cc.cluster_tilting_check(base, chosen)[0] for chosen in found)
    return found


def _edges_by_almost_complete_sets(sets):
    """exchange_edges as they were: the two tilting sets around each almost complete set."""
    groups = {}
    for i, t in enumerate(sets):
        for j in range(len(t)):
            groups.setdefault(t[:j] + t[j + 1 :], []).append(i)
    assert {len(found) for found in groups.values()} == {2}
    return sorted(tuple(found) for found in groups.values())


def _assert_walk_gives_the_references(q):
    base = cc.DerivedCategory(cc.ARQuiver(q)).orbit(1)
    sets = _tilting_sets_by_faces(base)
    assert base.tilting_sets == sets
    assert list(pairs(base.exchange_edges)) == _edges_by_almost_complete_sets(sets)


@pytest.mark.parametrize("label", BATTERY_QUIVERS)
def test_exchange_walk_gives_the_face_search_sets_and_the_grouped_edges(label):
    _assert_walk_gives_the_references(BATTERY_QUIVERS[label])


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_exchange_walk_gives_the_references_on_random_orientations(data):
    # a random orientation and vertex numbering of each tree
    for diagram in ("A5", "D5", "A6", "D6", "E6"):
        _assert_walk_gives_the_references(data.draw(oriented_trees(TREES[diagram])))


def test_exchange_walk_gives_the_references_on_e7():
    _assert_walk_gives_the_references(cc.parse_quiver(E7))
