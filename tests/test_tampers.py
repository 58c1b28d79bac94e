"""The battery's coverage matrix: one tamper per row of ``verify.CHECKS``, at least.

Each entry of ``TAMPERS`` corrupts one structure of one small diagram and
pins every row of the battery that the corruption fails.  A tamper is either
``change(ar)``, applied to the AR quiver right after its knit (the battery's
own ``tamper`` hook), or ``change(value) -> value`` on an ``OrbitCategory``
cached property, applied where the category has modulus ``m`` (``layers`` is
built at m = 1 and read at every m).  ``where`` is one orientation label or a
whole diagram; no other orientation is touched, so no other may fail.

An entry's ``failed`` is the sorted set of rows that fail, its own ``row``
among them; ``entries`` is the number of failed report entries (a base row
counts once in each of its quiver's cells).  ``details`` pins failure texts:
a key (quiver, m, row) names one cell's entry, a key (quiver, row) every
failed entry of that row in the quiver's cells.  A row that no entry names
would be a check no known fault reaches; a row whose every tamper also
fails another row is a candidate for removal.
"""

from array import array
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple

import pytest

from clustercat import verify
from clustercat.orbit import OrbitCategory, pairs


class Tamper(NamedTuple):
    row: str  # the CHECKS row this tamper is a witness for
    where: str  # an orientation label such as "A2#0", or a diagram: every orientation
    change: Callable
    failed: str  # the rows that fail, sorted and space-separated
    entries: int
    prop: str | None = None  # None: change(ar) after the knit
    m: int = 1  # the modulus of the categories whose prop is changed
    details: dict | None = None


def _swap(seq, i, j):
    seq[i], seq[j] = seq[j], seq[i]
    return seq


def _bump(table, *at):
    """table with the entry at table[at[0]][at[1]]... raised by one."""
    *path, last = at
    row = table
    for key in path:
        row = row[key]
    row[last] += 1
    return table


def _flip(masks, i, j):
    masks[i] ^= 1 << j
    return masks


def _with_dim_vector_raised(index):
    def change(ar):
        module = ar.modules[index]
        ar.modules[index] = module._replace(dim_vector=tuple(d + 1 for d in module.dim_vector))

    return change


def _drop_a_mesh_middle(ar):
    # once the tables and representations are built, only the mesh identity reads the meshes again
    ar.hom_table, ar.reps
    nid = min(ar.mesh_middles)
    ar.mesh_middles[nid] = ar.mesh_middles[nid][1:]


def _edges(change):
    """change(the list of exchange edges), laid flat again."""
    return lambda flat: array("i", chain.from_iterable(change(list(pairs(flat)))))


_T1_T2 = {0: 1, 1: 0}
_SQUARE = {(0, 5): (1, 0), (1, 6): (6, 5)}
_NOT_ONE_ORBIT = ": endpoints do not differ in exactly one orbit"
_SELF_EDGE = f"edge T1 ('m1[0]', 'm2[0]') -- T1 ('m1[0]', 'm2[0]'){_NOT_ONE_ORBIT}"
_EXCHANGE_EDGES = {
    "A2#0": f"edge T2 ('m1[0]', 'm3[0]') -- T3 ('m2[0]', 'm1[1]'){_NOT_ONE_ORBIT}",
    "A2#1": f"edge T2 ('m1[0]', 'm2[1]') -- T3 ('m2[0]', 'm3[0]'){_NOT_ONE_ORBIT}",
}

# in the order of the rows they are witnesses for.  A2#0 (1 -> 2) has the base
# catalog m1[0], m2[0], m3[0], m1[1], m2[1] (P_1, P_2, S_1, P_1[1], P_2[1]) and
# the tilting sets (0, 1), (0, 2), (1, 3), (2, 4) and (3, 4).  A layers tamper
# raises the first nonzero entry of its layer, but for the diagonal entries and
# layers[0, 1][0][1], which lies inside the projective generator (0, 1)
TAMPERS = {
    "projective-dim-vector": Tamper(
        "mesh-additivity", "A2#0", _with_dim_vector_raised(0),
        failed=(
            "ar-mesh-hom-identity cy-symmetry end-dim-one exchange-pair-ext hom-walk-oracle mesh-additivity "
            "oracle-hom-equivalence serre-derived serre-orbit"
        ),
        entries=14,
    ),
    "translate-dim-vector": Tamper(
        "mesh-additivity", "A2#0", _with_dim_vector_raised(-1),
        failed=(
            "ar-mesh-hom-identity complement-counts cy-symmetry direct-enumeration endo-blocks "
            "exchange-pair-ext graph-shape hom-walk-oracle lift-check mesh-additivity oracle-ext-equivalence "
            "oracle-hom-equivalence serre-derived serre-orbit tilting-brute-force tilting-count"
        ),
        entries=32,
    ),
    # m1 of A2#1 (2 -> 1) is the simple projective: raised, it breaks the walk's two completions too
    "reversed-dim-vector": Tamper(
        "mesh-additivity", "A2#1", _with_dim_vector_raised(0),
        failed=(
            "ar-mesh-hom-identity complement-counts cy-symmetry direct-enumeration end-dim-one endo-blocks "
            "exchange-pair-ext graph-shape hom-walk-oracle lift-check mesh-additivity oracle-ext-equivalence "
            "oracle-hom-equivalence serre-derived serre-orbit tilting-brute-force tilting-count"
        ),
        entries=35,
        details={("A2#1", None, "mesh-additivity"): "m1: knitted dimension vector (2, 1), cokernel (1, 0)"},
    ),
    "repeated-arrow": Tamper(
        "arrow-multiplicity", "A2#0", lambda ar: ar.arrows.append(ar.arrows[0]),
        failed="arrow-multiplicity",
        entries=1,
    ),
    # the Hom oracle and mesh-additivity read the representations, not the knit's tables
    "swapped-reps": Tamper(
        "oracle-hom-equivalence", "A2#0", lambda ar: _swap(ar.reps, 0, -1),
        failed="mesh-additivity oracle-ext-equivalence oracle-hom-equivalence",
        entries=3,
    ),
    # the rows of a projective and a non-projective module: the Ext^1 oracle reads no fast table
    "swapped-ext-rows": Tamper(
        "oracle-ext-equivalence", "A2#0", lambda ar: _swap(ar.ext_table, 0, -1),
        failed=(
            "complement-counts cy-symmetry direct-enumeration endo-blocks exchange-pair-ext graph-shape "
            "hom-walk-oracle lift-check oracle-ext-equivalence serre-derived serre-orbit tilting-brute-force "
            "tilting-count"
        ),
        entries=29,
    ),
    "dropped-mesh-middle": Tamper(
        "ar-mesh-hom-identity", "A2#0", _drop_a_mesh_middle,
        failed="ar-mesh-hom-identity",
        entries=1,
    ),
    "swapped-injectives": Tamper(
        "serre-derived", "A2#0", lambda ar: _swap(ar.injectives, 1, 2),
        failed=(
            "fractional-cy hom-walk-oracle serre-derived serre-orbit twist-free-orbits twist-hom-invariance "
            "twist-shift-step"
        ),
        entries=15,
    ),
    "swapped-projectives": Tamper(
        "twist-shift-step", "A2#0", lambda ar: _swap(ar.projectives, 1, 2),
        failed=(
            "complement-counts cy-symmetry direct-enumeration endo-blocks exchange-pair-ext fractional-cy "
            "graph-shape hom-walk-oracle lift-check orbit-count-criterion self-ext-vanishing serre-orbit "
            "tilting-brute-force tilting-count twist-free-orbits twist-hom-invariance twist-shift-step"
        ),
        entries=39,
    ),
    # the knit's own module count check cannot see a module lost after it
    "popped-module": Tamper(
        "twist-shift-step", "A3#0", lambda ar: ar.modules.pop(),
        failed=(
            "ar-mesh-hom-identity complement-counts cy-symmetry direct-enumeration end-dim-one endo-blocks "
            "exchange-pair-ext fractional-cy graph-shape hom-walk-oracle lift-check orbit-count-criterion "
            "rigidity-transfer self-ext-vanishing serre-derived serre-orbit tilting-brute-force tilting-count "
            "twist-free-orbits twist-hom-invariance twist-shift-step"
        ),
        entries=52,
        details={("A3#0", None, "twist-shift-step"): "twist inverse fails at m1"},
    ),
    # the tier-major layout broken four ways: the walked twist swapped at two positions,
    # a tier-1 object doubled, the catalog one object short at m = 2 and at m = 1
    "swapped-twist": Tamper(
        "twist-free-orbits", "A2#0", lambda twist: _swap(twist, 0, 1), prop="twist_permutation", m=2,
        failed="twist-free-orbits twist-hom-invariance",
        entries=2,
    ),
    "duplicated-tier-1-object": Tamper(
        "twist-free-orbits", "A2#0", lambda catalog: [*catalog[:6], *catalog[5:-1]], prop="catalog", m=2,
        failed="fractional-cy hom-walk-oracle serre-orbit twist-free-orbits twist-hom-invariance",
        entries=5,
    ),
    "short-catalog": Tamper(
        "twist-free-orbits", "A2#0", lambda catalog: catalog[:-1], prop="catalog", m=2,
        failed="complement-counts fractional-cy hom-walk-oracle serre-orbit twist-free-orbits",
        entries=5,
        details={("A2#0", 2, "hom-walk-oracle"): "check raised ValueError: rows of lengths 10 and 9 compared"},
    ),
    # the base domain one object short: P_2[1]'s orbit has no home, and every walk into it
    # stops after h + 1 steps
    "short-base-catalog": Tamper(
        "twist-free-orbits", "A2#0", lambda catalog: catalog[:-1], prop="catalog",
        failed=(
            "complement-counts direct-enumeration end-dim-one endo-blocks exchange-pair-ext fractional-cy "
            "graph-shape hom-walk-oracle lift-check orbit-count-criterion self-ext-vanishing serre-orbit "
            "tilting-brute-force tilting-count twist-free-orbits twist-hom-invariance"
        ),
        entries=40,
        details={
            ("A2#0", 1, "hom-walk-oracle"): (
                "check raised RuntimeError: A2 quiver [(1, 2)]: canonicalize: m2[1] still outside"
                " the base domain after 4 steps"
            ),
        },
    ),
    # here and in three more layers tampers, the hom-walk-oracle detail pinned at m = 2
    # names the raised entry, read at tier gap 0 or 1
    "hom-layer-up": Tamper(
        "hom-walk-oracle", "A2#0", lambda layers: _bump(layers, (0, 1), 3, 1), prop="layers",
        failed="hom-walk-oracle serre-orbit",
        entries=6,
        details={("A2#0", 2, "hom-walk-oracle"): "hom(m2[3], m2[0]): table 2, walked 1"},
    ),
    "diagonal-ext-layer": Tamper(
        "self-ext-vanishing", "A2#0", lambda layers: _bump(layers, (1, 0), 0, 0), prop="layers",
        failed=(
            "complement-counts direct-enumeration endo-blocks exchange-pair-ext graph-shape hom-walk-oracle "
            "lift-check self-ext-vanishing tilting-brute-force tilting-count"
        ),
        entries=27,
    ),
    "diagonal-hom-layer": Tamper(
        "end-dim-one", "A2#0", lambda layers: _bump(layers, (0, 0), 0, 0), prop="layers",
        failed="end-dim-one endo-blocks hom-walk-oracle serre-orbit",
        entries=12,
        details={("A2#0", 2, "hom-walk-oracle"): "hom(m1[0], m1[0]): table 2, walked 1"},
    ),
    "swapped-serre-m1": Tamper(
        "serre-orbit", "A2#0", lambda serre: _swap(serre, 0, 1), prop="serre_permutation",
        failed="fractional-cy serre-orbit",
        entries=2,
    ),
    "off-diagonal-ext-layer": Tamper(
        "cy-symmetry", "A2#0", lambda layers: _bump(layers, (1, 0), 2, 1), prop="layers",
        failed="cy-symmetry exchange-pair-ext hom-walk-oracle",
        entries=5,
        details={("A2#0", 2, "hom-walk-oracle"): "ext1(m3[0], m2[0]): table 2, walked 1"},
    ),
    "swapped-serre-m2": Tamper(
        "fractional-cy", "A2#0", lambda serre: _swap(serre, 0, 1), prop="serre_permutation", m=2,
        failed="fractional-cy serre-orbit",
        entries=2,
    ),
    # a nonzero entry: the zero masks, and so the tilting checks, do not move
    "ext-entry-m2": Tamper(
        "rigidity-transfer", "A2#0", lambda ext: _bump(ext, 0, 8), prop="ext_table", m=2,
        failed="hom-walk-oracle rigidity-transfer",
        entries=2,
    ),
    "hom-entry-m2": Tamper(
        "twist-hom-invariance", "A2#0", lambda hom: _bump(hom, 0, 1), prop="hom_table", m=2,
        failed="hom-walk-oracle serre-orbit twist-hom-invariance",
        entries=3,
    ),
    # at m >= 2 compat_mask is read only by the rigidity test of the criterion and the face search
    # of direct-enumeration
    "compat-bit-m2": Tamper(
        "orbit-count-criterion", "A2#0", lambda compat: _flip(compat, 0, 1), prop="compat_mask", m=2,
        failed="direct-enumeration orbit-count-criterion",
        entries=2,
    ),
    "walk-one-set-short": Tamper(
        "tilting-count", "A2#0", lambda sets: sets[:-1], prop="tilting_sets",
        failed="direct-enumeration exchange-pair-ext graph-shape tilting-brute-force tilting-count",
        entries=12,
    ),
    # P_1 + P_2 traded for P_1 + P_1[1], which is not rigid: the counts alone cannot tell
    "swapped-tilting-set": Tamper(
        "tilting-brute-force", "A2#0", lambda sets: sorted([(0, 3), *sets[1:]]), prop="tilting_sets",
        failed=(
            "complement-counts direct-enumeration exchange-pair-ext graph-shape lift-check "
            "tilting-brute-force"
        ),
        entries=15,
        details={
            ("A2#0", "tilting-brute-force"): (
                "rigid-set search found 5, enumeration 5; ('m1[0]', 'm2[0]') only in the search"
            ),
            ("A2#0", 1, "direct-enumeration"): (
                "direct in-category enumeration found 5 objects, lifts give 5;"
                " ('m1[0]', 'm2[0]') only in the direct enumeration"
            ),
        },
    ),
    "ext-zero-out-bit-m2": Tamper(
        "lift-check", "A2#0", lambda masks: _flip(masks, 0, 1), prop="ext_zero_out", m=2,
        failed="complement-counts direct-enumeration lift-check orbit-count-criterion",
        entries=4,
    ),
    # m3[0] (position 2) dropped from the self-compatible positions: at m >= 2 loops is read by the
    # face search of direct-enumeration only, which then misses the two lifts through m3[0]
    "loops-bit-m2": Tamper(
        "direct-enumeration", "A2#0", lambda loops: loops & ~(1 << 2), prop="loops", m=2,
        failed="direct-enumeration",
        entries=1,
        details={
            ("A2#0", 2, "direct-enumeration"): (
                "direct in-category enumeration found 3 objects, lifts give 5;"
                " ('m1[0]', 'm3[0]', 'm2[2]', 'm1[2]') only in the lifts"
            ),
        },
    ),
    "ext-zero-in-bit-m2": Tamper(
        "complement-counts", "A2#0", lambda masks: _flip(masks, 0, 1), prop="ext_zero_in", m=2,
        failed="complement-counts direct-enumeration lift-check orbit-count-criterion",
        entries=4,
    ),
    "missing-edge": Tamper(
        "graph-shape", "A2", _edges(lambda edges: edges[1:]), prop="exchange_edges",
        failed="graph-shape",
        entries=6,
        details={
            ("A2#0", "graph-shape"): "vertex degrees [1, 2] != 2",
            ("A2#1", "graph-shape"): "vertex degrees [1, 2] != 2",
        },
    ),
    # a repeated edge leaves every degree at n; only the n * V / 2 edge count sees it
    "repeated-edge": Tamper(
        "graph-shape", "A2", _edges(lambda edges: edges + edges[:1]), prop="exchange_edges",
        failed="graph-shape",
        entries=6,
        details={
            ("A2#0", "graph-shape"): "(vertices, edges) = (5, 6), expected (5, 5)",
            ("A2#1", "graph-shape"): "(vertices, edges) = (5, 6), expected (5, 5)",
        },
    ),
    # ends that differ in no orbit are as bad as ends that differ in two
    "edge-to-itself": Tamper(
        "graph-shape", "A2", _edges(lambda edges: [(0, 0), *edges[1:]]), prop="exchange_edges",
        failed="exchange-pair-ext graph-shape",
        entries=8,
        details={("A2#0", "graph-shape"): _SELF_EDGE, ("A2#1", "graph-shape"): _SELF_EDGE},
    ),
    "vertex-0-cut-off": Tamper(
        "graph-shape", "A3#0", _edges(lambda edges: [e for e in edges if 0 not in e]), prop="exchange_edges",
        failed="graph-shape",
        entries=3,
    ),
    # every degree and the edge count stay right: only the order of the list breaks
    "edges-out-of-order": Tamper(
        "graph-shape", "A3#0", _edges(lambda edges: edges[::-1]), prop="exchange_edges",
        failed="graph-shape",
        entries=3,
        details={("A3#0", "graph-shape"): "edge T12 -- T13 breaks the ascending order of the edge list"},
    ),
    # A3#0's 4-cycle T1 - T2 - T7 - T6 with (T1, T6) and (T2, T7) traded for the other two
    # edges reversed, (T2, T1) and (T7, T6): a repeat that keeps every degree at n
    "square-for-reversed-pairs": Tamper(
        "graph-shape", "A3#0", _edges(lambda edges: [_SQUARE.get(e, e) for e in edges]), prop="exchange_edges",
        failed="graph-shape",
        entries=3,
        details={("A3#0", "graph-shape"): "edge T2 -- T1 breaks the ascending order of the edge list"},
    ),
    "ext-layer-down": Tamper(
        "exchange-pair-ext", "A2#0", lambda layers: _bump(layers, (1, -1), 0, 3), prop="layers",
        failed="cy-symmetry exchange-pair-ext hom-walk-oracle",
        entries=5,
        details={
            ("A2#0", 1, "exchange-pair-ext"): "exchange pair (m1[0], m1[1]) not one-dimensional",
            ("A2#0", 2, "hom-walk-oracle"): "ext1(m2[2], m1[1]): table 2, walked 1",
        },
    ),
    # edges read against T1 and T2 swapped: some ends then differ in two orbits, and the
    # exchange rows and graph-shape name the first bad edge instead of raising
    "edge-ends-swapped": Tamper(
        "exchange-pair-ext", "A2",
        _edges(lambda edges: [(_T1_T2.get(a, a), _T1_T2.get(b, b)) for a, b in edges]), prop="exchange_edges",
        failed="exchange-pair-ext graph-shape",
        entries=8,
        details={
            (label, row): edge
            for label, edge in _EXCHANGE_EDGES.items()
            for row in ("graph-shape", "exchange-pair-ext")
        },
    ),
    "hom-layer-up-in-a-generator": Tamper(
        "endo-blocks", "A2#0", lambda layers: _bump(layers, (0, 1), 0, 1), prop="layers",
        failed="endo-blocks hom-walk-oracle serre-orbit",
        entries=9,
    ),
}


def _tampered_report(monkeypatch, tamper: Tamper) -> dict:
    """The battery over tamper's diagram, with the change made where it says."""
    diagram, targets = tamper.where.partition("#")[0], set()

    def at_knit(label, ar):
        if tamper.where in (label, diagram):
            targets.add(ar)
            if tamper.prop is None:
                tamper.change(ar)

    if tamper.prop is not None:
        build = OrbitCategory.__dict__[tamper.prop].func

        def tampered(cat):
            value = build(cat)
            return tamper.change(value) if cat.modulus == tamper.m and cat.ar in targets else value

        prop = cached_property(tampered)
        prop.__set_name__(OrbitCategory, tamper.prop)
        monkeypatch.setattr(OrbitCategory, tamper.prop, prop)
    return verify.run_verification([diagram], tamper=at_knit)


def test_every_row_has_a_tamper():
    assert sorted({tamper.row for tamper in TAMPERS.values()}) == sorted(name for name, *_ in verify.CHECKS)


@pytest.mark.parametrize("name", TAMPERS)
def test_tamper_fails_its_row_and_the_pinned_rows(monkeypatch, name):
    tamper = TAMPERS[name]
    report = _tampered_report(monkeypatch, tamper)
    failures = {
        (cell["quiver"], cell["m"], check["name"]): check["detail"]
        for cell in report["cells"]
        for check in cell["checks"]
        if not check["passed"]
    }
    rows = sorted({row for _, _, row in failures})
    assert tamper.row in rows
    assert (" ".join(rows), len(failures)) == (tamper.failed, tamper.entries)
    assert report["checks_failed"] == tamper.entries and not report["passed"]
    assert all(tamper.where in (quiver, quiver.partition("#")[0]) for quiver, _, _ in failures)
    for key, detail in (tamper.details or {}).items():
        pinned = {text for (quiver, m, row), text in failures.items() if key in ((quiver, row), (quiver, m, row))}
        assert pinned == {detail}, key
