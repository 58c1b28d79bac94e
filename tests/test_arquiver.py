import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat.arquiver import rep_hom_dim
from clustercat.verify import orientations

from conftest import A1, A2, A3, A4, BATTERY_QUIVERS, D4, E6, E7, E8, module_id


def ar_of(build, text):
    return build(text).ar


def test_a2_catalog(build):
    ar = ar_of(build, A2)
    assert sorted(m.dim_vector for m in ar.modules) == [(0, 1), (1, 0), (1, 1)]
    s1 = module_id(ar, (1, 0))
    s2 = module_id(ar, (0, 1))
    assert ar.tau[s1] == s2
    assert ar.tau_inverse[s2] == s1


def test_a1_catalog(build):
    ar = ar_of(build, A1)
    assert len(ar.modules) == 1
    assert ar.arrows == []
    assert ar.tau == {}
    only = ar.modules[0]
    assert only.is_projective and only.is_injective


def test_a3_interval_catalog(build):
    # indecomposables of a linear A_3 orientation are the six 0/1 intervals
    ar = ar_of(build, A3)
    intervals = {
        tuple(1 if a <= v <= b else 0 for v in range(1, 4))
        for a in range(1, 4)
        for b in range(a, 4)
    }
    assert {m.dim_vector for m in ar.modules} == intervals
    assert len(ar.modules) == 6


@pytest.mark.parametrize("text", [A1, A2, A3, A4, D4])
def test_catalog_size_is_root_count(build, text):
    ar = ar_of(build, text)
    assert len(ar.modules) == cc.positive_root_count(ar.dynkin)
    assert len(ar.projectives) == ar.quiver.vertex_count
    assert len(ar.injectives) == ar.quiver.vertex_count


def test_hom_examples(build):
    ar = ar_of(build, A2)
    p1 = module_id(ar, (1, 1))
    s1 = module_id(ar, (1, 0))
    s2 = module_id(ar, (0, 1))
    assert ar.hom_dim(p1, s1) == 1
    assert ar.hom_dim(s1, s2) == 0
    for m in ar.modules:
        assert ar.hom_dim(m.id, m.id) == 1


def test_ext_examples(build):
    ar = ar_of(build, A2)
    s1 = module_id(ar, (1, 0))
    s2 = module_id(ar, (0, 1))
    assert ar.ext_dim(s1, s2) == 1
    for m in ar.modules:
        for p in ar.projectives.values():
            assert ar.ext_dim(p, m.id) == 0


def test_ext_self_vanishes_a3(build):
    ar = ar_of(build, A3)
    for m in ar.modules:
        assert ar.ext_dim(m.id, m.id) == 0
        assert ar.resolution_ext_table[m.id - 1][m.id - 1] == 0


def test_matrix_oracle_a2(build):
    ar = ar_of(build, A2)
    p1 = module_id(ar, (1, 1))
    p2 = module_id(ar, (0, 1))
    assert ar.matrix_hom_table[p1 - 1][p1 - 1] == 1
    assert ar.matrix_hom_table[p2 - 1][p1 - 1] == 1
    assert ar.matrix_hom_table[p1 - 1][p2 - 1] == 0


def test_resolution_oracle_a2(build):
    # 0 -> P_2 -> P_1 -> S_1 -> 0 gives a one-dimensional Ext^1(S_1, S_2)
    ar = ar_of(build, A2)
    s1 = module_id(ar, (1, 0))
    s2 = module_id(ar, (0, 1))
    assert ar.resolution_ext_table[s1 - 1][s2 - 1] == 1
    assert ar.resolution_ext_table[s1 - 1][s1 - 1] == 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4"])
def test_oracle_equivalence_all_orientations(name):
    for _, q in orientations(name):
        ar = cc.ARQuiver(q)
        assert ar.matrix_hom_table == ar.hom_table
        assert ar.resolution_ext_table == ar.ext_table
        assert min(map(min, ar.ext_table)) >= 0


def test_mesh_additivity_and_multiplicity(build):
    for text in (A2, A3, A4, D4):
        ar = ar_of(build, text)
        for nid, middles in ar.mesh_middles.items():
            xid = ar.tau_inverse[nid]
            for v in range(ar.quiver.vertex_count):
                total = sum(ar.module(e).dim_vector[v] for e in middles)
                assert (
                    ar.module(nid).dim_vector[v] + ar.module(xid).dim_vector[v] == total
                )
        assert all(mult == 1 for _, _, mult in ar.arrow_multiplicities())


def test_mesh_hom_count_identity(build):
    # hom(M, tauN) - sum hom(M, E) + hom(M, N) = [M == N] at every mesh
    ar = ar_of(build, A3)
    for nid, middles in ar.mesh_middles.items():
        xid = ar.tau_inverse[nid]
        for m in ar.modules:
            value = (
                ar.hom_dim(m.id, nid)
                - sum(ar.hom_dim(m.id, e) for e in middles)
                + ar.hom_dim(m.id, xid)
            )
            assert value == (1 if m.id == xid else 0)


def test_nakayama_pairs_a2(build):
    # projective cover and injective envelope of each simple
    ar = ar_of(build, A2)
    assert ar.module(ar.projectives[1]).dim_vector == (1, 1)
    assert ar.module(ar.injectives[1]).dim_vector == (1, 0)
    assert ar.module(ar.projectives[2]).dim_vector == (0, 1)
    assert ar.module(ar.injectives[2]).dim_vector == (1, 1)


def test_nakayama_pair_a1(build):
    ar = ar_of(build, A1)
    assert (ar.projectives[1], ar.injectives[1]) == (1, 1)
    assert 2 not in ar.projectives and 2 not in ar.injectives


def test_orientation_reversal_preserves_catalog(build):
    for text in (A3, D4):
        ar = ar_of(build, text)
        rev = cc.ARQuiver(ar.quiver.reversed())
        assert len(rev.modules) == len(ar.modules)
        assert sorted(m.dim_vector for m in rev.modules) == sorted(
            m.dim_vector for m in ar.modules
        )


def test_dim_vectors_are_roots(build):
    for text in (A2, A3, D4):
        ar = ar_of(build, text)
        for m in ar.modules:
            assert cc.euler_form(ar.quiver, m.dim_vector, m.dim_vector) == 1


def test_knitting_is_deterministic():
    q = cc.parse_quiver(D4)
    first = cc.ARQuiver(q)
    second = cc.ARQuiver(q)
    assert [m.dim_vector for m in first.modules] == [m.dim_vector for m in second.modules]
    assert first.arrows == second.arrows
    assert first.tau == second.tau


# One orientation each of E6, E7, E8.  Expected values come from the root
# systems: the positive root counts are 36/63/120, and the highest root
# has height h - 1 for the Coxeter numbers h = 12/18/30.
E_TYPES = {
    "E6": ("vertices 6\narrow 2 1\narrow 2 3\narrow 4 3\narrow 4 5\narrow 3 6\n", 36, 12),
    "E7": (
        "vertices 7\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\narrow 3 7\n",
        63,
        18,
    ),
    "E8": (
        "vertices 8\narrow 2 1\narrow 3 2\narrow 3 4\narrow 5 4\narrow 5 6\narrow 7 6\narrow 8 3\n",
        120,
        30,
    ),
}


@pytest.fixture(scope="module")
def e_type_ar():
    return {name: cc.ARQuiver(cc.parse_quiver(spec[0])) for name, spec in E_TYPES.items()}


@pytest.mark.parametrize("name", sorted(E_TYPES))
def test_e_type_catalog_is_the_positive_roots(e_type_ar, name):
    _, roots, coxeter = E_TYPES[name]
    ar = e_type_ar[name]
    n = ar.quiver.vertex_count
    assert str(ar.dynkin) == name
    assert len(ar.modules) == roots
    assert len(ar.projectives) == n and len(ar.injectives) == n
    dims = [m.dim_vector for m in ar.modules]
    assert len(set(dims)) == roots
    assert all(cc.euler_form(ar.quiver, d, d) == 1 for d in dims)
    assert max(sum(d) for d in dims) == coxeter - 1


def test_e6_mesh_hom_matches_matrix_oracle(e_type_ar):
    ar = e_type_ar["E6"]
    assert ar.matrix_hom_table == ar.hom_table


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_resolution_oracle_matches_the_ar_formula(e_type_ar, name):
    # E8's 14,400 intertwiner systems take seconds; E6 and E7 take a fraction of one
    ar = e_type_ar[name]
    assert ar.resolution_ext_table == ar.ext_table


def test_e8_modules_are_rigid_bricks(e_type_ar):
    ar = e_type_ar["E8"]
    assert all(ar.hom_dim(m.id, m.id) == 1 and ar.ext_dim(m.id, m.id) == 0 for m in ar.modules)


def test_ext_table_is_hom_minus_euler_form(build):
    # the Auslander-Reiten formula against <d, e> = dim Hom - dim Ext^1
    ars = [cc.ARQuiver(q) for q in BATTERY_QUIVERS.values()]
    for ar in ars + [build(text).ar for text in (E6, E7, E8)]:
        for a in ar.modules:
            for b in ar.modules:
                expected = ar.hom_dim(a.id, b.id) - cc.euler_form(ar.quiver, a.dim_vector, b.dim_vector)
                assert ar.ext_table[a.id - 1][b.id - 1] == ar.ext_dim(a.id, b.id) == expected


_DYNKIN = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]


@st.composite
def dynkin_quivers(draw):
    """A Dynkin diagram of rank at most 8, relabelled and randomly oriented."""
    family, n = draw(st.sampled_from(_DYNKIN))
    edges = [(i, i + 1) for i in range(1, n if family == "A" else n - 1)]
    if family != "A":
        edges.append((n - 2 if family == "D" else 3, n))
    label = draw(st.permutations(range(1, n + 1)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arrows = [(label[b - 1], label[a - 1]) if f else (label[a - 1], label[b - 1]) for (a, b), f in zip(edges, flips)]
    return cc.Quiver(n, tuple(arrows))


@settings(max_examples=40, deadline=None)
@given(dynkin_quivers(), st.data())
def test_replayed_representations_match_the_knit_and_the_hom_rows(q, data):
    # the matrix cokernels along the knitted meshes against the knit's
    # dimension vectors, and the row-form Hom table against the intertwiners
    # of sampled pairs (the whole matrix_hom_table would solve every pair)
    ar = cc.ARQuiver(q)
    assert [rep.dims for rep in ar.reps] == [m.dim_vector for m in ar.modules]
    ids = st.integers(1, len(ar.modules))
    for a, b in data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12)):
        assert ar.hom_table[a - 1][b - 1] == rep_hom_dim(q, ar.reps[a - 1], ar.reps[b - 1])
