import pytest

import clustercat as cc
from clustercat.derived import DObject
from clustercat.tilting import NotExchangeError

from conftest import A2, A3, D4, module_id


def tilting_by_dims(dc, dims):
    """Base positions of the tilting object whose members are the given modules at shift 0."""
    base = dc.orbit(1)
    return tuple(base.canonicalize(DObject(module_id(dc.ar, d), 0)) for d in dims)


def test_a2_hereditary_generator_m2(build):
    # T = H = P_1 + P_2: End is the path algebra itself, no twist layer
    dc = build(A2)
    cat = dc.orbit(2)
    profile = cc.endo_profile(cat, tilting_by_dims(dc, [(1, 1), (0, 1)]))
    assert profile.module_tier
    assert profile.dim_c == 3
    assert profile.dim_e == 0
    assert profile.total == 6
    assert profile.block_dims == [[3, 0], [0, 3]]
    report = cc.block_pattern_report(profile)
    assert report.ok is True
    assert report.deviations == []


def test_a2_hereditary_generator_m1(build):
    dc = build(A2)
    cat = dc.orbit(1)
    profile = cc.endo_profile(cat, tilting_by_dims(dc, [(1, 1), (0, 1)]))
    assert profile.block_dims == [[3]]
    assert profile.total == 3
    assert cc.block_pattern_report(profile).ok is True


def test_a2_hereditary_generator_m3(build):
    dc = build(A2)
    cat = dc.orbit(3)
    profile = cc.endo_profile(cat, tilting_by_dims(dc, [(1, 1), (0, 1)]))
    assert profile.block_dims == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
    assert cc.block_pattern_report(profile).ok is True


def test_a3_apr_tilt_m2(build):
    # T = P_1 + S_1 + P_3 over linear A_3: dim C = 5, dim E = 1, and the
    # twist layer occupies both the subdiagonal and the wrap-around block
    dc = build(A3)
    cat = dc.orbit(2)
    profile = cc.endo_profile(cat, tilting_by_dims(dc, [(1, 1, 1), (1, 0, 0), (0, 0, 1)]))
    assert profile.module_tier
    assert profile.dim_c == 5
    assert profile.dim_e == 1
    assert profile.block_dims == [[5, 1], [1, 5]]
    assert profile.total == 2 * (profile.dim_c + profile.dim_e) == 12
    report = cc.block_pattern_report(profile)
    assert report.ok is True
    assert any("wrap-around" in a for a in report.annotations)


def test_a3_apr_tilt_m1_single_block(build):
    dc = build(A3)
    cat = dc.orbit(1)
    profile = cc.endo_profile(cat, tilting_by_dims(dc, [(1, 1, 1), (1, 0, 0), (0, 0, 1)]))
    assert profile.dim_c == 5
    assert profile.dim_e == 1
    assert profile.block_dims == [[6]]
    assert cc.block_pattern_report(profile).ok is True


def test_non_module_tier_profile_skips_pattern(build):
    dc = build(A2)
    cat = dc.orbit(2)
    base = dc.orbit(1)
    shifted = [
        t
        for t in cc.enumerate_cluster_tilting(base)
        if any(base.catalog[p].shift != 0 for p in t)
    ]
    assert shifted
    profile = cc.endo_profile(cat, shifted[0])
    assert not profile.module_tier
    assert profile.dim_c is None and profile.dim_e is None
    assert profile.total == sum(sum(row) for row in profile.block_dims)
    report = cc.block_pattern_report(profile)
    assert report.ok is None
    assert any("skipped" in a for a in report.annotations)


def test_total_dimension_identity_all_module_tier(build):
    for text in (A2, A3):
        dc = build(text)
        for m in (1, 2, 3):
            cat = dc.orbit(m)
            for t in cc.enumerate_cluster_tilting(dc.orbit(1)):
                if any(dc.orbit(1).catalog[p].shift != 0 for p in t):
                    continue
                profile = cc.endo_profile(cat, t)
                assert profile.total == m * (profile.dim_c + profile.dim_e)
                assert cc.block_pattern_report(profile).ok is True
                if m >= 2:
                    for i in range(m):
                        assert profile.block_dims[i][i] == profile.dim_c


def test_single_end_dim_is_one(build):
    for text in (A2, A3):
        dc = build(text)
        for m in (2, 3):
            cat = dc.orbit(m)
            for i in range(len(cat.catalog)):
                assert cat.dim(i, i, 0) == 1


def test_single_end_dim_m1_also_one(build):
    # stronger than the field statement needs: holds at modulus 1 too
    cat = build(A3).orbit(1)
    for i in range(len(cat.catalog)):
        assert cat.dim(i, i, 0) == 1


def _edges_with_swaps(cat):
    sets = cc.enumerate_cluster_tilting(cat.base)
    for a, b in cc.build_tilting_graph(cat):
        va, vb = sets[a], sets[b]
        swapped_b = tuple(set(vb) - set(va))
        swapped_a = tuple(set(va) - set(vb))
        yield va, vb, swapped_a, swapped_b


def test_exchange_layer_dim_a2(build):
    dc = build(A2)
    for m, expected in ((1, 1), (2, 2)):
        cat = dc.orbit(m)
        for va, vb, swapped_a, swapped_b in _edges_with_swaps(cat):
            assert cc.exchange_layer_dim(cat, va, swapped_b) == expected
            # symmetric with the roles of the endpoints swapped
            assert cc.exchange_layer_dim(cat, vb, swapped_a) == expected


def test_exchange_layer_dim_a3_m2_symmetric(build):
    cat = build(A3).orbit(2)
    for va, vb, swapped_a, swapped_b in _edges_with_swaps(cat):
        assert (
            cc.exchange_layer_dim(cat, va, swapped_b)
            == cc.exchange_layer_dim(cat, vb, swapped_a)
            == 2
        )


def test_exchange_layer_dim_rejects_non_edges(build):
    dc = build(A2)
    cat = dc.orbit(2)
    tiltings = cc.enumerate_cluster_tilting(dc.orbit(1))
    t = tiltings[0]
    with pytest.raises(NotExchangeError):
        cc.exchange_layer_dim(cat, t, t[:1])
    # a two-orbit stable object is not a single exchange layer
    with pytest.raises(NotExchangeError):
        cc.exchange_layer_dim(cat, t, tiltings[1])


@pytest.mark.parametrize("text", [A3, D4])
def test_exchange_layer_dim_matches_complements(build, text):
    # oracle: x2 is swapped in iff it completes some T - x1 besides x1
    dc = build(text)
    base, cat = dc.orbit(1), dc.orbit(2)
    for t in cc.enumerate_cluster_tilting(base):
        partners = set()
        for x1 in t:
            comps = cc.complements(base, [x for x in t if x != x1])
            partners |= set(comps) - {x1}
        for x2 in range(len(base.catalog)):
            if x2 in partners:
                assert cc.exchange_layer_dim(cat, t, (x2,)) == 2
            else:
                with pytest.raises(NotExchangeError):
                    cc.exchange_layer_dim(cat, t, (x2,))
