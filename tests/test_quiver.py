from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat.quiver import (
    DisconnectedQuiverError,
    NotDynkinError,
    QuiverCycleError,
    QuiverSyntaxError,
)

from conftest import A2, A3, D4


def test_parse_smallest_nontrivial():
    q = cc.parse_quiver("vertices 2\narrow 1 2\n")
    assert q == cc.Quiver(2, ((1, 2),))


def test_parse_single_vertex():
    q = cc.parse_quiver("vertices 1\n")
    assert q.vertex_count == 1
    assert q.arrows == ()


def test_parse_comments_and_whitespace():
    text = "# header\n\n  vertices 3  # trailing\narrow 1 2\n# mid\narrow  2\t3\n"
    q = cc.parse_quiver(text)
    assert q == cc.Quiver(3, ((1, 2), (2, 3)))


def test_parse_oriented_cycle_rejected():
    with pytest.raises(QuiverCycleError, match="cycle"):
        cc.parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 3 1\n")


def test_parse_loop_rejected():
    with pytest.raises(QuiverCycleError, match="loop"):
        cc.parse_quiver("vertices 2\narrow 1 1\n")


def test_parse_duplicate_arrow_rejected():
    with pytest.raises(NotDynkinError, match="duplicate"):
        cc.parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")


def test_parse_disconnected_rejected():
    with pytest.raises(DisconnectedQuiverError, match="unreachable"):
        cc.parse_quiver("vertices 4\narrow 1 2\narrow 3 4\n")


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "missing"),
        ("vertices\n", "vertices"),
        ("vertices two\n", "bad vertex count"),
        ("vertices 0\n", "positive"),
        ("vertices 2\nedge 1 2\n", "arrow"),
        ("vertices 2\narrow 1\n", "arrow"),
        ("vertices 2\narrow 1 5\n", "out of range"),
        # numbers are ASCII digits only, though int() reads these spellings
        ("vertices +2\narrow 1 2\n", "bad vertex count"),
        ("vertices 1_0\n", "bad vertex count"),
        ("vertices \u0662\narrow 1 2\n", "bad vertex count"),
        ("vertices 2\narrow \u0661 \u0662\n", "bad vertex index"),
        ("vertices 2\narrow +1 2\n", "bad vertex index"),
        ("vertices 2\narrow -1 2\n", "bad vertex index"),
        ("arrow 1 2\n", "vertices"),
    ],
)
def test_parse_syntax_errors(text, match):
    with pytest.raises(QuiverSyntaxError, match=match):
        cc.parse_quiver(text)


def test_syntax_error_carries_line_number():
    with pytest.raises(QuiverSyntaxError) as info:
        cc.parse_quiver("vertices 2\n# fine\narrow 1 9\n")
    assert info.value.line == 3


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_only_a_line_feed_ends_a_line(sep):
    # str.splitlines breaks at each of these; inside a comment they stay in it
    assert cc.parse_quiver(f"vertices 2\narrow 1 2 # caf\u00e9{sep}done\n") == cc.Quiver(2, ((1, 2),))
    with pytest.raises(QuiverSyntaxError) as info:
        cc.parse_quiver(f"vertices 2\n# a{sep}b{sep}c\narrow 1 9\n")
    assert str(info.value) == "line 3: vertex 9 out of range 1..2"
    assert cc.parse_quiver("vertices 2\r\narrow 1 2\r\n") == cc.Quiver(2, ((1, 2),))
    # a lone CR ends no line: the first line then holds the whole file
    with pytest.raises(QuiverSyntaxError, match="line 1: expected 'vertices <n>'"):
        cc.parse_quiver("vertices 2\rarrow 1 2\r")


def test_classify_path_is_a3():
    q = cc.parse_quiver(A3)
    assert cc.classify_dynkin(q) == cc.DynkinClass("A", 3)


def test_classify_star_is_d4():
    q = cc.parse_quiver(D4)
    assert cc.classify_dynkin(q) == cc.DynkinClass("D", 4)


def test_classify_four_cycle_rejected():
    # acyclic orientation of a 4-cycle: underlying graph is not a tree
    with pytest.raises(NotDynkinError, match="not a tree"):
        cc.parse_quiver("vertices 4\narrow 1 2\narrow 1 3\narrow 2 4\narrow 3 4\n")


def _path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def _star_edges(arms):
    # center vertex 1; arms as chains hanging off it
    edges = []
    nxt = 2
    for length in arms:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


@pytest.mark.parametrize(
    "edges,n,expected",
    [
        (_path_edges(1), 1, ("A", 1)),
        (_path_edges(6), 6, ("A", 6)),
        (_star_edges([1, 1, 3]), 6, ("D", 6)),
        (_star_edges([1, 2, 2]), 6, ("E", 6)),
        (_star_edges([1, 2, 3]), 7, ("E", 7)),
        (_star_edges([1, 2, 4]), 8, ("E", 8)),
    ],
)
def test_classify_families(edges, n, expected):
    q = cc.Quiver(n, tuple(edges))
    assert cc.classify_dynkin(q) == cc.DynkinClass(*expected)


@pytest.mark.parametrize(
    "edges,n",
    [
        (_star_edges([1, 2, 5]), 9),  # E9 is not finite type
        (_star_edges([2, 2, 2]), 7),  # affine E6 shape
        (_star_edges([1, 1, 1, 1]), 5),  # degree-4 vertex
    ],
)
def test_classify_non_dynkin_trees(edges, n):
    with pytest.raises(NotDynkinError):
        cc.classify_dynkin(cc.Quiver(n, tuple(edges)))


def test_classify_orientation_independent():
    base = [(1, 2), (2, 3), (2, 4)]
    for bits in range(8):
        arrows = tuple(
            (a, b) if not bits & (1 << i) else (b, a) for i, (a, b) in enumerate(base)
        )
        q = cc.Quiver(4, arrows)
        assert cc.classify_dynkin(q) == cc.DynkinClass("D", 4)
        assert cc.classify_dynkin(q.reversed()) == cc.DynkinClass("D", 4)


def test_euler_form_defining_values():
    q = cc.parse_quiver(A2)
    assert cc.euler_form(q, (1, 0), (0, 1)) == -1
    assert cc.euler_form(q, (0, 0), (0, 0)) == 0
    assert cc.euler_form(q, (1, 1), (1, 0)) == 1


def test_euler_form_length_mismatch():
    q = cc.parse_quiver(A2)
    with pytest.raises(ValueError):
        cc.euler_form(q, (1, 0, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3).map(tuple),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3).map(tuple),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3).map(tuple))
def test_euler_form_bilinear(d, d2, e):
    q = cc.parse_quiver(A3)
    left = cc.euler_form(q, tuple(a + b for a, b in zip(d, d2)), e)
    assert left == cc.euler_form(q, d, e) + cc.euler_form(q, d2, e)
    right = cc.euler_form(q, e, tuple(a + b for a, b in zip(d, d2)))
    assert right == cc.euler_form(q, e, d) + cc.euler_form(q, e, d2)


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 1, 1),
        ("A", 2, 3),
        ("A", 4, 10),
        ("D", 4, 12),
        ("D", 5, 20),
        ("E", 6, 36),
        ("E", 7, 63),
        ("E", 8, 120),
    ],
)
def test_positive_root_counts(family, rank, count):
    assert cc.positive_root_count(cc.DynkinClass(family, rank)) == count


@pytest.mark.parametrize(
    "text",
    ["vertices 1\n", A2, A3, "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4\n", D4],
)
def test_quadratic_form_positive_and_counts_roots(text):
    # brute-force root enumeration: over |entries| <= 6 the unit vectors of
    # the form are exactly the roots, so their number is twice the positive
    # root count; the form stays >= 1 on every nonzero integer vector
    q = cc.parse_quiver(text)
    n = q.vertex_count
    unit = 0
    for d in product(range(-6, 7), repeat=n):
        if not any(d):
            continue
        value = cc.euler_form(q, d, d)
        assert value >= 1, d
        if value == 1:
            unit += 1
    assert unit == 2 * cc.positive_root_count(cc.classify_dynkin(q))


def test_cycle_message_lists_a_few_vertices_and_the_total():
    text = "vertices 20\n" + "".join(f"arrow {i} {i % 20 + 1}\n" for i in range(1, 21))
    with pytest.raises(QuiverCycleError) as info:
        cc.parse_quiver(text)
    assert str(info.value) == (
        "oriented cycle through vertices [1, 2, 3, 4, 5, 6, 7, 8, ...] (20 in all)"
    )


def test_disconnected_message_lists_a_few_vertices_and_the_total():
    # two 15-vertex paths, plus a chord 1 -> 3 so there are n - 1 arrows
    arrows = [(i, i + 1) for i in range(1, 15)] + [(i, i + 1) for i in range(16, 30)] + [(1, 3)]
    text = "vertices 30\n" + "".join(f"arrow {s} {t}\n" for s, t in arrows)
    with pytest.raises(DisconnectedQuiverError) as info:
        cc.parse_quiver(text)
    assert str(info.value) == (
        "vertices [16, 17, 18, 19, 20, 21, 22, 23, ...] (15 in all) unreachable from vertex 1"
    )


def test_too_few_arrows_rejected_before_other_checks():
    with pytest.raises(DisconnectedQuiverError, match="unreachable"):
        cc.validate_quiver(cc.Quiver(50_000_000, ()))
