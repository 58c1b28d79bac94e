from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustercat.exact import KernelSpace, QuotientSpace, rank, rref

F = Fraction

# mostly zeros and units, as in the intertwiner systems, plus large
# integers and non-integral fractions so the scaling is exercised
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
scalars = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def matrices(draw):
    """(rows, width) with zero, duplicated and dependent rows mixed in."""
    width = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * width)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(scalars), draw(scalars)
            rows.append([a * s + b * t for s, t in zip(x, y)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], width


def sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=60, deadline=None)
@given(matrices())
@example(([], 0))
@example(([], 5))
@example(([[]], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2, 3], [1, 2, 3], [2, 4, 6]], 3))
@example(([[F(1, 2), F(-1, 3)], [3, -2]], 2))
@example(([[10**6, -(10**6) + 1], [10**6 - 1, -(10**6)]], 2))
@example(([[-1, 2, 0], [0, 2, 3]], 3))  # pivot -1, then pivot 2
@example(([[0, 2], [-1, 1]], 2))  # the same after a row swap
def test_rank_matches_fraction_rref(case):
    rows, width = case
    fractions = [[F(x) for x in row] for row in rows]
    ech, pivots = rref(fractions, width)
    assert rank(sparse(rows)) == len(pivots)
    # explicit zero entries in a sparse row are ignored
    assert rank([dict(enumerate(row)) for row in rows]) == len(pivots)
    # the entries as drawn, ints kept, reduce exactly as their Fraction copies
    assert rref(rows, width) == (ech, pivots)
    assert KernelSpace(rows, width).basis == KernelSpace(fractions, width).basis
    quo, frac_quo = QuotientSpace(rows, width), QuotientSpace(fractions, width)
    units = [[int(i == c) for i in range(width)] for c in range(width)]
    for v in rows + units:
        assert quo.project(v) == frac_quo.project([F(x) for x in v])


def test_unit_pivots_keep_integer_entries():
    ech, pivots = rref([[-1, 2, 0], [1, -1, 1]], 3)
    assert (ech, pivots) == ([[1, 0, 2], [0, 1, 1]], [0, 1])
    assert KernelSpace([[-1, 2, 0], [1, -1, 1]], 3).basis == [[-2, -1, 1]]
    projected = QuotientSpace([[1, 1, 0]], 3).project([2, 5, 7])
    assert projected == [3, 7]
    assert {type(x) for row in ech for x in row} | {type(x) for x in projected} == {int}


def test_rank_of_rational_rows_is_scale_free():
    rows = [{0: F(1, 3), 2: F(-5, 7)}, {0: F(2, 3), 2: F(-10, 7)}, {1: F(1, 10**6)}]
    assert rank(rows) == 2


def test_kernel_dim_counts_the_free_columns():
    assert KernelSpace([[F(1), F(1), F(0)]], 3).dim == 2
    assert KernelSpace([[F(0), F(1)]], 2).dim == 1
    assert KernelSpace([], 2).dim == 2


def test_quotient_projection_kills_spanning_rows():
    span = [[F(1), F(2), F(0), F(0)], [F(0), F(1), F(1), F(0)], [F(1), F(3), F(1), F(0)]]
    quo = QuotientSpace(span, 4)
    assert quo.dim == 2
    for row in span:
        assert quo.project(row) == [F(0)] * quo.dim
    # projection is linear and sees what lies off the span
    v, w = [F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]
    assert quo.project(w) != [F(0)] * quo.dim
    total = [a + 2 * b + 3 * c for a, b, c in zip(v, w, span[0])]
    assert quo.project(total) == [a + 2 * b for a, b in zip(quo.project(v), quo.project(w))]
