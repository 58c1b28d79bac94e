"""Small exact linear algebra.

``rank`` takes sparse rows, ``{column: value}`` dicts of ints or
Fractions.  It scales each row once to integers by the lcm of its
denominators and eliminates fraction-free, dividing every reduced row by
the gcd of its entries; it solves the intertwiner systems of the Hom
oracle.  ``rref`` and ``QuotientSpace`` take dense rows of ints or
Fractions and keep an entry an int until a division by a pivot other
than 1 or -1 makes it a Fraction; ``fractions`` (which loads ``decimal``)
is imported only at such a pivot.  The oracles' representations take
each cokernel of the knitted meshes with a ``QuotientSpace``.  The knit
itself works on dimension vectors and imports nothing from here.  Shapes
with zero rows or columns are legal everywhere.  ``KernelSpace``, the
solution space of a dense system, has no caller in the package; it stays
for the benchmark tracer.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

Row = list["int | Fraction"]
Mat = list[Row]

ZERO, ONE = 0, 1


def rref(rows: Mat, width: int) -> tuple[Mat, list[int]]:
    """Reduced row echelon form: (echelon rows, pivot column indices)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv == -1:
            m[r] = [-x for x in m[r]]
        elif piv != 1:
            from fractions import Fraction  # loads decimal: only a non-unit pivot pays for it
            m[r] = [Fraction(x, piv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[dict[int, int | Fraction]]) -> int:
    """Rank of sparse rows, each a {column: value} dict.

    Each row is reduced at its leading column against the pivot rows so
    far, until it vanishes or opens a new pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        r = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
        while r:
            g = gcd(*r.values())
            if g > 1:
                r = {c: x // g for c, x in r.items()}
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            a, b = p[lead], r[lead]
            r = {c: v for c in r.keys() | p.keys() if (v := a * r.get(c, 0) - b * p.get(c, 0))}
    return len(pivots)


class KernelSpace:
    """Solution space of A x = 0: one basis vector per free column.

    Nothing in the package calls it.  It is kept because the benchmark
    tracer (perfbench/tracing.py) wraps it as a class of the exact layer."""

    def __init__(self, rows: Mat, width: int):
        ech, pivots = rref(rows, width)
        pivot_set = set(pivots)
        self.basis: list[Row] = []
        for f in (c for c in range(width) if c not in pivot_set):
            v = [ZERO] * width
            v[f] = ONE
            for row, p in zip(ech, pivots):
                v[p] = -row[f]
            self.basis.append(v)

    @property
    def dim(self) -> int:
        return len(self.basis)


class QuotientSpace:
    """Coordinates on k^dim modulo the span of the given row vectors."""

    def __init__(self, spanning_rows: Mat, dim: int):
        self.ambient = dim
        self.ech, self.pivots = rref(spanning_rows, dim)
        pivot_set = set(self.pivots)
        # standard basis vectors at the non-pivot coordinates descend to a basis
        self.coords_idx = [c for c in range(dim) if c not in pivot_set]

    @property
    def dim(self) -> int:
        return len(self.coords_idx)

    def project(self, v: Row) -> Row:
        w = list(v)
        for row, p in zip(self.ech, self.pivots):
            f = w[p]
            if f:
                for j in range(p, self.ambient):
                    w[j] -= f * row[j]
        return [w[c] for c in self.coords_idx]
