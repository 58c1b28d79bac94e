"""Indecomposable modules of a Dynkin path algebra via AR-quiver knitting.

The knit works on dimension vectors alone (the knitting procedure,
Assem-Simson-Skowronski, Elements of the Representation Theory of
Associative Algebras 1, ch. IV).  It starts from the projectives, whose
dimension vectors are the path supports of the quiver, and repeatedly
completes meshes: for a non-injective module N whose outgoing irreducible
maps are all known, tau^{-1}(N) has the dimension vector of the mesh
middles' sum less that of N.  By Gabriel's theorem the dimension vectors
met are exactly the positive roots, so each must have Tits form 1.

The fast Hom and Ext^1 tables come from the translation: Hom by the mesh
recursion, a row per module, Ext^1 by the Auslander-Reiten formula.  The
battery's oracles read explicit rational matrix representations instead,
built on first use by ``reps``, which replays the knitted meshes: each
translate is the cokernel of N -> (direct sum of the mesh middles).  Hom
is the dimension of the intertwiner system, and Ext^1 follows from it and
the Euler form through the standard projective resolution of a hereditary
algebra.  Only the representations import ``exact``.

Conventions: representations are covariant (an arrow u -> v acts by a
matrix from the space at u to the space at v); the projective P_i is
supported on the vertices reachable from i, the injective I_i on the
vertices that reach i.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple

from .quiver import (
    Quiver,
    DynkinClass,
    QuiverTooLargeError,
    classify_dynkin,
    euler_form,
    positive_root_count,
    reachable,
)

if TYPE_CHECKING:
    from .exact import Mat

# catalog size cap: E8 has 120 modules, A31 496.  The Hom/Ext tables and
# the ``ar`` payload grow as its square: on one core of a 2-vCPU x86 VM,
# A31 knits in 0.02 s, builds its tables in 0.05 s and prints 4.8 MB of
# ``ar`` JSON in 0.6 s all told; the oracles' matrix replay takes 0.4 s
MAX_MODULES = 500


class KnittingError(RuntimeError):
    """Internal inconsistency while knitting; signals a bug, not bad input."""


class IndModule(NamedTuple):
    id: int
    dim_vector: tuple[int, ...]
    projective_vertex: int | None = None
    injective_vertex: int | None = None

    @property
    def is_projective(self) -> bool:
        return self.projective_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.injective_vertex is not None

    @property
    def name(self) -> str:
        return f"m{self.id}"


class Rep(NamedTuple):
    """Explicit representation: one matrix per quiver arrow, target x source."""

    dims: tuple[int, ...]
    maps: tuple[Mat, ...]


def rep_hom_dim(q: Quiver, a: Rep, b: Rep) -> int:
    """Dimension of the space of intertwiners a -> b (the matrix oracle).

    Unknowns are the per-vertex matrices f_v; each quiver arrow u -> v
    imposes b_arrow . f_u = f_v . a_arrow.  Each equation is one sparse
    row {unknown: coefficient} holding only its nonzero entries; ``rank``
    scales the rows to integers and eliminates without fractions.
    """
    from .exact import rank

    n = q.vertex_count
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += b.dims[v] * a.dims[v]
    if total == 0:
        return 0

    def unknown(v: int, i: int, j: int) -> int:
        # entry (i, j) of f_v, which is b.dims[v] x a.dims[v]
        return offsets[v] + i * a.dims[v] + j

    rows = []
    for idx, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        bm, am = b.maps[idx], a.maps[idx]
        for i in range(b.dims[t]):
            for j in range(a.dims[s]):
                # s != t, so the two sums touch disjoint unknowns
                row = {unknown(s, k, j): bm[i][k] for k in range(b.dims[s]) if bm[i][k]}
                row.update((unknown(t, i, k), -am[k][j]) for k in range(a.dims[t]) if am[k][j])
                if row:
                    rows.append(row)
    return total - rank(rows)


def rep_direct_sum(q: Quiver, reps: list[Rep]) -> tuple[Rep, list[list[int]]]:
    """Direct sum representation plus per-vertex block offsets."""
    n = q.vertex_count
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(n))
    offsets = []
    running = [0] * n
    for r in reps:
        offsets.append(list(running))
        for v in range(n):
            running[v] += r.dims[v]
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        m = [[0] * dims[s] for _ in range(dims[t])]
        for r, off in zip(reps, offsets):
            block = r.maps[idx]
            for i in range(r.dims[t]):
                for j in range(r.dims[s]):
                    m[off[t] + i][off[s] + j] = block[i][j]
        maps.append(m)
    return Rep(dims, tuple(maps)), offsets


def _path_supports(q: Quiver) -> list[tuple[int, ...]]:
    """Per vertex v, the 0/1 vector of the vertices that a path from v reaches."""
    succ = {v: [] for v in range(1, q.vertex_count + 1)}
    for s, t in q.arrows:
        succ[s].append(t)
    return [tuple(int(u in reach) for u in succ) for reach in (reachable(v, succ) for v in succ)]


def _ones(rows: int, cols: int) -> Mat:
    # every map between path-support spaces is 1 on the unique-path bases
    return [[1] * cols for _ in range(rows)]


class ARQuiver:
    """Complete catalog of indecomposables with translation structure."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.dynkin: DynkinClass = classify_dynkin(quiver)
        if positive_root_count(self.dynkin) > MAX_MODULES:
            raise QuiverTooLargeError(
                f"{self.dynkin} has {positive_root_count(self.dynkin)} indecomposables;"
                f" at most {MAX_MODULES} are supported"
            )
        self.modules: list[IndModule] = []
        self.arrows: list[tuple[int, int]] = []
        self.tau: dict[int, int] = {}
        self.tau_inverse: dict[int, int] = {}
        self.mesh_middles: dict[int, tuple[int, ...]] = {}
        self._knit()

    # -- access -------------------------------------------------------

    def module(self, mid: int) -> IndModule:
        return self.modules[mid - 1]

    @cached_property
    def projectives(self) -> dict[int, int]:
        return {m.projective_vertex: m.id for m in self.modules if m.is_projective}

    @cached_property
    def injectives(self) -> dict[int, int]:
        return {m.injective_vertex: m.id for m in self.modules if m.is_injective}

    def arrow_multiplicities(self) -> list[tuple[int, int, int]]:
        counts: dict[tuple[int, int], int] = {}
        for a in self.arrows:
            counts[a] = counts.get(a, 0) + 1
        return [(s, t, c) for (s, t), c in sorted(counts.items())]

    # -- dimensions ---------------------------------------------------

    @cached_property
    def hom_table(self) -> list[list[int]]:
        """hom_table[a-1][b-1] = dim Hom(M_a, M_b), by mesh recursion on rows.

        Base: dim Hom(P_i, N) is the i-th dimension of N.  Step, along
        the mesh 0 -> L -> E -> M -> 0:
        row(M) = sum_E row(E) - row(L) + e_L, as dim Hom(M, N) =
        sum_E dim Hom(E, N) - dim Hom(L, N) + [L == N].
        """
        rows: list[list[int]] = []
        for m in self.modules:
            if m.is_projective:
                v = m.projective_vertex - 1
                rows.append([x.dim_vector[v] for x in self.modules])
                continue
            l = self.tau[m.id]
            row = [-h for h in rows[l - 1]]
            for e in self.mesh_middles[l]:
                row = list(map(add, row, rows[e - 1]))
            row[l - 1] += 1
            rows.append(row)
        return rows

    def hom_dim(self, a: int, b: int) -> int:
        return self.hom_table[a - 1][b - 1]

    @cached_property
    def ext_table(self) -> list[list[int]]:
        """ext_table[a-1][b-1] = dim Ext^1(M_a, M_b), by the Auslander-Reiten
        formula Ext^1(M, N) = D Hom(N, tau M) of a hereditary algebra
        (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras,
        ch. IV): a column of the Hom table, and 0 for projective M."""
        hom, size = self.hom_table, len(self.modules)
        return [
            [row[self.tau[a] - 1] for row in hom] if a in self.tau else [0] * size
            for a in range(1, size + 1)
        ]

    def ext_dim(self, a: int, b: int) -> int:
        return self.ext_table[a - 1][b - 1]

    # -- independent oracles -------------------------------------------

    @cached_property
    def matrix_hom_table(self) -> list[list[int]]:
        """matrix_hom_table[a-1][b-1] = dim Hom(M_a, M_b) from the explicit intertwiner system."""
        q, reps = self.quiver, self.reps
        return [[rep_hom_dim(q, a, b) for b in reps] for a in reps]

    @cached_property
    def resolution_ext_table(self) -> list[list[int]]:
        """Ext^1 dimensions from the standard projective resolution.

        Over a hereditary algebra every module M has the resolution
        0 -> (+)_{arrows i->j} P_j^{m_i} -> (+)_v P_v^{m_v} -> M -> 0, and by
        Yoneda's lemma Hom(P_v, N) = N_v, so applying Hom(-, N) gives
        dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> with the Euler form
        (Crawley-Boevey, Lectures on representations of quivers).  It reads
        the explicit representations only, none of the tables or the
        translation that the AR formula of ``ext_table`` is built from.
        """
        q, reps = self.quiver, self.reps
        euler = [[euler_form(q, a.dims, b.dims) for b in reps] for a in reps]
        return [list(map(sub, hom, row)) for hom, row in zip(self.matrix_hom_table, euler)]

    @cached_property
    def reps(self) -> list[Rep]:
        """Explicit representations, replayed along the knitted meshes.

        P_i is 1 on the path support of i.  Every other module is the
        cokernel of N -> (sum of the mesh middles) built from the
        irreducible maps so far; its dimension must equal the knitted
        dimension vector at every vertex, and it must be a brick.
        """
        from .exact import QuotientSpace

        q, n = self.quiver, self.quiver.vertex_count
        reps = [Rep(d, tuple(_ones(d[t - 1], d[s - 1]) for s, t in q.arrows)) for d in _path_supports(q)]
        # the irreducible map of each AR arrow, one matrix per vertex
        irr = {
            (src, tgt): [_ones(reps[tgt - 1].dims[v], reps[src - 1].dims[v]) for v in range(n)]
            for src, tgt in self.arrows[: len(q.arrows)]
        }
        for new in self.modules[n:]:
            nid, knitted = self.tau[new.id], new.dim_vector
            middles = self.mesh_middles[nid]
            source, parts = reps[nid - 1], [reps[e - 1] for e in middles]
            big, offsets = rep_direct_sum(q, parts)
            quotients = []
            for v in range(n):
                # one column of N -> (sum of middles) per basis vector of N_v
                columns = [[0] * big.dims[v] for _ in range(source.dims[v])]
                for e, off, rep in zip(middles, offsets, parts):
                    comp = irr[nid, e][v]
                    for i in range(rep.dims[v]):
                        for j in range(source.dims[v]):
                            columns[j][off[v] + i] = comp[i][j]
                quo = QuotientSpace(columns, big.dims[v])
                if quo.dim != knitted[v]:
                    text = f"mesh cokernel at m{nid} has dimension {quo.dim} at vertex {v + 1}, knitted {knitted[v]}"
                    raise self._error("reps", text)
                quotients.append(quo)

            maps = []
            for idx, (s, t) in enumerate(q.arrows):
                cols = [[row[c] for row in big.maps[idx]] for c in quotients[s - 1].coords_idx]
                maps.append(_matrix([quotients[t - 1].project(col) for col in cols], quotients[t - 1].dim))
            reps.append(Rep(tuple(quo.dim for quo in quotients), tuple(maps)))
            for e, off, rep in zip(middles, offsets, parts):
                irr[e, new.id] = [
                    _matrix([quo.project(_unit(quo.ambient, off[v] + i)) for i in range(rep.dims[v])], quo.dim)
                    for v, quo in enumerate(quotients)
                ]
            if rep_hom_dim(q, reps[-1], reps[-1]) != 1:
                raise self._error("reps", f"mesh cokernel at m{nid} is decomposable")
        return reps

    # -- knitting -------------------------------------------------------

    def _knit(self) -> None:
        q, n = self.quiver, self.quiver.vertex_count
        inj_dv = {dv: v for v, dv in enumerate(_path_supports(q.reversed()), start=1)}
        out, into = defaultdict(list), defaultdict(list)

        def add_arrow(src: int, tgt: int) -> None:
            self.arrows.append((src, tgt))
            out[src].append(tgt)
            into[tgt].append(src)

        for i, dv in enumerate(_path_supports(q), start=1):
            self.modules.append(IndModule(i, dv, projective_vertex=i, injective_vertex=inj_dv.get(dv)))
        for s, t in q.arrows:
            # an arrow s -> t of the quiver gives an irreducible map P_t -> P_s
            add_arrow(t, s)

        def ready(mid: int) -> bool:
            # mid's outgoing arrows are all known once each module mapping to it has its mesh
            return all(src in self.tau_inverse or self.modules[src - 1].is_injective for src in into[mid])

        expected = positive_root_count(self.dynkin)
        pending = {m.id for m in self.modules if not m.is_injective}
        while pending:
            nid = next((mid for mid in sorted(pending) if ready(mid)), None)
            if nid is None:
                raise self._error("knit", f"no mesh ready; {len(pending)} pending from m{min(pending)}")
            pending.discard(nid)
            middles = tuple(sorted(out[nid]))
            old = self.modules[nid - 1].dim_vector
            new_dv = tuple(sum(self.modules[e - 1].dim_vector[v] for e in middles) - old[v] for v in range(n))
            if min(new_dv) < 0 or euler_form(q, new_dv, new_dv) != 1:
                raise self._error("knit", f"mesh at m{nid} produced dimension vector {new_dv}, not a positive root")
            new_id = len(self.modules) + 1
            self.modules.append(IndModule(new_id, new_dv, injective_vertex=inj_dv.get(new_dv)))
            self.tau_inverse[nid] = new_id
            self.tau[new_id] = nid
            self.mesh_middles[nid] = middles
            for e in middles:
                add_arrow(e, new_id)
            if new_dv not in inj_dv:
                pending.add(new_id)
            if len(self.modules) > expected:
                raise self._error("knit", f"mesh at m{nid} exceeded the positive root count {expected}")

        if len(self.modules) != expected:
            raise self._error("knit", f"knitted {len(self.modules)} modules, expected {expected}")
        if len(self.injectives) != n or len(self.projectives) != n:
            raise self._error("knit", "projective/injective count mismatch")
        if len({m.dim_vector for m in self.modules}) != len(self.modules):
            raise self._error("knit", "duplicate dimension vectors in catalog")

    @property
    def quiver_label(self) -> str:
        """The Dynkin type and arrows, naming the quiver in failure messages."""
        return f"{self.dynkin} quiver {list(self.quiver.arrows)}"

    def _error(self, stage: str, text: str) -> KnittingError:
        return KnittingError(f"{self.quiver_label}: {stage}: {text}")


def _unit(size: int, at: int) -> list[int]:
    vec = [0] * size
    vec[at] = 1
    return vec


def _matrix(columns: list[list], height: int) -> Mat:
    """The matrix with these columns, each of this height."""
    return [[col[i] for col in columns] for i in range(height)]
