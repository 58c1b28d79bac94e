"""Indecomposable modules of a Dynkin path algebra via AR-quiver knitting.

Knitting starts from the projectives and repeatedly completes meshes:
for a non-injective module N whose outgoing irreducible maps are all
known, the cokernel of the combined map N -> (direct sum of the mesh
middles) is the translate of N.  Every module is built together with an
explicit rational matrix representation.

The fast Hom and Ext^1 tables come from the translation: Hom by the mesh
recursion, Ext^1 by the Auslander-Reiten formula.  The battery's oracles
read the representations instead: Hom is the dimension of the
intertwiner system, and Ext^1 follows from it and the Euler form through
the standard projective resolution of a hereditary algebra.

Conventions: representations are covariant (an arrow u -> v acts by a
matrix from the space at u to the space at v); the projective P_i is
supported on the vertices reachable from i, the injective I_i on the
vertices that reach i.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .exact import Mat, ONE, ZERO, QuotientSpace, rank
from .quiver import (
    Quiver,
    DynkinClass,
    QuiverTooLargeError,
    classify_dynkin,
    euler_form,
    positive_root_count,
    reachable,
)

# catalog size cap: E8 has 120 modules, A31 496; the Hom/Ext tables grow as
# its square and knitting faster still (A40 takes seconds, A80 minutes)
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
        m = [[ZERO] * dims[s] for _ in range(dims[t])]
        for r, off in zip(reps, offsets):
            block = r.maps[idx]
            for i in range(r.dims[t]):
                for j in range(r.dims[s]):
                    m[off[t] + i][off[s] + j] = block[i][j]
        maps.append(m)
    return Rep(dims, tuple(maps)), offsets


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
        self.reps: list[Rep] = []
        self.arrows: list[tuple[int, int]] = []
        self.tau: dict[int, int] = {}
        self.tau_inverse: dict[int, int] = {}
        self.mesh_middles: dict[int, tuple[int, ...]] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._irr_maps: dict[tuple[int, int], list[Mat]] = {}
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
        """hom_table[a-1][b-1] = dim Hom(M_a, M_b), by mesh recursion.

        Base: dim Hom(P_i, N) is the i-th dimension of N.  Step, along
        the mesh 0 -> L -> E -> M -> 0:
        dim Hom(M, N) = sum_E dim Hom(E, N) - dim Hom(L, N) + [L == N].
        """
        size = len(self.modules)
        table = [[0] * size for _ in range(size)]
        for b in range(size):
            target = self.modules[b]
            col = [0] * (size + 1)
            for m in self.modules:
                if m.is_projective:
                    col[m.id] = target.dim_vector[m.projective_vertex - 1]
                else:
                    l = self.tau[m.id]
                    val = sum(col[e] for e in self.mesh_middles[l]) - col[l]
                    if l == target.id:
                        val += 1
                    col[m.id] = val
            for a in range(size):
                table[a][b] = col[a + 1]
        return table

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

    def matrix_hom_dim(self, a: int, b: int) -> int:
        """Hom dimension from the explicit intertwiner system."""
        return rep_hom_dim(self.quiver, self.reps[a - 1], self.reps[b - 1])

    def resolution_ext_dim(self, a: int, b: int) -> int:
        """Ext^1 dimension from the standard projective resolution.

        Over a hereditary algebra every module M has the resolution
        0 -> (+)_{arrows i->j} P_j^{m_i} -> (+)_v P_v^{m_v} -> M -> 0, and by
        Yoneda's lemma Hom(P_v, N) = N_v, so applying Hom(-, N) gives
        dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> with the Euler form
        (Crawley-Boevey, Lectures on representations of quivers).  It reads
        the explicit representations only, none of the tables or the
        translation that the AR formula of ``ext_table`` is built from.
        """
        dims_a, dims_b = self.reps[a - 1].dims, self.reps[b - 1].dims
        return self.matrix_hom_dim(a, b) - euler_form(self.quiver, dims_a, dims_b)

    # -- knitting -------------------------------------------------------

    def _knit(self) -> None:
        q = self.quiver
        n = q.vertex_count
        succ = {v: [] for v in range(1, n + 1)}
        pred = {v: [] for v in range(1, n + 1)}
        for s, t in q.arrows:
            succ[s].append(t)
            pred[t].append(s)
        reach = {v: reachable(v, succ) for v in succ}
        coreach = {v: reachable(v, pred) for v in pred}
        inj_dv = {
            tuple(1 if u in coreach[v] else 0 for u in range(1, n + 1)): v
            for v in range(1, n + 1)
        }

        for i in range(1, n + 1):
            dv = tuple(1 if u in reach[i] else 0 for u in range(1, n + 1))
            self.modules.append(
                IndModule(i, dv, projective_vertex=i, injective_vertex=inj_dv.get(dv))
            )
            self.reps.append(_projective_rep(q, reach[i]))
            self._out[i] = []
            self._in[i] = []
        for s, t in q.arrows:
            # an arrow s -> t of the quiver gives an irreducible map P_t -> P_s
            self._add_arrow(t, s, _projective_irr_map(q, reach[t], reach[s]))

        expected = positive_root_count(self.dynkin)
        pending = {m.id for m in self.modules if not m.is_injective}
        while pending:
            ready = None
            for mid in sorted(pending):
                if all(
                    src in self.tau_inverse or self.modules[src - 1].is_injective
                    for src in self._in[mid]
                ):
                    ready = mid
                    break
            if ready is None:
                raise self._error(f"no mesh ready; {len(pending)} pending from m{min(pending)}")
            self._complete_mesh(ready, inj_dv)
            pending.discard(ready)
            new_id = self.tau_inverse[ready]
            if not self.modules[new_id - 1].is_injective:
                pending.add(new_id)
            if len(self.modules) > expected:
                raise self._error(f"mesh at m{ready} exceeded the positive root count {expected}")

        if len(self.modules) != expected:
            raise self._error(f"knitted {len(self.modules)} modules, expected {expected}")
        if len(self.injectives) != n or len(self.projectives) != n:
            raise self._error("projective/injective count mismatch")
        if len({m.dim_vector for m in self.modules}) != len(self.modules):
            raise self._error("duplicate dimension vectors in catalog")

    def _error(self, text: str) -> KnittingError:
        return KnittingError(f"{self.dynkin}: {text}")

    def _add_arrow(self, src: int, tgt: int, vertex_maps: list[Mat]) -> None:
        if (src, tgt) in self._irr_maps:
            raise self._error(f"multiple arrows m{src} -> m{tgt}; not multiplicity-free")
        self.arrows.append((src, tgt))
        self._out[src].append(tgt)
        self._in[tgt].append(src)
        self._irr_maps[(src, tgt)] = vertex_maps

    def _complete_mesh(self, nid: int, inj_dv: dict) -> None:
        """Create tau^{-1}(N) as the cokernel of N -> (sum of middles)."""
        q = self.quiver
        n = q.vertex_count
        middles = sorted(self._out[nid])
        if len(set(middles)) != len(middles):
            raise self._error(f"mesh at m{nid} has a middle with multiplicity > 1")
        n_rep = self.reps[nid - 1]
        n_dv = self.modules[nid - 1].dim_vector
        middle_reps = [self.reps[e - 1] for e in middles]
        big, offsets = rep_direct_sum(q, middle_reps)
        new_dv = tuple(
            sum(r.dims[v] for r in middle_reps) - n_dv[v] for v in range(n)
        )
        if any(d < 0 for d in new_dv) or not any(new_dv):
            raise self._error(f"mesh at m{nid} produced dimension vector {new_dv}")

        # combined source map f: N -> big, stacked per vertex
        quotients: list[QuotientSpace] = []
        for v in range(n):
            f_v = [[ZERO] * n_rep.dims[v] for _ in range(big.dims[v])]
            for e, off, rep in zip(middles, offsets, middle_reps):
                comp = self._irr_maps[(nid, e)][v]
                for i in range(rep.dims[v]):
                    for j in range(n_rep.dims[v]):
                        f_v[off[v] + i][j] = comp[i][j]
            columns = [[f_v[i][j] for i in range(big.dims[v])] for j in range(n_rep.dims[v])]
            quo = QuotientSpace(columns, big.dims[v])
            if quo.dim != new_dv[v]:
                raise self._error(f"mesh map at m{nid} not injective at vertex {v + 1}")
            quotients.append(quo)

        maps = []
        for idx, (s, t) in enumerate(q.arrows):
            s -= 1
            t -= 1
            cols = []
            for c in quotients[s].coords_idx:
                vec = [big.maps[idx][i][c] for i in range(big.dims[t])]
                cols.append(quotients[t].project(vec))
            maps.append([[cols[j][i] for j in range(new_dv[s])] for i in range(new_dv[t])])
        new_rep = Rep(new_dv, tuple(maps))

        new_id = len(self.modules) + 1
        self.modules.append(
            IndModule(new_id, new_dv, injective_vertex=inj_dv.get(new_dv))
        )
        self.reps.append(new_rep)
        self._out[new_id] = []
        self._in[new_id] = []
        self.tau_inverse[nid] = new_id
        self.tau[new_id] = nid
        self.mesh_middles[nid] = tuple(middles)

        for e, off, rep in zip(middles, offsets, middle_reps):
            proj_maps = []
            for v in range(n):
                cols = []
                for i in range(rep.dims[v]):
                    vec = [ZERO] * big.dims[v]
                    vec[off[v] + i] = ONE
                    cols.append(quotients[v].project(vec))
                proj_maps.append(
                    [[cols[j][i] for j in range(rep.dims[v])] for i in range(new_dv[v])]
                )
            self._add_arrow(e, new_id, proj_maps)

        if rep_hom_dim(q, new_rep, new_rep) != 1:
            raise self._error(f"mesh cokernel at m{nid} is decomposable")


def _projective_rep(q: Quiver, support: set[int]) -> Rep:
    dims = tuple(1 if v in support else 0 for v in range(1, q.vertex_count + 1))
    maps = []
    for s, t in q.arrows:
        if s in support and t in support:
            maps.append([[ONE]])
        else:
            maps.append([[] for _ in range(dims[t - 1])])
    return Rep(dims, tuple(maps))


def _projective_irr_map(q: Quiver, src_support: set[int], tgt_support: set[int]) -> list[Mat]:
    # P_j -> P_i for an arrow i -> j: on the unique-path bases every
    # component between nonzero spaces is the scalar 1
    maps = []
    for v in range(1, q.vertex_count + 1):
        if v in src_support and v in tgt_support:
            maps.append([[ONE]])
        elif v in tgt_support:
            maps.append([[]])
        else:
            maps.append([])
    return maps

