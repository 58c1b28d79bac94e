"""Indecomposable modules of a Dynkin path algebra via AR-quiver knitting.

Knitting starts from the projectives and repeatedly completes meshes:
for a non-injective module N whose outgoing irreducible maps are all
known, the cokernel of the combined map N -> (direct sum of the mesh
middles) is the translate of N.  Every module is built together with an
explicit rational matrix representation, so an independent linear-algebra
oracle can confirm each Hom/Ext dimension the fast mesh recursion yields.

Conventions: representations are covariant (an arrow u -> v acts by a
matrix from the space at u to the space at v); the projective P_i is
supported on the vertices reachable from i, the injective I_i on the
vertices that reach i.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .exact import (
    Mat,
    ONE,
    ZERO,
    KernelSpace,
    QuotientSpace,
    mat_vec,
    rank,
)
from .quiver import Quiver, DynkinClass, QuiverTooLargeError, classify_dynkin, positive_root_count

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
        """Ext^1 dimension via an explicit projective cover and its kernel.

        From 0 -> K -> P0 -> M -> 0 and Ext^1(P0, N) = 0:
        dim Ext^1(M, N) = hom(K, N) - hom(P0, N) + hom(M, N),
        with every hom computed by the matrix oracle.
        """
        p0, kernel = self._resolutions[a - 1]
        q, n_rep = self.quiver, self.reps[b - 1]
        hom = [rep_hom_dim(q, rep, n_rep) for rep in (kernel, p0, self.reps[a - 1])]
        return hom[0] - hom[1] + hom[2]

    @cached_property
    def _resolutions(self) -> list[tuple[Rep, Rep]]:
        """(P0, K) of 0 -> K -> P0 -> M -> 0 for each module M, by id - 1."""
        out = []
        for mid, m_rep in enumerate(self.reps, 1):
            p0, cover = self._projective_cover(mid)
            label = f"{self.dynkin}: projective cover of m{mid}"
            out.append((p0, _kernel_subrep(self.quiver, p0, cover, m_rep, label)))
        return out

    def _projective_cover(self, mid: int) -> tuple[Rep, list[Mat]]:
        """Explicit cover P0 -> M: per-vertex matrices of the cover map."""
        q = self.quiver
        n = q.vertex_count
        m_rep = self.reps[mid - 1]
        # top multiplicities: coordinates of M_v not hit by incoming arrows
        tops: list[tuple[int, int]] = []  # (vertex 1-based, coordinate)
        for v in range(1, n + 1):
            image_rows: Mat = []
            for idx, (s, t) in enumerate(q.arrows):
                if t == v:
                    mat = m_rep.maps[idx]
                    for j in range(m_rep.dims[s - 1]):
                        image_rows.append([mat[i][j] for i in range(m_rep.dims[v - 1])])
            quo = QuotientSpace(image_rows, m_rep.dims[v - 1])
            tops.extend((v, c) for c in quo.coords_idx)
        summands = [self.reps[self.projectives[v] - 1] for v, _ in tops]
        p0, offsets = rep_direct_sum(q, summands)
        cover: list[Mat] = []
        for w in range(1, n + 1):
            mat = [[ZERO] * p0.dims[w - 1] for _ in range(m_rep.dims[w - 1])]
            for copy, (v, c) in enumerate(tops):
                pv = summands[copy]
                if pv.dims[w - 1] == 0:
                    continue
                # hom P_v -> M from the coordinate vector e_c in M_v,
                # pushed along the unique path v -> w
                column = self._path_image(m_rep, v, w, c)
                col_idx = offsets[copy][w - 1]
                for i in range(m_rep.dims[w - 1]):
                    mat[i][col_idx] = column[i]
            cover.append(mat)
        return p0, cover

    def _path_image(self, m_rep: Rep, v: int, w: int, coord: int):
        """Image of the coord-th basis vector of M_v under the path v -> w."""
        vec = [ZERO] * m_rep.dims[v - 1]
        vec[coord] = ONE
        for arrow_idx in self._path_steps[(v, w)]:
            vec = mat_vec(m_rep.maps[arrow_idx], vec)
        return vec

    @cached_property
    def _path_steps(self) -> dict[tuple[int, int], list[int]]:
        """Arrow-index sequences of all directed paths (unique on a tree)."""
        paths: dict[tuple[int, int], list[int]] = {}
        for v in range(1, self.quiver.vertex_count + 1):
            paths[(v, v)] = []
            frontier = [v]
            while frontier:
                u = frontier.pop()
                for idx, (s, t) in enumerate(self.quiver.arrows):
                    if s == u and (v, t) not in paths:
                        paths[(v, t)] = paths[(v, u)] + [idx]
                        frontier.append(t)
        return paths

    # -- knitting -------------------------------------------------------

    def _knit(self) -> None:
        q = self.quiver
        n = q.vertex_count
        succ = {v: [] for v in range(1, n + 1)}
        pred = {v: [] for v in range(1, n + 1)}
        for s, t in q.arrows:
            succ[s].append(t)
            pred[t].append(s)
        reach = {v: _closure(v, succ) for v in succ}
        coreach = {v: _closure(v, pred) for v in pred}
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


def _closure(v: int, adjacency: dict[int, list[int]]) -> set[int]:
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


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


def _kernel_subrep(q: Quiver, big: Rep, cover: list[Mat], m_rep: Rep, label: str) -> Rep:
    """Kernel of the cover map as an explicit subrepresentation."""
    n = q.vertex_count
    kernels: list[KernelSpace] = []
    for v in range(n):
        kernels.append(KernelSpace(cover[v], big.dims[v]))
        if kernels[v].dim != big.dims[v] - m_rep.dims[v]:
            raise KnittingError(f"{label} is not surjective")
    dims = tuple(k.dim for k in kernels)
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        cols = [kernels[t].coords(mat_vec(big.maps[idx], b)) for b in kernels[s].basis]
        maps.append([[cols[j][i] for j in range(dims[s])] for i in range(dims[t])])
    return Rep(dims, tuple(maps))
