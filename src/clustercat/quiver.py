"""Quiver ingestion, Dynkin classification, and the Euler form.

The quiver file format is line oriented: the first non-comment line is
``vertices <n>``, followed by zero or more ``arrow <i> <j>`` lines with
1-based vertex indices.  ``#`` starts a comment.  Only connected acyclic
orientations of the ADE diagrams are accepted; everything downstream
relies on representation-finiteness.  A quiver file is UTF-8 text of at
most ``MAX_QUIVER_BYTES`` bytes.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

# E8, the largest supported quiver, needs well under 1 KiB
MAX_QUIVER_BYTES = 1 << 20


class QuiverError(Exception):
    """Base class for all ingestion and validation failures."""


class QuiverSyntaxError(QuiverError):
    """Malformed quiver text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QuiverCycleError(QuiverError):
    """A loop or an oriented cycle is present."""


class DisconnectedQuiverError(QuiverError):
    """The underlying graph is not connected."""


class NotDynkinError(QuiverError):
    """The underlying graph is not one of A_n, D_n (n >= 4), E_6, E_7, E_8."""


class QuiverTooLargeError(QuiverError):
    """A Dynkin quiver whose module catalog exceeds the supported size."""


# the diagrams of the verify battery: name -> (vertex count, edges)
DIAGRAMS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "A1": (1, ()),
    "A2": (2, ((1, 2),)),
    "A3": (3, ((1, 2), (2, 3))),
    "A4": (4, ((1, 2), (2, 3), (3, 4))),
    "D4": (4, ((1, 2), (2, 3), (2, 4))),
}


class Quiver(NamedTuple):
    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def reversed(self) -> "Quiver":
        return Quiver(self.vertex_count, tuple((t, s) for s, t in self.arrows))


class DynkinClass(NamedTuple):
    family: str  # 'A', 'D' or 'E'
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_quiver(text: str) -> Quiver:
    """Parse and fully validate a quiver description."""
    vertex_count: int | None = None
    arrows: list[tuple[int, int]] = []
    arrow_lines: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if vertex_count is None:
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise QuiverSyntaxError("expected 'vertices <n>'", lineno)
            try:
                vertex_count = int(tokens[1])
            except ValueError:
                raise QuiverSyntaxError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if vertex_count < 1:
                raise QuiverSyntaxError("vertex count must be positive", lineno)
            continue
        if tokens[0] != "arrow" or len(tokens) != 3:
            raise QuiverSyntaxError(f"expected 'arrow <i> <j>', got {line!r}", lineno)
        try:
            src, tgt = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise QuiverSyntaxError(f"bad vertex index in {line!r}", lineno) from None
        for v in (src, tgt):
            if not 1 <= v <= vertex_count:
                raise QuiverSyntaxError(f"vertex {v} out of range 1..{vertex_count}", lineno)
        if src == tgt:
            raise QuiverCycleError(f"line {lineno}: loop at vertex {src}")
        if (src, tgt) in arrow_lines:
            raise NotDynkinError(
                f"line {lineno}: duplicate arrow {src} -> {tgt}"
                f" (first seen on line {arrow_lines[(src, tgt)]})"
            )
        arrow_lines[(src, tgt)] = lineno
        arrows.append((src, tgt))
    if vertex_count is None:
        raise QuiverSyntaxError("missing 'vertices <n>' line")
    q = Quiver(vertex_count, tuple(arrows))
    validate_quiver(q)
    return q


def load_quiver(path) -> Quiver:
    with open(path, "rb") as fh:
        data = fh.read(MAX_QUIVER_BYTES + 1)
    if len(data) > MAX_QUIVER_BYTES:
        raise QuiverSyntaxError(f"quiver file exceeds {MAX_QUIVER_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise QuiverSyntaxError(f"not UTF-8 text at byte {exc.start}", line) from None
    return parse_quiver(text)


def validate_quiver(q: Quiver) -> DynkinClass:
    """Check acyclicity, connectivity and Dynkin shape; return the class."""
    if len(q.arrows) < q.vertex_count - 1:  # too few arrows to connect; no O(n) work yet
        n, k = q.vertex_count, len(q.arrows)
        raise DisconnectedQuiverError(f"{n} vertices, {k} arrows: some unreachable from vertex 1")
    _check_acyclic(q)
    _check_connected(q)
    return classify_dynkin(q)


def _check_acyclic(q: Quiver) -> None:
    for s, t in q.arrows:
        if s == t:
            raise QuiverCycleError(f"loop at vertex {s}")
    indeg = {v: 0 for v in range(1, q.vertex_count + 1)}
    succ: dict[int, list[int]] = {v: [] for v in indeg}
    for s, t in q.arrows:
        succ[s].append(t)
        indeg[t] += 1
    queue = [v for v in indeg if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != q.vertex_count:
        cyclic = [v for v in indeg if indeg[v] > 0]
        raise QuiverCycleError(f"oriented cycle through vertices {_few(cyclic)}")


def _check_connected(q: Quiver) -> None:
    if q.vertex_count == 0:
        return
    adj: dict[int, set[int]] = {v: set() for v in range(1, q.vertex_count + 1)}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = reachable(1, adj)
    if len(seen) != q.vertex_count:
        missing = [v for v in adj if v not in seen]
        raise DisconnectedQuiverError(f"vertices {_few(missing)} unreachable from vertex 1")


def reachable(start, adjacency) -> set:
    """Vertices reachable from start, where adjacency[u] lists u's neighbours."""
    seen, stack = {start}, [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _few(vertices: list[int], shown: int = 8) -> str:
    """The first few of an ascending vertex list, and how many there are."""
    if len(vertices) <= shown:
        return str(vertices)
    return f"{str(vertices[:shown])[:-1]}, ...] ({len(vertices)} in all)"


def classify_dynkin(q: Quiver) -> DynkinClass:
    """Dynkin family and rank of the underlying graph, or NotDynkinError."""
    n = q.vertex_count
    edges = {frozenset(a) for a in q.arrows}
    if len(edges) != len(q.arrows):
        raise NotDynkinError("parallel arrows between the same pair of vertices")
    if len(edges) != n - 1:
        raise NotDynkinError(
            f"underlying graph has {len(edges)} edges on {n} vertices; not a tree"
        )
    deg = {v: 0 for v in range(1, n + 1)}
    nbr: dict[int, list[int]] = {v: [] for v in deg}
    for e in edges:
        a, b = tuple(e)
        deg[a] += 1
        deg[b] += 1
        nbr[a].append(b)
        nbr[b].append(a)
    if any(d > 3 for d in deg.values()):
        v = next(v for v, d in deg.items() if d > 3)
        raise NotDynkinError(f"vertex {v} has degree {deg[v]} > 3")
    branch = [v for v, d in deg.items() if d == 3]
    if not branch:
        return DynkinClass("A", n)
    if len(branch) > 1:
        raise NotDynkinError(f"more than one branch vertex: {sorted(branch)}")
    center = branch[0]
    arms = sorted(_arm_length(nbr, center, first) for first in nbr[center])
    if arms[0] == 1 and arms[1] == 1:
        return DynkinClass("D", arms[2] + 3)
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return DynkinClass("E", arms[2] + 4)
    raise NotDynkinError(f"branch arms of lengths {arms} are not an ADE shape")


def _arm_length(nbr: dict[int, list[int]], center: int, first: int) -> int:
    length, prev, cur = 1, center, first
    while True:
        nxt = [w for w in nbr[cur] if w != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def euler_form(q: Quiver, d, e) -> int:
    """Homological bilinear form: sum d_i e_i - sum over arrows i->j of d_i e_j."""
    n = q.vertex_count
    if len(d) != n or len(e) != n:
        raise ValueError(f"dimension vectors must have length {n}")
    total = sum(d[i] * e[i] for i in range(n))
    for s, t in q.arrows:
        total -= d[s - 1] * e[t - 1]
    return total


def positive_root_count(c: DynkinClass) -> int:
    if c.family == "A":
        return c.rank * (c.rank + 1) // 2
    if c.family == "D":
        return c.rank * (c.rank - 1)
    return {6: 36, 7: 63, 8: 120}[c.rank]


def cluster_number(c: DynkinClass) -> int:
    """Number of cluster tilting objects (Fomin-Zelevinsky, Cluster algebras II)."""
    n = c.rank
    if c.family == "A":  # Catalan(n + 1)
        return comb(2 * n + 2, n + 1) // (n + 2)
    if c.family == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160, 8: 25080}[n]
