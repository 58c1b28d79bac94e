"""Seeded inputs: random orientations of named Dynkin diagrams.

Every quiver the benchmark feeds to ``clustercat`` comes from here.  The
seed picks each edge's direction, a relabelling of the vertices and the
order of the arrow lines, so the program sees a different file per seed
while the Dynkin type, and hence every expected count, stays fixed.
The counts below are textbook values, not earlier program output.
"""

from __future__ import annotations

import random
from math import comb
from pathlib import Path


def parse_type(name: str) -> tuple[str, int]:
    family, rank = name[0], int(name[1:])
    ok = {"A": rank >= 1, "D": rank >= 4, "E": rank in (6, 7, 8)}.get(family, False)
    if not ok:
        raise ValueError(f"not a Dynkin type: {name}")
    return family, rank


def diagram_edges(name: str) -> list[tuple[int, int]]:
    """Unoriented edges in the standard labelling.

    A_n is the path 1-...-n; D_n is the path 1-...-(n-1) plus n-2 - n;
    E_n is the path 1-...-(n-1) plus 3 - n.
    """
    family, n = parse_type(name)
    path = [(i, i + 1) for i in range(1, n - 1 if family != "A" else n)]
    if family == "D":
        return path + [(n - 2, n)]
    if family == "E":
        return path + [(3, n)]
    return path


def positive_roots(name: str) -> int:
    family, n = parse_type(name)
    if family == "A":
        return n * (n + 1) // 2
    if family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def coxeter_number(name: str) -> int:
    family, n = parse_type(name)
    if family == "A":
        return n + 1
    if family == "D":
        return 2 * n - 2
    return {6: 12, 7: 18, 8: 30}[n]


def cluster_number(name: str) -> int:
    """Cluster tilting objects of the cluster category (Fomin-Zelevinsky)."""
    family, n = parse_type(name)
    if family == "A":
        return comb(2 * n + 2, n + 1) // (n + 2)
    if family == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160, 8: 25080}[n]


def random_orientation(name: str, rng: random.Random) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(vertex count, arrows) of a seeded orientation and relabelling."""
    edges = diagram_edges(name)
    n = parse_type(name)[1]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    arrows = []
    for a, b in edges:
        s, t = labels[a - 1], labels[b - 1]
        arrows.append((s, t) if rng.random() < 0.5 else (t, s))
    rng.shuffle(arrows)
    return n, tuple(arrows)


def write_quiver(path: Path, name: str, rng: random.Random, comment: str) -> dict:
    """Write one seeded quiver file; returns its record for replay."""
    n, arrows = random_orientation(name, rng)
    lines = [f"# {name} {comment}", f"vertices {n}"] + [f"arrow {s} {t}" for s, t in arrows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"file": path.name, "type": name, "arrows": [list(a) for a in arrows]}


def validate(path: Path, name: str) -> None:
    """Parse the file with the program's own loader and confirm its type."""
    from clustercat.quiver import classify_dynkin, load_quiver

    got = classify_dynkin(load_quiver(path))
    if str(got) != name:
        raise ValueError(f"{path.name}: expected {name}, loader says {got}")
