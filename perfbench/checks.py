"""Output checks for every benchmark op, from known counts.

Each ``check_*`` factory returns a function that takes an op's standard
output and returns ``None`` when it is right, or a one-line reason.  The
expected values come from the combinatorics of Dynkin types (positive
root counts, cluster numbers, Coxeter periodicity), never from earlier
output of the program.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable

from inputs import cluster_number, positive_roots

Check = Callable[[str], "str | None"]


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


class CheckFailed(Exception):
    pass


def _guarded(check):
    def run(text: str) -> str | None:
        try:
            check(text)
        except CheckFailed as exc:
            return str(exc)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    return run


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _square(table, size: int, what: str) -> None:
    _expect(len(table) == size and all(len(r) == size for r in table), f"{what} is not {size}x{size}")


def check_ar(dynkin: str, arrows) -> Check:
    """Modules are the positive roots: right count, distinct, Tits form 1."""

    def check(text):
        p = _json(text)
        n = p["quiver"]["vertices"]
        _expect(p["quiver"]["arrows"] == [list(a) for a in arrows], "quiver echoed wrongly")
        mods = p["modules"]
        _expect(len(mods) == positive_roots(dynkin), f"{len(mods)} modules, expected {positive_roots(dynkin)}")
        dims = [tuple(m["dim_vector"]) for m in mods]
        _expect(len(set(dims)) == len(dims), "repeated dimension vector")
        for d in dims:
            tits = sum(x * x for x in d) - sum(d[s - 1] * d[t - 1] for s, t in arrows)
            _expect(tits == 1 and min(d) >= 0, f"{list(d)} is not a positive root")
        _expect(sum(m["projective_vertex"] is not None for m in mods) == n, "projective count")
        _expect(sum(m["injective_vertex"] is not None for m in mods) == n, "injective count")
        size = len(mods)
        _square(p["hom"], size, "hom")
        _square(p["ext"], size, "ext")
        _expect(all(p["hom"][i][i] == 1 for i in range(size)), "hom diagonal is not all 1")
        _expect(all(p["ext"][i][i] == 0 for i in range(size)), "ext diagonal is not all 0")

    return _guarded(check)


def _catalog_size(dynkin: str, m: int) -> int:
    return m * (positive_roots(dynkin) + int(dynkin[1:]))


def check_ind(dynkin: str, m: int) -> Check:
    """m tiers, each holding the modules plus the shifted projectives."""

    def check(text):
        p = _json(text)
        objs = p["objects"]
        size = _catalog_size(dynkin, m)
        _expect(len(objs) == size, f"{len(objs)} objects, expected {size}")
        _expect(len({o["id"] for o in objs}) == size, "repeated object id")
        per_tier = Counter(o["tier"] for o in objs)
        _expect(sorted(per_tier) == list(range(m)), "tiers are not 0..m-1")
        _expect(set(per_tier.values()) == {size // m}, "tiers of unequal size")

    return _guarded(check)


def check_hom_tables(dynkin: str, m: int) -> Check:
    def check(text):
        p = _json(text)
        ids = p["ids"]
        size = _catalog_size(dynkin, m)
        _expect(len(ids) == size and len(set(ids)) == size, f"{len(ids)} ids, expected {size} distinct")
        for key in ("hom", "ext"):
            table = p[key]
            _expect(list(table) == ids and all(list(table[i]) == ids for i in ids), f"{key} is not {size}x{size}")
        _expect(all(p["hom"][i][i] == 1 for i in ids), "hom diagonal is not all 1")
        _expect(all(p["ext"][i][i] == 0 for i in ids), "ext diagonal is not all 0")

    return _guarded(check)


def check_hom_point(memo: dict, key: str, same_as: str | None = None, self_pair: bool = False) -> Check:
    """One point query.

    same_as names an earlier query whose objects differ from this one's
    by [m(h+2)] = F^(hm), which is the identity in D^b(kQ)/F^m (Coxeter
    periodicity), so both must canonicalize alike and give equal
    dimensions.  self_pair queries X against X[m(h+2)]: one object, so
    hom = 1 and ext = 0.
    """

    def check(text):
        p = _json(text)
        got = (p["x"], p["y"], p["hom"], p["ext"])
        _expect(all(isinstance(v, int) and v >= 0 for v in got[2:]), "dimensions are not naturals")
        memo[key] = got
        if same_as is not None:
            _expect(memo.get(same_as) == got, f"differs from {same_as}: {got} vs {memo.get(same_as)}")
        if self_pair:
            _expect(got[0] == got[1] and got[2:] == (1, 0), f"X vs X[m(h+2)] gave {got}")

    return _guarded(check)


def _check_tilting_objects(rows, dynkin: str, m: int) -> None:
    n = int(dynkin[1:])
    count = cluster_number(dynkin)
    _expect(len(rows) == count, f"{len(rows)} tilting objects, expected {count}")
    _expect(all(len(set(r)) == m * n == len(r) for r in rows), f"an object without {m * n} distinct summands")
    _expect(len({frozenset(r) for r in rows}) == count, "repeated tilting object")


def check_tilting(dynkin: str, m: int) -> Check:
    def check(text):
        p = _json(text)
        _expect(p["count"] == len(p["tilting_objects"]), "count field disagrees with the list")
        _check_tilting_objects(p["tilting_objects"], dynkin, m)

    return _guarded(check)


def check_graph(dynkin: str, m: int) -> Check:
    """Exchange graph: cluster-number vertices, n-regular, connected."""

    def check(text):
        p = _json(text)
        n = int(dynkin[1:])
        verts = [v["id"] for v in p["vertices"]]
        _check_tilting_objects([v["members"] for v in p["vertices"]], dynkin, m)
        edges = {frozenset(e) for e in p["edges"]}
        _expect(len(edges) == len(p["edges"]) and all(len(e) == 2 for e in edges), "repeated edge or loop")
        expected = n * len(verts) // 2
        _expect(len(edges) == expected, f"{len(edges)} edges, expected {expected}")
        degree = Counter(v for e in edges for v in e)
        _expect(set(degree) == set(verts) and set(degree.values()) == {n}, f"not {n}-regular")
        _expect(p["connected"] is True, "graph reported disconnected")

    return _guarded(check)


def check_endo(vertex: int, m: int) -> Check:
    def check(text):
        p = _json(text)
        _expect(p["vertex"] == f"T{vertex}", f"answered for {p['vertex']}")
        _square(p["block_dims"], m, "block_dims")
        _expect(p["pattern_ok"] is not False, f"block pattern deviates: {p['deviations']}")

    return _guarded(check)


def check_verify() -> Check:
    def check(text):
        p = _json(text)
        total = sum(len(c["checks"]) for c in p["cells"])
        _expect(total >= 1 and p["checks_total"] == total, "checks_total disagrees with the cells")
        _expect(p["checks_failed"] == 0, f"{p['checks_failed']} battery checks failed")
        _expect(p["passed"] is True, "battery did not pass")

    return _guarded(check)
