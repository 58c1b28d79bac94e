"""Dimension-level structure of the endomorphism algebras of lifted
tilting objects.

A lifted tilting object is its generator's base positions.  The profile's
tiers list the summands' catalog ``DObject``s, laid out by
``build_twist_stable``, and shifts and module ids are read from the
modulus-1 catalog only where the module tier is tested.

For a generator that is a tilting module (all summands at shift 0) the
endomorphism algebra of its lift decomposes into m x m blocks indexed by
twist tiers: diagonal blocks carry the module endomorphism algebra C,
and the tier-raising positions (cyclically, including the wrap-around)
carry E = Hom(T, twist T).  The profile reads every block from the orbit
category's ``layers[0, 0]`` and ``layers[0, 1]`` by tier gap, summed over
the generator (a multiset), and computes C and E from the module and
derived Hom instead, so the block check compares two routes.  None of the
four sums depends on the modulus, so the battery reads them once per quiver,
on the base category; nothing is memoized.  Only dimensions are computed
here; no multiplication tables.
"""

from __future__ import annotations

from typing import NamedTuple

from .derived import DObject
from .orbit import MAX_TABLE_SIDE, OrbitCategory
from .quiver import QuiverTooLargeError


class EndoProfile(NamedTuple):
    tiers: list[list[DObject]]
    block_dims: list[list[int]]
    dim_c: int | None
    dim_e: int | None
    module_tier: bool

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.block_dims)


class PatternReport(NamedTuple):
    ok: bool | None  # None when the check was skipped
    deviations: list[dict]
    annotations: list[str]


def endo_profile(cat: OrbitCategory, gen: tuple[int, ...]) -> EndoProfile:
    """Tiered Hom-dimension blocks of End(M) for a lifted tilting object's generator.

    block_dims[i][j] sums hom(s, t) over s in tier j and t in tier i,
    i.e. maps from tier j into tier i.
    """
    m, size = cat.modulus, len(gen)
    refuse_many_tiers(cat)
    # tier-major: the twist^i of gen fills slice i
    summands = list(map(cat.catalog.__getitem__, cat.build_twist_stable(gen)))
    tiers = [summands[i * size : (i + 1) * size] for i in range(m)]
    same, up, dim_c, dim_e = generator_sums(cat.base, gen)  # no sum depends on the modulus
    # the block from tier j into tier i reads the layers at tier gap (i - j) mod m
    return EndoProfile(tiers, _cyclic_blocks(m, same, up), dim_c, dim_e, dim_c is not None)


def refuse_many_tiers(cat: OrbitCategory) -> None:
    """Raise QuiverTooLargeError past MAX_TABLE_SIDE tiers: the block matrix is m x m."""
    if (m := cat.modulus) > MAX_TABLE_SIDE:
        raise QuiverTooLargeError(f"endo blocks of {cat.ar.dynkin} at m={m} need {m} tiers; at most {MAX_TABLE_SIDE} are supported")


def generator_sums(base: OrbitCategory, gen: tuple[int, ...]) -> tuple[int, int, int | None, int | None]:
    """(same, up, dim C, dim E) of a generator (a multiset of base positions): same
    and up from ``layers[0, 0]`` and ``layers[0, 1]``, dim C and dim E (None off
    the module tier) from the module and derived Hom."""
    same, up = (sum(sum(map(layer[k].__getitem__, gen)) for k in gen) for layer in (base.layers[0, 0], base.layers[0, 1]))
    reps = [base.catalog[g] for g in gen]
    if any(x.shift for x in reps):
        return same, up, None, None
    ids, hom = [x.module_id - 1 for x in reps], base.ar.hom_table
    dim_c = sum(sum(map(hom[k].__getitem__, ids)) for k in ids)
    twisted = [base.derived.twist(y) for y in reps]
    return same, up, dim_c, sum(base.derived.hom(x, y) for x in reps for y in twisted)


def _cyclic_blocks(m: int, same: int, up: int) -> list[list[int]]:
    """The m x m two-layer pattern: same on the diagonal, up at (i, j) with
    i = j + 1 mod m, zero elsewhere; at m = 1 both land in the one block.
    Row i is row 0 turned i places to the right."""
    row = [same + up] if m == 1 else [same, *[0] * (m - 2), up]
    return [row[m - i :] + row[: m - i] for i in range(m)]


def block_pattern_report(profile: EndoProfile) -> PatternReport:
    """Compare the computed blocks against the cyclic two-layer pattern
    with dim_c on the diagonal and dim_e one tier up.  Deviations are
    reported in row-major order, never repaired.
    """
    if not profile.module_tier:
        return PatternReport(
            ok=None,
            deviations=[],
            annotations=[
                "generator is not a module-tier tilting object; block pattern "
                "check skipped (a module-tier description over some derived-"
                "equivalent algebra exists but is not constructed here)"
            ],
        )
    m = len(profile.block_dims)
    pattern = _cyclic_blocks(m, profile.dim_c, profile.dim_e)
    deviations = [
        {"block": [i, j], "expected": expected, "computed": got}
        for i, (row, computed) in enumerate(zip(pattern, profile.block_dims))
        for j, (expected, got) in enumerate(zip(row, computed))
        if got != expected
    ]
    annotations = [
        "superdiagonal dimension computed as dim Hom(T, twist T) in the "
        "derived category; no bimodule identification is attempted"
    ]
    if m >= 2 and profile.dim_e:
        annotations.append(
            f"wrap-around block (0, {m - 1}) carries dimension {profile.dim_e}; "
            "a strictly lower-triangular reading of the block matrix would "
            "miss it, so it is flagged here rather than normalized away"
        )
    return PatternReport(not deviations, deviations, annotations)

