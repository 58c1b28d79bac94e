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
derived Hom instead, so the block check compares two routes; the exchange
layer is read from ``layers[1, 0]`` and ``layers[1, -1]`` the same way.
Only dimensions are computed here; no multiplication tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derived import DObject
from .orbit import MAX_TABLE_SIDE, OrbitCategory, mask_of
from .quiver import QuiverTooLargeError
from .tilting import NotExchangeError


@dataclass
class EndoProfile:
    tiers: list[list[DObject]]
    block_dims: list[list[int]]
    dim_c: int | None
    dim_e: int | None
    module_tier: bool

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.block_dims)


@dataclass
class PatternReport:
    ok: bool | None  # None when the check was skipped
    deviations: list[dict] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)


def endo_profile(cat: OrbitCategory, gen: tuple[int, ...]) -> EndoProfile:
    """Tiered Hom-dimension blocks of End(M) for a lifted tilting object's generator.

    block_dims[i][j] sums hom(s, t) over s in tier j and t in tier i,
    i.e. maps from tier j into tier i.
    """
    m, size = cat.modulus, len(gen)
    if m > MAX_TABLE_SIDE:  # the block matrix is m x m
        raise QuiverTooLargeError(
            f"endo blocks of {cat.ar.dynkin} at m={m} need {m} tiers; at most {MAX_TABLE_SIDE} are supported"
        )
    # tier-major: the twist^i of gen fills slice i
    positions = cat.build_twist_stable(gen)
    tiers = [[cat.catalog[p] for p in positions[i * size : (i + 1) * size]] for i in range(m)]
    # the block from tier j into tier i reads the layers at tier gap (i - j) mod m
    same, up = (sum(cat.layers[0, s][k][l] for k in gen for l in gen) for s in (0, 1))
    block = _cyclic_blocks(m, same, up)

    reps = [cat.base.catalog[g] for g in gen]
    module_tier = all(x.shift == 0 for x in reps)
    dim_c = dim_e = None
    if module_tier:
        dim_c = sum(cat.ar.hom_dim(x.module_id, y.module_id) for x in reps for y in reps)
        twisted = [cat.derived.twist(y) for y in reps]
        dim_e = sum(cat.derived.hom(x, y) for x in reps for y in twisted)
    return EndoProfile(tiers, block, dim_c, dim_e, module_tier)


def _cyclic_blocks(m: int, same: int, up: int) -> list[list[int]]:
    """The m x m two-layer pattern: same on the diagonal, up at (i, j) with
    i = j + 1 mod m, zero elsewhere; at m = 1 both land in the one block."""
    return [[same * (i == j) + up * ((i - j) % m == 1 % m) for j in range(m)] for i in range(m)]


def block_pattern_report(profile: EndoProfile) -> PatternReport:
    """Compare the computed blocks against the cyclic two-layer pattern
    with dim_c on the diagonal and dim_e one tier up.  Deviations are
    reported in row-major order, never repaired.
    """
    if not profile.module_tier:
        return PatternReport(
            ok=None,
            annotations=[
                "generator is not a module-tier tilting object; block pattern "
                "check skipped (a module-tier description over some derived-"
                "equivalent algebra exists but is not constructed here)"
            ],
        )
    m = len(profile.block_dims)
    report = PatternReport(ok=True)
    pattern = _cyclic_blocks(m, profile.dim_c, profile.dim_e)
    for i, (row, computed) in enumerate(zip(pattern, profile.block_dims)):
        for j, (expected, got) in enumerate(zip(row, computed)):
            if got != expected:
                report.ok = False
                report.deviations.append(
                    {"block": [i, j], "expected": expected, "computed": got}
                )
    report.annotations.append(
        "superdiagonal dimension computed as dim Hom(T, twist T) in the "
        "derived category; no bimodule identification is attempted"
    )
    if m >= 2 and profile.dim_e:
        report.annotations.append(
            f"wrap-around block (0, {m - 1}) carries dimension {profile.dim_e}; "
            "a strictly lower-triangular reading of the block matrix would "
            "miss it, so it is flagged here rather than normalized away"
        )
    return report


def exchange_layer_dim(cat: OrbitCategory, gen1: tuple[int, ...], gen2: tuple[int, ...]) -> int:
    """Total ext1 from a tilting lift into the expansion swapped in by an exchange
    edge, by generators; one dimension per tier, hence equal to the modulus."""
    if len(set(gen2)) != 1:
        raise NotExchangeError("swapped part must be a single twist-orbit")
    x2, mask1 = gen2[0], mask_of(gen1)
    if mask1 >> x2 & 1:
        raise NotExchangeError("swapped orbit already belongs to the tilting object")
    # x2 replaces x1 iff x1 is the only member whose ext1 with x2 is nonzero
    if (mask1 & ~cat.base.compat_mask[x2]).bit_count() != 1:
        raise NotExchangeError("inputs are not the two sides of an exchange edge")
    # each of the m tiers of gen1 meets one tier of gen2 at gap 0 and one at gap -1
    zero, down = cat.layers[1, 0], cat.layers[1, -1]
    return cat.modulus * sum(zero[k][l] + down[k][l] for k in gen1 for l in gen2)
