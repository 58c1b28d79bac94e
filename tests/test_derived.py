import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat as cc
from clustercat.derived import DObject, ObjectSyntaxError, SHIFT_LIMIT
from clustercat.verify import run_verification

from conftest import A2, A3, BATTERY_QUIVERS, E6, E7, E8, module_id, oriented_trees


def test_shift_group_action(build):
    dc = build(A2)
    x = DObject(1, 0)
    assert dc.shift(x, 1) == DObject(1, 1)
    assert dc.shift(dc.shift(x, 3), -3) == x
    assert dc.shift(x, 0) == x
    assert dc.shift(dc.shift(x, 2), 5) == dc.shift(x, 7)


def test_shift_limit_bounds_input_objects_only(build):
    dc = build(A2)
    assert dc.object(1, -SHIFT_LIMIT) == DObject(1, -SHIFT_LIMIT)
    for shift in (SHIFT_LIMIT + 1, -SHIFT_LIMIT - 1):
        with pytest.raises(ObjectSyntaxError, match=f"^shift {shift} of m1 exceeds limit {SHIFT_LIMIT}$"):
            dc.object(1, shift)
    with pytest.raises(ObjectSyntaxError, match="exceeds limit"):
        dc.parse_object(f"m2[{SHIFT_LIMIT + 1}]")
    # past the input, shifts are plain integers
    assert dc.shift(DObject(1, SHIFT_LIMIT), 1) == DObject(1, SHIFT_LIMIT + 1)


def test_tau_on_modules(build):
    dc = build(A2)
    s1 = module_id(dc.ar, (1, 0))
    s2 = module_id(dc.ar, (0, 1))
    assert dc.tau(DObject(s1, 0)) == DObject(s2, 0)


def test_tau_on_projectives_drops_shift(build):
    # tau(P_i) = I_i[-1]
    dc = build(A2)
    p2 = module_id(dc.ar, (0, 1))
    i2 = module_id(dc.ar, (1, 1))
    assert dc.tau(DObject(p2, 0)) == DObject(i2, -1)


def test_tau_bijective(build):
    dc = build(A3)
    for m in dc.ar.modules:
        for s in range(-2, 3):
            x = DObject(m.id, s)
            assert dc.tau_inv(dc.tau(x)) == x
            assert dc.tau(dc.tau_inv(x)) == x


def test_twist_examples(build):
    dc = build(A2)
    s2 = module_id(dc.ar, (0, 1))
    s1 = module_id(dc.ar, (1, 0))
    p1 = module_id(dc.ar, (1, 1))
    assert dc.twist(DObject(s2, 0)) == DObject(s1, 1)
    # S_1 = I_1 is injective, so the twist bumps the shift by two
    assert dc.twist(DObject(s1, 0)) == DObject(p1, 2)


def test_twist_power_inverse(build):
    dc = build(A3)
    for m in dc.ar.modules:
        x = DObject(m.id, 0)
        assert dc.twist(dc.twist_power(x, -1)) == x
        assert dc.twist_power(x, 0) == x
        assert dc.twist_power(dc.twist_power(x, 3), -3) == x


def test_twist_commutes_with_shift(build):
    dc = build(A3)
    for m in dc.ar.modules:
        x = DObject(m.id, 0)
        assert dc.twist(dc.shift(x, 4)) == dc.shift(dc.twist(x), 4)


def test_twist_shift_step(build):
    dc = build(A3)
    for m in dc.ar.modules:
        step = dc.twist(DObject(m.id, 0)).shift
        assert step == (2 if m.is_injective else 1)


COXETER_QUIVERS = {
    **BATTERY_QUIVERS,
    **{name: cc.parse_quiver(text) for name, text in (("E6", E6), ("E7", E7), ("E8", E8))},
}


@pytest.mark.parametrize("label", COXETER_QUIVERS)
def test_coxeter_periodicity(label):
    # F^h = [h + 2] with h the Coxeter number (Keller, math/0503240), walked
    # one twist at a time: the closed-form twist_power rests on it
    dc = cc.DerivedCategory(cc.ARQuiver(COXETER_QUIVERS[label]))
    h, rem = divmod(2 * len(dc.ar.modules), dc.ar.quiver.vertex_count)
    assert rem == 0 and dc.coxeter_number == h
    for m in dc.ar.modules:
        x = y = DObject(m.id, 0)
        for _ in range(h):
            y = dc.twist(y)
        assert y == dc.shift(x, h + 2), m.id


def test_hom_gap_rules(build):
    dc = build(A2)
    s1 = module_id(dc.ar, (1, 0))
    s2 = module_id(dc.ar, (0, 1))
    assert dc.hom(DObject(s1, 0), DObject(s1, 0)) == 1
    assert dc.hom(DObject(s1, 0), DObject(s2, 1)) == 1  # Ext^1(S_1, S_2)
    for m in dc.ar.modules:
        for k in (-3, -1, 2, 5):
            assert dc.hom(DObject(s1, 0), DObject(m.id, k)) == 0


def test_serre_duality_window(build):
    for text in (A2, A3):
        dc = build(text)
        objs = [DObject(m.id, s) for m in dc.ar.modules for s in range(-2, 3)]
        for x in objs:
            sx = dc.shift(dc.tau(x), 1)
            for y in objs:
                assert dc.hom(x, y) == dc.hom(y, sx)


def test_parse_object_roundtrip(build):
    dc = build(A2)
    for text in ("m1[0]", "m3[-1]", "m2[17]"):
        assert dc.parse_object(text).text == text


@pytest.mark.parametrize("bad", ["m1[", "m0[0]", "m9[0]", "x1[0]", "m1[one]", "m1"])
def test_parse_object_errors(build, bad):
    dc = build(A2)
    with pytest.raises(ObjectSyntaxError):
        dc.parse_object(bad)


class _Definitions:
    """tau, its inverse and the twist as the composites they are defined by,
    read from the AR quiver per call: the oracle for the step tables."""

    def __init__(self, dc):
        self.dc, self.ar = dc, dc.ar

    def tau(self, x):
        mod = self.ar.module(x.module_id)
        if mod.is_projective:
            return DObject(self.ar.injectives[mod.projective_vertex], x.shift - 1)
        return DObject(self.ar.tau[x.module_id], x.shift)

    def tau_inv(self, x):
        mod = self.ar.module(x.module_id)
        if mod.is_injective:
            return DObject(self.ar.projectives[mod.injective_vertex], x.shift + 1)
        return DObject(self.ar.tau_inverse[x.module_id], x.shift)

    def twist(self, x):
        return self.dc.shift(self.tau_inv(x), 1)

    def twist_inv(self, x):
        return self.tau(self.dc.shift(x, -1))

    def twist_power(self, x, t):
        for _ in range(abs(t)):
            x = self.twist(x) if t >= 0 else self.twist_inv(x)
        return x


@pytest.mark.parametrize("label", COXETER_QUIVERS)
def test_step_tables_equal_the_definitions(label):
    dc = cc.DerivedCategory(cc.ARQuiver(COXETER_QUIVERS[label]))
    defs = _Definitions(dc)
    for m in dc.ar.modules:
        for s in (-3, 0, 1, 4):
            x = DObject(m.id, s)
            for name in ("tau", "tau_inv", "twist", "twist_inv"):
                assert getattr(dc, name)(x) == getattr(defs, name)(x), (name, x)
            for t in (-7, -2, -1, 0, 1, 2, 7):
                assert dc.twist_power(x, t) == defs.twist_power(x, t), (x, t)


@pytest.mark.parametrize("label", ["A2#0", "D4#5"])
def test_far_shifts_return_and_a_period_moves_the_tier_by_h(label):
    # no step checks a shift limit: at +-10^12 the twist powers and
    # canonicalize return, and [p(h + 2)] = F^(ph) moves x's tier by ph mod m
    dc = cc.DerivedCategory(cc.ARQuiver(BATTERY_QUIVERS[label]))
    defs, h = _Definitions(dc), dc.coxeter_number
    cats = [dc.orbit(m) for m in (1, 2, 3)]
    for m in dc.ar.modules:
        for s in (10**12, -(10**12)):
            x = DObject(m.id, s)
            for t in (-7, -1, 1, 7):
                assert dc.twist_power(x, t) == defs.twist_power(x, t), (x, t)
            assert dc.twist(dc.twist_inv(x)) == x == dc.twist_power(dc.twist_power(x, 10**12), -(10**12))
        for cat in cats:
            for s in range(-3, 4):
                x = DObject(m.id, s)
                i = cat.canonicalize(x)
                for p in (-(10**12), -5, -1, 1, 5, 10**12):
                    j = cat.canonicalize(dc.shift(x, p * (h + 2)))
                    assert (cat.project(j), cat.tier_of(j)) == (cat.project(i), (cat.tier_of(i) + p * h) % cat.modulus)


@pytest.mark.parametrize("delta", [1, -1, 2])
def test_a_wrong_coxeter_number_fails_twist_shift_step(monkeypatch, delta):
    # twist_inv is twist_power(x, -1) = F^(h-1)[-(h+2)], so twist_inv(twist(x)) == x
    # holds exactly when F^h = [h + 2]: the battery's oracle for the period
    init = cc.DerivedCategory.__init__

    def wrong_period(self, ar):
        init(self, ar)
        self.coxeter_number += delta

    monkeypatch.setattr(cc.DerivedCategory, "__init__", wrong_period)
    report = run_verification(["A2", "D4"])
    steps = [
        check["passed"]
        for cell in report["cells"]
        if cell["m"] is None
        for check in cell["checks"]
        if check["name"] == "twist-shift-step"
    ]
    assert len(steps) == 2 + 8 and not any(steps)


def _dynkin_trees():
    """Edge lists of A_n (n <= 8), D_n (4 <= n <= 8) and E_6, E_7, E_8."""
    chain = tuple((i, i + 1) for i in range(1, 8))
    return (
        [chain[: n - 1] for n in range(1, 9)]
        + [chain[: n - 2] + ((n - 2, n),) for n in range(4, 9)]
        + [chain[: n - 2] + ((3, n),) for n in (6, 7, 8)]
    )


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from(_dynkin_trees()).flatmap(oriented_trees), data=st.data())
def test_twist_power_equals_single_steps_on_random_orientations(q, data):
    # |t| <= 3h single steps: twist reads the tau_inv table, and the inverse
    # twist is tau after [-1], written out here
    dc = cc.DerivedCategory(cc.ARQuiver(q))
    h = dc.coxeter_number
    assert h * q.vertex_count == 2 * len(dc.ar.modules)
    module = data.draw(st.integers(1, len(dc.ar.modules)))
    x = DObject(module, data.draw(st.integers(-50, 50)))
    y = z = x
    for t in range(1, 3 * h + 1):
        y, z = dc.twist(y), dc.tau(dc.shift(z, -1))
        assert dc.twist_power(x, t) == y and dc.twist_power(x, -t) == z, (x, t)
