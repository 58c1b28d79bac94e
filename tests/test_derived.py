import pytest

import clustercat as cc
from clustercat.derived import DObject, ObjectSyntaxError, SHIFT_LIMIT

from conftest import A2, A3, BATTERY_QUIVERS, E6, E7, E8, module_id


def test_shift_group_action(build):
    dc = build(A2)
    x = DObject(1, 0)
    assert dc.shift(x, 1) == DObject(1, 1)
    assert dc.shift(dc.shift(x, 3), -3) == x
    assert dc.shift(x, 0) == x
    assert dc.shift(dc.shift(x, 2), 5) == dc.shift(x, 7)


def test_shift_limit(build):
    dc = build(A2)
    with pytest.raises(ValueError, match="limit"):
        dc.shift(DObject(1, 0), SHIFT_LIMIT + 1)


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
    # F^h = [h + 2] with h the Coxeter number (Keller, math/0503240); the
    # closed-form twist will rest on this, and h = 2 * |modules| / n
    dc = cc.DerivedCategory(cc.ARQuiver(COXETER_QUIVERS[label]))
    h, rem = divmod(2 * len(dc.ar.modules), dc.ar.quiver.vertex_count)
    assert rem == 0
    for m in dc.ar.modules:
        x = DObject(m.id, 0)
        assert dc.twist_power(x, h) == dc.shift(x, h + 2), m.id


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


def _raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("label", ["A2#0", "D4#5"])
def test_step_tables_keep_the_shift_limit_and_its_message(label):
    # twist checks its result, twist_inv the shift by -1 before tau; a
    # projective's tau then steps one past the limit, as the composite does
    dc = cc.DerivedCategory(cc.ARQuiver(BATTERY_QUIVERS[label]))
    defs = _Definitions(dc)
    raised = 0
    for m in dc.ar.modules:
        for s in (SHIFT_LIMIT - 2, SHIFT_LIMIT - 1, SHIFT_LIMIT):
            for x, step, count in ((DObject(m.id, s), 1, 3), (DObject(m.id, -s), -1, 3)):
                try:
                    expected = defs.twist_power(x, step * count)
                except ValueError as exc:
                    assert _raised(dc.twist_power, x, step * count) == str(exc)
                    assert str(exc).endswith(f" exceeds limit {SHIFT_LIMIT}")
                    raised += 1
                else:
                    assert dc.twist_power(x, step * count) == expected
            top, bottom = DObject(m.id, SHIFT_LIMIT), DObject(m.id, -SHIFT_LIMIT)
            assert _raised(dc.twist, top) == _raised(defs.twist, top)
            assert _raised(dc.twist_inv, bottom) == _raised(defs.twist_inv, bottom)
    assert raised
    # past the limit by one: the inverse twist of a projective at -(limit - 1)
    p = next(m.id for m in dc.ar.modules if m.is_projective)
    x = DObject(p, 1 - SHIFT_LIMIT)
    assert dc.twist_inv(x) == defs.twist_inv(x) and dc.twist_inv(x).shift == -SHIFT_LIMIT - 1
