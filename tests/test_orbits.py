import pytest
from hypothesis import given, settings, strategies as st

from unimodal import (
    Interval,
    critical_orbit,
    dense_backward_orbit,
    expansion_bound,
    find_cycle,
    make_cycle,
    make_tent,
    make_tu,
)

# forward orbit of the peak value for u_1, frozen from exact evaluation
U1_CRITICAL_ORBIT = [
    0.9635,
    0.13551819436039825,
    0.4512791372960518,
    0.9535710224876133,
    0.1705955427676944,
    0.5448902570816248,
]


def test_critical_orbit_tent():
    orb = critical_orbit(make_tent(1.4), 5)
    assert orb == pytest.approx([0.7, 0.42, 0.588, 0.5768, 0.59248])


def test_critical_orbit_tu():
    orb = critical_orbit(make_tu(1.0), 6)
    assert orb == pytest.approx(U1_CRITICAL_ORBIT, abs=1e-12)


def test_critical_orbit_enters_core():
    # from index 2 on, the orbit never leaves [c_2, c_1]
    for s in (1.3, 1.55, 1.8, 2.0):
        orb = critical_orbit(make_tent(s), 40)
        c1, c2 = orb[0], orb[1]
        assert all(c2 - 1e-12 <= x <= c1 + 1e-12 for x in orb[1:])


class TestFindCycle:
    def test_period_two(self):
        m = make_tent(1.4)
        s = 1.4
        cyc = find_cycle(m, 2, Interval(0.4, 0.49))
        assert cyc.period == 2
        assert min(cyc.points) == pytest.approx(s / (1 + s * s))
        assert cyc.multiplier == pytest.approx(-s * s)
        assert cyc.repelling

    def test_genuineness(self):
        m = make_tent(1.9)
        cyc = find_cycle(m, 2, Interval(0.3, 0.49))
        x = cyc.points[0]
        for p in cyc.points[1:]:
            x = m(x)
            assert abs(x - p) <= 1e-10
        assert abs(m(x) - cyc.points[0]) <= 1e-10

    def test_canonical_rotation(self):
        cyc = find_cycle(make_tent(1.9), 2, Interval(0.3, 0.49))
        assert cyc.points[0] == min(cyc.points)

    def test_no_cycle_in_bracket(self):
        with pytest.raises(ValueError):
            find_cycle(make_tent(1.2), 3, Interval(0.05, 0.1))


def test_make_cycle_packages_orbit():
    m = make_tent(1.2)
    pi = 1.2 / 2.2
    cyc = make_cycle(m, pi, 1)
    assert cyc.points == (pytest.approx(pi),)
    assert cyc.multiplier == pytest.approx(-1.2)


def test_multiplier_magnitude_is_slope_power():
    m = make_tent(1.7)
    cyc = find_cycle(m, 2, Interval(0.35, 0.49))
    assert abs(cyc.multiplier) == pytest.approx(1.7 ** 2)


def test_multiplier_rejects_critical_point():
    with pytest.raises(ValueError, match="passes through the critical point"):
        make_cycle(make_tent(2.0), 0.5, 1)


def test_make_cycle_refuses_a_point_that_is_not_periodic():
    # 0.3 -> 0.45 -> 0.675 under T_1.5: the orbit does not close
    with pytest.raises(ValueError, match="not a genuine cycle"):
        make_cycle(make_tent(1.5), 0.3, 2)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call,limit", [
    (lambda: dense_backward_orbit(make_tent(1.8), _NAN), r"delta=nan must be positive and finite"),
    (lambda: dense_backward_orbit(make_tent(1.8), _INF), r"delta=inf must be positive and finite"),
    (lambda: expansion_bound(make_tent(1.8), 0.4, _NAN), r"\[0.4, nan\] is empty: need lo < hi"),
    (lambda: expansion_bound(make_tent(1.8), _NAN, 0.6), r"\[nan, 0.6\] is empty: need lo < hi"),
    (lambda: find_cycle(make_tent(1.5), 0, Interval(0.3, 0.49)), r"period=0 must be at least 1"),
    (lambda: find_cycle(make_tent(1.5), -1, Interval(0.3, 0.49)), r"period=-1 must be at least 1"),
    (lambda: make_cycle(make_tent(1.5), 0.3, 0), r"period=0 must be at least 1"),
    (lambda: make_cycle(make_tent(1.5), 0.3, -1), r"period=-1 must be at least 1"),
], ids=["dense-nan-delta", "dense-inf-delta", "bound-nan-hi", "bound-nan-lo",
        "find-period-0", "find-period--1", "make-period-0", "make-period--1"])
def test_invalid_input_is_refused_naming_the_limit(call, limit):
    with pytest.raises(ValueError, match=limit):
        call()


@settings(max_examples=100, deadline=None)
@given(s=st.floats(1.05, 2.0), x=st.floats(0.01, 0.99), m_steps=st.integers(1, 8), n_steps=st.integers(1, 8))
def test_iterate_composition(s, x, m_steps, n_steps):
    m = make_tent(s)
    whole = m.iterate(x, m_steps + n_steps)
    split = m.iterate(m.iterate(x, m_steps), n_steps)
    assert whole == pytest.approx(split, abs=1e-9 * (m_steps + n_steps))
