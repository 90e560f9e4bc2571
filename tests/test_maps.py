import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimodal import (
    Interval,
    PiecewiseMap,
    hausdorff,
    make_logistic,
    make_tent,
    make_tu,
    merge_intervals,
    subtract_intervals,
    tu_skeleton,
)


def reference_interval_image(m, lo, hi):
    # Branch walk: the extrema of a piecewise monotone map on [lo, hi] lie
    # at its endpoints or at branch joints inside it.
    vals = [m(lo), m(hi)]
    for b in m.branches:
        if lo < b.domain.hi and b.domain.lo < hi:
            for e in (b.domain.lo, b.domain.hi):
                if lo <= e <= hi:
                    vals.append(float(b(e)))
    return min(vals), max(vals)


# endpoints of the chord inserts for the u family, solved from the base map
SKELETON = {
    "p1": 0.5528783441427031,
    "p2": 0.9527237562976776,
    "p3": 0.1735887866642609,
    "q1": 0.4471216558572969,
    "q2": 0.9639409683358996,
    "q3": 0.13396033002485666,
    "lam": 3.578502451760664,
}


class TestInterval:
    def test_basics(self):
        iv = Interval(0.2, 0.7)
        assert iv.length == pytest.approx(0.5)
        assert iv.contains(0.2) and iv.contains(0.7) and not iv.contains(0.71)

    def test_merge_overlapping(self):
        out = merge_intervals([Interval(0.0, 0.3), Interval(0.2, 0.5), Interval(0.7, 0.8)])
        assert [(iv.lo, iv.hi) for iv in out] == [(0.0, 0.5), (0.7, 0.8)]

    def test_merge_with_tolerance(self):
        a = Interval(0.0, 0.5)
        b = Interval(0.5 + 1e-13, 1.0)
        assert len(merge_intervals([a, b])) == 2
        assert len(merge_intervals([a, b], tol=1e-12)) == 1

    def test_subtract(self):
        out = subtract_intervals([Interval(0.0, 1.0)], [Interval(0.2, 0.3), Interval(0.6, 0.7)])
        assert [(iv.lo, iv.hi) for iv in out] == [(0.0, 0.2), (0.3, 0.6), (0.7, 1.0)]

    def test_subtract_everything(self):
        assert subtract_intervals([Interval(0.1, 0.2)], [Interval(0.0, 1.0)]) == []

    def test_hausdorff_points_vs_hull(self):
        a = [Interval(0.0, 0.0), Interval(1.0, 1.0)]
        b = [Interval(0.0, 1.0)]
        assert hausdorff(a, b) == pytest.approx(0.5)
        assert hausdorff(a, a) == 0.0


class TestTentFamily:
    def test_eval(self):
        m = make_tent(1.8)
        assert m(0.3) == pytest.approx(0.54)
        assert m(0.7) == pytest.approx(0.54)
        assert m(0.5) == pytest.approx(0.9)

    def test_boundary_fixed_exact(self):
        # both endpoints land on 0 with no rounding at all
        for s in (1.3, 1.8, 2.0):
            m = make_tent(s)
            assert m(0.0) == 0.0
            assert m(1.0) == 0.0

    def test_label_and_parameter(self):
        from unimodal.structure import tent_parameter

        m = make_tent(1.4)
        assert m.label == "tent:1.4"
        assert tent_parameter(m) == 1.4
        with pytest.raises(ValueError):
            tent_parameter(make_logistic(3.6))

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            make_tent(0.0)
        with pytest.raises(ValueError):
            make_tent(2.5)

    def test_array_eval_matches_scalar(self):
        m = make_tent(1.7)
        xs = np.linspace(0, 1, 101)
        out = m(xs)
        assert out.shape == xs.shape
        for x, y in zip(xs, out):
            assert y == pytest.approx(m(float(x)), abs=1e-15)

    def test_iterate_composes(self):
        m = make_tent(1.9)
        x = 0.123
        assert m.iterate(x, 7) == pytest.approx(m.iterate(m.iterate(x, 3), 4), abs=1e-9)

    def test_preimages(self):
        m = make_tent(1.8)
        assert m.preimages(0.18) == pytest.approx([0.1, 0.9])
        assert m.preimages(0.9) == pytest.approx([0.5])
        assert m.preimages(0.95) == []

    def test_interval_image_straddling_peak(self):
        m = make_tent(2.0)
        lo, hi = m.interval_image(0.4, 0.6)
        assert (lo, hi) == (0.8, 1.0)

    def test_interval_preimage_two_components(self):
        m = make_tent(1.8)
        pieces = m.interval_preimage(0.18, 0.36)
        assert len(pieces) == 2
        assert pieces[0].lo == pytest.approx(0.1)
        assert pieces[1].hi == pytest.approx(0.9)

    def test_is_unimodal(self):
        assert make_tent(1.5).is_unimodal()[0] == "ok"
        assert make_tu(1.0).is_unimodal()[0] == "ok"


class TestConjugate:
    def test_tent_mirror(self):
        m = make_tent(1.6)
        assert m.conjugate(0.3) == pytest.approx(0.7)

    def test_critical_rejected(self):
        with pytest.raises(ValueError):
            make_tent(1.6).conjugate(0.5)

    def test_u_family_cycle_edge(self):
        u = make_tu(1.0)
        sk = tu_skeleton()
        assert u.conjugate(sk["q1"]) == pytest.approx(sk["p1"], abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(1.05, 2.0),
        x=st.floats(0.001, 0.999),
    )
    def test_involution(self, s, x):
        """conjugate is its own inverse and preserves the map value."""
        m = make_tent(s)
        if abs(x - m.critical) < 1e-6:
            return
        y = m.conjugate(x)
        assert m.conjugate(y) == pytest.approx(x, abs=1e-12)
        assert m(y) == pytest.approx(m(x), abs=1e-12)


class TestLogistic:
    def test_peak(self):
        m = make_logistic(3.6)
        assert m.critical == 0.5
        assert m(0.5) == pytest.approx(0.9)

    def test_fixed_point(self):
        m = make_logistic(3.2)
        p = 1 - 1 / 3.2
        assert m(p) == pytest.approx(p)


class TestTuFamily:
    def test_skeleton_frozen(self):
        sk = tu_skeleton()
        for key, want in SKELETON.items():
            assert sk[key] == pytest.approx(want, abs=1e-12), key
        # all stored as plain floats, not numpy scalars
        assert all(type(v) is float for v in sk.values())

    def test_skeleton_geometry(self):
        sk = tu_skeleton()
        assert sk["q1"] == pytest.approx(1 - sk["p1"], abs=1e-15)
        assert 0 < sk["q3"] < sk["p3"] < sk["q1"] < 0.5 < sk["p1"] < sk["p2"] < sk["q2"] < 1

    def test_period3_survives(self):
        u = make_tu(1.0)
        sk = tu_skeleton()
        assert u(sk["p1"]) == pytest.approx(sk["p2"], abs=1e-9)
        assert u(sk["p2"]) == pytest.approx(sk["p3"], abs=1e-9)
        assert u(sk["p3"]) == pytest.approx(sk["p1"], abs=1e-9)

    def test_boundary_near_zero(self):
        u = make_tu(1.0)
        assert abs(u(0.0)) <= 1e-9

    def test_peak_at_max_parameter(self):
        mu_max = 4.0 / 3.854
        u = make_tu(mu_max)
        assert u(u.critical) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            make_tu(1.2)

    def test_chord_is_affine_on_insert(self):
        # on [q3, p3] the map is a straight chord: midpoint value matches
        u = make_tu(1.0)
        sk = tu_skeleton()
        a, b = sk["q3"], sk["p3"]
        mid = 0.5 * (a + b)
        assert u(mid) == pytest.approx(0.5 * (u(a) + u(b)), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(1.01, 2.0), y=st.floats(0.0, 1.0))
def test_preimages_are_genuine(s, y):
    m = make_tent(s)
    pts = m.preimages(y)
    for x in pts:
        assert abs(m(x) - y) <= 1e-12
    if len(pts) == 2:
        assert pts[0] < m.critical < pts[1]


_IMAGE_FAMILIES = {
    "tent": (make_tent, st.floats(1.01, 2.0), 0.0),
    "logistic": (make_logistic, st.floats(0.5, 4.0), 0.0),
    "tu": (make_tu, st.floats(0.99, 1.005), 1e-15),
}


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(_IMAGE_FAMILIES)), data=st.data(),
       ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=20))
def test_interval_image_matches_branch_walk(family, data, ends):
    """The unimodal closed form equals the branch walk, and an array call
    equals the scalar calls element by element."""
    make, params, tol = _IMAGE_FAMILIES[family]
    m = make(data.draw(params))
    ivs = [(min(a, b), max(a, b)) for a, b in ends]
    for lo, hi in ivs:
        got = m.interval_image(lo, hi)
        want = reference_interval_image(m, lo, hi)
        assert all(type(v) is float for v in got)
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol
    los, his = m.interval_image(np.array([a for a, _ in ivs]), np.array([b for _, b in ivs]))
    assert los.tolist() == [m.interval_image(lo, hi)[0] for lo, hi in ivs]
    assert his.tolist() == [m.interval_image(lo, hi)[1] for lo, hi in ivs]


def test_interval_image_rejects_points_outside_the_domain():
    with pytest.raises(ValueError):
        make_tent(1.8).interval_image(0.2, 1.5)
