import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unimodal import (
    Interval,
    PiecewiseMap,
    analytic_nodes,
    chain_classes,
    hausdorff,
    make_logistic,
    make_tent,
    make_tu,
    merge_intervals,
    subtract_intervals,
    tu_skeleton,
)
from unimodal import backward, maps
from unimodal.backward import build_backward_tree
from unimodal.cli import match_nodes
from unimodal.maps import TU_BASE_MU, MapStack, bisect_root, runs


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


def reference_preimages(m, y):
    # Scalar branch walk: each branch inverted on its own, roots kept within
    # 1e-12 of the branch domain and clipped to it, then sorted and deduped
    # against the last root kept.
    xs = []
    for b in m.branches:
        lo, hi = b.domain.lo, b.domain.hi
        if b.shape[0] == "affine":
            _, slope, icpt = b.shape
            roots = [(y - icpt) / slope] if slope != 0.0 else []
        else:
            _, a = b.shape
            disc = 1.0 - 4.0 * y / a
            r = math.sqrt(disc) if disc >= 0.0 else None
            roots = [] if r is None else [(1.0 - r) / 2.0, (1.0 + r) / 2.0]
        xs += [min(max(x, lo), hi) for x in roots if lo - 1e-12 <= x <= hi + 1e-12]
    out = []
    for x in sorted(xs):
        if not out or x - out[-1] > 1e-12:
            out.append(x)
    return out


def reference_hausdorff(a, b):
    # Every point scans every interval: the distance from a point to a union
    # is the least distance to an endpoint of an interval not covering it.
    a, b = merge_intervals(a), merge_intervals(b)

    def to_union(x, ivs):
        best = math.inf
        for iv in ivs:
            if iv.lo <= x <= iv.hi:
                return 0.0
            best = min(best, abs(x - iv.lo), abs(x - iv.hi))
        return best

    def directed(a_ivs, b_ivs):
        cands = []
        for iv in a_ivs:
            cands.append(iv.lo)
            cands.append(iv.hi)
        for g0, g1 in zip(b_ivs[:-1], b_ivs[1:]):
            mid = 0.5 * (g0.hi + g1.lo)
            for iv in a_ivs:
                if iv.lo <= mid <= iv.hi:
                    cands.append(mid)
                    break
        return max(to_union(x, b_ivs) for x in cands)

    return max(directed(a, b), directed(b, a))


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


closed_intervals = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda t: Interval(min(t), max(t))),
    max_size=6)


# points, unions with shared endpoints and intervals on a coarse lattice,
# and arbitrary floats
_ends = st.one_of(st.integers(0, 16).map(lambda k: k / 16), st.floats(0.0, 1.0))
some_intervals = st.lists(
    st.tuples(_ends, _ends).map(lambda t: Interval(min(t), max(t))), min_size=1, max_size=12)


@settings(max_examples=500, deadline=None)
@given(a=some_intervals, b=some_intervals)
@example(a=[Interval(0.5, 0.5)], b=[Interval(0.0, 0.25), Interval(0.75, 1.0)])
def test_hausdorff_equals_the_scan_of_every_interval(a, b):
    assert hausdorff(a, b) == reference_hausdorff(a, b)


def test_hausdorff_of_a_class_of_many_runs_is_quick():
    # at 1.8 cell widths the attractor's class splits into 8,247 runs;
    # scanning every run for each of ~25,000 points took 15 s
    cc = chain_classes(make_tent(1.7911), 100_000, 1.8e-5)
    assert [len(cc.support(k)) for k in range(len(cc))] == [1, 8247]
    t0 = time.perf_counter()
    rep = match_nodes(analytic_nodes(1.7911), cc, 4e-5)
    assert time.perf_counter() - t0 < 1.0
    # the distances the scan of every run gives
    assert rep["pairs"] == [[0, 0, 5e-06], [1, 1, 2.4999999999997247e-05]]


def inside(iv, union):
    return any(u.lo <= iv.lo and iv.hi <= u.hi for u in union)


@settings(max_examples=300, deadline=None)
@given(base=closed_intervals, holes=closed_intervals)
@example(base=[Interval(0.0, 1.0)], holes=[Interval(1e-16, 0.5)])
def test_subtract_cuts_exactly(base, holes):
    """The difference only copies endpoints, stays inside base, and with the
    holes put back covers all of base, however thin a piece is."""
    out = subtract_intervals(base, holes)
    ends = {e for iv in base + holes for e in iv}
    assert all(e in ends for iv in out for e in iv)
    whole = merge_intervals(base)
    assert all(inside(iv, whole) for iv in out)
    refilled = merge_intervals(out + holes)
    assert all(inside(iv, refilled) for iv in whole)


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
            assert y == m(float(x))

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
        # every branch strictly monotone on samples, and f(0) = f(1) = 0
        for m in (make_tent(1.5), make_tu(1.0)):
            assert m(0.0) == pytest.approx(0.0, abs=1e-9)
            assert m(1.0) == pytest.approx(0.0, abs=1e-9)
            for b in m.branches:
                xs = np.linspace(b.domain.lo, b.domain.hi, 2_000)
                assert np.all(np.diff(b(xs)) * b.direction > 0)


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
            assert sk[key] == want, key
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

    def test_parameter_past_unit_peak_is_refused(self):
        # the peak of mu_max + 1e-12 is 1.0000000000009637: the map would
        # leave [0, 1]
        mu_max = 4.0 / TU_BASE_MU
        with pytest.raises(ValueError, match=r"outside \[0, 1.0378827192527245\], "
                                             r"where the peak stays at most 1"):
            make_tu(mu_max + 1e-12)
        with pytest.raises(ValueError, match="where the peak stays at most 1"):
            make_tu(float(np.nextafter(mu_max, 2.0)))

    def test_every_accepted_parameter_keeps_the_peak_in_the_domain(self):
        mu_max = 4.0 / TU_BASE_MU
        near_max = [float(mu_max - k * np.spacing(mu_max)) for k in range(200)]
        for mu in near_max + np.linspace(0.0, mu_max, 101).tolist():
            assert make_tu(mu).peak <= 1.0, mu

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


_INVERT_FAMILIES = {
    "tent": (make_tent, st.floats(1.01, 2.0)),
    "logistic": (make_logistic, st.floats(3.0, 4.0)),
    "tu": (make_tu, st.floats(0.99, 1.005)),
}


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(_INVERT_FAMILIES)), data=st.data(),
       drawn=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_preimages_match_scalar_branch_walk(family, data, drawn):
    """The array inversion equals the scalar branch walk value by value, on
    drawn values and on the joint values and the peak, where neighbouring
    branches share a root; a batch call equals the union of single calls."""
    make, params = _INVERT_FAMILIES[family]
    m = make(data.draw(params))
    joints = [float(b(e)) for b in m.branches for e in b.domain]
    ys = sorted(set(drawn + joints + [m.peak]))
    for y in ys:
        assert m.preimages(y) == reference_preimages(m, y), y
    # values far enough apart that no two of them share a preimage within
    # the dedupe tolerance, each passed twice
    apart = [y for y, prev in zip(ys, [-1.0] + ys) if y - prev > 1e-9]
    want = sorted({x for y in apart for x in m.preimages(y)})
    assert m.preimages_array(apart + apart).tolist() == want


def _walked(m, ys):
    # the scalar walk of each value, joined and sorted; a root within the
    # dedupe tolerance of the one before it is a root found twice
    xs = np.sort([x for y in ys for x in reference_preimages(m, float(y))])
    return xs[np.r_[True, np.diff(xs) > 1e-12]] if len(xs) else xs


def _batches(m, row, rng):
    # a sorted tree row, shuffled, with repeats sorted and shuffled, and
    # the joint values, 0 and the peak, where neighbouring laps share roots
    special = np.array([float(b(e)) for b in m.branches for e in b.domain] + [0.0, m.peak])
    return [row, rng.permutation(row), np.repeat(row, 2),
            rng.permutation(np.concatenate([row, row[::3]])),
            special, np.sort(np.concatenate([row, special]))]


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(*(params.map(make) for make, params in _INVERT_FAMILIES.values())),
       u=st.floats(0.0, 1.0), depth=st.integers(0, 9), seed=st.integers(0, 2**32 - 1),
       block=st.integers(1, 64))
@example(m=make_logistic(3.9), u=1.0, depth=3, seed=0, block=1)
def test_lap_order_never_changes_a_row(m, u, depth, seed, block):
    """Joining the laps in domain order, falling laps reversed, sorting in
    place and comparing the gaps a block at a time gives the scalar walk's
    roots of every value, whatever the order of the values, and with the
    values repeated."""
    row = build_backward_tree(m, u * m.peak, depth).levels[-1]
    for ys in _batches(m, row, np.random.default_rng(seed)):
        with mock.patch.object(maps, "_BLOCK", block):
            got = m.preimages_array(ys)
        assert np.array_equal(got, _walked(m, ys))


@pytest.mark.parametrize("m, x", [(make_tent(2.0), 0.5), (make_tent(1.7), 0.5),
                                  (make_logistic(3.9), 0.5), (make_tu(1.0), 0.5)],
                         ids=lambda v: getattr(v, "label", v))
def test_lap_order_never_changes_a_capped_row(m, x):
    """A thinned row, every 100th point of it to keep the scalar walk
    short, with the gaps compared 7 roots at a time."""
    tree = build_backward_tree(m, x, 24)
    capped = [r for r in tree.levels if len(r) == backward._LEVEL_CAP]
    assert tree.truncated and capped
    for ys in _batches(m, capped[-1][::100], np.random.default_rng(0)):
        with mock.patch.object(maps, "_BLOCK", 7):
            got = m.preimages_array(ys)
        assert np.array_equal(got, _walked(m, ys))


def test_preimages_array_peak_is_the_join_of_its_laps(traced_peak):
    """Inverting a capped row of 200,000 points gives 400,000 roots.  Only
    the laps' roots and their join, two 8-byte arrays of the roots, are
    alive at once: 16.0 bytes a root.  The sort is in place, the gaps are
    compared a block at a time and nothing is dropped here, so no copy of
    the roots is made.  A sorted copy of the join, with the whole row's
    np.diff and the mask beside it, took 17.0 bytes a root."""
    m = make_tent(2.0)
    row = build_backward_tree(m, 0.5, 24).levels[-1]
    assert len(row) == backward._LEVEL_CAP
    m.preimages_array(row[:100])
    roots = 2 * len(row)
    assert traced_peak(m.preimages_array, row) < 2 * 8 * roots + roots // 2


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


def reference_eval(m, x):
    # Per-branch loop: every branch evaluated on the whole array, and its
    # own points (those right of every joint at or below them) selected
    # with copyto.
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted([b.domain.hi for b in m.branches[:-1]], x, side="right")
    out = np.empty_like(x)
    for i, b in enumerate(m.branches):
        np.copyto(out, b(x), where=idx == i)
    return out


def bits(values):
    # float64 values as their bit patterns, so -0.0 differs from 0.0
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_TU_MAX = 4.0 / TU_BASE_MU

_EVAL_FAMILIES = {
    "tent": (make_tent, st.floats(0.0, 2.0, exclude_min=True)),
    "logistic": (make_logistic, st.floats(0.0, 4.0, exclude_min=True)),
    "tu": (make_tu, st.floats(0.0, _TU_MAX)),
}


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(_EVAL_FAMILIES)), data=st.data(),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=50))
def test_array_eval_is_the_branch_loop_and_the_scalar_call_bit_for_bit(family, data, drawn):
    """The table-driven array call equals the per-branch loop in every bit,
    a signed zero included, and every element equals the scalar call, on
    drawn points, every joint, the critical point and both ends of the
    domain."""
    make, params = _EVAL_FAMILIES[family]
    m = make(data.draw(params))
    xs = np.array(drawn + [e for b in m.branches for e in b.domain] + [m.critical, 0.0, 1.0])
    got = bits(m(xs))
    assert got == bits(reference_eval(m, xs))
    assert got == bits([m(float(x)) for x in xs])
    # a point's branch is the one right of every joint at or below it
    assert [m.branch_index(float(x)) for x in xs] == \
        [sum(b.domain.hi <= x for b in m.branches[:-1]) for x in xs]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mus=st.lists(st.floats(0.0, _TU_MAX), max_size=5),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_stacked_eval_is_each_maps_own_array_call(data, mus, drawn):
    """Row r of a stack of u_1 scaled by mus[r] evaluates like
    make_tu(mus[r])'s own array call, and its slopes like that map's scalar
    slope_at, in every bit, a signed zero included, on drawn points and
    every joint, with each row's points in its own order, for drawn mus
    and 0, 1 and the top of the range; a taken row evaluates like the row
    it was taken from."""
    mus = mus + [0.0, 1.0, _TU_MAX]
    maps = [make_tu(mu) for mu in mus]
    stack = MapStack(make_tu(1.0), mus)
    xs = np.array(drawn + [e for b in maps[0].branches for e in b.domain])
    x = np.array([np.roll(xs, r) for r in range(len(maps))])
    got, slopes = stack(x), stack.slope_at(x)
    for r, m in enumerate(maps):
        assert bits(got[r]) == bits(m(x[r]))
        assert bits(slopes[r]) == bits([m.slope_at(float(v)) for v in x[r]])
    rows = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=1, max_size=8))
    taken = stack.take(np.array(rows))
    assert taken(x[rows]).tolist() == [maps[r](x[r]).tolist() for r in rows]
    assert taken(x[rows, 0]).tolist() == [maps[r](float(x[r, 0])) for r in rows]


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(sorted(_EVAL_FAMILIES)), data=st.data(),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_stack_of_one_is_the_map(family, data, drawn):
    """MapStack(m, [1.0]) evaluates and slopes like m itself, bit for bit,
    on drawn points, every joint and the critical point, and so does every
    row taken from it."""
    make, params = _EVAL_FAMILIES[family]
    m = make(data.draw(params))
    stack = MapStack(m, [1.0])
    xs = np.array(drawn + [e for b in m.branches for e in b.domain] + [m.critical])
    assert stack(xs[None])[0].tolist() == m(xs).tolist()
    assert stack.slope_at(xs[None])[0].tolist() == [m.slope_at(float(v)) for v in xs]
    taken = stack.take(np.zeros(3, dtype=int))
    assert taken(np.array([xs] * 3)).tolist() == [m(xs).tolist()] * 3


def reference_bisect(g, lo, hi, tol):
    # The scalar loop on Python floats: halve, keep the sign change, stop
    # at the first hi - lo < tol.
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if glo * gmid <= 0:
            hi = mid
        else:
            lo, glo = mid, gmid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tol=st.sampled_from([1e-14, 1e-12, 1e-6, 1e-2]),
       mus=st.lists(st.floats(0.0, _TU_MAX), min_size=1, max_size=6))
def test_array_bisect_is_the_scalar_runs(data, tol, mus):
    """Each bracket of an array bisection stops at its own first
    hi - lo < tol and ends where a scalar run on it alone ends."""
    maps = [make_tu(mu) for mu in mus]
    ends = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                              min_size=len(maps), max_size=len(maps)))
    lo = np.array([min(e) for e in ends])
    hi = np.array([max(e) for e in ends])
    stack = MapStack(make_tu(1.0), mus)
    got = bisect_root(lambda x: stack.iterate(x, 3) - x, lo, hi, tol)
    for r, m in enumerate(maps):
        g = lambda x: m.iterate(x, 3) - x
        want = reference_bisect(g, float(lo[r]), float(hi[r]), tol)
        assert got[r] == want
        assert bisect_root(g, float(lo[r]), float(hi[r]), tol) == want


def reference_runs(values, gap):
    # one value at a time: a value more than gap above the last one opens a run
    out = []
    for v in values:
        if out and v - out[-1][1] <= gap:
            out[-1][1] = v
        else:
            out.append([v, v])
    return [tuple(r) for r in out]


@pytest.mark.parametrize("values,gap,want", [
    ([], 1, []),
    ([7], 1, [(7, 7)]),
    ([3, 3, 3], 0, [(3, 3)]),
    ([0, 1, 2, 4, 5, 9], 1, [(0, 2), (4, 5), (9, 9)]),
    ([0, 2, 4, 7], 2, [(0, 4), (7, 7)]),
    ([0.0, 0.25, 0.5, 1.0, 1.25], 0.25, [(0.0, 0.5), (1.0, 1.25)]),
])
def test_runs_by_hand(values, gap, want):
    got = runs(np.array(values), gap)
    assert got == want
    assert all(type(v) is type(w) for r, q in zip(got, want) for v, w in zip(r, q))


@settings(max_examples=200, deadline=None)
@given(gap=st.integers(0, 3), steps=st.lists(st.integers(0, 6), max_size=40),
       start=st.integers(-1000, 1000), block=st.integers(1, 64))
@example(gap=2, steps=[0, 1, 4, 1, 3], start=0, block=2)
def test_runs_of_ints_are_the_loop(gap, steps, start, block):
    # steps of 0 (equal values) and of exactly gap come up often; the steps
    # are taken a block at a time, so runs cross the blocks' ends
    values = start + np.cumsum(np.array(steps, dtype=np.int64))
    with mock.patch.object(maps, "_BLOCK", block):
        got = runs(values, gap)
    assert got == reference_runs(values.tolist(), gap)
    assert all(type(v) is int for r in got for v in r)


@settings(max_examples=200, deadline=None)
@given(gap=st.sampled_from([0.0, 0.125, 5e-3, 1.0]),
       ks=st.lists(st.integers(0, 400), max_size=40),
       noise=st.lists(st.floats(0.0, 1.0), max_size=40), block=st.integers(1, 64))
def test_runs_of_floats_are_the_loop(gap, ks, noise, block):
    # multiples of the gaps 0.125 and 1.0 differ by exactly gap, and drawn
    # floats add steps of every size; the loop subtracts as np.diff does
    values = np.sort(np.array([k * gap for k in ks] + noise, dtype=float))
    with mock.patch.object(maps, "_BLOCK", block):
        got = runs(values, gap)
    assert got == reference_runs(values.tolist(), gap)
    assert all(type(v) is float for r in got for v in r)
