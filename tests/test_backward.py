import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from unimodal import (
    build_backward_tree,
    compare_salpha,
    dense_backward_orbit,
    make_logistic,
    make_tent,
    make_tu,
    predicted_salpha,
    salpha,
)
import unimodal.backward as backward
from unimodal.maps import TU_BASE_MU, Interval, runs
from unimodal.backward import _LEVEL_CAP, _RETURN_STEPS, _returns_mask, _thin


class TestBackwardTree:
    def test_root_row(self):
        t = build_backward_tree(make_tent(1.8), 0.3, 4)
        assert list(t.levels[0]) == [0.3]
        assert t.depth == 4

    def test_rows_sorted_and_genuine(self):
        m = make_tent(1.7)
        t = build_backward_tree(m, 0.4, 10)
        for k in range(1, 11):
            row = t.levels[k]
            assert np.all(np.diff(row) > 0)
            up = m(row)
            prev = t.levels[k - 1]
            for y in up:
                assert np.min(np.abs(prev - y)) <= 1e-9

    def test_point_above_peak_has_no_preimages(self):
        t = build_backward_tree(make_tent(1.8), 0.95, 6)
        for k in range(1, 7):
            assert len(t.levels[k]) == 0

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            build_backward_tree(make_tent(1.8), 0.3, 60)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            build_backward_tree(make_tent(1.8), 1.2, 4)

    def test_truncation_flag(self):
        # full binary tree at s=2 overflows the level cap past depth 17
        t = build_backward_tree(make_tent(2.0), 0.3, 20)
        assert t.truncated
        assert len(t.levels[20]) <= 200_000


def assert_thinned(row, cap):
    out = _thin(row, cap)
    assert len(out) == cap
    assert np.all(np.diff(out) > 0)
    assert out[0] == row[0] and out[-1] == row[-1]


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(2, 5000), extra=st.integers(1, 20_000))
def test_thin_keeps_cap_increasing_points_and_both_extremes(cap, extra):
    assert_thinned(np.linspace(0.0, 1.0, cap + extra), cap)


@pytest.mark.parametrize("cap,size", [(512, 10**6), (_LEVEL_CAP, _LEVEL_CAP + 1),
                                      (_LEVEL_CAP, 8 * _LEVEL_CAP)])
def test_thin_at_the_caps_in_use(cap, size):
    assert_thinned(np.linspace(0.0, 1.0, size), cap)


def test_thin_leaves_a_row_within_the_cap():
    row = np.arange(5.0)
    assert _thin(row, 5) is row


def reference_returns(m, ys, r):
    # one probe per point: True where some image of [y - r, y + r] within
    # the domain holds y, within _RETURN_STEPS forward steps
    lo = np.clip(ys - r, m.domain.lo, m.domain.hi)
    hi = np.clip(ys + r, m.domain.lo, m.domain.hi)
    acc = np.zeros(len(ys), bool)
    for _ in range(_RETURN_STEPS):
        lo, hi = m.interval_image(lo, hi)
        acc |= (lo <= ys) & (ys <= hi)
        if acc.all():
            break
    return acc


def deep_points(tree, from_depth):
    # the distinct points of rows from_depth on, sorted
    return np.unique(np.concatenate(tree.levels[from_depth:]))


class TestReturnProbe:
    @pytest.mark.parametrize("m", [make_tu(1.0), make_tu(1.003), make_logistic(3.9)],
                             ids=lambda m: m.label.split("|")[0])
    @pytest.mark.parametrize("r", [2e-3, 1e-5])
    def test_matches_per_point_reference(self, m, r):
        ys = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 400))
        got = _returns_mask(m, ys, r)
        assert got.tolist() == reference_returns(m, ys, r).tolist()

    @pytest.mark.parametrize("m", [make_tent(1.05), make_tent(1.4), make_tent(1.8),
                                   make_tent(2.0), make_tu(1.0), make_tu(1.003),
                                   make_logistic(3.9)],
                             ids=lambda m: m.label.split("|")[0])
    @pytest.mark.parametrize("r", [2e-3, 1e-5])
    def test_clustered_points_match_per_point_reference(self, m, r, monkeypatch):
        """Many points per bin of the bracket, the domain ends and c, the
        bins cut a block at a time, one point a block included.  Any bins of
        consecutive sorted points give these verdicts, so the bins are a
        cost that only a spy sees: the bracket loop gets one bin per key of
        r/8 of the points."""
        rng = np.random.default_rng(11)
        centres = rng.uniform(0.0, 1.0, 20)
        ys = (centres[:, None] + rng.uniform(-r / 8, r / 8, (20, 100))).ravel()
        ys = np.sort(np.r_[np.clip(ys, 0.0, 1.0), 0.0, 1.0, m.critical])
        want = reference_returns(m, ys, r).tolist()
        key = np.floor(ys / (r / 8.0))
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(ys)] - 1
        seen, brackets = [], backward._brackets

        def spy(m, b0, b1, r, pad):
            if pad:
                seen.append((b0.copy(), b1.copy()))
            return brackets(m, b0, b1, r, pad)

        monkeypatch.setattr(backward, "_brackets", spy)
        for block in (1, 64, backward._BLOCK):
            with mock.patch.object(backward, "_BLOCK", block):
                assert _returns_mask(m, ys, r).tolist() == want
            (b0, b1), = seen
            assert np.array_equal(b0, ys[starts]) and np.array_equal(b1, ys[ends])
            seen.clear()

    def test_empty_points(self):
        out = _returns_mask(make_tu(1.0), np.empty(0), 2e-3)
        assert out.dtype == bool and out.shape == (0,)

    def test_few_points_reach_the_per_point_probe(self, monkeypatch):
        # the unpadded call of the bracket loop is the per-point probe
        seen = []
        brackets = backward._brackets

        def spy(m, b0, b1, r, pad):
            if pad == 0.0:
                seen.append(len(b0))
            return brackets(m, b0, b1, r, pad)

        monkeypatch.setattr(backward, "_brackets", spy)
        est = salpha(make_tent(1.8), 0.5, depth=24)
        assert est.candidates > 1_000_000
        assert 0 < sum(seen) < 0.01 * est.candidates


_MAPS = st.one_of(st.floats(1.0, 2.0, exclude_min=True).map(make_tent),
                 st.floats(0.9, 4.0 / TU_BASE_MU).map(make_tu),
                 st.floats(3.0, 4.0).map(make_logistic))


@settings(max_examples=40, deadline=None)
@given(m=_MAPS, x=st.floats(0.0, 1.0), depth=st.integers(0, 12))
def test_tree_rows_are_the_rows_built_one_by_one(m, x, depth):
    """The rows share one array, grown by each row in place; each is the
    row its own preimage call gives."""
    tree = build_backward_tree(m, x, depth)
    row = np.array([x], dtype=float)
    assert np.array_equal(tree.levels[0], row)
    for k in range(1, depth + 1):
        row = m.preimages_array(row)
        assert np.array_equal(tree.levels[k], row)
        assert tree.levels[k].base is tree.levels[0].base


@settings(max_examples=40, deadline=None)
@given(m=_MAPS, x=st.floats(0.0, 1.0), depth=st.integers(0, 10), block=st.integers(1, 64))
@example(m=make_tent(1.8), x=0.0, depth=6, block=1)
def test_salpha_keeps_the_distinct_deep_points_that_return(m, x, depth, block):
    """salpha sorts the points of rows depth // 2 on and probes them,
    repeats included; it keeps the distinct ones whose probe returns and
    clusters them.  The sort and the compaction work in place on the tree's
    own array, the compaction and the probe's bins a block at a time, and
    any block size gives the same estimate.  At x = 0 every row holds 0 and
    1, so repeats meet across the blocks."""
    tree = build_backward_tree(m, x, depth)
    rows = np.sort(np.concatenate(tree.levels[depth // 2:]))
    pts = np.unique(rows)
    kept = pts[reference_returns(m, pts, backward._PROBE_RADIUS)]
    seen, returns_mask = [], backward._returns_mask

    def spy(m, ys, r):
        seen.append(ys.copy())
        return returns_mask(m, ys, r)

    with mock.patch.object(backward, "_BLOCK", block), \
            mock.patch.object(backward, "_returns_mask", spy):
        est = salpha(m, x, depth)
    (probed,) = seen
    assert np.all(probed[1:] >= probed[:-1])
    assert np.array_equal(probed, rows)
    assert est.candidates == len(pts)
    assert est.n_points == len(kept)
    assert est.intervals == tuple(Interval(a, b) for a, b in runs(kept, backward._CLUSTER_GAP))


def test_salpha_peak_is_its_tree_and_points_plus_two_per_point(traced_peak):
    """The tree rows and a copy of the deep points, with two bytes a point
    on top, bound what salpha holds: the rows are one array, and the deep
    points are sorted out on its tail, so no copy of them is made.  It
    reads 4.1 bytes a point below that bound's base.  A copy of the deep
    points with two 8-byte arrays of them on top (the rows' join, the
    probe's bin keys) was the old bound; sorting copies, an argsort and an
    int64 bin index held 41 bytes a point over the base."""
    m = make_tent(2.0)
    salpha(m, 0.5, 10)
    tree = build_backward_tree(m, 0.5, 24)
    pts = deep_points(tree, 12)
    held = sum(r.nbytes for r in tree.levels) + pts.nbytes
    points = len(pts)
    del tree, pts
    assert points > 1_000_000
    assert traced_peak(salpha, m, 0.5, 24) < held + 2 * points


def test_salpha_peak_is_two_arrays_of_its_points(traced_peak):
    """One 8-byte array of the points is alive: the tree's rows, grown in
    place row by row, whose deep tail is sorted, cleared of repeats and
    of the points that do not return in place.  On top of it the peak is
    the last row's roots as the tree is built (a capped row of 200,000
    points has 400,000 roots and their laps), 3.9 bytes a point here, then
    the probe's byte-a-point masks.  It reads 11.9 bytes a point, within
    13; the joined rows beside the distinct points, or the points beside
    the probe's bin keys, took 18.0, and holding the tree through the join
    25."""
    m = make_tent(2.0)
    salpha(m, 0.5, 10)
    points = len(deep_points(build_backward_tree(m, 0.5, 24), 12))
    assert points > 1_000_000
    assert traced_peak(salpha, m, 0.5, 24) < 8 * points + 5 * points


@settings(max_examples=15, deadline=None)
@given(s=st.floats(1.0, 2.0, exclude_min=True))
def test_bracketed_probe_equals_per_point_probe(s):
    m = make_tent(s)
    ys = deep_points(build_backward_tree(m, 0.5, 20), 10)
    assert np.array_equal(_returns_mask(m, ys, 2e-3), reference_returns(m, ys, 2e-3))


class TestPrediction:
    def test_level_zero_is_origin_only(self):
        pred = predicted_salpha(1.6, 0.2)
        assert pred.level == 0
        assert [(iv.lo, iv.hi) for iv in pred.intervals] == [(0.0, 0.0)]

    def test_level_one_adds_first_node(self):
        pred = predicted_salpha(1.6, 0.5)
        assert pred.level == 1
        assert len(pred.intervals) == 2

    def test_gap_point_predicts_fixed_points(self):
        pred = predicted_salpha(1.2, 0.5455)
        assert pred.level == 1
        assert pred.intervals[0].lo == 0.0
        assert pred.intervals[1].lo == pytest.approx(1.2 / 2.2)

    def test_above_peak_is_empty(self):
        pred = predicted_salpha(1.8, 0.95)
        assert pred.level == -1
        assert pred.intervals == ()
        assert "no backward orbits" in pred.note


class TestEstimate:
    def test_empty_for_dead_point(self):
        m = make_tent(1.8)
        est = salpha(m, 0.95, depth=12)
        assert est.intervals == ()
        assert est.degenerate

    def test_attractor_point_fills_the_core(self):
        m = make_tent(1.6)
        est = salpha(m, 0.5, depth=24)
        hull_lo = min(iv.lo for iv in est.intervals)
        hull_hi = max(iv.hi for iv in est.intervals)
        assert hull_lo <= 0.01
        assert hull_hi >= 0.95 * 1.6 * 0.5

    def test_compare_passes_at_canned_points(self):
        for s, x, level in [(1.6, 0.2, 0), (1.2, 0.5455, 1), (1.4, 0.6, 2)]:
            rep = compare_salpha(s, x, depth=30)
            assert rep["level"] == level
            assert rep["passed"], rep

    def test_compare_reports_what_the_probe_saw(self):
        rep = compare_salpha(2.0, 0.5, depth=20)
        assert rep["truncated"] is True
        assert 0 < rep["kept"] <= rep["candidates"]
        est = salpha(make_tent(2.0), 0.5, depth=20)
        assert (rep["candidates"], rep["kept"]) == (est.candidates, est.n_points)

    def test_compare_empty_sides_agree(self):
        rep = compare_salpha(1.8, 0.95, depth=12)
        assert rep["passed"]
        assert rep["hausdorff"] == 0.0
        assert rep["notes"]


class TestDenseOrbit:
    def test_identity_and_coverage(self):
        m = make_tent(1.8)
        orb = dense_backward_orbit(m, 0.02, max_steps=50_000)
        assert orb.covered
        assert orb.identity_error <= 1e-9
        pts = orb.points
        for k in range(len(pts) - 1):
            assert abs(m(pts[k + 1]) - pts[k]) <= 1e-9

    def test_points_stay_in_the_core(self):
        m = make_tent(1.8)
        orb = dense_backward_orbit(m, 0.02, max_steps=50_000)
        assert np.all(orb.points >= 0.18 - 1e-9)
        assert np.all(orb.points <= 0.9 + 1e-9)

    def test_net_density(self):
        m = make_tent(2.0)
        delta = 0.02
        orb = dense_backward_orbit(m, delta, max_steps=50_000)
        assert orb.covered
        targets = np.arange(0.0 + delta / 2, 1.0, delta)
        for t in targets:
            assert np.min(np.abs(orb.points - t)) <= delta / 2 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(1.1, 2.0),
    x=st.floats(0.05, 0.95),
    depth=st.integers(2, 9),
)
def test_tree_soundness(s, x, depth):
    """Iterating f depth times from any leaf reproduces the root."""
    m = make_tent(s)
    t = build_backward_tree(m, x, depth)
    leaves = t.levels[depth]
    if len(leaves) == 0:
        return
    back = m.iterate(leaves, depth)
    assert np.max(np.abs(back - x)) <= 1e-9
