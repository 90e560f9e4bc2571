import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from test_maps import reference_interval_image
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
        assert list(t.row(0)) == [0.3]
        assert t.depth == 4

    def test_rows_sorted_and_genuine(self):
        m = make_tent(1.7)
        t = build_backward_tree(m, 0.4, 10)
        for k in range(1, 11):
            row = t.row(k)
            assert np.all(np.diff(row) > 0)
            up = m(row)
            prev = t.row(k - 1)
            for y in up:
                assert np.min(np.abs(prev - y)) <= 1e-9

    def test_point_above_peak_has_no_preimages(self):
        t = build_backward_tree(make_tent(1.8), 0.95, 6)
        for k in range(1, 7):
            assert len(t.row(k)) == 0

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
        assert len(t.row(20)) <= 200_000


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


def reference_returns(m, ys, r, steps=40):
    # one probe at a time through the branch-walking interval image
    out = []
    for y in ys:
        a, b = max(m.domain.lo, y - r), min(m.domain.hi, y + r)
        for _ in range(steps):
            a, b = reference_interval_image(m, a, b)
            if a <= y <= b:
                out.append(True)
                break
        else:
            out.append(False)
    return np.array(out)


def per_point_returns(m, ys, r):
    # one probe per point, all iterated at once through the array image
    lo = np.clip(ys - r, m.domain.lo, m.domain.hi)
    hi = np.clip(ys + r, m.domain.lo, m.domain.hi)
    acc = np.zeros(len(ys), bool)
    for _ in range(_RETURN_STEPS):
        lo, hi = m.interval_image(lo, hi)
        acc |= (lo <= ys) & (ys <= hi)
        if acc.all():
            break
    return acc


class TestReturnProbe:
    @pytest.mark.parametrize("m", [make_tu(1.0), make_tu(1.003), make_logistic(3.9)],
                             ids=lambda m: m.label.split("|")[0])
    @pytest.mark.parametrize("r", [2e-3, 1e-5])
    def test_matches_per_point_reference(self, m, r):
        ys = np.random.default_rng(7).uniform(0.0, 1.0, 400)
        got = _returns_mask(m, ys, r)
        assert got.tolist() == reference_returns(m, ys, r).tolist()

    @pytest.mark.parametrize("m", [make_tent(1.05), make_tent(1.4), make_tent(1.8),
                                   make_tent(2.0), make_tu(1.0), make_tu(1.003),
                                   make_logistic(3.9)],
                             ids=lambda m: m.label.split("|")[0])
    @pytest.mark.parametrize("r", [2e-3, 1e-5])
    def test_clustered_points_match_per_point_reference(self, m, r):
        # many points per bin of the bracket, the domain ends and c, unsorted
        rng = np.random.default_rng(11)
        centres = rng.uniform(0.0, 1.0, 20)
        ys = (centres[:, None] + rng.uniform(-r / 8, r / 8, (20, 100))).ravel()
        ys = rng.permutation(np.r_[np.clip(ys, 0.0, 1.0), 0.0, 1.0, m.critical])
        got = _returns_mask(m, ys, r)
        assert got.tolist() == reference_returns(m, ys, r).tolist()

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


@pytest.mark.parametrize("m", [make_tent(1.8), make_tent(2.0), make_tu(1.0), make_tu(1.003),
                               make_logistic(3.9)],
                         ids=lambda m: m.label.split("|")[0])
def test_sorted_and_shuffled_points_get_the_same_verdicts(m):
    # deep_points hands the probe sorted points, which skip the sort; any
    # other order is sorted first, and its verdicts go back in its order
    ys = build_backward_tree(m, 0.3, 16).deep_points(8)
    assert len(ys) > 1000 and np.all(np.diff(ys) > 0)
    perm = np.random.default_rng(5).permutation(len(ys))
    shuffled = _returns_mask(m, ys[perm], backward._PROBE_RADIUS)
    back = np.empty_like(shuffled)
    back[perm] = shuffled
    assert np.array_equal(back, _returns_mask(m, ys, backward._PROBE_RADIUS))


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
        assert np.array_equal(tree.row(k), row)
        assert tree.row(k).base is tree.levels[0].base


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
                       max_size=150),
       data=st.data(), block=st.integers(1, 64))
@example(values=[], data=None, block=1)
def test_points_kept_in_place_equal_joined_copies(values, data, block):
    """Sorting out repeats and moving a mask's points to the front, a block
    at a time in the array itself, gives the copies np.unique and a boolean
    index make."""
    pts = np.array(values, dtype=float)
    want = np.unique(pts)
    with mock.patch.object(backward, "_BLOCK", block):
        kept = backward._keep(pts)
        assert np.array_equal(pts[:kept], want)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=kept, max_size=kept))
                        if data else [], bool)
        assert np.array_equal(pts[:backward._keep(pts[:kept], mask)], want[mask])


@st.composite
def _clustered_points(draw):
    # points a bin width apart or less around a few centres, the ends and c
    r = draw(st.sampled_from([2e-3, 1e-5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(0.0, 1.0, draw(st.integers(1, 5)))
    ys = (centres[:, None] + rng.uniform(-r / 4, r / 4, (len(centres), 30))).ravel()
    return np.sort(np.r_[np.clip(ys, 0.0, 1.0), 0.0, 1.0, 0.5]), r


@settings(max_examples=100, deadline=None)
@given(case=_clustered_points(), block=st.integers(1, 64), shuffled=st.booleans())
def test_bins_cut_a_block_at_a_time_equal_one_key_array(case, block, shuffled):
    """The probe's bins, cut a block at a time, are the bins of one floor
    of the whole array's keys; a shuffled input, found out of order a
    block at a time, gets the verdicts of the sorted one."""
    ys, r = case
    m = make_tent(1.8)
    key = np.floor(ys / (r / 8.0))
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(ys)] - 1
    want = _returns_mask(m, ys, r)
    perm = np.random.default_rng(len(ys)).permutation(len(ys)) if shuffled else np.arange(len(ys))
    seen, brackets = [], backward._brackets

    def spy(m, b0, b1, r, pad):
        if pad:
            seen.append((b0.copy(), b1.copy()))
        return brackets(m, b0, b1, r, pad)

    with mock.patch.object(backward, "_BLOCK", block), mock.patch.object(backward, "_brackets", spy):
        got = _returns_mask(m, ys[perm], r)
    assert np.array_equal(got, want[perm])
    (b0, b1), = seen
    assert np.array_equal(b0, ys[starts]) and np.array_equal(b1, ys[ends])


def reference_salpha(m, x, depth):
    # the deep rows joined into one copy, sorted, repeats masked out, and
    # the points that return picked out by a boolean index
    tree = build_backward_tree(m, x, depth)
    pts = np.concatenate(tree.levels[depth // 2:])
    pts.sort()
    pts = pts[np.r_[True, pts[1:] != pts[:-1]][:len(pts)]]
    return len(pts), pts[_returns_mask(m, pts, backward._PROBE_RADIUS)]


@settings(max_examples=40, deadline=None)
@given(m=_MAPS, x=st.floats(0.0, 1.0), depth=st.integers(0, 10), block=st.integers(1, 64))
def test_salpha_in_place_equals_joined_copies(m, x, depth, block):
    """salpha sorts out the repeats and the survivors of the probe in place
    on the tree's own array, a block at a time; any block size gives the
    candidates, survivors and clusters of the joined copies."""
    candidates, kept = reference_salpha(m, x, depth)
    with mock.patch.object(backward, "_BLOCK", block):
        est = salpha(m, x, depth)
    assert est.candidates == candidates
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
    pts = tree.deep_points(12)
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
    points = len(build_backward_tree(m, 0.5, 24).deep_points(12))
    assert points > 1_000_000
    assert traced_peak(salpha, m, 0.5, 24) < 8 * points + 5 * points


@settings(max_examples=40, deadline=None)
@given(m=st.one_of(st.floats(1.0, 2.0, exclude_min=True).map(make_tent),
                   st.floats(0.9, 4.0 / TU_BASE_MU).map(make_tu),
                   st.floats(3.0, 4.0).map(make_logistic)),
       x=st.floats(0.0, 1.0), depth=st.integers(0, 14))
def test_salpha_sees_the_deep_points_of_its_tree(m, x, depth):
    """salpha and deep_points share one helper: the probe sees exactly the
    distinct points of rows depth // 2 on."""
    want = len(build_backward_tree(m, x, depth).deep_points(depth // 2))
    assert salpha(m, x, depth).candidates == want


@settings(max_examples=15, deadline=None)
@given(s=st.floats(1.0, 2.0, exclude_min=True))
def test_bracketed_probe_equals_per_point_probe(s):
    m = make_tent(s)
    ys = build_backward_tree(m, 0.5, 20).deep_points(10)
    assert np.array_equal(_returns_mask(m, ys, 2e-3), per_point_returns(m, ys, 2e-3))


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
    leaves = t.row(depth)
    if len(leaves) == 0:
        return
    back = m.iterate(leaves, depth)
    assert np.max(np.abs(back - x)) <= 1e-9
