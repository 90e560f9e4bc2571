import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimodal import (
    Interval,
    analytic_nodes,
    cantor_cover,
    classify_attractor,
    classify_point,
    core_of_node,
    critical_orbit,
    is_cyclic,
    level_partition,
    make_tent,
    make_tu,
    node_depth,
    predicted_salpha,
    renormalize,
    subtract_intervals,
    trapping_region,
    make_cycle,
    tu_cycle,
    tu_cycles,
    tu_nodes,
    tu_skeleton,
)
from unimodal.maps import TU_BASE_MU, bisect_root
from unimodal import structure
from unimodal.structure import tent_parameter

# tower depth for a selection of slopes, worked out from log2(log2 s)
DEPTH_TABLE = [
    (2.0, 0),
    (1.9, 1),
    (1.4142136, 1),
    (1.3, 2),
    (1.2, 2),
    (1.1, 3),
    (2.0 ** 0.125, 3),
]

# parameter where the three attractor bands of the u family touch the
# period-3 cycle conjugates (located by bisecting the signed gap c_3 - q_1)
MU_CRISIS = 1.0007266872021146


class TestNodeDepth:
    @pytest.mark.parametrize("s,p", DEPTH_TABLE)
    def test_table(self, s, p):
        assert node_depth(s) == p

    def test_rejects_outside_range(self):
        for s in (1.0, 0.5, 2.2):
            with pytest.raises(ValueError):
                node_depth(s)

    def test_doubling_boundary_snaps_inward(self):
        # sqrt(2) is the first doubling boundary: depth 1 on the closed side
        assert node_depth(math.sqrt(2)) == 1
        assert node_depth(math.sqrt(2) - 1e-6) == 2

    def test_smallest_float_slope_has_depth_52(self):
        # the deepest tower any float slope can ask for
        assert node_depth(math.nextafter(1.0, 2.0)) == 52


class TestAnalyticNodes:
    def test_chaotic_tent_single_class(self):
        nodes = analytic_nodes(2.0)
        assert len(nodes) == 1
        assert nodes[0].kind == "interval_cycle_attractor"
        assert nodes[0].support()[0] == Interval(0.0, 1.0)

    def test_depth_one_tower(self):
        nodes = analytic_nodes(1.8)
        assert [n.kind for n in nodes] == ["boundary_fixed", "interval_cycle_attractor"]
        assert nodes[0].cycle.points == (0.0,)
        (core,) = nodes[1].support()
        assert (core.lo, core.hi) == (pytest.approx(0.18), pytest.approx(0.9))

    def test_depth_two_tower(self):
        nodes = analytic_nodes(1.4)
        assert [n.kind for n in nodes] == [
            "boundary_fixed",
            "repelling_cycle",
            "interval_cycle_attractor",
        ]
        assert nodes[1].cycle.points[0] == pytest.approx(1.4 / 2.4, abs=1e-12)
        assert nodes[1].cycle.multiplier == pytest.approx(-1.4)
        ivs = [(iv.lo, iv.hi) for iv in nodes[2].support()]
        assert ivs[0] == (pytest.approx(0.42), pytest.approx(0.5768))
        assert ivs[1] == (pytest.approx(0.588), pytest.approx(0.7))

    def test_depth_three_tower_periods(self):
        nodes = analytic_nodes(1.1)
        assert len(nodes) == 4
        periods = [n.cycle.period for n in nodes[:-1]]
        assert periods == [1, 1, 2]
        assert len(nodes[3].support()) == 4

    def test_cascade_cycles_are_genuine(self):
        m = make_tent(1.1)
        for n in analytic_nodes(1.1)[1:-1]:
            for p in n.cycle.points:
                assert m.iterate(p, n.cycle.period) == pytest.approx(p, abs=1e-10)

    def test_depth_eight_past_float64_is_refused_by_name(self):
        # the cascade cycle of s = 2^(2^-7.5) sits about 1e-15 from c
        with pytest.raises(ValueError, match="tower depth 8: .* below float64 resolution at c=0.5"):
            analytic_nodes(2.0 ** (2.0 ** -7.5))

    def test_depth_eight_within_float64_still_works(self):
        s = 2.0 ** (2.0 ** -7.0001)
        assert node_depth(s) == 8
        nodes = analytic_nodes(s)
        assert len(nodes) == 9
        assert nodes[7].cycle.period == 64


class TestTrappingRegion:
    def test_fixed_point_region_is_whole_domain(self):
        m = make_tent(1.8)
        tr = trapping_region(m, analytic_nodes(1.8)[0])
        assert tr.period == 1
        assert tr.j1 == Interval(0.0, 1.0)

    def test_interior_fixed_node_flips_to_period_two(self):
        # the interior fixed point has negative multiplier, so its region
        # doubles up: two intervals exchanged by the map
        m = make_tent(1.4)
        tr = trapping_region(m, analytic_nodes(1.4)[1])
        assert tr.period == 2
        assert tr.j1.lo == pytest.approx(5 / 12)
        assert tr.j1.hi == pytest.approx(7 / 12)
        assert tr.intervals[1].lo == pytest.approx(7 / 12)
        assert tr.intervals[1].hi == pytest.approx(59 / 84)

    def test_deep_node_region_closes(self):
        # at s=1.15 the depth-3 tower's 2-cycle node needs the maximal
        # backward construction: forward images alone would leak
        m = make_tent(1.15)
        nodes = analytic_nodes(1.15)
        tr = trapping_region(m, nodes[2])
        assert tr.period == 4
        assert tr.j1.lo == pytest.approx(0.4951560818083961)
        assert tr.j1.hi == pytest.approx(0.5048439181916039)
        # closure: every interval maps inside its successor
        for i, iv in enumerate(tr.intervals):
            lo, hi = m.interval_image(iv.lo, iv.hi)
            nxt = tr.intervals[(i + 1) % tr.period]
            assert lo >= nxt.lo - 1e-9 and hi <= nxt.hi + 1e-9

    def test_random_points_trapped(self):
        rng = np.random.default_rng(3)
        for s in (1.15, 1.3, 1.4):
            m = make_tent(s)
            for node in analytic_nodes(s)[1:-1]:
                tr = trapping_region(m, node)
                for i, iv in enumerate(tr.intervals):
                    nxt = tr.intervals[(i + 1) % tr.period]
                    xs = rng.uniform(iv.lo, iv.hi, 1000)
                    ys = m(xs)
                    assert np.all(ys >= nxt.lo - 1e-9)
                    assert np.all(ys <= nxt.hi + 1e-9)


class TestIsCyclic:
    def test_flip_region_is_cyclic(self):
        m = make_tent(1.4)
        tr = trapping_region(m, analytic_nodes(1.4)[1])
        assert tr.cyclic

    def test_core_alone_is_not(self):
        from unimodal import TrappingRegion

        m = make_tent(1.8)
        orb = critical_orbit(m, 2)
        core_region = TrappingRegion((Interval(orb[1], orb[0]),), 1, False, None)
        assert not is_cyclic(m, core_region)

    def test_full_domain_cyclic_at_two(self):
        from unimodal import TrappingRegion

        m = make_tent(2.0)
        tr = TrappingRegion((Interval(0.0, 1.0),), 1, False, None)
        assert is_cyclic(m, tr)


class TestCores:
    def test_depth_zero_core_is_whole_interval(self):
        m = make_tent(2.0)
        cc = core_of_node(m, analytic_nodes(2.0)[0])
        assert cc.intervals[0] == Interval(0.0, 1.0)
        assert not cc.strictly_interior

    def test_flip_node_cores(self):
        m = make_tent(1.4)
        cc = core_of_node(m, analytic_nodes(1.4)[1])
        assert cc.strictly_interior
        # J-order: the c-containing core first
        assert cc.intervals[0].contains(0.5)
        assert (cc.intervals[0].lo, cc.intervals[0].hi) == (pytest.approx(0.42), pytest.approx(0.5768))
        assert (cc.intervals[1].lo, cc.intervals[1].hi) == (pytest.approx(0.588), pytest.approx(0.7))

    def test_attractor_has_no_own_core(self):
        m = make_tent(1.4)
        with pytest.raises(ValueError):
            core_of_node(m, analytic_nodes(1.4)[2])

    def test_attractor_interval_self_maps(self):
        # the c-containing attractor interval returns onto itself under
        # f^(2^(p-1))
        for s in (1.4, 1.2):
            m = make_tent(s)
            p = node_depth(s)
            att = analytic_nodes(s)[-1]
            piece = next(iv for iv in att.support() if iv.contains(0.5))
            lo, hi = piece.lo, piece.hi
            for _ in range(2 ** (p - 1)):
                lo, hi = m.interval_image(lo, hi)
            assert lo == pytest.approx(piece.lo, abs=1e-9)
            assert hi == pytest.approx(piece.hi, abs=1e-9)

    def test_nesting(self):
        # successive regions nest strictly, cores sit inside their region,
        # and deeper cores sit inside shallower ones
        m = make_tent(1.1)
        nodes = analytic_nodes(1.1)
        outer = trapping_region(m, nodes[1])
        inner = trapping_region(m, nodes[2])
        assert outer.j1.lo < inner.j1.lo < inner.j1.hi < outer.j1.hi
        cores1 = core_of_node(m, nodes[1], outer)
        cores2 = core_of_node(m, nodes[2], inner)
        assert outer.j1.lo < cores1.intervals[0].lo < cores1.intervals[0].hi < outer.j1.hi
        assert cores1.intervals[0].lo <= cores2.intervals[0].lo
        assert cores2.intervals[0].hi <= cores1.intervals[0].hi

    def test_region_period_doubles_down_the_cascade(self):
        m = make_tent(1.1)
        nodes = analytic_nodes(1.1)
        r1 = trapping_region(m, nodes[1]).period
        r2 = trapping_region(m, nodes[2]).period
        assert (r1, r2) == (2, 4)


class TestLevelPartition:
    def test_depth_two_layout(self):
        lp = level_partition(1.4)
        assert sorted(lp.levels) == [-1, 0, 1, 2]
        assert [(iv.lo, iv.hi) for iv in lp.levels[-1]] == [(pytest.approx(0.7), 1.0)]
        assert [(iv.lo, iv.hi) for iv in lp.levels[0]] == [(0.0, pytest.approx(0.42))]
        gap = lp.levels[1]
        assert len(gap) == 1
        assert (gap[0].lo, gap[0].hi) == (pytest.approx(0.5768), pytest.approx(0.588))

    def test_chaotic_collapses_to_level_zero(self):
        lp = level_partition(2.0)
        assert lp.levels[0] == [Interval(0.0, 1.0)]
        assert lp.levels[-1] == []

    def test_levels_cover_and_do_not_overlap(self):
        # besides four plain slopes: just below the doubling boundaries
        # 2^(2^-k), where bands have just split and some gaps between them
        # are a few ulps wide.  Past k = 8 the deepest cores collapse to
        # points in float64, and the pairwise check below trips on them
        near = [b * (1 - d) for b in (2.0 ** 2.0 ** -k for k in range(1, 9))
                for d in (1e-8, 1e-10, 1e-12)]
        for s in [1.1, 1.2, 1.4, 1.8, 1.0218971485519268] + near:
            lp = level_partition(s)
            ivs = sorted((iv for level in lp.levels.values() for iv in level), key=lambda iv: iv.lo)
            total = sum(iv.length for iv in ivs)
            assert total == pytest.approx(1.0, abs=1e-9)
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi <= b.lo + 1e-12
            # no hole: no piece starts past the running max of the ends
            top = 0.0
            for iv in ivs:
                assert iv.lo <= top, (s, top, iv)
                top = max(top, iv.hi)
            assert top == 1.0


class TestClassifyPoint:
    @pytest.mark.parametrize(
        "s,x,level",
        [
            (1.4, 0.75, -1),    # above the peak value
            (1.4, 0.30, 0),     # below the core
            (1.4, 0.58, 1),     # in the gap between attractor bands
            (1.4, 0.50, 2),     # inside the attractor
            (1.2, 0.5455, 1),
            (1.8, 0.18, 1),
            (2.0, 0.33, 0),     # depth-0 tower has only level 0
            (1.1, 0.5, 3),
        ],
    )
    def test_levels(self, s, x, level):
        assert classify_point(s, x) == level

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            classify_point(1.4, 1.5)

    def test_gives_a_level_between_just_split_bands(self):
        # 1e-8 below 2^(1/32) the 32 bands have just split in two, and some
        # gaps between the new pairs are under 1e-15 wide; x is in one
        s, x = 1.0218971485519268, 0.4997603360663679
        assert classify_point(s, x) == 5 == core_walk_level(s, x)

    def test_matches_partition_hulls(self):
        s = 1.2
        lp = level_partition(s)
        for level, ivs in lp.levels.items():
            for iv in ivs:
                mid = 0.5 * (iv.lo + iv.hi)
                assert classify_point(s, mid) == level


# slopes past float64's reach, with the partition's piece count per level
# and the cascade cycle analytic_nodes refuses: (s, depth, counts, period, node)
DEEP = [
    (1.005, 8, [1, 1, 1, 2, 4, 8, 16, 32, 64, 128], 64, 7),
    (2.0 ** (2.0 ** -7.5), 8, [1, 1, 1, 2, 4, 8, 16, 32, 64, 128], 32, 6),
    (1.001, 10, [1, 1, 1, 2, 4, 8, 16, 32, 64, 64, 64, 512], 16, 5),
    (1.0001, 13, [1, 1, 1, 2, 4, 8, 16] + [16] * 7 + [4096], 4, 3),
]


def partition_by_rungs(s):
    """Reference levels built rung by rung, a fresh critical orbit of length
    2r for each r = 1, 2, ..., 2^(p-1): sorted cores [c_{r+i}, c_i], c_0
    read as c_2r, each rung's core union minus the next rung's cores."""
    p = node_depth(s)
    m = make_tent(s)

    def cores(r):
        c = [None] + critical_orbit(m, 2 * r)
        ends = [(c[2 * r], c[r])] + [(c[r + i], c[i]) for i in range(1, r)]
        return sorted((Interval(min(e), max(e)) for e in ends), key=lambda iv: iv.lo)

    prev = cores(1)
    c2, c1 = prev[0]
    levels = {-1: [Interval(c1, 1.0)], 0: [Interval(0.0, c2)]}
    for k in range(1, p):
        cur = cores(2 ** k)
        levels[k] = subtract_intervals(prev, cur)
        prev = cur
    levels[p] = prev
    return levels


class TestDeepTowers:
    """Past depth 8 some cascade cycle lies below float64 resolution.  The
    partition and the classifier need no cycle, so they still answer; the
    full tower is refused, naming the depth and the node."""

    @pytest.mark.parametrize("s, p, counts, period, node", DEEP)
    def test_partition_and_classifier_still_answer(self, s, p, counts, period, node):
        lp = level_partition(s)
        assert lp.depth == node_depth(s) == p
        assert [len(lp.levels[k]) for k in range(-1, p + 1)] == counts
        assert lp.levels == partition_by_rungs(s)
        xs = [i / 40 for i in range(41)]
        levels = [0] * 20 + [p] + [-1] * 20
        assert [classify_point(s, x) for x in xs] == levels
        assert [core_walk_level(s, x) for x in xs] == levels

    @pytest.mark.parametrize("s, p, counts, period, node", DEEP)
    def test_full_tower_is_refused_by_name(self, s, p, counts, period, node):
        msg = (f"s={s!r} has tower depth {p}: its period-{period} cascade cycle N_{node} "
               f"lies below float64 resolution at c=0.5")
        with pytest.raises(ValueError) as err:
            analytic_nodes(s)
        assert str(err.value) == msg

    @pytest.mark.parametrize("s, resolved, node", [
        (1.005, range(7), 7),                      # N_1 .. N_6 resolve
        (2.0 ** (2.0 ** -7.5), range(6), 6),       # N_1 .. N_5 resolve
    ])
    def test_salpha_needs_only_the_nodes_of_its_level(self, s, resolved, node):
        # the set of a level-k point below the attractor is N_0 .. N_k: 2^k
        # cycle points, found though a deeper node is out of reach
        lp = level_partition(s)
        assert predicted_salpha(s, 0.3).intervals == (Interval(0.0, 0.0),)
        for k in resolved:
            x = 0.5 * (lp.levels[k][0].lo + lp.levels[k][0].hi)
            pred = predicted_salpha(s, x)
            assert pred.level == k
            assert len(pred.intervals) == 2 ** k
            assert all(iv.lo == iv.hi for iv in pred.intervals)
        # a point that needs the unresolved node gets the tower's refusal
        for k in range(node, lp.depth + 1):
            x = 0.5 * (lp.levels[k][0].lo + lp.levels[k][0].hi)
            with pytest.raises(ValueError, match=f"cascade cycle N_{node} lies below float64"):
                predicted_salpha(s, x)


class TestOneTowerPerCall:
    """Each closed form of a tent map reads one critical orbit, the tower's."""

    @pytest.fixture
    def orbits(self, monkeypatch):
        calls = []
        orbit = structure.critical_orbit

        def spy(m, n):
            calls.append(n)
            return orbit(m, n)

        monkeypatch.setattr(structure, "critical_orbit", spy)
        return calls

    @pytest.mark.parametrize("s", [2.0, 1.8, 1.3, 1.05, 1.01])
    @pytest.mark.parametrize("call", [
        lambda s: analytic_nodes(s),
        lambda s: level_partition(s),
        lambda s: classify_point(s, 0.5),
        lambda s: predicted_salpha(s, 0.5),
        lambda s: predicted_salpha(s, 0.3),
        lambda s: predicted_salpha(s, 0.99),
    ], ids=["nodes", "partition", "classify", "salpha_c", "salpha_0.3", "salpha_0.99"])
    def test_one_orbit(self, orbits, call, s):
        call(s)
        assert orbits == [max(2, 2 ** node_depth(s))]

    def test_verify_reads_three_orbits(self, orbits, capsys):
        from unimodal.cli import main

        main(["verify", "--s", "1.05", "--n", "20000"])
        capsys.readouterr()
        # the tower once, and once for each of the two predicted s-alpha sets
        assert orbits == [16, 16, 16]


def interior_fixed_point(m):
    """Reference: the fixed point on the falling lap (tent: s/(s+1)), by
    bisection of f(x) - x on [c, 1]."""
    return bisect_root(lambda x: m(x) - x, m.critical, m.domain.hi, 1e-12)


class TestRenormalize:
    @pytest.mark.parametrize("s", [1.1, 1.2, 1.3, 1.4])
    def test_residual_tiny(self, s):
        rn = renormalize(make_tent(s))
        assert rn.residual <= 1e-9
        assert tent_parameter(rn.model) == pytest.approx(s * s)

    def test_chart_geometry(self):
        rn = renormalize(make_tent(1.2))
        assert rn.center == pytest.approx(interior_fixed_point(make_tent(1.2)))
        assert rn.scale == pytest.approx(11.0)
        assert rn.chart(rn.center) == pytest.approx(0.0)
        assert rn.chart(0.5) == pytest.approx(0.5)
        assert rn.chart_inv(rn.chart(0.51)) == pytest.approx(0.51)

    def test_conjugacy_pointwise(self):
        m = make_tent(1.3)
        rn = renormalize(m)
        for y in np.linspace(0.01, 0.99, 57):
            x = rn.chart_inv(y)
            assert rn.chart(m.iterate(x, 2)) == pytest.approx(rn.model(y), abs=1e-9)

    def test_iterated_renormalization_walks_up_the_depth(self):
        s = 1.1
        rn = renormalize(make_tent(s))
        assert node_depth(tent_parameter(rn.model)) == node_depth(s) - 1
        rn2 = renormalize(rn.model)
        assert tent_parameter(rn2.model) == pytest.approx(s ** 4)

    def test_rejects_expansive_slopes(self):
        with pytest.raises(ValueError):
            renormalize(make_tent(1.5))

    def test_model_caps_at_two(self):
        rn = renormalize(make_tent(math.sqrt(2)))
        assert tent_parameter(rn.model) == pytest.approx(2.0)


class TestCantorCover:
    def test_tent_regions_rejected(self):
        # tent trapping regions are flip regions: no Cantor repellor
        m = make_tent(1.4)
        tr = trapping_region(m, analytic_nodes(1.4)[1])
        with pytest.raises(ValueError):
            cantor_cover(m, tr, 1)

    def test_u_family_first_layer(self):
        u = make_tu(1.0)
        nodes = tu_nodes(u)
        tr = trapping_region(u, nodes[1])
        cov = cantor_cover(u, tr, 1)
        assert len(cov.intervals) == 3
        want = [
            (0.17358878666426464, 0.4471216558572969),
            (0.5528783441427031, 0.8264112133357353),
            (0.8660396699751436, 0.9635),
        ]
        for iv, (lo, hi) in zip(cov.intervals, want):
            assert iv.lo == pytest.approx(lo, abs=1e-9)
            assert iv.hi == pytest.approx(hi, abs=1e-9)
        assert cov.total_length == pytest.approx(0.6445260684109209, abs=1e-9)

    def test_u_family_depth_three_shrinks(self):
        u = make_tu(1.0)
        nodes = tu_nodes(u)
        tr = trapping_region(u, nodes[1])
        cov = cantor_cover(u, tr, 3)
        assert len(cov.intervals) == 8
        assert cov.total_length == pytest.approx(0.53715095204351, abs=1e-9)

    def test_depth_guard(self):
        u = make_tu(1.0)
        tr = trapping_region(u, tu_nodes(u)[1])
        with pytest.raises(ValueError):
            cantor_cover(u, tr, 0)


def reference_cycle(m, x, period):
    # The scalar packaging: the orbit by scalar calls, rotated to its
    # smallest point, the slopes multiplied in that order; None through c.
    pts = [x]
    for _ in range(period - 1):
        pts.append(m(pts[-1]))
    k = int(np.argmin(pts))
    pts = pts[k:] + pts[:k]
    lam = 1.0
    for p in pts:
        if abs(p - m.critical) <= 1e-12:
            return None
        lam *= m.slope_at(p)
    return tuple(pts), lam


def reference_find_cycle(m, period, lo, hi):
    # The scalar rules on one bracket, None where one fails: the same
    # itinerary at both ends, a sign change, an orbit off c that closes.
    def itinerary(x):
        out = []
        for _ in range(period):
            out.append(m.branch_index(x))
            x = m(x)
        return out

    g = lambda x: m.iterate(x, period) - x
    if itinerary(lo) != itinerary(hi) or g(lo) * g(hi) > 0:
        return None
    cyc = reference_cycle(m, bisect_root(g, lo, hi, 1e-12), period)
    if cyc is None or max(abs(m(cyc[0][i]) - cyc[0][(i + 1) % period])
                          for i in range(period)) > 1e-10:
        return None
    return cyc


def reference_tu_cycle(m):
    # The per-map loop: the periodic skeleton point as it is, else every
    # bracket of the 600-point lap grids solved one by one, the regular
    # positive-multiplier orbits kept, the first nearest the skeleton won.
    sk = tu_skeleton()
    x0, ref = sk["p1"], (sk["p1"], sk["p2"], sk["p3"])
    if abs(m.iterate(x0, 3) - x0) <= 1e-12:
        return reference_cycle(m, x0, 3)
    found = []
    for lap in [b.domain for b in m.branches if b.domain.contains(x0)]:
        xs = np.linspace(lap.lo + 1e-12, lap.hi - 1e-12, 600)
        sgn = np.sign(m.iterate(xs, 3) - xs)
        for i in np.flatnonzero(sgn[:-1] * sgn[1:] < 0):
            cyc = reference_find_cycle(m, 3, float(xs[i]), float(xs[i + 1]))
            if cyc and min(abs(a - b) for a, b in itertools.combinations(cyc[0], 2)) > 1e-9 \
                    and cyc[1] > 0:
                found.append(cyc)
    if not found:
        return None
    return min(found, key=lambda cyc: sum(min(abs(p - q) for q in ref) for p in cyc[0]))


class TestTuTower:
    def test_cycle_at_window_center(self):
        cyc = tu_cycle(make_tu(1.0))
        sk = tu_skeleton()
        assert cyc.points == pytest.approx([sk["p3"], sk["p1"], sk["p2"]], abs=1e-9)
        assert cyc.multiplier == pytest.approx(3.6228350278872217, abs=1e-6)
        assert cyc.multiplier > 0

    def test_cycle_continues_off_center(self):
        for mu in (0.995, 1.002):
            m = make_tu(mu)
            cyc = tu_cycle(m)
            assert cyc.period == 3
            assert cyc.multiplier > 0
            x = cyc.points[0]
            for _ in range(3):
                x = m(x)
            assert x == pytest.approx(cyc.points[0], abs=1e-9)

    def test_batched_solve_is_the_per_map_loop(self):
        # the whole tu range, hits and misses, in several chunks, and mu = 1,
        # where the skeleton point itself is periodic; points and
        # multipliers compared with ==
        mus = np.insert(np.linspace(0.0, 4.0 / TU_BASE_MU, 150), 70, 1.0)
        got = tu_cycles(mus)
        for mu, cyc in zip(mus, got):
            m = make_tu(float(mu))
            want = reference_tu_cycle(m)
            assert (cyc and (cyc.points, cyc.multiplier)) == want
            try:
                assert tu_cycle(m) == cyc
            except ValueError:
                assert cyc is None
        assert got[70] == make_cycle(make_tu(1.0), tu_skeleton()["p1"], 3)
        assert 0 < got.count(None) < len(mus)

    @pytest.mark.parametrize("mu", [1.04, -0.01, float("nan")])
    def test_batched_solve_refuses_a_parameter_outside_the_family(self, mu):
        with pytest.raises(ValueError, match=r"tu parameter mu=.* outside \[0, "):
            tu_cycles([1.0, mu, 0.995])

    def test_batched_solve_scratch_stays_under_4mb(self, traced_peak):
        # a render's 300 columns; scanning them all at once would hold
        # about 15 MB of scratch
        mus = np.linspace(0.99, 1.005, 300)
        tu_cycles(mus[:1])
        assert traced_peak(tu_cycles, mus) < 4e6

    def test_no_cycle_below_the_saddle_node(self):
        with pytest.raises(ValueError):
            tu_cycle(make_tu(0.992))

    def test_tower_inside_window(self):
        nodes = tu_nodes(make_tu(1.0))
        assert [n.kind for n in nodes] == [
            "boundary_fixed",
            "repelling_cycle",
            "interval_cycle_attractor",
        ]
        assert len(nodes[2].support()) == 3

    def test_tower_flattens_past_the_crisis(self):
        nodes = tu_nodes(make_tu(1.003))
        assert [n.kind for n in nodes] == ["boundary_fixed", "interval_cycle_attractor"]
        assert len(nodes[1].support()) == 1


class TestAttractorDichotomy:
    @pytest.mark.parametrize("s", [1.4, 1.8, 2.0])
    def test_tents_are_all_band_type(self, s):
        m = make_tent(s)
        assert classify_attractor(m, analytic_nodes(s)) == "A2"

    def test_u_family_band_type_inside_window(self):
        m = make_tu(1.0)
        assert classify_attractor(m, tu_nodes(m)) == "A2"

    def test_u_family_at_crisis_is_repellor_type(self):
        # exactly at the band-touching parameter the attractor boundary sits
        # on the period-3 cycle and a Cantor repellor survives outside it
        m = make_tu(MU_CRISIS)
        assert classify_attractor(m, tu_nodes(m)) == "A5"

    def test_u_family_past_crisis_back_to_band_type(self):
        m = make_tu(1.003)
        assert classify_attractor(m, tu_nodes(m)) == "A2"

    def test_crisis_bracketing(self):
        # the signed gap between c_3 and the conjugate of the cycle point
        # changes sign across the crisis parameter
        def gap(mu):
            m = make_tu(mu)
            sk = tu_skeleton()
            cyc = tu_cycle(m)
            p1 = min(cyc.points, key=lambda q: abs(q - sk["p1"]))
            return critical_orbit(m, 3)[2] - m.conjugate(p1)

        assert gap(MU_CRISIS - 5e-4) > 0
        assert gap(MU_CRISIS + 5e-4) < 0
        assert abs(gap(MU_CRISIS)) < 1e-6


def core_walk_level(s, x):
    """Level of x by walking the closed core unions, without the partition:
    -1 above c_1, 0 below c_2, else 1 + the deepest j (walked from 1 while
    it holds) whose 2^j cores [c_{r+i}, c_i], r = 2^j and c_0 read as c_2r,
    hold x."""
    p = node_depth(s)
    c = [None] + critical_orbit(make_tent(s), 2 ** max(p, 1))    # c[k] = f^k(1/2)
    if x > c[1]:
        return -1
    if x < c[2] or p == 0:
        return 0
    level = 1
    for j in range(1, p):
        r = 2 ** j
        cores = [(c[r + i], c[i] if i else c[2 * r]) for i in range(r)]
        if not any(min(e) <= x <= max(e) for e in cores):
            break
        level = j + 1
    return level


@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.001, 2.0), x=st.floats(0.0, 1.0))
def test_partition_and_classifier_agree(s, x):
    """The classifier reports the deepest partition level holding x, which
    is the level the closed core unions give; levels overlap only at shared
    endpoints.  Stored endpoints, where neighbouring levels meet, are
    checked beside x."""
    lp = level_partition(s)
    ends = sorted(e for ivs in lp.levels.values() for iv in ivs for e in iv)
    for y in [x] + ends[:: max(1, len(ends) // 32)] + ends[-1:]:
        level = classify_point(s, y)
        hits = [k for k, ivs in lp.levels.items() if any(iv.contains(y) for iv in ivs)]
        assert level == max(hits)
        assert level == core_walk_level(s, y)
        # overlaps only at shared endpoints
        if len(hits) > 1:
            assert any(y == iv.lo or y == iv.hi for k in hits for iv in lp.levels[k])
