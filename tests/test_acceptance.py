"""End-to-end acceptance battery.

Each test is one numbered criterion and prints a single PASS line with the
measured figure once its assertions hold, so a verbose run reads as a
checklist.  Tolerances are stated inline next to each assertion.
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unimodal import (
    analytic_nodes,
    build_backward_tree,
    build_grid,
    chain_classes,
    compare_salpha,
    conley_graph,
    critical_orbit,
    dense_backward_orbit,
    expansion_bound,
    expansion_time,
    level_partition,
    make_tent,
    match_nodes,
    node_depth,
    recurrent_cells,
    renormalize,
    verify_tower,
)
from unimodal.cli import three_band_window

N = 100_000
H = 1.0 / N


def _pass(num: int, msg: str):
    print(f"criterion {num:2d} PASS: {msg}")


def test_criterion_01_two_level_tower_matches_oracle():
    t0 = time.perf_counter()
    nodes = analytic_nodes(1.8)
    assert len(nodes) == 2
    assert nodes[0].cycle.points == (0.0,)
    iv = nodes[1].intervals[0]
    assert iv.lo == pytest.approx(0.18, abs=1e-9)
    assert iv.hi == pytest.approx(0.90, abs=1e-9)
    cc = chain_classes(make_tent(1.8), N)
    mr = match_nodes(nodes, cc, tol=4 * H)
    elapsed = time.perf_counter() - t0
    assert mr.passed, mr.message
    assert elapsed < 5.0
    _pass(1, f"{mr.message}; {elapsed:.2f}s")


def test_criterion_02_period_doubled_tower_at_1_4():
    assert node_depth(1.4) == 2
    nodes = analytic_nodes(1.4)
    assert len(nodes) == 3
    assert nodes[1].cycle.points[0] == pytest.approx(7.0 / 12.0, abs=1e-9)
    ivs = nodes[2].intervals
    assert ivs[0].lo == pytest.approx(0.42, abs=1e-9)
    assert ivs[0].hi == pytest.approx(0.5768, abs=1e-9)
    assert ivs[1].lo == pytest.approx(0.588, abs=1e-9)
    assert ivs[1].hi == pytest.approx(0.70, abs=1e-9)
    cc = chain_classes(make_tent(1.4), N)
    mr = match_nodes(nodes, cc, tol=4 * H)
    assert mr.passed, mr.message
    _pass(2, mr.message)


def test_criterion_03_depth_table():
    table = {2.0: 0, 1.9: 1, 1.4142136: 1, 1.3: 2, 1.2: 2, 1.1: 3, 2.0 ** 0.125: 3}
    for s, p in table.items():
        assert node_depth(s) == p, (s, p)
    _pass(3, f"{len(table)} tabulated depths reproduced")


def test_criterion_04_full_slope_is_one_class():
    cc = chain_classes(make_tent(2.0), N)
    assert len(cc) == 1
    sup = cc.support(0)
    lo = min(iv.lo for iv in sup)
    hi = max(iv.hi for iv in sup)
    assert lo <= 2 * H
    assert hi >= 1.0 - 2 * H
    _pass(4, f"single class spans [{lo:.2e}, {1 - hi:.2e} below 1]")


def test_criterion_05_tower_verified_across_the_parameter_range():
    t0 = time.perf_counter()
    grid = np.linspace(1.01, 2.0, 52)[1:-1]
    failures = []
    for s in grid:
        cc = chain_classes(make_tent(float(s)), 10_000)
        edges = conley_graph(cc)
        if not verify_tower(cc, edges):
            failures.append(float(s))
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 180.0
    _pass(5, f"{len(grid)} slopes verified in {elapsed:.1f}s")


def test_criterion_06_no_spurious_recurrence_in_the_gap():
    g = build_grid(make_tent(1.8), N, 2 * H)
    mask, _ = recurrent_cells(g)
    centers = (np.flatnonzero(mask) + 0.5) * H
    inside = (centers > 2 * H) & (centers < 0.18 - 2 * H)
    assert not inside.any(), centers[inside][:5]
    _pass(6, f"{int(mask.sum())} recurrent cells, none in the open gap")


def test_criterion_07_salpha_estimates_match_predictions():
    worst = 0.0
    for s, x in [(1.6, 0.2), (1.6, 0.5), (1.2, 0.5455), (1.4, 0.6)]:
        t0 = time.perf_counter()
        rep = compare_salpha(s, x, depth=32)
        elapsed = time.perf_counter() - t0
        assert rep["passed"], rep
        assert elapsed < 30.0
        worst = max(worst, rep["hausdorff"])
    _pass(7, f"four base points, worst Hausdorff {worst:.4f} <= 0.02")


def test_criterion_08_dense_backward_orbits():
    steps = {}
    for s in (2.0, 1.8, 1.5):
        orb = dense_backward_orbit(make_tent(s), 0.01, max_steps=100_000)
        assert orb.covered
        assert orb.identity_error <= 1e-9
        steps[s] = orb.steps
    _pass(8, f"delta=0.01 covered in {steps} steps")


def test_criterion_09_expansion_within_budget():
    rng = np.random.default_rng(0)
    worst_margin = 10**9
    for s in (1.5, 1.8, 2.0):
        m = make_tent(s)
        c1, c2 = critical_orbit(m, 2)
        for _ in range(100):
            d = rng.uniform(1e-4, min(1e-2, c1 - c2))
            lo = rng.uniform(c2, c1 - d)
            t = expansion_time(m, lo, lo + d)   # raises beyond the budget
            worst_margin = min(worst_margin, expansion_bound(m, lo, lo + d) - t)
    _pass(9, f"300 intervals covered, worst margin {worst_margin} steps")


def test_criterion_10_renormalization_charts():
    worst = 0.0
    for s in (1.1, 1.2, 1.3, 1.4):
        rn = renormalize(make_tent(s))
        assert rn.residual <= 1e-9, (s, rn.residual)
        worst = max(worst, rn.residual)
    _pass(10, f"four charts, worst conjugacy residual {worst:.2e}")


def test_criterion_11_three_band_parameter_window():
    t0 = time.perf_counter()
    win = three_band_window(0.99, 1.005)
    elapsed = time.perf_counter() - t0
    assert win is not None
    lo, hi = win
    assert lo <= 1.0 <= hi
    assert abs(lo - 0.994) <= 0.003
    assert abs(hi - 1.001) <= 0.003
    assert elapsed < 60.0
    _pass(11, f"window [{lo:.4f}, {hi:.4f}] in {elapsed:.1f}s")


def test_criterion_12_property_battery():
    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(1.05, 2.0), x=st.floats(0.01, 0.99))
    def involution(s, x):
        m = make_tent(s)
        assume(abs(x - m.critical) > 1e-6)
        assert abs(m.conjugate(m.conjugate(x)) - x) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(1.05, 2.0))
    def partition_disjoint(s):
        pieces = sorted((iv for ivs in level_partition(s).levels.values() for iv in ivs),
                        key=lambda iv: iv.lo)
        for a, b in zip(pieces, pieces[1:]):
            assert b.lo >= a.hi - 1e-12
        total = sum(iv.length for iv in pieces)
        assert abs(total - 1.0) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(1.1, 2.0), k=st.integers(2, 8))
    def refinement(s, k):
        m = make_tent(s)
        n = 2000
        coarse, _ = recurrent_cells(build_grid(m, n, k * 4.0 / n))
        fine, _ = recurrent_cells(build_grid(m, n, 4.0 / n))
        assert not (fine & ~coarse).any()

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(1.1, 2.0), x=st.floats(0.05, 0.95), depth=st.integers(2, 8))
    def tree_soundness(s, x, depth):
        m = make_tent(s)
        leaves = build_backward_tree(m, x, depth).row(depth)
        if len(leaves):
            assert np.max(np.abs(m.iterate(leaves, depth) - x)) <= 1e-9

    involution()
    partition_disjoint()
    refinement()
    tree_soundness()
    _pass(12, "involution, partition, refinement, tree soundness hold")
