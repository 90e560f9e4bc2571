import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import unimodal.chainoracle as chainoracle
from unimodal.maps import TU_BASE_MU, runs

from unimodal import (
    ChainClasses,
    GridGraph,
    analytic_nodes,
    build_grid,
    chain_classes,
    conley_graph,
    expansion_bound,
    expansion_time,
    hausdorff,
    make_logistic,
    make_tent,
    make_tu,
    match_nodes,
    recurrent_cells,
    verify_tower,
)


class TestGrid:
    def test_guards(self):
        m = make_tent(1.5)
        with pytest.raises(ValueError):
            build_grid(m, 50, 0.01)
        # 1.5 / n is one ulp below 1.5h: refused, and the ratio says so
        with pytest.raises(ValueError, match=r"\(1\.4999999999999998 cell widths\)"):
            build_grid(m, 10007, 1.5 / 10007)

    @pytest.mark.parametrize("eps,limit", [
        (float("nan"), "eps=nan must be finite and at least 1.5h=0.00075"),
        (float("inf"), "eps=inf must be finite and at least 1.5h=0.00075"),
        # below 1.5 cells: refused, naming the limit and the ratio
        (1.2 / 2000, "eps=0.0006 must be finite and at least 1.5h=0.00075: "
                     "below that no edges are certifiable (1.2 cell widths)"),
    ], ids=["nan", "inf", "1.2-cell-widths"])
    def test_bad_eps_is_refused_naming_the_limit(self, eps, limit):
        with pytest.raises(ValueError) as exc:
            build_grid(make_tent(1.5), 2000, eps)
        assert limit in str(exc.value)

    @pytest.mark.parametrize("n", [0, -5])
    def test_default_eps_on_an_empty_grid_is_refused_by_name(self, n):
        with pytest.raises(ValueError, match=f"grid too coarse: n={n} < 100"):
            chain_classes(make_tent(1.5), n)

    def test_edge_slack_certifies_strict_interior(self):
        # at slack eps - h, a cell reaches exactly the cells whose centers
        # lie within eps - h of the image of its own center
        n, eps = 1000, 5e-3
        m = make_tent(1.5)
        g = build_grid(m, n, eps)
        h = 1.0 / n
        i = 200
        fc = m((i + 0.5) * h)
        lo, hi = g.jlo[i], g.jhi[i]
        assert abs(fc - (lo + 0.5) * h) <= eps - h
        assert abs(fc - (hi + 0.5) * h) <= eps - h
        assert abs(fc - (lo - 0.5) * h) > eps - h
        assert abs(fc - (hi + 1.5) * h) > eps - h

    def test_huge_eps_reaches_every_cell(self):
        n = 1000
        g = build_grid(make_tent(1.5), n, 1e300)
        assert (g.jlo == 0).all() and (g.jhi == n - 1).all()

    def test_windows_larger_than_any_memory_are_refused_by_name(self):
        # 2e13 int64 window bounds: refused before the first is allocated
        with pytest.raises(ValueError, match="20000000000000 window bounds of a grid of "
                                             "n=10000000000000 cells need 160000000000000 bytes"):
            build_grid(make_tent(1.5), 10**13, 2e-13)

    def test_image_cell_always_reached(self):
        # the cell containing f(center) is always an out-neighbor
        m = make_tent(1.9)
        n = 2000
        g = build_grid(m, n, 2.0 / n)
        h = 1.0 / n
        centers = (np.arange(n) + 0.5) * h
        target = np.clip((m(centers) / h).astype(np.int64), 0, n - 1)
        assert np.all(g.jlo <= target)
        assert np.all(target <= g.jhi)


class TestRecurrence:
    def test_chaotic_tent_everything_recurs(self):
        g = build_grid(make_tent(2.0), 10_000, 2e-4)
        mask, _ = recurrent_cells(g)
        assert mask.all()

    def test_origin_cell_recurs(self):
        g = build_grid(make_tent(1.8), 10_000, 2e-4)
        mask, _ = recurrent_cells(g)
        assert mask[0]

    def test_gap_cells_do_not_recur(self):
        # at s=1.8 nothing between the fixed point at 0 and the core
        g = build_grid(make_tent(1.8), 10_000, 2e-4)
        mask, _ = recurrent_cells(g)
        h = 1e-4
        centers = (np.flatnonzero(mask) + 0.5) * h
        inside = (centers > 2 * h) & (centers < 0.18 - 2 * h)
        assert not inside.any()

    def test_complete_graph_is_one_component(self):
        # every cell's window is the whole grid: 1e12 edges, none of them
        # made, since the searches run on the windows
        g = build_grid(make_tent(1.5), 10**6, 1.0)
        mask, lab = recurrent_cells(g)
        assert mask.all()
        assert (lab == lab[0]).all()

    def test_complete_graph_peak_is_thirty_bytes_a_cell(self, traced_peak):
        n = 10**6
        m = make_tent(1.5)
        recurrent_cells(build_grid(m, 1000, 1.0))
        g = build_grid(m, n, 1.0)
        assert traced_peak(recurrent_cells, g) < 30 * n


class TestChainClasses:
    def test_eps_below_one_and_a_half_cells_raises(self):
        with pytest.raises(ValueError, match="1.5h"):
            chain_classes(make_tent(1.5), 1000, 5e-4)

    @pytest.mark.parametrize("s,k", [(2.0, 1), (1.8, 2), (1.4, 3), (1.1, 4)])
    def test_class_counts(self, s, k):
        cc = chain_classes(make_tent(s), 10_000)
        assert len(cc.classes) == k

    def test_classes_ordered_by_height(self):
        # sorted by the maximum of f over the class: bottom fixed point
        # first, attractor last
        cc = chain_classes(make_tent(1.4), 10_000)
        tops = []
        m = make_tent(1.4)
        for i in range(len(cc.classes)):
            centers = (cc.classes[i] + 0.5) * (1.0 / cc.n)
            tops.append(float(np.max(m(centers))))
        assert tops == sorted(tops)

    def test_supports_hug_the_analytic_sets(self):
        n = 10_000
        h = 1.0 / n
        cc = chain_classes(make_tent(1.4), n)
        sup = cc.support(2)
        assert len(sup) == 2
        assert sup[0].lo == pytest.approx(0.42, abs=2 * h)
        assert sup[0].hi == pytest.approx(0.5768, abs=2 * h)
        assert sup[1].lo == pytest.approx(0.588, abs=2 * h)
        assert sup[1].hi == pytest.approx(0.7, abs=2 * h)


class TestConleyGraph:
    def test_tower_edges(self):
        cc = chain_classes(make_tent(1.4), 10_000)
        edges = conley_graph(cc)
        assert set(edges) == {(0, 1), (0, 2), (1, 2)}

    def test_verify_tower_accepts_complete_dag(self):
        cc = chain_classes(make_tent(1.4), 10_000)
        assert verify_tower(cc, conley_graph(cc)) is True

    def test_verify_tower_rejects_missing_edge(self):
        cc = chain_classes(make_tent(1.4), 10_000)
        assert verify_tower(cc, [(0, 1), (1, 2)]) is False

    def test_verify_tower_rejects_two_way_edges(self):
        cc = chain_classes(make_tent(1.4), 10_000)
        with pytest.raises(ValueError):
            verify_tower(cc, [(0, 1), (1, 0), (0, 2), (1, 2)])


class TestMatching:
    def test_match_at_moderate_grid(self):
        n = 10_000
        rep = match_nodes(analytic_nodes(1.8), chain_classes(make_tent(1.8), n), tol=4.0 / n)
        assert rep["passed"]
        assert not rep["count_mismatch"]

    def test_count_mismatch_is_reported_not_raised(self):
        # negative control: towers of different depths cannot pair up
        rep = match_nodes(analytic_nodes(1.8), chain_classes(make_tent(1.2), 10_000), tol=1.0)
        assert rep["count_mismatch"]
        assert not rep["passed"]
        assert "2 analytic nodes vs 3 oracle classes" in rep["message"]

    def test_report_is_jsonable(self):
        import json

        rep = match_nodes(analytic_nodes(1.8), chain_classes(make_tent(1.8), 10_000), tol=1e-3)
        json.dumps(rep)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.01, 2.0), n=st.sampled_from([20_000, 100_000]))
def test_position_pairing_equals_min_cost_assignment(s, n):
    """Both towers come shallowest first, so pairing by position is the
    minimum-cost assignment on Hausdorff distance whenever the counts
    agree; on a mismatch the pairs are the positional prefix."""
    nodes = analytic_nodes(s)
    cc = chain_classes(make_tent(s), n)
    rep = match_nodes(nodes, cc, tol=4.0 / n)
    if rep["count_mismatch"]:
        assert not rep["passed"]
        assert [p[:2] for p in rep["pairs"]] == [[k, k] for k in range(min(len(nodes), len(cc)))]
        return
    cost = np.array([[hausdorff(nd.support(), cc.support(b)) for b in range(len(cc))]
                     for nd in nodes])
    rows, cols = linear_sum_assignment(cost)
    assert rep["pairs"] == [[int(a), int(b), float(cost[a, b])] for a, b in zip(rows, cols)]


class TestExpansion:
    def test_core_itself_needs_no_steps(self):
        m = make_tent(1.8)
        assert expansion_time(m, 0.18, 0.9) == 0

    def test_small_interval_at_full_slope(self):
        m = make_tent(2.0)
        t = expansion_time(m, 0.4, 0.6)
        assert 1 <= t <= expansion_bound(m, 0.4, 0.6)
        lo, hi = 0.4, 0.6
        for _ in range(t):
            lo, hi = m.interval_image(lo, hi)
        assert (lo, hi) == (0.0, 1.0)

    def test_renormalizable_slope_rejected(self):
        with pytest.raises(ValueError):
            expansion_time(make_tent(1.3), 0.45, 0.55)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            expansion_bound(make_tent(1.8), 0.5, 0.5)

    def test_bound_grows_as_interval_shrinks(self):
        m = make_tent(1.6)
        assert expansion_bound(m, 0.5, 0.5001) > expansion_bound(m, 0.4, 0.6)

    def test_timeout_reported(self):
        # verify's probe interval just above sqrt(2) outruns the budget
        m = make_tent(1.414214)
        c1 = m.peak
        c2 = m(c1)
        lo = c2 + 0.3 * (c1 - c2)
        with pytest.raises(RuntimeError, match="within 37 steps"):
            expansion_time(m, lo, lo + 1e-3)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(1.05, 2.0))
def test_monotone_epsilon_refinement(s):
    """Shrinking eps only removes edges, so recurrence only shrinks."""
    m = make_tent(s)
    n = 2_000
    h = 1.0 / n
    fine, _ = recurrent_cells(build_grid(m, n, 4 * h))
    coarse, _ = recurrent_cells(build_grid(m, n, 16 * h))
    assert not (fine & ~coarse).any()


@pytest.mark.parametrize("s", [1.8, 1.4])
def test_analytic_sets_inside_oracle(s):
    # every point of every analytic node lies within h of a recurrent cell
    # at every ladder rung
    n = 10_000
    h = 1.0 / n
    m = make_tent(s)
    nodes = analytic_nodes(s)
    for eps in (32 * h, 8 * h, 2 * h):
        mask, _ = recurrent_cells(build_grid(m, n, eps))
        centers = (np.flatnonzero(mask) + 0.5) * h
        for nd in nodes:
            for iv in nd.support():
                for x in np.linspace(iv.lo, iv.hi, 9):
                    assert np.min(np.abs(centers - x)) <= h


# ---------------------------------------------------------------------------
# One reference per layer, each stated in the mathematics: the windows by
# their formula, the strong components by scipy on the whole edge list, the
# classes by a cell-by-cell union-find, the Conley edges by a search from
# each class's halo, and the predecessors of each cell by a loop over the
# windows.  The block-at-a-time paths are reached through the public
# functions with _BLOCK and _STEP patched to a few cells.  The private names
# read below each stand for a contract that cannot show at test scale:
# - _BLOCK, _STEP: their defaults hold the whole of a test-sized grid;
# - _index_dtype: the index dtype widens only past 2^31 cells;
# - _expand: it counts in the dtype of the cell numbers, which only
#   overlapping runs past 2^31 cells would overflow;
# - _pieces, _reversed: a lap cut too often gives the same components, only
#   slower, and a count wider than it needs only costs memory, so the laps,
#   their predecessor runs and the counts' dtype are pinned here;
# - _components: the cells the run trim leaves it are a cost, not an output;
# - _reach_back: where the peel's backward search stops is a cost too.
# ---------------------------------------------------------------------------

def reference_grid(m, n, eps):
    # the whole grid at once: float64 centers and images, cast to int64
    h = 1.0 / n
    fc = m((np.arange(n) + 0.5) * h)
    slack = eps - h
    jlo = np.clip(np.ceil((fc - slack) / h - 0.5), 0, n - 1).astype(np.int64)
    jhi = np.clip(np.floor((fc + slack) / h - 0.5), 0, n - 1).astype(np.int64)
    return jlo, jhi


def reference_expand(lo, hi):
    # the edge list of the windows lo .. hi: one int64 repeat and arange
    counts = (hi - lo + 1).clip(min=0)
    ends = np.cumsum(counts)
    cells = np.repeat(lo - (ends - counts), counts)
    cells += np.arange(len(cells), dtype=np.int64)
    return cells, ends


def reference_recurrent_cells(g):
    # scipy's strong components of the whole graph, every window expanded
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    idx, ends = reference_expand(g.jlo, g.jhi)
    graph = csr_matrix((np.ones(len(idx)), idx, np.r_[0, ends]), shape=(g.n, g.n))
    ncomp, lab = connected_components(graph, directed=True, connection="strong")
    sizes = np.bincount(lab, minlength=ncomp)
    ar = np.arange(g.n)
    return (sizes >= 2)[lab] | ((g.jlo <= ar) & (ar <= g.jhi)), lab


def reference_grouping(m, n, rec, lab):
    # cell by cell: a Python union-find over labels and over pairs of
    # consecutive recurrent cells at most three apart
    h = 1.0 / n
    cells = np.flatnonzero(rec)
    parent = np.arange(int(cells[-1]) + 1, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    by_label = {}
    for c in cells:
        by_label.setdefault(int(lab[c]), []).append(int(c))
    for group in by_label.values():
        for c in group[1:]:
            parent[find(c)] = find(group[0])
    for a, b in zip(cells[:-1], cells[1:]):
        if b - a <= 3:
            parent[find(int(a))] = find(int(b))

    groups = {}
    for c in cells:
        groups.setdefault(find(int(c)), []).append(int(c))
    fvals = dict(zip(cells.tolist(), m((cells + 0.5) * h).tolist()))
    ordered = sorted(groups.values(), key=lambda cs: max(fvals[c] for c in cs))
    return tuple(np.array(sorted(cs), dtype=np.int64) for cs in ordered)


def reference_classes(n, classes, g):
    # the classes with their runs of consecutive cells split by `maps.runs`
    spans = tuple(np.array(runs(cs, 1), np.int64).reshape(-1, 2) for cs in classes)
    return ChainClasses(n, classes, g, spans)


def reference_conley_graph(cc):
    # i -> j when a cell within two cells of class i, outside it, reaches
    # class j: a breadth-first search over the edge list
    g = cc.graph
    in_class = np.full(g.n, -1, dtype=np.int64)
    for i, cs in enumerate(cc.classes):
        in_class[cs] = i
    edges = []
    for i, cs in enumerate(cc.classes):
        near = np.unique(np.concatenate([cs - 2, cs - 1, cs + 1, cs + 2]))
        near = near[(near >= 0) & (near < g.n)]
        near = near[in_class[near] != i]
        if len(near) == 0:
            continue
        seen = np.zeros(g.n, bool)
        seen[near] = True
        frontier = near
        while len(frontier):
            nxt = np.unique(reference_expand(g.jlo[frontier], g.jhi[frontier])[0])
            nxt = nxt[~seen[nxt]]
            seen[nxt] = True
            frontier = nxt
        for j in range(len(cc.classes)):
            if j != i and seen[cc.classes[j]].any():
                edges.append((i, j))
    return sorted(edges)


def reference_predecessors(g, p0, p1):
    # per cell j, the first and last cell of p0 .. p1 whose window holds j
    first = np.full(g.n, p1 + 1, np.int64)
    last = np.full(g.n, p0 - 1, np.int64)
    for i in range(p0, p1 + 1):
        first[g.jlo[i]:g.jhi[i] + 1] = np.minimum(first[g.jlo[i]:g.jhi[i] + 1], i)
        last[g.jlo[i]:g.jhi[i] + 1] = i
    return first, last


_B = chainoracle._BLOCK
_MAPS = {"tent": (make_tent, 1.0, 2.0), "logistic": (make_logistic, 2.5, 4.0),
         "tu": (make_tu, 0.9, 4.0 / TU_BASE_MU)}


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

@st.composite
def _grid_case(draw):
    make, lo, hi = _MAPS[draw(st.sampled_from(sorted(_MAPS)))]
    m = make(draw(st.floats(lo, hi, exclude_min=True)))
    block = draw(st.integers(1, 64))
    n = draw(st.one_of(st.integers(100, 500),
                       st.builds(lambda k, d: max(100, k * block + d), st.integers(2, 20),
                                 st.sampled_from([-1, 0, 1]))))
    eps = draw(st.one_of(st.floats(1.5, 64.0).map(lambda k: k / n),
                         st.floats(1.5 / n, 1e300)))
    return m, n, max(eps, 1.5 * (1.0 / n)), block


@settings(max_examples=60, deadline=None)
@given(case=_grid_case())
@example(case=(make_tent(2.0), 129, 1e300, 64))
@example(case=(make_tu(1.0), 127, 1.5 * (1.0 / 127), 64))
@example(case=(make_logistic(4.0), 128, 2.0 / 128, 64))
def test_blockwise_grid_equals_whole_array_grid(case):
    """Windows filled a block at a time, the last block short or one cell
    long, equal the whole-array formula value for value, as int32."""
    m, n, eps, block = case
    with mock.patch.object(chainoracle, "_BLOCK", block):
        g = build_grid(m, n, eps)
    jlo, jhi = reference_grid(m, n, eps)
    assert g.jlo.dtype == g.jhi.dtype == np.int32
    assert np.array_equal(g.jlo, jlo)
    assert np.array_equal(g.jhi, jhi)


def test_index_dtype_widens_past_int32():
    # the grid size decides: int32 while every cell number, window bound
    # and count of cells fits in it
    assert chainoracle._index_dtype(0) is np.int32
    assert chainoracle._index_dtype(2**31 - 1) is np.int32
    assert chainoracle._index_dtype(2**31) is np.int64
    assert chainoracle._index_dtype(62 * 10**9) is np.int64


@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.01, 2.0), n=st.integers(100, 50_000),
       a=st.floats(1.5, 64.0), b=st.floats(1.5, 64.0))
def test_windows_nest_as_eps_shrinks(s, n, a, b):
    """The identity the finest-rung oracle rests on: a smaller eps gives
    every cell a window inside the one a larger eps gives it."""
    h = 1.0 / n
    eps1, eps2 = max(a, b) * h, min(a, b) * h
    m = make_tent(s)
    coarse, fine = build_grid(m, n, eps1), build_grid(m, n, eps2)
    assert np.all(coarse.jlo <= fine.jlo)
    assert np.all(coarse.jhi >= fine.jhi)


def test_build_grid_peak_is_its_windows_plus_one_block(traced_peak):
    """The two int32 windows are kept; the scratch on top is one block's
    float arrays (centers, f with the map's branch index and coefficient
    gathers, the ceil and clip chain), within eight 8-byte arrays of a
    block.  The whole-grid build held about 40 bytes a cell."""
    n = 200_000
    m = make_tent(2.0)
    build_grid(m, 1000, 2 / 1000)
    kept = 2 * 4 * n
    assert traced_peak(build_grid, m, n, 2 / n) < kept + 8 * 8 * _B


# ---------------------------------------------------------------------------
# strong components: the pivot's component peeled, the rest trimmed on runs
# and split by forward-backward search
# ---------------------------------------------------------------------------

@st.composite
def _peel_case(draw):
    name = draw(st.sampled_from(sorted(_MAPS)))
    make, lo, hi = _MAPS[name]
    param = draw(st.floats(1.001, 2.0) if name == "tent" else st.floats(lo, hi, exclude_min=True))
    return make(param), draw(st.sampled_from([2_000, 20_000])), draw(st.floats(1.5, 64.0))


@settings(max_examples=40, deadline=None)
@given(case=_peel_case())
@example(case=(make_logistic(3.5), 20_000, 2.0))
@example(case=(make_tent(2.0), 20_000, 2.0))
@example(case=(make_tent(1.5), 20_000, 1.6))
@example(case=(make_tu(1.0), 20_000, 3.0))
@example(case=(make_logistic(3.75), 2_000, 7.0))
@example(case=(make_logistic(3.0), 2_000, 5.0))
def test_peeled_components_equal_whole_graph_components(case):
    """The same recurrent cells and the same partition into strong
    components (a bijection of labels) as scipy on the whole graph.  On
    logistic 3.5 at 2h the pivot is transient and its component is that
    one cell, though it reaches 25; at tent 2.0 the peel leaves no cell;
    tent 1.5 at 1.6h has windows with gaps.  A run trim that did not keep
    the last cell of a run whose window holds an earlier cell loses cells
    on logistic 3.75 at 7h, and one that did not keep the first cell that
    a later cell of its lap holds loses them on logistic 3.0 at 5h."""
    m, n, k = case
    h = 1.0 / n
    g = build_grid(m, n, max(k * h, 1.5 * h))
    mask, lab = recurrent_cells(g)
    want_mask, want_lab = reference_recurrent_cells(g)
    assert np.array_equal(mask, want_mask)
    pairs = np.unique(np.stack([lab, want_lab]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


@settings(max_examples=40, deadline=None)
@given(case=_peel_case(), step=st.integers(1, 64), block=st.integers(1, 64))
@example(case=(make_tent(1.979249060900373), 20_000, 35.14645212976813), step=1 << 13,
         block=_B)
@example(case=(make_tent(1.5), 1000, 1e300), step=64, block=7)
@example(case=(make_tent(1.5), 1000, 1.6), step=1, block=1)
def test_any_search_step_gives_the_same_components(case, step, block):
    """The backward search expands _STEP frontier cells at a time and cuts
    each block's reversed windows at the cells the blocks before it gave;
    the laps, the reversed windows, the run trim and every expansion are
    made _BLOCK cells or windows at a time.  With steps and blocks of a
    few cells the components are still scipy's, whole-grid windows (every
    window end in one block) and windows with gaps between them included.
    The first example lost a falling piece's cells when a block's cut ran
    the wrong way."""
    m, n, k = case
    n = min(n, 3_000) if block < _B else n
    h = 1.0 / n
    g = build_grid(m, n, max(k * h, 1.5 * h))
    with mock.patch.object(chainoracle, "_STEP", step), \
            mock.patch.object(chainoracle, "_BLOCK", block):
        mask, lab = recurrent_cells(g)
    want_mask, want_lab = reference_recurrent_cells(g)
    assert np.array_equal(mask, want_mask)
    pairs = np.unique(np.stack([lab, want_lab]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


@pytest.mark.parametrize("m, k", [(make_tent(1.7), 3.0), (make_tent(1.5), 1.6),
                                  (make_logistic(3.5), 2.0), (make_tu(1.0), 2.0),
                                  (make_tent(1.5), 1e300)],
                         ids=["tent-1.7", "tent-1.5-gaps", "logistic-3.5", "tu-1.0", "whole-grid"])
def test_reversed_windows_hold_the_predecessors(m, k):
    """A unimodal grid has at most two laps, and each lap's windows rise or
    fall together; its reversed window of cell j is the run of its cells
    whose windows hold j, kept as the run's first cell and its length.
    Tent 1.5 at 1.6h has windows with gaps between them; at 1e300 every
    window is the whole grid and the grid is one flat piece.  The lengths
    are in the narrowest unsigned dtype that holds the largest: a byte on
    the tent grids, where at most 2(k - 1)/s + 2 windows hold a cell, and
    two bytes on the flat piece, where every window holds all 1000."""
    n = 1000
    g = build_grid(m, n, k / n)
    pieces, _ = chainoracle._pieces(g)
    assert len(pieces) <= 2
    assert [p0 for p0, _, _ in pieces] == [0] + [p1 + 1 for _, p1, _ in pieces[:-1]]
    assert pieces[-1][1] == n - 1
    rev = chainoracle._reversed(g, pieces)
    assert len(rev) == len(pieces)
    for (p0, p1, up), (first, count) in zip(pieces, rev):
        step = np.diff(g.jlo[p0:p1 + 1]), np.diff(g.jhi[p0:p1 + 1])
        assert all(((d >= 0) if up else (d <= 0)).all() for d in step)
        want_first, want_last = reference_predecessors(g, p0, p1)
        held = want_first <= want_last
        assert first.dtype == g.jlo.dtype
        assert count.dtype == np.min_scalar_type(int(count.max()))
        assert np.array_equal(first[held], want_first[held])
        assert np.array_equal(first[held] + count[held].astype(np.int64) - 1, want_last[held])
        assert (count[~held] == 0).all()
    if m.label.startswith("tent") and k < 4:
        # images of neighbouring centers lie s*h apart on a lap
        s = m.slope_at(0.0)
        assert all(count.dtype == np.uint8 and count.max() <= 2 * (k - 1) / s + 2
                   for _, count in rev)
    if k > 1e6:
        assert rev[0][1].dtype == np.uint16 and rev[0][1].max() == n


@settings(max_examples=40, deadline=None)
@given(case=_peel_case())
@example(case=(make_tent(1.5), 20_000, 1.6))
@example(case=(make_tu(1.0), 20_000, 3.0))
def test_expand_gets_sorted_runs_that_do_not_overlap(case):
    """`_expand` sizes its cells and offsets in the dtype of the cell
    numbers, which holds only for runs that do not overlap.  Every call
    that the strong components, the classes and the Conley graph make
    hands it sorted runs that do not overlap, empty ones aside."""
    m, n, k = case
    h = 1.0 / n
    expand, disjoint = chainoracle._expand, []

    def spy(lo, hi):
        run = lo <= hi
        disjoint.append(bool(np.all(lo[run][1:] > hi[run][:-1])))
        return expand(lo, hi)

    with mock.patch.object(chainoracle, "_expand", spy):
        conley_graph(chain_classes(m, n, max(k * h, 1.5 * h)))
    assert disjoint and all(disjoint)


@pytest.mark.parametrize("s", [1.01, 1.05, 1.4])
def test_trim_on_runs_leaves_a_32nd_of_the_grid(s):
    """Outside the attractor's component a tent grid is transients around
    a few small classes.  The cells from 0 up to the first band are a
    chain that leaves the fixed point at 0, a window a round for the
    cell-by-cell trim; the run trim eats it from both ends at once and
    hands at most a 32nd of the grid to `_components`, which trims cell
    by cell."""
    n = 20_000
    components, sizes = chainoracle._components, []

    def spy(g, cells, *args):
        sizes.append(len(cells))
        return components(g, cells, *args)

    with mock.patch.object(chainoracle, "_components", spy):
        recurrent_cells(build_grid(make_tent(s), n, 2 / n))
    assert sizes and max(sizes) <= n // 32


def test_backward_peel_stops_once_its_component_is_whole():
    """At s = 2 every cell is in the pivot's component, and each level of
    the peel's backward search expands twice its frontier.  The search
    ends at the block that finds the last of the cells the pivot reaches:
    262,142 cells expanded here (1.31n; 1.05n at n = 1e6, where the last
    level finds more of the grid).  Searching on until a level found
    nothing expanded that last level's finds too, 2n in all."""
    n = 200_000
    g = build_grid(make_tent(2.0), n, 2 / n)
    reach_back, expand, expanded = chainoracle._reach_back, chainoracle._expand, []

    def counted(lo, hi):
        cells = expand(lo, hi)
        expanded.append(len(cells))
        return cells

    def spy(*args):
        with mock.patch.object(chainoracle, "_expand", counted):
            return reach_back(*args)

    with mock.patch.object(chainoracle, "_reach_back", spy):
        mask, _ = recurrent_cells(g)
    assert mask.all()
    assert 0 < sum(expanded) <= 1.35 * n


def test_trim_rounds_rescan_no_dead_level():
    """Tent 1.5 at 1.6h, whose windows have gaps, hands `_components` a
    first level of 37k cells, and its trim drops a few a round for
    hundreds of rounds.  Each round takes one cumulative count of its
    level's live mask; rescanning the whole level every round counted
    33.9M cells at n = 1e5, renumbering the live cells once fewer than
    half are live counts 1.9M."""
    n = 100_000
    g = build_grid(make_tent(1.5), n, 1.6 / n)
    cumsum, scanned = np.cumsum, []

    def spy(a, *args, out=None, **kwargs):
        if out is not None and a.dtype == bool:
            scanned.append(len(a))
        return cumsum(a, *args, out=out, **kwargs)

    with mock.patch.object(np, "cumsum", spy):
        recurrent_cells(g)
    assert 0 < sum(scanned) < 4 * 10**6


@pytest.mark.parametrize("s", [1.4, 1.8, 2.0])
def test_recurrent_cells_peak_is_under_twenty_bytes_a_cell(s, traced_peak):
    """The reversed windows, on each of the two laps an int32 first cell
    and a one-byte count (10 bytes a cell), and one state byte a cell
    stay through the peel; the int32 labels and the recurrent mask are
    made only once the reversed windows of the trimmed cells are gathered
    and the grid's are gone.  On top of them the peak is the peel's
    backward search, a level of found cells and one block's windows: 5.2
    bytes a cell here at s = 2, 2.7 at n = 1e6.  The peaks are 18.4, 17.8
    and 17.6 bytes a cell at s = 1.4, 1.8, 2, within 20; with first and
    last cells, two int32 arrays a lap, and two masks they were 22.0, 22.6
    and 23.2."""
    n = 200_000
    m = make_tent(s)
    recurrent_cells(build_grid(m, 1000, 2 / 1000))
    g = build_grid(m, n, 2 / n)
    assert traced_peak(recurrent_cells, g) < 20 * n


@pytest.mark.parametrize("s", [1.4, 1.8, 2.0])
def test_recurrent_cells_peak_does_not_grow_with_eps(s, traced_peak):
    """At 32h the windows are 64 cells wide, and the bound is the one of
    2h: the searches expand merged hulls and cut reversed windows, so no
    edge list is made, and at most 46 windows hold a cell, so a count
    still takes a byte (18.4, 17.8 and 17.6 bytes a cell).  Expanding
    every window into a CSR and its reverse held about 64 edges a cell
    twice."""
    n = 200_000
    m = make_tent(s)
    recurrent_cells(build_grid(m, 1000, 32 / 1000))
    g = build_grid(m, n, 32 / n)
    assert traced_peak(recurrent_cells, g) < 20 * n


# ---------------------------------------------------------------------------
# classes and the Conley graph
# ---------------------------------------------------------------------------

@st.composite
def _oracle_case(draw):
    s = draw(st.floats(1.001, 2.0))
    # blocks of 1 to 64 cells on the smaller grid, where they are many
    block = draw(st.one_of(st.just(_B), st.integers(1, 64)))
    n = 2_000 if block < _B else draw(st.sampled_from([2_000, 20_000]))
    h = 1.0 / n
    mults = draw(st.lists(st.floats(1.5, 64.0), min_size=1, max_size=4))
    return s, n, sorted({k * h for k in mults}, reverse=True), block


@settings(max_examples=40, deadline=None)
@given(case=_oracle_case())
@example(case=(1.001, 20_000, [8 / 20_000, 2 / 20_000], _B))
@example(case=(1.05, 20_000, [8 / 20_000, 2 / 20_000], _B))
@example(case=(1.5, 2_000, [2 / 2_000], 1))
@example(case=(2.0, 2_000, [2 / 2_000], 2))
def test_finest_rung_oracle_matches_reference(case):
    """One eps gives the classes and edges of any decreasing ladder of
    jump sizes ending at it: the recurrent cells of every rung intersected,
    grouped cell by cell, and searched from each class's halo.  Near s = 1
    the recurrent cells carry hundreds of strong-component labels, so the
    grouping over labels is exercised; with blocks of a few cells every
    block-at-a-time path of the classes and the Conley graph is."""
    s, n, eps, block = case
    m = make_tent(s)
    rec = np.ones(n, bool)
    for e in eps:
        fine = build_grid(m, n, e)
        rung, lab = reference_recurrent_cells(fine)
        rec &= rung
    ref = reference_classes(n, reference_grouping(m, n, rec, lab), fine)
    with mock.patch.object(chainoracle, "_BLOCK", block):
        cc = chain_classes(m, n, eps[-1])
        edges = conley_graph(cc)
    assert cc.graph.eps == eps[-1]
    assert len(cc.classes) == len(ref.classes)
    for got, want in zip(cc.classes, ref.classes):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for got, want in zip(cc.runs, ref.runs):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert edges == reference_conley_graph(ref)


@st.composite
def _labelled_cells(draw):
    # recurrent cells and labels in runs, a few labels shared by runs apart
    n = draw(st.integers(100, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rec = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    rec[rng.integers(n)] = True
    run = np.cumsum(rng.random(n) < draw(st.sampled_from([0.05, 0.3, 1.0])))
    pool = rng.integers(0, n, draw(st.integers(1, 6)))
    lab = pool[rng.integers(0, len(pool), run[-1] + 1)][run].astype(np.int32)
    return draw(st.floats(1.01, 2.0)), n, rec, lab


@settings(max_examples=80, deadline=None)
@given(case=_labelled_cells(), block=st.integers(1, 64))
def test_run_scan_at_any_block_groups_as_the_cell_wise_reference(case, block):
    """chain_classes scans the recurrent cells and their labels a block at
    a time into runs, and glues only the ends of consecutive runs; runs
    across the blocks' ends, labels shared by runs far apart and classes
    tied on f give the classes of the cell-by-cell union-find, and runs of
    one class that touch join into one run of consecutive cells."""
    s, n, rec, lab = case
    m = make_tent(s)
    with mock.patch.object(chainoracle, "recurrent_cells", lambda g: (rec.copy(), lab.copy())), \
            mock.patch.object(chainoracle, "_BLOCK", block):
        cc = chain_classes(m, n)
    want = reference_classes(n, reference_grouping(m, n, rec, lab), cc.graph)
    assert len(cc.classes) == len(want.classes)
    for got, cells in zip(cc.classes + cc.runs, want.classes + want.runs):
        assert got.dtype == cells.dtype
        assert np.array_equal(got, cells)


@pytest.mark.parametrize("s", [2.0, 1.4])
def test_chain_classes_peak_is_its_arrays_plus_18_a_cell_and_grouping_4kb(s, traced_peak):
    """The grid's two int32 windows and the int64 classes are kept.  The
    peak is inside recurrent_cells: its mask and labels go once they are
    scanned into runs, before the classes are written, so the grouping
    adds nothing to the grid and recurrent_cells' own peak but a few
    Python objects.  On top of what is kept that is 16.3 bytes a cell at
    s = 1.4 and 9.6 at s = 2, within 18; with the reversed windows as
    first and last cells it was 19.9 and 15.2, grouping cell by cell (an
    int64 flatnonzero, an argsort, f at every member) held 23.1 and 16.1,
    and sorting the labels with np.unique and keeping every gluing pair
    held about 77 at s = 2."""
    n = 200_000
    m = make_tent(s)
    chain_classes(m, 1000)
    cc = chain_classes(m, n)
    kept = cc.graph.jlo.nbytes + cc.graph.jhi.nbytes + sum(c.nbytes for c in cc.classes)
    del cc
    g = build_grid(m, n, 2 / n)
    own = traced_peak(recurrent_cells, g)
    peak = traced_peak(chain_classes, m, n)
    assert peak < kept + 18 * n
    assert peak < g.jlo.nbytes + g.jhi.nbytes + own + 4096


@pytest.mark.parametrize("m", [make_tent(1.5), make_tent(1.7), make_tent(1.9), make_tent(1.99),
                               make_tu(1.0), make_logistic(3.83)], ids=lambda m: m.label)
@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("k", [1.5, 1.625, 1.7499])
def test_conley_hulls_across_gaps_equal_reference(m, n, k):
    """Below 1.75h some neighbouring windows neither overlap nor touch, so
    a frontier splits into several hulls; the reach is the same cell for
    cell as the per-cell expansion's."""
    cc = chain_classes(m, n, max(k * (1.0 / n), 1.5 * (1.0 / n)))
    g = cc.graph
    assert np.any((g.jlo[1:] - 1 > g.jhi[:-1]) | (g.jlo[:-1] - 1 > g.jhi[1:]))
    assert conley_graph(cc) == reference_conley_graph(cc)


@st.composite
def _reach_case(draw):
    make, lo, hi = _MAPS[draw(st.sampled_from(sorted(_MAPS)))]
    n = draw(st.integers(100, 20_000))
    return make(draw(st.floats(lo, hi, exclude_min=True))), n, draw(st.floats(1.5, 8.0)) / n


@settings(max_examples=60, deadline=None)
@given(case=_reach_case())
@example(case=(make_tent(1.01), 20_000, 2 / 20_000))
@example(case=(make_tent(1.5), 20_000, 1.6 / 20_000))
@example(case=(make_logistic(4.0), 20_000, 2 / 20_000))
@example(case=(make_tu(1.0), 20_000, 2 / 20_000))
@example(case=(make_logistic(3.83), 100, 8 / 100))
def test_run_set_reach_equals_the_cell_level_reference(case):
    """The forward reach of the peel and of the Conley graph runs on run
    sets, each run cut where the windows turn or leave a gap.  On tent,
    logistic and tu grids from 1.5h, where neighbouring windows leave
    gaps, to 8h, and on maps steeper than the 1.5h floor keeps whole, the
    strong components are scipy's and the Conley edges the per-cell
    search's."""
    m, n, eps = case
    eps = max(eps, 1.5 * (1.0 / n))
    g = build_grid(m, n, eps)
    mask, lab = recurrent_cells(g)
    want_mask, want_lab = reference_recurrent_cells(g)
    assert np.array_equal(mask, want_mask)
    pairs = np.unique(np.stack([lab, want_lab]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]
    cc = chain_classes(m, n, eps)
    assert conley_graph(cc) == reference_conley_graph(cc)


def test_conley_hulls_skip_an_empty_window():
    """A hand-built grid of self-loops with empty windows (jlo > jhi) in
    the frontiers.  Class 0's frontier sends 13 to the empty [45, 44] and
    12 to [20, 22], next to 9's [23, 25]; a hull over the empty window
    would reach class 1 at 40, 41.  Class 2's frontier sends 72 to the
    empty [41, 40] and 73 into class 1."""
    n = 100
    jlo = np.arange(n, dtype=np.int32)
    jhi = jlo.copy()
    for cell, lo, hi in [(9, 23, 25), (12, 20, 22), (13, 45, 44), (25, 70, 70),
                         (72, 41, 40), (73, 39, 41)]:
        jlo[cell], jhi[cell] = lo, hi
    classes = tuple(np.array(c, dtype=np.int64) for c in ([10, 11], [40, 41], [70, 71]))
    cc = reference_classes(n, classes, GridGraph(n, 2.0 / n, jlo, jhi))
    assert conley_graph(cc) == reference_conley_graph(cc) == [(0, 2), (2, 1)]


def test_conley_graph_peak_is_a_few_kilobytes(traced_peak):
    """At s = 2 one class holds every recurrent cell, so no search runs:
    the peak is its runs and its halo, 4.3 kB at n = 2e5.  Seeding the
    search from two masks of the grid held 2 bytes a cell (400 kB)."""
    n = 200_000
    m = make_tent(2.0)
    conley_graph(chain_classes(m, 1000))
    cc = chain_classes(m, n)
    assert len(cc) == 1 and len(cc.classes[0]) > n // 2
    assert traced_peak(conley_graph, cc) < 8 * 1024


@pytest.mark.parametrize("s", [1.4, 1.8])
def test_conley_search_peak_is_a_few_kilobytes(s, traced_peak):
    """Below s = 2 there are two or three classes, and the search from
    each runs on run sets of a few dozen runs, so nothing of the grid's
    size is made: the peak is 9.9 kB at s = 1.4 and 9.1 kB at s = 1.8, at
    n = 2e5.  Searching frontiers of cells, with a mask of the grid per
    class, peaked at 4.4 and 6.7 bytes a cell (0.88 and 1.34 MB)."""
    n = 200_000
    m = make_tent(s)
    conley_graph(chain_classes(m, 1000))
    cc = chain_classes(m, n)
    assert len(cc) > 1
    assert traced_peak(conley_graph, cc) < 16 * 1024
