import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimodal import (
    ChainClasses,
    analytic_nodes,
    build_grid,
    chain_classes,
    conley_graph,
    expansion_bound,
    expansion_time,
    make_tent,
    match_nodes,
    recurrent_cells,
    verify_tower,
)


class TestGrid:
    def test_guards(self):
        m = make_tent(1.5)
        with pytest.raises(ValueError):
            build_grid(m, 50, 0.01)
        with pytest.raises(ValueError):
            build_grid(m, 1000, 0.0012)   # below 1.5 cells
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and at least 1.5h"):
                build_grid(m, 1000, eps)

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
        assert rep.passed
        assert not rep.count_mismatch

    def test_count_mismatch_is_reported_not_raised(self):
        # negative control: towers of different depths cannot pair up
        rep = match_nodes(analytic_nodes(1.8), chain_classes(make_tent(1.2), 10_000), tol=1.0)
        assert rep.count_mismatch
        assert not rep.passed
        assert "2 analytic nodes vs 3 oracle classes" in rep.message

    def test_report_is_jsonable(self):
        import json

        rep = match_nodes(analytic_nodes(1.8), chain_classes(make_tent(1.8), 10_000), tol=1e-3)
        json.dumps(rep.to_dict())


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
# reference oracle: every rung built, masks intersected, Python union-find
# ---------------------------------------------------------------------------

def reference_chain_classes(m, n, epsilons):
    h = 1.0 / n
    rec_all = None
    for e in epsilons:
        fine = build_grid(m, n, e)
        rec, lab = recurrent_cells(fine)
        rec_all = rec if rec_all is None else rec_all & rec
    cells = np.flatnonzero(rec_all)
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
    classes = tuple(np.array(sorted(cs), dtype=np.int64) for cs in ordered)
    return ChainClasses(n, classes, fine)


def reference_conley_graph(cc):
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
            lo, hi = g.jlo[frontier], g.jhi[frontier]
            counts = (hi - lo + 1).clip(min=0)
            total = int(counts.sum())
            if total == 0:
                break
            offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
            nxt = np.unique(np.repeat(lo, counts) + offs)
            nxt = nxt[~seen[nxt]]
            seen[nxt] = True
            frontier = nxt
        for j in range(len(cc.classes)):
            if j != i and seen[cc.classes[j]].any():
                edges.append((i, j))
    return sorted(edges)


@st.composite
def _oracle_case(draw):
    s = draw(st.floats(1.01, 2.0))
    n = draw(st.sampled_from([2_000, 20_000]))
    h = 1.0 / n
    mults = draw(st.lists(st.floats(1.5, 64.0), min_size=1, max_size=4))
    return s, n, sorted({k * h for k in mults}, reverse=True)


@settings(max_examples=40, deadline=None)
@given(case=_oracle_case())
def test_finest_rung_oracle_matches_reference(case):
    """One eps gives the classes and edges of any decreasing ladder of
    jump sizes ending at it."""
    s, n, eps = case
    m = make_tent(s)
    ref = reference_chain_classes(m, n, eps)
    cc = chain_classes(m, n, eps[-1])
    assert cc.graph.eps == eps[-1]
    assert len(cc.classes) == len(ref.classes)
    for got, want in zip(cc.classes, ref.classes):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert conley_graph(cc) == reference_conley_graph(ref)


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
