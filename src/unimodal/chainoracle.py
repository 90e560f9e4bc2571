"""Brute-force chain-recurrence oracle on a uniform grid.

Cross-checks the closed-form tower from `structure` without sharing any of
its reasoning: the domain is cut into n cells, an edge i -> j is drawn when
every point of cell j lies within eps of the image of cell i's center, and
the chain-recurrent set, its classes, and the reachability order between
them are read off the directed graph.  Strongly connected components come
from scipy; everything else is plain array work.

The chain-recurrent set is the intersection of the eps-chain-recurrent
sets over all eps > 0, and one eps is enough to compute it on a fixed
grid: the window bounds are monotone in eps - h under IEEE rounding, so a
smaller eps gives every cell a window nested inside the one a larger eps
gives it, and the recurrent set at eps is already the intersection over
any ladder of larger jump sizes ending at eps.  `build_grid` and
`recurrent_cells` stay public for inspecting the graph at any eps.

Edge slack is eps - h: with fc the image of the center of cell i, cell j is
admitted when |fc - center_j| <= eps - h, so every point of cell j sits
strictly inside the eps-jump budget (within eps - h/2 of fc).  The cell
containing fc is always admitted once eps >= 1.5h (the rounding residual
is at most h/2), so no true orbit is ever lost, while the strict margin
keeps discretization from inflating class supports: a chain of certified
jumps can widen by at most eps - h per step, which dies against the
overshoot rounding instead of compounding along the critical orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .maps import Interval, PiecewiseMap, hausdorff

__all__ = [
    "GridGraph",
    "ChainClasses",
    "MatchReport",
    "build_grid",
    "recurrent_cells",
    "chain_classes",
    "conley_graph",
    "verify_tower",
    "match_nodes",
    "expansion_time",
    "expansion_bound",
]

_MIN_CELLS = 100


@dataclass(frozen=True)
class GridGraph:
    """Directed eps-chain graph on n uniform cells, stored as index ranges.

    Tent-like maps send cell centers to contiguous target windows, so the
    out-neighbors of cell i are exactly jlo[i] .. jhi[i] (empty when
    jlo[i] > jhi[i]).
    """

    n: int
    eps: float
    jlo: np.ndarray
    jhi: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h


def build_grid(m: PiecewiseMap, n: int, eps: float) -> GridGraph:
    if n < _MIN_CELLS:
        raise ValueError(f"grid too coarse: n={n} < {_MIN_CELLS}")
    h = 1.0 / n
    if not (math.isfinite(eps) and eps >= 1.5 * h):
        raise ValueError(f"eps={eps} must be finite and at least 1.5h={1.5 * h}: "
                         f"below that no edges are certifiable ({eps / h:.3g} cell widths)")
    if m.domain.lo != 0.0 or m.domain.hi != 1.0:
        raise ValueError("oracle grid expects the unit interval domain")
    centers = (np.arange(n) + 0.5) * h
    fc = m(centers)
    slack = eps - h
    # clipped before the cast, so a huge eps cannot overflow int64
    jlo = np.clip(np.ceil((fc - slack) / h - 0.5), 0, n - 1).astype(np.int64)
    jhi = np.clip(np.floor((fc + slack) / h - 0.5), 0, n - 1).astype(np.int64)
    return GridGraph(n, eps, jlo, jhi)


def _expand(lo: np.ndarray, hi: np.ndarray):
    """Cells of the windows lo[k] .. hi[k] (empty when lo[k] > hi[k]),
    concatenated in order, and the running window ends."""
    counts = (hi - lo + 1).clip(min=0)
    ends = np.cumsum(counts)
    cells = np.repeat(lo - (ends - counts), counts)
    cells += np.arange(len(cells), dtype=np.int64)
    return cells, ends


def _sparse(g: GridGraph) -> csr_matrix:
    idx, ends = _expand(g.jlo, g.jhi)
    indptr = np.concatenate(([0], ends))
    return csr_matrix((np.ones(len(idx), np.int8), idx, indptr), shape=(g.n, g.n))


def recurrent_cells(g: GridGraph):
    """Boolean mask of chain-recurrent cells plus the strong-component labels.

    A cell is recurrent when its strongly connected component has at least
    two cells or carries a self-loop.
    """
    ncomp, lab = connected_components(_sparse(g), directed=True, connection="strong")
    sizes = np.bincount(lab, minlength=ncomp)
    ar = np.arange(g.n)
    selfloop = (g.jlo <= ar) & (ar <= g.jhi)
    has_loop = np.zeros(ncomp, bool)
    has_loop[lab[selfloop]] = True
    return (sizes >= 2)[lab] | has_loop[lab], lab


@dataclass(frozen=True)
class ChainClasses:
    """Chain-recurrent cells partitioned into classes, shallowest first.

    Classes are strong components of the eps-chain graph (recurrent cells
    with at most two cells between them are glued), ordered by the maximum
    of f over their centers, which on a tower runs from the boundary fixed
    class up to the attractor.  `graph` is that graph; its `eps` is the one
    jump size the classes were computed at.
    """

    n: int
    classes: tuple          # tuple of int64 arrays of cell indices
    graph: GridGraph        # the eps-chain graph, reused for reachability

    def __len__(self) -> int:
        return len(self.classes)

    def support(self, i: int):
        """Center-to-center hull of each run of consecutive cells."""
        h = self.graph.h
        out = []
        for lo, hi in self.runs(i):
            out.append(Interval((lo + 0.5) * h, (hi + 0.5) * h))
        return out

    def runs(self, i: int):
        cs = self.classes[i]
        breaks = np.flatnonzero(np.diff(cs) != 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [len(cs) - 1]))
        return [(int(cs[a]), int(cs[b])) for a, b in zip(starts, ends)]


def chain_classes(m: PiecewiseMap, n: int, eps: Optional[float] = None) -> ChainClasses:
    """Chain-recurrent classes of the eps-chain graph on n cells.

    eps defaults to two cell widths.  One jump size is enough: the windows
    at eps nest inside those at every larger jump size, so a ladder of
    decreasing eps ending here would give the same classes.  The partition
    and the reachability graph both come from this one graph.
    """
    if eps is None:
        # two cell widths; with n < 1 build_grid refuses the grid by name
        eps = 2 * (1.0 / n) if n > 0 else 0.0
    g = build_grid(m, n, eps)
    h = g.h
    rec, lab = recurrent_cells(g)
    cells = np.flatnonzero(rec)
    if len(cells) == 0:
        raise ValueError("no chain-recurrent cells: eps is too fine for this grid")

    # Undirected graph on grid cells plus one node per strong component:
    # each recurrent cell is tied to its component's node and to the next
    # recurrent cell when they are at most three cells apart.
    near = np.flatnonzero(np.diff(cells) <= 3)
    rows = np.concatenate((cells, cells[near]))
    cols = np.concatenate((n + lab[cells], cells[near + 1]))
    size = n + int(lab.max()) + 1
    link = csr_matrix((np.ones(len(rows), np.int8), (rows, cols)), shape=(size, size))
    comp = connected_components(link, directed=False)[1][cells]

    # Group cells by class (ascending within each), then order classes by
    # the maximum of f over their centers, ties by their first cell.
    order = np.argsort(comp, kind="stable")
    grouped = comp[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    members = cells[order]
    tops = np.maximum.reduceat(m((members + 0.5) * h), starts)
    groups = np.split(members, starts[1:])
    classes = tuple(groups[i] for i in np.lexsort((members[starts], tops)))
    return ChainClasses(n, classes, g)


def conley_graph(cc: ChainClasses):
    """Reachability edges between classes in the eps-chain graph.

    An edge i -> j is recorded when some cell within two cells of class i
    (but outside it) reaches class j along graph edges; this captures both
    genuine escape routes and orbits grazing past a repelling class.
    """
    g = cc.graph
    edges = []
    for i, cs in enumerate(cc.classes):
        seen = np.zeros(g.n, bool)
        for d in (-2, -1, 1, 2):
            # a clipped index lands on cell 0 or n-1 only when that cell is
            # itself in the class or genuinely near it
            seen[np.clip(cs + d, 0, g.n - 1)] = True
        seen[cs] = False
        frontier = np.flatnonzero(seen)
        while len(frontier):
            nxt = _expand(g.jlo[frontier], g.jhi[frontier])[0]
            nxt = np.sort(nxt[~seen[nxt]])
            nxt = nxt[np.diff(nxt, prepend=-1) != 0]
            seen[nxt] = True
            frontier = nxt
        for j in range(len(cc.classes)):
            if j != i and seen[cc.classes[j]].any():
                edges.append((i, j))
    return edges


def verify_tower(cc: ChainClasses, edges) -> bool:
    """True when the Conley graph is the full linear order 0 < 1 < ... < k-1.

    A two-way edge pair means the class partition was wrong, not just the
    order; that is an error, not a failed verification.
    """
    es = set(edges)
    for i, j in es:
        if (j, i) in es:
            raise ValueError(f"classes {i} and {j} reach each other: partition is not a tower")
    k = len(cc)
    return es == {(i, j) for i in range(k) for j in range(i + 1, k)}


@dataclass(frozen=True)
class MatchReport:
    passed: bool
    pairs: tuple            # (node_index, class_index, hausdorff distance)
    count_mismatch: bool
    tol: float
    message: str

    def to_dict(self):
        return {
            "passed": self.passed,
            "pairs": [list(p) for p in self.pairs],
            "count_mismatch": self.count_mismatch,
            "tol": self.tol,
            "message": self.message,
        }


def match_nodes(nodes, cc: ChainClasses, tol: float) -> MatchReport:
    """Best one-to-one pairing of analytic nodes against oracle classes.

    The assignment minimizes the summed Hausdorff distance between node
    supports and class supports (cell-center hulls); it passes when the
    counts agree and every paired distance is within tol.  A count mismatch
    is reported, not raised.
    """
    k_n, k_c = len(nodes), len(cc)
    cost = np.zeros((k_n, k_c))
    for a, nd in enumerate(nodes):
        sup = nd.support()
        for b in range(k_c):
            cost[a, b] = hausdorff(sup, cc.support(b))
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((int(a), int(b), float(cost[a, b])) for a, b in zip(rows, cols))
    mismatch = k_n != k_c
    worst = max((d for _, _, d in pairs), default=0.0)
    passed = (not mismatch) and worst <= tol
    if mismatch:
        msg = f"{k_n} analytic nodes vs {k_c} oracle classes"
    elif passed:
        msg = f"{k_n} nodes matched, worst Hausdorff {worst:.3g} <= {tol:.3g}"
    else:
        msg = f"worst Hausdorff {worst:.3g} exceeds {tol:.3g}"
    return MatchReport(passed, pairs, mismatch, tol, msg)


def expansion_bound(m: PiecewiseMap, lo: float, hi: float) -> int:
    """Step budget for a subinterval to expand over the core.

    With L the core length and d the interval length, the nominal term
    ceil(2 log(L/d) / log(s^2)) counts doublings at the uncut growth rate.
    Each pass of the image across the peak can halve the tracked length,
    costing log 2 / log s steps to recover; at most a handful of cuts
    happen before the image pins to the orbit of the peak, so the additive
    term ceil(9 log 2 / log s) + 2 absorbs them.  Calibrated against exact
    interval iteration over slopes down to 1.42 (worst observed deficit
    leaves a margin of at least five steps); arbitrarily close to sqrt(2)
    the cover time can still exceed the budget.
    """
    s = abs(m.slope_at(m.critical - 1e-9))
    c1 = m(m.critical)
    c2 = m(c1)
    core = c1 - c2
    d = hi - lo
    if d <= 0:
        raise ValueError("empty interval")
    cuts = math.ceil(9.0 * math.log(2.0) / math.log(s)) + 2
    if d >= core:
        return cuts
    return math.ceil(2.0 * math.log(core / d) / math.log(s * s)) + cuts


def expansion_time(m: PiecewiseMap, lo: float, hi: float) -> int:
    """Exact number of iterations until the image of [lo, hi] covers the
    core [c_2, c_1], within the budget `expansion_bound`.  Requires slope
    above sqrt(2): below that the map is renormalizable and small intervals
    near the center never spread.
    """
    s = abs(m.slope_at(m.critical - 1e-9))
    if s * s <= 2.0 - 1e-12:
        raise ValueError(f"slope {s} <= sqrt(2): no uniform expansion over the core")
    c1 = m(m.critical)
    c2 = m(c1)
    if not (m.domain.lo <= lo < hi <= m.domain.hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    cap = expansion_bound(m, lo, hi)
    a, b = lo, hi
    for k in range(cap + 1):
        if a <= c2 + 1e-12 and b >= c1 - 1e-12:
            return k
        a, b = m.interval_image(a, b)
    raise RuntimeError(f"interval failed to cover the core within {cap} steps")
