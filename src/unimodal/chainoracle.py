"""Brute-force chain-recurrence oracle on a uniform grid.

Chain recurrence only: the grid, its strong components, the classes, the
Conley graph between them and whether that graph is a tower.  The oracle
never sees the closed-form tower of `structure`; `cli` pairs the two.  The
domain is cut into n cells, an edge i -> j is drawn when every point of
cell j lies within eps of the image of cell i's center, and the
chain-recurrent set, its classes, and the reachability order between them
are read off the directed graph.  The strong component of one pivot cell
is peeled by a forward search over window hulls and a backward
breadth-first search from scipy; scipy's strong components label the
other cells, and everything else is plain array work.  scipy loads at the
first oracle call, not on import: it was 230 of the 350 ms of
`import unimodal` on 2 cores, and most callers never run the oracle.

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
is at most h/2), while the strict margin keeps discretization from
inflating class supports: a chain of certified jumps can widen by at most
eps - h per step, which dies against the overshoot rounding instead of
compounding along the critical orbit.  That does not keep every true
orbit on maps steeper than 2: the cell of a fixed point with slope lam at
a boundary keeps its self-loop only while (lam - 1)h/2 <= eps - h, that
is lam <= 2eps/h - 1.  The 1.5h floor is that bound at lam = 2, so tent
maps (lam = s <= 2) keep their classes at the default 2h, but a tu map
(lam = 3.854mu) or a logistic map near mu = 4 can lose the class at 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import Interval, PiecewiseMap, runs

__all__ = [
    "GridGraph",
    "ChainClasses",
    "build_grid",
    "recurrent_cells",
    "chain_classes",
    "conley_graph",
    "verify_tower",
]

_MIN_CELLS = 100
_BLOCK = 1 << 15     # windows or cells handled at once


@dataclass(frozen=True)
class GridGraph:
    """Directed eps-chain graph on n uniform cells, stored as index ranges.

    Tent-like maps send cell centers to contiguous target windows, so the
    out-neighbors of cell i are exactly jlo[i] .. jhi[i] (empty when
    jlo[i] > jhi[i]), in the `_index_dtype` of n: int32 below 2^31 cells.
    """

    n: int
    eps: float
    jlo: np.ndarray
    jhi: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n


def build_grid(m: PiecewiseMap, n: int, eps: float) -> GridGraph:
    """The eps-chain graph of m on n cells, its windows in `_index_dtype(n)`.

    Windows that would outgrow physical memory are refused by name, and so
    are the edges of a graph, in `_expand`, before either is allocated.
    """
    if n < _MIN_CELLS:
        raise ValueError(f"grid too coarse: n={n} < {_MIN_CELLS}")
    h = 1.0 / n
    if not (math.isfinite(eps) and eps >= 1.5 * h):
        raise ValueError(f"eps={eps} must be finite and at least 1.5h={1.5 * h}: "
                         f"below that no edges are certifiable ({eps / h!r} cell widths)")
    if m.domain.lo != 0.0 or m.domain.hi != 1.0:
        raise ValueError("oracle grid expects the unit interval domain")
    slack = eps - h
    _refuse_unless_fits(2 * n, _index_dtype(n), f"window bounds of a grid of n={n} cells")
    jlo = np.empty(n, _index_dtype(n))
    jhi = np.empty(n, jlo.dtype)
    # a block at a time, so no float temporary outgrows one block; clipped
    # before the cast, so a huge eps cannot overflow the index dtype
    for a in range(0, n, _BLOCK):
        fc = m((np.arange(a, min(a + _BLOCK, n)) + 0.5) * h)
        jlo[a:a + _BLOCK] = np.clip(np.ceil((fc - slack) / h - 0.5), 0, n - 1)
        jhi[a:a + _BLOCK] = np.clip(np.floor((fc + slack) / h - 0.5), 0, n - 1)
    return GridGraph(n, eps, jlo, jhi)


def _index_dtype(bound: int):
    """int32 while every index and offset up to bound fits in it, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _refuse_unless_fits(count: int, dtype, what: str) -> None:
    """Refuse by name an array of count items of dtype that is larger than
    the machine's physical memory, before any of it is allocated."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return      # no sysconf here: numpy's own MemoryError is the refusal
    need = count * np.dtype(dtype).itemsize
    if need > memory:
        raise ValueError(f"{count} {what} need {need} bytes ({need / 2**30:.1f} GiB), "
                         f"more than the {memory / 2**30:.1f} GiB of physical memory")


def _expand(lo: np.ndarray, hi: np.ndarray):
    """Cells of the windows lo[k] .. hi[k] (empty when lo[k] > hi[k]),
    concatenated in order, and the offsets where each window's cells start,
    with the total appended: CSR indices and row pointers, in the
    `_index_dtype` of their largest value.

    Slot p of window k holds cell lo[k] + p - ptr[k].  The windows are
    written _BLOCK at a time, so no scratch outgrows one block's edges.
    """
    ptr = np.zeros(len(lo) + 1, np.int64)
    np.maximum(hi - lo + 1, 0, out=ptr[1:])
    np.cumsum(ptr, out=ptr)
    total = int(ptr[-1])
    dtype = _index_dtype(max(total, int(hi.max(initial=0))))
    _refuse_unless_fits(total, dtype, "edges")
    ptr = ptr.astype(dtype)
    cells = np.empty(total, dtype)
    for a in range(0, len(lo), _BLOCK):
        p = ptr[a:a + _BLOCK + 1]
        # an empty window's shift may not fit, but it is never repeated
        shift = (lo[a:a + _BLOCK] - p[:-1]).astype(ptr.dtype)
        np.add(np.repeat(shift, np.diff(p)), np.arange(p[0], p[-1], dtype=ptr.dtype),
               out=cells[p[0]:p[-1]])
    return cells, ptr


def _induced(g: GridGraph, keep: np.ndarray):
    """The subgraph of g induced on the cells keep marks, as a CSR matrix
    with the kept cells numbered by rank.

    The kept cells of a window have consecutive ranks, so each kept row is
    still one window, of ranks, and `_expand` writes its edges.
    """
    # here, not at module top: scipy was 230 of the 350 ms of `import unimodal`
    from scipy.sparse import csr_matrix
    # kept cells before each cell: a window [lo, hi] holds the ranks
    # before[lo] .. before[hi + 1] - 1
    before = np.zeros(len(keep) + 1, g.jlo.dtype)
    np.cumsum(keep, dtype=before.dtype, out=before[1:])
    lo = np.take(before, g.jlo[keep])
    hi = g.jhi[keep]
    hi += 1
    hi = np.take(before, hi)
    hi -= 1
    del before
    idx, ptr = _expand(lo, hi)
    # csgraph reads only the structure, as float64: a zero-stride 1.0 is
    # that dtype already, so neither side copies the edges
    return csr_matrix((np.broadcast_to(1.0, len(idx)), idx, ptr), shape=(len(lo), len(lo)))


def recurrent_cells(g: GridGraph):
    """Boolean mask of chain-recurrent cells plus strong-component labels.

    A cell is recurrent when its strongly connected component has at least
    two cells or carries a self-loop.  The labels are arbitrary component
    ids: two cells share one exactly when they share a component.

    The component of the pivot, the first cell of largest jhi, is peeled
    first (Fleischer, Hendrickson & Pinar 2000): the cells the pivot
    reaches (`_reach`) that reach it back, found by one breadth-first
    search of the reversed subgraph on them, are its component, and they
    take one label.  scipy's strong components run only on the subgraph
    induced on the other cells, which no longer holds the one giant
    component of a chaotic map.
    """
    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components
    n = g.n
    pivot = int(np.argmax(g.jhi))
    fwd = np.zeros(n, bool)
    fwd[pivot] = True
    _reach(g, fwd)
    # the reversed subgraph as CSR: the forward CSR's arrays read as CSC
    # and converted with int8 data, so no float64 copy of the edges is made
    sub = _induced(g, fwd)
    back = csc_matrix((np.broadcast_to(np.int8(1), sub.nnz), sub.indices, sub.indptr),
                      shape=sub.shape).tocsr()
    del sub
    back = csr_matrix((np.broadcast_to(1.0, back.nnz), back.indices, back.indptr),
                      shape=back.shape)
    # searched from the pivot's rank among the cells it reaches
    hit = np.zeros(back.shape[0], bool)
    hit[breadth_first_order(back, int(np.count_nonzero(fwd[:pivot])),
                            return_predecessors=False)] = True
    del back
    # every cell outside the pivot's component
    rest = ~fwd
    rest[fwd] = ~hit
    del fwd, hit
    # no cell is left on every s = 2 grid, where the pivot's component is all
    ncomp, lab_rest = (connected_components(_induced(g, rest), connection="strong")
                       if rest.any() else (0, np.zeros(0, np.int32)))
    # the rest's cells in components of two or more, from its labels alone
    big = (np.bincount(lab_rest) >= 2)[lab_rest]
    lab = np.full(n, ncomp, lab_rest.dtype)
    lab[rest] = lab_rest
    del lab_rest
    ar = np.arange(n, dtype=g.jlo.dtype)
    # a one-cell component carries a self-loop exactly when its cell does
    rec = (g.jlo <= ar) & (ar <= g.jhi)
    del ar
    rec[rest] |= big
    # the peeled cells, ~rest, are one component
    if n - np.count_nonzero(rest) >= 2:
        rec |= ~rest
    return rec, lab


@dataclass(frozen=True)
class ChainClasses:
    """Chain-recurrent cells partitioned into classes, shallowest first.

    Classes are strong components of the eps-chain graph, glued when their
    recurrent cells lie at most three cells apart, ordered by the maximum
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
        return [Interval((lo + 0.5) * h, (hi + 0.5) * h)
                for lo, hi in runs(self.classes[i], 1)]


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
    cells = np.flatnonzero(rec).astype(g.jlo.dtype)
    if len(cells) == 0:
        raise ValueError("no chain-recurrent cells: eps is too fine for this grid")
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # Classes are strong components glued when their recurrent cells lie at
    # most three cells apart: an undirected graph with one node per label of
    # a recurrent cell, numbered by rank, and one edge per such pair of
    # consecutive cells with two labels.
    used = np.zeros(len(lab), bool)
    used[lab[cells]] = True
    node = np.cumsum(used, dtype=lab.dtype)[lab[cells]] - 1
    del rec, lab, used
    glue = np.diff(cells) <= 3
    glue &= node[1:] != node[:-1]
    near = np.flatnonzero(glue)
    k = int(node.max()) + 1
    link = csr_matrix((np.ones(len(near), bool), (node[near], node[near + 1])), shape=(k, k))
    comp = connected_components(link, directed=False)[1][node]
    del node, glue

    # Group cells by class (ascending within each), then order classes by
    # the maximum of f over their centers, ties by their first cell.
    order = np.argsort(comp, kind="stable")
    members, comp = cells[order], comp[order]
    del cells, order
    starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
    # f at the centers a block at a time: no temporary outgrows a block
    f = np.empty(len(members))
    for a in range(0, len(members), _BLOCK):
        f[a:a + _BLOCK] = m((members[a:a + _BLOCK] + 0.5) * h)
    tops = np.maximum.reduceat(f, starts)
    groups = np.split(members, starts[1:])
    classes = tuple(groups[i].astype(np.int64) for i in np.lexsort((members[starts], tops)))
    return ChainClasses(n, classes, g)


def _near(cs: np.ndarray, n: int) -> np.ndarray:
    """Mask of the cells within two cells of cs, outside cs: the mask of cs
    shifted by one and two cells either way, so no index array is copied."""
    inside = np.zeros(n, bool)
    inside[cs] = True
    near = np.zeros(n, bool)
    for d in (1, 2):
        near[d:] |= inside[:-d]
        near[:-d] |= inside[d:]
    near[cs] = False
    return near


def _hulls(lo: np.ndarray, hi: np.ndarray):
    """The union of the windows lo[k] .. hi[k] as sorted disjoint windows
    that neither overlap nor touch (empty ones may be among them).

    A run of consecutive windows, each overlapping or touching the next
    and none empty, covers exactly its hull [min lo, max hi]; an empty
    window is a run of its own.  The run ends are marked _BLOCK windows at
    a time, a byte a window, and the hulls are merged by a stable sort on
    their lows and a running max of their highs.
    """
    cut = np.empty(len(lo), bool)
    cut[:1] = True
    for a in range(1, len(lo), _BLOCK):
        l, h = lo[a - 1:a + _BLOCK], hi[a - 1:a + _BLOCK]
        c = cut[a:a + _BLOCK]
        np.greater(l[1:] - 1, h[:-1], out=c)
        c |= l[:-1] - 1 > h[1:]
        c |= l[1:] > h[1:]
        c |= l[:-1] > h[:-1]
    starts = np.flatnonzero(cut)
    del cut
    hlo = np.minimum.reduceat(lo, starts)
    hhi = np.maximum.reduceat(hi, starts)
    order = np.argsort(hlo, kind="stable")
    hlo, hhi = hlo[order], np.maximum.accumulate(hhi[order])
    new = np.empty(len(hlo), bool)
    new[:1] = True
    np.greater(hlo[1:] - 1, hhi[:-1], out=new[1:])
    return hlo[new], hhi[np.append(new[1:], True)]


def _reach(g: GridGraph, seen: np.ndarray) -> np.ndarray:
    """Mark in seen every cell reachable from the cells it marks; return seen.

    The search runs breadth first.  Each step takes the windows of the
    sorted frontier; a run of frontier cells whose windows overlap or
    touch, with no gap, reaches exactly its window hull, so the merged
    hulls (`_hulls`) expand once into the next sorted frontier, and no
    expanded cell is sorted.
    """
    frontier = np.flatnonzero(seen)
    while len(frontier):
        nxt = _expand(*_hulls(g.jlo[frontier], g.jhi[frontier]))[0]
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return seen


def conley_graph(cc: ChainClasses):
    """Reachability edges between classes in the eps-chain graph.

    An edge i -> j is recorded when some cell within two cells of class i
    (but outside it) reaches class j along graph edges (`_reach`); this
    captures both genuine escape routes and orbits grazing past a
    repelling class.
    """
    g = cc.graph
    edges = []
    for i, cs in enumerate(cc.classes):
        seen = _reach(g, _near(cs, g.n))
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
