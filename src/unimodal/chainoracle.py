"""Brute-force chain-recurrence oracle on a uniform grid.

Chain recurrence only: the grid, its strong components, the classes, the
Conley graph between them and whether that graph is a tower.  The oracle
never sees the closed-form tower of `structure`; `cli` pairs the two.  The
domain is cut into n cells, an edge i -> j is drawn when every point of
cell j lies within eps of the image of cell i's center, and the
chain-recurrent set, its classes, and the reachability order between them
are read off the directed graph.  No edge list is ever made: every
search runs on the windows themselves, forward on the windows and
backward on the reversed windows, which on each lap of the map are one
run of cells too (Kalies, Mischaikow & VanderVorst 2005 read the same
graph off boxes).  The strong component of one pivot cell is peeled
first; the other cells are trimmed on runs and split by forward-backward
search (Fleischer, Hendrickson & Pinar 2000), and the classes are glued
by a union-find on arrays; numpy is all it needs.

The grid's forward searches, the peel's and the Conley graph's, run on
sorted run sets.  Cut wherever the windows turn, are empty or leave a
gap, a run's windows are monotone and each overlaps or touches the next,
so they hold exactly the hull of its end windows: a step costs the same
on a run of any length.  The peel's backward search ends once it has
found every cell the pivot reaches, a Conley search once it has met
every other class.

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
from functools import cached_property
from typing import Optional

import numpy as np

from .maps import Interval, PiecewiseMap

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
_INT32_MAX = np.iinfo(np.int32).max
_BLOCK = 1 << 15     # windows or cells handled at once
_STEP = 1 << 13      # frontier cells _reach_back expands at once


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

    @cached_property
    def _laps(self):
        # one scan of neighbouring windows, read by the peel and the Conley graph
        return _pieces(self)


def build_grid(m: PiecewiseMap, n: int, eps: float) -> GridGraph:
    """The eps-chain graph of m on n cells, its windows in `_index_dtype(n)`.

    Windows that would outgrow physical memory are refused by name before
    they are allocated.  No other array of the oracle outgrows a few times
    theirs: every search expands sorted runs that do not overlap, never a
    window of every cell.
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
    dtype = _index_dtype(n)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = None       # no sysconf here: numpy's own MemoryError is the refusal
    need = 2 * n * np.dtype(dtype).itemsize
    if memory is not None and need > memory:
        raise ValueError(f"{2 * n} window bounds of a grid of n={n} cells need {need} bytes "
                         f"({need / 2**30:.1f} GiB), more than the {memory / 2**30:.1f} GiB "
                         f"of physical memory")
    jlo = np.empty(n, dtype)
    jhi = np.empty(n, dtype)
    # a block at a time, so no float temporary outgrows one block; clipped
    # before the cast, so a huge eps cannot overflow the index dtype
    for a in range(0, n, _BLOCK):
        fc = m((np.arange(a, min(a + _BLOCK, n)) + 0.5) * h)
        jlo[a:a + _BLOCK] = np.clip(np.ceil((fc - slack) / h - 0.5), 0, n - 1)
        jhi[a:a + _BLOCK] = np.clip(np.floor((fc + slack) / h - 0.5), 0, n - 1)
    return GridGraph(n, eps, jlo, jhi)


def _index_dtype(bound: int):
    """int32 while every index and offset up to bound fits in it, else int64."""
    return np.int32 if bound <= _INT32_MAX else np.int64


def _expand(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cells of the runs lo[k] .. hi[k] (empty when lo[k] > hi[k]),
    concatenated in order, in the dtype of lo.

    Every caller hands sorted runs that do not overlap: merged hulls, cut
    reversed windows or trimmed runs.  So the cells are at most the grid's
    (or a level's), and their count and offsets fit in the dtype of the
    cell numbers.  The runs are written _BLOCK at a time, so no scratch
    outgrows one block's cells.
    """
    ptr = np.zeros(len(lo) + 1, lo.dtype)
    np.maximum(hi - lo + 1, 0, out=ptr[1:])
    np.cumsum(ptr, out=ptr)
    cells = np.empty(ptr[-1], lo.dtype)
    for a in range(0, len(lo), _BLOCK):
        p = ptr[a:a + _BLOCK + 1]
        np.add(np.repeat(lo[a:a + _BLOCK] - p[:-1], np.diff(p)),
               np.arange(p[0], p[-1], dtype=lo.dtype), out=cells[p[0]:p[-1]])
    return cells


def _pieces(g: GridGraph):
    """The laps of the windows: each maximal run of cells with non-empty
    windows over which jlo and jhi both rise or both fall, as (first,
    last, rising) triples; two on a unimodal grid.  And the segments, the
    laps cut again wherever neighbouring windows leave a gap, as arrays of
    first and last cells: the windows of a segment's cells a .. b hold
    [min(jlo[a], jlo[b]), max(jhi[a], jhi[b])].  Neighbouring cells are
    compared _BLOCK pairs at a time.
    """
    lo, hi, n = g.jlo, g.jhi, g.n
    cuts, gaps = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    prev = None         # whether the last pair that moved rose
    for a in range(0, n - 1, _BLOCK):
        l1, h1 = lo[a + 1:a + _BLOCK + 1], hi[a + 1:a + _BLOCK + 1]
        l0, h0 = lo[a:a + len(l1)], hi[a:a + len(l1)]
        up = (l1 >= l0) & (h1 >= h0)
        down = (l1 <= l0) & (h1 <= h0)
        cut = ~(up | down) | (l0 > h0) | (l1 > h1)
        moved = np.flatnonzero((up != down) & ~cut)
        rising = up[moved]
        turn = np.flatnonzero(np.diff(rising, prepend=rising[:1] if prev is None else prev))
        cut[moved[turn]] = True
        if len(moved):
            prev = rising[-1:]
        cuts.append(np.flatnonzero(cut) + a)
        gaps.append(np.flatnonzero(cut | (l1 - 1 > h0) | (l0 - 1 > h1)) + a)
    cut = np.concatenate(cuts)
    first, last = np.r_[0, cut + 1], np.r_[cut, n - 1]
    keep = lo[first] <= hi[first]       # an empty window is a piece of one cell
    first, last = first[keep], last[keep]
    rising = ~((lo[last] < lo[first]) | (hi[last] < hi[first]))
    gap = np.concatenate(gaps)
    return (list(zip(first.tolist(), last.tolist(), rising.tolist())),
            (np.r_[0, gap + 1].astype(lo.dtype), np.r_[gap, n - 1].astype(lo.dtype)))


def _pairs(first: np.ndarray, count: np.ndarray):
    """Index pairs (k, first[k] + p) for p < count[k], in order of k and p."""
    np.maximum(count, 0, out=count)
    k = np.repeat(np.arange(len(first)), count)
    return k, np.arange(len(k)) + np.repeat(first - (np.cumsum(count) - count), count)


def _meet(alo, ahi, blo, bhi):
    """The cells of both run sets, as runs; each set is sorted runs that do
    not overlap, and so is the result."""
    first = np.searchsorted(bhi, alo)
    a, b = _pairs(first, np.searchsorted(blo, ahi, side="right") - first)
    return np.maximum(alo[a], blo[b]), np.minimum(ahi[a], bhi[b])


def _gaps(mask: np.ndarray):
    """The runs of the cells the mask leaves unmarked, as first and last cells."""
    bounds = np.concatenate(([0], np.flatnonzero(mask[1:] != mask[:-1]) + 1, [len(mask)]))
    first = bounds[:-1]
    keep = ~mask[first]
    return first[keep], bounds[1:][keep] - 1


def _reversed(g: GridGraph, pieces):
    """The reversed windows: per piece, the first of its cells whose windows
    hold each cell j and how many do, as a pair of arrays over j (`_held`).
    On a piece jlo and jhi are monotone, so those cells are one run.  Read
    in rising order, the piece's windows that end before j number the first
    of them and the windows that start at or before j one past the last
    (`_count_upto`), so both come a block at a time and no last cell is
    kept.  The first cells are in the dtype of the grid, the counts in the
    narrowest unsigned dtype that holds the piece's largest.  On a lap of
    slope at least lam the centers' images lie lam*h apart, so at most
    2(eps - h)/(lam*h) + 2 windows hold a cell: 3 on a tent grid at 2h
    (lam = s > 1), and a byte holds them while eps <= 126s*h.  Near a flat
    critical point they pile up: logistic(4.0) at 2h, n = 1e6 takes a uint16.
    """
    n = g.n
    rev = []
    for p0, p1, rising in pieces:
        jlo, jhi = g.jlo[p0:p1 + 1], g.jhi[p0:p1 + 1]
        if not rising:
            jlo, jhi = jlo[::-1], jhi[::-1]
        first, count = np.empty(n, jlo.dtype), np.empty(n, np.uint8)
        for a, before, upto in zip(range(0, n, _BLOCK), _count_upto(jhi, 1, n),
                                   _count_upto(jlo, 0, n)):
            held = upto - before
            top = held.max()
            if top > np.iinfo(count.dtype).max:
                count = count.astype(np.min_scalar_type(top))
            count[a:a + _BLOCK] = held
            first[a:a + _BLOCK] = p0 + before if rising else p1 + 1 - upto
        rev.append((first, count))
    return rev


def _held(lap, j):
    """The first and last cells of a lap whose windows hold each cell j
    (first > last where none does), from its reversed windows, in the dtype
    of the cells."""
    first, count = lap
    lo = first[j]
    return lo, np.add(lo, count[j], dtype=lo.dtype) - 1


def _count_upto(ends: np.ndarray, shift: int, n: int):
    """For each cell j < n, how many of the rising ends e have e + shift
    <= j, in the dtype of ends, yielded _BLOCK cells at a time: k from
    e[k - 1] + shift up to e[k] + shift.  Each block is written from the
    ends that fall in it, read _BLOCK at a time, so no scratch outgrows a
    block however many ends one cell takes.
    """
    k = 0               # the ends below the block
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        count = np.empty(b - a, ends.dtype)
        j = a           # the cells below j are written
        while True:
            e = ends[k:k + _BLOCK] + shift
            inside = int(np.count_nonzero(e < b))   # the ends rise: a prefix
            if inside:
                at = np.concatenate(([j], e[:inside]), dtype=ends.dtype)
                count[j - a:at[-1] - a] = np.repeat(np.arange(k, k + inside, dtype=ends.dtype),
                                                    np.diff(at))
                j, k = int(at[-1]), k + inside
            if inside < _BLOCK:
                break
        count[j - a:] = k
        yield count


def _search(lo, hi, seen: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Mark in seen every cell reachable from the cells it marks, through
    cells that inside marks; return seen.  Cell i steps to the cells
    lo[k][i] .. hi[k][i] of each k.

    The search runs breadth first: the union (`_union`) of the sorted
    frontier's windows expands once into the next sorted frontier, and no
    expanded cell is sorted.
    """
    frontier = np.flatnonzero(seen)
    while len(frontier):
        nxt = _expand(*_union(*(np.concatenate([v[frontier] for v in w]) for w in (lo, hi)))[:2])
        frontier = nxt[~seen[nxt] & inside[nxt]]
        del nxt
        seen[frontier] = True
    return seen


def _reach(g: GridGraph, lo: np.ndarray, hi: np.ndarray, stop=None):
    """The cells that the runs lo, hi reach, themselves included, as a run
    set (`_union`).  Breadth first: each step takes the hull of the end
    windows of each frontier run, cut at the segments (`_pieces`), and the
    runs of what is seen that it adds or grows are the next frontier.
    stop, when given, is called with the seeds and with each frontier, and
    the search ends once it returns true.
    """
    first, last = g._laps[1]
    new = lo, hi = _union(lo, hi)[:2]
    while len(new[0]) and not (stop and stop(*new)):
        a, b = new
        if (last.searchsorted(a) != last.searchsorted(b)).any():
            a, b = _meet(a, b, first, last)
        ulo, uhi, start = _union(np.concatenate((lo, np.minimum(g.jlo[a], g.jlo[b]))),
                                 np.concatenate((hi, np.maximum(g.jhi[a], g.jhi[b]))))
        # a run is as it was when it starts with a run of seen and ends there
        grown = (start >= len(lo)) | (hi[np.minimum(start, len(lo) - 1)] != uhi)
        new, lo, hi = (ulo[grown], uhi[grown]), ulo, uhi
    return lo, hi


def _reach_back(rev, pieces, state: np.ndarray, total: int) -> np.ndarray:
    """Mark found (2) in state every cell it marks reached (1) that reaches
    a found cell through reached cells; return state once total cells are
    found.

    The search runs breadth first over the reversed windows (`_reversed`),
    _STEP frontier cells at a time.  For a sorted block of the frontier a
    piece's reversed windows are monotone, so each is cut at the end of
    the ones before it, and the pieces' windows, read in rising order one
    piece after the other, expand into the block's new cells in order with
    no cell twice: a sorted block of the next frontier.
    """
    order = [slice(None) if rising else slice(None, None, -1) for _, _, rising in pieces]
    frontier = [np.flatnonzero(state == 2)]
    count = len(frontier[0])
    while frontier:
        found = []
        while frontier:
            # each block is let go once searched
            block = frontier.pop()
            # the cells a piece has given so far end at edge: below it on a
            # rising piece, whose windows rise from step to step, above it
            # on a falling one
            edge = [-1 if rising else p1 + 1 for _, p1, rising in pieces]
            for a in range(0, len(block), _STEP):
                f = block[a:a + _STEP]
                windows = []
                for i, (lap, o) in enumerate(zip(rev, order)):
                    lo, hi = _held(lap, f[o])
                    keep = lo <= hi
                    lo, hi = lo[keep], hi[keep]
                    if len(lo) and pieces[i][2]:
                        np.maximum(lo, edge[i] + 1, out=lo)
                        edge[i] = max(edge[i], int(hi[-1]))
                    elif len(lo):
                        np.minimum(hi, edge[i] - 1, out=hi)
                        edge[i] = min(edge[i], int(lo[0]))
                    np.maximum(lo[1:], hi[:-1] + 1, out=lo[1:])
                    windows.append((lo, hi))
                cells = _expand(*(np.concatenate(w) for w in zip(*windows)))
                cells = cells[state[cells] == 1]
                state[cells] = 2
                count += len(cells)
                if count == total:
                    return state
                if len(cells):
                    found.append(cells)
        frontier = found
    return state


def _cover(lo, hi):
    """The cells that at least one and at least two of the windows lo[k] ..
    hi[k] hold, as two run sets: a sweep over the windows' sorted ends."""
    keep = lo <= hi
    at = np.concatenate((lo[keep], hi[keep] + 1))
    order = np.argsort(at, kind="stable")
    at = at[order]
    depth = np.cumsum(np.where(order < len(at) // 2, 1, -1))
    # depth[i] windows hold the cells at[i] .. at[i + 1] - 1
    last = np.ones(len(at), bool)
    np.not_equal(at[1:], at[:-1], out=last[:-1])
    at, depth = at[last], depth[last]
    out = []
    for k in (1, 2):
        edge = np.diff((depth >= k).view(np.int8), prepend=np.int8(0))
        out.append((at[edge == 1], at[edge == -1] - 1))
    return out


def _first_in(lo, hi, x):
    """The first cell at or after each x in the run set lo, hi, else the
    largest int64."""
    k = np.searchsorted(hi, x)
    found = k < len(hi)
    return np.where(found, np.maximum(x, lo[np.minimum(k, len(hi) - 1)] if len(hi) else x),
                    np.iinfo(np.int64).max)


def _last_in(lo, hi, y):
    """The last cell at or before each y in the run set lo, hi, else -1."""
    k = np.searchsorted(lo, y, side="right") - 1
    return np.where(k >= 0, np.minimum(y, hi[np.maximum(k, 0)] if len(hi) else y), -1)


def _first_other(a, b, own_lo, own_hi, one, two):
    """The first cell of each run a .. b that the windows of the other runs
    hold, else b + 1.  one and two are the run sets of the cells that at
    least one and at least two of all the runs' windows hold, the run's
    own window own_lo .. own_hi among them."""
    c1 = _first_in(*one, a)
    c2 = _first_in(*two, np.maximum(a, own_lo))
    return np.minimum.reduce([np.where(c1 < own_lo, c1, b + 1), np.where(c2 <= own_hi, c2, b + 1),
                              _first_in(*one, np.maximum(a, own_hi + 1)), b + 1])


def _last_other(a, b, own_lo, own_hi, one, two):
    """The last cell of each run a .. b that the windows of the other runs
    hold, else a - 1; as `_first_other`."""
    c1 = _last_in(*one, b)
    c2 = _last_in(*two, np.minimum(b, own_hi))
    return np.maximum.reduce([np.where(c1 > own_hi, c1, a - 1), np.where(c2 >= own_lo, c2, a - 1),
                              _last_in(*one, np.minimum(b, own_lo - 1)), a - 1])


def _trim(g: GridGraph, pieces, rev, lo, hi):
    """Trim the run set lo, hi on runs, round by round, until it holds at
    most a 32nd of the grid or a round drops no cell; return what is left,
    as runs.

    Every cell dropped has, in what was left when it was dropped, no
    successor or no predecessor other than itself, so it lies outside the
    largest subset whose cells all keep both: it is a strong component of
    its own, and its one-cell label is final.  Each round cuts the runs at
    the pieces and takes the cells a run's windows hold to be their hull,
    which holds them all (and, past a gap between windows, a few more):
    - it keeps the cells that lie in the image and in the preimage of the
      run set;
    - it eats each run on a rising piece from both ends at once.  Its
      first cells die up to the first one that another run's image holds
      or that a later cell of its piece holds (above); its last cells die
      down to the last one whose window meets another run or holds an
      earlier cell (below).  These are the chains of transient cells that
      leave a repelling fixed point, which would take a round a window.
    A round costs a few hundred numpy calls whatever the runs hold, so the
    last cells are left to `_components`, which trims them cell by cell;
    its arrays take some tens of bytes a cell it holds, so at a 32nd of
    the grid they stay within a few bytes a grid cell.
    """
    floor = g.n // 32
    size = int(np.sum(hi - lo + 1))
    if size <= floor:
        return lo, hi
    starts, ends, rising = (np.array(v) for v in zip(*pieces))
    # the run set's cells on rising pieces that a later cell of their piece
    # holds (above), and whose windows hold an earlier cell (below), found
    # _BLOCK cells at a time
    above, below = [np.zeros(0, lo.dtype)], [np.zeros(0, lo.dtype)]
    for i, (p0, p1, up) in enumerate(pieces):
        for a in range(p0, p1 + 1, _BLOCK) if up else ():
            c = np.arange(a, min(a + _BLOCK, p1 + 1), dtype=lo.dtype)
            k = np.searchsorted(lo, c, side="right") - 1
            c = c[(k >= 0) & (c <= hi[np.maximum(k, 0)])]
            above.append(c[_held(rev[i], c)[1] > c])
            below.append(c[g.jlo[c] < c])
    above, below = np.concatenate(above), np.concatenate(below)
    while size > floor:
        # each run cut at the pieces: cells a .. b of piece p
        f0 = np.searchsorted(ends, lo)
        k, p = _pairs(f0, np.searchsorted(starts, hi, side="right") - f0)
        a, b = np.maximum(lo[k], starts[p]), np.minimum(hi[k], ends[p])
        up = rising[p]
        img_lo, img_hi = np.where(up, g.jlo[a], g.jlo[b]), np.where(up, g.jhi[b], g.jhi[a])
        # its preimage on each piece, its own piece's in row p
        pre_lo = np.stack([f[a] if r else f[b] for (f, _), r in zip(rev, rising)])
        pre_hi = np.stack([_held(lap, b if r else a)[1] for lap, r in zip(rev, rising)])
        img, pre = _cover(img_lo, img_hi), _cover(pre_lo.ravel(), pre_hi.ravel())
        nlo, nhi = _meet(*_meet(lo, hi, *img[0]), *pre[0])
        # a run on a rising piece is eaten from both ends: up to the first
        # cell that another run's image holds, and down to the last whose
        # window meets another run
        a, b, j = a.astype(np.int64), b.astype(np.int64), np.flatnonzero(up)
        a[j] = np.minimum(_first_other(a[j], b[j], img_lo[j], img_hi[j], *img),
                          _first_in(above, above, a[j]))
        b[j] = np.maximum(_last_other(a[j], b[j], pre_lo[p[j], j], pre_hi[p[j], j], *pre),
                          _last_in(below, below, b[j]))
        keep = a <= b
        nlo, nhi = _meet(nlo, nhi, a[keep].astype(lo.dtype), b[keep].astype(lo.dtype))
        new = int(np.sum(nhi - nlo + 1))
        if new == size:
            break
        lo, hi, size = nlo, nhi, new
    return lo, hi


def _components(g: GridGraph, cells: np.ndarray, pre, lab: np.ndarray, rec: np.ndarray):
    """Label the strong components of the subgraph on the sorted cells,
    whose reversed windows on each piece are the pairs of arrays pre.

    Forward-backward search, one level of parts at a time: every cell
    starts in one part; each level trims the parts, searches forward and
    backward from one pivot per part, inside its part, and labels the
    pivot's component, the cells found both ways, with the pivot.  The
    cells found only forward, only backward and neither make three new
    parts.  A pivot is the cell of its part with the largest multiplicative
    hash, so on a chain of components it lands in the middle on average.

    The cells of a level are renumbered in order of part and cell, so the
    window of a cell within its part is one run of numbers, and so are its
    predecessors on each piece; every array of a level is as long as its
    cells, and nothing of the grid's size is made.  A trim round scans
    every cell of its level, so once fewer than half of them are live the
    live ones are renumbered and trimmed on as a level of their own.
    """
    n, dtype = g.n, g.jlo.dtype
    part = np.zeros(len(cells), dtype)
    while len(cells):
        key = part * np.int64(n) + cells

        def numbers(a, b):
            # the numbers of the cells a .. b of each cell's own part
            at = part * np.int64(n)
            return (np.searchsorted(key, at + a).astype(dtype),
                    (np.searchsorted(key, at + b, side="right") - 1).astype(dtype))

        succ = numbers(g.jlo[cells], g.jhi[cells])
        pred = [numbers(a, b) for a, b in pre]
        loop = (g.jlo[cells] <= cells) & (cells <= g.jhi[cells])
        del key
        live = np.ones(len(cells), bool)
        count = np.zeros(len(cells) + 1, dtype)
        while 2 * np.count_nonzero(live) >= len(cells):
            np.cumsum(live, out=count[1:])
            out = count[succ[1] + 1] - count[succ[0]] - loop
            into = sum(np.maximum(count[b + 1] - count[a], 0) for a, b in pred) - loop
            keep = live & (out > 0) & (into > 0)
            if np.count_nonzero(keep) == np.count_nonzero(live):
                break
            live = keep
        del count, out, into, keep
        if 2 * np.count_nonzero(live) < len(cells):
            # most of the level is dead: trim on what is left, renumbered
            cells, part = cells[live], part[live]
            pre = [(a[live], b[live]) for a, b in pre]
            continue
        idx = np.flatnonzero(live)
        starts = np.flatnonzero(np.diff(part[idx], prepend=-1))
        hashed = (cells[idx].astype(np.int64) * 0x9E3779B1) & 0xFFFFFFFF
        best = np.repeat(np.maximum.reduceat(hashed, starts), np.diff(starts, append=len(idx)))
        pivot = idx[hashed == best]
        del idx, hashed, best
        fwd = np.zeros(len(cells), bool)
        fwd[pivot] = True
        bwd = fwd.copy()
        _search([succ[0]], [succ[1]], fwd, live)
        _search([a for a, _ in pred], [b for _, b in pred], bwd, live)
        del succ, pred
        comp = fwd & bwd
        # each component takes the cell of its part's pivot as its label
        owner = np.zeros(int(part[-1]) + 1, dtype)
        owner[part[pivot]] = cells[pivot]
        lab[cells[comp]] = owner[part[comp]]
        size = np.bincount(part[comp], minlength=len(owner))
        rec[cells[comp][size[part[comp]] >= 2]] = True
        live &= ~comp
        code = part[live] * np.int64(3) + fwd[live] + 2 * bwd[live]
        cells = cells[live]
        order = np.lexsort((cells, code))
        cells, code = cells[order], code[order]
        pre = [(a[live][order], b[live][order]) for a, b in pre]
        part = np.cumsum(np.diff(code, prepend=code[:1]) != 0, dtype=dtype)


def recurrent_cells(g: GridGraph):
    """Boolean mask of chain-recurrent cells plus strong-component labels.

    A cell is recurrent when its strongly connected component has at least
    two cells or carries a self-loop.  The labels are cell numbers: two
    cells share one exactly when they share a component.

    The component of the pivot, the first cell of largest jhi, is peeled
    first (Fleischer, Hendrickson & Pinar 2000): the cells the pivot
    reaches on run sets (`_reach`) that reach it back, found by a search
    of the reversed windows (`_reversed`, `_reach_back`) kept to the cells
    it reaches.  A lap's reversed window of a cell is its first cell and a
    count of cells, a byte on tent grids, where a slope above 1 keeps it at
    3 or less at 2h; the peel holds one state byte a cell: outside, reached
    forward, found backward.  The other cells are trimmed on runs (`_trim`)
    until they fit in a 32nd of the grid; `_components` finishes the trim
    cell by cell and splits what is left, from those cells' reversed
    windows alone, so the mask and the labels are made once the grid's are
    let go.  Every search runs on the windows themselves, and no edge list
    is made.
    """
    n = g.n
    pieces = g._laps[0]
    pivot = int(np.argmax(g.jhi))
    lo, hi = _reach(g, *np.full((2, 1), pivot, g.jlo.dtype))
    # one state a cell: outside (0), reached forward (1), found backward (2)
    state = np.zeros(n, np.int8)
    state[_expand(lo, hi)] = 1
    state[pivot] = 2
    rev = _reversed(g, pieces)
    comp = _reach_back(rev, pieces, state, int(np.sum(hi - lo + 1))) == 2
    del state
    # the cells outside the pivot's component, trimmed on runs
    lo, hi = (c.astype(g.jlo.dtype) for c in _gaps(comp))
    lo, hi = _trim(g, pieces, rev, lo, hi)
    cells = _expand(lo, hi)
    pre = [_held(lap, cells) for lap in rev]
    del rev
    rec = np.empty(n, bool)
    for a in range(0, n, _BLOCK):
        ar = np.arange(a, min(a + _BLOCK, n), dtype=g.jlo.dtype)
        np.less_equal(g.jlo[a:a + _BLOCK], ar, out=rec[a:a + _BLOCK])
        rec[a:a + _BLOCK] &= ar <= g.jhi[a:a + _BLOCK]
    lab = np.arange(n, dtype=g.jlo.dtype)
    lab[comp] = pivot
    if np.count_nonzero(comp) >= 2:
        rec |= comp
    del comp
    _components(g, cells, pre, lab, rec)
    return rec, lab


@dataclass(frozen=True)
class ChainClasses:
    """Chain-recurrent cells partitioned into classes, shallowest first.

    Classes are strong components of the eps-chain graph, glued when their
    recurrent cells lie at most three cells apart, ordered by the maximum
    of f over their centers, which on a tower runs from the boundary fixed
    class up to the attractor.  Each class is its sorted cells, a slice of
    one int64 array of every recurrent cell, and its runs of consecutive
    cells are the rows (first, last) of an int64 array.  `graph` is that
    graph; its `eps` is the one jump size the classes were computed at.
    """

    n: int
    classes: tuple          # tuple of int64 arrays of cell indices
    graph: GridGraph        # the eps-chain graph, reused for reachability
    runs: tuple             # tuple of int64 arrays of (first, last) rows

    def __len__(self) -> int:
        return len(self.classes)

    def support(self, i: int):
        """Center-to-center hull of each run of consecutive cells."""
        return list(self._supports[i])

    @cached_property
    def _supports(self):
        # the intervals made once, however often a support is read
        h = self.graph.h
        return [[Interval((lo + 0.5) * h, (hi + 0.5) * h) for lo, hi in r.tolist()]
                for r in self.runs]


def _label_runs(rec: np.ndarray, lab: np.ndarray):
    """The runs of consecutive recurrent cells that share a label, as their
    first cells, last cells and labels.  The cells are read _BLOCK at a
    time, each as its label or -1 when it is not recurrent, and a run
    starts wherever that number changes to a label."""
    n = len(rec)
    at, key = [np.zeros(0, np.intp)], [np.zeros(0, lab.dtype)]
    prev = -1
    for a in range(0, n, _BLOCK):
        k = np.where(rec[a:a + _BLOCK], lab[a:a + _BLOCK], -1)
        change = np.flatnonzero(k != np.concatenate(([prev], k[:-1]), dtype=k.dtype))
        at.append(change + a)
        key.append(k[change])
        prev = k[-1]
    at, key = np.concatenate(at), np.concatenate(key)
    run = key >= 0
    return at[run], (np.append(at[1:], n) - 1)[run], key[run]


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
    first, last, label = _label_runs(rec, lab)
    del rec, lab
    if len(first) == 0:
        raise ValueError("no chain-recurrent cells: eps is too fine for this grid")
    # Classes are strong components glued when their recurrent cells lie at
    # most three cells apart.  Inside a run the label does not change, so
    # only the last cell of a run and the first of the next can glue: the
    # labels, numbered by rank, are linked for each such pair with two.
    labels, node = np.unique(label, return_inverse=True)
    near = np.flatnonzero((first[1:] - last[:-1] <= 3) & (label[1:] != label[:-1]))
    comp = _link(len(labels), node[near], node[near + 1])[node]

    # The runs grouped by class, in order within each; the cells of every
    # run written into one array by a running sum of ones and of the jump
    # from each run to the next, so no run is expanded on its own.
    order = np.argsort(comp, kind="stable")
    first, last, comp = first[order], last[order], comp[order]
    size = last - first + 1
    at = np.cumsum(size) - size
    cells = np.ones(int(at[-1] + size[-1]), np.int64)
    cells[at] = first - np.append(0, last[:-1])
    np.cumsum(cells, out=cells)
    split = np.r_[True, comp[1:] != comp[:-1]]
    starts = at[np.flatnonzero(split)]
    bounds = np.append(starts, len(cells))
    groups = [cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    # each class's runs of consecutive cells: its runs, those that touch joined
    head = split | np.r_[True, first[1:] > last[:-1] + 1]
    spans = np.split(np.stack((first[head], last[np.r_[head[1:], True]]), axis=1),
                     np.flatnonzero(split[head])[1:])
    # order classes by the maximum of f over their centers, ties by their
    # first cell; f is taken a block at a time, so no temporary outgrows a block
    tops = [max(float(m((cs[a:a + _BLOCK] + 0.5) * h).max()) for a in range(0, len(cs), _BLOCK))
            for cs in groups]
    rank = np.lexsort((cells[starts], tops))
    return ChainClasses(n, tuple(groups[i] for i in rank), g, tuple(spans[i] for i in rank))


def _link(k: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root of each of k nodes under the undirected links u[i] - v[i]:
    the least node it is linked to.  Union-find on arrays: each round hooks
    the larger root of every link that joins two roots under the smaller,
    then halves paths until every node points at a root."""
    root = np.arange(k, dtype=u.dtype)
    while True:
        a, b = root[u], root[v]
        two = a != b
        if not two.any():
            return root
        np.minimum.at(root, np.maximum(a, b)[two], np.minimum(a, b)[two])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _union(lo: np.ndarray, hi: np.ndarray):
    """The cells of the windows lo[k] .. hi[k] (none when lo[k] > hi[k]) as
    a run set: the first and last cells of sorted runs that neither overlap
    nor touch.  Also the window each run starts with, numbered among the
    non-empty ones: the first of those with the run's first cell.  A stable
    sort on the lows merges sorted stretches in linear time.
    """
    keep = lo <= hi
    lo, hi = lo[keep], hi[keep]
    order = lo.argsort(kind="stable")
    lo, hi = lo[order], hi[order]
    np.maximum.accumulate(hi, out=hi)
    new = np.empty(len(lo) + 1, bool)
    new[0] = new[-1] = True
    np.greater(lo[1:] - 1, hi[:-1], out=new[1:-1])
    return lo[new[:-1]], hi[new[1:]], order[new[:-1]]


def conley_graph(cc: ChainClasses):
    """Reachability edges between classes in the eps-chain graph.

    An edge i -> j is recorded when some cell within two cells of class i
    (but outside it) reaches class j along graph edges; this captures both
    genuine escape routes and orbits grazing past a repelling class.  The
    reach is found on run sets (`_reach`): cut wherever the windows turn,
    are empty or leave a gap, a run's windows are monotone and each
    overlaps or touches the next, so they hold exactly the hull of its end
    windows.  The search from a class ends once it has met every other.
    """
    g, k = cc.graph, len(cc)
    # the runs of every class in one sorted run set, each with its class
    first, last = np.concatenate(cc.runs).astype(g.jlo.dtype).T
    whose = np.repeat(np.arange(k), [len(r) for r in cc.runs])
    order = np.argsort(first)
    first, last, whose = first[order], last[order], whose[order]
    edges = []
    for i in range(k):
        mine, hit = whose == i, np.arange(k) == i
        lo, hi, starts, ends = first[mine], last[mine], first[~mine], last[~mine]
        other = whose[~mine]

        def stop(a, b):
            # mark the classes the runs a .. b meet; true once all are met
            at = ends.searchsorted(a)
            count = starts.searchsorted(b, side="right") - at
            if count.any():
                hit[other[_pairs(at, count)[1]]] = True
            return hit.all()

        # the cells within two cells of the class: the ends of its gaps
        gap_lo = np.concatenate(([0], hi[:-1] + 1), dtype=lo.dtype)
        gap_hi = np.concatenate((lo[1:] - 1, [g.n - 1]), dtype=lo.dtype)
        _reach(g, *_union(np.concatenate((np.maximum(lo - 2, gap_lo), hi + 1)),
                          np.concatenate((lo - 1, np.minimum(hi + 2, gap_hi))))[:2], stop)
        edges += [(i, j) for j in range(k) if j != i and hit[j]]
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
