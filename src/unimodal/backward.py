"""Backward orbits: preimage trees, s-alpha limit sets, dense orbits.

The s-alpha set of a point is where its backward orbits can accumulate.
This module only estimates it, numerically from deep rows of the preimage
tree; it never reads the closed-form prediction of `structure`, and `cli`
compares the two.

Raw tree rows are polluted in two ways: branches that fell into the
escaping strip above c_1 die there and leave points near the endpoint at
every depth, and branches passing through [0, c_2) scatter transient points
across the whole strip.  Neither kind is recurrent, so each candidate is
kept only if a small interval around it returns over itself within a few
forward steps; survivors are then clustered into intervals.  The return
probe iterates the map's closed-form `interval_image`.  It bins the
candidates by an eighth of the probe radius and brackets each bin: an inner
interval inside every member's probe and an outer one holding them all.
A bin whose inner image covers it keeps every member, one whose outer image
never meets it drops every member, and the members of the few bins left
open go through the same bracket loop one by one with no pad, where inner
and outer are both the point's own probe, so the verdicts are exactly the
per-point ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import Interval, PiecewiseMap, runs
from .orbits import critical_orbit

__all__ = [
    "BackwardTree",
    "SAlphaEstimate",
    "DenseOrbit",
    "build_backward_tree",
    "check_depth",
    "salpha",
    "dense_backward_orbit",
]

_MAX_TREE_DEPTH = 48
_LEVEL_CAP = 200_000
_DEGENERATE = 10
# A dying point at distance d from a true accumulation point survives the
# return probe only while d <= radius * slope / (slope - 1), so the probe
# radius is kept distinctly smaller than the clustering gap.
_RETURN_STEPS = 40      # forward steps of the return probe
_PROBE_RADIUS = 2e-3
_BRACKET_PAD = 1e-12    # float slack of a bin's bracket per step (_DEDUP_TOL)
_CLUSTER_GAP = 5e-3
_BLOCK = 1 << 15        # points sorted out or binned at once
_LOOKAHEAD = 8          # preimage rows a dense-orbit step looks ahead


@dataclass(frozen=True)
class BackwardTree:
    x: float
    depth: int
    levels: tuple           # levels[k] = sorted array of f^-k preimages
    truncated: bool         # True when some row hit the cap and was thinned


def _keep(pts: np.ndarray, mask: np.ndarray) -> tuple:
    """Move the distinct points of the sorted pts that the mask marks to its
    front, in order, and return (distinct, kept): how many distinct points
    pts holds and how many were moved.  _BLOCK points are moved at a time,
    each block read before any of it is written, so nothing outgrows a block.
    """
    distinct, kept, prev = 0, 0, None
    for a in range(0, len(pts), _BLOCK):
        block = pts[a:a + _BLOCK]
        keep = np.empty(len(block), bool)
        keep[0] = prev is None or block[0] != prev
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        prev = block[-1]
        distinct += int(np.count_nonzero(keep))
        keep &= mask[a:a + _BLOCK]
        block = block[keep]
        pts[kept:kept + len(block)] = block
        kept += len(block)
    return distinct, kept


def _thin(row: np.ndarray, cap: int) -> np.ndarray:
    # even subsample that always keeps both extremes
    if len(row) <= cap:
        return row
    # past the cap the steps exceed 1, so the rounded indices strictly increase
    return row[np.round(np.linspace(0, len(row) - 1, cap)).astype(np.int64)]


def check_depth(depth: int) -> None:
    """Refuse, naming the limit, a tree depth below 0 or past _MAX_TREE_DEPTH."""
    if not 0 <= depth <= _MAX_TREE_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_TREE_DEPTH}], got {depth}")


def build_backward_tree(m: PiecewiseMap, x: float, depth: int) -> BackwardTree:
    """All preimages of x down to the given depth, one sorted row per level.

    Rows beyond the cap are thinned evenly (extremes kept).  The rows are
    slices of one array, grown by each row as it comes.
    """
    check_depth(depth)
    if not m.domain.contains(x):
        raise ValueError(f"x={x} outside the domain")
    pts = np.array([x], dtype=float)
    ends = [0, 1]
    truncated = False
    for _ in range(depth):
        row = m.preimages_array(pts[ends[-2]:])
        if len(row) > _LEVEL_CAP:
            row = _thin(row, _LEVEL_CAP)
            truncated = True
        # in place, so no slice of pts may be alive here
        pts.resize(ends[-1] + len(row), refcheck=False)
        pts[ends[-1]:] = row
        ends.append(len(pts))
    return BackwardTree(x, depth, tuple(pts[a:b] for a, b in zip(ends[:-1], ends[1:])),
                        truncated)


# ---------------------------------------------------------------------------
# return probe
# ---------------------------------------------------------------------------

def _brackets(m: PiecewiseMap, b0: np.ndarray, b1: np.ndarray, r: float, pad: float):
    """Settle brackets [b0, b1] by iterating two probes each for
    _RETURN_STEPS forward steps: the inner [b1-r, b0+r] and the outer
    [b0-r, b1+r].

    Returns (every, met): every is True where the inner image covered
    [b0, b1] at some step, met where the outer image met it.  Each step pads
    the outer image out and the inner in by pad, within the domain; an inner
    probe that the padding empties is dropped for good.  With b0 = b1 = y
    and no pad both probes are [y-r, y+r], and every is y's own verdict.
    """
    lo, hi = m.domain.lo, m.domain.hi
    ilo, ihi = np.clip(b1 - r, lo, hi), np.clip(b0 + r, lo, hi)
    olo, ohi = np.clip(b0 - r, lo, hi), np.clip(b1 + r, lo, hi)
    alive = ilo <= ihi
    every = np.zeros(len(b0), bool)
    met = np.zeros(len(b0), bool)
    for _ in range(_RETURN_STEPS):
        ilo, ihi = m.interval_image(ilo, ihi)
        ilo, ihi = ilo + pad, ihi - pad
        alive &= ilo <= ihi
        ilo, ihi = np.clip(ilo, lo, hi), np.clip(ihi, lo, hi)
        every |= alive & (ilo <= b0) & (b1 <= ihi)
        olo, ohi = m.interval_image(olo, ohi)
        olo, ohi = np.clip(olo - pad, lo, hi), np.clip(ohi + pad, lo, hi)
        met |= (olo <= b1) & (b0 <= ohi)
        if every.all():
            break
    return every, met


def _returns_mask(m: PiecewiseMap, ys: np.ndarray, r: float) -> np.ndarray:
    """True where the forward orbit of [y-r, y+r] comes back over y, within
    _RETURN_STEPS forward steps, for ys sorted ascending (repeats allowed).

    The points are binned by width r/8 and each bin [b0, b1] is bracketed.
    If its inner image covers the bin at some step, every member returns;
    if its outer image never meets it, none does.  The members of the
    remaining bins go through the same bracket loop one by one, with no
    pad, so the mask is the per-point one, bit for bit.  The bins are cut
    _BLOCK points at a time, so no copy of the points is made.
    """
    if len(ys) == 0:
        return np.zeros(0, bool)
    starts = [np.zeros(1, np.intp)]
    for a in range(1, len(ys), _BLOCK):
        key = ys[a - 1:a + _BLOCK] / (r / 8.0)
        np.floor(key, out=key)
        starts.append(np.flatnonzero(key[1:] != key[:-1]) + a)
    starts = np.concatenate(starts)
    counts = np.diff(starts, append=len(ys))
    b0, b1 = ys[starts], ys[starts + counts - 1]
    # interval_image is the hull of f at both ends plus the peak, so it keeps
    # inclusion while f is monotone on each side of c and maps the domain into
    # itself.  Both hold exactly in floats on the tent map; on tu and logistic
    # f is monotone only to a few ulps (2.2e-16 at tu's cuts), hence the pad.
    every, met = _brackets(m, b0, b1, r, _BRACKET_PAD)
    acc = np.repeat(every, counts)
    # the members of the open bins, one run of points each
    open_ = np.flatnonzero(met & ~every)
    first, size = starts[open_], counts[open_]
    open_ = np.arange(size.sum()) + np.repeat(first - (np.cumsum(size) - size), size)
    acc[open_] = _brackets(m, ys[open_], ys[open_], r, 0.0)[0]
    return acc


# ---------------------------------------------------------------------------
# s-alpha estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAlphaEstimate:
    x: float
    depth: int
    intervals: tuple
    n_points: int           # candidates the return probe kept
    degenerate: bool        # fewer than 10 surviving points
    truncated: bool
    candidates: int         # distinct deep points the return probe saw


def salpha(m: PiecewiseMap, x: float, depth: int = 30) -> SAlphaEstimate:
    """Estimate of the s-alpha set of x from rows depth/2 .. depth of the
    preimage tree, return-filtered with probes of radius _PROBE_RADIUS and
    clustered with the gap _CLUSTER_GAP.
    """
    tree = build_backward_tree(m, x, depth)
    # the deep rows are the tail of the one array the tree's rows share; they
    # are sorted and probed with their repeats (a repeat shares its point's
    # bin and verdict), then cleared of repeats and of points that do not
    # return, all in place
    rows, truncated = tree.levels, tree.truncated
    pts = rows[0].base[sum(len(r) for r in rows[:depth // 2]):]
    del tree, rows
    pts.sort()
    candidates, kept = _keep(pts, _returns_mask(m, pts, _PROBE_RADIUS))
    pts = pts[:kept]
    ivs = tuple(Interval(a, b) for a, b in runs(pts, _CLUSTER_GAP))
    return SAlphaEstimate(x, depth, ivs, len(pts), len(pts) < _DEGENERATE, truncated,
                          candidates)


# ---------------------------------------------------------------------------
# dense backward orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseOrbit:
    points: np.ndarray      # x_0, x_1, ... with f(x_{k+1}) = x_k
    delta: float
    covered: bool           # every net point was visited within delta/2
    steps: int
    identity_error: float   # max |f(x_{k+1}) - x_k| along the orbit


def _lookahead_score(m, cand, core, unc, radius):
    # (depth of first row reaching an uncovered target, closest approach)
    level = np.array([cand])
    first = _LOOKAHEAD + 1
    best = float(np.min(np.abs(unc[:, None] - level[None, :])))
    for d in range(1, _LOOKAHEAD + 1):
        level = m.preimages_array(level)
        level = level[(level >= core.lo - 1e-12) & (level <= core.hi + 1e-12)]
        if len(level) == 0:
            break
        if len(level) > 512:
            level = _thin(level, 512)
        dd = float(np.min(np.abs(unc[:, None] - level[None, :])))
        best = min(best, dd)
        if dd <= radius:
            first = d
            break
    return (first, best)


def dense_backward_orbit(m: PiecewiseMap, delta: float,
                         max_steps: int = 1_000_000) -> DenseOrbit:
    """A single backward orbit that is delta-dense in the core [c_2, c_1].

    The core is covered by net points spaced delta apart; each step picks
    the in-core preimage that reaches an uncovered net point soonest within
    _LOOKAHEAD preimage rows.  Every step satisfies f(x_{k+1}) = x_k to 1e-9
    by construction (preimages are closed-form branch inversions).
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta={delta} must be positive and finite")
    core = Interval(*sorted(critical_orbit(m, 2)))
    c2, c1 = core
    net = np.arange(c2 + delta / 2.0, c1, delta)
    if len(net) == 0:
        net = np.array([(c2 + c1) / 2.0])
    covered = np.zeros(len(net), bool)
    radius = delta / 2.0

    pts = [m.critical]
    covered |= np.abs(net - pts[0]) <= radius
    ident = 0.0
    steps = 0
    while not covered.all() and steps < max_steps:
        x = pts[-1]
        cands = [p for p in m.preimages(x)
                 if core.lo - 1e-12 <= p <= core.hi + 1e-12]
        if not cands:
            raise RuntimeError(f"no in-core preimage of {x}: core is not backward closed")
        unc = net[~covered]
        gains = [int(np.count_nonzero(np.abs(unc - p) <= radius)) for p in cands]
        if max(gains) > 0:
            pick = cands[int(np.argmax(gains))]
        elif len(cands) == 1:
            pick = cands[0]
        else:
            scores = [_lookahead_score(m, p, core, unc, radius) for p in cands]
            pick = cands[int(np.argmin([s[0] * 1e6 + s[1] for s in scores]))]
        ident = max(ident, abs(m(pick) - x))
        pts.append(pick)
        covered |= np.abs(net - pick) <= radius
        steps += 1
    return DenseOrbit(np.array(pts), delta, bool(covered.all()), steps, ident)
