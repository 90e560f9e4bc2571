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
_LOOKAHEAD = 8          # preimage rows a dense-orbit step looks ahead


@dataclass(frozen=True)
class BackwardTree:
    x: float
    depth: int
    levels: tuple           # levels[k] = sorted array of f^-k preimages
    truncated: bool         # True when some row hit the cap and was thinned

    def row(self, k: int) -> np.ndarray:
        return self.levels[k]

    def deep_points(self, from_depth: int) -> np.ndarray:
        """The distinct points of rows from_depth on, sorted."""
        return _distinct_points(list(self.levels[from_depth:]))


def _distinct_points(rows: list) -> np.ndarray:
    """The distinct points of the rows, sorted.  The list is emptied once
    the rows are joined, so rows that nothing else holds go before the sort."""
    pts = np.concatenate(rows) if rows else np.empty(0)
    rows.clear()
    pts.sort()
    keep = np.empty(len(pts), bool)
    keep[:1] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def _thin(row: np.ndarray, cap: int) -> np.ndarray:
    # even subsample that always keeps both extremes
    if len(row) <= cap:
        return row
    # past the cap the steps exceed 1, so the rounded indices strictly increase
    return row[np.round(np.linspace(0, len(row) - 1, cap)).astype(np.int64)]


def build_backward_tree(m: PiecewiseMap, x: float, depth: int) -> BackwardTree:
    """All preimages of x down to the given depth, one sorted row per level.

    Rows beyond the cap are thinned evenly (extremes kept).
    """
    if not 0 <= depth <= _MAX_TREE_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_TREE_DEPTH}], got {depth}")
    if not m.domain.contains(x):
        raise ValueError(f"x={x} outside the domain")
    levels = [np.array([x])]
    truncated = False
    for _ in range(depth):
        row = m.preimages_array(levels[-1])
        if len(row) > _LEVEL_CAP:
            row = _thin(row, _LEVEL_CAP)
            truncated = True
        levels.append(row)
    return BackwardTree(x, depth, tuple(levels), truncated)


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
    _RETURN_STEPS forward steps.

    The points are binned by width r/8 and each bin [b0, b1] is bracketed.
    If its inner image covers the bin at some step, every member returns;
    if its outer image never meets it, none does.  The members of the
    remaining bins go through the same bracket loop one by one, with no
    pad, so the mask is the per-point one, bit for bit.
    """
    if len(ys) == 0:
        return np.zeros(0, bool)
    order = None
    if (ys[1:] < ys[:-1]).any():    # salpha hands them over sorted
        order = np.argsort(ys, kind="stable")
        ys = ys[order]
    key = ys / (r / 8.0)
    np.floor(key, out=key)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    del key
    counts = np.diff(starts, append=len(ys))
    b0, b1 = ys[starts], ys[starts + counts - 1]
    # interval_image is the hull of f at both ends plus the peak, so it keeps
    # inclusion while f is monotone on each side of c and maps the domain into
    # itself.  Both hold exactly in floats on the tent map; on tu and logistic
    # f is monotone only to a few ulps (2.2e-16 at tu's cuts), hence the pad.
    every, met = _brackets(m, b0, b1, r, _BRACKET_PAD)
    acc = np.repeat(every, counts)
    open_ = np.flatnonzero(np.repeat(met & ~every, counts))
    acc[open_] = _brackets(m, ys[open_], ys[open_], r, 0.0)[0]
    if order is not None:
        acc[order] = acc.copy()
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
    candidates: int         # deep points the return probe saw


def salpha(m: PiecewiseMap, x: float, depth: int = 30) -> SAlphaEstimate:
    """Estimate of the s-alpha set of x from rows depth/2 .. depth of the
    preimage tree, return-filtered with probes of radius _PROBE_RADIUS and
    clustered with the gap _CLUSTER_GAP.
    """
    tree = build_backward_tree(m, x, depth)
    rows, truncated = list(tree.levels[depth // 2:]), tree.truncated
    del tree
    pts = _distinct_points(rows)
    candidates = len(pts)
    pts = pts[_returns_mask(m, pts, _PROBE_RADIUS)]
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
