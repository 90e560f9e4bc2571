"""Backward orbits: preimage trees, s-alpha limit sets, dense orbits.

The s-alpha set of a point is where its backward orbits can accumulate.
For a tent map this is predicted in closed form from the point's level in
the nested partition (the union of all node supports at or above that
level), and estimated numerically from deep rows of the preimage tree.

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
never meets it drops every member, and only the members of the few bins
left open are probed one by one, so the verdicts are exactly the per-point
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import Interval, PiecewiseMap, hausdorff, make_tent
from .structure import analytic_nodes, classify_point

__all__ = [
    "BackwardTree",
    "SAlphaEstimate",
    "PredictedSAlpha",
    "DenseOrbit",
    "build_backward_tree",
    "salpha",
    "predicted_salpha",
    "compare_salpha",
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
_SALPHA_TOL = 0.02      # Hausdorff distance at which an estimate passes
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
        rows = [r for r in self.levels[from_depth:] if len(r)]
        if not rows:
            return np.empty(0)
        pts = np.sort(np.concatenate(rows))
        return pts[np.r_[True, pts[1:] != pts[:-1]]]


def _thin(row: np.ndarray, cap: int) -> np.ndarray:
    # even subsample that always keeps both extremes
    if len(row) <= cap:
        return row
    keep = np.round(np.linspace(0, len(row) - 1, cap)).astype(np.int64)
    return row[keep[np.r_[True, keep[1:] != keep[:-1]]]]


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
        if len(row) == 0:
            # no preimages at all: deeper rows stay empty
            levels.extend(np.empty(0) for _ in range(depth - len(levels) + 1))
            break
    return BackwardTree(x, depth, tuple(levels), truncated)


# ---------------------------------------------------------------------------
# return probe
# ---------------------------------------------------------------------------

def _returns_each(m: PiecewiseMap, ys: np.ndarray, r: float) -> np.ndarray:
    # one probe per point, all iterated at once
    lo = np.clip(ys - r, m.domain.lo, m.domain.hi)
    hi = np.clip(ys + r, m.domain.lo, m.domain.hi)
    acc = np.zeros(len(ys), bool)
    for _ in range(_RETURN_STEPS):
        lo, hi = m.interval_image(lo, hi)
        acc |= (lo <= ys) & (ys <= hi)
        if acc.all():
            break
    return acc


def _returns_mask(m: PiecewiseMap, ys: np.ndarray, r: float) -> np.ndarray:
    """True where the forward orbit of [y-r, y+r] comes back over y, within
    _RETURN_STEPS forward steps.

    The points are binned by width r/8.  A bin [b0, b1] is settled by two
    probes: the inner [b1-r, b0+r] lies in every member's probe and the
    outer [b0-r, b1+r] holds every member's probe.  If the inner image
    covers [b0, b1] at some step, every member returns; if the outer image
    never meets it, none does.  Only the members of the remaining bins are
    probed one by one, so the mask is the per-point one, bit for bit.
    """
    if len(ys) == 0:
        return np.zeros(0, bool)
    order = np.argsort(ys, kind="stable")
    ys = ys[order]
    key = np.floor(ys / (r / 8.0))
    first = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(first)
    b0, b1 = ys[starts], ys[np.r_[starts[1:], len(ys)] - 1]
    lo, hi = m.domain.lo, m.domain.hi
    ilo, ihi = np.clip(b1 - r, lo, hi), np.clip(b0 + r, lo, hi)
    olo, ohi = np.clip(b0 - r, lo, hi), np.clip(b1 + r, lo, hi)
    # interval_image is the hull of f at both ends plus the peak, so it keeps
    # inclusion while f is monotone on each side of c and maps the domain into
    # itself.  Both hold exactly in floats on the tent map; on tu and logistic
    # f is monotone only to a few ulps (2.2e-16 at tu's cuts), so each step
    # pads the outer image out and the inner in by _BRACKET_PAD, within the
    # domain.  An inner probe that the padding empties is dropped for good.
    alive = ilo <= ihi
    every = np.zeros(len(b0), bool)
    met = np.zeros(len(b0), bool)
    for _ in range(_RETURN_STEPS):
        ilo, ihi = m.interval_image(ilo, ihi)
        ilo, ihi = ilo + _BRACKET_PAD, ihi - _BRACKET_PAD
        alive &= ilo <= ihi
        ilo, ihi = np.clip(ilo, lo, hi), np.clip(ihi, lo, hi)
        every |= alive & (ilo <= b0) & (b1 <= ihi)
        olo, ohi = m.interval_image(olo, ohi)
        olo, ohi = np.clip(olo - _BRACKET_PAD, lo, hi), np.clip(ohi + _BRACKET_PAD, lo, hi)
        met |= (olo <= b1) & (b0 <= ohi)
        if every.all():
            break
    bin_of = np.cumsum(first) - 1
    acc = every[bin_of]
    open_ = np.flatnonzero((met & ~every)[bin_of])
    acc[open_] = _returns_each(m, ys[open_], r)
    out = np.empty_like(acc)
    out[order] = acc
    return out


# ---------------------------------------------------------------------------
# s-alpha estimation and prediction
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


def _cluster(points: np.ndarray, gap: float):
    if len(points) == 0:
        return []
    cuts = np.flatnonzero(np.diff(points) > gap)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts, [len(points) - 1]))
    return [Interval(float(points[a]), float(points[b])) for a, b in zip(starts, ends)]


def salpha(m: PiecewiseMap, x: float, depth: int = 30) -> SAlphaEstimate:
    """Estimate of the s-alpha set of x from rows depth/2 .. depth of the
    preimage tree, return-filtered with probes of radius _PROBE_RADIUS and
    clustered with the gap _CLUSTER_GAP.
    """
    tree = build_backward_tree(m, x, depth)
    pts = tree.deep_points(depth // 2)
    candidates = len(pts)
    pts = pts[_returns_mask(m, pts, _PROBE_RADIUS)]
    ivs = tuple(_cluster(pts, _CLUSTER_GAP))
    return SAlphaEstimate(x, depth, ivs, len(pts), len(pts) < _DEGENERATE, tree.truncated,
                          candidates)


@dataclass(frozen=True)
class PredictedSAlpha:
    x: float
    level: int
    intervals: tuple
    note: str = ""


def predicted_salpha(s: float, x: float) -> PredictedSAlpha:
    """Closed-form s-alpha set of x under the tent map T_s: the union of
    the supports of all nodes at or above the level of x.

    Points above c_1 have no preimages at all, hence an empty set.
    """
    level = classify_point(s, x)
    if level == -1:
        return PredictedSAlpha(x, -1, (),
                               "x exceeds the image of the map: no backward orbits exist")
    nodes = analytic_nodes(s)
    ivs = []
    for nd in nodes[: level + 1]:
        ivs.extend(nd.support())
    ivs.sort(key=lambda iv: iv.lo)
    return PredictedSAlpha(x, level, tuple(ivs))


def compare_salpha(s: float, x: float, depth: int = 30) -> dict:
    """Estimator vs closed form, as a JSON-able report.

    Passes when the Hausdorff distance between the two interval unions is
    within _SALPHA_TOL, or when both sides are empty.
    """
    m = make_tent(s)
    pred = predicted_salpha(s, x)
    est = salpha(m, x, depth)
    if not pred.intervals and not est.intervals:
        dist, passed = 0.0, True
    elif not pred.intervals or not est.intervals:
        dist, passed = float("inf"), False
    else:
        dist = hausdorff(list(est.intervals), list(pred.intervals))
        passed = dist <= _SALPHA_TOL
    notes = []
    if pred.note:
        notes.append(pred.note)
    if est.degenerate:
        notes.append(f"estimate is degenerate: only {est.n_points} surviving points")
    return {
        "s": s,
        "x": x,
        "depth": depth,
        "level": pred.level,
        "predicted": [[iv.lo, iv.hi] for iv in pred.intervals],
        "estimated": [[iv.lo, iv.hi] for iv in est.intervals],
        "hausdorff": dist,
        "tol": _SALPHA_TOL,
        "passed": passed,
        "notes": notes,
        "candidates": est.candidates,
        "kept": est.n_points,
        "truncated": est.truncated,
    }


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
    if delta <= 0:
        raise ValueError("delta must be positive")
    c1 = m.peak
    c2 = m(c1)
    core = Interval(c2, c1)
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
