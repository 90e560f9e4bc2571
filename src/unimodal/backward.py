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
probe is one interval iteration over all candidates at once, through the
map's closed-form `interval_image`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def build_backward_tree(m: PiecewiseMap, x: float, depth: int,
                        window: Optional[Interval] = None) -> BackwardTree:
    """All preimages of x down to the given depth, one sorted row per level.

    Rows beyond the cap are thinned evenly (extremes kept); an optional
    window restricts every row to an interval of interest.
    """
    if not 0 <= depth <= _MAX_TREE_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_TREE_DEPTH}], got {depth}")
    if not m.domain.contains(x):
        raise ValueError(f"x={x} outside the domain")
    levels = [np.array([x])]
    truncated = False
    for _ in range(depth):
        row = m.preimages_array(levels[-1])
        if window is not None:
            row = row[(row >= window.lo - 1e-12) & (row <= window.hi + 1e-12)]
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

def _returns_mask(m: PiecewiseMap, ys: np.ndarray, r: float, steps: int = 40) -> np.ndarray:
    """True where the forward orbit of [y-r, y+r] comes back over y.

    Iterates the interval images of all the probes at once, for up to
    `steps` forward steps.
    """
    lo = np.clip(ys - r, m.domain.lo, m.domain.hi)
    hi = np.clip(ys + r, m.domain.lo, m.domain.hi)
    acc = np.zeros(len(ys), bool)
    for _ in range(steps):
        lo, hi = m.interval_image(lo, hi)
        acc |= (lo <= ys) & (ys <= hi)
        if acc.all():
            break
    return acc


# ---------------------------------------------------------------------------
# s-alpha estimation and prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAlphaEstimate:
    x: float
    depth: int
    intervals: tuple
    n_points: int
    degenerate: bool        # fewer than 10 surviving points
    truncated: bool


def _cluster(points: np.ndarray, gap: float):
    if len(points) == 0:
        return []
    cuts = np.flatnonzero(np.diff(points) > gap)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts, [len(points) - 1]))
    return [Interval(float(points[a]), float(points[b])) for a, b in zip(starts, ends)]


def salpha(m: PiecewiseMap, x: float, depth: int = 30,
           cluster_tol: float = 5e-3, probe_radius: float = 2e-3) -> SAlphaEstimate:
    """Estimate of the s-alpha set of x from rows depth/2 .. depth of the
    preimage tree, return-filtered and clustered with the given gap.

    The probe radius bounds how far a transient can sneak past the filter:
    a dying point at distance d from a true accumulation point survives
    only while d <= radius * slope / (slope - 1), so it is kept distinctly
    smaller than the clustering gap.
    """
    tree = build_backward_tree(m, x, depth)
    pts = tree.deep_points(depth // 2)
    keep = _returns_mask(m, pts, probe_radius)
    pts = pts[keep]
    ivs = tuple(_cluster(pts, cluster_tol))
    return SAlphaEstimate(x, depth, ivs, len(pts), len(pts) < _DEGENERATE, tree.truncated)


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


def compare_salpha(s: float, x: float, depth: int = 30, tol: float = 0.02,
                   cluster_tol: float = 5e-3, probe_radius: float = 2e-3) -> dict:
    """Estimator vs closed form, as a JSON-able report.

    Passes when the Hausdorff distance between the two interval unions is
    within tol, or when both sides are empty.
    """
    m = make_tent(s)
    pred = predicted_salpha(s, x)
    est = salpha(m, x, depth, cluster_tol, probe_radius)
    if not pred.intervals and not est.intervals:
        dist, passed = 0.0, True
    elif not pred.intervals or not est.intervals:
        dist, passed = float("inf"), False
    else:
        dist = hausdorff(list(est.intervals), list(pred.intervals))
        passed = dist <= tol
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
        "tol": tol,
        "passed": passed,
        "notes": notes,
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


def _lookahead_score(m, cand, core, unc, radius, horizon):
    # (depth of first row reaching an uncovered target, closest approach)
    level = np.array([cand])
    first = horizon + 1
    best = float(np.min(np.abs(unc[:, None] - level[None, :])))
    for d in range(1, horizon + 1):
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
                         max_steps: int = 1_000_000, horizon: int = 8) -> DenseOrbit:
    """A single backward orbit that is delta-dense in the core [c_2, c_1].

    The core is covered by net points spaced delta apart; each step picks
    the in-core preimage that reaches an uncovered net point soonest within
    the lookahead horizon.  Every step satisfies f(x_{k+1}) = x_k to 1e-9
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
            scores = [_lookahead_score(m, p, core, unc, radius, horizon) for p in cands]
            pick = cands[int(np.argmin([s[0] * 1e6 + s[1] for s in scores]))]
        ident = max(ident, abs(m(pick) - x))
        pts.append(pick)
        covered |= np.abs(net - pick) <= radius
        steps += 1
    return DenseOrbit(np.array(pts), delta, bool(covered.all()), steps, ident)
