"""Forward orbits, critical orbits, fixed points, periodic cycles, and the
forward expansion of an interval over the core."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import Interval, PiecewiseMap, bisect_root

__all__ = ["Cycle", "critical_orbit", "expansion_bound", "expansion_time", "find_cycle",
           "make_cycle"]

_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit, canonicalized to start at its smallest point.

    points are in orbit order (f(points[i]) = points[i+1 mod period]) and
    multiplier is the product of branch slopes along the orbit.
    """

    points: tuple
    period: int
    multiplier: float

    @property
    def repelling(self) -> bool:
        return abs(self.multiplier) > 1.0


def critical_orbit(m: PiecewiseMap, n: int):
    """[c_1, ..., c_n]: the forward orbit of the critical point, c_k = f^k(c)."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    x = m.critical
    for _ in range(n):
        x = m(x)
        out.append(x)
    return out


def _lap_signature(m: PiecewiseMap, x: float, period: int):
    sig = []
    for _ in range(period):
        sig.append(m.branch_index(x))
        x = m(x)
    return tuple(sig)


def find_cycle(m: PiecewiseMap, period: int, bracket: Interval) -> Cycle:
    """Locate a period-`period` point by bisection of f^period(x) - x.

    The bracket must straddle a sign change and stay inside one monotone lap
    of f^period (checked via the itinerary of its endpoints); both violations
    raise ValueError.
    """
    lo, hi = bracket.lo, bracket.hi
    if _lap_signature(m, lo, period) != _lap_signature(m, hi, period):
        raise ValueError("bracket straddles a lap boundary of f^period")
    g = lambda x: m.iterate(x, period) - x
    if g(lo) * g(hi) > 0:
        raise ValueError("no sign change of f^period - id on the bracket")
    cyc = make_cycle(m, bisect_root(g, lo, hi, _BISECT_TOL), period)
    err = max(abs(m(cyc.points[i]) - cyc.points[(i + 1) % period]) for i in range(period))
    if err > 1e-10:
        raise ValueError(f"bisection result is not a genuine cycle (defect {err:.3g})")
    return cyc


def _multiplier(m: PiecewiseMap, points) -> float:
    lam = 1.0
    for x in points:
        if abs(x - m.critical) <= 1e-12:
            raise ValueError("multiplier undefined: cycle passes through the critical point")
        lam *= m.slope_at(x)
    return lam


def make_cycle(m: PiecewiseMap, x: float, period: int) -> Cycle:
    """Package a known periodic point into a Cycle (no root-finding),
    rotated to start at its smallest point."""
    pts = [x]
    for _ in range(period - 1):
        pts.append(m(pts[-1]))
    k = int(np.argmin(pts))
    pts = pts[k:] + pts[:k]
    return Cycle(tuple(pts), period, _multiplier(m, pts))


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
    c1, c2 = critical_orbit(m, 2)
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
    c1, c2 = critical_orbit(m, 2)
    if not (m.domain.lo <= lo < hi <= m.domain.hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    cap = expansion_bound(m, lo, hi)
    a, b = lo, hi
    for k in range(cap + 1):
        if a <= c2 + 1e-12 and b >= c1 - 1e-12:
            return k
        a, b = m.interval_image(a, b)
    raise RuntimeError(f"interval failed to cover the core within {cap} steps")
