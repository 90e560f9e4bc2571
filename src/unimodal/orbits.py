"""Forward orbits, critical orbits, fixed points, periodic cycles, and the
forward expansion of an interval over the core.  `make_cycles` owns the
rules of a cycle, `find_cycles` adds those of a bracket."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import Interval, MapStack, PiecewiseMap, bisect_root

__all__ = ["Cycle", "critical_orbit", "cycle_at", "expansion_bound", "expansion_time",
           "find_cycle", "find_cycles", "make_cycle", "make_cycles"]

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


# the cycle rules, in the order they are checked: a result's fault is the
# index of the first rule it breaks, 0 when it breaks none.  find_cycles
# checks its bracket (1-3), make_cycles the orbit (4-5)
_FAULTS = (None,
           "bracket leaves the domain of the map",
           "bracket straddles a lap boundary of f^period",
           "no sign change of f^period - id on the bracket",
           "multiplier undefined: cycle passes through the critical point",
           "not a genuine cycle: defect above 1e-10")


def _lap_signatures(stack: MapStack, x, period: int):
    sig = []
    for _ in range(period):
        sig.append(stack.branch_index(x))
        x = stack(x)
    return np.stack(sig, axis=-1)


def find_cycles(stack: MapStack, period: int, lo, hi):
    """find_cycle on an array of brackets at once: bracket k is
    [lo[k], hi[k]] on row k of stack.

    Returns (points, multipliers, faults) as make_cycles does, with
    faults[k] the first rule bracket k breaks (0 for a genuine cycle): it
    must lie in the domain, stay inside one monotone lap of f^period (the
    itineraries of its ends agree) and straddle a sign change of
    f^period - id; then the cycle bisected from it must pass make_cycles.
    """
    g = lambda x: stack.iterate(x, period) - x
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pts, lam, faults = make_cycles(stack, bisect_root(g, lo, hi, _BISECT_TOL), period)
    outside = (lo < stack.domain.lo - 1e-12) | (hi > stack.domain.hi + 1e-12)
    straddles = _lap_signatures(stack, lo, period) != _lap_signatures(stack, hi, period)
    rules = [outside, straddles.any(axis=1), g(lo) * g(hi) > 0]
    return pts, lam, np.select(rules, [1, 2, 3], faults)


def find_cycle(m: PiecewiseMap, period: int, bracket: Interval) -> Cycle:
    """Locate a period-`period` point by bisection of f^period(x) - x.

    The bracket must lie in the domain, straddle a sign change and stay
    inside one monotone lap of f^period (checked via the itinerary of its
    endpoints), and the result must pass the rules of make_cycles; each
    violation raises ValueError.  The batch of one of `find_cycles`.
    """
    return _only_cycle(*find_cycles(MapStack(m, [1.0]), period, [bracket.lo], [bracket.hi]))


def make_cycles(stack: MapStack, x, period: int):
    """The orbits of the points x, one per row of stack, with no root-finding.

    Returns (points, multipliers, faults): points[k] is the orbit of x[k]
    rotated to start at its smallest point, multipliers[k] the product of
    the branch slopes along it in that order, and faults[k] the first rule
    it breaks: 4 through c (within 1e-12, where no slope is defined), 5 a
    defect above 1e-10 where the orbit closes, 0 none.  A period below 1 is
    refused.
    """
    if period < 1:
        raise ValueError(f"period={period} must be at least 1")
    x = np.asarray(x, dtype=float)
    pts = np.empty((len(x), period))
    pts[:, 0] = x
    for i in range(1, period):
        pts[:, i] = stack(pts[:, i - 1])
    # every other step of the orbit holds exactly: it is how the points came
    defect = np.abs(stack(pts[:, -1]) - x)
    first = np.argmin(pts, axis=1)
    pts = np.take_along_axis(pts, (first[:, None] + np.arange(period)) % period, axis=1)
    lam = np.ones(len(x))
    for i in range(period):
        lam *= stack.slope_at(pts[:, i])
    through_c = (np.abs(pts - stack.critical) <= 1e-12).any(axis=1)
    return pts, lam, np.select([through_c, defect > 1e-10], [4, 5], 0)


def cycle_at(points, multipliers, k: int) -> Cycle:
    """Row k of a make_cycles or find_cycles result as a Cycle."""
    return Cycle(tuple(points[k].tolist()), points.shape[1], float(multipliers[k]))


def _only_cycle(points, multipliers, faults) -> Cycle:
    if faults[0]:
        raise ValueError(_FAULTS[faults[0]])
    return cycle_at(points, multipliers, 0)


def make_cycle(m: PiecewiseMap, x: float, period: int) -> Cycle:
    """Package a known periodic point into a Cycle (no root-finding),
    rotated to start at its smallest point: the batch of one of
    `make_cycles`, refused when it breaks one of their rules."""
    return _only_cycle(*make_cycles(MapStack(m, [1.0]), [x], period))


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
    if not d > 0:       # a NaN end fails this too
        raise ValueError(f"interval [{lo}, {hi}] is empty: need lo < hi")
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
