"""Forward orbits, critical orbits, fixed points, and periodic cycles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import Interval, PiecewiseMap, bisect_root

__all__ = ["Cycle", "critical_orbit", "interior_fixed_point", "find_cycle", "cycle_multiplier"]

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


def interior_fixed_point(m: PiecewiseMap) -> float:
    """The fixed point on the falling lap (tent: s/(s+1)).

    Exists exactly when the peak rises above the diagonal, f(c) > c;
    otherwise the only fixed point is the boundary and we raise.
    """
    c = m.critical
    if m(c) <= c:
        raise ValueError("map has no interior fixed point (peak at or below the diagonal)")
    x = bisect_root(lambda x: m(x) - x, c, m.domain.hi, _BISECT_TOL)
    assert abs(m(x) - x) <= 1e-10
    return x


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


def cycle_multiplier(m: PiecewiseMap, cycle: Cycle) -> float:
    """Product of branch slopes along the cycle; repelling iff |result| > 1."""
    return _multiplier(m, cycle.points)


def make_cycle(m: PiecewiseMap, x: float, period: int) -> Cycle:
    """Package a known periodic point into a Cycle (no root-finding),
    rotated to start at its smallest point."""
    pts = [x]
    for _ in range(period - 1):
        pts.append(m(pts[-1]))
    k = int(np.argmin(pts))
    pts = pts[k:] + pts[:k]
    return Cycle(tuple(pts), period, _multiplier(m, pts))
