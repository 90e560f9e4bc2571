"""Benchmark workloads: inputs from the seed, the calls into the package,
and the checks on what those calls return.

A workload is a list of operations.  Each operation is one call from the
benchmark into the package (a `unimodal verify --json` run through
`unimodal.cli.main`, a band scan, a render), timed as part of the pass;
its output is checked after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import unimodal.cli as cli
from unimodal.maps import make_tu
from unimodal.structure import tu_cycle

# Sizes of the workloads.  "full" is the benchmark; "tiny" only exercises
# every code path and metric, for the smoke test.
PROFILES = {
    "full": {"fine_n": 1_000_000, "fine_slopes": (1.4, 1.8, 2.0),
             "band_step": 5e-4, "columns": 300, "setup_runs": 5},
    "tiny": {"fine_n": 100_000, "fine_slopes": (1.4,),
             "band_step": 1e-3, "columns": 30, "setup_runs": 1},
}

BAND_RANGE = (0.99, 1.005)
BAND_EXPECTED = (0.994, 1.001)
BAND_TOL = 0.003
TRANSIENT, SAMPLES, BINS = 3000, 4000, 400


@dataclass
class Tally:
    ops: int = 0
    failed_ops: int = 0
    checks: int = 0
    failed_checks: int = 0
    lines: list = field(default_factory=list)

    def record(self, label: str, checks):
        """Count one operation's checks; any failed check fails the op."""
        bad = [name for name, ok in checks if not ok]
        self.ops += 1
        self.checks += len(checks)
        self.failed_checks += len(bad)
        if bad:
            self.failed_ops += 1
            self.lines.append(f"FAIL {label}: {', '.join(bad)}")


@dataclass
class Op:
    span: str                       # root span name in a traced pass
    call: Callable[[], object]
    check: Callable[[object, Tally], None]


def expected_classes(s: float) -> int:
    """Chain classes of the tent map T_s from renormalization alone: T_s is
    k times renormalizable for 2^(1/2^(k+1)) < s <= 2^(1/2^k), which gives
    k + 2 classes; at s = 2 the fixed point 0 lies in the core."""
    if s >= 2.0:
        return 1
    k = 0
    while s <= 2.0 ** (0.5 ** (k + 1)):
        k += 1
    return k + 2


def _verify_op(s: float, n: int) -> Op:
    argv = ["verify", "--s", repr(s), "--n", str(n), "--json"]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(result, tally: Tally):
        label = f"verify s={s:.4f} n={n}"
        if isinstance(result, Exception) or result[0] == 2:
            tally.record(label, [("run", False)])
            return
        code, out = result
        rep = json.loads(out)
        # the PASS/FAIL lines of `unimodal verify`, then the benchmark's own
        checks = [("tower", rep["tower"] is True), ("match", rep["match"]["passed"])]
        checks += [(f"salpha x={r['x']:.4f}", r["passed"]) for r in rep["salpha"]]
        if "expansion" in rep:
            checks.append(("expansion", rep["expansion"]["steps"] <= rep["expansion"]["bound"]))
        verdicts_pass = all(ok for _, ok in checks)
        match = rep["match"]
        classes = None if match["count_mismatch"] else len(match["pairs"])
        checks.append(("classes", classes == expected_classes(s)))
        checks.append(("exit code", code == (0 if verdicts_pass else 1)
                       and rep["passed"] == verdicts_pass))
        tally.record(label, checks)

    return Op("cli.main", call, check)


def _overlay_expected(params):
    out = []
    for p in params:
        try:
            out.append(list(tu_cycle(make_tu(float(p))).points))
        except (ValueError, RuntimeError):
            out.append([])
    return out


def _band_ops(profile, seed: int):
    lo, hi = BAND_RANGE
    step, columns = profile["band_step"], profile["columns"]
    params = np.linspace(lo, hi, columns)
    expected = _overlay_expected(params)

    def window_check(win, tally: Tally):
        if isinstance(win, Exception) or win is None:
            tally.record("three_band_window", [("window found", False)])
            return
        a, b = win
        tally.record("three_band_window", [
            ("window contains 1.0", a <= 1.0 <= b),
            (f"window within {BAND_TOL} of {BAND_EXPECTED}",
             abs(a - BAND_EXPECTED[0]) <= BAND_TOL and abs(b - BAND_EXPECTED[1]) <= BAND_TOL)])

    def render_check(result, tally: Tally):
        if isinstance(result, Exception):
            tally.record("render_bifurcation", [("run", False)])
            return
        img, got_params, overlay = result
        # The image itself depends on the thread layout (each thread chunk
        # is re-seeded), so only its shape is pinned, never its bytes.
        checks = [("image shape", img.shape == (BINS, columns) and img.dtype == np.uint8),
                  ("params", np.array_equal(got_params, params))]
        checks += [(f"overlay column {j}", list(overlay.get(j, ())) == expected[j])
                   for j in range(columns)]
        tally.record("render_bifurcation", checks)

    return [
        Op("cli.three_band_window",
           lambda: cli.three_band_window(lo, hi, step, TRANSIENT, SAMPLES, BINS),
           window_check),
        Op("cli.render_bifurcation",
           lambda: cli.render_bifurcation("tu", lo, hi, columns, TRANSIENT, SAMPLES, BINS, seed),
           render_check),
    ]


@dataclass
class Workload:
    name: str
    ops: list
    slopes: tuple       # tent slopes whose chain classes the memory pass measures
    n: int
    warmup: list        # small untimed ops that pay the process's first-call costs


def build(name: str, seed: int, size: str = "full") -> Workload:
    profile = PROFILES[size]
    if name == "verify_fine":
        n = profile["fine_n"]
        slopes = profile["fine_slopes"]
        return Workload(name, [_verify_op(s, n) for s in slopes], slopes, n,
                        [_verify_op(slopes[0], 100_000)])
    if name == "bands":
        return Workload(name, _band_ops(profile, seed), (), 0,
                        _band_ops(PROFILES["tiny"], seed)[1:])
    raise ValueError(f"unknown workload {name!r}")


def run_pass(ops, tracer=None):
    """Run every operation once; returns (wall seconds, results).  An
    exception ends only its own operation and becomes its result."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            if tracer is None:
                results.append(op.call())
            else:
                with tracer.op(op.span):
                    results.append(op.call())
        except Exception as err:  # counted as a failed check, run goes on
            traceback.print_exc()
            results.append(err)
    return time.perf_counter() - t0, results


def check_pass(ops, results, tally: Tally):
    for op, result in zip(ops, results):
        op.check(result, tally)
