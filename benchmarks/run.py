"""Repository benchmark for the unimodal package.

One workload per process:

    python3 benchmarks/run.py --workload verify_fine --seed 0 --seconds 50 --trace 0

With --trace 0 it measures the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, pass_ratio); with --trace 1 it runs every operation untraced
and traced, and reports the per-layer metrics, the tracing overhead and
each span's self time.  The last line of standard output is one JSON
object; the lines before it are for people.

    python3 benchmarks/run.py --all

runs every workload, each in its own process, untraced and traced, and
prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("verify_fine", "bands")

# A fresh process's set-up: import the package and make its first tiny call.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import unimodal
unimodal.tu_skeleton()
print(time.perf_counter() - t0, unimodal.__file__)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported unimodal from {path}, not from {SRC}")
    return float(seconds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(wl, tally) -> list:
    lines = list(tally.lines)
    base = f"{tally.failed_checks}/{tally.checks}"
    ratio = tally.failed_checks / tally.checks if tally.checks else float("nan")
    lines.append(f"{wl.name}: fail_ratio {ratio:.4f} ({base} checks failed), "
                 f"{tally.failed_ops}/{tally.ops} operations wrong")
    return lines


def run_untraced(wl, seconds: float, setup_runs: int):
    """Time the workload's operations, over and over, for `seconds`.

    A full pass runs first, so every operation is timed and checked.  Then,
    while time is left, the operation with the fewest runs among those whose
    median time still fits runs again.  wall_s is the sum of the
    per-operation medians: the time of one pass, from every operation run
    in the measured time.

    One set-up interpreter runs after each operation, so that setup_s, the
    median over them, is taken over the same stretch of time as wall_s;
    more run at the end if fewer than `setup_runs` did.
    """
    from workloads import Tally, check_pass, run_pass

    run_pass(wl.warmup)     # untimed: lazy imports and first-call costs
    tally = Tally()
    times = [[] for _ in wl.ops]
    setups = []

    def run(k):
        wall, results = run_pass([wl.ops[k]])
        times[k].append(wall)
        check_pass([wl.ops[k]], results, tally)
        setups.append(measure_setup())

    start = time.perf_counter()
    for k in range(len(wl.ops)):
        run(k)
    # Repeats of an operation grow the heap a little further, and how many
    # run depends on the machine's speed; the peak of one pass does not.
    rss = peak_rss_mb()
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [k for k, t in enumerate(times) if statistics.median(t) <= left]
        if not fits:
            break
        run(min(fits, key=lambda k: len(times[k])))
    while len(setups) < setup_runs:
        setups.append(measure_setup())
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(sum(statistics.median(t) for t in times), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "pass_ratio": _metric(1.0 - tally.failed_checks / tally.checks, "ratio"),
    }
    runs = sum(len(t) for t in times)
    lines = [f"{wl.name}: {runs} operation runs ({runs / len(wl.ops):.2f} passes) in "
             f"{time.perf_counter() - start:.1f} s, one pass {metrics['wall_s']['value']:.3f} s; "
             f"set-up {len(setups)} times, " + ", ".join(f"{t:.3f}" for t in setups)]
    return metrics, tally, lines + _summary(wl, tally)


def chain_classes_peak_mb(wl) -> float:
    """tracemalloc peak of chain_classes on the workload's first slope.

    tracemalloc slows the oracle's Python loops several times over, so it
    runs in a pass of its own, never in a timed one.
    """
    if not wl.slopes:
        return 0.0
    from unimodal import chain_classes, make_tent

    m = make_tent(wl.slopes[0])
    tracemalloc.start()
    try:
        chain_classes(m, wl.n)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_traced(wl, seed: int):
    from tracing import Tracer, instrument, layer_metrics
    from workloads import Tally, check_pass, run_pass

    run_pass(wl.warmup)     # untimed: lazy imports and first-call costs
    tally = Tally()
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    # Each operation runs untraced and traced back to back, so that both see
    # the machine in nearly the same state.  The second run of an operation
    # is usually the faster one, so the order alternates between operations.
    for i, op in enumerate(wl.ops):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                instrument(tracer)
            try:
                wall, results = run_pass([op], tracer if traced else None)
            finally:
                tracer.restore()
            walls[traced] += wall
            check_pass([op], results, tally)
    untraced, traced = walls[False], walls[True]

    metrics = {name: _metric(v, unit) for name, (v, unit) in layer_metrics(tracer).items()}
    metrics["chainoracle.chain_classes.peak_alloc_mb"] = _metric(chain_classes_peak_mb(wl), "MB")
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
    metrics["trace.traced_wall_s"] = _metric(traced, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.to_json()))
    lines = [f"{wl.name}: traced pass {traced:.3f} s, untraced {untraced:.3f} s, "
             f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    lines += [f"  self {name[5:-2]:<32} {m['value']:10.4f} s"
              for name, m in metrics.items() if name.startswith("self.")]
    return metrics, tally, lines + _summary(wl, tally)


def run_workload(args) -> dict:
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size)
    if args.trace:
        metrics, tally, lines = run_traced(wl, args.seed)
    else:
        setup_runs = workloads.PROFILES[args.size]["setup_runs"]
        metrics, tally, lines = run_untraced(wl, args.seconds, setup_runs)
    for line in lines:
        print(line)
    return {"correct": tally.failed_ops == 0, "attempted": tally.ops,
            "failed": tally.failed_ops, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            doc = json.loads(lines[-1])
            print(f"{name} --trace {trace}: correct={doc['correct']} "
                  f"operations {doc['attempted']}, wrong {doc['failed']}")
            for metric, m in doc["metrics"].items():
                print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
            if not doc["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="untraced operations repeat while the next one fits in this time")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs every code path quickly, for the smoke test")
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    if not (SRC / "unimodal" / "__init__.py").is_file():
        print(f"error: no unimodal package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
