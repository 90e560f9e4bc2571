import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unimodal
from unimodal import cli, make_tu, tu_cycle
from unimodal.maps import TU_BASE_MU
from unimodal.cli import (_family_base, _orbit_histogram, band_count, main,
                          render_bifurcation, three_band_window)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestNodes:
    def test_json_output(self, capsys):
        code, out, _ = run(["nodes", "--s", "1.4", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["map"] == "tent:1.4"
        assert doc["attractor"] == "A2"
        assert len(doc["nodes"]) == 3
        assert doc["nodes"][1]["period"] == 1
        assert doc["nodes"][1]["multiplier"] == pytest.approx(-1.4)

    def test_text_output(self, capsys):
        code, out, _ = run(["nodes", "--s", "1.8"], capsys)
        assert code == 0
        assert "N_0" in out and "N_1" in out
        assert "attractor type A2" in out

    def test_tu_family(self, capsys):
        code, out, _ = run(["nodes", "--family", "tu", "--mu", "1.0", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 3

    def test_parameter_out_of_range_exits_2(self, capsys):
        code, _, err = run(["nodes", "--s", "2.5"], capsys)
        assert code == 2
        assert "error:" in err

    def test_tower_past_float64_exits_2(self, capsys):
        code, _, err = run(["nodes", "--s", repr(2.0 ** (2.0 ** -7.5))], capsys)
        assert code == 2
        assert "tower depth 8" in err
        assert "below float64 resolution at c=0.5" in err

    def test_missing_parameter_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["nodes", "--family", "logistic"])
        assert exc.value.code == 2

    def test_family_without_analytic_tower_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nodes", "--family", "logistic", "--mu", "3.7"])
        assert exc.value.code == 2
        assert "no analytic tower is available for the logistic family" in capsys.readouterr().err

    def test_unknown_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["nodes", "--family", "cubic", "--s", "1.5"])
        assert exc.value.code == 2


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run(["verify", "--s", "1.8", "--n", "20000"], capsys)
        assert code == 0
        assert "PASS tower" in out
        assert "PASS match" in out
        assert "PASS expansion" in out
        assert "all checks passed" in out

    def test_json_report_below_sqrt2_has_no_expansion_check(self, capsys):
        code, out, _ = run(["verify", "--s", "1.4", "--n", "20000", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["tower"] is True
        assert "expansion" not in doc
        assert len(doc["salpha"]) == 2

    def test_json_report_carries_class_supports(self, capsys):
        _, out, _ = run(["verify", "--s", "1.8", "--n", "5000", "--json"], capsys)
        doc = json.loads(out)
        assert doc["tower"] is True
        assert doc["match"]["passed"]
        cc = unimodal.chain_classes(unimodal.make_tent(1.8), 5000)
        want = [[[iv.lo, iv.hi] for iv in cc.support(i)] for i in range(len(cc))]
        assert len(doc["classes"]) == 2
        assert doc["classes"] == want

    def test_each_class_support_is_split_once(self, capsys, monkeypatch):
        # the report's classes and the match read the same supports: each
        # interval is made once, from the runs chain_classes wrote
        calls = []
        interval = unimodal.chainoracle.Interval
        monkeypatch.setattr(unimodal.chainoracle, "Interval",
                            lambda lo, hi: calls.append(lo) or interval(lo, hi))
        _, out, _ = run(["verify", "--s", "1.3", "--n", "20000", "--json"], capsys)
        doc = json.loads(out)
        assert len(doc["classes"]) == len(doc["match"]["pairs"]) == 3
        assert len(calls) == sum(len(c) for c in doc["classes"])

    def test_expansion_past_budget_fails_with_exit_1(self, capsys):
        # just above sqrt(2) the cover time outruns the step budget
        code, out, _ = run(["verify", "--s", "1.414214", "--n", "20000"], capsys)
        assert code == 1
        assert "FAIL expansion: core not covered within the budget of 37 steps" in out
        assert "verification FAILED" in out

    def test_two_way_conley_edges_fail_the_tower_with_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "conley_graph", lambda cc: [(0, 1), (1, 0)])
        code, out, _ = run(["verify", "--s", "1.8", "--n", "20000"], capsys)
        assert code == 1
        assert "FAIL tower: classes 0 and 1 reach each other" in out
        assert "verification FAILED" in out

    def test_json_report_carries_the_one_eps(self, capsys):
        n = 5000
        code, out, _ = run(["verify", "--s", "1.8", "--n", str(n), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["eps"] == 2 / n
        assert "epsilons" not in doc

    @pytest.mark.parametrize("args,limit", [
        # the oracle refuses every n below 100, zero and negative n included
        (["--n", "99"], "grid too coarse: n=99 < 100"),
        (["--n", "50"], "grid too coarse: n=50 < 100"),
        (["--n", "0"], "grid too coarse: n=0 < 100"),
        (["--n", "-5"], "grid too coarse: n=-5 < 100"),
        (["--n", "1"], "grid too coarse: n=1 < 100"),
        # larger than any machine's memory: refused before allocating
        (["--n", "10000000000000"],
         "20000000000000 window bounds of a grid of n=10000000000000 cells "
         "need 160000000000000 bytes"),
    ])
    def test_bad_grid_input_exits_2_naming_the_limit(self, capsys, args, limit):
        code, out, err = run(["verify", "--s", "1.8"] + args, capsys)
        assert code == 2
        assert out == ""
        assert limit in err

    @pytest.mark.parametrize("depth", ["49", "-1"])
    def test_bad_depth_exits_2_before_the_oracle_runs(self, capsys, monkeypatch, depth):
        calls = []
        monkeypatch.setattr(cli, "chain_classes", lambda *args: calls.append(args))
        code, out, err = run(["verify", "--s", "1.8", "--n", "1000000", "--depth", depth],
                             capsys)
        assert code == 2
        assert out == ""
        assert f"depth must be in [0, 48], got {depth}" in err
        assert calls == []

    def test_non_tent_family_exits_2(self, capsys):
        # the oracle reads tu's N_1 as a Cantor node and, at the default
        # eps, drops its class at 0, so verify stays tent-only for now
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "tu"])
        assert exc.value.code == 2
        assert "verify cross-checks are defined for the tent family only" in capsys.readouterr().err

    def test_boundary_slope_gets_the_single_band_tower(self, capsys):
        code, out, _ = run(["verify", "--s", "1.4142135623730951",
                            "--n", "20000"], capsys)
        assert code == 0
        assert "2 classes" in out
        assert "all checks passed" in out


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["verify", "--s", "1.05", "--n", "20000", "--json"],
    ["salpha", "--s", "1.05", "--x", "0.249375", "--json"],
])
def test_empty_estimate_prints_strict_json(capsys, argv):
    # the estimate is empty, so its Hausdorff distance is infinite: null
    code, out, _ = run(argv, capsys)
    assert code == 1
    doc = json.loads(out, parse_constant=_refuse_constant)
    reps = doc["salpha"] if argv[0] == "verify" else [doc]
    assert any(rep["hausdorff"] is None and rep["passed"] is False for rep in reps)
    assert doc["passed"] is False


def test_compare_salpha_keeps_infinity():
    rep = cli.compare_salpha(1.05, 0.249375)
    assert rep["hausdorff"] == math.inf and rep["passed"] is False


class TestSAlpha:
    def test_json_report(self, capsys):
        code, out, _ = run(["salpha", "--s", "1.4", "--x", "0.6", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 2
        assert doc["passed"] is True
        assert doc["hausdorff"] <= doc["tol"]

    def test_point_without_preimages(self, capsys):
        code, out, _ = run(["salpha", "--s", "1.6", "--x", "0.9"], capsys)
        assert code == 0
        assert "level -1" in out
        assert "no backward orbits" in out

    def test_missing_x_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["salpha", "--s", "1.6"])
        assert exc.value.code == 2


class TestBifurcation:
    ARGS = ["bifurcation", "--s-min", "1.3", "--s-max", "1.9",
            "--columns", "24", "--transient", "300", "--samples", "300",
            "--bins", "100"]

    def test_writes_pgm_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "diagram.pgm"
        code, out, _ = run(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        assert "wrote" in out
        raw = out_path.read_bytes()
        header = b"P5 24 100 255\n"
        assert raw.startswith(header)
        assert len(raw) == len(header) + 24 * 100
        csv_lines = (tmp_path / "diagram.csv").read_text().splitlines()
        assert len(csv_lines) == 24
        assert float(csv_lines[0].split(",")[0]) == pytest.approx(1.3)

    def test_missing_out_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS)
        assert exc.value.code == 2

    @pytest.mark.parametrize("args,limit", [
        (["--bins", "0"], "bins=0 must be at least 1"),
        (["--columns", "0"], "columns=0 must be at least 1"),
        (["--samples", "-1"], "samples=-1 must be at least 1"),
        (["--family", "tent", "--s-max", "2.5"], "tent slope s=2.5 outside (0, 2]"),
        (["--family", "logistic", "--s-min", "-1"], "logistic parameter mu=-1.0 outside (0, 4]"),
        (["--samples", "0"], "samples=0 must be at least 1"),
        (["--transient", "-1"], "transient=-1 must be at least 0"),
        (["--columns", "-3"], "columns=-3 must be at least 1"),
        (["--family", "tu", "--s-min", "1.0", "--s-max", "1.0378827192537246"],
         "where the peak stays at most 1"),
        (["--seed", "-1"], "seed=-1 must be a non-negative integer"),
    ])
    def test_bad_input_exits_2_naming_the_limit(self, capsys, tmp_path, args, limit):
        out_path = tmp_path / "diagram.pgm"
        code, out, err = run(self.ARGS + args + ["--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert limit in err
        assert not out_path.exists()

    def test_deterministic_given_seed(self):
        img1, _, _ = render_bifurcation("tent", 1.5, 1.9, 16, 200, 200, 64, seed=7)
        img2, _, _ = render_bifurcation("tent", 1.5, 1.9, 16, 200, 200, 64, seed=7)
        assert (img1 == img2).all()

    def test_overlay_marks_cycle_rows(self):
        img, params, overlay = render_bifurcation("tent", 1.7, 1.9, 8, 200, 200, 64)
        assert any(overlay[j] for j in range(len(params)))
        assert (img == 255).any()

    def test_tu_overlay_is_tu_cycle_column_by_column(self):
        # the whole tu range, hits and misses, over several chunks of the
        # batched solve
        hi = 4.0 / TU_BASE_MU
        _, params, overlay = render_bifurcation("tu", 0.0, hi, 201, 0, 1, 1)
        found = []
        for j, p in enumerate(params):
            try:
                want = list(tu_cycle(make_tu(float(p))).points)
            except ValueError:
                want = []
            assert overlay[j] == want
            found.append(bool(want))
        assert 0 < sum(found) < len(found)

    def test_tu_render_builds_no_map_per_column(self, monkeypatch):
        # the overlay solves the column parameters on one scaled base map;
        # building make_tu(p) for each of 300 columns took 303 maps
        built = []
        init = unimodal.PiecewiseMap.__init__

        def spy(self, *args, **kwargs):
            built.append(args[-1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(unimodal.PiecewiseMap, "__init__", spy)
        _, _, overlay = render_bifurcation("tu", 0.99, 1.005, 300, 0, 1, 1)
        assert any(overlay.values())
        assert len(built) <= 6

    def test_benchmark_render_bytes_are_pinned(self):
        # the 300-column tu render the benchmark runs, hashed at the commit
        # before the histogram was binned per chunk of steps
        img, params, overlay = render_bifurcation("tu", 0.99, 1.005, 300, 3000, 4000, 400, seed=0)
        assert img.shape == (400, 300)
        assert hashlib.sha256(img.tobytes()).hexdigest() == (
            "0f9a915bf0f501d7ead2071dec72ace9faf468a8fc0bceb1b26bd9a7d9f36587")
        points = json.dumps([overlay[j] for j in range(len(params))])
        assert hashlib.sha256(points.encode()).hexdigest() == (
            "ef38cdc59b1c37c9972a68de253ec63485acdfec1552071ff79ac841b4d147f4")

    @pytest.mark.parametrize("family,lo,hi", [("tent", 1.3, 1.9), ("tu", 0.99, 1.005)])
    def test_column_is_independent_of_its_neighbours(self, family, lo, hi):
        img, params, _ = render_bifurcation(family, lo, hi, 16, 200, 200, 64, seed=3)
        for j, p in enumerate(params):
            one, _, _ = render_bifurcation(family, p, p, 1, 200, 200, 64, seed=3)
            assert np.array_equal(img[:, j], one[:, 0])


class TestBandCount:
    def test_three_bands_at_the_window_center(self):
        bands, occupied = band_count("tu", 1.0)
        assert bands == 3
        assert occupied >= 20

    def test_two_bands_for_a_period_two_tent(self):
        bands, occupied = band_count("tent", 1.2)
        assert bands == 2
        assert occupied >= 15

    def test_attracting_cycle_occupies_few_bins(self):
        bands, occupied = band_count("logistic", 3.2)
        assert bands == 2
        assert occupied <= 4

    @pytest.mark.parametrize("family,param,pinned", [
        ("tu", 1.0, (3, 58)), ("tent", 1.2, (2, 22)), ("logistic", 3.2, (2, 2)),
    ])
    def test_band_count_is_pinned(self, family, param, pinned):
        assert band_count(family, param) == pinned

    @pytest.mark.parametrize("family,params", [
        ("tu", np.arange(0.99, 1.005, 1e-3)),
        ("tent", np.linspace(1.1, 2.0, 7)),
        ("logistic", np.linspace(3.2, 4.0, 7)),
    ])
    def test_scan_columns_equal_single_parameter_calls(self, family, params):
        base, to_scale = _family_base(family)
        counts = _orbit_histogram(base, to_scale(params), 200, 300, 100, 0)
        for j, p in enumerate(params):
            one = _orbit_histogram(base, np.array([to_scale(p)]), 200, 300, 100, 0)
            assert np.array_equal(counts[:, j], one[:, 0])

    def test_three_band_window_is_unchanged(self, monkeypatch):
        assert three_band_window(0.99, 1.005) == (0.9959999999999993, 1.0004999999999988)
        # arange's third value, 1.04, passes hi = 1.0375: the scan stops at 1.02
        scanned = []
        histogram = cli._orbit_histogram

        def spy(base, scales, *args):
            scanned.append(scales.tolist())
            return histogram(base, scales, *args)

        monkeypatch.setattr(cli, "_orbit_histogram", spy)
        assert three_band_window(1.0, 1.0375, step=0.02) == (1.0, 1.0)
        assert scanned == [[1.0, 1.02]]

    @pytest.mark.parametrize("lo,hi", [(0.995, 0.999), (1.0001, 1.0004)])
    def test_three_band_window_is_none_when_the_range_misses_mu_1(self, monkeypatch, lo, hi):
        scanned = []
        monkeypatch.setattr(cli, "_orbit_histogram", lambda *args: scanned.append(args))
        assert three_band_window(lo, hi) is None
        assert scanned == []

    @pytest.mark.parametrize("kwargs,limit", [
        ({"step": 0.0}, "step=0.0 must be positive"),
        ({"step": -1e-3}, "step=-0.001 must be positive"),
        ({"step": math.nan}, "step=nan must be positive"),
        ({"bins": 0}, "bins=0 must be at least 1"),
        ({"samples": 0}, "samples=0 must be at least 1"),
        ({"transient": -1}, "transient=-1 must be at least 0"),
        ({"lo": 1.005, "hi": 0.99}, "lo=1.005 must not exceed hi=0.99"),
        ({"lo": 1.0, "hi": 1.2, "step": 0.05}, "tu parameter mu=1.2 outside [0, "),
        ({"lo": -0.01, "hi": 1.0}, "tu parameter mu=-0.01 outside [0, "),
        # the scan's last column, hi itself, is just past the tu range
        ({"lo": 1.0, "hi": 1.04, "step": 0.02}, "tu parameter mu=1.04 outside [0, "),
    ])
    def test_scan_refuses_a_setting_past_its_limit(self, kwargs, limit):
        with pytest.raises(ValueError, match=re.escape(limit)):
            three_band_window(**{"lo": 0.99, "hi": 1.005, **kwargs})

    @pytest.mark.parametrize("kwargs,limit", [
        ({"columns": 0}, "columns=0 must be at least 1"),
        ({"columns": -2}, "columns=-2 must be at least 1"),
        ({"transient": -1}, "transient=-1 must be at least 0"),
        ({"samples": 0}, "samples=0 must be at least 1"),
        ({"bins": 0}, "bins=0 must be at least 1"),
        ({"seed": -1}, "seed=-1 must be a non-negative integer"),
        ({"seed": 1.5}, "seed=1.5 must be a non-negative integer"),
        ({"seed": np.int64(-7)}, "seed=-7 must be a non-negative integer"),
    ])
    def test_render_refuses_a_setting_past_its_limit(self, kwargs, limit):
        args = {"columns": 4, "transient": 10, "samples": 10, "bins": 16, **kwargs}
        with pytest.raises(ValueError, match=re.escape(limit)):
            render_bifurcation("tu", 0.99, 1.005, **args)

    @pytest.mark.parametrize("family,param,limit", [
        ("tent", 2.5, "tent slope s=2.5 outside (0, 2]"),
        ("logistic", -1.0, "logistic parameter mu=-1.0 outside (0, 4]"),
        ("tu", 1.04, "tu parameter mu=1.04 outside [0, "),
    ])
    def test_band_count_refuses_a_parameter_outside_the_family(self, family, param, limit):
        with pytest.raises(ValueError, match=re.escape(limit)):
            band_count(family, param)

    def test_band_count_shares_the_check(self, monkeypatch):
        # band_count's settings are module constants; the histogram it
        # runs refuses them by the same check as the render and the scan
        monkeypatch.setattr(cli, "_SAMPLES", 0)
        with pytest.raises(ValueError, match="samples=0 must be at least 1"):
            band_count("tu", 1.0)


def reference_histogram(base, scales, transient, samples, bins, seed):
    # The orbit histogram accumulated with np.add.at, which is correct
    # whether or not an index repeats.
    x0 = base.critical + np.random.default_rng(seed).uniform(-1e-9, 1e-9, 1)
    x = np.repeat(np.clip(x0, 0.0, 1.0), len(scales))
    counts = np.zeros((bins, len(scales)), dtype=np.int64)
    cols = np.arange(len(scales))
    for _ in range(transient):
        x = scales * base(x)
    for _ in range(samples):
        x = scales * base(x)
        rows = np.clip((x * bins).astype(np.int64), 0, bins - 1)
        np.add.at(counts, (rows, cols), 1)
    return counts


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("family,params", [
    ("tent", [1.7]), ("tent", np.linspace(1.0, 2.0, 40)),
    ("logistic", [3.9]), ("logistic", np.linspace(2.8, 4.0, 40)),
    ("tu", [1.0]), ("tu", np.linspace(0.95, 4.0 / 3.854, 40)),
])
def test_orbit_histogram_equals_add_at_reference(family, params, seed):
    base, to_scale = _family_base(family)
    scales = to_scale(np.asarray(params, dtype=float))
    got = _orbit_histogram(base, scales, 100, 400, 64, seed)
    assert np.array_equal(got, reference_histogram(base, scales, 100, 400, 64, seed))
    assert (got.sum(axis=0) == 400).all()


CHUNK = cli._CHUNK


@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("transient", [0, 7])
@pytest.mark.parametrize("family,params", [
    ("tent", [1.7]), ("tent", np.linspace(1.0, 2.0, 40)),
    ("logistic", [3.9]), ("logistic", np.linspace(2.8, 4.0, 40)),
    ("tu", [1.0]), ("tu", np.linspace(0.95, 4.0 / 3.854, 40)),
])
def test_orbit_histogram_chunk_edges_equal_add_at_reference(family, params, transient, samples):
    # the sampled steps are binned a chunk at a time: one step short of a
    # chunk, a whole one, one past it and a partial third
    base, to_scale = _family_base(family)
    scales = to_scale(np.asarray(params, dtype=float))
    got = _orbit_histogram(base, scales, transient, samples, 64, 0)
    assert np.array_equal(got, reference_histogram(base, scales, transient, samples, 64, 0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**128 - 1))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64)
@example(2**64 + 1)
def test_start_draw_is_numpys(seed):
    # a seed of more than four 32-bit words, the pool's size, mixes the
    # rest in by a second loop
    for s in (seed, seed + 2**128):
        assert cli._start_jitter(s) == np.random.default_rng(s).uniform(-1e-9, 1e-9, 1)[0]


def test_orbit_histogram_scratch_stays_under_4mb(traced_peak):
    # a render's 300 tu columns and 4,000 samples: the counts take 0.96 MB,
    # and binning all samples at once would hold about 20 MB more; the
    # transient allocates nothing that stays
    base, to_scale = _family_base("tu")
    scales = to_scale(np.linspace(0.99, 1.005, 300))
    _orbit_histogram(base, scales[:1], 0, 1, 400, 0)
    assert traced_peak(_orbit_histogram, base, scales, 0, 4000, 400, 0) < 4e6


BIFURCATION = ["bifurcation", "--s-min", "1.3", "--s-max", "1.9", "--columns", "4",
               "--transient", "10", "--samples", "10", "--bins", "16"]


@pytest.mark.parametrize("argv", [
    ["nodes", "--s", "1.4", "--seed", "7"],
    ["verify", "--s", "1.8", "--n", "20000", "--mu", "99"],
    ["verify", "--s", "1.8", "--n", "20000", "--seed", "7"],
    ["salpha", "--s", "1.4", "--x", "0.6", "--mu", "3"],
    ["salpha", "--s", "1.4", "--x", "0.6", "--seed", "4"],
    BIFURCATION + ["--s", "7"],
    BIFURCATION + ["--mu", "9"],
    BIFURCATION + ["--json"],
    # verify runs at the two cell widths its match tolerance is calibrated at
    ["verify", "--s", "1.8", "--n", "20000", "--eps", "2"],
    ["verify", "--s", "1.8", "--n", "20000", "--eps", "a,b"],
    ["verify", "--s", "1.8", "--n", "20000", "--eps", "32,8,2"],
])
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path, capsys):
    # each of these runs otherwise valid: the flag alone is refused, by name
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "d.pgm")] if argv[0] == "bifurcation" else argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [a for a in argv if a.startswith("--")][-1] in err


def test_installed_entry_point():
    # the child imports the same package as this suite, installed or not
    src = str(Path(unimodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "unimodal", "nodes", "--s", "2.0"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "tent:2.0" in proc.stdout


@pytest.mark.parametrize("argv", [["nodes", "--s", "1.00000001"],
                                  ["verify", "--s", "1.00000001", "--n", "2000"]],
                         ids=["nodes", "verify"])
def test_refusal_near_one_comes_before_the_critical_orbit(argv):
    """At s = 1 + 1e-8 the tower has depth 27, and its period-2 cascade
    cycle lies below float64 resolution.  The refusal names that depth
    before the critical orbit of 2^27 points (about 17 GB as a list) is
    built: each child caps its own address space at 1 GiB, which building
    the orbit first broke with a MemoryError."""
    src = str(Path(unimodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from unimodal.cli import main\n"
            f"sys.exit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "tower depth 27" in proc.stderr


def _main_exits_0(argv):
    return f"from unimodal.cli import main\nassert main({argv!r}) == 0"


# scipy is the tests' reference only: no fresh process loads it, the one
# that builds chain classes included.  Nor does any load numpy.random: the
# histograms' start draw is computed without it
@pytest.mark.parametrize("code,prefix,loaded", [
    ("import unimodal", "scipy", False),
    ("import unimodal; unimodal.tu_skeleton()", "scipy", False),
    (_main_exits_0(["nodes", "--s", "1.5"]), "scipy", False),
    (_main_exits_0(["salpha", "--s", "1.5", "--x", "0.3", "--depth", "12"]), "scipy", False),
    (_main_exits_0(BIFURCATION + ["--out", "d.pgm"]), "scipy", False),
    (_main_exits_0(["verify", "--s", "1.8", "--n", "2000"]), "scipy", False),
    ("import unimodal", "numpy.random", False),
    ("import unimodal; unimodal.tu_skeleton()", "numpy.random", False),
    (_main_exits_0(["nodes", "--family", "tu", "--mu", "1.0"]), "numpy.random", False),
    (_main_exits_0(["bifurcation", "--family", "tu", "--s-min", "0.99", "--s-max", "1.005",
                    "--columns", "8", "--out", "d.pgm"]), "numpy.random", False),
    ("from unimodal.cli import band_count; band_count('tu', 1.0)", "numpy.random", False),
    ("from unimodal.cli import three_band_window; three_band_window(0.99, 1.005)",
     "numpy.random", False),
    (_main_exits_0(["verify", "--s", "1.8", "--n", "2000"]), "numpy.random", False),
    # the root loads each submodule at the first read of one of its names,
    # and the oracle needs none of the analytic side
    ("import unimodal; unimodal.tu_skeleton()", "unimodal.structure", False),
    ("import unimodal; unimodal.tu_skeleton()", "unimodal.chainoracle", False),
    ("import unimodal; unimodal.tu_skeleton()", "unimodal.backward", False),
    ("import unimodal; unimodal.tu_skeleton()", "unimodal.cli", False),
    ("from unimodal import chain_classes", "unimodal.structure", False),
], ids=["import", "tu_skeleton", "nodes", "salpha", "bifurcation", "verify",
        "import-random", "tu_skeleton-random", "nodes-tu-random", "bifurcation-tu-random",
        "band_count-random", "three_band_window-random", "verify-random", "tu_skeleton-structure",
        "tu_skeleton-chainoracle", "tu_skeleton-backward", "tu_skeleton-cli",
        "chain_classes-structure"])
def test_scipy_loads_only_where_the_oracle_runs(code, prefix, loaded, tmp_path):
    src = str(Path(unimodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout.splitlines()[-1] != "[]") == loaded


def numpy_random_mentions(source: str) -> list:
    """Each line of source that names numpy.random: ``np.random`` or
    ``numpy.random`` read as an attribute, or an import of the module or
    of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            hit = parts[:2] == ["numpy", "random"] or (
                parts == ["numpy"] and any(a.name == "random" for a in node.names))
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def scipy_imports(source: str) -> list:
    """Each line of source that imports scipy or a module or name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "scipy"
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("import scipy", [1]),
    ("import numpy\nimport scipy.sparse as sp", [2]),
    ("from scipy.sparse.csgraph import connected_components", [1]),
    ("def f():\n    from scipy import sparse", [2]),
    ("import scipyx\nfrom scipy_like import scipy\nscipy = 1", []),
], ids=["import", "import-as", "from", "in-function", "look-alikes"])
def test_scipy_imports_are_found_by_line(source, lines):
    assert scipy_imports(source) == lines


def test_no_module_imports_scipy():
    # the oracle's searches run on the windows; scipy stays in the test
    # extra as the reference, and importing it took 31 MB
    found = {p.name: scipy_imports(p.read_text())
             for p in Path(unimodal.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_module_names_numpy_random():
    # the draw it would make is `cli._start_jitter`'s; a stray import
    # costs every histogram caller the module's 6 MB again
    mentions = {p.name: numpy_random_mentions(p.read_text())
                for p in Path(unimodal.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in mentions.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "import numpy.random",
    "import numpy.random as npr",
    "from numpy import random",
    "from numpy.random import default_rng",
    "x = np.random.default_rng(0)",
    "import numpy\nnumpy.random.seed(1)",
])
def test_numpy_random_reader_sees_each_spelling(source):
    assert numpy_random_mentions(source) != []
