import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_coarse_ladder_fails_with_exit_1(self, capsys):
        # eps = 64h swamps the band gap, so class supports cannot match
        code, out, _ = run(["verify", "--s", "1.4", "--n", "2000",
                            "--eps", "64"], capsys)
        assert code == 1
        assert "FAIL match" in out
        assert "verification FAILED" in out

    def test_bad_eps_list_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--s", "1.8", "--eps", "a,b"])
        assert exc.value.code == 2

    def test_eps_ladder_is_refused(self):
        # --eps takes one jump size; a ladder ending at it adds nothing
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--s", "1.8", "--eps", "32,8,2"])
        assert exc.value.code == 2

    def test_json_report_carries_the_one_eps(self, capsys):
        n = 5000
        code, out, _ = run(["verify", "--s", "1.8", "--n", str(n), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["eps"] == 2 / n
        assert "epsilons" not in doc

    @pytest.mark.parametrize("args,limit", [
        (["--n", "2000", "--eps", "nan"], "eps=nan must be finite and at least 1.5h=0.00075"),
        (["--n", "2000", "--eps", "inf"], "eps=inf must be finite and at least 1.5h=0.00075"),
        (["--n", "0"], "grid too coarse: n=0 < 100"),
        (["--n", "-5"], "grid too coarse: n=-5 < 100"),
        (["--n", "2000", "--eps", "1.2"],
         "eps=0.0006 must be finite and at least 1.5h=0.00075: "
         "below that no edges are certifiable (1.2 cell widths)"),
    ])
    def test_bad_grid_input_exits_2_naming_the_limit(self, capsys, args, limit):
        code, out, err = run(["verify", "--s", "1.8"] + args, capsys)
        assert code == 2
        assert out == ""
        assert limit in err

    def test_non_tent_family_exits_2(self, capsys):
        # the tu tower deliberately omits the Cantor repellor outside its
        # window, so a whole-domain oracle comparison would always mismatch
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
])
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path):
    # each of these runs otherwise valid: the flag alone is refused
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "d.pgm")] if argv[0] == "bifurcation" else argv)
    assert exc.value.code == 2


def test_installed_entry_point():
    # the child imports the same package as this suite, installed or not
    src = str(Path(unimodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "unimodal", "nodes", "--s", "2.0"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "tent:2.0" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(unimodal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, unimodal; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
