import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ifslab
from ifslab import cli, ifs, landmarks
from ifslab.cli import (
    MAX_PERIODS,
    MAX_PIXELS,
    _parse_frame,
    _parse_px,
    _parse_window,
    cmd_attractor,
    main,
)
from ifslab.errors import HypothesisViolated, ParseError
from ifslab.numerics import newton_root
from ifslab.series import RationalTypeSeries, numerator_polynomial
from oracles import attractor_points_full, attractor_ppm


# a preperiod of 1,603 at |lambda| ~ 0.618, where lambda^(ell+1) underflows to 0
LONG_PREPERIOD = "1,-1,-1," + ",".join(["0"] * 1600) + ",1;-1"
# a preperiod of 1,483, where lambda^(ell+1) ~ 7.3e-311 is subnormal
SUBNORMAL_PREPERIOD = "1,-1,-1," + ",".join(["0"] * 1480) + ",1;-1"


def read_ppm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(height, width, 3)
    return pixels


class TestRender:
    def test_spike_window(self, tmp_path):
        out = tmp_path / "spike.ppm"
        # odd pixel height puts the middle row exactly on the real axis,
        # where the locus spike [1/2, 1) lives
        code = main([
            "render", "--window", "0.40,-0.05,0.60,0.05", "--px", "40,21",
            "--depth", "40", "--set", "m", "--out", str(out),
        ])
        assert code == 0
        img = read_ppm(out)
        assert img.shape == (21, 40, 3)
        row = img[10]
        assert row[35, 0] == 0      # re ~ 0.5775, survived -> black
        assert row[5, 0] > 0        # re ~ 0.4275, escaped -> nonzero
        # off-axis rows at re > 0.5 escape too, but deeper than the left side
        assert img[2, 35, 0] > img[2, 5, 0]

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["render", "--window", "0.45,0.0,0.70,0.25", "--px", "32,32",
                "--depth", "25", "--set", "m"]
        paths = [tmp_path / name for name in ("a.ppm", "b.ppm", "c.ppm")]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_report_summary(self, tmp_path):
        out = tmp_path / "grid.ppm"
        report = tmp_path / "grid.json"
        code = main([
            "render", "--window", "0.50,-0.01,0.54,0.01", "--px", "4,2",
            "--depth", "30", "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["tool"] == "ifslab"
        payload = doc["payload"]
        assert payload["px"] == [4, 2]
        assert payload["survived_pixels"] + payload["escaped_pixels"] == 8
        assert len(payload["sha256"]) == 64

    def test_m0_set_accepted(self, tmp_path):
        out = tmp_path / "m0.ppm"
        assert main([
            "render", "--window", "0.50,-0.01,0.54,0.01", "--px", "2,2",
            "--depth", "20", "--set", "m0", "--out", str(out),
        ]) == 0

    def test_bad_window_usage_error(self, tmp_path):
        code = main([
            "render", "--window", "0.5,0.0,0.4,0.1", "--px", "2,2",
            "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    @pytest.mark.parametrize("window, px", [
        ("0,0,inf,1", "4,4"),
        ("0.50,-0.01,0.54,0.01", "4.7,4"),
        # over MAX_PIXELS = 8192 x 8192, far and just
        ("0,0,1,1", "100000000000000000000,1"),
        ("0,0,1,1", "8193,8192"),
    ])
    def test_malformed_px_or_window_usage_error(self, tmp_path, window, px):
        out = tmp_path / "x.ppm"
        assert main([
            "render", "--window", window, "--px", px, "--depth", "10",
            "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_overflowing_window_extent_usage_error(self, tmp_path):
        # every bound is finite, but x1 - x0 overflows to inf
        out = tmp_path / "x.ppm"
        assert main([
            "render", "--window=-1e308,0.1,1e308,0.2", "--px", "4,4",
            "--depth", "10", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_threads_flag_is_a_usage_error(self, tmp_path):
        out = tmp_path / "threads.ppm"
        assert main([
            "render", "--window", "0.50,-0.01,0.54,0.01", "--px", "2,2",
            "--depth", "15", "--out", str(out), "--threads", "2",
        ]) == 2
        assert not out.exists()

    def test_depth_ceiling(self, tmp_path, monkeypatch):
        # each pixel's search builds lists --depth long before it starts
        out = tmp_path / "deep.ppm"
        args = ["render", "--window=0.6,0.1,0.61,0.11", "--px", "1,1",
                "--out", str(out)]

        def searched(*a, **k):
            raise AssertionError("a pixel was searched above MAX_DEPTH")

        with monkeypatch.context() as patch:
            patch.setattr(cli.paramspace, "escape_grid", searched)
            assert main(args + ["--depth", str(cli.MAX_DEPTH + 1)]) == 2
        assert not out.exists()
        assert main(args + ["--depth", str(cli.MAX_DEPTH)]) == 0
        assert read_ppm(out).shape == (1, 1, 3)


    @pytest.mark.parametrize("flag", ["--out", "--report"])
    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_output_refused_before_search(
        self, tmp_path, monkeypatch, capsys, flag, where
    ):
        def searched(*a, **k):
            raise AssertionError("a pixel was searched for an unwritable output")

        monkeypatch.setattr(cli.paramspace, "escape_grid", searched)
        bad = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
        paths = {"--out": tmp_path / "x.ppm", "--report": tmp_path / "x.json", flag: bad}
        assert main([
            "render", "--window", "0,0,1,1", "--px", "4,4", "--depth", "3",
            "--out", str(paths["--out"]), "--report", str(paths["--report"]),
        ]) == 3
        assert "io error" in capsys.readouterr().err
        assert not any(p.is_file() for p in paths.values())

    @staticmethod
    def _no_search(monkeypatch):
        def searched(*a, **k):
            raise AssertionError("a pixel was searched for a refused output")

        monkeypatch.setattr(cli.paramspace, "_search", searched)

    @pytest.mark.parametrize("report", ["x.ppm", "./x.ppm", "sub/../x.ppm"])
    def test_out_and_report_naming_one_file_refused_before_search(
        self, tmp_path, monkeypatch, capsys, report
    ):
        # the report would overwrite the image whose sha256 it records
        self._no_search(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main([
            "render", "--window", "0,0,1,1", "--px", "4,4", "--depth", "3",
            "--out", "x.ppm", "--report", report,
        ]) == 2
        assert "name one file" in capsys.readouterr().err
        assert not (tmp_path / "x.ppm").exists()

    def test_hard_linked_outputs_refused_before_search(self, tmp_path, monkeypatch, capsys):
        # two names, one file: the report would overwrite the image
        def searched(*a, **k):
            raise AssertionError("a pixel was searched for a refused output")

        monkeypatch.setattr(cli.paramspace, "escape_grid", searched)
        image, report = tmp_path / "x.ppm", tmp_path / "y.json"
        image.write_bytes(b"old")
        os.link(image, report)
        assert main([
            "render", "--window", "0,0,1,1", "--px", "4,4", "--depth", "3",
            "--out", str(image), "--report", str(report),
        ]) == 2
        assert "name one file" in capsys.readouterr().err
        assert image.read_bytes() == b"old"

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_folder_is_resolved_as_the_os_does(
        self, tmp_path, monkeypatch, capsys, flag
    ):
        # missing/.. is no directory to the OS, though abspath drops it
        self._no_search(monkeypatch)
        paths = {"--out": tmp_path / "x.ppm", "--report": tmp_path / "x.json",
                 flag: tmp_path / "missing" / ".." / "y"}
        assert main([
            "render", "--window", "0,0,1,1", "--px", "4,4", "--depth", "3",
            "--out", str(paths["--out"]), "--report", str(paths["--report"]),
        ]) == 3
        assert "io error" in capsys.readouterr().err
        assert not any(p.exists() for p in (tmp_path / "x.ppm", tmp_path / "x.json"))


class TestAttractor:
    def test_rectangle_attractor_span(self, tmp_path):
        out = tmp_path / "rect.ppm"
        code = main([
            "attractor", "--seed", "0.0,0.70710678118654752", "--depth", "14",
            "--set", "m0", "--window=-2.2,-1.6,2.2,1.6", "--px", "220,160",
            "--out", str(out),
        ])
        assert code == 0
        img = read_ppm(out)
        black = np.argwhere((img == 0).all(axis=2))
        assert black.size > 0
        cols = black[:, 1]
        rows = black[:, 0]
        # pixel -> coordinate mapping for the window above
        x_lo = -2.2 + (cols.min() + 0.0) * 4.4 / 220
        x_hi = -2.2 + (cols.max() + 1.0) * 4.4 / 220
        y_hi = 1.6 - (rows.min() + 0.0) * 3.2 / 160
        assert x_lo == pytest.approx(-2.0, abs=0.05)
        assert x_hi == pytest.approx(2.0, abs=0.05)
        assert y_hi == pytest.approx(math.sqrt(2), abs=0.05)

    def test_depth_zero_two_points(self, tmp_path):
        out = tmp_path / "pts.ppm"
        assert main([
            "attractor", "--seed", "0.5,0.0", "--depth", "0", "--set", "m0",
            "--window=-2,-2,2,2", "--px", "64,64", "--out", str(out),
        ]) == 0
        img = read_ppm(out)
        assert ((img == 0).all(axis=2)).sum() == 2

    def test_chain_overlay_draws_green(self, tmp_path):
        out = tmp_path / "chain.ppm"
        code = main([
            "attractor", "--seed", "0.6,0.25", "--series", "1,-1,-1;1",
            "--depth", "12", "--set", "m", "--px", "300,300",
            "--overlay", "chain", "--periods", "2", "--out", str(out),
        ])
        assert code == 0
        img = read_ppm(out)
        green = (img[:, :, 1] == 160) & (img[:, :, 0] == 0)
        assert green.sum() > 50
        # the chain accumulates at the similarity center ~1.73+1.09i, the
        # top-right quadrant of the default window
        rows, cols = np.nonzero(green)
        assert (cols > 150).mean() > 0.9
        assert (rows < 150).mean() > 0.9

    def test_instar_overlay(self, tmp_path):
        out = tmp_path / "instar.ppm"
        assert main([
            "attractor", "--seed", "0.6,0.25", "--depth", "10", "--set", "m",
            "--px", "200,200", "--overlay", "instar", "--level", "2",
            "--out", str(out),
        ]) == 0
        img = read_ppm(out)
        gray = (img == 160).all(axis=2)
        assert gray.sum() > 50

    def test_chain_overlay_requires_series(self, tmp_path):
        code = main([
            "attractor", "--seed", "0.6,0.25", "--depth", "8", "--set", "m",
            "--px", "50,50", "--overlay", "chain", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    def test_chain_past_the_double_range_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.ppm"
        with pytest.warns(HypothesisViolated, match="real"):
            code = main([
                "attractor", "--overlay", "chain", "--series", LONG_PREPERIOD,
                "--seed=0.618,0.0001", "--out", str(out),
            ])
        assert code == 3
        assert not out.exists()
        assert "numeric failure: ScaleUnderflow" in capsys.readouterr().err

    def test_subnormal_chain_scale_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.ppm"
        with pytest.warns(HypothesisViolated, match="real"):
            code = main([
                "attractor", "--overlay", "chain", "--series", SUBNORMAL_PREPERIOD,
                "--seed=0.618,0.0001", "--out", str(out),
            ])
        assert code == 3
        assert not out.exists()
        assert "numeric failure: ScaleUnderflow" in capsys.readouterr().err

    def test_series_root_outside_disk_exit_code(self, tmp_path):
        # Newton from 5+5i converges to the root ~1.234 outside the unit disk
        code = main([
            "attractor", "--seed=5,5", "--series", "1;1,1,-1", "--depth", "4",
            "--px", "20,20", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 3

    def test_constant_numerator_usage_error(self, tmp_path, capsys):
        # 1;0,1 is 1/(1 - z^2), whose numerator 1 no seed can make vanish
        out = tmp_path / "x.ppm"
        assert main(["attractor", "--seed", "0.3,0.6", "--series", "1;0,1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "constant 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--px", "0,0"],
        ["--window", "0,0,nan,1"],
        ["--depth=-1"],
        ["--overlay", "instar", "--level=-2"],
        ["--px", "100000000000000000000,1"],
        ["--px", "8193,8192"],
    ])
    def test_bad_values_usage_error(self, tmp_path, extra):
        out = tmp_path / "x.ppm"
        code = main([
            "attractor", "--seed", "0.6,0.25", "--set", "m", "--depth", "4",
            "--out", str(out), *extra,
        ])
        assert code == 2
        assert not out.exists()

    def test_overflowing_pixel_scale_usage_error(self, tmp_path):
        # the extent 5e-324 is finite, but W / (x1 - x0) overflows
        out = tmp_path / "x.ppm"
        assert main([
            "attractor", "--seed", "0.6,0.25", "--set", "m", "--depth", "4",
            "--window=0,0,5e-324,1", "--px", "20,20", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_circle_sample_ceiling_usage_error(self, tmp_path):
        # a level-0 instar circle (radius ~1.8) in a 1e-6 window at 400 px
        # would take 16 r 400/1e-6 ~ 1.1e10 samples
        out = tmp_path / "x.ppm"
        assert main([
            "attractor", "--seed=-0.37,0.52", "--series", "1;1,1,-1", "--set", "m",
            "--depth", "2", "--window=0,0,1e-6,1e-6", "--px", "400,400",
            "--overlay", "instar", "--level", "0", "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("periods", ["0", "-3", str(MAX_PERIODS + 1)])
    def test_periods_out_of_range_usage_error(self, tmp_path, periods):
        out = tmp_path / "x.ppm"
        assert main([
            "attractor", "--seed", "0.6,0.25", "--series", "1,-1,-1;1", "--set", "m",
            "--depth", "4", "--px", "50,50", "--overlay", "chain",
            f"--periods={periods}", "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("periods", ["1", str(MAX_PERIODS)])
    def test_periods_bounds_accepted(self, tmp_path, periods):
        out = tmp_path / "x.ppm"
        assert main([
            "attractor", "--seed", "0.6,0.25", "--series", "1,-1,-1;1", "--set", "m",
            "--depth", "4", "--px", "50,50", "--overlay", "chain",
            "--periods", periods, "--out", str(out),
        ]) == 0
        assert (read_ppm(out)[:, :, 1] == 160).any()

    def test_non_contracting_seed_exit_code(self, tmp_path):
        out = tmp_path / "x.ppm"
        code = main([
            "attractor", "--seed", "1.5,0.3", "--depth", "4", "--px", "20,20",
            "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()

    def test_unknown_overlay(self, tmp_path):
        code = main([
            "attractor", "--seed", "0.6,0.25", "--depth", "8", "--set", "m",
            "--px", "50,50", "--overlay", "blobs", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    REFUSALS = {
        "unknown-overlay": (["--overlay", "blobs"], 2),
        "chain-without-series": (["--overlay", "chain"], 2),
        "instar-level-over-guard": (["--overlay", "instar", "--level", "15"], 3),
        "binary-instar-level-over-guard": (
            ["--overlay", "instar", "--set", "m0", "--level", "23"], 3),
        # a level-0 instar circle (radius ~1.8) in a 1e-6 window at 400 px
        # would take 16 r 400/1e-6 ~ 1.1e10 samples
        "circle-ceiling": (["--overlay", "instar", "--level", "0",
                            "--window=0,0,1e-6,1e-6", "--px", "400,400"], 2),
        "chain-circle-ceiling": (["--overlay", "chain", "--series", "1,-1,-1;1",
                                  "--window=0,0,1e-6,1e-6", "--px", "400,400"], 2),
        # 3^14 level-13 circles of about 2,200 samples each: every one is
        # under the one-circle ceiling, all of them together are not
        "overlay-ceiling": (["--overlay", "instar", "--level", "13",
                             "--window=-0.05,-0.05,0.05,0.05", "--px", "2000,2000"], 2),
        # an empty --series is a series to parse, not an absent one
        "empty-series": (["--series", ""], 2),
        "chain-empty-series": (["--overlay", "chain", "--series", ""], 2),
    }

    @pytest.fixture
    def no_level_walk(self, monkeypatch):
        # every node of every walk, whole or in blocks, is computed by _fold
        def walked(*args, **kwargs):
            raise AssertionError("a level was walked before the refusal")

        monkeypatch.setattr(ifs, "_fold", walked)

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal_walks_no_level(self, tmp_path, no_level_walk, case):
        extra, code = self.REFUSALS[case]
        out = tmp_path / "x.ppm"
        assert main([
            "attractor", "--seed", "0.6,0.25", "--depth", "14", "--px", "50,50",
            "--out", str(out), *extra,
        ]) == code
        assert not out.exists()

    def test_chain_at_non_root_walks_no_level(self, tmp_path, no_level_walk):
        # the command line always puts lambda at a root of --series; a direct
        # caller need not
        out = tmp_path / "x.ppm"
        with pytest.raises(ParseError, match="root"):
            cmd_attractor(0.6 + 0.25j, 14, "ternary", None, 50, 50, str(out),
                          "chain", 3, RationalTypeSeries.parse("1,-1,-1;1"), 2)
        assert not out.exists()


LANDMARK5 = ("1;1,1,-1", -0.37 + 0.52j)
LANDMARK1 = ("1,-1,-1;1", 0.6 + 0.25j)


class TestStreamedAttractor:
    """``attractor`` output equals the whole-level raster and one-call-per-
    circle overlays of ``oracles.attractor_ppm`` byte for byte."""

    CASES = {
        "binary-default": dict(lam=0.55 + 0.41j, depth=15, alphabet="binary"),
        "ternary-default": dict(lam=0.6 + 0.25j, depth=10, alphabet="ternary"),
        "ternary-clipped": dict(lam=0.6 + 0.25j, depth=10, alphabet="ternary",
                                window=(0.3, -0.2, 1.9, 0.7)),
        "binary-clipped-odd": dict(lam=1j / math.sqrt(2), depth=16, alphabet="binary",
                                   window=(-1.1, -0.3, 2.3, 1.6), px=(333, 111)),
        "depth0": dict(lam=0.3 + 0.6j, depth=0, alphabet="ternary", px=(7, 5)),
        "instar0": dict(lam=LANDMARK5, depth=6, alphabet="ternary",
                        overlay="instar", level=0),
        "instar3-clipped": dict(lam=LANDMARK5, depth=8, alphabet="ternary",
                                overlay="instar", level=3, window=(0.5, 0.5, 2.5, 2.0),
                                px=(211, 157)),
        "instar8": dict(lam=LANDMARK5, depth=9, alphabet="ternary",
                        overlay="instar", level=8),
        "instar8-binary": dict(lam=LANDMARK5, depth=12, alphabet="binary",
                               overlay="instar", level=8),
        "chain": dict(lam=LANDMARK1, depth=9, alphabet="ternary", overlay="chain",
                      periods=3),
        "chain-clipped": dict(lam=LANDMARK5, depth=9, alphabet="ternary",
                              overlay="chain", window=(0.5, 0.5, 2.5, 2.0)),
        "chain64": dict(lam=LANDMARK5, depth=2, alphabet="ternary", overlay="chain",
                        periods=64, px=(400, 400)),
        # At lambda = 1/2 the nodes and the circle samples at t = 0 and pi
        # are dyadic, so these windows put some of them where
        # (x - x0) * W / (x1 - x0) and (x - x0) * (W / (x1 - x0)) floor to
        # different pixels: the two expressions must not be interchanged.
        "dyadic-points": dict(lam=0.5, depth=3, alphabet="binary",
                              window=(-1.875, -1.0, 1.625, 1.0), px=(61, 9)),
        "dyadic-circles": dict(lam=0.5, depth=3, alphabet="binary", overlay="instar",
                               level=3, window=(-2.0, -1.0, 0.875, 1.0), px=(104, 9)),
    }

    def _check(self, tmp_path, lam, depth, alphabet, window=None, px=(300, 300),
               overlay="none", level=3, periods=2):
        argv = ["attractor", "--depth", str(depth), "--px", f"{px[0]},{px[1]}",
                "--set", "m" if alphabet == "ternary" else "m0",
                "--overlay", overlay, "--level", str(level), "--periods", str(periods)]
        series, seed = None, lam
        if isinstance(lam, tuple):
            text, seed = lam
            series = RationalTypeSeries.parse(text)
            lam = newton_root(numerator_polynomial(series), seed)
            argv += ["--series", text]
        argv.append(f"--seed={seed.real!r},{seed.imag!r}")
        if window is not None:
            argv.append("--window=" + ",".join(repr(v) for v in window))
        out = tmp_path / "a.ppm"
        assert main(argv + ["--out", str(out)]) == 0
        expected = attractor_ppm(lam, depth, alphabet, window, *px, overlay=overlay,
                                 level=level, series=series, periods=periods)
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_whole_level_oracle(self, tmp_path, case):
        self._check(tmp_path, **self.CASES[case])

    @pytest.mark.parametrize("case", ["ternary-clipped", "binary-clipped-odd",
                                      "instar3-clipped", "chain"])
    @pytest.mark.parametrize("block", [7, 200])
    def test_many_blocks_equal_whole_level_oracle(self, tmp_path, monkeypatch, case, block):
        # 7: one circle per batch and blocks of a few nodes; 200: a few
        # circles per batch
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        self._check(tmp_path, **self.CASES[case])

    @pytest.mark.parametrize("case", ["depth0", "instar8", "chain64"])
    def test_one_paint_for_the_points_and_one_per_overlay(self, tmp_path, monkeypatch, case):
        # the numpy path paints the points once and all circles of the
        # overlay once, into one index image, the compiled path never
        calls = []
        paint = cli._paint

        def counted(*args):
            calls.append(args)
            return paint(*args)

        monkeypatch.setattr(cli, "_paint", counted)
        self._check(tmp_path, **self.CASES[case])
        assert len(calls) <= 2

    @pytest.mark.parametrize("case", ["depth0", "instar8", "chain64"])
    def test_one_palette_lookup_per_image(self, tmp_path, monkeypatch, case):
        # points and circles mark one index image, and the RGB image is
        # composed from it once
        calls = []
        take = np.take

        def counted(*args, **kwargs):
            calls.append(args)
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted)
        self._check(tmp_path, **self.CASES[case])
        width, height = self.CASES[case].get("px", (300, 300))
        assert [index.shape for _, index in calls] == [(height, width)]

    def test_chain_overlay_reads_coefficients_linearly(self, tmp_path, monkeypatch):
        # one running Taylor sum serves all periods * p disks; summing each
        # disk from j = 0 reads about (periods * p)^2 / 2 coefficients
        reads = []
        coeff_at = ifslab.series.coeff_at

        def counted(f, j):
            reads.append(j)
            return coeff_at(f, j)

        monkeypatch.setattr(ifslab.series, "coeff_at", counted)
        monkeypatch.setattr(ifslab.certificate, "coeff_at", counted)
        text, seed = LANDMARK5
        disks = 64 * RationalTypeSeries.parse(text).period
        assert main([
            "attractor", f"--seed={seed.real!r},{seed.imag!r}", "--series", text,
            "--overlay", "chain", "--periods", "64", "--depth", "2", "--px", "100,100",
            "--out", str(tmp_path / "a.ppm"),
        ]) == 0
        assert disks <= len(reads) <= 2 * disks

    def test_instar_overlay_memory_flat_in_level(self, tmp_path, monkeypatch):
        # the level-11 centres alone are 3^12 complex nodes, 8.5 MB; the
        # overlay walks them in blocks and never builds a whole level
        def built(*args, **kwargs):
            raise AssertionError("the overlay built a whole level")

        monkeypatch.setattr(ifs, "level_nodes", built)
        text, seed = LANDMARK5
        argv = ["attractor", f"--seed={seed.real!r},{seed.imag!r}", "--series", text,
                "--depth", "4", "--px", "50,50", "--overlay", "instar",
                "--out", str(tmp_path / "a.ppm")]
        assert main(argv + ["--level", "2"]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--level", "11"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_memory_flat_in_depth(self, tmp_path):
        # the level alone is 2^21 complex nodes, 33.5 MB
        out = tmp_path / "deep.ppm"
        argv = ["attractor", "--seed", "0.0,0.7071067811865475", "--set", "m0",
                "--px", "200,200", "--out", str(out)]
        assert main(argv + ["--depth", "2"]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--depth", "20"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.mark.usefixtures("numpy_points")
class TestAttractorOnNumpyPath(TestAttractor):
    """``TestAttractor`` where the compiled library cannot be built."""


@pytest.mark.usefixtures("numpy_points")
class TestStreamedAttractorOnNumpyPath(TestStreamedAttractor):
    """``TestStreamedAttractor`` where the compiled library cannot be built."""


class TestPaintEdges:
    """``_paint`` marks the pixels ``oracles.attractor_points_full`` paints,
    for blocks wholly inside the image, blocks reaching one pixel past an
    edge, and blocks holding a NaN, which names no pixel.  In the window (0, 0, W, H) a point (c + 1/2, H - r - 1/2)
    floors to column c and row r."""

    W, H = 7, 5
    WINDOW = (0.0, 0.0, 7.0, 5.0)
    CASES = {
        "inside": [[(0, 0), (6, 4), (6, 0), (0, 4), (3, 2)]],
        "col-1": [[(-1, 2), (3, 1)]],
        "colW": [[(7, 2), (3, 1)]],
        "row-1": [[(2, -1), (3, 1)]],
        "rowH": [[(2, 5), (3, 1)]],
        "corners-out": [[(-1, -1), (7, 5), (-1, 5), (7, -1)]],
        "nan-col": [[(math.nan, 2), (3, 1)]],
        "nan-row": [[(2, math.nan), (0, 0), (6, 4)]],
        "mixed": [[(0, 0), (6, 4)], [(7, 4), (5, 3)], [(1, 1)], [(2, math.nan)]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hits_equal_whole_array_oracle(self, case):
        x0, y0, x1, y1 = self.WINDOW
        blocks = [np.array([complex(c + 0.5, self.H - r - 0.5) for c, r in block])
                  for block in self.CASES[case]]
        img = np.zeros(self.W * self.H, np.uint8)
        cli._paint(img, [
            (np.floor((b.real - x0) * self.W / (x1 - x0)),
             np.floor((y1 - b.imag) * self.H / (y1 - y0)))
            for b in blocks
        ], self.W, self.H, 2)
        expected = np.full((self.H, self.W, 3), 255, dtype=np.uint8)
        points = np.concatenate(blocks)
        attractor_points_full(expected, points[~np.isnan(points)], self.WINDOW)
        assert np.array_equal(img.reshape(self.H, self.W), 2 * (expected == 0).all(axis=2))


class TestCertify:
    def test_shared_boundary_landmark(self, tmp_path):
        out = tmp_path / "cert1.json"
        code = main([
            "certify", "--series", "1,-1,-1;1", "--seed", "0.6,0.25",
            "--set", "m", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        payload = doc["payload"]
        assert payload["verdict"] == "accessible_M"
        assert payload["shared_boundary"] is True
        assert payload["geometric"]["all_disjoint"] is True
        assert all(
            set(rec) >= {"which", "n", "lhs", "rhs", "margin", "pass"}
            for rec in payload["conditions"]
        )

    def test_period3_m0_target(self, tmp_path):
        out = tmp_path / "cert5.json"
        code = main([
            "certify", "--series", "1;1,1,-1", "--seed=-0.37,0.52",
            "--set", "m0", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verdict"] == "accessible_M0"

    def test_negative_control(self, tmp_path):
        out = tmp_path / "cert6.json"
        code = main([
            "certify", "--series", "1,-1,0;1", "--seed", "0.57,0.37",
            "--set", "m", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verdict"] == "failed"
        assert payload["failure_reasons"]

    def test_period10_m0_target(self, tmp_path):
        # 20 binary chain levels fit the walker's ceiling of 22
        out = tmp_path / "cert10.json"
        assert main([
            "certify", "--series", "1;1,1,-1,-1,1,-1,-1,1,1,-1", "--seed=-0.281,0.596",
            "--set", "m0", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verdict"] == "accessible_M0"
        assert [lv["n"] for lv in payload["geometric"]["levels"]] == list(range(20))

    def test_period10_m_target_refused(self, tmp_path, capsys):
        # 20 ternary chain levels do not fit the walker's ceiling of 14
        out = tmp_path / "cert10.json"
        assert main([
            "certify", "--series", "1;1,1,-1,-1,1,-1,-1,1,1,-1", "--seed=-0.281,0.596",
            "--set", "m", "--out", str(out),
        ]) == 3
        assert not out.exists()
        assert "LevelTooDeep" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        code = main([
            "certify", "--series", "1,-5;1", "--seed", "0.6,0.25",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_zero_block_refused_before_newton(self, tmp_path, monkeypatch, capsys):
        def newton(*a, **k):
            raise AssertionError("Newton ran for a zero block")

        monkeypatch.setattr(cli, "newton_root", newton)
        out = tmp_path / "x.json"
        code = main([
            "certify", "--series", "1,-1,-1,1,1,1,1;0", "--seed", "0.6,0.28",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert "periodic block" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1;1", "1;0,1", "1;0,0,1"])
    def test_constant_numerator_usage_error(self, tmp_path, capsys, text):
        # f = 1/(1 - z^p): the numerator is 1, so the seed is not to blame
        out = tmp_path / "x.json"
        assert main(["certify", "--series", text, "--seed", "0.3,0.6",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "constant 1" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path):
        # Newton from the critical point of the cubic numerator
        code = main([
            "certify", "--series", "1,1,1;-1", "--seed", "0,0",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 3


    def test_root_outside_disk_exit_code(self, tmp_path):
        # Newton from 5+5i converges to the root ~1.234 outside the unit disk
        out = tmp_path / "x.json"
        code = main([
            "certify", "--series", "1;1,1,-1", "--seed=5,5", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()

    def test_chain_past_the_double_range_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main([
            "certify", "--series", LONG_PREPERIOD, "--seed=0.618,0.0001", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert "numeric failure: ScaleUnderflow" in capsys.readouterr().err

    def test_subnormal_chain_scale_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main([
            "certify", "--series", SUBNORMAL_PREPERIOD, "--seed=0.618,0.0001",
            "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert "numeric failure: ScaleUnderflow" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_output_refused_before_certify(
        self, tmp_path, monkeypatch, capsys, where
    ):
        def certified(*a, **k):
            raise AssertionError("certified for an unwritable output")

        monkeypatch.setattr(cli.certificate, "certify", certified)
        bad = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        assert main([
            "certify", "--series", "1;1,1,-1", "--seed=-0.37,0.52", "--out", str(bad),
        ]) == 3
        assert "io error" in capsys.readouterr().err

    def test_stdout_report_is_the_out_report(self, tmp_path, capsys):
        # the same envelope in the same layout, command echo and timestamp aside
        argv = ["certify", "--series", "1;1,1,-1", "--seed=-0.37,0.52", "--set", "m0"]
        out = tmp_path / "cert.json"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        written = out.read_text(encoding="ascii")
        docs = [json.loads(text) for text in (printed, written)]
        for text, doc in zip((printed, written), docs):
            assert text == json.dumps(doc, indent=2) + "\n"
        assert [doc["command"] for doc in docs] == [argv, argv + ["--out", str(out)]]
        for doc in docs:
            del doc["command"], doc["timestamp"]
        assert json.dumps(docs[0]) == json.dumps(docs[1])


class TestLandmarksCommand:
    def test_full_suite_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(["landmarks", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("accessible_M") == 5
        doc = json.loads(out.read_text())
        outcomes = doc["payload"]["outcomes"]
        assert len(outcomes) == 6
        assert all(oc["expected_ok"] for oc in outcomes)

    def test_single_id(self, capsys):
        assert main(["landmarks", "--id", "3"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") >= 2  # header + one row

    def test_bad_id(self):
        assert main(["landmarks", "--id", "9"]) == 2

    def test_expectation_failure_exit_code(self, monkeypatch):
        import dataclasses

        from ifslab import cli as cli_mod
        from ifslab.landmarks import run_suite as real_run_suite

        def broken_suite(ids=None):
            outcomes = real_run_suite([1])
            failed = dataclasses.replace(
                outcomes[0], expected_ok=False, notes=("forced failure",)
            )
            return [failed]

        monkeypatch.setattr(cli_mod.landmarks, "run_suite", broken_suite)
        assert main(["landmarks", "--id", "1"]) == 1

    def test_failed_verdict_against_its_expectation(self, monkeypatch, capsys):
        # landmark 6, whose certificate fails, set to expect accessibility
        text, seed, in_sector, _, shared = landmarks._FIXTURES[6]
        monkeypatch.setitem(landmarks._FIXTURES, 6, (text, seed, in_sector, True, shared))
        assert main(["landmarks", "--id", "6"]) == 1
        assert "verdict failed, expected accessible_M" in capsys.readouterr().out


class TestEmptyOutputPath:
    """An empty ``--out`` or ``--report`` exits 2 in every command before any
    work: only an absent flag means "no path".  ``os.path.dirname("")`` is
    empty, which the folder checks read as the current directory, so the
    empty path needs its own rule."""

    CASES = {
        "render --out": ["render", "--window", "0,0,1,1", "--px", "128,128", "--out", ""],
        "render --report": ["render", "--window", "0,0,1,1", "--px", "128,128",
                            "--out", "x.ppm", "--report", ""],
        "attractor --out": ["attractor", "--seed", "0.6,0.25", "--out", ""],
        "certify --out": ["certify", "--series", "1;1,1,-1", "--seed=-0.37,0.52",
                          "--out", ""],
        "landmarks --out": ["landmarks", "--out", ""],
    }

    @pytest.fixture
    def no_work(self, monkeypatch):
        def worked(*args, **kwargs):
            raise AssertionError("work began for an empty output path")

        for owner, name in ((cli.paramspace, "escape_grid"), (cli.paramspace, "_search"),
                            (ifs, "level_blocks"), (ifs, "level_nodes"),
                            (cli.certificate, "certify"), (cli.landmarks, "run_suite")):
            monkeypatch.setattr(owner, name, worked)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys, no_work, case):
        monkeypatch.chdir(tmp_path)
        assert main(self.CASES[case]) == 2
        captured = capsys.readouterr()
        assert "must not be empty" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_only_none_means_no_path(self):
        cli._check_outputs(None, None)
        with pytest.raises(ParseError):
            cli._check_outputs("")
        with pytest.raises(ParseError):
            cli._check_outputs(None, "")


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_help_exit_zero(self):
        assert main(["--help"]) == 0

    def test_parser_reused_across_calls(self, capsys):
        assert main(["render", "--px", "2,2"]) == 2
        assert main(["--version"]) == 0
        assert "ifslab" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["render", "attractor", "certify"])
    def test_set_choices(self, tmp_path, command, capsys):
        assert main([command, "--set", "x", "--out", str(tmp_path / "x")]) == 2
        assert "invalid choice" in capsys.readouterr().err


def _python(*args):
    """``python`` with ``args`` in a fresh interpreter that imports this
    ``ifslab``."""
    src = str(Path(ifslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


def _entry_point(*args):
    """``python -m ifslab.cli`` with ``args`` in a fresh interpreter."""
    return _python("-m", "ifslab.cli", *args)


class TestEntryPoint:
    def test_version(self):
        run = _entry_point("--version")
        assert run.returncode == 0
        assert run.stdout.startswith("ifslab ")

    def test_bad_set_is_a_usage_error(self, tmp_path):
        out = tmp_path / "x.ppm"
        run = _entry_point("render", "--window", "0,0,1,1", "--px", "2,2",
                           "--set", "x", "--out", str(out))
        assert run.returncode == 2
        assert "usage:" in run.stderr
        assert not out.exists()

    def test_import_leaves_scipy_out(self):
        # scipy serves only the Hausdorff helpers of the tests
        run = _python("-c", "import sys, ifslab.cli; print('scipy' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"


#: Arbitrary text, and comma-joined fields that are often numbers.
_FIELD = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 10**6).map(str),
    st.floats().map(repr),
)
_TEXT = st.one_of(st.text(), st.lists(_FIELD, max_size=5).map(",".join))


class TestInputParsers:
    @given(_TEXT)
    def test_px_contract(self, text):
        try:
            px = _parse_px(text)
        except ParseError:
            return
        assert len(px) == 2
        assert all(type(v) is int and v >= 1 for v in px)

    @given(_TEXT)
    def test_window_contract(self, text):
        try:
            window = _parse_window(text)
        except ParseError:
            return
        x0, y0, x1, y1 = window
        assert all(type(v) is float and math.isfinite(v) for v in window)
        assert x0 < x1 and y0 < y1

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_px_accepts_positive_integers(self, width, height):
        assert _parse_px(f"{width},{height}") == (width, height)

    @given(st.integers(1, MAX_PIXELS), st.integers(1, MAX_PIXELS))
    def test_frame_pixel_ceiling(self, width, height):
        try:
            frame = _parse_frame(None, f"{width},{height}")
        except ParseError:
            assert width * height > MAX_PIXELS
            return
        assert frame == (None, width, height)
        assert width * height <= MAX_PIXELS

    def test_frame_pixel_ceiling_is_inclusive(self):
        assert _parse_frame(None, "8192,8192") == (None, 8192, 8192)
        assert _parse_frame("0,0,1,1", f"{MAX_PIXELS},1")[1:] == (MAX_PIXELS, 1)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4, unique=True))
    def test_window_accepts_ordered_finite_floats(self, values):
        x0, x1 = sorted(values[:2])
        y0, y1 = sorted(values[2:])
        text = ",".join(repr(v) for v in (x0, y0, x1, y1))
        assert _parse_window(text) == (x0, y0, x1, y1)
