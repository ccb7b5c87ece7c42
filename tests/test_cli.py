import json
import math

import numpy as np
import pytest

from ifslab.cli import main


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

    def test_byte_identical_across_threads_and_runs(self, tmp_path):
        args = ["render", "--window", "0.45,0.0,0.70,0.25", "--px", "32,32",
                "--depth", "25", "--set", "m"]
        paths = [tmp_path / name for name in ("a.ppm", "b.ppm", "c.ppm")]
        assert main(args + ["--out", str(paths[0]), "--threads", "1"]) == 0
        assert main(args + ["--out", str(paths[1]), "--threads", "4"]) == 0
        assert main(args + ["--out", str(paths[2]), "--threads", "1"]) == 0
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

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IFS_LAB_THREADS", "2")
        out = tmp_path / "env.ppm"
        assert main([
            "render", "--window", "0.50,-0.01,0.54,0.01", "--px", "2,2",
            "--depth", "15", "--out", str(out),
        ]) == 0


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

    def test_series_root_outside_disk_exit_code(self, tmp_path):
        # Newton from 5+5i converges to the root ~1.234 outside the unit disk
        code = main([
            "attractor", "--seed=5,5", "--series", "1;1,1,-1", "--depth", "4",
            "--px", "20,20", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 3

    def test_unknown_overlay(self, tmp_path):
        code = main([
            "attractor", "--seed", "0.6,0.25", "--depth", "8", "--set", "m",
            "--px", "50,50", "--overlay", "blobs", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 2


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

    def test_parse_error_exit_code(self, tmp_path):
        code = main([
            "certify", "--series", "1,-5;1", "--seed", "0.6,0.25",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

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

        def broken_suite(ids=None, probe_depth=40):
            outcomes = real_run_suite([1])
            failed = dataclasses.replace(
                outcomes[0], expected_ok=False, notes=("forced failure",)
            )
            return [failed]

        monkeypatch.setattr(cli_mod.landmarks, "run_suite", broken_suite)
        assert main(["landmarks", "--id", "1"]) == 1


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_help_exit_zero(self):
        assert main(["--help"]) == 0
