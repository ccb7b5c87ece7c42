"""The compiled attractor walk (``_attractor.c``, loaded by ``ifslab._native``)
against the numpy path it replaces: the same hit masks bit for bit, its box
counts pinned, and a loader that falls back to numpy, with the same bytes,
whenever the kernel cannot be built or loaded."""

import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifslab
from ifslab import _native, cli, ifs
from ifslab.cli import cmd_attractor, main
from ifslab.numerics import newton_root
from ifslab.series import RationalTypeSeries, numerator_polynomial
from conftest import random_lambda
from oracles import attractor_ppm

LANDMARK5_ROOT = newton_root(numerator_polynomial(RationalTypeSeries.parse("1;1,1,-1")),
                             -0.37 + 0.52j)
GOLDEN = 1j / math.sqrt(2)
GOLDEN_WINDOW = (-2.2, -1.6, 2.2, 1.6)
# around the self-similarity centre of landmark 5, a tenth of the attractor wide
LANDMARK5_ZOOM = (-0.3678, -0.5335, -0.2678, -0.4335)


def default_window(lam):
    bound = 1.0 / (1.0 - abs(lam))
    return (-bound, -bound, bound, bound)


def numpy_hits(lam, depth, alphabet, window, width, height):
    """The mask of the command's numpy path, with the kernel switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "attractor_kernel", lambda: None)
        return cli._point_hits(lam, depth, alphabet, window, width, height)


def kernel_hits(kernel, lam, depth, alphabet, window, width, height):
    table = ifs._letter_weights(complex(lam), depth, alphabet)
    return _native.attractor_hits(kernel, table, window, width, height)


def random_case(rng):
    """(lam, depth, alphabet, window, width, height): a general, real,
    purely imaginary or landmark-5 lambda; the default window, one that cuts
    through the attractor, one wholly beside it, or a zoom around a node of
    level 3 to 6, where the boxes of the upper levels drop every subtree
    beside the window; images of 1 to 160 pixels a side."""
    alphabet = ("binary", "ternary")[rng.integers(2)]
    depth = int(rng.integers(0, 15 if alphabet == "binary" else 10))
    sign = float(rng.choice([-1.0, 1.0]))
    lam = (random_lambda(rng, 0.3, 0.9),
           complex(sign * rng.uniform(0.2, 0.9), 0.0),
           complex(0.0, sign * rng.uniform(0.2, 0.9)),
           LANDMARK5_ROOT)[rng.integers(4)]
    bound = 1.0 / (1.0 - abs(lam))
    shape = rng.integers(4)
    if shape == 0:
        window = default_window(lam)
    elif shape == 3:
        nodes = ifs.level_nodes(lam, int(rng.integers(3, 7)), alphabet)
        centre = nodes[rng.integers(nodes.size)]
        hx, hy = rng.uniform(1e-3, 1e-2, 2) * bound
        window = (centre.real - hx, centre.imag - hy, centre.real + hx, centre.imag + hy)
    else:
        reach = 1.2 if shape == 1 else 4.0
        cx, cy = rng.uniform(-reach, reach, 2) * bound
        hx, hy = rng.uniform(0.05, 1.0, 2) * bound
        window = (cx - hx, cy - hy, cx + hx, cy + hy)
    width, height = (int(v) for v in rng.integers(1, 161, 2))
    return lam, depth, alphabet, window, width, height


def extreme_leaf_windows(lam, depth, alphabet):
    """Two windows of one pixel, for W = H = 1: the left edge on the
    level's largest x, so that only the rightmost leaves fall in it, and the
    top edge on its smallest y, so that only the lowest ones do.  Each leaf
    lies within rounding of the corner of every box above it."""
    nodes = ifs.level_nodes(lam, depth, alphabet)
    bound = 1.0 / (1.0 - abs(lam))
    x, y = float(nodes.real.max()), float(nodes.imag.min())
    return [(lam, depth, alphabet, window, 1, 1) for window in (
        (x, -bound, x + 2 * bound, bound), (-bound, y - 2 * bound, bound, y))]


FIXED_CASES = [
    (0.5 + 0.5j, 0, "ternary", None, 7, 5),
    (0.5 + 0.5j, 0, "binary", None, 7, 5),
    (0.6 + 0.25j, 9, "ternary", None, 1, 1),
    (0.55 + 0.41j, 14, "binary", None, 1, 1),
    (0.35, 12, "ternary", None, 400, 400),
    (-0.6, 14, "binary", None, 300, 7),
    (0.7j, 14, "binary", None, 101, 203),
    (LANDMARK5_ROOT, 9, "ternary", None, 300, 300),
    (LANDMARK5_ROOT, 9, "ternary", (0.5, 0.5, 2.5, 2.0), 211, 157),
    (LANDMARK5_ROOT, 12, "ternary", LANDMARK5_ZOOM, 400, 400),
    (0.6 + 0.25j, 9, "ternary", (10.0, 10.0, 11.0, 12.0), 50, 60),
    (0.6 + 0.25j, 9, "ternary", (0.3, -0.2, 1.9, 0.7), 333, 111),
    # a kernel with no rounding slack in x, or in y, calls the box of an
    # ancestor off the image and misses the one leaf of each window
    *extreme_leaf_windows(-0.56 + 0.55j, 5, "ternary"),
]


def test_kernel_hits_equal_the_numpy_path(kernel, rng):
    cases = FIXED_CASES + [random_case(rng) for _ in range(420)]
    skipped = 0
    for lam, depth, alphabet, window, width, height in cases:
        window = window or default_window(lam)
        hit, (leaves, skips) = kernel_hits(kernel, lam, depth, alphabet, window, width, height)
        expected = numpy_hits(lam, depth, alphabet, window, width, height)
        assert np.array_equal(hit, expected), (lam, depth, alphabet, window, width, height)
        assert leaves <= len(ifs._signs(alphabet)) ** (depth + 1)
        skipped += skips
    assert skipped > 0


@pytest.mark.parametrize("lam, depth, alphabet, window, px, counts", [
    # the golden rectangle as ppm_golden.json draws it, and as the benchmark
    (GOLDEN, 16, "binary", GOLDEN_WINDOW, (400, 300), (131072, 0)),
    (GOLDEN, 22, "binary", GOLDEN_WINDOW, (400, 300), (334168, 211998)),
    # every node on the real axis, on a row boundary: a slack shared by x
    # and y would make every box straddle it, and skip nothing
    (0.35, 14, "ternary", None, (2000, 2000), (53973, 19540)),
    # a zoom: boxes from the root drop every subtree beside the window; a
    # kernel that boxes only boxes of at most 8 x 8 pixels walks all
    # 14,348,907 leaves
    (LANDMARK5_ROOT, 14, "ternary", LANDMARK5_ZOOM, (400, 400), (37368, 563)),
])
def test_kernel_counts(kernel, lam, depth, alphabet, window, px, counts):
    window = window or default_window(lam)
    hit, got = kernel_hits(kernel, lam, depth, alphabet, window, *px)
    assert got == counts
    assert np.array_equal(hit, numpy_hits(lam, depth, alphabet, window, *px))


@pytest.mark.parametrize("extra, code", [
    (["--depth", "15"], 3),
    (["--set", "m0", "--depth", "23"], 3),
    (["--px", "8193,8192"], 2),
])
def test_refusals_come_before_the_kernel(tmp_path, monkeypatch, extra, code):
    def loaded():
        raise AssertionError("the kernel was asked for before the refusal")

    monkeypatch.setattr(_native, "attractor_kernel", loaded)
    out = tmp_path / "x.ppm"
    assert main(["attractor", "--seed", "0.6,0.25", "--px", "50,50",
                 "--out", str(out), *extra]) == code
    assert not out.exists()


def test_the_cache_key_leaves_openssl_unloaded():
    # hashlib loads OpenSSL, some 3.6 MB, into every attractor process
    src = str(Path(ifslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, ifslab.cli; from ifslab import _native; _native.library_path(); "
            "print(sorted(m for m in sys.modules if m.endswith('hashlib')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    assert run.stdout.strip() == "[]"


class TestLoader:
    """Every way the build or the load can fail leaves ``attractor_kernel``
    None and the command on its numpy path, with the oracle's bytes."""

    CASE = dict(lam=LANDMARK5_ROOT, depth=9, alphabet="ternary", window=None,
                width=120, height=90)

    @pytest.fixture(autouse=True)
    def fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _native.attractor_kernel.cache_clear()
        yield
        _native.attractor_kernel.cache_clear()

    def compiler(self, tmp_path, monkeypatch, script=None):
        """PATH holding only a ``cc`` that runs ``script``, or no ``cc``."""
        folder = tmp_path / "bin"
        folder.mkdir()
        if script is not None:
            cc = folder / "cc"
            cc.write_text("#!/bin/sh\n" + script + "\n")
            cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("PATH", str(folder))

    def check_bytes(self, tmp_path):
        out = tmp_path / "a.ppm"
        case = self.CASE
        assert cmd_attractor(case["lam"], case["depth"], case["alphabet"], None,
                             case["width"], case["height"], str(out), "none", 3, None, 2) == 0
        assert out.read_bytes() == attractor_ppm(case["lam"], case["depth"], case["alphabet"],
                                                 None, case["width"], case["height"])

    def test_builds_into_the_cache_folder(self, tmp_path):
        assert _native.attractor_kernel() is not None
        path = _native.library_path()
        assert path.parent == tmp_path / "cache" / "ifslab"
        assert os.listdir(path.parent) == [path.name]
        self.check_bytes(tmp_path)

    def test_missing_compiler(self, tmp_path, monkeypatch):
        self.compiler(tmp_path, monkeypatch)
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)

    def test_failing_compile(self, tmp_path, monkeypatch):
        self.compiler(tmp_path, monkeypatch, "echo 'cc: error' >&2; exit 1")
        assert _native.attractor_kernel() is None
        assert os.listdir(tmp_path / "cache" / "ifslab") == []
        self.check_bytes(tmp_path)

    def test_unwritable_cache_folder(self, tmp_path, monkeypatch):
        # a cache path under a regular file cannot be made, even by root
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)

    def test_corrupt_cached_library_is_rebuilt(self, tmp_path):
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        assert _native.attractor_kernel() is not None
        assert path.read_bytes() != b"not a shared library"
        self.check_bytes(tmp_path)

    def test_corrupt_cached_library_without_compiler(self, tmp_path, monkeypatch):
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        self.compiler(tmp_path, monkeypatch, "exit 1")
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)
