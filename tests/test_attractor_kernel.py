"""The compiled attractor image (``_attractor.c``, loaded by ``ifslab._native``)
against the numpy path it replaces: the same point images, in any number of
bands of rows, and overlay circles bit for bit, the point walk's box counts
pinned, and a loader that falls back to numpy, with the same bytes, whenever
the library cannot be built or loaded and leaves no folder it made behind."""

import importlib
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
    """The points of the command's numpy image, with no circles."""
    table = ifs._letter_weights(complex(lam), depth, alphabet)
    return cli._numpy_image(table, [], window, width, height)


def kernel_hits(kernel, lam, depth, alphabet, window, width, height, bands=None):
    table = ifs._letter_weights(complex(lam), depth, alphabet)
    return _native.attractor_image(kernel, table, [], window, width, height, bands)


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


BANDS = (1, 2, 3, 5)


def test_kernel_hits_equal_the_numpy_path(kernel, rng):
    # each band walks the tree once, so the leaves walked can add up to
    # bands times the leaves of the level
    cases = FIXED_CASES + [random_case(rng) for _ in range(420)]
    skipped = 0
    for lam, depth, alphabet, window, width, height in cases:
        window = window or default_window(lam)
        expected = numpy_hits(lam, depth, alphabet, window, width, height)
        for bands in BANDS:
            hit, (leaves, skips) = kernel_hits(kernel, lam, depth, alphabet, window,
                                               width, height, bands)
            assert np.array_equal(hit, expected), (lam, depth, alphabet, window, width,
                                                   height, bands)
            assert leaves <= bands * len(ifs._signs(alphabet)) ** (depth + 1)
            skipped += skips
    assert skipped > 0


BAND_EDGE_CASES = [
    # every node on row H/2, the first row of the lower of two bands
    (0.35, 12, "ternary", None, 2000, 2000),
    (-0.6, 10, "binary", None, 2000, 2000),
    # images narrower than the 8-byte word of a box row, which crosses into
    # the next row, and so into the next band, on the last row of a band
    (0.6 + 0.25j, 9, "ternary", None, 7, 41),
    (LANDMARK5_ROOT, 10, "ternary", None, 3, 64),
    (0.7j, 14, "binary", None, 1, 215),
    # one row, and fewer rows than bands
    (LANDMARK5_ROOT, 9, "ternary", None, 300, 1),
    (0.55 + 0.41j, 12, "binary", None, 90, 2),
    (0.6 + 0.25j, 9, "ternary", None, 160, 3),
    *extreme_leaf_windows(0.6 + 0.25j, 8, "ternary"),
]


@pytest.mark.parametrize("case", BAND_EDGE_CASES)
def test_band_edges_keep_the_numpy_image(kernel, case):
    lam, depth, alphabet, window, width, height = case
    window = window or default_window(lam)
    expected = numpy_hits(lam, depth, alphabet, window, width, height)
    assert expected.any()
    for bands in BANDS + (16,):
        hit = kernel_hits(kernel, lam, depth, alphabet, window, width, height, bands)[0]
        assert np.array_equal(hit, expected), bands


def test_band_counts_outside_1_to_16_are_refused(kernel):
    for bands in (0, 17):
        with pytest.raises(ValueError, match=f"in {bands} bands"):
            kernel_hits(kernel, 0.6 + 0.25j, 3, "ternary", (-1, -1, 1, 1), 10, 10, bands)


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
    hit, got = kernel_hits(kernel, lam, depth, alphabet, window, *px, bands=1)
    assert got == counts
    assert np.array_equal(hit, numpy_hits(lam, depth, alphabet, window, *px))


@pytest.mark.parametrize("lam, depth, alphabet, window, px, counts", [
    # sums over two bands: the rectangle walks the same leaves and skips a
    # few more subtrees, each cut by the band boundary; the zoom walks the
    # subtrees that straddle it in both bands
    (GOLDEN, 22, "binary", GOLDEN_WINDOW, (400, 300), (334168, 212002)),
    (LANDMARK5_ROOT, 14, "ternary", LANDMARK5_ZOOM, (400, 400), (40932, 940)),
])
def test_kernel_counts_in_two_bands(kernel, lam, depth, alphabet, window, px, counts):
    hit, got = kernel_hits(kernel, lam, depth, alphabet, window, *px, bands=2)
    assert got == counts
    assert np.array_equal(hit, numpy_hits(lam, depth, alphabet, window, *px))


def circle_images(kernel, table, circles_of, window, width, height):
    """The index images of ``_native.attractor_image`` and of its numpy
    reference ``cli._numpy_image``: the points of the weight table ``table``
    with the circles of ``circles_of()`` drawn over them.  Each side gets
    fresh circles: instar centres are read once."""
    img = _native.attractor_image(kernel, table, circles_of(), window, width, height)[0]
    return img, cli._numpy_image(table, circles_of(), window, width, height)


def random_instar_case(rng):
    """(lam, alphabet, level, window, width, height): instar levels 0 to 8
    in the default window, one that cuts through the attractor, one beside
    it, or a zoom onto the outline of a circle of level 0 to 3, narrower
    than the circle, where most samples leave the image and a circle takes
    far more than 64 of them."""
    alphabet = ("binary", "ternary")[rng.integers(2)]
    sign = float(rng.choice([-1.0, 1.0]))
    lam = (random_lambda(rng, 0.3, 0.9),
           complex(sign * rng.uniform(0.2, 0.9), 0.0),
           complex(0.0, sign * rng.uniform(0.2, 0.9)),
           LANDMARK5_ROOT)[rng.integers(4)]
    bound = 1.0 / (1.0 - abs(lam))
    shape = rng.integers(4)
    level = int(rng.integers(0, 4 if shape == 3 else 9))
    width, height = (int(v) for v in rng.integers(1, 65 if shape == 3 else 161, 2))
    if shape == 0:
        window = default_window(lam)
    elif shape == 3:
        nodes = ifs.level_nodes(lam, level, alphabet)
        radius = ifs.nodal_radius(lam, level)
        edge = nodes[rng.integers(nodes.size)] + radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        hx, hy = rng.uniform(0.05, 0.5, 2) * radius
        window = (edge.real - hx, edge.imag - hy, edge.real + hx, edge.imag + hy)
    else:
        reach = 1.2 if shape == 1 else 4.0
        cx, cy = rng.uniform(-reach, reach, 2) * bound
        hx, hy = rng.uniform(0.05, 1.0, 2) * bound
        window = (cx - hx, cy - hy, cx + hx, cy + hy)
    return lam, alphabet, level, window, width, height


def test_compiled_instar_circles_equal_the_numpy_path(kernel, rng):
    steps, drawn = [], 0
    for _ in range(160):
        lam, alphabet, level, window, width, height = random_instar_case(rng)
        circles_of = lambda: cli._overlay_circles(lam, alphabet, window, width, height,
                                                  "instar", level, None, 2)[0]
        steps.append(circles_of()[0][1].size)
        table = ifs._letter_weights(lam, 6, alphabet)
        img, expected = circle_images(kernel, table, circles_of, window, width, height)
        assert np.array_equal(img, expected), (lam, alphabet, level, window, width, height)
        drawn += int(np.count_nonzero(img == 2))
    assert max(steps) > 64 and drawn > 0


def test_compiled_circles_round_like_the_numpy_path(kernel, rng):
    # windows a few ulps wide around one sample, where every rounding of the
    # sample expressions moves pixels, some with their left or top edge on
    # the sample itself (column 0 or row 0 exactly)
    inside = 0
    for case in range(200):
        centres = (rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40))
        radius, steps = rng.uniform(0.01, 2.0), int(rng.integers(3, 130))
        t = 2.0 * np.pi * np.arange(steps) / steps
        i, j = rng.integers(centres.size), rng.integers(steps)
        x = centres[i].real + radius * np.cos(t[j])
        y = centres[i].imag + radius * np.sin(t[j])
        hx, hy = rng.uniform(1e-15, 1e-13, 2) * 8
        x0 = x if case % 4 == 1 else x - hx * rng.uniform()
        y1 = y if case % 4 == 2 else y + hy * rng.uniform()
        window = (x0, y1 - hy, x0 + hx, y1)
        width, height = (int(v) for v in rng.integers(1, 65, 2))
        circles_of = lambda: [([centres], radius * np.cos(t), radius * np.sin(t))]
        table = ifs._letter_weights(0.5, 0, "binary")
        img, expected = circle_images(kernel, table, circles_of, window, width, height)
        assert np.array_equal(img, expected), (centres[i], radius, steps, window, width, height)
        inside += int(np.count_nonzero(img))
    assert inside > 100


LANDMARK1 = ("1,-1,-1;1", 0.6 + 0.25j)
LANDMARK5 = ("1;1,1,-1", -0.37 + 0.52j)


@pytest.mark.parametrize("periods", [1, 2, 64])
@pytest.mark.parametrize("landmark", [LANDMARK1, LANDMARK5])
def test_compiled_chain_circles_equal_the_numpy_path(kernel, rng, landmark, periods):
    # the default window, one through the chain, and zooms onto the outline
    # of its first disk, narrower than the disk, and onto its centre of
    # self-similarity, where the disks of later periods lie
    series = RationalTypeSeries.parse(landmark[0])
    lam = cli._series_root(series, landmark[1])
    disk = ifslab.certificate.chain_disk(series, lam, 0)
    centre = ifslab.certificate.selfsim_center(series, lam)
    edge = disk.center + disk.radius
    windows = [default_window(lam),
               (centre.real - 0.5, centre.imag - 0.2, centre.real + 0.6, centre.imag + 0.9),
               (edge.real - 0.1 * disk.radius, edge.imag - 0.05 * disk.radius,
                edge.real + 0.1 * disk.radius, edge.imag + 0.15 * disk.radius),
               (centre.real - 0.04, centre.imag - 0.03, centre.real + 0.04, centre.imag + 0.05)]
    drawn = []
    for window in windows:
        width, height = (int(v) for v in rng.integers(20, 161, 2))
        circles_of = lambda: cli._overlay_circles(lam, "ternary", window, width, height,
                                                  "chain", 3, series, periods)[0]
        assert len(circles_of()) == periods * series.period
        table = ifs._letter_weights(lam, 6, "ternary")
        img, expected = circle_images(kernel, table, circles_of, window, width, height)
        assert np.array_equal(img, expected), (landmark, periods, window, width, height)
        drawn.append(bool(np.any(img == 2)))
    assert drawn[:3] == [True] * 3


def test_benchmark_jobs_write_the_numpy_path_bytes(kernel, tmp_path, monkeypatch):
    # the seven attractor jobs of a benchmark pass: both overlays, the
    # depth-22 rectangle and the four ternary attractors, one of depth 14
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = importlib.import_module("inputs").generate("attractor", 1)

    def images():
        for job in jobs:
            argv = [arg.replace("OUT:", f"{tmp_path}/") for arg in job.argv]
            assert main(argv) == 0
            yield Path(argv[-1]).read_bytes()

    compiled = list(images())
    monkeypatch.setattr(_native, "attractor_kernel", lambda: None)
    assert len(jobs) == 7 and list(images()) == compiled


def test_one_library_lookup_per_image(tmp_path, monkeypatch):
    # the library is asked for once, and then draws the points and the
    # circles, or numpy draws both
    calls = []
    lookup = _native.attractor_kernel

    def counted():
        calls.append(None)
        return lookup()

    monkeypatch.setattr(_native, "attractor_kernel", counted)
    assert main(["attractor", "--seed=-0.37,0.52", "--series", LANDMARK5[0], "--depth", "6",
                 "--px", "60,60", "--overlay", "instar", "--level", "3",
                 "--out", str(tmp_path / "a.ppm")]) == 0
    assert len(calls) == 1


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
        assert not (tmp_path / "cache").exists()
        self.check_bytes(tmp_path)

    def test_failing_compile(self, tmp_path, monkeypatch):
        # the build removes both folders it made, the cache home included
        self.compiler(tmp_path, monkeypatch, "echo 'cc: error' >&2; exit 1")
        assert _native.attractor_kernel() is None
        assert not (tmp_path / "cache").exists()
        self.check_bytes(tmp_path)

    def test_failing_compile_keeps_the_folders_it_found(self, tmp_path, monkeypatch):
        # a cache home that exists stays, and so does a cache folder that
        # holds other files
        (tmp_path / "cache").mkdir()
        self.compiler(tmp_path, monkeypatch, "exit 1")
        assert _native.attractor_kernel() is None
        assert os.listdir(tmp_path / "cache") == []
        _native.attractor_kernel.cache_clear()
        (tmp_path / "cache" / "ifslab").mkdir()
        (tmp_path / "cache" / "ifslab" / "other").write_text("")
        assert _native.attractor_kernel() is None
        assert os.listdir(tmp_path / "cache" / "ifslab") == ["other"]

    def test_unwritable_cache_folder(self, tmp_path, monkeypatch):
        # a cache path under a regular file cannot be made, even by root
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)

    def test_relative_cache_home_is_ignored(self, tmp_path, monkeypatch):
        # the XDG spec calls a relative path invalid: nothing is built under
        # the current directory, the library goes to ~/.cache
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert _native.library_path().parent == tmp_path / "home" / ".cache" / "ifslab"
        kernel = _native.attractor_kernel()
        assert os.listdir(tmp_path / "work") == []
        assert kernel is None or _native.library_path().is_file()
        self.check_bytes(tmp_path)

    def test_corrupt_cached_library_is_rebuilt(self, tmp_path):
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        assert _native.attractor_kernel() is not None
        assert path.read_bytes() != b"not a shared library"
        self.check_bytes(tmp_path)

    def test_cached_library_missing_a_function_loads_neither(self, tmp_path, monkeypatch):
        # a library with the point walk but no circles, as an older source
        # built it: neither function is used
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        stub = tmp_path / "stub.c"
        stub.write_text("int ifs_attractor_hits(void) { return -1; }\n")
        subprocess.run(["cc", "-shared", "-fPIC", "-o", str(path), str(stub)], check=True)
        self.compiler(tmp_path, monkeypatch, "exit 1")
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)

    def test_cached_library_missing_a_function_is_rebuilt(self, tmp_path):
        # the process that finds it loads the rebuilt file, not the handle of
        # the old one that dlopen keeps for the same path
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        stub = tmp_path / "stub.c"
        stub.write_text("int ifs_attractor_hits(void) { return -1; }\n")
        subprocess.run(["cc", "-shared", "-fPIC", "-o", str(path), str(stub)], check=True)
        kernel = _native.attractor_kernel()
        assert kernel is not None and all(hasattr(kernel, f) for f in _native._FUNCTIONS)
        assert os.listdir(path.parent) == [path.name]
        self.check_bytes(tmp_path)

    def test_corrupt_cached_library_without_compiler(self, tmp_path, monkeypatch):
        path = _native.library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        self.compiler(tmp_path, monkeypatch, "exit 1")
        assert _native.attractor_kernel() is None
        self.check_bytes(tmp_path)
