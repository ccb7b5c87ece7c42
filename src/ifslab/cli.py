"""Command-line surface.

Subcommands:

  render     escape-depth image of a parameter-space window (binary PPM)
  attractor  point raster of an attractor, optional instar / chain overlays
  certify    run the accessibility certificate, write a JSON report
  landmarks  evaluate the six landmark fixtures and their expectations

``--px W,H`` takes two integers >= 1 with W*H <= MAX_PIXELS and ``--window
x0,y0,x1,y1`` four finite floats with x0 < x1 and y0 < y1, for ``render`` and
``attractor`` alike; the extents x1 - x0, y1 - y0 and the pixel scales
W/(x1 - x0), H/(y1 - y0) must be finite too.  ``--set`` takes m or m0 (any
case) and ``attractor --overlay`` none, instar or chain.  ``render --depth``
takes 1..MAX_DEPTH, ``attractor --periods`` 1..MAX_PERIODS, and an overlay
circle may take at most MAX_CIRCLE_SAMPLES samples, all circles of an
overlay together at most MAX_OVERLAY_SAMPLES.  Every one of these
rules, the level guards of ``attractor`` and ``certify`` (``ifs.MAX_LEVEL``
of the walk's alphabet, checked by the call that walks), and the output
paths of ``--out`` and ``--report`` (not empty, in an existing, writable
directory, not a directory itself, and not one file for both) is checked
before the command walks its first level, so a refused command does no work.
``attractor`` then draws its image once, with the compiled library of
``_native`` when it loads, else in numpy (``_numpy_image``), same bytes.

Exit codes: 0 success, 1 expectation failure, 2 usage/parse error (an empty
``--series`` or output path, or a ``--series`` with a constant numerator,
too), 3 numeric failure or an unwritable output ("io error").  Images are
binary PPM (P6) and byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from . import certificate, ifs, landmarks, paramspace
from .errors import IfsLabError, NotARoot, ParseError
from .numerics import newton_root
from .series import RationalTypeSeries, numerator_polynomial

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: Largest ``attractor --periods``: the chain overlay's work is linear in
#: periods*p, but past a few periods its disks are far below a pixel.
MAX_PERIODS = 64
#: Largest ``render --depth``: a pixel's search builds its level table only
#: as deep as it reaches, so an escaping pixel never pays for ``--depth``,
#: but a surviving one reaches every level, about 1 ms at depth 1024 and
#: |lambda| ~ 0.7 when one of the search's two descents reaches it (timeit,
#: 2-vCPU x86_64, Python 3.11), and more when its full walk must find it
#: (7.6 ms at lambda = 0.666+0.022j on M).
MAX_DEPTH = 1024
#: Most samples one overlay circle may take, 16 r max(W/(x1-x0), H/(y1-y0)):
#: a default window asks for at most 8 W, a circle far larger than the window
#: for more.
MAX_CIRCLE_SAMPLES = 1 << 22
#: Most samples of all circles of one overlay: 64-sample circles fit at every
#: instar level the guards admit (3^15 * 64, 2^23 * 64), a deep zoom does not.
MAX_OVERLAY_SAMPLES = 1 << 30
#: Most pixels W*H of one image: 2^26 is 192 MiB of RGB.
MAX_PIXELS = 1 << 26

#: ``--set`` value -> locus; the loci name the certify targets too.
SETS = {"m": paramspace.SET_M, "m0": paramspace.SET_M0}


def _parse_csv(text: str, count: int, what: str, kind=float) -> tuple:
    parts = text.split(",")
    if len(parts) != count:
        raise ParseError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad {what} value in {text!r}: {exc}") from None


def _parse_px(text: str) -> tuple[int, int]:
    """``--px W,H``: two integers >= 1."""
    width, height = _parse_csv(text, 2, "--px", int)
    if width < 1 or height < 1:
        raise ParseError(f"--px values must be >= 1, got {text!r}")
    return width, height


def _parse_window(text: str) -> tuple[float, float, float, float]:
    """``--window x0,y0,x1,y1``: four finite floats, x0 < x1 and y0 < y1."""
    x0, y0, x1, y1 = window = _parse_csv(text, 4, "--window")
    if not all(math.isfinite(v) for v in window):
        raise ParseError(f"--window values must be finite, got {text!r}")
    if not (x0 < x1 and y0 < y1):
        raise ParseError(f"--window must satisfy x0 < x1 and y0 < y1, got {text!r}")
    return window


def _parse_frame(
    window_text: str | None, px_text: str
) -> tuple[tuple[float, float, float, float] | None, int, int]:
    """``--window`` (or None when absent) and ``--px`` of one command.

    Beyond each parser's own contract, the image may have at most MAX_PIXELS
    pixels, and the extents x1 - x0, y1 - y0 and the pixel scales
    W/(x1 - x0), H/(y1 - y0) must be finite: an overflowing extent puts every
    pixel centre at infinity, and an overflowing scale every attractor point."""
    width, height = _parse_px(px_text)
    if width * height > MAX_PIXELS:
        raise ParseError(
            f"--px {px_text!r} asks for {width * height} pixels, more than {MAX_PIXELS}"
        )
    if window_text is None:
        return None, width, height
    x0, y0, x1, y1 = window = _parse_window(window_text)
    extents = (x1 - x0, y1 - y0)
    scales = (width / extents[0], height / extents[1])
    if not all(math.isfinite(v) for v in extents + scales):
        raise ParseError(
            f"--window {window_text!r} with --px {px_text!r} needs finite extents "
            "x1 - x0, y1 - y0 and finite pixel scales W/(x1 - x0), H/(y1 - y0)"
        )
    return window, width, height


def _parse_complex(text: str, what: str) -> complex:
    re, im = _parse_csv(text, 2, what)
    return complex(re, im)


def _file_key(path: str):
    """(device, inode) of an existing file, else the resolved path."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _check_outputs(*paths: str | None) -> None:
    """OSError unless each given path can be written: its directory, as the
    OS resolves it (``missing/..`` is no directory), exists and is writable,
    and the path is not a directory itself.  ParseError for "" (only None is
    no path) and when two paths name one file, which the second write would
    overwrite: one resolved path, or for existing files one (device, inode)
    pair, which hard links share."""
    paths = [path for path in paths if path is not None]
    if "" in paths:
        raise ParseError("an output path must not be empty")
    if len({_file_key(path) for path in paths}) < len(paths):
        raise ParseError(f"output paths {paths!r} name one file")
    for path in paths:
        folder = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path!r} is a directory")
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no directory {folder!r} for output {path!r}")
        if not os.access(folder, os.W_OK):
            raise PermissionError(f"directory {folder!r} of output {path!r} is not writable")


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    height, width, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def grid_to_rgb(grid: paramspace.EscapeGrid) -> np.ndarray:
    """Grayscale mapping: survived -> 0, escape at depth e -> 255*e/depth."""
    scaled = np.rint(255.0 * grid.values.astype(np.float64) / grid.depth)
    gray = scaled.astype(np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2)


def envelope(command: list[str], payload: dict) -> dict:
    return {
        "tool": "ifslab",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "payload": payload,
    }


def _write_json(path: str | None, data: dict) -> None:
    """A report's one layout, indented JSON and a newline, in ``path`` or on stdout."""
    with (open(path, "w", encoding="ascii") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def cmd_render(
    window: tuple[float, float, float, float],
    width: int,
    height: int,
    depth: int,
    set_kind: str,
    out: str,
    command: list[str],
    report_path: str | None = None,
) -> int:
    grid = paramspace.escape_grid(window, width, height, set_kind, depth)
    rgb = grid_to_rgb(grid)
    write_ppm(out, rgb)
    if report_path is not None:
        import hashlib

        digest = hashlib.sha256(rgb.tobytes()).hexdigest()
        payload = {
            "kind": "escape_grid",
            "window": list(grid.window),
            "px": [grid.width, grid.height],
            "depth": grid.depth,
            "set": grid.set_kind,
            "depth_semantics": "0 = survived the depth-limited search "
            "(one-sided, over-approximates the locus); nonzero = definitive "
            "escape at that prefix length",
            "survived_pixels": int(np.count_nonzero(grid.values == 0)),
            "escaped_pixels": int(np.count_nonzero(grid.values)),
            "max_escape_depth": int(grid.values.max()),
            "output": out,
            "sha256": digest,
        }
        _write_json(report_path, envelope(command, payload))
    return EXIT_OK


def _paint(img: np.ndarray, pixels, width: int, height: int, value: int) -> None:
    """Set ``value`` in the flat W*H index image ``img`` on every pixel that a
    (cols, rows) pair of ``pixels`` names.  The pairs hold floored float
    indices; those outside the image, and NaN, which fails every comparison,
    are dropped."""
    for cols, rows in pixels:
        keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
        img[rows[keep].astype(np.intp) * width + cols[keep].astype(np.intp)] = value


def _point_pixels(blocks, window, width: int, height: int):
    """The (cols, rows) pairs for ``_paint`` of the points of each block:
    floor((x - x0) * W / (x1 - x0)) and floor((y1 - y) * H / (y1 - y0)),
    operation by operation in that order."""
    x0, y0, x1, y1 = window
    for nodes in blocks:
        yield (np.floor((nodes.real - x0) * width / (x1 - x0)),
               np.floor((y1 - nodes.imag) * height / (y1 - y0)))


def _circle_steps(radius: float, window, width: int, height: int) -> int:
    """Samples of one overlay circle of ``radius``: 16 r max(W/(x1-x0),
    H/(y1-y0)), at least 64.  ParseError when that is more than
    MAX_CIRCLE_SAMPLES."""
    x0, y0, x1, y1 = window
    needed = 16 * radius * max(width / (x1 - x0), height / (y1 - y0))
    if not needed <= MAX_CIRCLE_SAMPLES:
        raise ParseError(
            f"an overlay circle of radius {radius:.3g} needs {needed:.3g} samples "
            f"in this window, more than {MAX_CIRCLE_SAMPLES}; widen --window or "
            "lower --px"
        )
    return max(64, int(needed))


def _draw_circles(circles, window, width: int, height: int):
    """The (cols, rows) pairs for ``_paint`` of the samples of the ``circles``
    of ``_overlay_circles``, read once in order (so ``ifs.level_blocks`` may
    feed them), in batches of about ``ifs._BLOCK_NODES``: the compiled
    circles' reference."""
    x0, y0, x1, y1 = window
    sx, sy = width / (x1 - x0), height / (y1 - y0)
    # (xs - x0) * sx floors some samples to other pixels than the attractor
    # points' (x - x0) * W / (x1 - x0); images depend on both staying as is
    for centers, dx, dy in circles:
        batch = max(1, ifs._BLOCK_NODES // dx.size)
        for block in centers:
            for i in range(0, block.size, batch):
                c = block[i:i + batch]
                yield (np.floor((c.real[:, None] + dx - x0) * sx),
                       np.floor((y1 - (c.imag[:, None] + dy)) * sy))


def _numpy_image(table: np.ndarray, circles, window, width: int, height: int) -> np.ndarray:
    """The index image of ``_native.attractor_image`` in numpy, bit for bit:
    1 on the pixels of the blocks of ``ifs._level_blocks(table)``, then 2 on
    those of ``circles``.  The compiled path's reference and fallback."""
    img = np.zeros(height * width, dtype=np.uint8)
    _paint(img, _point_pixels(ifs._level_blocks(table), window, width, height), width, height, 1)
    _paint(img, _draw_circles(circles, window, width, height), width, height, 2)
    return img


def _overlay_circles(
    lam: complex, alphabet: str, window, width: int, height: int, overlay: str,
    level: int, series: RationalTypeSeries | None, periods: int,
) -> tuple[list, tuple[int, int, int] | None]:
    """The circles of ``overlay`` as (centers, dx, dy) triples, each
    ``centers`` an iterable of centre arrays and dx, dy the offsets
    radius cos t, radius sin t of a circle's samples from its centre, and
    the one colour they are all drawn in (None without circles).

    Every refusal of the overlay comes from here, before any level is walked:
    the instar level guard (``ifs.level_blocks`` checks the level when
    called), ``chain`` without ``--series`` or at a non-root,
    MAX_CIRCLE_SAMPLES for every circle and MAX_OVERLAY_SAMPLES for all of
    them; the offsets are computed after both.  The instar centres are the
    level's nodes, walked in blocks only when the circles are drawn."""
    count = 1  # centres per circle entry: a whole level, or one chain disk
    if overlay == "instar":
        circles = [(ifs.level_blocks(lam, level, alphabet), ifs.nodal_radius(lam, level))]
        count = len(ifs._signs(alphabet)) ** (level + 1)
        color = (160, 160, 160)
    elif overlay == "chain":
        if series is None:
            raise ParseError("--overlay chain requires --series")
        try:
            lam = certificate._require_root(series, lam)
        except NotARoot:
            raise ParseError("--overlay chain requires lambda to be a root "
                             "of --series") from None
        disks = certificate._chain(series, lam, periods * series.period)[2]
        circles = [([np.array([disk.center])], disk.radius)
                   for disk in disks if disk.radius > 0]
        color = (0, 160, 0)
    else:
        circles, color = [], None
    steps = [_circle_steps(radius, window, width, height) for _, radius in circles]
    needed = count * sum(steps)
    if needed > MAX_OVERLAY_SAMPLES:
        raise ParseError(f"the overlay's circles need {needed:.3g} samples in this window, more "
                         f"than {MAX_OVERLAY_SAMPLES}; widen --window or lower --px or --level")
    angles = [2.0 * np.pi * np.arange(n) / n for n in steps]
    return [(centers, radius * np.cos(t), radius * np.sin(t))
            for (centers, radius), t in zip(circles, angles)], color


def cmd_attractor(
    lam: complex, depth: int, alphabet: str, window: tuple[float, float, float, float] | None,
    width: int, height: int, out: str, overlay: str, overlay_level: int,
    series: RationalTypeSeries | None, periods: int,
) -> int:
    """Point raster of the level-``depth`` nodes with the circles of ``overlay``
    ("none", "instar" or "chain") drawn over it, as one index image (0
    background, 1 point, 2 circle) coloured by one palette lookup.  After
    every refusal and the points' level guard, the library is asked for once
    and draws the image (``_native.attractor_image``), or numpy does."""
    from . import _native

    if window is None:
        bound = 1.0 / (1.0 - abs(lam))
        window = (-bound, -bound, bound, bound)
    circles, color = _overlay_circles(
        lam, alphabet, window, width, height, overlay, overlay_level, series, periods
    )
    table = ifs._letter_weights(complex(lam), depth, alphabet)
    kernel = _native.attractor_kernel()
    if kernel is None:
        img = _numpy_image(table, circles, window, width, height)
    else:
        img = _native.attractor_image(kernel, table, circles, window, width, height)[0]
    palette = np.array([(255, 255, 255), (0, 0, 0), color or (0, 0, 0)], dtype=np.uint8)
    write_ppm(out, np.take(palette, img.reshape(height, width), axis=0))
    return EXIT_OK


def _series_root(series: RationalTypeSeries, seed: complex) -> complex:
    """Newton root of the series' numerator from ``seed``; InvalidLambda when
    it lands outside 0 < |lambda| < 1, where the series does not converge,
    and ParseError for a constant numerator, which no seed can make vanish."""
    poly = numerator_polynomial(series)
    try:
        root = newton_root(poly, seed)
    except ValueError:
        raise ParseError(f"the numerator of --series {series.format()!r} is the constant "
                         f"{poly[0]}, which has no root") from None
    return paramspace._check_lambda(root)


def cmd_certify(
    series: RationalTypeSeries,
    seed: complex,
    target: str,
    out: str | None,
    command: list[str],
) -> int:
    lam = _series_root(series, seed)
    report = certificate.certify(series, lam, target=target)
    _write_json(out, envelope(command, certificate.report_to_dict(report)))
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_landmarks(ids, out: str | None, command: list[str]) -> int:
    outcomes = landmarks.run_suite(ids)
    header = (
        f"{'id':>2} {'root':>24} {'sector':>6} {'overlap':>7} "
        f"{'verdict':>14} {'shared':>7} {'min margin':>11} {'ok':>4}"
    )
    print(header)
    for oc in outcomes:
        root = f"{oc.root.real:+.6f}{oc.root.imag:+.6f}i"
        print(
            f"{oc.id:>2} {root:>24} {str(oc.in_sector):>6} {oc.overlap_count:>7} "
            f"{oc.verdict:>14} {str(oc.shared_boundary):>7} {oc.min_condition_margin:>11.4e} "
            f"{'ok' if oc.expected_ok else 'FAIL':>4}"
        )
        for note in oc.notes:
            print(f"     - {note}")
    if out is not None:
        payload = {
            "kind": "landmark_suite",
            "probe_semantics": "survived = depth-limited search could not "
            "exclude the parameter (one-sided); escaped = definitive",
            "outcomes": [
                {f.name: getattr(oc, f.name) for f in fields(oc)}
                | {"root": {"re": oc.root.real, "im": oc.root.imag}}
                for oc in outcomes
            ],
        }
        _write_json(out, envelope(command, payload))
    return EXIT_OK if all(oc.expected_ok for oc in outcomes) else EXIT_EXPECTATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Attractors, parameter loci, and accessibility certificates "
        "for the IFS families {-1+lz, lz, 1+lz}.",
    )
    parser.add_argument("--version", action="version", version=f"ifslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="escape-depth image of a parameter window")
    render.add_argument("--window", required=True, help="x0,y0,x1,y1")
    render.add_argument("--px", required=True, help="W,H")
    render.add_argument("--depth", type=int, default=40, help=f"1..{MAX_DEPTH}")
    render.add_argument("--set", type=str.lower, choices=tuple(SETS), default="m",
                        help="locus: m or m0")
    render.add_argument("--out", required=True)
    render.add_argument("--report", default=None, help="optional JSON summary path")

    attractor = sub.add_parser("attractor", help="attractor point raster")
    attractor.add_argument("--seed", required=True, help="re,im parameter (refined via --series if given)")
    attractor.add_argument("--series", default=None, help='series text, e.g. "1,-1,-1;1"')
    attractor.add_argument("--depth", type=int, default=14)
    attractor.add_argument("--set", type=str.lower, choices=tuple(SETS), default="m",
                           help="m: three maps, m0: two maps")
    attractor.add_argument("--window", default=None, help="x0,y0,x1,y1 (default: bounding disk)")
    attractor.add_argument("--px", default="800,800", help="W,H")
    attractor.add_argument("--out", required=True)
    attractor.add_argument("--overlay", choices=("none", "instar", "chain"), default="none")
    attractor.add_argument("--level", type=int, default=3, help="instar overlay level")
    attractor.add_argument("--periods", type=int, default=2,
                           help=f"chain overlay periods, 1..{MAX_PERIODS}")

    cert = sub.add_parser("certify", help="run the accessibility certificate")
    cert.add_argument("--series", required=True)
    cert.add_argument("--seed", required=True, help="re,im Newton seed")
    cert.add_argument("--set", type=str.lower, choices=tuple(SETS), default="m",
                      help="target locus: m or m0")
    cert.add_argument("--out", default=None, help="JSON report path (default: stdout)")

    marks = sub.add_parser("landmarks", help="evaluate the landmark suite")
    marks.add_argument("--id", type=int, choices=tuple(landmarks._FIXTURES), default=None,
                       help="restrict to one landmark")
    marks.add_argument("--out", default=None, help="optional JSON report path")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "render":
            window, w, h = _parse_frame(args.window, args.px)
            if not 1 <= args.depth <= MAX_DEPTH:
                raise ParseError(f"--depth must be 1..{MAX_DEPTH}, got {args.depth}")
            _check_outputs(args.out, args.report)
            return cmd_render(
                window, w, h, args.depth, SETS[args.set], args.out, argv, args.report
            )

        if args.command == "attractor":
            seed = _parse_complex(args.seed, "--seed")
            series = None if args.series is None else RationalTypeSeries.parse(args.series)
            window, w, h = _parse_frame(args.window, args.px)
            if args.depth < 0 or args.level < 0:
                raise ParseError("--depth and --level must be >= 0")
            if not 1 <= args.periods <= MAX_PERIODS:
                raise ParseError(f"--periods must be 1..{MAX_PERIODS}, got {args.periods}")
            alphabet = ifs.TERNARY if args.set == "m" else ifs.BINARY
            _check_outputs(args.out)
            if series is None:
                lam = paramspace._check_lambda(seed)
            else:
                lam = _series_root(series, seed)
            return cmd_attractor(
                lam, args.depth, alphabet, window, w, h, args.out,
                args.overlay, args.level, series, args.periods,
            )

        if args.command == "certify":
            series = RationalTypeSeries.parse(args.series)
            seed = _parse_complex(args.seed, "--seed")
            try:
                certificate._check_block(series)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            _check_outputs(args.out)
            return cmd_certify(series, seed, SETS[args.set], args.out, argv)

        if args.command == "landmarks":
            ids = None if args.id is None else [args.id]
            _check_outputs(args.out)
            return cmd_landmarks(ids, args.out, argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IfsLabError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
