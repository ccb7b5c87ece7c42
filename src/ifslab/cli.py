"""Command-line surface.

Subcommands:

  render     escape-depth image of a parameter-space window (binary PPM)
  attractor  point raster of an attractor, optional instar / chain overlays
  certify    run the accessibility certificate, write a JSON report
  landmarks  evaluate the six landmark fixtures and their expectations

Exit codes: 0 success, 1 expectation failure, 2 usage/parse error, 3 numeric
failure.  Images are binary PPM (P6) and byte-identical for identical inputs
regardless of --threads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import certificate, ifs, landmarks, paramspace
from .errors import IfsLabError, ParseError
from .numerics import newton_root
from .series import RationalTypeSeries, numerator_polynomial, rational_eval

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RenderConfig:
    window: tuple[float, float, float, float]
    width: int
    height: int
    depth: int
    set_kind: str
    out: str
    threads: int = 1

    def __post_init__(self):
        x0, y0, x1, y1 = self.window
        if not (x0 < x1 and y0 < y1):
            raise ParseError("window must satisfy x0 < x1 and y0 < y1")
        if self.width < 1 or self.height < 1 or self.depth < 1:
            raise ParseError("pixel counts and depth must be >= 1")


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ParseError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad {what} value in {text!r}: {exc}") from None


def _parse_complex(text: str, what: str) -> complex:
    re, im = _parse_floats(text, 2, what)
    return complex(re, im)


def _parse_set(text: str) -> str:
    kind = {"m": paramspace.SET_M, "m0": paramspace.SET_M0}.get(text.lower())
    if kind is None:
        raise ParseError(f"--set must be m or m0, got {text!r}")
    return kind


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("IFS_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParseError(f"IFS_LAB_THREADS={env!r} is not an integer") from None
    return 1


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


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")


def cmd_render(config: RenderConfig, command: list[str], report_path: str | None = None) -> int:
    grid = paramspace.escape_grid(
        config.window, config.width, config.height, config.set_kind, config.depth,
        threads=config.threads,
    )
    rgb = grid_to_rgb(grid)
    write_ppm(config.out, rgb)
    if report_path:
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
            "output": config.out,
            "sha256": digest,
        }
        _write_json(report_path, envelope(command, payload))
    return EXIT_OK


def _draw_circle(rgb: np.ndarray, window, cx: float, cy: float, radius: float, color) -> None:
    """Parametric circle outline, deterministic sample count."""
    height, width, _ = rgb.shape
    x0, y0, x1, y1 = window
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)
    steps = max(64, int(16 * radius * max(sx, sy)))
    t = 2.0 * np.pi * np.arange(steps) / steps
    xs = cx + radius * np.cos(t)
    ys = cy + radius * np.sin(t)
    cols = np.floor((xs - x0) * sx).astype(int)
    rows = np.floor((y1 - ys) * sy).astype(int)
    keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    rgb[rows[keep], cols[keep]] = color


def cmd_attractor(
    lam: complex,
    depth: int,
    alphabet: str,
    window: tuple[float, float, float, float] | None,
    width: int,
    height: int,
    out: str,
    overlay: str = "none",
    overlay_level: int = 3,
    series: RationalTypeSeries | None = None,
    periods: int = 2,
) -> int:
    samples = ifs.attractor_sample(lam, depth, alphabet)
    if window is None:
        bound = 1.0 / (1.0 - abs(lam))
        window = (-bound, -bound, bound, bound)
    x0, y0, x1, y1 = window
    rgb = np.full((height, width, 3), 255, dtype=np.uint8)
    cols = np.floor((samples.real - x0) * width / (x1 - x0)).astype(int)
    rows = np.floor((y1 - samples.imag) * height / (y1 - y0)).astype(int)
    keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    rgb[rows[keep], cols[keep]] = (0, 0, 0)

    if overlay == "instar":
        radius = ifs.nodal_radius(lam, overlay_level)
        for center in ifs.level_nodes(lam, overlay_level, alphabet):
            _draw_circle(rgb, window, center.real, center.imag, radius, (160, 160, 160))
    elif overlay == "chain":
        if series is None:
            raise ParseError("--overlay chain requires --series")
        if abs(rational_eval(series, lam)) >= certificate.ROOT_TOL:
            raise ParseError("--overlay chain requires lambda to be a root of --series")
        for n in range(periods * series.period):
            disk = certificate.chain_disk(series, lam, n)
            if disk.radius > 0:
                _draw_circle(
                    rgb, window, disk.center.real, disk.center.imag, disk.radius,
                    (0, 160, 0),
                )
    elif overlay != "none":
        raise ParseError(f"unknown overlay {overlay!r}")

    write_ppm(out, rgb)
    return EXIT_OK


def _series_root(series: RationalTypeSeries, seed: complex) -> complex:
    """Newton root of the series' numerator from ``seed``; InvalidLambda when
    it lands outside 0 < |lambda| < 1, where the series does not converge."""
    return paramspace._check_lambda(newton_root(numerator_polynomial(series), seed))


def cmd_certify(
    series: RationalTypeSeries,
    seed: complex,
    target: str,
    out: str | None,
    command: list[str],
) -> int:
    lam = _series_root(series, seed)
    report = certificate.certify(series, lam, target=target)
    payload = certificate.report_to_dict(report)
    doc = envelope(command, payload)
    if out:
        _write_json(out, doc)
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
    if out:
        payload = {
            "kind": "landmark_suite",
            "probe_semantics": "survived = depth-limited search could not "
            "exclude the parameter (one-sided); escaped = definitive",
            "outcomes": [
                {
                    "id": oc.id,
                    "root": {"re": oc.root.real, "im": oc.root.imag},
                    "residual": oc.residual,
                    "in_sector": oc.in_sector,
                    "inequality_margins": list(oc.inequality_margins),
                    "overlap_count": oc.overlap_count,
                    "verdict": oc.verdict,
                    "shared_boundary": oc.shared_boundary,
                    "min_condition_margin": oc.min_condition_margin,
                    "probe_out": oc.probe_out,
                    "probe_in": oc.probe_in,
                    "expected_ok": oc.expected_ok,
                    "notes": list(oc.notes),
                }
                for oc in outcomes
            ],
        }
        _write_json(out, envelope(command, payload))
    return EXIT_OK if all(oc.expected_ok for oc in outcomes) else EXIT_EXPECTATION


def build_parser() -> argparse.ArgumentParser:
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
    render.add_argument("--depth", type=int, default=40)
    render.add_argument("--set", default="m", help="m or m0")
    render.add_argument("--out", required=True)
    render.add_argument("--threads", type=int, default=None)
    render.add_argument("--report", default=None, help="optional JSON summary path")

    attractor = sub.add_parser("attractor", help="attractor point raster")
    attractor.add_argument("--seed", required=True, help="re,im parameter (refined via --series if given)")
    attractor.add_argument("--series", default=None, help='series text, e.g. "1,-1,-1;1"')
    attractor.add_argument("--depth", type=int, default=14)
    attractor.add_argument("--set", default="m", help="m: three maps, m0: two maps")
    attractor.add_argument("--window", default=None, help="x0,y0,x1,y1 (default: bounding disk)")
    attractor.add_argument("--px", default="800,800", help="W,H")
    attractor.add_argument("--out", required=True)
    attractor.add_argument("--overlay", default="none", help="none | instar | chain")
    attractor.add_argument("--level", type=int, default=3, help="instar overlay level")
    attractor.add_argument("--periods", type=int, default=2, help="chain overlay periods")

    cert = sub.add_parser("certify", help="run the accessibility certificate")
    cert.add_argument("--series", required=True)
    cert.add_argument("--seed", required=True, help="re,im Newton seed")
    cert.add_argument("--set", default="m", help="target locus: m or m0")
    cert.add_argument("--out", default=None, help="JSON report path (default: stdout)")

    marks = sub.add_parser("landmarks", help="evaluate the landmark suite")
    marks.add_argument("--id", type=int, default=None, help="restrict to one landmark")
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
            x0, y0, x1, y1 = _parse_floats(args.window, 4, "--window")
            w, h = (int(v) for v in _parse_floats(args.px, 2, "--px"))
            config = RenderConfig(
                (x0, y0, x1, y1), w, h, args.depth, _parse_set(args.set), args.out,
                threads=_resolve_threads(args.threads),
            )
            return cmd_render(config, argv, args.report)

        if args.command == "attractor":
            lam = _parse_complex(args.seed, "--seed")
            series = RationalTypeSeries.parse(args.series) if args.series else None
            if series is not None:
                lam = _series_root(series, lam)
            w, h = (int(v) for v in _parse_floats(args.px, 2, "--px"))
            window = (
                _parse_floats(args.window, 4, "--window") if args.window else None
            )
            alphabet = ifs.TERNARY if _parse_set(args.set) == paramspace.SET_M else ifs.BINARY
            return cmd_attractor(
                lam, args.depth, alphabet, window, w, h, args.out,
                overlay=args.overlay, overlay_level=args.level, series=series,
                periods=args.periods,
            )

        if args.command == "certify":
            series = RationalTypeSeries.parse(args.series)
            seed = _parse_complex(args.seed, "--seed")
            target = "M" if _parse_set(args.set) == paramspace.SET_M else "M0"
            return cmd_certify(series, seed, target, args.out, argv)

        if args.command == "landmarks":
            if args.id is not None and args.id not in range(1, 7):
                raise ParseError(f"--id must be 1..6, got {args.id}")
            ids = None if args.id is None else [args.id]
            return cmd_landmarks(ids, args.out, argv)

        parser.error(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IfsLabError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
