"""Output checks that hold for any seed.

They pin what the program promises to keep: image bytes for the default
flags, escape depths equal to the single-pixel ``membership`` probe, the
landmark expectations, lossless certificate JSON, and certificate verdicts
and worst margins equal to an in-process ``certify`` of the same root.  They
do not pin record counts, JSON layout or report bytes.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from ifslab import certificate, cli, paramspace
from ifslab.series import RationalTypeSeries

SAMPLED_PIXELS = 8


def read_ppm(path: str):
    """(width, height, pixel bytes) of a binary PPM."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    width, height = (int(v) for v in dims.split())
    if len(pixels) != width * height * 3:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for {width}x{height}")
    return width, height, pixels


def pixel_centers(window, width, height):
    """Pixel-center coordinates, row 0 at the top (largest imaginary part)."""
    x0, y0, x1, y1 = window
    xs = x0 + (np.arange(width) + 0.5) * (x1 - x0) / width
    ys = y1 - (np.arange(height) + 0.5) * (y1 - y0) / height
    return xs, ys


def locus(text: str) -> str:
    return paramspace.SET_M if text == "m" else paramspace.SET_M0


def pixel_depth(lam: complex, set_kind: str, depth: int) -> int:
    """Escape depth of one pixel by the single-parameter probe, with the
    raster's convention for parameters outside the punctured disk."""
    a = abs(lam)
    if a == 0.0 or a >= 1.0:
        return 1
    return paramspace.membership(lam, set_kind, depth).escaped_at


def reference_render(spec) -> tuple[str, np.ndarray]:
    """Digest of the image at the default flags, and its escape depths."""
    width, height = spec["px"]
    grid = paramspace.escape_grid(spec["window"], width, height,
                                  locus(spec["set"]), spec["depth"])
    rgb = cli.grid_to_rgb(grid)
    return hashlib.sha256(rgb.tobytes()).hexdigest(), grid.values


def check_render(job, paths, sample_seed: int | None) -> tuple[str, list[str]]:
    """Digest of the rendered pixels, and problems found.  With a sample
    seed, also compares sampled pixels against ``membership``."""
    problems = []
    width, height, pixels = read_ppm(paths["ppm"])
    if (width, height) != tuple(job.spec["px"]):
        problems.append(f"{job.name}: image is {width}x{height}")
    digest = hashlib.sha256(pixels).hexdigest()
    with open(paths["json"], encoding="ascii") as fh:
        report = json.load(fh)["payload"]
    if report["sha256"] != digest:
        problems.append(f"{job.name}: report sha256 differs from the image")
    if sample_seed is not None and not problems:
        rng = random.Random(f"{sample_seed}:{job.name}")
        gray = np.frombuffer(pixels, dtype=np.uint8)[::3].reshape(height, width)
        xs, ys = pixel_centers(job.spec["window"], width, height)
        depth = job.spec["depth"]
        for _ in range(SAMPLED_PIXELS):
            i, j = rng.randrange(width), rng.randrange(height)
            e = pixel_depth(complex(xs[i], ys[j]), locus(job.spec["set"]), depth)
            if int(gray[j, i]) != int(np.rint(255.0 * e / depth)):
                problems.append(f"{job.name}: pixel ({i},{j}) differs from membership")
    return digest, problems


def check_attractor(job, paths) -> tuple[str, list[str]]:
    problems = []
    width, height, pixels = read_ppm(paths["ppm"])
    expected = tuple(int(v) for v in job.argv[job.argv.index("--px") + 1].split(","))
    if (width, height) != expected:
        problems.append(f"{job.name}: image is {width}x{height}")
    if 0 not in pixels:
        problems.append(f"{job.name}: no attractor point was drawn")
    return hashlib.sha256(pixels).hexdigest(), problems


def certificate_summary(report) -> tuple:
    """Verdict and the worst margin per (condition, n)."""
    worst = {}
    for rec in report.conditions:
        key = (rec.which, rec.n)
        worst[key] = min(worst.get(key, rec.margin), rec.margin)
    return report.verdict, tuple(sorted(worst.items()))


def check_certify(job, paths) -> tuple[tuple, list[str]]:
    """Round trip of the JSON report; returns its summary for comparison
    with the in-process reference."""
    with open(paths["json"], encoding="ascii") as fh:
        payload = json.load(fh)["payload"]
    report = certificate.report_from_dict(payload)
    problems = []
    if certificate.report_to_dict(report) != payload:
        problems.append(f"{job.name}: report does not round-trip")
    return certificate_summary(report), problems


def reference_certify(job) -> tuple:
    f = RationalTypeSeries.parse(job.spec["series"])
    target = "M" if job.spec["set"] == "m" else "M0"
    return certificate_summary(certificate.certify(f, job.spec["lam"], target=target))

