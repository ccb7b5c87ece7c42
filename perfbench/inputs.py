"""Seeded job lists for the three benchmark workloads.

A job is one ``ifslab`` command line plus the facts the output checks need.
Output paths are written as ``OUT:<name>`` and bound to a scratch directory
when the job runs, so the generated inputs do not depend on where the
benchmark runs.  The same seed always gives the same jobs.

Every generated input is one the CLI documents as valid: windows are finite,
``--px`` values are integers, and every ``certify`` Newton seed converges to
a root with 0 < |lambda| < 1 and |f(lambda)| < 1e-8.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from ifslab import numerics, series
from ifslab.errors import IfsLabError
from ifslab.series import RationalTypeSeries, rational_eval

#: The acceptance-criterion window and the README window.
ACCEPTANCE_WINDOW = (0.0, 0.0, 0.708, 0.708)
README_WINDOW = (0.40, -0.05, 0.60, 0.05)
#: Landmark 5 (period three) in the form the README uses.
LANDMARK5_SERIES = "1;1,1,-1"
LANDMARK5_SEED = "-0.366,0.520"

ROOT_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``items`` is the workload's unit of work done by
    the job: pixels (raster), certificates (certify), attractor points
    (attractor)."""

    name: str
    kind: str
    argv: tuple[str, ...]
    items: int
    spec: dict = field(default_factory=dict)


def _window_arg(window) -> str:
    return "--window=" + ",".join(repr(float(v)) for v in window)


def _render_job(name, window, width, height, depth, set_kind) -> Job:
    argv = (
        "render", _window_arg(window), "--px", f"{width},{height}",
        "--depth", str(depth), "--set", set_kind,
        "--out", f"OUT:{name}.ppm", "--report", f"OUT:{name}.json",
    )
    spec = {"window": tuple(window), "px": (width, height), "depth": depth,
            "set": set_kind}
    return Job(name, "render", argv, width * height, spec)


def raster_jobs(seed: int) -> list[Job]:
    """Two pinned windows plus 32 stratified seeded windows.

    The seeded windows sit in the upper half of the annulus 0.5 < |l| < 0.75,
    one per cell of a 4 (radius) x 8 (angle) grid, so every seed covers the
    annulus the same way and the pass cost varies little from seed to seed.
    The two innermost cells next to the real axis hold windows that rest on
    it.  Their radius stays below 0.58: further out, a real-axis window of
    this size costs seconds to tens of seconds at depth 25, and one such
    window would decide the whole pass.  One in four seeded windows renders
    M0.
    """
    rng = random.Random(f"raster:{seed}")
    jobs = [
        _render_job("accept", ACCEPTANCE_WINDOW, 128, 128, 25, "m"),
        _render_job("readme", README_WINDOW, 200, 101, 40, "m"),
    ]
    bands = (0.52, 0.575, 0.63, 0.685, 0.74)
    sectors = 8
    for b in range(len(bands) - 1):
        for k in range(sectors):
            radius = rng.uniform(bands[b], bands[b + 1])
            angle = math.pi * (k + rng.uniform(0.25, 0.75)) / sectors
            side = rng.uniform(0.02, 0.035)
            cx, cy = radius * math.cos(angle), radius * math.sin(angle)
            if b == 0 and k in (0, sectors - 1):
                cy = side / 2.0  # bottom edge on the real axis
            window = (cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2)
            set_kind = "m0" if (b + k) % 4 == 3 else "m"
            jobs.append(_render_job(f"w{b}{k}", window, 16, 16, 25, set_kind))
    return jobs


def _random_series(rng: random.Random, period: int, zero_free: bool) -> RationalTypeSeries:
    letters = (-1, 1) if zero_free else (-1, 0, 1)
    while True:
        ell = rng.randint(0, 2)
        head = [1] + [rng.choice(letters) for _ in range(ell)]
        block = [rng.choice(letters) for _ in range(period)]
        if not any(block):
            continue
        try:
            f = RationalTypeSeries.from_parts(head, block)
        except ValueError:
            continue
        if f.period == period:
            return f


def _rooted_seed(rng: random.Random, f: RationalTypeSeries):
    """A Newton seed text whose root is valid, or None."""
    poly = series.numerator_polynomial(f)
    roots = np.roots(poly[::-1])
    candidates = [
        complex(z) for z in roots
        if 0.05 < abs(z) < 0.95 and z.imag > 1e-3
    ]
    if not candidates:
        return None
    target = rng.choice(sorted(candidates, key=lambda z: (z.real, z.imag)))
    text = f"{target.real:.6f},{target.imag:.6f}"
    re_s, im_s = text.split(",")
    try:
        lam = numerics.newton_root(poly, complex(float(re_s), float(im_s)))
        residual = abs(rational_eval(f, lam))
    except IfsLabError:
        return None
    if not (0.0 < abs(lam) < 1.0 and residual < ROOT_TOL):
        return None
    return text, lam


def certify_jobs(seed: int) -> list[Job]:
    """Periods 1..7 for target M (ternary series) and for target M0
    (zero-free series): three series per period up to 6 and one of period 7,
    plus one landmark-suite job.

    The p >= 5 jobs for M dominate the time: condition (iii) enumerates
    5^(n+1) polynomials for each n < p.
    """
    rng = random.Random(f"certify:{seed}")
    jobs = []
    for period in range(1, 8):
        for copy, set_kind in itertools.product(range(3 if period < 7 else 1), ("m", "m0")):
            while True:
                f = _random_series(rng, period, zero_free=set_kind == "m0")
                found = _rooted_seed(rng, f)
                if found is not None:
                    break
            text, lam = found
            name = f"p{period}{set_kind}-{copy}"
            argv = ("certify", "--series", f.format(), f"--seed={text}",
                    "--set", set_kind, "--out", f"OUT:{name}.json")
            spec = {"series": f.format(), "seed": text, "set": set_kind,
                    "period": period, "lam": lam}
            jobs.append(Job(name, "certify", argv, 1, spec))
    jobs.append(Job("landmarks", "landmarks",
                    ("landmarks", "--out", "OUT:landmarks.json"), 6, {}))
    return jobs


def _attractor_job(name, argv, depth, alphabet_size, spec=None) -> Job:
    return Job(name, "attractor", tuple(argv) + ("--out", f"OUT:{name}.ppm"),
               alphabet_size ** (depth + 1), spec or {})


def attractor_jobs(seed: int) -> list[Job]:
    """The rectangle attractor, seeded ternary attractors, and the two
    overlays at landmark 5.  Every pass has exactly one depth-14 ternary job,
    so the peak memory does not depend on the seed."""
    rng = random.Random(f"attractor:{seed}")
    jobs = [
        _attractor_job(
            "rect22",
            ["attractor", "--seed", "0.0,0.7071067811865475", "--set", "m0",
             "--depth", "22", "--px", "400,300", "--window=-2.2,-1.6,2.2,1.6"],
            22, 2,
        )
    ]
    for k, depth in enumerate((13, 13, 13, 14)):
        radius = rng.uniform(0.5, 0.72)
        angle = rng.uniform(0.05, math.pi - 0.05)
        re_s, im_s = f"{radius * math.cos(angle):.6f}", f"{radius * math.sin(angle):.6f}"
        jobs.append(_attractor_job(
            f"tern{k}",
            ["attractor", f"--seed={re_s},{im_s}", "--set", "m", "--depth", str(depth),
             "--px", "400,400"],
            depth, 3, {"lam": complex(float(re_s), float(im_s)), "depth": depth},
        ))
    for overlay, extra in (("instar", ["--level", "8"]), ("chain", [])):
        jobs.append(_attractor_job(
            overlay,
            ["attractor", f"--seed={LANDMARK5_SEED}", "--series", LANDMARK5_SERIES,
             "--set", "m", "--depth", "12", "--px", "400,400",
             "--overlay", overlay] + extra,
            12, 3,
        ))
    return jobs


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of ``workload``."""
    makers = {"raster": raster_jobs, "certify": certify_jobs,
              "attractor": attractor_jobs}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](seed)


def validate(jobs: list[Job]) -> list[str]:
    """Problems with inputs the CLI would not document as valid."""
    problems = []
    for job in jobs:
        if job.kind == "render":
            if not all(math.isfinite(v) for v in job.spec["window"]):
                problems.append(f"{job.name}: window is not finite")
            x0, y0, x1, y1 = job.spec["window"]
            if not (x0 < x1 and y0 < y1):
                problems.append(f"{job.name}: window is empty")
        for i, arg in enumerate(job.argv[:-1]):
            if arg == "--px":
                parts = job.argv[i + 1].split(",")
                if not all(p.isdigit() and int(p) >= 1 for p in parts):
                    problems.append(f"{job.name}: --px {job.argv[i + 1]!r}")
        lam = job.spec.get("lam")
        if lam is not None and not 0.0 < abs(lam) < 1.0:
            problems.append(f"{job.name}: |lambda| = {abs(lam)} is outside (0, 1)")
        if job.kind == "certify":
            f = RationalTypeSeries.parse(job.spec["series"])
            if abs(rational_eval(f, lam)) >= ROOT_TOL:
                problems.append(f"{job.name}: {lam} is not a root of {f}")
    return problems


def selftest(workload: str, seed: int) -> list[str]:
    """Same seed gives identical inputs; the next seed gives other inputs."""
    first = generate(workload, seed)
    problems = validate(first)
    if generate(workload, seed) != first:
        problems.append(f"seed {seed} gave different {workload} inputs on a rerun")
    if generate(workload, seed + 1) == first:
        problems.append(f"seeds {seed} and {seed + 1} gave the same {workload} inputs")
    return problems
