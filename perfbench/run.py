"""Benchmark of the ifslab command line on three workloads.

    python3 perfbench/run.py --workload raster|certify|attractor \\
        --seed N --seconds S --trace 0|1

One client in one thread drives ``ifslab.cli.main(argv)`` in-process in a
closed loop: the next job starts when the previous one has finished.  A pass
is the workload's whole job list, generated from the seed; passes repeat
until ``--seconds`` have gone by (and at least ``MIN_PASSES[workload]`` have
run).  Outputs go to a temporary directory inside the checkout and every one
is checked (see ``checks.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are per layer (see ``spans.py``); the spans are written to
``.perfbench_out/``.  A run record with the environment goes there too.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Passes every run completes even when --seconds is shorter.  With these
#: floors the job-tail percentile below falls inside one group of similar
#: jobs of a pass (the pinned README render, the period-6 certificates, the
#: instar overlay), so it does not jump when a run fits one more pass.
MIN_PASSES = {"raster": 6, "certify": 3, "attractor": 4}
#: No new pass starts after this many seconds, whatever the floor says.
MAX_LOOP_SECONDS = 100.0
SETUP_REPEATS = 3
TAIL_BEYOND = 10

ITEM_NAMES = {"raster": "pixels_per_s", "certify": "certs_per_s",
              "attractor": "points_per_s"}


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``count``
    samples above it (inclusive interpolation)."""
    return max(1, min(99, int(100.0 * (1.0 - TAIL_BEYOND / (count - 1)))))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    """Runs passes of one workload's jobs and checks every output."""

    def __init__(self, name: str, seed: int, scratch: str):
        from ifslab import cli
        import checks
        import inputs

        self.cli, self.checks = cli, checks
        self.name, self.seed, self.scratch = name, seed, scratch
        self.jobs = inputs.generate(name, seed)
        self.records: list[dict] = []  # one per measured job run
        self.problems: list[str] = []  # failures not tied to one job run
        self.sampled: set[str] = set()
        self.tracer = None

    def _paths(self, job):
        argv, paths = [], {}
        for arg in job.argv:
            if arg.startswith("OUT:"):
                arg = os.path.join(self.scratch, arg[4:])
                paths[arg.rsplit(".", 1)[1]] = arg
            argv.append(arg)
        return argv, paths

    def call(self, argv) -> tuple[int, float]:
        """Exit code and seconds of one in-process CLI call."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, elapsed

    def run_job(self, job, tag: str) -> dict:
        argv, paths = self._paths(job)
        if self.tracer is not None:
            self.tracer.job = tag
        rec = {"job": job.name, "tag": tag, "seconds": 0.0, "problems": []}
        try:
            code, rec["seconds"] = self.call(argv)
            rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if self.tracer is not None:
                self.tracer.job = None
            rec["bytes"] = {k: os.path.getsize(p) for k, p in paths.items()
                            if os.path.exists(p)}
            if code != 0:
                rec["problems"].append(f"{job.name}: exit code {code}")
            else:
                self._check(job, paths, rec)
        except Exception:  # a crashing job is a failed job; keep measuring
            rec["problems"].append(f"{job.name}: {traceback.format_exc(limit=3)}")
        finally:
            if self.tracer is not None:
                self.tracer.job = None
            for p in paths.values():
                with contextlib.suppress(FileNotFoundError):
                    os.remove(p)
        return rec

    def _check(self, job, paths, rec):
        checks = self.checks
        if job.kind == "render":
            sample = None if job.name in self.sampled else self.seed
            self.sampled.add(job.name)
            rec["digest"], problems = checks.check_render(job, paths, sample)
        elif job.kind == "attractor":
            rec["digest"], problems = checks.check_attractor(job, paths)
        elif job.kind == "certify":
            rec["summary"], problems = checks.check_certify(job, paths)
        else:  # landmarks: exit code 0 is the whole promise
            problems = []
        rec["problems"].extend(problems)

    def run_pass(self, index: int) -> float:
        """Runs every job once; returns the summed job time."""
        gc.collect()
        total = 0.0
        for job in self.jobs:
            rec = self.run_job(job, f"{index}:{job.name}")
            self.records.append(rec)
            total += rec["seconds"]
        return total

    def warm_up(self) -> None:
        """One cheap job of the pass, untimed, so imports and first-call
        set-up inside the program do not land in the first measured job."""
        rec = self.run_job(self.jobs[-1], "warmup")
        self.problems.extend(rec["problems"])

    def loop(self, seconds: float, min_passes: int) -> list[float]:
        start = time.perf_counter()
        times = []
        while (len(times) < min_passes or time.perf_counter() - start < seconds) \
                and time.perf_counter() - start < MAX_LOOP_SECONDS:
            times.append(self.run_pass(len(times)))
        return times

    def alternate(self, seconds: float, min_pairs: int):
        """Untraced and traced passes in turn, so both halves see the same
        machine state.  Returns the untraced and traced pass times and the
        job records of the traced passes."""
        start = time.perf_counter()
        untraced, traced, traced_records = [], [], []
        while (len(traced) < min_pairs or time.perf_counter() - start < seconds) \
                and time.perf_counter() - start < MAX_LOOP_SECONDS:
            untraced.append(self.run_pass(len(untraced) + len(traced)))
            first = len(self.records)
            self.tracer.install()
            try:
                traced.append(self.run_pass(len(untraced) + len(traced)))
            finally:
                self.tracer.uninstall()
            traced_records.extend(self.records[first:])
        return untraced, traced, traced_records

    def verify_references(self) -> dict:
        """Compares every measured output with a reference computed once per
        distinct job; returns the references (render escape depths)."""
        checks = self.checks
        by_job = defaultdict(list)
        for rec in self.records:
            by_job[rec["job"]].append(rec)
        values = {}
        for job in self.jobs:
            recs = [r for r in by_job[job.name] if not r["problems"]]
            if not recs:
                continue
            if job.kind == "render":
                expected, values[job.name] = checks.reference_render(job.spec)
                key = "digest"
            elif job.kind == "attractor":
                argv, paths = self._paths(job)
                argv[argv.index(paths["ppm"])] = paths["ppm"] + ".ref.ppm"
                code, _ = self.call(argv)
                if code != 0:
                    self.problems.append(f"{job.name}: reference run exited {code}")
                    continue
                expected, _ = checks.check_attractor(job, {"ppm": paths["ppm"] + ".ref.ppm"})
                os.remove(paths["ppm"] + ".ref.ppm")
                key = "digest"
            elif job.kind == "certify":
                expected = checks.reference_certify(job)
                key = "summary"
            else:
                continue
            for rec in recs:
                if rec[key] != expected:
                    rec["problems"].append(f"{job.name}: output differs from the reference")
        return values

    def failures(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_REPEATS of: a fresh interpreter importing the CLI,
    plus generating the workload's inputs."""
    import inputs

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ifslab.cli"], env=env,
                       cwd=str(ROOT), check=True, timeout=60)
        inputs.generate(workload, seed)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def end_to_end(wl: Workload, pass_times, setup_s: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the figures reported beside them.

    Throughput, the median job and the job tail are reported but not gated.
    Throughput is the pass's items over ``wall_s``.  Across ten seeded runs
    on the shared 2-core machine the median job spread up to 0.27 and the
    tail up to 0.33 (interquartile range over median), beyond the largest
    bound a gate may use; ``wall_s`` stayed within 0.21."""
    job_ms = [r["seconds"] * 1e3 for r in wl.records]
    q = tail_percentile(MIN_PASSES[wl.name] * len(wl.jobs))
    tail = percentile(job_ms, q)
    wall = statistics.median(pass_times)
    items = sum(job.items for job in wl.jobs)
    by_job = defaultdict(list)
    for r in wl.records:
        by_job[r["job"]].append(r["seconds"])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.get("rss_kb", 0) for r in wl.records) / 1024.0, "MB"),
    }
    beyond = sum(1 for v in job_ms if v > tail)
    notes = {
        "passes": len(pass_times),
        "pass_s": [round(t, 4) for t in pass_times],
        "items_per_pass": items,
        "reported": {
            ITEM_NAMES[wl.name]: (items / wall, "1/s", ""),
            "job_p50_ms": (statistics.median(job_ms), "ms", ""),
            "job_tail_ms": (tail, "ms", f"p{q}: {beyond} of {len(job_ms)} jobs beyond"),
            "fail_ratio": (wl.failures() / len(job_ms), "share", ""),
        },
        "job_s": {name: [round(t, 6) for t in times] for name, times in by_job.items()},
    }
    return metrics, notes


def replay_pixels(wl: Workload, references: dict) -> dict:
    """Re-renders every render job pixel by pixel through ``membership``
    (traced), checks the grid against ``escape_grid``, and returns the
    per-pixel cost figures."""
    import numpy as np

    checks, tracer = wl.checks, wl.tracer
    costs, survived_cost, row_shares, row_weights = [], 0.0, [], []
    for job in wl.jobs:
        if job.kind != "render" or job.name not in references:
            continue
        width, height = job.spec["px"]
        depth, set_kind = job.spec["depth"], checks.locus(job.spec["set"])
        xs, ys = checks.pixel_centers(job.spec["window"], width, height)
        grid = np.zeros((height, width), dtype=np.int32)
        row_cost = np.zeros(height)
        tracer.job = f"replay:{job.name}"
        for j in range(height):
            for i in range(width):
                lam = complex(xs[i], ys[j])
                before = len(tracer.spans)
                grid[j, i] = checks.pixel_depth(lam, set_kind, depth)
                if len(tracer.spans) > before:
                    _, start, end, *_ = tracer.spans[-1]
                    costs.append(end - start)
                    row_cost[j] += end - start
                    if grid[j, i] == 0:
                        survived_cost += end - start
        tracer.job = None
        if not np.array_equal(grid, references[job.name]):
            wl.problems.append(f"{job.name}: membership replay differs from escape_grid")
        row_shares.append(row_cost.max() / row_cost.sum())
        row_weights.append(row_cost.sum())
    if not costs:
        return {}
    costs.sort()
    total = sum(costs)
    hot = costs[len(costs) - max(1, len(costs) // 100):]
    return {
        "paramspace.pixel_us_p50": statistics.median(costs) * 1e6,
        "paramspace.pixel_ms_tail": percentile(costs, tail_percentile(len(costs))) * 1e3,
        "paramspace.pixel_ms_max": costs[-1] * 1e3,
        "paramspace.hot1pct_share": sum(hot) / total,
        "paramspace.survived_time_share": survived_cost / total,
        "paramspace.row_max_share": float(np.average(row_shares, weights=row_weights)),
    }


def threads2_speedup(wl: Workload) -> dict:
    """Speed-up of threads=2 over threads=1 on the workload's biggest
    escape grid (raster) or node enumeration (attractor), two alternating
    repeats each; outputs must agree."""
    import numpy as np
    from ifslab import ifs, paramspace

    if wl.name == "raster":
        spec = max((j for j in wl.jobs if j.kind == "render"), key=lambda j: j.items).spec
        set_kind = wl.checks.locus(spec["set"])
        call = lambda t: paramspace.escape_grid(spec["window"], *spec["px"], set_kind,
                                                spec["depth"], threads=t).values
        key = "paramspace.threads2_speedup"
    elif wl.name == "attractor":
        spec = max((j for j in wl.jobs if "lam" in j.spec), key=lambda j: j.items).spec
        call = lambda t: ifs.level_nodes(spec["lam"], spec["depth"], ifs.TERNARY, threads=t)
        key = "ifs.threads2_speedup"
    else:
        return {}
    times = {1: [], 2: []}
    outputs = {}
    wl.tracer.job = "threads2"
    for _ in range(2):
        for threads in (1, 2):
            start = time.perf_counter()
            outputs[threads] = call(threads)
            times[threads].append(time.perf_counter() - start)
    wl.tracer.job = None
    if not np.array_equal(outputs[1], outputs[2]):
        wl.problems.append(f"{key}: threads=2 output differs from threads=1")
    return {key: statistics.median(times[1]) / statistics.median(times[2])}


def _power_of(n: int, base: int) -> bool:
    while n > 1 and n % base == 0:
        n //= base
    return n == 1


def grow_bytes(nodes: int) -> int:
    """Bytes the level-by-level node enumeration reads and writes to return
    ``nodes`` complex128 nodes: each level reads the previous level's array
    and writes one ``base`` times larger.  Computed from array sizes, not
    measured."""
    base = 3 if _power_of(nodes, 3) else 2
    total, n = base, nodes
    while n > base:
        total += n + n // base
        n //= base
    return 16 * total


def per_layer(wl: Workload, records, untraced, traced, extra: dict) -> dict:
    """Per-pass layer figures from the spans of the traced passes, whose job
    runs are ``records``."""
    import spans

    tags = {r["tag"] for r in records}
    passes = len(traced)
    s = spans.summarize(wl.tracer.spans, tags)
    ms = lambda name: s["ms"].get(name, 0.0) / passes
    out_bytes = defaultdict(int)
    for r in records:
        for kind, size in r.get("bytes", {}).items():
            out_bytes[kind] += size
    period_of = {j.name: j.spec.get("period") for j in wl.jobs}
    certify_by_period = defaultdict(list)
    for name, start, end, parent, job, _ in wl.tracer.spans:
        if name == "certificate.certify" and job in tags:
            period = period_of.get(job.split(":", 1)[1])
            if period:
                certify_by_period[period].append((end - start) * 1e3)
    level_ms = s["ms"].get("ifs.level_nodes", 0.0)
    nodes_total = s["items"].get("ifs.level_nodes", 0)
    metrics = {
        "paramspace.escape_grid_ms": ms("paramspace.escape_grid"),
        "paramspace.pixel_us_p50": 0.0,
        "paramspace.pixel_ms_tail": 0.0,
        "paramspace.pixel_ms_max": 0.0,
        "paramspace.hot1pct_share": 0.0,
        "paramspace.survived_time_share": 0.0,
        "paramspace.row_max_share": 0.0,
        "paramspace.threads2_speedup": 0.0,
        "paramspace.membership_ms": ms("paramspace.membership"),
        "paramspace.self_ms": s["self_ms"]["paramspace"] / passes,
    }
    for p in range(1, 8):
        values = certify_by_period.get(p)
        metrics[f"certificate.certify_ms.p{p}"] = statistics.fmean(values) if values else 0.0
    metrics.update({
        "certificate.separation_ms": ms("certificate.condition_instar_separation"),
        "certificate.separation_records":
            s["items"].get("certificate.condition_instar_separation", 0) / passes,
        "certificate.verify_chain_ms": ms("certificate.verify_chain"),
        "certificate.report_to_dict_ms": ms("certificate.report_to_dict"),
        "certificate.self_ms": s["self_ms"]["certificate"] / passes,
        "cli.json_write_ms": ms("cli._write_json"),
        "cli.json_bytes": out_bytes["json"] / passes,
        "cli.self_ms": s["self_ms"]["cli"] / passes,
        "cli.write_ppm_ms": ms("cli.write_ppm"),
        "cli.grid_to_rgb_ms": ms("cli.grid_to_rgb"),
        "cli.ppm_bytes": out_bytes["ppm"] / passes,
        "ifs.level_nodes_ms": level_ms / passes,
        "ifs.nodes": nodes_total / passes,
        "ifs.nodes_per_s": nodes_total / (level_ms / 1e3) if level_ms else 0.0,
        "ifs.bytes_computed": sum(
            grow_bytes(size) for name, _, _, _, job, size in wl.tracer.spans
            if name == "ifs.level_nodes" and job in tags) / passes,
        "ifs.threads2_speedup": 0.0,
        "ifs.self_ms": s["self_ms"]["ifs"] / passes,
        "numerics.newton_root_ms": ms("numerics.newton_root"),
        "numerics.newton_calls": s["calls"].get("numerics.newton_root", 0) / passes,
        "numerics.self_ms": s["self_ms"]["numerics"] / passes,
        "series.numerator_polynomial_ms": ms("series.numerator_polynomial"),
        "series.self_ms": s["self_ms"]["series"] / passes,
        "landmarks.run_suite_ms": ms("landmarks.run_suite"),
        "landmarks.self_ms": s["self_ms"]["landmarks"] / passes,
        "trace.overhead_share":
            statistics.median(traced) / statistics.median(untraced) - 1.0,
    })
    metrics.update(extra)
    return metrics


#: Unit of a per-layer metric by a part of its name; the first match wins.
UNITS = (("per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_share", "share"),
         ("_speedup", "x"), ("bytes", "B"))


def unit_of(name: str) -> str:
    return next((unit for part, unit in UNITS if part in name), "count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("raster", "certify", "attractor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ifslab" / "cli.py").is_file():
        print(f"error: no ifslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import numpy
    import inputs
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        problems = inputs.selftest(args.workload, args.seed)
        setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
        wl = Workload(args.workload, args.seed, scratch)
        wl.problems.extend(problems)
        wl.warm_up()
        min_passes = MIN_PASSES[args.workload]
        if args.trace:
            wl.tracer = spans.Tracer()
            untraced, traced, traced_records = wl.alternate(
                args.seconds, max(2, min_passes // 2))
            references = wl.verify_references()
            wl.tracer.install()
            try:
                extra = replay_pixels(wl, references)
                extra.update(threads2_speedup(wl))
            finally:
                wl.tracer.uninstall()
            values = per_layer(wl, traced_records, untraced, traced, extra)
            notes = {"pass_s_untraced": [round(t, 4) for t in untraced],
                     "pass_s_traced": [round(t, 4) for t in traced],
                     "spans": len(wl.tracer.spans)}
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            wl.tracer.write(str(spans_path))
            metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        else:
            pass_times = wl.loop(args.seconds, min_passes)
            wl.verify_references()
            metrics, notes = end_to_end(wl, pass_times, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = wl.failures()
    problems = wl.problems + [p for r in wl.records for p in r["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "notes": notes, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  nproc {os.cpu_count()}  "
          f"python {platform.python_version()}  numpy {numpy.__version__}")
    for key, value in notes.items():
        if key not in ("job_s", "reported"):
            print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, (value, unit, aside) in notes.get("reported", {}).items():
        print(f"  {name:36s} {value:14.6g} {unit}  (reported, not gated{'; ' + aside if aside else ''})")
    for problem in problems[:20]:
        print(f"  problem: {problem.splitlines()[0]}")
    result = {
        "correct": not problems,
        "attempted": len(wl.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
