"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured quantity.  Run with `pytest -s tests/test_acceptance.py`
to see the lines on success."""

import math
import time

import numpy as np

from ifslab import (
    attractor_sample,
    certify,
    condition_instar_separation,
    escape_grid,
    landmark,
    membership,
    newton_root,
    numerator_polynomial,
    overlap_itinerary,
    overlap_set,
    periodicity_residual,
    selfsim_center,
    selfsim_residuals,
    sector_contains,
    sector_inequalities,
    verify_chain,
)
from ifslab.cli import cmd_render
from ifslab.landmarks import existence_margins

from conftest import random_lambda
from oracles import exhaustive_verdict

REFERENCE_VALUES = {
    1: 0.5957439 + 0.2544259j,
    2: 0.6219644 + 0.1877304j,
    3: 0.643703 + 0.140749j,
    4: 0.63601 + 0.106924j,
    5: -0.366 + 0.520j,
    6: 0.57395 + 0.368989j,
}


def check(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:>2}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_root_recovery():
    t0 = time.perf_counter()
    errors = {}
    for i in range(1, 7):
        lm = landmark(i)
        root = newton_root(numerator_polynomial(lm.series), lm.seed)
        errors[i] = abs(root - REFERENCE_VALUES[i])
    elapsed = time.perf_counter() - t0
    tolerances = {i: (1e-3 if i == 5 else 1e-4) for i in range(1, 7)}
    ok = all(errors[i] < tolerances[i] for i in range(1, 7)) and elapsed < 1.0
    check(1, ok, f"root errors {max(errors.values()):.2e}, {elapsed:.3f}s")


def test_criterion_02_sector_certificates(roots, fixtures):
    t0 = time.perf_counter()
    worst = math.inf
    ok = True
    for i in (1, 2, 3, 4):
        lam = roots[i]
        ok &= sector_contains(lam)
        ok &= all(r.passed for r in sector_inequalities(lam))
        report = certify(fixtures[i].series, lam, target="M")
        ok &= report.verdict == "accessible_M"
        worst = min(worst, min(r.margin for r in report.conditions))
    ok &= worst > 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    check(2, ok, f"ids 1-4 accessible, min condition margin {worst:.4f}, {elapsed:.3f}s")


def test_criterion_03_shared_boundary_flags(roots, fixtures):
    flags = {}
    overlaps = {}
    for i in range(1, 6):
        report = certify(fixtures[i].series, roots[i], target="M")
        flags[i] = report.shared_boundary
        overlaps[i] = len(overlap_set(fixtures[i].series, roots[i]).points)
    ok = (
        [flags[i] for i in (1, 4, 5)] == [True, True, True]
        and [flags[i] for i in (2, 3)] == [False, False]
        and [overlaps[i] for i in (1, 4, 5)] == [1, 1, 1]
        and [overlaps[i] for i in (2, 3)] == [2, 4]
    )
    check(3, ok, f"flags {flags}, overlap sizes {overlaps}")


def test_criterion_04_period3_chain(roots, fixtures):
    t0 = time.perf_counter()
    f, lam = fixtures[5].series, roots[5]
    exist_records = existence_margins(f, lam)
    geo = verify_chain(f, lam, periods_checked=2)
    margins = [r.margin for r in exist_records]
    margins += [lv.exists_margin for lv in geo.levels]
    margins += [lv.connect_margin for lv in geo.levels]
    margins += [lv.disjoint_margin for lv in geo.levels]
    ok = all(r.passed for r in exist_records)
    ok &= geo.all_exist and geo.all_connected and geo.all_disjoint
    ok &= geo.levels[2].contained_in_prev  # B2 inside B1 (internal tangency)
    ok &= geo.levels[0].connect_margin > 1e-4  # B0 meets B1
    ok &= geo.levels[2].connect_margin > 1e-4  # B2 meets B3
    ok &= min(margins) > 1e-4
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    check(4, ok, f"chain margins min {min(margins):.4e}, {elapsed:.3f}s")


def test_criterion_05_negative_control(roots, fixtures):
    geo = verify_chain(fixtures[6].series, roots[6], periods_checked=2)
    ok = geo.all_exist and (not geo.all_connected or not geo.all_disjoint)
    check(
        5,
        ok,
        f"disks exist={geo.all_exist}, connected={geo.all_connected}, "
        f"disjoint={geo.all_disjoint}",
    )


def test_criterion_06_periodicity(roots, fixtures):
    worst_ratio = 0.0
    for i in range(1, 6):
        f, lam = fixtures[i].series, roots[i]
        bound = 1e-10 * (1 + abs(selfsim_center(f, lam)))
        for n in range(2 * f.period):
            worst_ratio = max(worst_ratio, periodicity_residual(f, lam, n) / bound)
    check(6, worst_ratio <= 1.0, f"worst residual at {worst_ratio:.2e} of the bound")


def test_criterion_07_selfsimilarity_residuals(roots, fixtures):
    worst = 0.0
    f5, lam5 = fixtures[5].series, roots[5]
    word5 = overlap_itinerary(f5, (), 16)
    for n in range(3):
        for k in (1, 2):
            res = selfsim_residuals(f5, lam5, 0j, word5, n, k)
            worst = max(worst, res.center_residual, res.radius_residual)
    f2, lam2 = fixtures[2].series, roots[2]
    for sign in (1, -1):
        word2 = overlap_itinerary(f2, (sign,), 16)
        for k in (1, 2):
            res = selfsim_residuals(f2, lam2, sign * lam2**3, word2, 0, k)
            worst = max(worst, res.center_residual, res.radius_residual)
    check(7, worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_08_rectangle_attractor():
    t0 = time.perf_counter()
    lam = 1j / math.sqrt(2)
    pts = attractor_sample(lam, 16, "binary")
    max_re = float(np.max(np.abs(pts.real)))
    max_im = float(np.max(np.abs(pts.imag)))
    elapsed = time.perf_counter() - t0
    ok = 2 - 0.02 <= max_re <= 2.0
    ok &= math.sqrt(2) - 0.02 <= max_im <= math.sqrt(2)
    ok &= elapsed < 2.0
    check(8, ok, f"max|re|={max_re:.5f}, max|im|={max_im:.5f}, {elapsed:.3f}s")


def test_criterion_09_real_spike():
    t0 = time.perf_counter()
    escaped = [not membership(complex(x, 0), "M", 40).survived for x in (0.45, 0.49)]
    survived = [membership(complex(x, 0), "M", 40).survived for x in (0.51, 0.6)]
    elapsed = time.perf_counter() - t0
    ok = all(escaped) and all(survived) and elapsed < 1.0
    check(9, ok, f"escaped {escaped}, survived {survived}, {elapsed:.3f}s")


def test_criterion_10_pruning_soundness(rng):
    t0 = time.perf_counter()
    agreements = 0
    nesting_ok = True
    for _ in range(25):
        lam = random_lambda(rng, 0.3, 0.7)
        verdicts = {}
        for kind in ("M", "M0"):
            pruned = membership(lam, kind, 10).survived
            if pruned != exhaustive_verdict(lam, kind, 10):
                check(10, False, f"verdict mismatch at {lam} {kind}")
            verdicts[kind] = pruned
            agreements += 1
        if verdicts["M0"] and not verdicts["M"]:
            nesting_ok = False
    elapsed = time.perf_counter() - t0
    ok = agreements == 50 and nesting_ok and elapsed < 30.0
    check(10, ok, f"{agreements} oracle agreements, nesting ok, {elapsed:.1f}s")


def test_criterion_11_algebra_geometry_equivalence(roots, fixtures):
    agree = True
    detail = []
    for i in range(1, 7):
        f, lam = fixtures[i].series, roots[i]
        geo = verify_chain(f, lam, periods_checked=1, target="M")
        for n in range(f.period):
            algebra = all(
                r.passed for r in condition_instar_separation(f, lam, n, "doubled")
            )
            geometry = geo.levels[n].disjoint
            agree &= algebra == geometry
            detail.append(f"{i}:{n}:{'=' if algebra == geometry else '!'}")
    check(11, agree, " ".join(detail))


def test_criterion_12_render_determinism(tmp_path):
    t0 = time.perf_counter()
    window = (0.0, 0.0, 0.708, 0.708)
    out = tmp_path / "run.ppm"
    blobs = []
    for _ in range(2):
        cmd_render(window, 256, 256, 25, "M", str(out), ["render"])
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    identical = blobs[0] == blobs[1]
    ok = identical and elapsed < 60.0
    check(12, ok, f"byte-identical={identical}, {elapsed:.1f}s for both renders")
