"""Six landmark parameters, each the unique root in the upper half disk of a
rational-type series, plus the sector-based shortcut checks that certify the
four period-one landmarks.

Landmarks 1-4 sit in the sector

    S = { z : (sqrt(5)-1)/2 < |z| < 2/3, 0 < arg z < 5*pi/32 }

where five elementary inequalities hold with room to spare; those
inequalities in turn settle every certificate condition for a period-one
series, so membership in S plus a period-one vanishing series already
certifies accessibility.  Landmark 5 has period three and is certified
directly from its chain geometry; landmark 6 is the negative control whose
chain disks exist but fail to connect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .certificate import (
    VERDICT_ACCESSIBLE_M,
    ConditionRecord,
    certify,
    parameter_probe,
    record_inequality,
)
from .errors import UnknownLandmark
from .numerics import newton_root
from .paramspace import membership
from .series import (
    RationalTypeSeries,
    numerator_polynomial,
    overlap_set,
    rational_eval,
)

SECTOR_MOD_LO = (math.sqrt(5.0) - 1.0) / 2.0
SECTOR_MOD_HI = 2.0 / 3.0
SECTOR_ARG_HI = 5.0 * math.pi / 32.0
#: Membership depth of the parameter probes of ``evaluate_landmark``.
PROBE_DEPTH = 40


@dataclass(frozen=True)
class Landmark:
    id: int
    series: RationalTypeSeries
    seed: complex
    in_sector: bool
    accessible_M: bool | None  # None: undecided
    shared_boundary_expected: bool


_FIXTURES = {
    1: ("1,-1,-1;1", 0.5957439 + 0.2544259j, True, True, True),
    2: ("1,-1,-1,0;1", 0.6219644 + 0.1877304j, True, True, False),
    3: ("1,-1,-1,0,0;1", 0.643703 + 0.140749j, True, True, False),
    4: ("1,-1,-1,-1;1", 0.63601 + 0.106924j, True, True, True),
    # landmark 5 in its second-quadrant orientation; some sources mirror the
    # parameter to -conj(lam), which swaps the series to f(-z)
    5: ("1;1,1,-1", -0.366 + 0.520j, False, True, True),
    6: ("1,-1,0;1", 0.57395 + 0.368989j, False, None, False),
}


def landmark(i: int) -> Landmark:
    """Fixture data for landmark i, a key of ``_FIXTURES``."""
    if i not in _FIXTURES:
        raise UnknownLandmark(f"landmark id must be one of {tuple(_FIXTURES)}, got {i}")
    text, seed, in_sector, accessible, shared = _FIXTURES[i]
    return Landmark(
        id=i,
        series=RationalTypeSeries.parse(text),
        seed=seed,
        in_sector=in_sector,
        accessible_M=accessible,
        shared_boundary_expected=shared,
    )


def landmark_root(i: int) -> complex:
    """Newton-refined root of the landmark's numerator polynomial."""
    lm = landmark(i)
    return newton_root(numerator_polynomial(lm.series), lm.seed)


def sector_contains(lam: complex) -> bool:
    """Strict membership in the sector S (principal argument)."""
    mod = abs(lam)
    arg = cmath.phase(complex(lam))
    return SECTOR_MOD_LO < mod < SECTOR_MOD_HI and 0.0 < arg < SECTOR_ARG_HI


def sector_inequalities(lam: complex) -> list[ConditionRecord]:
    """Margins of the five elementary inequalities valid throughout S:

      (a) 1 - |z|   > (1/2)|1 - z|      (b) 1 - |z|^2 > |1 - z|
      (c) |z|       < |2 - z|           (d) 2|z|      < |3 - z|
      (e) 2|z|      < |1 + z|

    Evaluated anywhere; callers outside S just read the signed margins.
    """
    z = complex(lam)
    a = abs(z)
    return [
        record_inequality("a", 0, 1.0 - a, 0.5 * abs(1.0 - z), flip=False),
        record_inequality("b", 0, 1.0 - a * a, abs(1.0 - z), flip=False),
        record_inequality("c", 0, a, abs(2.0 - z), flip=True),
        record_inequality("d", 0, 2.0 * a, abs(3.0 - z), flip=True),
        record_inequality("e", 0, 2.0 * a, abs(1.0 + z), flip=True),
    ]


@dataclass(frozen=True)
class LandmarkOutcome:
    """The fields, in order, are the keys of a ``landmarks --out`` outcome
    record, with ``root`` written as {"re", "im"}."""

    id: int
    root: complex
    residual: float
    in_sector: bool
    inequality_margins: tuple[float, ...]
    overlap_count: int
    verdict: str
    shared_boundary: bool
    min_condition_margin: float
    probe_out: str
    probe_in: str
    expected_ok: bool
    notes: tuple[str, ...]


def evaluate_landmark(i: int) -> LandmarkOutcome:
    """Run every landmark expectation and collect margins.

    Probe evidence: parameter probes based at the first chain-disk center
    and at its reflection through the self-similarity center bracket the
    locus boundary from its two sides; both membership outcomes are recorded
    as evidence, neither is asserted.
    """
    lm = landmark(i)
    root = landmark_root(i)
    residual = abs(rational_eval(lm.series, root))
    in_sector = sector_contains(root)
    records = sector_inequalities(root)
    overlap = overlap_set(lm.series, root)
    report = certify(lm.series, root, target="M")
    min_margin = min(r.margin for r in report.conditions)

    z = report.center
    b_out = report.chain[0].center
    probe_out = membership(parameter_probe(lm.series, root, b_out, 4), "M", PROBE_DEPTH)
    probe_in = membership(
        parameter_probe(lm.series, root, 2 * z - b_out, 4), "M", PROBE_DEPTH
    )

    notes = []
    ok = True
    if residual >= 1e-10:
        ok = False
        notes.append(f"root residual {residual:.2e} >= 1e-10")
    if in_sector != lm.in_sector:
        ok = False
        notes.append(f"sector membership {in_sector}, expected {lm.in_sector}")
    if lm.in_sector and not all(r.passed for r in records):
        ok = False
        notes.append("a sector inequality fails inside S")
    if lm.accessible_M is True and report.verdict != VERDICT_ACCESSIBLE_M:
        ok = False
        notes.append(f"verdict {report.verdict}, expected {VERDICT_ACCESSIBLE_M}")
    if lm.accessible_M is None and report.verdict == VERDICT_ACCESSIBLE_M:
        ok = False
        notes.append(f"verdict {VERDICT_ACCESSIBLE_M} for the undecided landmark")
    if report.shared_boundary != lm.shared_boundary_expected:
        ok = False
        notes.append(
            f"shared-boundary flag {report.shared_boundary}, "
            f"expected {lm.shared_boundary_expected}"
        )
    expected_overlap = 2 ** len(lm.series.zero_positions)
    if len(overlap.points) != expected_overlap:
        ok = False
        notes.append(f"overlap count {len(overlap.points)} != {expected_overlap}")
    if lm.accessible_M is None:
        notes.append("accessibility unknown; certificate does not apply")

    return LandmarkOutcome(
        id=i,
        root=root,
        residual=residual,
        in_sector=in_sector,
        inequality_margins=tuple(r.margin for r in records),
        overlap_count=len(overlap.points),
        verdict=report.verdict,
        shared_boundary=report.shared_boundary,
        min_condition_margin=min_margin,
        probe_out=str(probe_out),
        probe_in=str(probe_in),
        expected_ok=ok,
        notes=tuple(notes),
    )


def run_suite(ids=None) -> list[LandmarkOutcome]:
    """Evaluate all (or selected) landmarks; callers decide how to render."""
    return [evaluate_landmark(i) for i in (_FIXTURES if ids is None else ids)]
