"""Boundary-accessibility certificates.

For a parameter lambda that is the unique root of a rational-type series f
with preperiod ell and period p, the three-map attractor is self-similar
about the point

    center = -f_ell(lambda) / lambda^(ell+1),

whose itinerary repeats the periodic coefficient block.  Reflecting the
itinerary nodes of that point about it yields a chain of disks

    omega_n = -(f_{ell+1+n}(lambda) + f_ell(lambda)) / lambda^(ell+1),
    r_n     = 2 |f_{ell+1+n}(lambda)| / |lambda^(ell+1)| - |lambda|^(n+1) / (1 - |lambda|),

each tangent to the level-n nodal disk of the center's itinerary.  When every
disk exists (r_n > 0), consecutive disks overlap, and each disk clears the
rest of the level-n instar, the chain is an open connected set in the
attractor complement converging to the center; the asymptotic similarity of
parameter space to the attractor then certifies that lambda is an accessible
boundary point.  The three requirements are equivalent to strict polynomial
inequalities on the Taylor truncations of f, which this module evaluates with
explicit margins, alongside the direct disk geometry, so algebra and geometry
can be cross-checked independently.

Condition (iii) at level n is a minimum over 5^(n+1) polynomials (3^(n+1) in
the single form (iii') used for M0), and all of them share one left-hand
side, so the smallest margin alone decides the level.  ``certify`` therefore
keeps one (iii)/(iii') record per n: the worst polynomial, labelled
``P=...``, found by streaming the polynomials in bounded blocks;
``failure_reasons`` lists one line per failing n.
``condition_instar_separation`` still returns every record.  The instar
clearance of ``verify_chain`` streams the level-n nodes the same way, so
memory stays flat as the period grows.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadIndices,
    DerivativeVanished,
    EnumerationTooLarge,
    HypothesisViolated,
    LevelTooDeep,
    NotARoot,
)
from . import ifs
from .series import (
    RationalTypeSeries,
    coeff_at,
    derivative_eval,
    rational_eval,
    taylor_eval,
)

ROOT_TOL = 1e-8
#: A strict inequality only counts as decided when the margin clears this
#: relative band; inside the band the verdict degrades to "inconclusive".
DECISION_BAND = 1e-12

VERDICT_ACCESSIBLE_M = "accessible_M"
VERDICT_ACCESSIBLE_M0 = "accessible_M0"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_FAILED = "failed"


@dataclass(frozen=True)
class ConditionRecord:
    """One strict-inequality check with both sides as printed and the signed
    margin oriented so that pass <=> margin > 0."""

    which: str
    n: int
    lhs: float
    rhs: float
    margin: float
    passed: bool
    label: str = ""


@dataclass(frozen=True)
class ChainDisk:
    """Chain disk index, center, and radius; radius <= 0 means the disk does
    not exist."""

    n: int
    center: complex
    radius: float


@dataclass(frozen=True)
class ChainLevelCheck:
    n: int
    exists: bool
    exists_margin: float
    connects_next: bool
    connect_margin: float
    disjoint: bool
    disjoint_margin: float
    contained_in_prev: bool | None = None
    containment_residual: float | None = None


@dataclass(frozen=True)
class ChainGeometry:
    target: str
    periods: int
    levels: tuple[ChainLevelCheck, ...]

    @property
    def all_exist(self) -> bool:
        return all(lv.exists for lv in self.levels)

    @property
    def all_connected(self) -> bool:
        return all(lv.connects_next for lv in self.levels)

    @property
    def all_disjoint(self) -> bool:
        return all(lv.disjoint for lv in self.levels)


@dataclass(frozen=True)
class CertificateReport:
    lam: complex
    series: RationalTypeSeries
    target: str
    center: complex
    conditions: tuple[ConditionRecord, ...]
    chain: tuple[ChainDisk, ...]
    geometry: ChainGeometry
    periodicity_residuals: tuple[float, ...]
    verdict: str
    shared_boundary: bool
    failure_reasons: tuple[str, ...]
    warnings: tuple[str, ...]


def hypothesis_notes(lam: complex) -> list[str]:
    """Certificate hypotheses that do not hold at lambda, as messages."""
    notes = []
    if abs(lam.imag) <= 1e-12 * abs(lam):
        notes.append(f"lambda={lam} is (numerically) real")
    if abs(lam) > 2**-0.5:
        notes.append(f"|lambda|={abs(lam):.6f} exceeds 2**-0.5")
    return notes


def _require_root(f: RationalTypeSeries, lam: complex) -> complex:
    lam = complex(lam)
    value = rational_eval(f, lam)
    if abs(value) >= ROOT_TOL:
        raise NotARoot(f"|f(lambda)| = {abs(value):.3e} >= {ROOT_TOL:g} at lambda={lam}")
    for note in hypothesis_notes(lam):
        warnings.warn(note, HypothesisViolated, stacklevel=3)
    return lam


def selfsim_center(f: RationalTypeSeries, lam: complex) -> complex:
    """The self-similarity center -f_ell(lambda) / lambda^(ell+1)."""
    return _selfsim_center(f, _require_root(f, lam))


def _selfsim_center(f: RationalTypeSeries, lam: complex) -> complex:
    ell = f.preperiod
    return -taylor_eval(f, lam, ell) / lam ** (ell + 1)


def center_node(f: RationalTypeSeries, lam: complex, n: int) -> complex:
    """Level-n node of the center's itinerary:
    (f_{ell+1+n}(lambda) - f_ell(lambda)) / lambda^(ell+1)."""
    ell = f.preperiod
    lam = complex(lam)
    return (taylor_eval(f, lam, ell + 1 + n) - taylor_eval(f, lam, ell)) / lam ** (
        ell + 1
    )


def chain_disk(f: RationalTypeSeries, lam: complex, n: int) -> ChainDisk:
    """Chain disk n: the reflection of the center's level-n itinerary node
    about the center, with the radius that makes it tangent to that node's
    instar disk."""
    return _chain_disk(f, _require_root(f, lam), n)


def _chain_disk(f: RationalTypeSeries, lam: complex, n: int) -> ChainDisk:
    ell = f.preperiod
    fl = taylor_eval(f, lam, ell)
    fn = taylor_eval(f, lam, ell + 1 + n)
    scale = lam ** (ell + 1)
    center = -(fn + fl) / scale
    radius = 2.0 * abs(fn) / abs(scale) - ifs.nodal_radius(lam, n)
    return ChainDisk(n, center, radius)


def record_inequality(which: str, n: int, lhs: float, rhs: float, flip: bool, label: str = "") -> ConditionRecord:
    # flip=False: printed as lhs > rhs; flip=True: printed as lhs < rhs
    margin = (rhs - lhs) if flip else (lhs - rhs)
    return ConditionRecord(which, n, lhs, rhs, margin, margin > 0.0, label)


def condition_disk_exists(f: RationalTypeSeries, lam: complex, n: int) -> ConditionRecord:
    """|f_{ell+1+n}(lambda)| > (1/2) |lambda|^{ell+n+2} / (1 - |lambda|),
    equivalent to chain disk n having positive radius."""
    return _disk_exists(f, _require_root(f, lam), n)


def _disk_exists(f: RationalTypeSeries, lam: complex, n: int) -> ConditionRecord:
    ell = f.preperiod
    lhs = abs(taylor_eval(f, lam, ell + 1 + n))
    rhs = 0.5 * abs(lam) ** (ell + n + 2) / (1.0 - abs(lam))
    return record_inequality("i", n, lhs, rhs, flip=False)


def condition_consecutive_overlap(
    f: RationalTypeSeries, lam: complex, n: int
) -> ConditionRecord:
    """|f_{ell+1+n}| + |f_{ell+2+n}| > |lambda|^{ell+n+2} / (1 - |lambda|),
    equivalent to chain disks n and n+1 intersecting."""
    return _consecutive_overlap(f, _require_root(f, lam), n)


def _consecutive_overlap(f: RationalTypeSeries, lam: complex, n: int) -> ConditionRecord:
    ell = f.preperiod
    lhs = abs(taylor_eval(f, lam, ell + 1 + n)) + abs(taylor_eval(f, lam, ell + 2 + n))
    rhs = abs(lam) ** (ell + n + 2) / (1.0 - abs(lam))
    return record_inequality("ii", n, lhs, rhs, flip=False)


def _separation_params(variant: str) -> tuple[int, tuple[int, ...], str]:
    if variant == "doubled":
        return 2, (-2, -1, 0, 1, 2), "iii"
    if variant == "single":
        return 1, (-1, 0, 1), "iii'"
    raise ValueError(f"variant must be 'doubled' or 'single', got {variant!r}")


@dataclass(frozen=True)
class _Separation:
    """Condition (iii) or (iii') at level n, up to the choice of P."""

    which: str
    n: int
    values: tuple[int, ...]
    q: tuple[int, ...]
    lhs: float
    base: complex
    scale: complex
    powers: tuple[complex, ...]

    def record(self, coeffs: tuple[int, ...]) -> ConditionRecord:
        pval = sum(c * w for c, w in zip(coeffs, self.powers))
        rhs = abs(self.base + self.scale * pval)
        label = "P=" + ",".join(str(c) for c in coeffs)
        return record_inequality(self.which, self.n, self.lhs, rhs, flip=True, label=label)


def _separation(
    f: RationalTypeSeries, lam: complex, n: int, variant: str
) -> _Separation:
    if n > 12:
        raise EnumerationTooLarge(f"5^(n+1) enumeration refused for n={n} > 12")
    factor, values, which = _separation_params(variant)
    ell = f.preperiod
    return _Separation(
        which=which,
        n=n,
        values=values,
        q=tuple(factor * coeff_at(f, ell + 1 + j) for j in range(n + 1)),
        lhs=factor * abs(taylor_eval(f, lam, ell + 1 + n)),
        base=factor * taylor_eval(f, lam, ell),
        scale=lam ** (ell + 1),
        powers=tuple(lam**j for j in range(n + 1)),
    )


def condition_instar_separation(
    f: RationalTypeSeries, lam: complex, n: int, variant: str = "doubled"
) -> list[ConditionRecord]:
    """Chain disk n clears every non-tangent instar disk at level n.

    In the doubled form the check is 2|f_{ell+1+n}| < |2 f_ell + lambda^{ell+1} P|
    over all polynomials P of degree <= n with coefficients in {-2..+2}; the
    single form drops the factor 2 and restricts P to {-1, 0, +1}.  The one
    excluded polynomial Q (coefficients 2*c_{ell+1+j}, resp. c_{ell+1+j}) is
    matched by exact integer comparison and corresponds to the tangent disk.
    Records come in itertools.product order of the coefficients.
    """
    lam = _require_root(f, lam)
    sep = _separation(f, lam, n, variant)
    return [
        sep.record(coeffs)
        for coeffs in itertools.product(sep.values, repeat=n + 1)
        if coeffs != sep.q
    ]


#: Nodes per block of the level walker; its working memory is a few arrays
#: of this many complex values at any level.
_BLOCK_NODES = 1 << 14


def _level_blocks(lam: complex, level: int, signs: np.ndarray):
    """Nodes sum a_j lambda^j of all words a_0..a_level over ``signs``, in
    lexicographic order, as consecutive blocks of at most _BLOCK_NODES.

    The top levels are grown once; each block grows a run of those prefixes
    to the leaves with the fold of ifs.level_nodes, so every node has the
    bits it has in the full enumeration."""
    k = signs.size
    depth = 0
    while k ** (level - depth) > _BLOCK_NODES:
        depth += 1
    prefixes = ifs._grow_nodes(signs, lam, depth, signs)
    power = complex(1.0)
    for _ in range(depth):
        power *= lam
    step = _BLOCK_NODES // k ** (level - depth)
    for start in range(0, prefixes.size, step):
        yield ifs._grow_nodes(
            prefixes[start:start + step], lam, level - depth, signs, power
        )


def _word(index: int, values: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The index-th word of itertools.product(values, repeat=length)."""
    letters = []
    for _ in range(length):
        index, digit = divmod(index, len(values))
        letters.append(values[digit])
    return tuple(reversed(letters))


def _worst_separation(
    f: RationalTypeSeries, lam: complex, n: int, variant: str
) -> ConditionRecord:
    """The record of condition_instar_separation with the smallest margin,
    the first in enumeration order among equal margins, without building
    the others.

    The walker's nodes and numpy's arithmetic only approximate the scalar
    right-hand sides, so every polynomial scoring within ``slack`` of the
    smallest score is rescored with the scalar expression.  The slack
    exceeds the rounding gap between the two evaluations, and the gap
    between right-hand sides whose margins round to the same value, by
    orders of magnitude.
    """
    sep = _separation(f, lam, n, variant)
    k = len(sep.values)
    skip = 0
    for c in sep.q:
        skip = skip * k + sep.values.index(c)
    reach = max(sep.values) * sum(abs(w) for w in sep.powers)
    slack = 1e-9 * (sep.lhs + abs(sep.base) + abs(sep.scale) * reach)
    best, found, offset = math.inf, [], 0
    for nodes in _level_blocks(lam, n, np.array(sep.values, dtype=np.complex128)):
        scores = np.abs(sep.base + sep.scale * nodes)
        if offset <= skip < offset + scores.size:
            scores[skip - offset] = np.inf
        best = min(best, float(scores.min()))
        near = np.flatnonzero(scores <= best + slack)
        found.extend(zip(scores[near].tolist(), (near + offset).tolist()))
        offset += scores.size
    records = [
        sep.record(_word(index, sep.values, n + 1))
        for score, index in found
        if score <= best + slack
    ]
    return min(records, key=lambda r: r.margin)


def weakened_conditions(
    f: RationalTypeSeries, lam: complex, indices
) -> list[ConditionRecord]:
    """The relaxed certificate over a sub-cycle of disk indices
    k_1 < ... < k_m, which tolerates intersections between non-consecutive
    chain disks.  Per index j the three checks are:

      w-i   |f_{ell+1+k_j}| > (1/2) |lambda|^{ell+2+k_j} / (1-|lambda|)
      w-ii  |f_{ell+1+k_j}| + |f_{ell+1+k_{j+1}}|
              - (1/2) |f_{ell+1+k_j} - f_{ell+1+k_{j+1}}|
              > (1/2) (|lambda|^{ell+2+k_j} + |lambda|^{ell+2+k_{j+1}}) / (1-|lambda|)
      w-iii the single-form separation check at index k_j

    with j cyclic: k_{m+1} means k_1.
    """
    lam = _require_root(f, lam)
    ks = [int(k) for k in indices]
    m, p, ell = len(ks), f.period, f.preperiod
    if not (2 <= m <= p):
        raise BadIndices(f"need 2 <= m <= p, got m={m}, p={p}")
    if ks != sorted(set(ks)) or ks[0] < 0 or ks[-1] > p - 1:
        raise BadIndices(f"indices must satisfy 0 <= k_1 < ... < k_m <= p-1, got {ks}")
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    records = []
    for j, kj in enumerate(ks):
        kj1 = ks[(j + 1) % m]
        fj = taylor_eval(f, lam, ell + 1 + kj)
        fj1 = taylor_eval(f, lam, ell + 1 + kj1)
        label = f"j={j + 1},k={kj}"
        records.append(
            record_inequality(
                "w-i", kj, abs(fj), 0.5 * absl ** (ell + 2 + kj) * R, flip=False,
                label=label,
            )
        )
        lhs = abs(fj) + abs(fj1) - 0.5 * abs(fj - fj1)
        rhs = 0.5 * (absl ** (ell + 2 + kj) + absl ** (ell + 2 + kj1)) * R
        records.append(record_inequality("w-ii", kj, lhs, rhs, flip=False, label=label))
        worst = _worst_separation(f, lam, kj, "single")
        records.append(replace(worst, which="w-iii", label=f"{label},{worst.label}"))
    return records


def periodicity_residual(f: RationalTypeSeries, lam: complex, n: int) -> float:
    """|lambda^p (omega_n - center) - (omega_{n+p} - center)|: one period of
    the chain must be the lambda^p-scaled image of the previous one."""
    return _periodicity_residual(f, _require_root(f, lam), n)


def _periodicity_residual(f: RationalTypeSeries, lam: complex, n: int) -> float:
    p = f.period
    z = _selfsim_center(f, lam)
    a = _chain_disk(f, lam, n).center
    b = _chain_disk(f, lam, n + p).center
    return abs(lam**p * (a - z) - (b - z))


def parameter_probe(f: RationalTypeSeries, lam: complex, b: complex, n: int) -> complex:
    """Parameter-space image of an attractor-space base point b:

        lambda + lambda^{p n} * (lambda^{ell+1} / f'(lambda)) * (b - center).

    The asymptotic similarity of the locus to the attractor sends points
    outside the attractor to parameters predicted to fall outside the locus
    for large n.  Probe outcomes are evidence only, never part of a verdict.
    """
    lam = _require_root(f, lam)
    fp = derivative_eval(f, lam)
    if abs(fp) < 1e-12:
        raise DerivativeVanished(f"|f'(lambda)| = {abs(fp):.3e} too small")
    z = _selfsim_center(f, lam)
    ell, p = f.preperiod, f.period
    return lam + lam ** (p * n) * (lam ** (ell + 1) / fp) * (complex(b) - z)


def verify_chain(
    f: RationalTypeSeries,
    lam: complex,
    periods_checked: int = 2,
    target: str = "M",
) -> ChainGeometry:
    """Direct geometric verification of the first periods_checked * p chain
    disks: existence, consecutive intersection, and separation from the
    level-n instar (ternary for target M, binary for target M0), with the
    tangent disk excluded by node value.

    Also reports whether each disk is contained in its predecessor (closed
    disks, small tolerance) since deeper chains sometimes nest.
    """
    if target not in ("M", "M0"):
        raise ValueError(f"target must be 'M' or 'M0', got {target!r}")
    lam = _require_root(f, lam)
    if periods_checked < 1:
        raise ValueError("periods_checked must be >= 1")
    return _verify_chain(f, lam, periods_checked, target)


def _instar_clearance(
    lam: complex, n: int, signs: np.ndarray, disk: ChainDisk, znode: complex
) -> float:
    """Smallest gap between ``disk`` and the level-n instar disks, leaving
    out the tangent one: nodes within 1e-9 (1 + |znode|) of ``znode``."""
    reach = disk.radius + ifs.nodal_radius(lam, n)
    tol = 1e-9 * (1.0 + abs(znode))
    best = math.inf
    for nodes in _level_blocks(lam, n, signs):
        keep = np.abs(nodes - znode) > tol
        clearance = np.abs(nodes[keep] - disk.center) - reach
        best = min(best, float(np.min(clearance, initial=np.inf)))
    return best


def _verify_chain(
    f: RationalTypeSeries, lam: complex, periods_checked: int, target: str
) -> ChainGeometry:
    p = f.period
    count = periods_checked * p
    if count > 14:
        raise LevelTooDeep(f"{count} chain levels exceed the guard of 14")
    alphabet = ifs.TERNARY if target == "M" else ifs.BINARY
    signs = np.array(ifs._signs(alphabet), dtype=np.complex128)
    disks = [_chain_disk(f, lam, n) for n in range(count + 1)]
    levels = []
    for n in range(count):
        dn, dn1 = disks[n], disks[n + 1]
        gap = abs(dn.center - dn1.center)
        connect_margin = dn.radius + dn1.radius - gap
        disjoint_margin = _instar_clearance(lam, n, signs, dn, center_node(f, lam, n))
        if n == 0:
            contained, residual = None, None
        else:
            prev = disks[n - 1]
            residual = prev.radius - dn.radius - abs(prev.center - dn.center)
            tol = 1e-10 * (1.0 + prev.radius + abs(dn.radius))
            contained = residual >= -tol
        levels.append(
            ChainLevelCheck(
                n=n,
                exists=dn.radius > 0.0,
                exists_margin=dn.radius,
                connects_next=connect_margin > 0.0,
                connect_margin=connect_margin,
                disjoint=disjoint_margin > 0.0,
                disjoint_margin=disjoint_margin,
                contained_in_prev=contained,
                containment_residual=residual,
            )
        )
    return ChainGeometry(target, periods_checked, tuple(levels))


def _band(lhs: float, rhs: float) -> float:
    return DECISION_BAND * (abs(lhs) + abs(rhs))


def certify(f: RationalTypeSeries, lam: complex, target: str = "M") -> CertificateReport:
    """Run the full certificate at a root of f and deliver a verdict.

    accessible_* requires every Taylor-polynomial condition to pass with a
    margin clearing the decision band and the two-period chain geometry to
    confirm; margins inside the band give "inconclusive", definite failures
    give "failed" with reasons.  For target M0 the series must additionally
    have no zero coefficients.  A zero-free series certified for M is flagged
    as lying on the shared boundary of both loci.

    ``conditions`` holds (i), (ii) and the worst (iii)/(iii') polynomial for
    each n < p; the other polynomials of that n share its left-hand side
    and have larger margins, so they cannot change the verdict.
    """
    if target not in ("M", "M0"):
        raise ValueError(f"target must be 'M' or 'M0', got {target!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", HypothesisViolated)
        lam = _require_root(f, lam)
        p = f.period
        zero_free = not f.zero_positions
        reasons: list[str] = []
        if target == "M0" and not zero_free:
            reasons.append(
                "target M0 requires a series with no zero coefficients; "
                f"zeros at indices {f.zero_positions}"
            )
        variant = "doubled" if target == "M" else "single"
        conditions: list[ConditionRecord] = []
        for n in range(p):
            conditions.append(_disk_exists(f, lam, n))
            conditions.append(_consecutive_overlap(f, lam, n))
            conditions.append(_worst_separation(f, lam, n, variant))
        geometry = _verify_chain(f, lam, 2, target)
        chain = tuple(_chain_disk(f, lam, n) for n in range(2 * p + 1))
        residuals = tuple(_periodicity_residual(f, lam, n) for n in range(2 * p))
        center = _selfsim_center(f, lam)

        near_band = False
        for rec in conditions:
            if rec.margin <= -_band(rec.lhs, rec.rhs):
                reasons.append(
                    f"condition ({rec.which}) fails at n={rec.n}"
                    + (f" [{rec.label}]" if rec.label else "")
                    + f": margin {rec.margin:.3e}"
                )
            elif rec.margin <= _band(rec.lhs, rec.rhs):
                near_band = True
        for lv in geometry.levels:
            checks = (
                ("exists", lv.exists, lv.exists_margin),
                ("connects", lv.connects_next, lv.connect_margin),
                ("instar-disjoint", lv.disjoint, lv.disjoint_margin),
            )
            for name, ok, margin in checks:
                if not ok:
                    reasons.append(
                        f"chain {name} fails at level {lv.n}: margin {margin:.3e}"
                    )

        if reasons:
            verdict = VERDICT_FAILED
        elif near_band:
            verdict = VERDICT_INCONCLUSIVE
        else:
            verdict = VERDICT_ACCESSIBLE_M if target == "M" else VERDICT_ACCESSIBLE_M0
        shared = target == "M" and zero_free and verdict == VERDICT_ACCESSIBLE_M
        notes = tuple(dict.fromkeys(str(w.message) for w in caught))
    return CertificateReport(
        lam=lam,
        series=f,
        target=target,
        center=center,
        conditions=tuple(conditions),
        chain=chain,
        geometry=geometry,
        periodicity_residuals=residuals,
        verdict=verdict,
        shared_boundary=shared,
        failure_reasons=tuple(reasons),
        warnings=notes,
    )


# ---------------------------------------------------------------------------
# JSON-friendly (de)serialization; field-exact round trip.
# ---------------------------------------------------------------------------

def _complex_to_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_from_dict(d: dict) -> complex:
    return complex(d["re"], d["im"])


def condition_to_dict(rec: ConditionRecord) -> dict:
    out = {
        "which": rec.which,
        "n": rec.n,
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "margin": rec.margin,
        "pass": rec.passed,
    }
    if rec.label:
        out["label"] = rec.label
    return out


def condition_from_dict(d: dict) -> ConditionRecord:
    return ConditionRecord(
        d["which"], d["n"], d["lhs"], d["rhs"], d["margin"], d["pass"],
        d.get("label", ""),
    )


def report_to_dict(report: CertificateReport) -> dict:
    geo = report.geometry
    return {
        "lambda": _complex_to_dict(report.lam),
        "series": {
            "preperiod": list(report.series.head),
            "period": list(report.series.block),
        },
        "target": report.target,
        "zeta": _complex_to_dict(report.center),
        "conditions": [condition_to_dict(r) for r in report.conditions],
        "chain": [
            {"n": d.n, "center": _complex_to_dict(d.center), "radius": d.radius}
            for d in report.chain
        ],
        "geometric": {
            "target": geo.target,
            "periods": geo.periods,
            "all_exist": geo.all_exist,
            "all_connected": geo.all_connected,
            "all_disjoint": geo.all_disjoint,
            "levels": [
                {
                    "n": lv.n,
                    "exists": lv.exists,
                    "exists_margin": lv.exists_margin,
                    "connects_next": lv.connects_next,
                    "connect_margin": lv.connect_margin,
                    "disjoint": lv.disjoint,
                    "disjoint_margin": lv.disjoint_margin,
                    "contained_in_prev": lv.contained_in_prev,
                    "containment_residual": lv.containment_residual,
                }
                for lv in geo.levels
            ],
        },
        "periodicity_residuals": list(report.periodicity_residuals),
        "verdict": report.verdict,
        "shared_boundary": report.shared_boundary,
        "failure_reasons": list(report.failure_reasons),
        "warnings": list(report.warnings),
    }


def report_from_dict(d: dict) -> CertificateReport:
    series = RationalTypeSeries.from_parts(d["series"]["preperiod"], d["series"]["period"])
    geo = d["geometric"]
    geometry = ChainGeometry(
        geo["target"],
        geo["periods"],
        tuple(
            ChainLevelCheck(
                n=lv["n"],
                exists=lv["exists"],
                exists_margin=lv["exists_margin"],
                connects_next=lv["connects_next"],
                connect_margin=lv["connect_margin"],
                disjoint=lv["disjoint"],
                disjoint_margin=lv["disjoint_margin"],
                contained_in_prev=lv["contained_in_prev"],
                containment_residual=lv["containment_residual"],
            )
            for lv in geo["levels"]
        ),
    )
    return CertificateReport(
        lam=_complex_from_dict(d["lambda"]),
        series=series,
        target=d["target"],
        center=_complex_from_dict(d["zeta"]),
        conditions=tuple(condition_from_dict(r) for r in d["conditions"]),
        chain=tuple(
            ChainDisk(c["n"], _complex_from_dict(c["center"]), c["radius"])
            for c in d["chain"]
        ),
        geometry=geometry,
        periodicity_residuals=tuple(d["periodicity_residuals"]),
        verdict=d["verdict"],
        shared_boundary=d["shared_boundary"],
        failure_reasons=tuple(d["failure_reasons"]),
        warnings=tuple(d["warnings"]),
    )
