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
boundary point.  The three requirements follow from strict polynomial
inequalities on the Taylor truncations of f, which this module evaluates with
explicit margins, alongside the direct disk geometry, so algebra and geometry
can be cross-checked independently.  Condition (i) holds exactly when disk n
exists.  Condition (ii) implies that disks n and n+1 intersect, and is implied
by it when c_{ell+2+n} != 0; when c_{ell+2+n} = 0 the two disks are
concentric.  Condition (iii) implies that disk n clears the ternary instar,
and (iii') that it clears the binary one for a zero-free series; on series
with zero coefficients the converses can fail.

Each quantity has one expression.  A call builds one table of Taylor sums
(``_chain``) and reads the center, its itinerary nodes, the chain disks and
conditions (i)-(iii) off it; ``certify`` builds two, one in ``verify_chain``,
through which it checks the root once.  Every tail radius is ``ifs.nodal_radius``.

Condition (iii) at level n is a minimum over 5^(n+1) polynomials (3^(n+1) in
the single form (iii') used for M0), and all of them share one left-hand
side, so the smallest margin alone decides the level.  ``certify`` therefore
keeps one (iii)/(iii') record per n: the worst polynomial, labelled
``P=...``, found by a pruned walk in the record's arithmetic;
``failure_reasons`` lists one line per failing n.
``condition_instar_separation`` still returns every record, up to
MAX_SEPARATION_RECORDS.  The instar clearance of ``verify_chain`` streams the
level-n nodes in bounded blocks, so memory stays flat as the period grows.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    BadIndices,
    DerivativeVanished,
    EnumerationTooLarge,
    HypothesisViolated,
    NotARoot,
    ScaleUnderflow,
)
from . import ifs
from .series import (
    RationalTypeSeries,
    _taylor_sums,
    coeff_at,
    derivative_eval,
    rational_eval,
)

ROOT_TOL = 1e-8
#: A strict inequality only counts as decided when the margin clears this
#: relative band; inside the band the verdict degrades to "inconclusive".
DECISION_BAND = 1e-12
#: Most records ``condition_instar_separation`` returns: n <= 6 doubled and
#: n <= 9 single.  ``certify`` streams its (iii) search and is not bound by it.
MAX_SEPARATION_RECORDS = 5**7

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
    """One level of ``verify_chain``; the fields, in order, are the keys of
    a report's ``geometric.levels`` records."""

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


def _check_block(f: RationalTypeSeries) -> None:
    """ValueError when the periodic block of f is (0).  Such an f is a
    polynomial, so f_{ell+1}(lambda) = f(lambda) = 0 at its root and
    condition (i) fails by construction, not by a test of the certificate."""
    if not any(f.block):
        raise ValueError(f"periodic block of {f.format()} is zero: f is a polynomial")


def _require_level(n: int) -> None:
    if n < 0:
        raise ValueError(f"level index must be >= 0, got n={n}")


def selfsim_center(f: RationalTypeSeries, lam: complex) -> complex:
    """The self-similarity center -f_ell(lambda) / lambda^(ell+1)."""
    return _chain(f, _require_root(f, lam), 0)[0]


def _chain(f: RationalTypeSeries, lam: complex, count: int) -> tuple[complex, list, list[ChainDisk], list]:
    """The self-similarity center, the center's itinerary nodes and chain
    disks 0..count-1, and the one running Taylor sum f_0..f_{ell+count} they
    are read off.  This is the only expression of each of them."""
    ell = f.preperiod
    scale = lam ** (ell + 1)
    if abs(scale) < sys.float_info.min:
        raise ScaleUnderflow(f"lambda^{ell + 1} is not a normal double: preperiod {ell} is too long")
    sums = _taylor_sums(f, lam, ell + count)
    fl = sums[ell]
    tail = sums[ell + 1:]
    nodes = [(fn - fl) / scale for fn in tail]
    disks = [
        ChainDisk(n, -(fn + fl) / scale,
                  2.0 * abs(fn) / abs(scale) - ifs.nodal_radius(lam, n))
        for n, fn in enumerate(tail)
    ]
    return -fl / scale, nodes, disks, sums


def record_inequality(which: str, n: int, lhs: float, rhs: float, flip: bool, label: str = "") -> ConditionRecord:
    # flip=False: printed as lhs > rhs; flip=True: printed as lhs < rhs
    margin = (rhs - lhs) if flip else (lhs - rhs)
    return ConditionRecord(which, n, lhs, rhs, margin, margin > 0.0, label)


def _disk_exists(f: RationalTypeSeries, lam: complex, sums: list, n: int) -> ConditionRecord:
    ell = f.preperiod
    lhs = abs(sums[ell + 1 + n])
    rhs = 0.5 * ifs.nodal_radius(lam, ell + 1 + n)
    return record_inequality("i", n, lhs, rhs, flip=False)


def _consecutive_overlap(f: RationalTypeSeries, lam: complex, sums: list, n: int) -> ConditionRecord:
    ell = f.preperiod
    lhs = abs(sums[ell + 1 + n]) + abs(sums[ell + 2 + n])
    rhs = ifs.nodal_radius(lam, ell + 1 + n)
    return record_inequality("ii", n, lhs, rhs, flip=False)


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

    def rhs(self, pval: complex) -> float:
        return abs(self.base + self.scale * pval)

    def record(self, coeffs: tuple[int, ...]) -> ConditionRecord:
        # left to right from 0, as _worst_separation walks: not sum(), whose
        # algorithm is CPython's to change
        pval = 0
        for c, w in zip(coeffs, self.powers):
            pval = pval + c * w
        label = "P=" + ",".join(str(c) for c in coeffs)
        return record_inequality(self.which, self.n, self.lhs, self.rhs(pval), flip=True, label=label)


def _separation(f: RationalTypeSeries, lam: complex, sums: list, n: int, variant: str) -> _Separation:
    """Condition (iii) ("doubled") or (iii') ("single") at level n, with the
    n > 12 ceiling of every walk over its polynomials."""
    if variant == "doubled":
        factor, values, which = 2, (-2, -1, 0, 1, 2), "iii"
    elif variant == "single":
        factor, values, which = 1, (-1, 0, 1), "iii'"
    else:
        raise ValueError(f"variant must be 'doubled' or 'single', got {variant!r}")
    if n > 12:
        raise EnumerationTooLarge(f"{len(values)}^(n+1) enumeration refused for n={n} > 12")
    ell = f.preperiod
    return _Separation(
        which=which,
        n=n,
        values=values,
        q=tuple(factor * coeff_at(f, ell + 1 + j) for j in range(n + 1)),
        lhs=factor * abs(sums[ell + 1 + n]),
        base=factor * sums[ell],
        scale=lam ** (ell + 1),
        powers=tuple(lam**j for j in range(n + 1)),
    )


def condition_instar_separation(
    f: RationalTypeSeries, lam: complex, n: int, variant: str = "doubled"
) -> list[ConditionRecord]:
    """A check that implies chain disk n clears every non-tangent instar
    disk at level n: the ternary ones in the doubled form, and the binary
    ones in the single form when f has no zero coefficients.

    In the doubled form the check is 2|f_{ell+1+n}| < |2 f_ell + lambda^{ell+1} P|
    over all polynomials P of degree <= n with coefficients in {-2..+2}; the
    single form drops the factor 2 and restricts P to {-1, 0, +1}.  The one
    excluded polynomial Q (coefficients 2*c_{ell+1+j}, resp. c_{ell+1+j}) is
    matched by exact integer comparison and corresponds to the tangent disk.
    Records come in itertools.product order of the coefficients; more than
    MAX_SEPARATION_RECORDS raise EnumerationTooLarge before any is built.
    """
    _require_level(n)
    lam = _require_root(f, lam)
    sep = _separation(f, lam, _chain(f, lam, n + 1)[3], n, variant)
    count = len(sep.values) ** (n + 1) - 1
    if count > MAX_SEPARATION_RECORDS:
        raise EnumerationTooLarge(f"{count} records at n={n} exceed {MAX_SEPARATION_RECORDS}")
    return [
        sep.record(coeffs)
        for coeffs in itertools.product(sep.values, repeat=n + 1)
        if coeffs != sep.q
    ]


def _worst_separation(
    f: RationalTypeSeries, lam: complex, sums: list, n: int, variant: str
) -> ConditionRecord:
    """The record of condition_instar_separation with the smallest margin,
    the first in enumeration order among equal margins, without building
    the others.

    A depth-first walk chooses the coefficients of P one at a time and sums
    P(lambda) as ``_Separation.record`` does, so each leaf has its record's
    bits.  The digits k..n still to choose move the right-hand side by at
    most |scale| max(values) sum_{j>=k} |lambda^j|, so a prefix whose margin
    less that reach exceeds the best leaf's by more than ``slack`` is
    dropped.  The slack covers the rounding of this bound: it decides which
    subtrees are visited, never which record is returned.
    """
    sep = _separation(f, lam, sums, n, variant)
    # offsets[k] = lhs + |scale| max(values) sum_{j>=k} |lambda^j|; at a leaf
    # it is lhs itself, so the leaf's bound is its record's margin
    offsets = [sep.lhs]
    for w in reversed(sep.powers):
        offsets.append(offsets[-1] + abs(sep.scale) * max(sep.values) * abs(w))
    offsets.reverse()
    slack = 1e-9 * (offsets[0] + abs(sep.base))
    best = (math.inf, ())
    stack = [(-math.inf, (), 0)]
    while stack:
        bound, coeffs, pval = stack.pop()
        cut = best[0] + slack
        if bound > cut:
            continue
        k = len(coeffs)
        if k > n:
            if coeffs != sep.q:
                best = min(best, (bound, coeffs))
            continue
        children = []
        for c in sep.values:
            child = pval + c * sep.powers[k]
            bound = sep.rhs(child) - offsets[k + 1]
            if bound <= cut:
                children.append((bound, coeffs + (c,), child))
        stack.extend(sorted(children, reverse=True))
    return sep.record(best[1])


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
    sums = _chain(f, lam, ks[-1] + 1)[3]
    records = []
    for j, kj in enumerate(ks):
        kj1 = ks[(j + 1) % m]
        fj, fj1 = sums[ell + 1 + kj], sums[ell + 1 + kj1]
        label = f"j={j + 1},k={kj}"
        records.append(replace(_disk_exists(f, lam, sums, kj), which="w-i", label=label))
        lhs = abs(fj) + abs(fj1) - 0.5 * abs(fj - fj1)
        rhs = 0.5 * (ifs.nodal_radius(lam, ell + 1 + kj) + ifs.nodal_radius(lam, ell + 1 + kj1))
        records.append(record_inequality("w-ii", kj, lhs, rhs, flip=False, label=label))
        worst = _worst_separation(f, lam, sums, kj, "single")
        records.append(replace(worst, which="w-iii", label=f"{label},{worst.label}"))
    return records


def _periodicity_residual(
    lam: complex, p: int, z: complex, dn: ChainDisk, dnp: ChainDisk
) -> float:
    return abs(lam**p * (dn.center - z) - (dnp.center - z))


def parameter_probe(f: RationalTypeSeries, lam: complex, b: complex, n: int) -> complex:
    """Parameter-space image of an attractor-space base point b:

        mu = lambda - lambda^{p n} * (lambda^{ell+1} / f'(lambda)) * (b - center).

    The tail of f after its first ell+1 coefficients sums to the center at
    lambda, and after ell+1+pn coefficients it is the same tail, so
    f(z) = f_{ell+pn}(z) + z^{ell+1+pn} tau(z) with tau(lambda) = center.  A
    series g(z) = f_{ell+pn}(z) + z^{ell+1+pn} T(z) that keeps those
    coefficients and continues with a tail T, T(lambda) = b, is then
    g(z) = f(z) + z^{ell+1+pn} (T(z) - tau(z)).  To first order near lambda,
    g(mu) = f'(lambda) (mu - lambda) + lambda^{ell+1+pn} (b - center), which
    vanishes at the mu above.  So for b in the attractor, mu is near a
    parameter of the locus, and the asymptotic similarity of the locus to the
    attractor sends points outside the attractor to parameters predicted to
    fall outside the locus for large n.  Probe outcomes are evidence only,
    never part of a verdict.
    """
    _require_level(n)
    z = selfsim_center(f, lam)
    lam = complex(lam)
    fp = derivative_eval(f, lam)
    if abs(fp) < 1e-12:
        raise DerivativeVanished(f"|f'(lambda)| = {abs(fp):.3e} too small")
    ell, p = f.preperiod, f.period
    return lam - lam ** (p * n) * (lam ** (ell + 1) / fp) * (complex(b) - z)


def _instar_clearance(
    lam: complex, n: int, alphabet: str, disk: ChainDisk, znode: complex
) -> float:
    """Smallest gap between ``disk`` and the level-n instar disks over
    ``alphabet``, leaving out the tangent one: nodes within 1e-9 (1 + |znode|)
    of ``znode``.

    Each block gives one array of node distances, the left-out nodes set to
    inf; the radii are subtracted once from the smallest distance, which has
    the bits of the smallest difference because rounding is monotone."""
    tol = 1e-9 * (1.0 + abs(znode))
    best = math.inf
    for nodes in ifs.level_blocks(lam, n, alphabet):
        gap = np.abs(nodes - disk.center)
        gap[np.abs(nodes - znode) <= tol] = np.inf
        best = min(best, float(gap.min()))
    return best - (disk.radius + ifs.nodal_radius(lam, n))


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

    The deepest instar level the clearance walks, periods_checked * p - 1,
    is checked by ``ifs`` before any chain disk is built, so a long period
    is refused at once (at two periods: p > 7 for M, p > 11 for M0).
    """
    if target not in ("M", "M0"):
        raise ValueError(f"target must be 'M' or 'M0', got {target!r}")
    lam = _require_root(f, lam)
    if periods_checked < 1:
        raise ValueError("periods_checked must be >= 1")
    count = periods_checked * f.period
    alphabet = ifs.TERNARY if target == "M" else ifs.BINARY
    ifs._check_level(count - 1, alphabet)
    _, nodes, disks, _ = _chain(f, lam, count + 1)
    levels = []
    for n in range(count):
        dn, dn1 = disks[n], disks[n + 1]
        gap = abs(dn.center - dn1.center)
        connect_margin = dn.radius + dn1.radius - gap
        disjoint_margin = _instar_clearance(lam, n, alphabet, dn, nodes[n])
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
    as lying on the shared boundary of both loci.  A zero periodic block
    raises ValueError, as a bad target does: condition (i) cannot hold.

    ``conditions`` holds (i), (ii) and the worst (iii)/(iii') polynomial for
    each n < p; the other polynomials of that n share its left-hand side
    and have larger margins, so they cannot change the verdict.
    """
    _check_block(f)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", HypothesisViolated)
        # The geometry comes first: it checks the target, the root and its
        # level guard, in that order, so a long period is refused before any
        # (iii) polynomial.
        geometry = verify_chain(f, lam, 2, target)
        lam = complex(lam)
        p = f.period
        zero_free = not f.zero_positions
        reasons: list[str] = []
        if target == "M0" and not zero_free:
            reasons.append(
                "target M0 requires a series with no zero coefficients; "
                f"zeros at indices {f.zero_positions}"
            )
        # disks 0..3p-1: the two checked periods and the one the residuals
        # compare the second of them with
        center, _, disks, sums = _chain(f, lam, 3 * p)
        chain = tuple(disks[:2 * p + 1])
        residuals = tuple(
            _periodicity_residual(lam, p, center, disks[n], disks[n + p])
            for n in range(2 * p)
        )
        variant = "doubled" if target == "M" else "single"
        conditions: list[ConditionRecord] = []
        for n in range(p):
            conditions.append(_disk_exists(f, lam, sums, n))
            conditions.append(_consecutive_overlap(f, lam, sums, n))
            conditions.append(_worst_separation(f, lam, sums, n, variant))

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
        notes = tuple(str(w.message) for w in caught)
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
                {f.name: getattr(lv, f.name) for f in fields(lv)} for lv in geo.levels
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
        tuple(ChainLevelCheck(**lv) for lv in geo["levels"]),
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
