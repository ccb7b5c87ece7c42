"""Normalized power series with coefficients in {-1, 0, +1} and pre-periodic
coefficient sequences.

A series f(z) = sum c_j z^j with c_0 = 1 whose coefficients repeat with
period p after a preperiod of length ell has the closed form

    f(z) = sum_{j<=ell} c_j z^j + (c_{ell+1} z^{ell+1} + ... + c_{ell+p} z^{ell+p}) / (1 - z^p)

and is stored as the coefficient list c_0 .. c_{ell+p} together with the
minimal pair (ell, p).  The textual form is "c_0,...,c_ell;c_{ell+1},...,c_{ell+p}"
with entries -1, 0, 1 (ASCII hyphen-minus only), e.g. "1,-1,-1;1".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParseError, PoleAtUnity, ZerosInPeriod
from .numerics import poly_derivative_eval, poly_eval

_ALLOWED = (-1, 0, 1)


def _primitive_block(block: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest divisor-length block generating the same periodic sequence."""
    p = len(block)
    for d in range(1, p + 1):
        if p % d == 0 and all(block[j] == block[j % d] for j in range(p)):
            return block[:d]
    return block


@dataclass(frozen=True)
class RationalTypeSeries:
    """Coefficient data c_0..c_{ell+p} with (ell, p) minimal.

    Construct via :meth:`from_parts` or :meth:`parse`, which normalize the
    representation; the direct constructor rejects non-minimal input.
    """

    preperiod: int
    period: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        ell, p, cs = self.preperiod, self.period, self.coeffs
        if ell < 0 or p < 1:
            raise ValueError("need preperiod >= 0 and period >= 1")
        if len(cs) != ell + p + 1:
            raise ValueError(f"expected {ell + p + 1} coefficients, got {len(cs)}")
        if any(c not in _ALLOWED for c in cs):
            raise ValueError("coefficients must lie in {-1, 0, +1}")
        if cs[0] != 1:
            raise ValueError("series must be normalized: c_0 = +1")
        block = cs[ell + 1:]
        if _primitive_block(block) != block:
            raise ValueError(f"period block {block} is not primitive")
        if ell >= 1 and cs[ell] == cs[ell + p]:
            raise ValueError("preperiod is not minimal: c_ell == c_{ell+p}")

    @classmethod
    def from_parts(cls, head, block) -> "RationalTypeSeries":
        """Build from head c_0..c_ell and periodic block c_{ell+1}..c_{ell+p},
        reducing to the minimal (ell, p) representation."""
        head = tuple(int(c) for c in head)
        block = tuple(int(c) for c in block)
        if not head or not block:
            raise ValueError("head and block must be nonempty")
        block = _primitive_block(block)
        coeffs = list(head + block)
        ell = len(head) - 1
        p = len(block)
        # c_ell == c_{ell+p} means periodicity already holds one index earlier.
        while ell >= 1 and coeffs[ell] == coeffs[ell + p]:
            coeffs.pop()
            ell -= 1
        return cls(ell, p, tuple(coeffs))

    @classmethod
    def parse(cls, text: str) -> "RationalTypeSeries":
        """Parse the textual form "c_0,...,c_ell;c_{ell+1},...,c_{ell+p}"."""
        parts = text.strip().split(";")
        if len(parts) != 2:
            raise ParseError(f"expected one ';' in series {text!r}")

        def entries(chunk: str, what: str) -> list[int]:
            out = []
            for tok in chunk.split(","):
                tok = tok.strip()
                if tok not in ("-1", "0", "1", "+1"):
                    raise ParseError(f"bad coefficient {tok!r} in {what} of {text!r}")
                out.append(int(tok))
            return out

        head = entries(parts[0], "head")
        block = entries(parts[1], "period block")
        if head[0] != 1:
            raise ParseError(f"series must start with 1, got {head[0]}")
        return cls.from_parts(head, block)

    def format(self) -> str:
        head = ",".join(str(c) for c in self.coeffs[: self.preperiod + 1])
        block = ",".join(str(c) for c in self.coeffs[self.preperiod + 1:])
        return f"{head};{block}"

    def __str__(self) -> str:
        return self.format()

    @property
    def head(self) -> tuple[int, ...]:
        return self.coeffs[: self.preperiod + 1]

    @property
    def block(self) -> tuple[int, ...]:
        return self.coeffs[self.preperiod + 1:]

    @property
    def zero_positions(self) -> tuple[int, ...]:
        """Indices j <= ell + p with c_j = 0."""
        return tuple(j for j, c in enumerate(self.coeffs) if c == 0)

    @property
    def zeros_in_block(self) -> bool:
        return any(c == 0 for c in self.block)


@dataclass(frozen=True)
class OverlapDescription:
    """The 2^m candidate overlap points sum_{j in zeros} a_j lambda^j over all
    sign choices a_j in {-1, +1}."""

    zero_positions: tuple[int, ...]
    points: tuple[complex, ...]


def coeff_at(f: RationalTypeSeries, j: int) -> int:
    """Coefficient c_j, following the periodic continuation beyond ell + p."""
    if j < 0:
        raise ValueError("coefficient index must be >= 0")
    ell, p = f.preperiod, f.period
    if j <= ell + p:
        return f.coeffs[j]
    return f.coeffs[ell + 1 + ((j - ell - 1) % p)]


def _power_sums(coeffs, lam: complex, power: complex = complex(1.0)) -> tuple[list[complex], complex]:
    """Partial sums of c_j * power * lambda^j over ``coeffs``, summed left to
    right with a running power, and the power after the last term.  Every
    scalar sum of coefficients against powers of lambda is taken here, so
    all of them agree bit for bit."""
    acc, sums = complex(0.0), []
    for c in coeffs:
        acc += c * power
        power *= lam
        sums.append(acc)
    return sums, power


def _taylor_sums(f: RationalTypeSeries, lam: complex, k: int) -> list[complex]:
    """The Taylor polynomials f_0(lambda), ..., f_k(lambda) of one running
    sum."""
    return _power_sums([coeff_at(f, j) for j in range(k + 1)], lam)[0]


def _check_pole(f: RationalTypeSeries, lam: complex) -> complex:
    den = 1.0 - lam**f.period
    if abs(den) < 1e-14:
        raise PoleAtUnity(f"lambda**{f.period} too close to 1 at lambda={lam}")
    return den


def rational_eval(f: RationalTypeSeries, lam: complex) -> complex:
    """Full series value f(lambda) via the closed form."""
    lam = complex(lam)
    den = _check_pole(f, lam)
    head, power = _power_sums(f.head, lam)
    block = _power_sums(f.block, lam, power)[0]
    return head[-1] + block[-1] / den


def derivative_eval(f: RationalTypeSeries, lam: complex) -> complex:
    """Derivative f'(lambda) of the closed form f = N / D, with N the
    numerator polynomial and D = 1 - lambda^p:
    f' = (N' D + N p lambda^(p-1)) / D^2, both polynomials by Horner's rule."""
    lam = complex(lam)
    den = _check_pole(f, lam)
    num, p = numerator_polynomial(f), f.period
    top = poly_derivative_eval(num, lam) * den + poly_eval(num, lam) * p * lam ** (p - 1)
    return top / den**2


def numerator_polynomial(f: RationalTypeSeries) -> list[int]:
    """Integer coefficients of (1 - z^p) * f(z); entries lie in {-2..+2}.

    Roots of f inside the unit disk are roots of this polynomial, which is
    what the Newton solver consumes.
    """
    ell, p = f.preperiod, f.period
    out = [0] * (ell + p + 1)
    for j in range(ell + 1):
        out[j] += f.coeffs[j]
        out[j + p] -= f.coeffs[j]
    for i, c in enumerate(f.block):
        out[ell + 1 + i] += c
    return out


def overlap_set(f: RationalTypeSeries, lam: complex) -> OverlapDescription:
    """All 2^m sign combinations sum a_j lambda^j over the zero-coefficient
    positions of f.  Requires every zero to sit in the preperiod; a zero in
    the periodic block would make the overlap infinite."""
    if f.zeros_in_block:
        raise ZerosInPeriod(f"series {f} has a zero coefficient in its periodic block")
    zeros = f.zero_positions
    lam = complex(lam)
    powers = [lam**j for j in zeros]
    points = []
    for signs in itertools.product((-1, 1), repeat=len(zeros)):
        points.append(sum((s * w for s, w in zip(signs, powers)), complex(0.0)))
    return OverlapDescription(zeros, tuple(points))
