"""Membership probes for the parameter loci.

A parameter lambda admits a vanishing series with coefficients c_0 = 1 and
c_j in {-1, 0, +1} (locus M) or {-1, +1} (locus M0) only if every truncation
satisfies the tail bound |f_k(lambda)| <= |lambda|^{k+1} / (1 - |lambda|).
The membership test runs a depth-first search over coefficient prefixes,
pruning a prefix as soon as the bound fails.  Escape (all prefixes dead) is
definitive; survival to the requested depth only says no truncation ruled
the parameter out, so it over-approximates the locus.

Escape depth is the first prefix length at which every prefix fails the
bound; it does not depend on traversal order.  The search therefore tries
two single descents before its complete walk.  The first takes, at each
level, the passing child nearest 0, which finds most survivors at once.
Near the real axis and at |lambda| above about 0.63 it often dies where a
survivor exists, so there a second descent from the root takes the passing
child whose remainder -f_k/lambda^(k+1) is likeliest to lie in the
attractor, by the attractor's second moments.  If both die, the
lexicographic walk expands the siblings the first descent left behind.
Every descent tests the walk's own children against the walk's own squared
bounds, a level is built only for a passing prefix, and 0 is returned only
for a prefix of full length that passed every test, so a surviving
parameter still reads 0 and an escaping one the same escape depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLambda

SET_M = "M"
SET_M0 = "M0"

#: Additive slack on the pruning bound so rounding never kills a prefix of a
#: genuine root series: soundness of escape matters more than a marginally
#: larger survivor set.
PRUNE_GUARD = 1e-15

#: The membership search's steered second descent runs only at |lambda|
#: above this modulus, one per locus: below it, it was never seen to find a
#: survivor that the first descent had missed (see ``_search``).
STEER_MIN_MODULUS = {SET_M: 0.62, SET_M0: 0.65}


@dataclass(frozen=True)
class MembershipResult:
    set_kind: str
    depth: int
    escaped_at: int  # 0 when survived, else the escape depth

    @property
    def survived(self) -> bool:
        return self.escaped_at == 0

    def __str__(self) -> str:
        state = "survived" if self.survived else f"escaped({self.escaped_at})"
        return f"{self.set_kind}:depth{self.depth}:{state}"


@dataclass(frozen=True)
class SurvivorList:
    prefixes: tuple[tuple[int, ...], ...]
    overflow: bool


@dataclass(frozen=True)
class EscapeGrid:
    """Row-major escape depths over a pixel window; row 0 has the largest
    imaginary part.  Value 0 means survived."""

    window: tuple[float, float, float, float]
    width: int
    height: int
    depth: int
    set_kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ValueError("values shape must be (height, width)")


def _digits(set_kind: str) -> tuple[int, ...]:
    if set_kind == SET_M:
        return (-1, 0, 1)
    if set_kind == SET_M0:
        return (-1, 1)
    raise ValueError(f"set must be {SET_M!r} or {SET_M0!r}")


def _check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if not (0.0 < abs(lam) < 1.0):
        raise InvalidLambda(f"need 0 < |lambda| < 1, got lambda={lam}")
    return lam


def _level(lam: complex, absl: float, R: float, guard: float, k: int) -> tuple[float, float, float]:
    """Table entry for prefix level k: the squared pruning bound on
    |f_k(lambda)| and the real and imaginary parts of lambda**k."""
    pw = lam**k
    return (absl ** (k + 1) * R + guard) ** 2, pw.real, pw.imag


def _search(lam: complex, digits: tuple[int, ...], depth: int) -> int:
    """Pruned DFS over coefficient prefixes.

    Returns 0 if some prefix of length ``depth`` passes the bound at every
    level; otherwise the first prefix length at which every prefix fails the
    bound.  The level table grows the first time the search reaches a level,
    so an early escape builds no deep level and the table's length is the
    escape depth.

    The search begins with one descent that follows, at each level, the
    passing child nearest 0 and pushes that level's other passing children;
    the nearest child passes whenever any child does.  If the descent reaches
    ``depth`` the parameter survived.  If it dies with siblings pushed,
    ``_steered_descent`` tries once more from the root, steered by the shape
    of the attractor; it pushes nothing and only extends the level table, so
    if it dies too the lexicographic loop pops the first descent's siblings as
    if it had not run, with ``n`` re-read from the table.  Every passing
    prefix is expanded by the loop once at most and every level is built only
    for a passing prefix, so the escape depth is that of any other complete
    traversal: only how soon a survivor turns up depends on the order.  The
    steered descent costs a few microseconds per call, on escapers too, so it
    runs only at |lambda| above the locus' ``STEER_MIN_MODULUS``, 0.62 on M
    and 0.65 on M0.  Over 60,000 random parameters (the sample of
    ``BENCH_20.json``), half on the upper half-annulus 0.45 < |lambda| < 0.75
    and half with the same real parts and 0 < Im lambda < 0.05, at depths 25,
    40 and 60, it found no survivor the first descent had missed below
    |lambda| = 0.63 on M or 0.65 on M0: on M0 it ran 741 times at
    0.61 < |lambda| < 0.65 and rescued no pixel.  On the README window
    (|lambda| <= 0.61) it ran at 7,062 of 20,200 pixels, found none and made
    the grid about 15% slower.  A trigger on the first descent's death level
    would not pay: the calls whose first descent dies before level 5 cost
    under 1% of a raster pass.

    A stack entry is the tuple (Re f, Im f, next level).  The children
    f +- lambda^k are formed part by part, which is bit for bit complex
    addition and subtraction; the 0 digit keeps the parent's value.
    """
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    guard = PRUNE_GUARD * R
    levels = [_level(lam, absl, R, guard, 0)]
    if 1.0 > levels[0][0]:
        return 1
    ternary = len(digits) == 3
    stack = []
    push = stack.append
    n = len(levels)  # also the prefix length of the descent's node
    vr = 1.0
    vi = 0.0
    while n < depth:
        bound, pr, pi = level = _level(lam, absl, R, guard, n)
        levels.append(level)
        n += 1
        ar = vr + pr
        ai = vi + pi
        br = vr - pr
        bi = vi - pi
        a = ar * ar + ai * ai
        b = br * br + bi * bi
        # an M0 prefix has no 0 child: an infinite modulus fails every bound
        z = vr * vr + vi * vi if ternary else math.inf
        # siblings pushed plus, 0, minus, as the loop below pushes them
        if a <= b and a <= z:
            if a > bound:
                break
            if z <= bound:
                push((vr, vi, n))
            if b <= bound:
                push((br, bi, n))
            vr = ar
            vi = ai
        elif z <= b:
            if z > bound:
                break
            if a <= bound:
                push((ar, ai, n))
            if b <= bound:
                push((br, bi, n))
        else:
            if b > bound:
                break
            if a <= bound:
                push((ar, ai, n))
            if z <= bound:
                push((vr, vi, n))
            vr = br
            vi = bi
    else:
        return 0  # the descent's prefix has length depth
    if (stack and absl > STEER_MIN_MODULUS[SET_M if ternary else SET_M0]
            and _steered_descent(lam, absl, R, guard, levels, ternary, depth)):
        return 0
    n = len(levels)
    pop = stack.pop
    while stack:
        vr, vi, k = pop()
        if k == n:
            if k == depth:  # a prefix of length depth survived
                return 0
            levels.append(_level(lam, absl, R, guard, k))
            n += 1
        bound, pr, pi = levels[k]
        k += 1
        # children pushed plus-first so the minus branch pops first (lex order)
        re = vr + pr
        im = vi + pi
        if re * re + im * im <= bound:
            push((re, im, k))
        if ternary and vr * vr + vi * vi <= bound:
            push((vr, vi, k))
        re = vr - pr
        im = vi - pi
        if re * re + im * im <= bound:
            push((re, im, k))
    return n


def _steered_descent(
    lam: complex, absl: float, R: float, guard: float, levels: list, ternary: bool, depth: int
) -> bool:
    """One descent from the root that takes, at each level, the passing child
    most likely to lie on a vanishing series; True if its prefix reaches
    length ``depth``.

    A prefix f_k extends to a vanishing series only if a = -f_k/lambda^(k+1)
    lies in A = {sum c_j lambda^j}.  Under i.i.d. uniform digits, A has
    E|a|^2 = v P and E a^2 = v Q with P = 1/(1-|lambda|^2), Q = 1/(1-lambda^2),
    and the descent takes the passing child whose a has the smallest
    Mahalanobis norm in that model, P|a|^2 - Re(conj(Q) a^2) up to the
    positive factor v/det.  A child's a is (a - d)/lambda, so over d in
    {+1, 0, -1} the norm is, up to the positive factor |lambda|^-4, a
    constant minus 2 d B plus d^2 C, with B = g1 Re a + g2 Im a, C = g1,
    g1 = P|lambda|^2 - Re(Q lambda^2) and g2 = -Im(Q lambda^2); v scales B
    and C alike and drops out.  The nonzero digit of B's sign beats the
    opposite one, and it beats 0 when |B| >= C/2.  At real lambda the form is
    degenerate (C = B = 0) and the order is plain +, 0, -; no determinant is
    divided by.

    The children are ``_search``'s expressions (d * pr is pr or -pr bit for
    bit) against its squared bounds, and a level is appended only when a
    passing prefix reaches the end of the table, so the steering orders work
    and never changes a verdict or the table ``_search`` goes on with.
    """
    ql = lam * lam  # not lam**2: each lam**k of a search builds a level
    w = ql / (1.0 - ql)
    g1 = absl * absl / (1.0 - absl * absl) - w.real
    g2 = -w.imag
    half = 0.5 * g1
    il = 1.0 / lam
    ilr = il.real
    ili = il.imag
    vr = 1.0
    vi = 0.0
    ar = -ilr  # a of the root prefix f_0 = 1
    ai = -ili
    for k in range(1, depth):
        if k == len(levels):
            levels.append(_level(lam, absl, R, guard, k))
        bound, pr, pi = levels[k]
        b = g1 * ar + g2 * ai
        d = 1.0 if b >= 0.0 else -1.0
        sr = vr + d * pr
        si = vi + d * pi
        z = vr * vr + vi * vi if ternary else math.inf
        if d * b < half and z <= bound:
            d = 0.0
        elif sr * sr + si * si <= bound:
            vr = sr
            vi = si
        elif z <= bound:
            d = 0.0
        else:
            d = -d
            vr += d * pr
            vi += d * pi
            if vr * vr + vi * vi > bound:
                return False
        ar -= d
        ar, ai = ar * ilr - ai * ili, ar * ili + ai * ilr
    return True


def membership(lam: complex, set_kind: str = SET_M, depth: int = 40) -> MembershipResult:
    """Pruned depth-first membership probe at a single parameter."""
    lam = _check_lambda(lam)
    digits = _digits(set_kind)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    escaped_at = _search(lam, digits, depth)
    return MembershipResult(set_kind, depth, escaped_at)


def survivors(
    lam: complex, set_kind: str = SET_M, depth: int = 20, cap: int = 1024
) -> SurvivorList:
    """All coefficient prefixes of length ``depth`` whose truncations pass
    the tail bound at every level, in lexicographic order, truncated at
    ``cap`` entries with an overflow flag."""
    lam = _check_lambda(lam)
    digits = _digits(set_kind)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    guard = PRUNE_GUARD * R
    levels = [_level(lam, absl, R, guard, 0)]
    if 1.0 > levels[0][0]:
        return SurvivorList((), False)
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []
    # an entry is (Re f, Im f, prefix length, last digit), as in _search
    stack = [(1.0, 0.0, 1, 1)]
    # one leaf past the cap is enough to know the list overflowed
    while stack and len(found) <= cap:
        vr, vi, k1, digit = stack.pop()
        prefix[k1 - 1:] = [digit]
        if k1 == depth:
            found.append(tuple(prefix))
            continue
        if k1 == len(levels):
            levels.append(_level(lam, absl, R, guard, k1))
        bound, pr, pi = levels[k1]
        # children pushed plus-first so the minus branch pops first (lex
        # order); d * pr is pr, -pr or a zero, so these are _search's bits
        for d in reversed(digits):
            re, im = vr + d * pr, vi + d * pi
            if re * re + im * im <= bound:
                stack.append((re, im, k1 + 1, d))
    return SurvivorList(tuple(found[:cap]), len(found) > cap)


def _pixel_centers(window, width, height):
    x0, y0, x1, y1 = window
    xs = x0 + (np.arange(width) + 0.5) * (x1 - x0) / width
    ys = y1 - (np.arange(height) + 0.5) * (y1 - y0) / height
    return xs, ys


def escape_grid(
    window: tuple[float, float, float, float],
    width: int,
    height: int,
    set_kind: str = SET_M,
    depth: int = 40,
    threads: int = 1,
) -> EscapeGrid:
    """Per-pixel membership over a window, evaluated at pixel centers.

    Pixels at lambda = 0 or |lambda| >= 1 cannot belong to the locus and are
    assigned escape depth 1 by convention.

    ``threads`` is accepted and ignored: the search holds the interpreter lock
    for nearly all its work, so threads never made it faster.  The keyword
    remains only because the benchmark's thread probe passes it, and is
    removed together with that probe.
    """
    x0, y0, x1, y1 = window
    if not (x0 < x1 and y0 < y1):
        raise ValueError("window must satisfy x0 < x1 and y0 < y1")
    if width < 1 or height < 1:
        raise ValueError("pixel counts must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    digits = _digits(set_kind)
    xs, ys = _pixel_centers(window, width, height)
    values = np.zeros((height, width), dtype=np.int32)
    xs = xs.tolist()
    for j, y in enumerate(ys.tolist()):
        row = []
        for x in xs:
            lam = complex(x, y)
            a = abs(lam)
            row.append(1 if a == 0.0 or a >= 1.0 else _search(lam, digits, depth))
        values[j] = row
    return EscapeGrid(tuple(window), width, height, depth, set_kind, values)
