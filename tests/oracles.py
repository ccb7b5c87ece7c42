"""Independent brute-force oracles used to validate the fast paths."""

import itertools

import numpy as np

from ifslab.certificate import ChainDisk, chain_disk
from ifslab.ifs import nodal_radius
from ifslab.paramspace import PRUNE_GUARD
from ifslab.series import taylor_eval


def grow_nodes_broadcast(
    start: np.ndarray, lam: complex, level: int, signs: np.ndarray,
    power: complex = complex(1.0),
) -> tuple[np.ndarray, complex]:
    """Extend every start node by ``level`` more letters, lexicographically.

    ``power`` is the weight lambda^k of the last letter of the start words
    (length k+1); the weight of the last letter of the grown words is
    returned with them.  Every node of a level is built by this one fold, so
    growing a block of prefixes gives the bits of growing the whole level."""
    nodes = start
    for _ in range(level):
        power *= lam
        out = np.empty(nodes.size * signs.size, np.complex128)
        np.add(nodes[:, None], signs[None, :] * power, out=out.reshape(nodes.size, -1))
        nodes = out
    return nodes, power


def level_nodes_broadcast(lam, level, alphabet):
    """All nodes of words of length level+1 in lexicographic order, from
    ``grow_nodes_broadcast``: the package's level fold as it was when it
    formed each level as one broadcast over the (prefix, letter) grid, kept
    verbatim so that the node bits of the package's fold are checked against
    another loop."""
    signs = np.array((-1, 0, 1) if alphabet == "ternary" else (-1, 1), dtype=np.complex128)
    return grow_nodes_broadcast(signs, complex(lam), level, signs)[0]


def level_chunks_broadcast(lam, level, alphabet, prefixes=64):
    """The nodes of ``level_nodes_broadcast(lam, level, alphabet)``, bit for
    bit and in order, as consecutive chunks: the first half of the levels is
    grown whole, then each run of ``prefixes`` of its nodes by the rest, with
    the same fold and running power, so that a deep level is never held
    whole."""
    signs = np.array((-1, 0, 1) if alphabet == "ternary" else (-1, 1), dtype=np.complex128)
    lam, top = complex(lam), level // 2
    heads, power = grow_nodes_broadcast(signs, lam, top, signs)
    for start in range(0, heads.size, prefixes):
        yield grow_nodes_broadcast(heads[start:start + prefixes], lam, level - top, signs,
                                   power)[0]


def hausdorff_bruteforce(E, F):
    """O(n*m) max-min Hausdorff distance between complex point sets."""
    E = np.asarray(E, dtype=complex)
    F = np.asarray(F, dtype=complex)
    d = np.abs(E[:, None] - F[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def exhaustive_verdict(lam, set_kind, depth):
    """Survival verdict by enumerating every coefficient sequence of the
    given depth (no pruning): some sequence must satisfy the tail bound at
    every truncation level.  The error model is ``membership``'s: partial
    sums start from 1 and add c_k lambda^k part by part, and the squared
    modulus re*re + im*im is compared with the squared bound."""
    digits = (-1, 0, 1) if set_kind == "M" else (-1, 1)
    bounds_sq = np.array(_prune_bounds_sq(abs(lam), depth))
    if 1.0 > bounds_sq[0]:
        return False
    if depth == 1:
        return True
    choices = np.array(list(itertools.product(digits, repeat=depth - 1)), dtype=float)
    powers = np.array([lam**k for k in range(1, depth)])
    first = np.ones((len(choices), 1))
    re = np.cumsum(np.hstack([first, choices * powers.real]), axis=1)[:, 1:]
    im = np.cumsum(np.hstack([np.zeros_like(first), choices * powers.imag]), axis=1)[:, 1:]
    ok = np.all(re * re + im * im <= bounds_sq[None, 1:], axis=1)
    return bool(np.any(ok))


def escape_depth_bruteforce(lam, set_kind, depth):
    """Escape depth with no pruning, level by level: every coefficient
    prefix of each length is formed, dead ones included, and a prefix is
    alive while its partial sums pass the squared tail bound at every level.
    0 if some prefix of length ``depth`` is alive, otherwise the first length
    at which none is."""
    digits = np.array((-1, 0, 1) if set_kind == "M" else (-1, 1), dtype=float)
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    re, im, alive = np.array([1.0]), np.array([0.0]), np.array([True])
    for k in range(depth):
        if k:
            pw = lam**k
            re = (re[:, None] + digits * pw.real).ravel()
            im = (im[:, None] + digits * pw.imag).ravel()
            alive = np.repeat(alive, len(digits))
        alive &= re * re + im * im <= (absl ** (k + 1) * R + PRUNE_GUARD * R) ** 2
        if not alive.any():
            return k + 1
    return 0


def _prune_bounds_sq(absl: float, depth: int) -> list[float]:
    R = 1.0 / (1.0 - absl)
    guard = PRUNE_GUARD * R
    return [(absl ** (k + 1) * R + guard) ** 2 for k in range(depth)]


def escape_depth_reference(
    lam: complex, digits: tuple[int, ...], depth: int, budget: int | None = None
) -> int | None:
    """Pruned DFS over coefficient prefixes; 0 if some prefix of length
    ``depth`` survives, otherwise the maximum prefix length reached.

    ``paramspace._search`` as it was when it built its whole bound and power
    lists up front and pushed (level, complex) pairs in lexicographic order: a
    drop-in reference for the lazy search.  With a ``budget``, None once that
    many prefixes have been expanded without an answer: near the real axis at
    |lambda| > 0.7 the lexicographic order can spend seconds before it reaches
    a survivor."""
    thr2 = _prune_bounds_sq(abs(lam), depth)
    if 1.0 > thr2[0]:
        return 1
    if depth == 1:
        return 0
    powers = [lam**k for k in range(depth)]
    ternary = len(digits) == 3
    max_len = 1
    stack = [(0, complex(1.0))]
    while stack:
        if budget is not None:
            if budget == 0:
                return None
            budget -= 1
        k, value = stack.pop()
        k1 = k + 1
        bound = thr2[k1]
        pw = powers[k1]
        last = k1 == depth - 1
        if k1 + 1 > max_len:
            max_len = k1 + 1
        # children pushed plus-first so the minus branch pops first (lex order)
        cand = (value + pw, value, value - pw) if ternary else (value + pw, value - pw)
        for child in cand:
            if child.real * child.real + child.imag * child.imag <= bound:
                if last:
                    return 0
                stack.append((k1, child))
    return max_len


def nearest_descent_depth(lam: complex, digits: tuple[int, ...], depth: int) -> int:
    """Length of the prefix built by always taking the child nearest 0, in
    ``paramspace._search``'s arithmetic: 0 if that prefix passes the bound
    at every level up to ``depth``, as ``_search`` reads a survivor, else the
    length of the first child that fails it (``depth`` when it fails at the
    last level)."""
    thr2 = _prune_bounds_sq(abs(lam), depth)
    value = complex(1.0)
    if 1.0 > thr2[0]:
        return 1
    for k in range(1, depth):
        pw = lam**k
        value = min(
            (value + d * pw for d in digits), key=lambda c: c.real * c.real + c.imag * c.imag
        )
        if value.real * value.real + value.imag * value.imag > thr2[k]:
            return k + 1
    return 0


def guided_descent_depth(lam: complex, digits: tuple[int, ...], depth: int) -> int:
    """Length of the prefix built by always taking, among the children that
    pass the bound, the one whose a = -f/lambda^(k+1) has the smallest
    Mahalanobis norm under the second moments E|a|^2 = 1/(1 - |lambda|^2),
    E a^2 = 1/(1 - lambda^2) of the attractor, in ``paramspace._search``'s
    arithmetic: 0 if that prefix passes the bound at every level up to
    ``depth``, as ``_search`` reads a survivor, else the length at which every
    child fails it (``depth`` when they fail at the last level).  The norm is
    the inverse covariance times its determinant, P|a|^2 - Re(conj(Q) a^2),
    and each a is divided out of its own prefix, not carried."""
    thr2 = _prune_bounds_sq(abs(lam), depth)
    if 1.0 > thr2[0]:
        return 1
    P = 1.0 / (1.0 - abs(lam) ** 2)
    Q = 1.0 / (1.0 - lam * lam)
    value = complex(1.0)
    for k in range(1, depth):
        pw = lam**k
        passing = [
            c for c in (value + d * pw for d in digits)
            if c.real * c.real + c.imag * c.imag <= thr2[k]
        ]
        if not passing:
            return k + 1
        scale = lam ** (k + 1)
        value = min(passing, key=lambda c: P * abs(c / scale) ** 2
                    - (Q.conjugate() * (c / scale) ** 2).real)
    return 0


def survivors_bruteforce(lam, set_kind, depth):
    """Every coefficient prefix of the given length, in lexicographic order,
    whose partial sums pass the squared tail bound at every truncation level:
    the filter of ``paramspace.survivors`` applied to all prefixes, with no
    pruning and no cap."""
    digits = (-1, 0, 1) if set_kind == "M" else (-1, 1)
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    bounds_sq = [(absl ** (k + 1) * R + PRUNE_GUARD * R) ** 2 for k in range(depth)]
    if 1.0 > bounds_sq[0]:
        return ()
    powers = [lam**k for k in range(depth)]
    found = []
    for tail in itertools.product(digits, repeat=depth - 1):
        prefix = (1,) + tail
        value = complex(1.0)
        for k in range(1, depth):
            value = value + prefix[k] * powers[k]
            re, im = value.real, value.imag
            if re * re + im * im > bounds_sq[k]:
                break
        else:
            found.append(prefix)
    return tuple(found)


def taylor_naive(coeff_fn, lam, k):
    """Power-sum Taylor evaluation using an explicit coefficient callback."""
    return sum(coeff_fn(j) * lam**j for j in range(k + 1))


def derivative_closed_form(f, lam):
    """f'(lambda) by differentiating head and block of the closed form term
    by term, each power taken with its own ``**``."""
    lam = complex(lam)
    ell, p = f.preperiod, f.period
    den = 1.0 - lam**p
    head_d = sum(j * f.coeffs[j] * lam ** (j - 1) for j in range(1, ell + 1))
    block = complex(0.0)
    block_d = complex(0.0)
    for i, c in enumerate(f.block):
        j = ell + 1 + i
        block += c * lam**j
        block_d += j * c * lam ** (j - 1)
    return head_d + (block_d * den + block * p * lam ** (p - 1)) / den**2


def chain_disk_taylor(f, lam, n):
    """Chain disk n from its own two Taylor sums f_ell and f_{ell+1+n}, each
    summed from j = 0: the per-disk formula, quadratic in the chain length
    when every disk is built this way."""
    ell = f.preperiod
    fl = taylor_eval(f, lam, ell)
    fn = taylor_eval(f, lam, ell + 1 + n)
    scale = lam ** (ell + 1)
    return ChainDisk(n, -(fn + fl) / scale, 2.0 * abs(fn) / abs(scale) - nodal_radius(lam, n))


def instar_clearance_full(lam, n, alphabet, center, radius, znode):
    """Chain-disk clearance from the whole level-n node array at once: the
    smallest gap to an instar disk whose node is not within
    1e-9 (1 + |znode|) of the tangent node ``znode``."""
    nodes = level_nodes_broadcast(lam, n, alphabet)
    keep = np.abs(nodes - znode) > 1e-9 * (1.0 + abs(znode))
    clearance = np.abs(nodes[keep] - center) - (radius + nodal_radius(lam, n))
    return float(np.min(clearance))


def attractor_points_full(rgb, samples, window):
    """Paint every attractor sample black from the whole sample array at
    once: the rasterization expression before the raster was streamed."""
    height, width, _ = rgb.shape
    x0, y0, x1, y1 = window
    cols = np.floor((samples.real - x0) * width / (x1 - x0)).astype(int)
    rows = np.floor((y1 - samples.imag) * height / (y1 - y0)).astype(int)
    keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    rgb[rows[keep], cols[keep]] = (0, 0, 0)


def draw_circle(rgb, window, cx, cy, radius, color):
    """One parametric circle outline per call, as drawn before circles were
    batched."""
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


def attractor_ppm(lam, depth, alphabet, window, width, height,
                  overlay="none", level=3, series=None, periods=2):
    """The PPM bytes of ``ifslab attractor`` for an already refined ``lam``,
    built from the whole level of the broadcast fold and one ``draw_circle``
    call per circle."""
    if window is None:
        bound = 1.0 / (1.0 - abs(lam))
        window = (-bound, -bound, bound, bound)
    rgb = np.full((height, width, 3), 255, dtype=np.uint8)
    attractor_points_full(rgb, level_nodes_broadcast(lam, depth, alphabet), window)
    if overlay == "instar":
        radius = nodal_radius(lam, level)
        for center in level_nodes_broadcast(lam, level, alphabet):
            draw_circle(rgb, window, center.real, center.imag, radius, (160, 160, 160))
    elif overlay == "chain":
        for n in range(periods * series.period):
            disk = chain_disk(series, lam, n)
            if disk.radius > 0:
                draw_circle(rgb, window, disk.center.real, disk.center.imag,
                            disk.radius, (0, 160, 0))
    return f"P6\n{width} {height}\n255\n".encode("ascii") + rgb.tobytes()
