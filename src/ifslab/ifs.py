"""Words, nodes, instars and attractor sampling for the planar IFS
{-1 + lz, lz, 1 + lz}.

A word w = a_0 ... a_k over {-1, 0, +1} indexes the node
nu_w = sum a_j lambda^j.  The instar at level k is the union of the disks of
one radius |lambda|^{k+1} * R, R = (1 - |lambda|)^{-1} (``nodal_radius``),
around the nodes of all words of length k+1 (``level_nodes``); instars
shrink onto the attractor.  Enumeration is always lexicographic with
minus < center < plus, so outputs are deterministic.  Whole levels
(``level_nodes``) and bounded blocks of a level (``level_blocks``) are built
by one fold, so a node has the same bits either way.  The blocks stream both
the certificate's searches and the attractor raster of the command line,
whose memory is therefore flat in the level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelTooDeep
from .series import RationalTypeSeries, _power_sums, coeff_at

BINARY = "binary"
TERNARY = "ternary"

#: Deepest enumerable level per alphabet; keeps full enumerations at desk
#: scale (3^15 points is the worst case).
MAX_LEVEL = {BINARY: 22, TERNARY: 14}


@dataclass(frozen=True)
class Word:
    """Finite itinerary over {-1, 0, +1}; binary words exclude 0."""

    letters: tuple[int, ...]
    binary: bool = False

    def __post_init__(self):
        if any(a not in (-1, 0, 1) for a in self.letters):
            raise ValueError("letters must lie in {-1, 0, +1}")
        if self.binary and any(a == 0 for a in self.letters):
            raise ValueError("binary word contains the center letter")

    def __len__(self) -> int:
        return len(self.letters)


def _signs(alphabet: str) -> tuple[int, ...]:
    if alphabet == BINARY:
        return (-1, 1)
    if alphabet == TERNARY:
        return (-1, 0, 1)
    raise ValueError(f"alphabet must be {BINARY!r} or {TERNARY!r}")


def _check_level(level: int, alphabet: str) -> None:
    _signs(alphabet)
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_LEVEL[alphabet]:
        raise LevelTooDeep(
            f"level {level} exceeds guard {MAX_LEVEL[alphabet]} for {alphabet}"
        )


def node(word: Word, lam: complex) -> complex:
    """nu_w = sum a_j lambda^j for the word w = a_0 a_1 ..."""
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    return _power_sums(word.letters, lam)[0][-1]


#: Nodes per block of ``_level_blocks``; its working memory is a few arrays
#: of this many complex values at any level.
_BLOCK_NODES = 1 << 14


def _grow_nodes(
    start: np.ndarray, lam: complex, level: int, signs: np.ndarray,
    power: complex = complex(1.0), scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, complex]:
    """Extend every start node by ``level`` more letters, lexicographically.

    ``power`` is the weight lambda^k of the last letter of the start words
    (length k+1); the weight of the last letter of the grown words is
    returned with them.  Every node of a level is built by this one fold, so
    growing a block of prefixes gives the bits of growing the whole level.
    With ``scratch``, a pair of arrays large enough for the last level, the
    grown levels alternate between the two instead of new arrays.

    A level is the (prefix, letter) grid of the sums node + letter * power,
    filled one letter's column at a time: each column is one pass over the
    prefix array, where a broadcast over the grid would run an inner loop
    only as long as the alphabet.  Both add the same operands, so the bits
    are the same.  Node i of the grown level is prefix i // size(signs) plus
    letter i % size(signs), so the order is lexicographic."""
    nodes = start
    for i in range(level):
        power *= lam
        steps = signs * power
        size = nodes.size * signs.size
        out = np.empty(size, np.complex128) if scratch is None else scratch[i % 2][:size]
        grid = out.reshape(nodes.size, signs.size)
        for j, step in enumerate(steps):
            np.add(nodes, step, out=grid[:, j])
        nodes = out
    return nodes, power


def level_nodes(
    lam: complex, level: int, alphabet: str = TERNARY, threads: int = 1
) -> np.ndarray:
    """All nodes of words of length level+1, lexicographic order.

    Vectorized enumeration by ``_grow_nodes``: extending every length-k
    prefix by each letter in order, one letter's column of the (prefix,
    letter) grid at a time, reproduces the lexicographic order of
    itertools.product.

    ``threads`` is accepted and ignored: the fold holds the interpreter lock
    for nearly all its work, so threads never made it faster.  The keyword
    remains only because the benchmark's thread probe passes it, and is
    removed together with that probe.
    """
    _check_level(level, alphabet)
    signs = np.array(_signs(alphabet), dtype=np.complex128)
    return _grow_nodes(signs, complex(lam), level, signs)[0]


def _level_blocks(lam: complex, level: int, signs: np.ndarray):
    """Nodes sum a_j lambda^j of all words a_0..a_level over ``signs``, in
    lexicographic order, as consecutive blocks of at most _BLOCK_NODES.

    The top levels are grown once; each block grows a run of those prefixes
    to the leaves with the same fold, so every node has the bits it has in
    ``level_nodes``.  A block's levels are grown in two scratch arrays
    allocated once per walk, so a block is valid until the next one is
    drawn: new arrays at every block made the C heap shrink and grow again."""
    k = signs.size
    depth = 0
    while k ** (level - depth) > _BLOCK_NODES:
        depth += 1
    prefixes, power = _grow_nodes(signs, lam, depth, signs)
    step = _BLOCK_NODES // k ** (level - depth)
    size = min(step, prefixes.size) * k ** (level - depth)
    scratch = (np.empty(size, np.complex128), np.empty(size, np.complex128))
    for start in range(0, prefixes.size, step):
        yield _grow_nodes(
            prefixes[start:start + step], lam, level - depth, signs, power, scratch
        )[0]


def level_blocks(lam: complex, level: int, alphabet: str = TERNARY):
    """The nodes of ``level_nodes(lam, level, alphabet)``, bit for bit and in
    the same order, as consecutive blocks of at most ``_BLOCK_NODES``.  A
    block is overwritten by the next one: copy it to keep it.

    The level is checked here, before the first block is asked for."""
    _check_level(level, alphabet)
    signs = np.array(_signs(alphabet), dtype=np.complex128)
    return _level_blocks(complex(lam), level, signs)


def nodal_radius(lam: complex, level: int) -> float:
    """Radius |lambda|^{level+1} / (1 - |lambda|) of every level-n disk."""
    absl = abs(lam)
    return absl ** (level + 1) / (1.0 - absl)


def attractor_sample(lam: complex, depth: int, alphabet: str = BINARY) -> np.ndarray:
    """Point sample of the attractor: all nodes of words of length depth+1.

    Each sample lies within |lambda|^{depth+1}/(1-|lambda|) of a true
    attractor point, and every attractor point is that close to a sample.
    """
    return level_nodes(lam, depth, alphabet)


def overlap_itinerary(f: RationalTypeSeries, signs=(), length: int = 32) -> Word:
    """Binary itinerary consistent with f: a_j = c_j wherever c_j != 0, and
    the given +-1 choices at the zero positions (in increasing index order).

    Zero positions beyond len(signs) are rejected; zero positions inside the
    periodic block never occur for series with finite overlap.
    """
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("zero-position signs must be +-1")
    letters = []
    used = 0
    for j in range(length):
        c = coeff_at(f, j)
        if c != 0:
            letters.append(c)
        else:
            if used >= len(signs):
                raise ValueError(
                    f"series has a zero coefficient at index {j} but only "
                    f"{len(signs)} sign choices were supplied"
                )
            letters.append(signs[used])
            used += 1
    return Word(tuple(letters), binary=True)


@dataclass(frozen=True)
class SelfSimilarityResidual:
    """Deviation of one word-prefix pair from exact lambda^{-kp} similarity
    about a common point."""

    center_residual: float
    radius_residual: float


def selfsim_residuals(
    f: RationalTypeSeries,
    lam: complex,
    center: complex,
    word: Word,
    n: int,
    k: int,
) -> SelfSimilarityResidual:
    """Measure how exactly the nodal data of ``word`` truncated at levels
    ell+n and ell+n+k*p scale into each other about ``center`` with factor
    lambda^{-kp}.

    center_residual = |lambda^{-kp} (nu_{w|ell+n+kp} - center) - (nu_{w|ell+n} - center)|
    radius_residual compares the correspondingly scaled nodal-disk radii.

    Both vanish (to rounding) when lambda is a root of f, the word agrees
    with f's nonzero coefficients, and ``center`` is the induced overlap
    point.
    """
    if k < 0 or n < 0:
        raise ValueError("need n >= 0 and k >= 0")
    ell, p = f.preperiod, f.period
    deep = ell + n + k * p
    if len(word) < deep + 1:
        raise ValueError(f"word of length {len(word)} too short for level {deep}")
    for j in range(deep + 1):
        c = coeff_at(f, j)
        if c != 0 and word.letters[j] != c:
            raise ValueError(
                f"word disagrees with series coefficient at index {j}"
            )
    lam = complex(lam)
    nodes = _power_sums(word.letters[: deep + 1], lam)[0]
    shallow_node, deep_node = nodes[ell + n], nodes[deep]
    scale = lam ** (-k * p)
    center_residual = abs(scale * (deep_node - center) - (shallow_node - center))
    radius_residual = abs(
        abs(scale) * nodal_radius(lam, deep) - nodal_radius(lam, ell + n)
    )
    return SelfSimilarityResidual(center_residual, radius_residual)
