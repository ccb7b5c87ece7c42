"""Symbolic words, contraction maps, instars, nodal disks, and attractor
sampling for the planar IFS {-1 + lz, lz, 1 + lz}.

A word w = a_0 ... a_k over {-1, 0, +1} indexes the node
nu_w = sum a_j lambda^j and the nodal disk of radius |lambda|^{k+1} * R
around it, R = (1 - |lambda|)^{-1}.  The union of nodal disks over all words
of a fixed length is the instar at that level; instars shrink onto the
attractor.  Enumeration is always lexicographic with minus < center < plus,
so outputs are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import LevelTooDeep
from .numerics import Disk
from .series import RationalTypeSeries, coeff_at

BINARY = "binary"
TERNARY = "ternary"

#: Deepest enumerable level per alphabet; keeps full enumerations at desk
#: scale (3^15 points is the worst case).
MAX_LEVEL = {BINARY: 22, TERNARY: 14}

_CHAR_TO_LETTER = {"-": -1, "O": 0, "+": 1}
_LETTER_TO_CHAR = {-1: "-", 0: "O", 1: "+"}


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

    @classmethod
    def parse(cls, text: str, binary: bool = False) -> "Word":
        try:
            letters = tuple(_CHAR_TO_LETTER[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"bad letter {exc.args[0]!r}; use -, O, +") from None
        return cls(letters, binary)

    def __str__(self) -> str:
        return "".join(_LETTER_TO_CHAR[a] for a in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class NodalDisk:
    """Node nu_w with its instar disk."""

    word: Word
    node: complex
    disk: Disk


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


def apply_map(letter: int, lam: complex, z: complex) -> complex:
    """The contraction s_a(z) = a + lambda*z for a in {-1, 0, +1}."""
    if letter not in (-1, 0, 1):
        raise ValueError("letter must lie in {-1, 0, +1}")
    return letter + lam * z


def node(word: Word, lam: complex) -> complex:
    """nu_w = sum a_j lambda^j for the word w = a_0 a_1 ..."""
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    acc = complex(0.0)
    power = complex(1.0)
    for a in word.letters:
        acc += a * power
        power *= lam
    return acc


def _grow_nodes(
    start: np.ndarray, lam: complex, level: int, signs: np.ndarray,
    power: complex = complex(1.0),
) -> np.ndarray:
    """Extend every start node by ``level`` more letters, lexicographically.

    ``power`` is the weight lambda^k of the last letter of the start words
    (length k+1), built by the same repeated multiplication as here, so
    growing a block of prefixes gives the bits of growing the whole level."""
    nodes = start
    for _ in range(level):
        power *= lam
        nodes = (nodes[:, None] + signs[None, :] * power).ravel()
    return nodes


def level_nodes(
    lam: complex, level: int, alphabet: str = TERNARY, threads: int = 1
) -> np.ndarray:
    """All nodes of words of length level+1, lexicographic order.

    Vectorized enumeration: extending every length-k prefix by each letter in
    order reproduces the lexicographic order of itertools.product.  The
    parallelism hint splits the top-level branches across threads; each
    branch runs the identical per-element fold, so the merged output is
    bitwise equal to the sequential one.
    """
    _check_level(level, alphabet)
    lam = complex(lam)
    signs = np.array(_signs(alphabet), dtype=np.complex128)
    if threads <= 1 or level == 0:
        return _grow_nodes(signs.copy(), lam, level, signs)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, signs.size)) as pool:
        branches = list(
            pool.map(
                lambda s: _grow_nodes(np.array([s]), lam, level, signs), signs
            )
        )
    return np.concatenate(branches)


def level_words(level: int, alphabet: str = TERNARY):
    """Words of length level+1 in lexicographic order (generator)."""
    _check_level(level, alphabet)
    signs = _signs(alphabet)
    binary = alphabet == BINARY
    for letters in itertools.product(signs, repeat=level + 1):
        yield Word(letters, binary)


def nodal_radius(lam: complex, level: int) -> float:
    """Radius |lambda|^{level+1} / (1 - |lambda|) of every level-n disk."""
    absl = abs(lam)
    return absl ** (level + 1) / (1.0 - absl)


def instar_disks(
    level: int, lam: complex, alphabet: str = TERNARY, threads: int = 1
) -> list[NodalDisk]:
    """All nodal disks of the level-n instar, lexicographic by word."""
    nodes = level_nodes(lam, level, alphabet, threads=threads)
    radius = nodal_radius(lam, level)
    return [
        NodalDisk(word, complex(center), Disk(complex(center), radius))
        for word, center in zip(level_words(level, alphabet), nodes)
    ]


def attractor_sample(
    lam: complex, depth: int, alphabet: str = BINARY, threads: int = 1
) -> np.ndarray:
    """Point sample of the attractor: all nodes of words of length depth+1.

    Each sample lies within |lambda|^{depth+1}/(1-|lambda|) of a true
    attractor point, and every attractor point is that close to a sample.
    """
    return level_nodes(lam, depth, alphabet, threads=threads)


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
    shallow_node = node(Word(word.letters[: ell + n + 1]), lam)
    deep_node = node(Word(word.letters[: deep + 1]), lam)
    scale = lam ** (-k * p)
    center_residual = abs(scale * (deep_node - center) - (shallow_node - center))
    radius_residual = abs(
        abs(scale) * nodal_radius(lam, deep) - nodal_radius(lam, ell + n)
    )
    return SelfSimilarityResidual(center_residual, radius_residual)
