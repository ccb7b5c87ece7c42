"""Nodes, instars and attractor sampling for the planar IFS
{-1 + lz, lz, 1 + lz}.

A word w = a_0 ... a_k over {-1, 0, +1} indexes the node
nu_w = sum a_j lambda^j.  The instar at level k is the union of the disks of
one radius |lambda|^{k+1} * R, R = (1 - |lambda|)^{-1} (``nodal_radius``),
around the nodes of all words of length k+1 (``level_nodes``); instars
shrink onto the attractor.  Enumeration is always lexicographic with
minus < center < plus, so outputs are deterministic.  Whole levels
(``level_nodes``) and blocks of k^b nodes of a level, for k letters
(``level_blocks``), are built by one fold over a table of letter weights,
so a node has the same bits either way.  The blocks come from a staged
walk: each grows the last few levels from a long run of prefixes, and the
runs divide the blocks of the walk of a shallower level.  Every block is
an array of its own.  The blocks stream, flat in memory, the certificate's
clearance, the centres of the command line's instar circles and the points
of its numpy image (``cli._numpy_image``); its compiled image
(``_native.attractor_image``) walks the same weight table in the fold's order.
"""

from __future__ import annotations

import numpy as np

from .errors import LevelTooDeep

BINARY = "binary"
TERNARY = "ternary"

#: Deepest level of every walk per alphabet (attractor points, instar overlay,
#: certificate clearance): 3^15 or 2^23 nodes, 230 or 134 MB as one
#: ``level_nodes`` array; the block walks keep their memory flat.
MAX_LEVEL = {BINARY: 22, TERNARY: 14}


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


#: Nodes per block of the level walks, whose blocks hold k^b nodes for the
#: k letters and the largest such b (``_levels_within``): 3^9 ternary, 2^14
#: binary.  Besides its last block, which the caller may keep, a walk holds
#: under 2.5 arrays of this many nodes (``_level_blocks``).  Ternary blocks
#: of 3^8 made the certificate at p = 7 slower, 39 -> 47 ms on a 2-core
#: x86_64 machine.
_BLOCK_NODES = 3 ** 9

#: Bound on the nodes that each stage of ``_level_blocks`` grows from one
#: prefix: 4 binary or 2 ternary levels.  More levels mean fewer stages but
#: shorter runs of prefixes; these were the fastest on a 2-core x86_64
#: machine with numpy 2.4.
_STAGE_NODES = 16


def _levels_within(k: int, nodes: int) -> int:
    """The largest b >= 1 with k^b <= nodes (1 when k > nodes)."""
    b = 1
    while k ** (b + 1) <= nodes:
        b += 1
    return b


def _letter_weights(lam: complex, level: int, alphabet: str) -> np.ndarray:
    """The (level + 1) x k complex table of a walk: row 0 the k letters of
    ``alphabet``, row j = 1..level their weights ``letters * lambda^j``, with
    lambda^j the running product ``power *= lam``; the level is checked
    first.  A walk builds this table once, so no block recomputes a weight,
    and the attractor kernel reads it as (re, im) pairs."""
    _check_level(level, alphabet)
    table = np.array([_signs(alphabet)] * (level + 1), np.complex128)
    power = complex(1.0)
    for row in table[1:]:
        power *= lam
        np.multiply(table[0], power, out=row)
    return table


def _fold(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Extend every node by one letter per row of ``weights``.  Every node
    of a level is built by this one fold, so growing a block of prefixes
    gives the bits of growing the whole level.

    A level is a new (prefix, letter) grid of the sums node + weight, filled
    one letter's column at a time: one pass over the prefix array each,
    where a broadcast over the grid would run inner loops as short as the
    alphabet, with the same bits.  Node i of the grown level is prefix
    i // k plus letter i % k, for k letters: lexicographic order."""
    for steps in weights:
        grid = np.empty((nodes.size, steps.size), np.complex128)
        for j, step in enumerate(steps):
            np.add(nodes, step, out=grid[:, j])
        nodes = grid.reshape(-1)
    return nodes


def level_nodes(
    lam: complex, level: int, alphabet: str = TERNARY, threads: int = 1
) -> np.ndarray:
    """All nodes of words of length level+1 in the lexicographic order of
    itertools.product, grown whole by ``_fold``.

    ``threads`` is accepted and ignored: the fold holds the interpreter lock
    for nearly all its work, so threads never made it faster.  The keyword
    remains only because the benchmark's thread probe passes it, and is
    removed together with that probe.
    """
    table = _letter_weights(complex(lam), level, alphabet)
    return _fold(table[0], table[1:])


def _level_blocks(table: np.ndarray, b: int | None = None):
    """Nodes sum a_j lambda^j of all words a_0..a_level over the k letters
    of a table of ``_letter_weights``, in lexicographic order, as
    consecutive blocks of k^b nodes (by default the largest k^b within
    _BLOCK_NODES).

    A level of at most k^b nodes is grown whole.  A deeper one is walked in
    stages: each block grows the last m levels (k^m within _STAGE_NODES, at
    most b) by the same fold and weights from a run of k^(b-m) prefixes.
    The walk of the level m above yields them in blocks of its own, one
    power of k smaller (at least k), which the runs divide.  So every block
    has one size, no fold below the top starts from a handful of prefixes,
    every node has the bits of ``level_nodes``, and the stages above hold
    half a block between them for a ternary walk, one block for a binary
    one."""
    level, k = table.shape[0] - 1, table.shape[1]
    if b is None:
        b = _levels_within(k, _BLOCK_NODES)
    if level < b:
        yield _fold(table[0], table[1:])
        return
    m = min(_levels_within(k, _STAGE_NODES), b)
    run = k ** (b - m)
    for block in _level_blocks(table[:-m], max(b - 1, 1)):
        for s in range(0, block.size, run):
            yield _fold(block[s:s + run], table[-m:])


def level_blocks(lam: complex, level: int, alphabet: str = TERNARY):
    """The nodes of ``level_nodes(lam, level, alphabet)``, bit for bit and in
    the same order, as consecutive blocks of one size, at most
    ``_BLOCK_NODES`` (``_level_blocks``).

    The level is checked here, before the first block is asked for."""
    return _level_blocks(_letter_weights(complex(lam), level, alphabet))


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
