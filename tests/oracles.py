"""Independent brute-force oracles used to validate the fast paths."""

import itertools

import numpy as np

from ifslab.ifs import level_nodes, nodal_radius
from ifslab.paramspace import PRUNE_GUARD


def hausdorff_bruteforce(E, F):
    """O(n*m) max-min Hausdorff distance between complex point sets."""
    E = np.asarray(E, dtype=complex)
    F = np.asarray(F, dtype=complex)
    d = np.abs(E[:, None] - F[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def exhaustive_verdict(lam, set_kind, depth):
    """Survival verdict by enumerating every coefficient sequence of the
    given depth (no pruning): some sequence must satisfy the tail bound at
    every truncation level."""
    digits = (-1, 0, 1) if set_kind == "M" else (-1, 1)
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    bounds = np.array([absl ** (k + 1) * R + PRUNE_GUARD * R for k in range(depth)])
    if 1.0 > bounds[0]:
        return False
    if depth == 1:
        return True
    choices = np.array(
        list(itertools.product(digits, repeat=depth - 1)), dtype=np.complex128
    )
    powers = np.array([lam**k for k in range(1, depth)])
    partials = np.cumsum(choices * powers[None, :], axis=1) + 1.0
    ok = np.all(np.abs(partials) <= bounds[None, 1:], axis=1)
    return bool(np.any(ok))


def taylor_naive(coeff_fn, lam, k):
    """Power-sum Taylor evaluation using an explicit coefficient callback."""
    return sum(coeff_fn(j) * lam**j for j in range(k + 1))


def instar_clearance_full(lam, n, alphabet, center, radius, znode):
    """Chain-disk clearance from the whole level-n node array at once: the
    smallest gap to an instar disk whose node is not within
    1e-9 (1 + |znode|) of the tangent node ``znode``."""
    nodes = level_nodes(lam, n, alphabet)
    keep = np.abs(nodes - znode) > 1e-9 * (1.0 + abs(znode))
    clearance = np.abs(nodes[keep] - center) - (radius + nodal_radius(lam, n))
    return float(np.min(clearance))
