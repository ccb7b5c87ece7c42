"""Scalar complex numerics: polynomial evaluation, Newton roots, and the
truncated Hausdorff distance d_r on finite point sets.

All arithmetic is plain binary64.  Point sets are numpy arrays of complex128;
anything array-like is accepted and converted.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DerivativeVanished, NoConvergence

#: Number of equally spaced samples representing a circle |z| = r.  Fixed so
#: truncated-distance probes are reproducible run to run.
BOUNDARY_SAMPLES = 256

NEWTON_MAX_ITER = 100


def poly_eval(coeffs, z: complex) -> complex:
    """Evaluate sum(coeffs[j] * z**j) by Horner's rule.

    coeffs[0] is the constant term.
    """
    if len(coeffs) == 0:
        raise ValueError("empty coefficient list")
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_derivative_eval(coeffs, z: complex) -> complex:
    """Evaluate the derivative of sum(coeffs[j] * z**j) at z."""
    acc = complex(0.0)
    for j in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + j * coeffs[j]
    return acc


def newton_root(coeffs, seed: complex) -> complex:
    """Newton iteration for a root of the polynomial with the given integer
    coefficients, starting from ``seed``.

    Plain iteration, no line search; callers supply seeds inside the basin.
    Returns z with |p(z)| <= 1e-13 * (1 + sum|coeffs|) or raises
    NoConvergence after 100 steps.  Raises DerivativeVanished when the
    iteration hits a critical point.
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must be nonconstant")
    tol = 1e-13 * (1.0 + sum(abs(c) for c in coeffs))
    z = complex(seed)
    for _ in range(NEWTON_MAX_ITER):
        value = poly_eval(coeffs, z)
        if abs(value) <= tol:
            return z
        slope = poly_derivative_eval(coeffs, z)
        if abs(slope) < 1e-300:
            raise DerivativeVanished(f"|p'({z})| < 1e-300")
        z = z - value / slope
    raise NoConvergence(
        f"no root within tolerance {tol:g} after {NEWTON_MAX_ITER} iterations "
        f"from seed {seed}"
    )


def as_point_set(points) -> np.ndarray:
    """Coerce an array-like of complex numbers to a 1-d complex128 array."""
    arr = np.asarray(points, dtype=np.complex128).ravel()
    if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("point set contains non-finite entries")
    return arr


def circle_sample(radius: float, samples: int = BOUNDARY_SAMPLES) -> np.ndarray:
    """Deterministic uniform sample of the circle |z| = radius."""
    angles = 2.0 * np.pi * np.arange(samples) / samples
    return radius * np.exp(1j * angles)


def truncate_set(points, r: float) -> np.ndarray:
    """Restrict a point set to the closed disk of radius r about 0 and adjoin
    the sampled boundary circle.

    The boundary sample keeps the result nonempty, so truncated distances are
    always defined.
    """
    if not (r > 0.0):
        raise ValueError("truncation radius must be positive")
    pts = as_point_set(points)
    inside = pts[np.abs(pts) <= r]
    return np.concatenate([inside, circle_sample(r)])


def _directed_max_min(src: np.ndarray, dst: np.ndarray) -> float:
    tree = cKDTree(np.column_stack([dst.real, dst.imag]))
    dists, _ = tree.query(np.column_stack([src.real, src.imag]))
    return float(np.max(dists))


def hausdorff_distance(E, F) -> float:
    """Hausdorff distance between two nonempty finite point sets."""
    e = as_point_set(E)
    f = as_point_set(F)
    if e.size == 0 or f.size == 0:
        raise ValueError("point sets must be nonempty")
    return max(_directed_max_min(e, f), _directed_max_min(f, e))


def hausdorff_dr(E, F, r: float) -> float:
    """Truncated Hausdorff distance: Hausdorff distance after clipping both
    sets to the disk of radius r and adjoining its boundary circle."""
    return hausdorff_distance(truncate_set(E, r), truncate_set(F, r))
