"""Scalar complex numerics: polynomial evaluation and Newton roots.

All arithmetic is plain binary64 on Python complex scalars.
"""

from __future__ import annotations

from .errors import DerivativeVanished, NoConvergence

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
    iteration hits a critical point, and ValueError for a constant
    polynomial: fewer than two coefficients, or all but the first zero.
    """
    if len(coeffs) < 2 or not any(coeffs[1:]):
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
