"""Shared fixtures: seeded RNG for randomized property tests and
session-scoped landmark roots."""

import numpy as np
import pytest

from ifslab import (
    IfsLabError,
    RationalTypeSeries,
    landmark,
    landmark_root,
    newton_root,
    numerator_polynomial,
    rational_eval,
)
from ifslab.certificate import ROOT_TOL

DEFAULT_RNG_SEED = 20250809


def pytest_addoption(parser):
    parser.addoption(
        "--seed-rng",
        type=int,
        default=DEFAULT_RNG_SEED,
        help="seed for randomized property tests (fixed default for CI)",
    )


@pytest.fixture
def rng(request):
    return np.random.default_rng(request.config.getoption("--seed-rng"))


@pytest.fixture(scope="session")
def roots():
    """Newton-refined roots of all six landmark parameters."""
    return {i: landmark_root(i) for i in range(1, 7)}


@pytest.fixture(scope="session")
def fixtures():
    """Landmark fixture data keyed by id."""
    return {i: landmark(i) for i in range(1, 7)}


def random_lambda(rng, lo=0.3, hi=0.7):
    """Uniform modulus in [lo, hi], uniform argument."""
    modulus = rng.uniform(lo, hi)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return modulus * complex(np.cos(angle), np.sin(angle))


def random_rooted_series(rng, period):
    """A random series of the given minimal period with a preperiod of at
    most 2, and a Newton-refined root of it in 0.05 < |lambda| < 0.95
    (real or not, inside the 2**-0.5 bound or not)."""
    while True:
        head = [1] + [int(c) for c in rng.integers(-1, 2, int(rng.integers(0, 3)))]
        block = [int(c) for c in rng.integers(-1, 2, period)]
        try:
            f = RationalTypeSeries.from_parts(head, block)
        except ValueError:
            continue
        if f.period != period:
            continue
        poly = numerator_polynomial(f)
        roots = [z for z in np.roots(poly[::-1]) if 0.05 < abs(z) < 0.95]
        if not roots:
            continue
        try:
            lam = newton_root(poly, complex(roots[int(rng.integers(len(roots)))]))
        except IfsLabError:
            continue
        if 0.0 < abs(lam) < 1.0 and abs(rational_eval(f, lam)) < ROOT_TOL:
            return f, lam
