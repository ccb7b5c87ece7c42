import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ifslab import DerivativeVanished, NoConvergence, newton_root, poly_eval
from ifslab.ifs import attractor_sample
from ifslab.numerics import poly_derivative_eval

from conftest import random_lambda
from oracles import hausdorff_bruteforce

REFERENCE_ROOT_1 = 0.5957439 + 0.2544259j


class TestPolyEval:
    def test_constant(self):
        assert poly_eval([1], 0.3 + 0.7j) == 1

    def test_hand_computed(self):
        assert poly_eval([1, 1, 1], 0.5) == pytest.approx(1.75)

    def test_near_root_at_reference_seed(self):
        assert abs(poly_eval([1, -2, 0, 2], REFERENCE_ROOT_1)) < 1e-5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            poly_eval([], 1.0)

    def test_matches_power_sum(self, rng):
        for _ in range(50):
            degree = int(rng.integers(1, 31))
            coeffs = rng.integers(-2, 3, size=degree + 1).tolist()
            z = random_lambda(rng, 0.0, 0.8)
            expected = sum(c * z**j for j, c in enumerate(coeffs))
            got = poly_eval(coeffs, z)
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_derivative_matches_power_sum(self, rng):
        for _ in range(20):
            degree = int(rng.integers(1, 20))
            coeffs = rng.integers(-2, 3, size=degree + 1).tolist()
            z = random_lambda(rng, 0.0, 0.8)
            expected = sum(j * c * z ** (j - 1) for j, c in enumerate(coeffs) if j)
            assert abs(poly_derivative_eval(coeffs, z) - expected) <= 1e-12 * (
                1.0 + abs(expected)
            )


class TestNewton:
    def test_exact_quadratic_root(self):
        assert newton_root([-1, 0, 1], 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_landmark1_numerator(self):
        root = newton_root([1, -2, 0, 2], 0.6 + 0.25j)
        assert abs(root - REFERENCE_ROOT_1) < 1e-6

    def test_landmark5_numerator(self):
        root = newton_root([1, 1, 1, -2], -0.37 + 0.52j)
        assert abs(root - (-0.366 + 0.520j)) < 1e-3

    def test_residual_tolerance_on_success(self):
        for coeffs, seed in [
            ([-1, 0, 1], 0.9),
            ([1, -2, 0, 2], 0.6 + 0.25j),
            ([1, 1, 1, -2], -0.37 + 0.52j),
        ]:
            root = newton_root(coeffs, seed)
            assert abs(poly_eval(coeffs, root)) <= 1e-13 * (
                1 + sum(abs(c) for c in coeffs)
            )

    def test_no_convergence_on_real_axis(self):
        # z^2 + 1 has no real roots and real seeds stay real
        with pytest.raises(NoConvergence):
            newton_root([1, 0, 1], 0.5)

    def test_derivative_vanished(self):
        with pytest.raises(DerivativeVanished):
            newton_root([1, 0, 1], 0.0)

    def test_constant_rejected(self):
        # zeros after the constant term leave it constant; a zero leading
        # coefficient of a nonconstant polynomial changes no bit of its root
        for coeffs in ([3], [1, 0], [1, 0, 0, 0]):
            with pytest.raises(ValueError):
                newton_root(coeffs, 1.0)
        assert newton_root([-1, 0, 1, 0], 0.9) == newton_root([-1, 0, 1], 0.9)


# ---------------------------------------------------------------------------
# The truncated Hausdorff distance d_r on finite point sets.  No program code
# measures similarity with it, so it lives beside its tests and the package
# does not depend on scipy.
# ---------------------------------------------------------------------------

#: Number of equally spaced samples representing a circle |z| = r.  Fixed so
#: truncated-distance probes are reproducible run to run.
BOUNDARY_SAMPLES = 256


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


class TestTruncateSet:
    def test_point_inside_kept(self):
        out = truncate_set([0j], 1.0)
        assert out.size == 1 + BOUNDARY_SAMPLES
        assert 0j in out

    def test_point_outside_dropped(self):
        out = truncate_set([3 + 0j], 1.0)
        assert out.size == BOUNDARY_SAMPLES
        assert np.allclose(np.abs(out), 1.0)

    def test_attractor_subset_filtered_by_modulus(self):
        lam = 1j / math.sqrt(2)
        samples = attractor_sample(lam, 5, "binary")  # 64 points
        assert samples.size == 64
        out = truncate_set(samples, 1.0)
        inside = samples[np.abs(samples) <= 1.0]
        assert out.size == inside.size + BOUNDARY_SAMPLES
        assert set(np.round(inside, 12)) <= set(np.round(out, 12))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            truncate_set([0j], 0.0)


class TestHausdorff:
    def test_identity_is_zero(self, rng):
        pts = [random_lambda(rng, 0.0, 2.0) for _ in range(40)]
        assert hausdorff_dr(pts, pts, 1.5) == 0.0

    def test_two_point_hand_computation(self):
        assert hausdorff_dr([0j], [0.1 + 0j], 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_symmetric_exactly(self, rng):
        for _ in range(10):
            E = [random_lambda(rng, 0.0, 2.0) for _ in range(25)]
            F = [random_lambda(rng, 0.0, 2.0) for _ in range(30)]
            assert hausdorff_dr(E, F, 1.0) == hausdorff_dr(F, E, 1.0)

    def test_against_bruteforce(self, rng):
        for _ in range(10):
            E = [random_lambda(rng, 0.0, 1.5) for _ in range(20)]
            F = [random_lambda(rng, 0.0, 1.5) for _ in range(17)]
            assert hausdorff_distance(E, F) == pytest.approx(
                hausdorff_bruteforce(E, F), rel=1e-12
            )

    def test_truncated_against_bruteforce(self, rng):
        for _ in range(5):
            E = [random_lambda(rng, 0.0, 1.5) for _ in range(20)]
            F = [random_lambda(rng, 0.0, 1.5) for _ in range(17)]
            got = hausdorff_dr(E, F, 1.0)
            want = hausdorff_bruteforce(truncate_set(E, 1.0), truncate_set(F, 1.0))
            assert got == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance([], [0j])


class TestSelfSimilarityZoom:
    def test_one_period_zoom_mismatch_decreases_with_depth(self, roots, fixtures):
        # the attractor is selfsimilar about its center with factor lam^-p:
        # zooming a depth-(d+p) sample by one period should match the
        # depth-(d+p) sample near the center better as d grows
        lam = roots[5]
        f = fixtures[5].series
        from ifslab import selfsim_center

        center = selfsim_center(f, lam)
        p = f.period
        dists = []
        for extra in range(3):
            depth = 8 + extra * p
            sample = attractor_sample(lam, depth, "ternary")
            zoomed = (sample - center) / lam**p
            dists.append(hausdorff_dr(zoomed, sample - center, 0.3))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.01
