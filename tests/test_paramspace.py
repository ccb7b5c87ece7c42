import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ifslab import (
    InvalidLambda,
    escape_grid,
    membership,
    paramspace,
    survivors,
)

from conftest import random_lambda
from oracles import (
    escape_depth_bruteforce,
    escape_depth_reference,
    exhaustive_verdict,
    guided_descent_depth,
    nearest_descent_depth,
    survivors_bruteforce,
)


class _RecordedLambda(complex):
    """A parameter that records every exponent it is raised to."""

    def __pow__(self, k):
        self.exponents.append(k)
        return complex(self) ** k


class TestMembership:
    @pytest.mark.parametrize("x,expect_survive", [(0.45, False), (0.49, False),
                                                  (0.51, True), (0.6, True)])
    def test_real_spike_anchors(self, x, expect_survive):
        result = membership(complex(x, 0.0), "M", 40)
        assert result.survived == expect_survive

    def test_invalid_lambda(self):
        for lam in (0j, 1.0 + 0j, 1.2 + 0.1j):
            with pytest.raises(InvalidLambda):
                membership(lam, "M", 10)

    def test_bad_set_kind(self):
        with pytest.raises(ValueError):
            membership(0.5 + 0.1j, "X", 10)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            membership(0.5 + 0.1j, "M", 0)

    def test_escape_depth_at_least_one(self):
        result = membership(0.01 + 0.01j, "M", 10)
        assert not result.survived
        assert result.escaped_at == 1

    def test_matches_exhaustive_at_fixed_point(self):
        lam = 0.3 + 0.1j
        got = membership(lam, "M", 10).survived
        assert got == exhaustive_verdict(lam, "M", 10)

    def test_pruning_sound_on_random_sample(self, rng):
        for _ in range(25):
            lam = random_lambda(rng)
            for kind in ("M", "M0"):
                assert membership(lam, kind, 10).survived == exhaustive_verdict(
                    lam, kind, 10
                )

    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    def test_escape_depth_equals_unpruned_oracle(self, set_kind):
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(40):
            lam = random_lambda(rng, 0.45, 0.85)
            for depth in range(1, 13):
                escaped_at = membership(lam, set_kind, depth).escaped_at
                assert escaped_at == escape_depth_bruteforce(lam, set_kind, depth)
                seen.add(escaped_at)
        assert 0 in seen and len(seen) >= 4

    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    @pytest.mark.parametrize("value,escape", [(0.3 + 0.2j, 1), (0.52 + 0.04j, 5)])
    def test_search_builds_no_level_past_its_escape_depth(self, set_kind, value, escape):
        lam = _RecordedLambda(value)
        lam.exponents = []
        assert paramspace._search(lam, paramspace._digits(set_kind), 1024) == escape
        # one lam**k per level built, none past the escape depth
        assert lam.exponents == list(range(escape))

    def test_monotonic_escape_depth(self, rng):
        for _ in range(20):
            lam = random_lambda(rng)
            base = membership(lam, "M", 12)
            if base.survived:
                continue
            e = base.escaped_at
            for deeper in (e, e + 1, e + 7, 40):
                again = membership(lam, "M", deeper)
                assert not again.survived
                assert again.escaped_at == e

    def test_m0_survival_implies_m_survival(self, rng):
        for _ in range(25):
            lam = random_lambda(rng)
            if membership(lam, "M0", 12).survived:
                assert membership(lam, "M", 12).survived

    def test_symmetry_negation_and_conjugation(self, rng):
        for _ in range(15):
            lam = random_lambda(rng)
            base = membership(lam, "M", 14)
            for other in (-lam, lam.conjugate(), -lam.conjugate()):
                mirrored = membership(other, "M", 14)
                assert mirrored.escaped_at == base.escaped_at

    def test_root_parameter_survives_any_depth(self, roots):
        for depth in (10, 30, 60):
            assert membership(roots[1], "M", depth).survived
            assert membership(roots[5], "M0", depth).survived


class TestFirstDescent:
    """``_search`` against the lexicographic reference: the nearest-to-zero
    first descent changes which survivor is found first, never the escape
    depth."""

    @pytest.mark.parametrize("value,set_kind,descent,escape", [
        (0.056 + 0.749j, "M", 0, 0),  # the descent itself reaches depth
        (0.616 + 0.315j, "M", 6, 0),  # it dies; the steered descent finds a survivor
        (-0.452 + 0.477j, "M", 21, 0),  # it dies deep; the steered descent finds one
        (0.673 + 0.141j, "M0", 9, 10),  # it dies and the parameter escapes
    ])
    def test_pinned_parameters(self, value, set_kind, descent, escape):
        digits = paramspace._digits(set_kind)
        assert nearest_descent_depth(value, digits, 40) == descent
        assert escape_depth_reference(value, digits, 40) == escape
        assert paramspace._search(value, digits, 40) == escape

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
        st.floats(-math.pi, math.pi),
        st.integers(1, 60),
        st.sampled_from([(-1, 0, 1), (-1, 1)]),
    )
    def test_equals_reference(self, modulus, angle, depth, digits):
        lam = cmath.rect(modulus, angle)
        want = escape_depth_reference(lam, digits, depth, budget=100_000)
        assume(want is not None)
        assert paramspace._search(lam, digits, depth) == want


def _steered_reaches(lam, digits, depth):
    """Whether ``_search``'s second descent, run alone from a fresh level
    table, reaches ``depth``."""
    absl = abs(lam)
    R = 1.0 / (1.0 - absl)
    guard = paramspace.PRUNE_GUARD * R
    levels = [paramspace._level(lam, absl, R, guard, 0)]
    return paramspace._steered_descent(lam, absl, R, guard, levels, len(digits) == 3, depth)


class TestGuidedDescent:
    """The second descent, steered by the second moments of the attractor,
    runs when the nearest-to-zero descent dies: it changes which survivor is
    found first, never the escape depth.  Both oracle descents run to depth
    40; a result of 0 means their prefix reached it."""

    @pytest.mark.parametrize("value,set_kind,depth,nearest,guided,escape", [
        # the costliest pixel of the acceptance window: the steered descent
        # reaches depth where the first one dies
        (0.699703125 + 0.0027656249999999938j, "M", 25, 19, 0, 0),
        (0.666 + 0.022j, "M", 40, 11, 22, 0),  # both die; the loop finds a survivor
        (0.621 + 0.4j, "M0", 40, 32, 29, 0),  # both die; the loop finds a survivor
        (0.667 + 0.003j, "M", 40, 16, 24, 26),  # both die and the parameter escapes
        (0.524 + 0.479j, "M0", 40, 29, 30, 37),  # both die and the parameter escapes
    ])
    def test_pinned_parameters(self, value, set_kind, depth, nearest, guided, escape):
        digits = paramspace._digits(set_kind)
        assert nearest_descent_depth(value, digits, 40) == nearest
        assert guided_descent_depth(value, digits, 40) == guided
        assert _steered_reaches(value, digits, depth) == (guided == 0)
        assert escape_depth_reference(value, digits, depth) == escape
        assert paramspace._search(value, digits, depth) == escape

    @pytest.mark.parametrize("digits", [(-1, 0, 1), (-1, 1)])
    def test_steering_is_the_oracle_ranking(self, digits):
        # the oracle ranks each child by its own Mahalanobis norm; the package
        # by one linear form against C/2, carrying a from level to level
        rng = np.random.default_rng(31)
        for i in range(200):
            if i % 2:
                lam = complex(rng.uniform(0.55, 0.75), rng.uniform(0.0005, 0.06))
            else:
                lam = cmath.rect(rng.uniform(0.5, 0.8), rng.uniform(0.05, 3.1))
            reached = guided_descent_depth(lam, digits, 40) == 0
            assert _steered_reaches(lam, digits, 40) == reached

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.55, 0.75, exclude_min=True, exclude_max=True),
        st.floats(0.0, 0.03, exclude_min=True, exclude_max=True),
        st.integers(1, 40),
        st.sampled_from([(-1, 0, 1), (-1, 1)]),
    )
    def test_equals_reference_near_the_real_axis(self, re, im, depth, digits):
        lam = complex(re, im)
        want = escape_depth_reference(lam, digits, depth, budget=100_000)
        assume(want is not None)
        assert paramspace._search(lam, digits, depth) == want


# Parameters where squaring with x**2 (C pow) and with x*x differ at the
# depth-2 bound; survivors once squared with x**2 and disagreed with
# membership at all three, for M and M0.
POW_SENSITIVE = (
    -0.49801539538250456 + 0.06275594371157604j,
    -0.49632076383252555 + 0.0851702317228026j,
    -0.4688631596620354 + 0.2371042563530149j,
)


@pytest.mark.parametrize("set_kind", ["M", "M0"])
@pytest.mark.parametrize("lam", POW_SENSITIVE)
def test_exhaustive_oracle_shares_the_error_model(lam, set_kind):
    # the oracle of acceptance criterion 10 sums from 1 and squares as the
    # search does, so it agrees where rounding decides the verdict
    assert exhaustive_verdict(lam, set_kind, 2) == membership(lam, set_kind, 2).survived


class TestSurvivors:
    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    def test_agrees_with_membership(self, set_kind):
        cases = [(lam, 2) for lam in POW_SENSITIVE]
        rng = np.random.default_rng(31)
        cases += [(random_lambda(rng, 0.45, 0.85), depth)
                  for _ in range(30) for depth in range(1, 11)]
        verdicts = set()
        for lam, depth in cases:
            survived = membership(lam, set_kind, depth).survived
            assert bool(survivors(lam, set_kind, depth, cap=1).prefixes) == survived
            verdicts.add(survived)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    @pytest.mark.parametrize("lam,depth", [
        (0.3 + 0.2j, 1024), (0.52 + 0.04j, 1024), (0.6 + 0.3j, 30),
    ])
    def test_builds_each_level_once_in_order(self, monkeypatch, set_kind, lam, depth):
        # an escaping walk reaches the escape depth, a surviving one all levels
        levels = membership(lam, set_kind, depth).escaped_at or depth
        plain = survivors(lam, set_kind, depth, cap=10**6).prefixes
        asked = []
        level = paramspace._level

        def mirrored(lam, absl, R, guard, k):
            # -lambda^k turns the child of digit d into the child of -d, bit
            # for bit, so the walk must return the mirrored prefixes
            asked.append(k)
            bound, pr, pi = level(lam, absl, R, guard, k)
            return bound, -pr, -pi

        monkeypatch.setattr(paramspace, "_level", mirrored)
        got = survivors(lam, set_kind, depth, cap=10**6).prefixes
        assert asked == list(range(levels))
        assert sorted(got) == sorted((1,) + tuple(-d for d in p[1:]) for p in plain)
        assert bool(got) == (levels == depth)

    def test_landmark1_root_prefix_present(self, roots, fixtures):
        out = survivors(roots[1], "M0", 20, cap=4096)
        prefix = tuple(
            1 if j not in (1, 2) else -1 for j in range(20)
        )  # 1,-1,-1, then all +1
        assert prefix in out.prefixes
        assert not out.overflow

    def test_landmark5_prefix_present(self, roots):
        out = survivors(roots[5], "M0", 15, cap=4096)
        block = (1, 1, -1)
        prefix = (1,) + tuple(block[j % 3] for j in range(14))
        assert prefix in out.prefixes

    def test_escaped_parameter_has_no_survivors(self):
        lam = 0.45 + 0j
        assert membership(lam, "M", 10).escaped_at > 0
        assert survivors(lam, "M", 10, cap=10).prefixes == ()

    def test_lexicographic_order(self, roots):
        out = survivors(roots[1], "M", 10, cap=100000)
        assert list(out.prefixes) == sorted(out.prefixes)

    def test_cap_and_overflow(self):
        lam = 0.66 + 0.18j  # interior parameter with a fat survivor set
        full = survivors(lam, "M", 8, cap=100000)
        assert not full.overflow
        assert len(full.prefixes) == 11
        capped = survivors(lam, "M", 8, cap=5)
        assert capped.overflow
        assert capped.prefixes == full.prefixes[:5]

    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    def test_equals_unpruned_filter(self, set_kind):
        rng = np.random.default_rng(23)
        overflowed = kept_all = 0
        for _ in range(12):
            lam = random_lambda(rng, 0.45, 0.85)
            for depth in (1, 2, 5, 8):
                full = survivors_bruteforce(lam, set_kind, depth)
                for cap in (1, 3, 40, 10**6):
                    out = survivors(lam, set_kind, depth, cap)
                    assert out.prefixes == full[:cap]
                    assert out.overflow == (len(full) > cap)
                    overflowed += out.overflow
                    kept_all += bool(full) and not out.overflow
        assert overflowed and kept_all

    def test_prefixes_start_with_one(self, roots):
        out = survivors(roots[4], "M", 8, cap=1000)
        assert all(p[0] == 1 and len(p) == 8 for p in out.prefixes)


class TestEscapeGrid:
    def test_single_pixel_survived(self):
        grid = escape_grid((0.505, -0.005, 0.515, 0.005), 1, 1, "M", 40)
        assert grid.values[0, 0] == 0

    def test_single_pixel_escaped(self):
        grid = escape_grid((0.445, -0.005, 0.455, 0.005), 1, 1, "M", 40)
        assert grid.values[0, 0] >= 1

    def test_origin_pixel_convention(self):
        grid = escape_grid((-0.05, -0.05, 0.05, 0.05), 1, 1, "M", 10)
        assert grid.values[0, 0] == 1

    def test_modulus_above_one_convention(self):
        grid = escape_grid((1.5, 1.5, 1.7, 1.7), 1, 1, "M", 10)
        assert grid.values[0, 0] == 1

    def test_symmetric_window_negation_invariance(self):
        grid = escape_grid((-0.66, -0.66, 0.66, 0.66), 3, 3, "M", 12)
        assert np.array_equal(grid.values, grid.values[::-1, ::-1])
        assert grid.values[1, 1] == 1  # center pixel is lambda = 0

    def test_row_zero_is_top(self):
        # survived spike pixel on the real axis; escaped pixel above it
        grid = escape_grid((0.5, -0.02, 0.56, 0.1), 1, 3, "M", 40)
        assert grid.values[2, 0] == 0  # bottom row straddles the real axis
        assert grid.values[0, 0] > 0

    def test_matches_membership_at_pixel_centers(self):
        window = (0.30, 0.05, 0.70, 0.45)
        grid = escape_grid(window, 4, 4, "M", 18)
        x0, y0, x1, y1 = window
        for j in range(4):
            for i in range(4):
                lam = complex(
                    x0 + (i + 0.5) * (x1 - x0) / 4, y1 - (j + 0.5) * (y1 - y0) / 4
                )
                assert grid.values[j, i] == membership(lam, "M", 18).escaped_at

    @pytest.mark.parametrize("set_kind", ["M", "M0"])
    @pytest.mark.parametrize("window,width,height,depth", [
        ((0.40, -0.05, 0.60, 0.05), 200, 101, 40),  # the README window
        ((0.354, 0.0, 0.708, 0.354), 64, 64, 25),  # lower right quarter of the acceptance window
        ((0.55, 0.0, 0.72, 0.06), 24, 8, 40),  # the near-real window
    ])
    def test_equals_reference_search(self, monkeypatch, set_kind, window, width, height, depth):
        got = escape_grid(window, width, height, set_kind, depth).values
        monkeypatch.setattr(paramspace, "_search", escape_depth_reference)
        want = escape_grid(window, width, height, set_kind, depth).values
        assert np.array_equal(got, want)
        assert (got == 0).any() and (got > 1).any()

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            escape_grid((0.5, 0.5, 0.5, 0.6), 2, 2, "M", 10)
