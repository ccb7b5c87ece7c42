
import pytest

from ifslab import (
    ParseError,
    PoleAtUnity,
    RationalTypeSeries,
    ZerosInPeriod,
    coeff_at,
    derivative_eval,
    numerator_polynomial,
    overlap_set,
    poly_eval,
    rational_eval,
    taylor_eval,
)
from ifslab import series
from ifslab.numerics import poly_derivative_eval

from conftest import random_lambda, random_rooted_series
from oracles import derivative_closed_form


class TestConstruction:
    def test_parse_format_round_trip(self):
        for text in ("1,-1,-1;1", "1,-1,-1,0;1", "1;1,1,-1", "1,-1,0;1"):
            f = RationalTypeSeries.parse(text)
            assert f.format() == text
            assert RationalTypeSeries.parse(f.format()) == f

    def test_parse_rejects_unicode_minus(self):
        with pytest.raises(ParseError):
            RationalTypeSeries.parse("1,\u22121,\u22121;1")

    def test_parse_rejects_missing_semicolon(self):
        with pytest.raises(ParseError):
            RationalTypeSeries.parse("1,-1,-1")

    def test_parse_rejects_bad_coefficient(self):
        with pytest.raises(ParseError):
            RationalTypeSeries.parse("1,2;1")

    def test_normalized_coefficient_required(self):
        with pytest.raises(ParseError):
            RationalTypeSeries.parse("-1,1;1")

    def test_period_reduced_to_primitive(self):
        f = RationalTypeSeries.from_parts([1, -1], [1, 1])
        assert f.period == 1
        assert f.block == (1,)

    def test_preperiod_rolled_back(self):
        # c_3 == c_4 means periodicity starts one index earlier
        f = RationalTypeSeries.from_parts([1, -1, -1, 1], [1])
        assert (f.preperiod, f.period) == (2, 1)
        assert f.coeffs == (1, -1, -1, 1)

    def test_rollback_cascades_to_zero_preperiod(self):
        f = RationalTypeSeries.from_parts([1, -1, 1, -1], [1, -1])
        assert (f.preperiod, f.period) == (0, 2)
        assert f.coeffs == (1, -1, 1)

    def test_direct_constructor_rejects_nonminimal(self):
        with pytest.raises(ValueError):
            RationalTypeSeries(1, 2, (1, 1, 1, 1))  # block (1,1) not primitive
        with pytest.raises(ValueError):
            RationalTypeSeries(3, 1, (1, -1, -1, 1, 1))  # c_3 == c_4

    def test_landmark5_shape(self):
        f = RationalTypeSeries.parse("1;1,1,-1")
        assert (f.preperiod, f.period) == (0, 3)
        assert f.zero_positions == ()


class TestCoeffAt:
    def test_c0(self):
        f = RationalTypeSeries.parse("1;1,1,-1")
        assert coeff_at(f, 0) == 1

    def test_period3_wraparound(self):
        f = RationalTypeSeries.parse("1;1,1,-1")
        # itinerary +(++-)^inf: index 6 is the last letter of the second block
        assert coeff_at(f, 6) == -1
        assert [coeff_at(f, j) for j in range(8)] == [1, 1, 1, -1, 1, 1, -1, 1]

    def test_constant_tail(self):
        f = RationalTypeSeries.parse("1,-1,-1;1")
        assert coeff_at(f, 17) == 1

    def test_negative_rejected(self):
        f = RationalTypeSeries.parse("1;1")
        with pytest.raises(ValueError):
            coeff_at(f, -1)


class TestTaylorEval:
    def test_degree_zero(self):
        f = RationalTypeSeries.parse("1,-1,0;1")
        assert taylor_eval(f, 0.3 + 0.4j, 0) == 1

    def test_landmark5_identity(self, roots, fixtures):
        # f_2 at the period-3 root collapses to 2*lambda^3
        lam = roots[5]
        assert abs(taylor_eval(fixtures[5].series, lam, 2) - 2 * lam**3) < 1e-10

    def test_landmark1_head_identity(self, roots, fixtures):
        # at a root of a period-one series, f_ell = -lam^(ell+1)/(1-lam)
        lam = roots[1]
        f = fixtures[1].series
        assert abs(taylor_eval(f, lam, 2) - (-(lam**3) / (1 - lam))) < 1e-10

    def test_incremental_property(self, rng):
        f = RationalTypeSeries.parse("1,-1,0;1,1,-1")
        lam = random_lambda(rng, 0.2, 0.7)
        for k in range(60):
            step = taylor_eval(f, lam, k) + coeff_at(f, k + 1) * lam ** (k + 1)
            full = taylor_eval(f, lam, k + 1)
            assert abs(full - step) <= 1e-12 * (1 + abs(full))


class TestRationalEval:
    def test_value_at_zero_is_one(self, fixtures):
        for lm in fixtures.values():
            assert rational_eval(lm.series, 0j) == 1

    def test_roots_vanish(self, roots, fixtures):
        for i in (1, 5):
            assert abs(rational_eval(fixtures[i].series, roots[i])) < 1e-6

    def test_pole_at_unity(self):
        with pytest.raises(PoleAtUnity):
            rational_eval(RationalTypeSeries.parse("1,-1,-1;1"), 1.0 + 0j)
        with pytest.raises(PoleAtUnity):
            rational_eval(RationalTypeSeries.parse("1;1,1,-1"), 1.0 + 0j)

    def test_tail_bound_against_taylor(self, rng):
        f = RationalTypeSeries.parse("1,-1,0;1,1,-1")
        for _ in range(10):
            lam = random_lambda(rng, 0.1, 0.7)
            full = rational_eval(f, lam)
            k = 60
            bound = abs(lam) ** (k + 1) / (1 - abs(lam))
            assert abs(full - taylor_eval(f, lam, k)) <= bound + 1e-12


class TestDerivative:
    def test_all_plus_series_at_zero(self):
        f = RationalTypeSeries.parse("1;1")
        assert abs(derivative_eval(f, 0j) - 1) < 1e-12

    def test_value_at_zero_is_c1(self):
        for text, c1 in (("1,-1,0;1", -1), ("1,0;1", 0), ("1;1,1,-1", 1)):
            assert abs(derivative_eval(RationalTypeSeries.parse(text), 0j) - c1) < 1e-12

    def test_finite_difference_oracle(self, roots, fixtures):
        h = 1e-6
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            fd = (rational_eval(f, lam + h) - rational_eval(f, lam - h)) / (2 * h)
            assert abs(derivative_eval(f, lam) - fd) < 1e-8

    def test_nonvanishing_at_landmark1(self, roots, fixtures):
        assert abs(derivative_eval(fixtures[1].series, roots[1])) > 0.1

    def test_horner_engine_matches_closed_form_loops(self, rng, monkeypatch):
        # f' comes from the numerator polynomial through numerics' Horner
        # evaluation, and agrees with the term-by-term closed form
        calls = []

        def counted(coeffs, z):
            calls.append(z)
            return poly_derivative_eval(coeffs, z)

        monkeypatch.setattr(series, "poly_derivative_eval", counted)
        for period in (1, 2, 3, 4, 5, 7, 9, 13):
            for _ in range(5):
                f, lam = random_rooted_series(rng, period)
                want = derivative_closed_form(f, lam)
                assert abs(derivative_eval(f, lam) - want) <= 1e-12 * abs(want)
        assert len(calls) == 40


class TestNumeratorPolynomial:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,-1,-1;1", [1, -2, 0, 2]),
            ("1,-1,-1,0;1", [1, -2, 0, 1, 1]),
            ("1,-1,-1,0,0;1", [1, -2, 0, 1, 0, 1]),
            ("1,-1,-1,-1;1", [1, -2, 0, 0, 2]),
            ("1;1,1,-1", [1, 1, 1, -2]),
            ("1,-1,0;1", [1, -2, 1, 1]),
        ],
    )
    def test_landmark_numerators(self, text, expected):
        assert numerator_polynomial(RationalTypeSeries.parse(text)) == expected

    def test_entries_bounded(self, fixtures):
        for lm in fixtures.values():
            assert all(abs(c) <= 2 for c in numerator_polynomial(lm.series))

    def test_consistent_with_rational_eval(self, rng):
        for text in ("1,-1,-1;1", "1;1,1,-1", "1,-1,0;1,0,-1"):
            f = RationalTypeSeries.parse(text)
            num = numerator_polynomial(f)
            for _ in range(5):
                lam = random_lambda(rng, 0.2, 0.7)
                lhs = poly_eval(num, lam)
                rhs = (1 - lam**f.period) * rational_eval(f, lam)
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestOverlapSet:
    def test_zero_free_series_single_point(self, roots, fixtures):
        desc = overlap_set(fixtures[1].series, roots[1])
        assert desc.zero_positions == ()
        assert desc.points == (0j,)

    def test_one_zero_two_points(self, roots, fixtures):
        lam = roots[2]
        desc = overlap_set(fixtures[2].series, lam)
        assert desc.zero_positions == (3,)
        assert sorted(desc.points, key=lambda z: z.real) == sorted(
            [-(lam**3), lam**3], key=lambda z: z.real
        )

    def test_two_zeros_four_points(self, roots, fixtures):
        lam = roots[3]
        desc = overlap_set(fixtures[3].series, lam)
        assert desc.zero_positions == (3, 4)
        expected = {s3 * lam**3 + s4 * lam**4 for s3 in (-1, 1) for s4 in (-1, 1)}
        assert len(desc.points) == 4
        for point in desc.points:
            assert min(abs(point - e) for e in expected) < 1e-12

    def test_count_is_power_of_two(self, roots, fixtures):
        for i in range(1, 7):
            desc = overlap_set(fixtures[i].series, roots[i])
            assert len(desc.points) == 2 ** len(desc.zero_positions)

    def test_zero_in_period_rejected(self):
        f = RationalTypeSeries.parse("1;1,0,-1")
        with pytest.raises(ZerosInPeriod):
            overlap_set(f, 0.4 + 0.3j)

    def test_symmetric_about_zero(self, roots, fixtures):
        for i in (2, 3, 6):
            desc = overlap_set(fixtures[i].series, roots[i])
            values = sorted(desc.points, key=lambda z: (z.real, z.imag))
            negated = sorted((-z for z in desc.points), key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) < 1e-14 for a, b in zip(values, negated))
