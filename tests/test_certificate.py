import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ifslab import (
    BadIndices,
    EnumerationTooLarge,
    HypothesisViolated,
    LevelTooDeep,
    NotARoot,
    RationalTypeSeries,
    certify,
    membership,
    newton_root,
    numerator_polynomial,
    parameter_probe,
    report_from_dict,
    report_to_dict,
    selfsim_center,
    verify_chain,
    weakened_conditions,
)
from ifslab import certificate, ifs, series
from ifslab.certificate import (
    _band,
    _instar_clearance,
    _worst_separation,
    condition_instar_separation,
    record_inequality,
)
from ifslab.ifs import BINARY, TERNARY, level_blocks, level_nodes, nodal_radius
from ifslab.series import coeff_at, derivative_eval

from conftest import random_rooted_series
from oracles import (
    chain_disk,
    chain_disk_taylor,
    condition_consecutive_overlap,
    condition_disk_exists,
    instar_clearance_full,
    periodicity_residual,
    taylor_eval,
)


class TestSelfSimCenter:
    def test_period3_landmark(self, roots, fixtures):
        lam = roots[5]
        assert abs(selfsim_center(fixtures[5].series, lam) - (-1 / lam)) < 1e-12

    def test_period1_landmark(self, roots, fixtures):
        lam = roots[1]
        assert abs(selfsim_center(fixtures[1].series, lam) - 1 / (1 - lam)) < 1e-10

    def test_defining_identity(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            ell = f.preperiod
            lhs = selfsim_center(f, lam) * lam ** (ell + 1)
            rhs = -taylor_eval(f, lam, ell)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))

    def test_not_a_root(self, roots, fixtures):
        with pytest.raises(NotARoot):
            selfsim_center(fixtures[5].series, roots[5] + 0.1)

    def test_hypothesis_warnings(self):
        f = RationalTypeSeries.parse("1,1,1;-1")  # root at (1/2)**(1/3), real
        root = newton_root(numerator_polynomial(f), 0.79)
        with pytest.warns(HypothesisViolated):
            selfsim_center(f, root)


class TestChainDisk:
    def test_first_disk_distance_to_origin(self, roots, fixtures):
        lam = roots[5]
        disk = chain_disk(fixtures[5].series, lam, 0)
        assert abs(abs(disk.center) - abs((2 + lam) / lam)) < 1e-12

    def test_consecutive_center_gap(self, roots, fixtures):
        lam = roots[5]
        f = fixtures[5].series
        d1, d2 = chain_disk(f, lam, 1), chain_disk(f, lam, 2)
        assert abs(abs(d1.center - d2.center) - abs(lam**2)) < 1e-12

    def test_reflection_identity(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            center = selfsim_center(f, lam)
            for n in range(3 * f.period + 1):
                disk = chain_disk(f, lam, n)
                znode = certificate._chain(f, lam, n + 1)[1][n]
                assert abs(disk.center + znode - 2 * center) < 1e-12 * (
                    1 + abs(center)
                )

    def test_tangency_invariant(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            for n in range(2 * f.period):
                disk = chain_disk(f, lam, n)
                if disk.radius <= 0:
                    continue
                gap = abs(disk.center - certificate._chain(f, lam, n + 1)[1][n])
                expected = disk.radius + nodal_radius(lam, n)
                assert abs(gap - expected) < 1e-10 * (1 + expected)

    def test_scale_covariance(self, roots, fixtures):
        for i in range(1, 6):
            f, lam = fixtures[i].series, roots[i]
            p = f.period
            center = selfsim_center(f, lam)
            for n in range(p):
                a = chain_disk(f, lam, n)
                b = chain_disk(f, lam, n + p)
                scaled_center = center + lam**p * (a.center - center)
                scaled_radius = abs(lam) ** p * a.radius
                assert abs(b.center - scaled_center) < 1e-10
                assert abs(b.radius - scaled_radius) < 1e-10

    @staticmethod
    def _assert_one_pass_bits(f, lam, count):
        # repr round-trips every float, so equal reprs are equal bits
        got = certificate._chain(f, lam, count)[2]
        want = [chain_disk_taylor(f, lam, n) for n in range(count)]
        assert [repr(d) for d in got] == [repr(d) for d in want]

    def test_one_pass_equals_taylor_formula_at_landmarks(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            self._assert_one_pass_bits(f, lam, 3 * f.period + 4)
            assert repr(chain_disk(f, lam, 2 * f.period)) == repr(
                chain_disk_taylor(f, lam, 2 * f.period)
            )

    def test_one_pass_equals_taylor_formula_on_random_series(self, rng):
        for period in (1, 2, 3, 4, 5, 7, 9, 13):
            f, lam = random_rooted_series(rng, period)
            self._assert_one_pass_bits(f, lam, 3 * period + 4)


class TestConditions:
    def test_record_arithmetic(self):
        rec = record_inequality("i", 0, 0.0, 0.25, flip=False)
        assert rec.margin == -0.25 and not rec.passed
        rec = record_inequality("iii", 0, 0.1, 0.25, flip=True)
        assert rec.margin == pytest.approx(0.15) and rec.passed

    def test_existence_passes_at_all_landmarks(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            for n in range(f.period):
                assert condition_disk_exists(f, lam, n).passed

    def test_overlap_passes_at_certified_landmarks(self, roots, fixtures):
        for i in range(1, 6):
            f, lam = fixtures[i].series, roots[i]
            for n in range(f.period):
                assert condition_consecutive_overlap(f, lam, n).passed

    def test_overlap_fails_at_negative_control(self, roots, fixtures):
        rec = condition_consecutive_overlap(fixtures[6].series, roots[6], 0)
        assert not rec.passed
        assert rec.margin == pytest.approx(-0.035344, abs=1e-5)

    def test_overlap_wraps_into_next_period(self, roots, fixtures):
        # n = p-1 needs f_{ell+p+1}, one step into the repeated block
        f, lam = fixtures[5].series, roots[5]
        rec = condition_consecutive_overlap(f, lam, 2)
        direct = abs(taylor_eval(f, lam, 3)) + abs(taylor_eval(f, lam, 4))
        assert rec.lhs == pytest.approx(direct, rel=1e-12)

    def test_separation_doubled_landmark1(self, roots, fixtures):
        records = condition_instar_separation(fixtures[1].series, roots[1], 0)
        assert len(records) == 4  # P in {-2,-1,0,1}; Q=2 excluded
        assert {r.label for r in records} == {"P=-2", "P=-1", "P=0", "P=1"}
        assert all(r.passed for r in records)
        assert min(r.margin for r in records) == pytest.approx(0.182291, abs=1e-5)

    def test_separation_counts(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        assert len(condition_instar_separation(f, lam, 2, "doubled")) == 5**3 - 1
        assert len(condition_instar_separation(f, lam, 2, "single")) == 3**3 - 1

    def test_separation_single_passes_at_period3(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        for n in range(3):
            assert all(r.passed for r in condition_instar_separation(f, lam, n, "single"))

    def test_enumeration_guard(self, roots, fixtures):
        with pytest.raises(EnumerationTooLarge):
            condition_instar_separation(fixtures[1].series, roots[1], 13)

    def test_bad_variant(self, roots, fixtures):
        with pytest.raises(ValueError):
            condition_instar_separation(fixtures[1].series, roots[1], 0, "tripled")

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, lam: chain_disk(f, lam, -1),
            lambda f, lam: condition_disk_exists(f, lam, -1),
            lambda f, lam: condition_consecutive_overlap(f, lam, -1),
            lambda f, lam: condition_instar_separation(f, lam, -1),
            lambda f, lam: condition_instar_separation(f, lam, -1, "single"),
            lambda f, lam: periodicity_residual(f, lam, -1),
            lambda f, lam: parameter_probe(f, lam, 0.1, -3),
        ],
        ids=[
            "chain_disk", "disk_exists", "consecutive_overlap", "separation_doubled",
            "separation_single", "periodicity_residual", "parameter_probe",
        ],
    )
    def test_negative_level_refused_before_any_table(
        self, roots, fixtures, monkeypatch, call
    ):
        def summed(*args):
            raise AssertionError("Taylor table built for a negative level")

        monkeypatch.setattr(certificate, "_taylor_sums", summed)
        with pytest.raises(ValueError, match="level index"):
            call(fixtures[5].series, roots[5])

    @pytest.mark.parametrize("variant, base", [("doubled", 5), ("single", 3)])
    def test_enumeration_refusal_names_the_variant_base(
        self, roots, fixtures, variant, base
    ):
        refused = rf"^{base}\^\(n\+1\) enumeration refused for n=13"
        with pytest.raises(EnumerationTooLarge, match=refused):
            condition_instar_separation(fixtures[1].series, roots[1], 13, variant)

    def test_weakened_refusal_names_the_single_base(self):
        # w-iii is the single form, so index 13 of a period-14 cycle is
        # refused with the 3^(n+1) count
        f = RationalTypeSeries.parse("1;1,1,-1,1,1,-1,-1,1,1,-1,1,-1,-1,1")
        lam = newton_root(numerator_polynomial(f), -0.365 + 0.557j)
        refused = r"^3\^\(n\+1\) enumeration refused for n=13"
        with pytest.raises(EnumerationTooLarge, match=refused):
            weakened_conditions(f, lam, range(14))


class TestWeakenedConditions:
    def test_full_cycle_matches_plain_conditions(self, roots, fixtures):
        # indices 0..p-1: the w-i records coincide with the plain existence
        # condition, record by record
        for i in (1, 2, 3, 4, 5):
            f, lam = fixtures[i].series, roots[i]
            p = f.period
            if p < 2:
                continue
            records = weakened_conditions(f, lam, range(p))
            for n in range(p):
                w1 = next(r for r in records if r.which == "w-i" and r.n == n)
                plain = condition_disk_exists(f, lam, n)
                assert w1.margin == pytest.approx(plain.margin, rel=1e-12)
                assert w1.passed == plain.passed

    def test_consecutive_w2_matches_plain_overlap(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        records = weakened_conditions(f, lam, (0, 1, 2))
        for n in (0, 1):  # non-wrapping consecutive pairs
            w2 = next(r for r in records if r.which == "w-ii" and r.n == n)
            plain = condition_consecutive_overlap(f, lam, n)
            assert w2.margin == pytest.approx(plain.margin, rel=1e-10)

    def test_period3_frozen_margins(self, roots, fixtures):
        # computed margins; the cyclic wrap record j=3 compares the last and
        # first disks unscaled and fails by a hair
        f, lam = fixtures[5].series, roots[5]
        records = weakened_conditions(f, lam, (0, 1, 2))
        by = {(r.which, r.n): r for r in records}
        assert by[("w-i", 0)].margin == pytest.approx(0.261845, abs=1e-5)
        assert by[("w-i", 1)].margin == pytest.approx(0.161010, abs=1e-5)
        assert by[("w-i", 2)].margin == pytest.approx(0.032012, abs=1e-5)
        assert by[("w-ii", 0)].margin == pytest.approx(0.220222, abs=1e-5)
        assert by[("w-ii", 1)].margin == pytest.approx(0.064025, abs=1e-5)
        assert by[("w-ii", 2)].margin == pytest.approx(-0.002503, abs=1e-5)
        assert not by[("w-ii", 2)].passed
        assert by[("w-iii", 0)].margin == pytest.approx(0.180539, abs=1e-5)
        assert all(by[("w-iii", n)].passed for n in range(3))

    def test_bad_indices(self, roots, fixtures):
        f1, lam1 = fixtures[1].series, roots[1]
        with pytest.raises(BadIndices):
            weakened_conditions(f1, lam1, (0, 0))  # m=2 > p=1
        f5, lam5 = fixtures[5].series, roots[5]
        with pytest.raises(BadIndices):
            weakened_conditions(f5, lam5, (2, 1))
        with pytest.raises(BadIndices):
            weakened_conditions(f5, lam5, (0,))
        with pytest.raises(BadIndices):
            weakened_conditions(f5, lam5, (0, 3))


class TestVerifyChain:
    def test_period3_two_periods_all_good(self, roots, fixtures):
        geo = verify_chain(fixtures[5].series, roots[5], periods_checked=2)
        assert geo.all_exist and geo.all_connected and geo.all_disjoint
        level2 = geo.levels[2]
        assert level2.contained_in_prev
        assert abs(level2.containment_residual) < 1e-12  # internal tangency

    def test_negative_control_booleans(self, roots, fixtures):
        geo = verify_chain(fixtures[6].series, roots[6], periods_checked=3)
        assert geo.all_exist
        assert not geo.all_connected
        assert [lv.connects_next for lv in geo.levels] == [False, False, False]
        assert [lv.disjoint for lv in geo.levels] == [True, True, False]
        assert geo.levels[0].connect_margin == pytest.approx(-0.222520, abs=1e-5)
        assert geo.levels[2].disjoint_margin == pytest.approx(-0.374595, abs=1e-5)

    def test_period1_three_periods_all_good(self, roots, fixtures):
        geo = verify_chain(fixtures[1].series, roots[1], periods_checked=3)
        assert geo.all_exist and geo.all_connected and geo.all_disjoint

    def test_level_guard(self, roots, fixtures):
        # landmark 5 has p = 3: six periods walk ternary levels 0..17, past
        # the walker's ceiling of 14
        with pytest.raises(Exception) as err:
            verify_chain(fixtures[5].series, roots[5], periods_checked=6)
        assert "guard" in str(err.value)

    def test_binary_target_at_zero_free_landmark(self, roots, fixtures):
        geo = verify_chain(fixtures[5].series, roots[5], periods_checked=2, target="M0")
        assert geo.all_exist and geo.all_connected and geo.all_disjoint


class TestPeriodicity:
    def test_residuals_small_at_landmarks(self, roots, fixtures):
        for i in range(1, 6):
            f, lam = fixtures[i].series, roots[i]
            center = selfsim_center(f, lam)
            for n in range(2 * f.period):
                assert periodicity_residual(f, lam, n) <= 1e-10 * (1 + abs(center))


class TestParameterProbe:
    def test_center_is_fixed_point(self, roots, fixtures):
        f, lam = fixtures[1].series, roots[1]
        center = selfsim_center(f, lam)
        assert parameter_probe(f, lam, center, 3) == lam

    def test_formula(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        center = selfsim_center(f, lam)
        b = 1.3 - 0.4j
        expected = lam - lam**6 * (lam / derivative_eval(f, lam)) * (b - center)
        assert parameter_probe(f, lam, b, 2) == pytest.approx(expected)

    def test_probe_outcomes_recorded(self, roots, fixtures):
        # evidence only: the chain-disk center, outside the attractor, maps
        # to a parameter that escapes decisively; its reflection through the
        # center maps to one the depth-40 search cannot exclude
        f, lam = fixtures[1].series, roots[1]
        center = selfsim_center(f, lam)
        b = chain_disk(f, lam, 0).center
        assert membership(parameter_probe(f, lam, b, 3), "M", 40).escaped_at > 1
        reflected = parameter_probe(f, lam, 2 * center - b, 3)
        assert membership(reflected, "M", 40).survived


class TestCertify:
    def test_zero_free_landmark_with_shared_boundary(self, roots, fixtures):
        report = certify(fixtures[1].series, roots[1], target="M")
        assert report.verdict == "accessible_M"
        assert report.shared_boundary
        assert report.failure_reasons == ()
        assert report.warnings == ()

    def test_one_zero_landmark_not_shared(self, roots, fixtures):
        report = certify(fixtures[2].series, roots[2], target="M")
        assert report.verdict == "accessible_M"
        assert not report.shared_boundary

    def test_negative_control_fails_with_reasons(self, roots, fixtures):
        report = certify(fixtures[6].series, roots[6], target="M")
        assert report.verdict == "failed"
        assert any("(ii)" in reason for reason in report.failure_reasons)
        assert any("connects" in reason for reason in report.failure_reasons)

    def test_margins_inside_the_band_are_inconclusive(self, roots, fixtures, monkeypatch):
        # a band as wide as |lhs| + |rhs| holds every passing margin
        monkeypatch.setattr(certificate, "DECISION_BAND", 1.0)
        report = certify(fixtures[1].series, roots[1], target="M")
        assert report.verdict == "inconclusive"
        assert report.failure_reasons == ()
        assert not report.shared_boundary

    def test_m0_target_at_period3(self, roots, fixtures):
        report = certify(fixtures[5].series, roots[5], target="M0")
        assert report.verdict == "accessible_M0"
        assert not report.shared_boundary  # flag reserved for target M

    def test_m0_target_rejects_zero_coefficients(self, roots, fixtures):
        report = certify(fixtures[2].series, roots[2], target="M0")
        assert report.verdict == "failed"
        assert any("zero coefficients" in r for r in report.failure_reasons)

    def test_report_shape(self, roots, fixtures):
        f = fixtures[5].series
        report = certify(f, roots[5], target="M")
        p = f.period
        assert len(report.chain) == 2 * p + 1
        assert len(report.periodicity_residuals) == 2 * p
        assert len(report.geometry.levels) == 2 * p
        kinds = {r.which for r in report.conditions}
        assert kinds == {"i", "ii", "iii"}

    def test_bad_target(self, roots, fixtures):
        with pytest.raises(ValueError):
            certify(fixtures[1].series, roots[1], target="M00")

    def test_zero_block_refused(self):
        # a polynomial: f_{ell+1} = f vanishes at the root, so (i) cannot hold
        f = RationalTypeSeries.parse("1,-1,-1,1,1,1,1;0")
        lam = newton_root(numerator_polynomial(f), 0.6 + 0.3j)
        assert abs(series.rational_eval(f, lam)) < certificate.ROOT_TOL
        for target in ("M", "M0"):
            with pytest.raises(ValueError, match="periodic block .* is zero"):
                certify(f, lam, target=target)

    def test_real_root_warns_but_completes(self):
        f = RationalTypeSeries.parse("1;-1")  # vanishes at 1/2
        report = certify(f, 0.5 + 0j, target="M")
        assert any("real" in w for w in report.warnings)


class TestEquivalence:
    def test_algebra_agrees_with_geometry_at_all_landmarks(self, roots, fixtures):
        for i in range(1, 7):
            f, lam = fixtures[i].series, roots[i]
            geo = verify_chain(f, lam, periods_checked=1, target="M")
            for n in range(f.period):
                algebra_ok = all(
                    r.passed for r in condition_instar_separation(f, lam, n, "doubled")
                )
                assert algebra_ok == geo.levels[n].disjoint, (i, n)

    def test_each_condition_implies_its_geometry_on_seeded_series(self, rng):
        """(i) <=> chain disk n exists; (ii) => disks n and n+1 intersect,
        and the converse holds when c_{ell+2+n} != 0 (when it is 0 the two
        disks are concentric); (iii) => disk n clears the ternary instar,
        and (iii') => it clears the binary one on zero-free series.  Levels
        with an algebraic margin inside the decision band are left out."""
        checked = 0
        for target, which in (("M", "iii"), ("M0", "iii'")):
            for p in range(1, 6):
                for _ in range(12):
                    f, lam = random_rooted_series(rng, p)
                    while target == "M0" and f.zero_positions:
                        f, lam = random_rooted_series(rng, p)
                    if not any(f.block):  # a polynomial: certify refuses it
                        with pytest.raises(ValueError, match="zero"):
                            certify(f, lam, target)
                        continue
                    report = certify(f, lam, target)
                    records = {(r.which, r.n): r for r in report.conditions}
                    for n, level in enumerate(report.geometry.levels[:p]):
                        i, ii, iii = (records[w, n] for w in ("i", "ii", which))
                        if any(abs(r.margin) <= _band(r.lhs, r.rhs) for r in (i, ii, iii)):
                            continue
                        case = (f, lam, target, n)
                        assert i.passed == level.exists, case
                        assert level.connects_next or not ii.passed, case
                        if coeff_at(f, f.preperiod + 2 + n) != 0:
                            assert ii.passed == level.connects_next, case
                        assert level.disjoint or not iii.passed, case
                        checked += 1
        assert checked >= 300


@pytest.mark.filterwarnings("ignore::ifslab.HypothesisViolated")
class TestStreamedCertificate:
    """The pruned (iii) walk and the block-streamed instar clearance against
    the exhaustive enumerations; the clearance at the default block size and
    at a small one, whose walk runs through many more stages."""

    BLOCKS = (ifs._BLOCK_NODES, 20)

    @pytest.mark.parametrize("variant", ["doubled", "single"])
    def test_worst_separation_is_the_enumeration_minimum(self, rng, monkeypatch, variant):
        # at the first two roots several polynomials tie for the smallest
        # margin at n=3: at both in the doubled form, at the second in the
        # single form; the third has |lambda| > 0.9, where the walk's bound
        # prunes least.  Every level the certificate reaches is checked, and
        # the single form as deep as its enumeration oracle stays quick.
        cases = [
            (f, newton_root(numerator_polynomial(f), seed))
            for f, seed in (
                (RationalTypeSeries.parse("1;-1,0"), 0.62 + 0j),
                (RationalTypeSeries.parse("1,0,0;1,1,-1"), -0.66 + 0.56j),
                (RationalTypeSeries.parse("1;1,-1,1,1,-1"), 0.383 + 0.833j),
            )
        ]
        cases += [random_rooted_series(rng, period) for period in (2, 5)]

        # the walk evaluates every polynomial in its record's arithmetic, so
        # it needs neither the level's node blocks nor numpy's abs
        def walked(*args):
            raise AssertionError("condition (iii) walked the node blocks")

        monkeypatch.setattr(ifs, "_level_blocks", walked)
        for f, lam in cases:
            for n in range(7 if variant == "doubled" else 9):
                oracle = min(
                    condition_instar_separation(f, lam, n, variant),
                    key=lambda r: r.margin,
                )
                sums = certificate._chain(f, lam, n + 1)[3]
                worst = _worst_separation(f, lam, sums, n, variant)
                assert worst == oracle, (f, lam, n)
                assert worst.margin.hex() == oracle.margin.hex()
                assert worst.rhs.hex() == oracle.rhs.hex()

    @pytest.mark.parametrize("alphabet", [TERNARY, BINARY])
    def test_block_clearance_equals_full_level(self, rng, monkeypatch, alphabet):
        f, lam = random_rooted_series(rng, 3)
        for block in self.BLOCKS:
            monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
            for n in range(12):
                nodes = np.concatenate(list(level_blocks(lam, n, alphabet)))
                assert nodes.tobytes() == level_nodes(lam, n, alphabet).tobytes()
                disk = chain_disk(f, lam, n)
                znode = certificate._chain(f, lam, n + 1)[1][n]
                got = _instar_clearance(lam, n, alphabet, disk, znode)
                want = instar_clearance_full(
                    lam, n, alphabet, disk.center, disk.radius, znode
                )
                assert got.hex() == want.hex(), (f, lam, n, block)

    def test_period8_binary_clearance_equals_full_level(self):
        # two periods of an M0 chain at p = 8 walk binary levels 0..15; the
        # deepest holds 2^16 nodes, so the whole-level minimum is cheap
        f = RationalTypeSeries.parse("1;1,1,-1,1,-1,-1,1,-1")
        lam = newton_root(numerator_polynomial(f), -0.42323 + 0.47518j)
        geo = verify_chain(f, lam, 2, "M0")
        _, nodes, disks, _ = certificate._chain(f, lam, 16)
        assert [lv.n for lv in geo.levels] == list(range(16))
        for n, level in enumerate(geo.levels):
            want = instar_clearance_full(
                lam, n, BINARY, disks[n].center, disks[n].radius, nodes[n]
            )
            assert level.disjoint_margin.hex() == want.hex(), n

    def test_clearance_memory_is_flat_in_level(self):
        # two periods at p = 7 walk ternary levels 0..13; the deepest alone
        # is 3^14 complex nodes, 77 MB, and the walk holds a few blocks
        f = RationalTypeSeries.parse("1,-1;1,1,-1,1,-1,-1,1")
        lam = newton_root(numerator_polynomial(f), 0.389 + 0.594j)
        assert abs(lam) == pytest.approx(0.71, abs=0.01)
        verify_chain(f, lam, 2, "M")
        tracemalloc.start()
        try:
            geo = verify_chain(f, lam, 2, "M")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(geo.levels) == 14
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("target, which", [("M", "iii"), ("M0", "iii'")])
    def test_period7_report_has_one_record_per_condition_and_level(
        self, rng, target, which
    ):
        f, lam = random_rooted_series(rng, 7)
        report = certify(f, lam, target=target)
        keys = [(r.which, r.n) for r in report.conditions]
        assert len(keys) == len(set(keys)) == 3 * 7
        assert set(keys) == {(w, n) for w in ("i", "ii", which) for n in range(7)}
        failing = [r for r in report.conditions if r.which == which and not r.passed]
        lines = [r for r in report.failure_reasons if r.startswith(f"condition ({which})")]
        assert len(lines) == len(failing)


    @pytest.mark.parametrize(
        "target, text, seed",
        [
            ("M", "1;1,1,-1,1,1,-1,-1,1", -0.377 + 0.545j),
            ("M0", "1;-1,1,1,-1,1,-1,1,1,-1,1,-1,-1", -0.38983 + 0.86888j),
        ],
        ids=["M", "M0"],
    )
    def test_period8_refused_before_any_separation_search(self, monkeypatch, target, text, seed):
        # two periods walk instar levels 0..2p-1, past the walker's ceiling
        # from p = 8 for M (ternary 14) and p = 12 for M0 (binary 22); the
        # refusal comes before any chain disk and before the 5^(n+1) (resp.
        # 3^(n+1)) searches of condition (iii), so a long period costs nothing
        def searched(*args):
            raise AssertionError("chain disk or condition (iii) built before the guard")

        monkeypatch.setattr(certificate, "_worst_separation", searched)
        monkeypatch.setattr(certificate, "_chain", searched)
        # p = 1600: seeded near the first np.roots root of the numerator with
        # 0.3 < |z| < 0.97 and Im z > 0.01 (np.roots takes seconds here)
        block = [1] + [int(c) for c in np.random.default_rng(1).choice([-1, 1], 1599)]
        period1600 = RationalTypeSeries.from_parts([1, -1], block)
        for f, seed in ((RationalTypeSeries.parse(text), seed), (period1600, 0.67992 + 0.63420j)):
            lam = newton_root(numerator_polynomial(f), seed)
            with pytest.raises(LevelTooDeep):
                certify(f, lam, target=target)


class TestBinaryPeriods:
    """M0 walks the binary instar, whose ceiling of 22 levels lets two
    periods of p <= 11 through: one sampled M0 root at each p = 8..11."""

    CASES = {
        8: ("1;1,1,-1,1,-1,-1,1,-1", -0.42323 + 0.47518j, "failed"),
        9: ("1;1,1,-1,-1,1,-1,-1,1,-1", -0.29614 + 0.58590j, "failed"),
        10: ("1;1,1,-1,-1,1,-1,-1,1,1,-1", -0.281 + 0.596j, "accessible_M0"),
        11: ("1;-1,1,1,-1,-1,-1,1,1,1,-1,-1", 0.28932 + 0.58609j, "accessible_M0"),
    }

    @pytest.mark.parametrize("period", sorted(CASES))
    def test_certificate_finishes(self, period):
        text, seed, verdict = self.CASES[period]
        f = RationalTypeSeries.parse(text)
        assert f.period == period
        report = certify(f, newton_root(numerator_polynomial(f), seed), target="M0")
        assert report.verdict == verdict
        assert [lv.n for lv in report.geometry.levels] == list(range(2 * period))
        assert report.warnings == ()


class TestOneExpression:
    """Each certificate quantity is computed once per call."""

    @pytest.mark.parametrize("target", ["M", "M0"])
    def test_certify_checks_the_root_once(self, roots, fixtures, monkeypatch, target):
        calls = []
        check = certificate._require_root

        def counted(f, lam):
            calls.append(lam)
            return check(f, lam)

        monkeypatch.setattr(certificate, "_require_root", counted)
        certify(fixtures[5].series, roots[5], target=target)
        assert len(calls) == 1

    @staticmethod
    def _count_tables(monkeypatch):
        tables = []
        build = series._taylor_sums

        def counted(*args):
            tables.append(args)
            return build(*args)

        monkeypatch.setattr(certificate, "_taylor_sums", counted)
        return tables

    @pytest.mark.parametrize("target", ["M", "M0"])
    def test_certify_builds_two_tables_at_every_period(self, rng, monkeypatch, target):
        cases = [random_rooted_series(rng, p) for p in range(1, 8)]
        tables = self._count_tables(monkeypatch)
        for f, lam in cases:
            tables.clear()
            certify(f, lam, target=target)
            assert len(tables) == 2, (f, lam)

    def test_weakened_conditions_builds_one_table(self, roots, fixtures, monkeypatch):
        f, lam = fixtures[5].series, roots[5]
        tables = self._count_tables(monkeypatch)
        weakened_conditions(f, lam, range(f.period))
        assert len(tables) == 1

    @pytest.mark.parametrize("target", ["M", "M0"])
    def test_verify_chain_builds_one_table(self, roots, fixtures, monkeypatch, target):
        f, lam = fixtures[5].series, roots[5]
        tables = self._count_tables(monkeypatch)
        verify_chain(f, lam, 2, target)
        assert len(tables) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, lam: selfsim_center(f, lam),
            lambda f, lam: chain_disk(f, lam, 2),
            lambda f, lam: condition_disk_exists(f, lam, 2),
            lambda f, lam: condition_consecutive_overlap(f, lam, 2),
            lambda f, lam: condition_instar_separation(f, lam, 2),
            lambda f, lam: periodicity_residual(f, lam, 2),
            lambda f, lam: parameter_probe(f, lam, 0.1, 2),
        ],
        ids=[
            "selfsim_center", "chain_disk", "disk_exists", "consecutive_overlap",
            "instar_separation", "periodicity_residual", "parameter_probe",
        ],
    )
    def test_checked_entry_point_builds_one_table(self, roots, fixtures, monkeypatch, call):
        calls = []
        check = certificate._require_root

        def counted(f, lam):
            calls.append(lam)
            return check(f, lam)

        monkeypatch.setattr(certificate, "_require_root", counted)
        tables = self._count_tables(monkeypatch)
        call(fixtures[5].series, roots[5])
        assert (len(calls), len(tables)) == (1, 1)

    @pytest.mark.parametrize("n, variant", [(7, "doubled"), (10, "single")])
    def test_separation_records_refused_before_any_is_built(
        self, roots, fixtures, monkeypatch, n, variant
    ):
        def enumerated(*args, **kwargs):
            raise AssertionError("separation records enumerated past the ceiling")

        monkeypatch.setattr(certificate.itertools, "product", enumerated)
        with pytest.raises(EnumerationTooLarge):
            condition_instar_separation(fixtures[5].series, roots[5], n, variant)


class TestReportRoundTrip:
    def test_json_round_trip_field_exact(self, roots, fixtures):
        for i in (1, 5, 6):
            report = certify(fixtures[i].series, roots[i], target="M")
            text = json.dumps(report_to_dict(report))
            back = report_from_dict(json.loads(text))
            assert back == report
