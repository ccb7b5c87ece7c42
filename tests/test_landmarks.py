import math

import pytest

from ifslab import (
    HypothesisViolated,
    NotARoot,
    RationalTypeSeries,
    UnknownLandmark,
    existence_margins,
    landmark,
    landmark_root,
    rational_eval,
    run_suite,
    sector_contains,
    sector_inequalities,
)
from ifslab.landmarks import evaluate_landmark

REFERENCE_VALUES = {
    1: 0.5957439 + 0.2544259j,
    2: 0.6219644 + 0.1877304j,
    3: 0.643703 + 0.140749j,
    4: 0.63601 + 0.106924j,
    5: -0.366 + 0.520j,
    6: 0.57395 + 0.368989j,
}


class TestFixtures:
    def test_types(self):
        assert (landmark(5).series.preperiod, landmark(5).series.period) == (0, 3)
        assert (landmark(2).series.preperiod, landmark(2).series.period) == (3, 1)
        assert (landmark(6).series.preperiod, landmark(6).series.period) == (2, 1)

    def test_unknown_id(self):
        for bad in (0, 7, -1):
            with pytest.raises(UnknownLandmark):
                landmark(bad)

    def test_roots_near_published_values(self, roots):
        for i in range(1, 7):
            tol = 1e-3 if i == 5 else 1e-4
            assert abs(roots[i] - REFERENCE_VALUES[i]) < tol

    def test_root_residuals(self, roots):
        for i in range(1, 7):
            assert abs(rational_eval(landmark(i).series, roots[i])) < 1e-10

    def test_landmark_root_matches_fixture_seed_basin(self):
        assert abs(landmark_root(1) - REFERENCE_VALUES[1]) < 1e-6


class TestSector:
    def test_landmarks_in_sector(self, roots):
        for i in (1, 2, 3, 4):
            assert sector_contains(roots[i])

    def test_period3_landmark_outside(self, roots):
        assert not sector_contains(roots[5])  # argument ~2.18 rad

    def test_negative_control_outside(self, roots):
        assert not sector_contains(roots[6])  # modulus ~0.682 > 2/3

    def test_real_axis_excluded(self):
        assert not sector_contains(0.65 + 0j)  # arg = 0 is not > 0

    def test_modulus_bounds(self):
        low = (math.sqrt(5) - 1) / 2
        assert not sector_contains((low - 0.01) * complex(math.cos(0.2), math.sin(0.2)))
        assert not sector_contains(0.68 * complex(math.cos(0.2), math.sin(0.2)))


class TestSectorInequalities:
    def test_all_pass_at_sector_landmarks(self, roots):
        for i in (1, 2, 3, 4):
            records = sector_inequalities(roots[i])
            assert [r.which for r in records] == ["a", "b", "c", "d", "e"]
            assert all(r.passed for r in records)

    def test_last_inequality_fails_at_minus_half(self):
        records = sector_inequalities(-0.5 + 0j)
        by = {r.which: r for r in records}
        assert not by["e"].passed
        assert by["e"].margin == pytest.approx(-0.5)

    def test_margins_have_sector_slack(self, roots):
        # inside S every margin clears 0.05
        for i in (1, 2, 3, 4):
            assert min(r.margin for r in sector_inequalities(roots[i])) > 0.05


class TestExistenceMargins:
    def test_period3_records(self, roots, fixtures):
        records = existence_margins(fixtures[5].series, roots[5])
        assert len(records) == 3
        assert all(r.passed for r in records)

    def test_last_record_uses_collapsed_taylor_value(self, roots, fixtures):
        lam = roots[5]
        records = existence_margins(fixtures[5].series, lam)
        assert records[2].lhs == pytest.approx(4 * abs(lam) ** 3, rel=1e-10)

    def test_perturbed_parameter_rejected(self, roots, fixtures):
        with pytest.raises(NotARoot):
            existence_margins(fixtures[5].series, roots[5] + 0.1)

    def test_warns_like_the_certificate(self):
        # the root check is the certificate's, so a real root is flagged
        with pytest.warns(HypothesisViolated, match="real"):
            existence_margins(RationalTypeSeries.parse("1;-1"), 0.5)


class TestSuite:
    def test_all_landmarks_meet_expectations(self):
        outcomes = run_suite()
        assert len(outcomes) == 6
        assert all(oc.expected_ok for oc in outcomes)

    def test_verdicts_and_flags(self):
        outcomes = {oc.id: oc for oc in run_suite()}
        for i in range(1, 6):
            assert outcomes[i].verdict == "accessible_M"
        assert outcomes[6].verdict == "failed"
        assert [outcomes[i].shared_boundary for i in range(1, 7)] == [
            True, False, False, True, True, False,
        ]
        assert [outcomes[i].overlap_count for i in range(1, 7)] == [1, 2, 4, 1, 1, 2]

    def test_single_landmark_evaluation(self):
        oc = evaluate_landmark(3)
        assert oc.id == 3 and oc.expected_ok
        assert oc.overlap_count == 4

    def test_probe_outcomes(self):
        # the chain-disk center lies outside the attractor, so its probe
        # escapes at landmarks 1-5 and its reflection's probe survives;
        # landmark 6 is the negative control, whose chain does not connect
        outcomes = run_suite()
        assert [oc.probe_out for oc in outcomes] == [
            "M:depth40:escaped(7)", "M:depth40:escaped(6)", "M:depth40:escaped(7)",
            "M:depth40:escaped(6)", "M:depth40:escaped(14)", "M:depth40:survived",
        ]
        assert [oc.probe_in for oc in outcomes] == ["M:depth40:survived"] * 6

    def test_sector_landmark_margins_positive(self):
        for oc in run_suite([1, 2, 3, 4]):
            assert oc.min_condition_margin > 1e-3
