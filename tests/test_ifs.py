import math

import numpy as np
import pytest

from ifslab import (
    LevelTooDeep,
    RationalTypeSeries,
    Word,
    apply_map,
    attractor_sample,
    instar_disks,
    node,
    overlap_itinerary,
    selfsim_residuals,
)
from ifslab import ifs
from ifslab.ifs import MAX_LEVEL, level_blocks, level_nodes, level_words, nodal_radius

LAM_RECT = 1j / math.sqrt(2)


class TestWord:
    def test_parse_and_str(self):
        w = Word.parse("+-O+")
        assert w.letters == (1, -1, 0, 1)
        assert str(w) == "+-O+"
        assert len(w) == 4

    def test_binary_rejects_center(self):
        with pytest.raises(ValueError):
            Word.parse("+O-", binary=True)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            Word.parse("+x")


class TestApplyMap:
    def test_plus_translation(self):
        assert apply_map(1, 0.5, 0j) == 1

    def test_minus_hand_arithmetic(self):
        assert apply_map(-1, LAM_RECT, 1 + 0j) == pytest.approx(-1 + LAM_RECT)

    def test_center_fixes_origin(self):
        assert apply_map(0, 0.3 + 0.9j, 0j) == 0

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            apply_map(2, 0.5, 0j)


class TestNode:
    def test_single_plus(self):
        assert node(Word.parse("+"), 0.77 + 0.1j) == 1

    def test_two_letters(self):
        assert node(Word.parse("+-"), 0.5) == pytest.approx(0.5)

    def test_matches_direct_sum(self, roots):
        lam = roots[5]
        assert node(Word.parse("++-"), lam) == pytest.approx(1 + lam - lam**2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            node(Word(()), 0.5)

    def test_composition_of_maps(self):
        # node of word w equals s_w(0)
        lam = 0.4 + 0.3j
        w = Word.parse("+-O+")
        z = 0j
        for letter in reversed(w.letters):
            z = apply_map(letter, lam, z)
        assert abs(node(w, lam) - z) < 1e-14


class TestInstarDisks:
    def test_level0_binary(self):
        disks = instar_disks(0, 0.5, "binary")
        assert [d.node for d in disks] == [-1, 1]
        assert all(d.disk.radius == pytest.approx(1.0) for d in disks)

    def test_level1_ternary_count(self):
        assert len(instar_disks(1, 0.3 + 0.2j, "ternary")) == 9

    def test_counts(self):
        assert len(instar_disks(3, 0.4 + 0.2j, "binary")) == 2**4
        assert len(instar_disks(3, 0.4 + 0.2j, "ternary")) == 3**4

    def test_rectangle_box(self):
        # at lam = i/sqrt(2) the attractor is the rectangle [-2,2]x[-r2,r2]
        disks = instar_disks(2, LAM_RECT, "binary")
        inflate = nodal_radius(LAM_RECT, 2)
        for d in disks:
            assert abs(d.node.real) <= 2 + inflate + 1e-12
            assert abs(d.node.imag) <= math.sqrt(2) + inflate + 1e-12

    def test_words_lexicographic(self):
        words = [str(d.word) for d in instar_disks(1, 0.5, "ternary")]
        assert words == ["--", "-O", "-+", "O-", "OO", "O+", "+-", "+O", "++"]

    def test_children_inside_parent(self):
        lam = 0.55 + 0.2j
        for level in range(4):
            parents = instar_disks(level, lam, "ternary")
            children = instar_disks(level + 1, lam, "ternary")
            for idx, child in enumerate(children):
                parent = parents[idx // 3]
                gap = abs(child.node - parent.node) + child.disk.radius
                assert gap <= parent.disk.radius + 1e-12

    def test_radius_per_level(self):
        lam = 0.61 + 0.13j
        R = 1 / (1 - abs(lam))
        for level in range(11):
            radii = {d.disk.radius for d in instar_disks(level, lam, "binary")}
            assert len(radii) == 1
            assert radii.pop() == pytest.approx(abs(lam) ** (level + 1) * R)

    def test_level_guards(self):
        with pytest.raises(LevelTooDeep):
            instar_disks(MAX_LEVEL["ternary"] + 1, 0.5 + 0.1j, "ternary")
        with pytest.raises(LevelTooDeep):
            level_nodes(0.5 + 0.1j, MAX_LEVEL["binary"] + 1, "binary")

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            instar_disks(1, 0.5, "decimal")


class TestAttractorSample:
    def test_depth0_binary(self):
        assert sorted(attractor_sample(0.5, 0, "binary").real.tolist()) == [-1, 1]

    def test_real_lambda_interval(self):
        pts = attractor_sample(0.5, 10, "binary")
        assert pts.size == 2048
        assert np.all(pts.imag == 0)
        assert np.all(np.abs(pts.real) <= 2.0)

    def test_rectangle_extremes(self):
        pts = attractor_sample(LAM_RECT, 12, "binary")
        eps = nodal_radius(LAM_RECT, 12)
        assert np.max(np.abs(pts.real)) <= 2.0
        assert np.max(np.abs(pts.real)) >= 2.0 - 4 * eps
        assert np.max(np.abs(pts.imag)) <= math.sqrt(2)

    def test_symmetric_about_origin_exactly(self):
        for alphabet in ("binary", "ternary"):
            pts = attractor_sample(0.52 + 0.31j, 6, alphabet)
            assert np.array_equal(np.sort_complex(pts), np.sort_complex(-pts))

    def test_matches_word_enumeration(self):
        lam = 0.4 + 0.45j
        pts = attractor_sample(lam, 3, "ternary")
        from_words = [node(w, lam) for w in level_words(3, "ternary")]
        assert np.allclose(pts, from_words, rtol=0, atol=1e-14)


class TestLevelBlocks:
    @pytest.mark.parametrize("alphabet, level", [
        ("binary", 0), ("binary", 13), ("ternary", 0), ("ternary", 9),
    ])
    @pytest.mark.parametrize("block", [ifs._BLOCK_NODES, 7])
    def test_blocks_are_the_level_bit_for_bit(self, monkeypatch, alphabet, level, block):
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        lam = 0.52 + 0.31j
        blocks = list(level_blocks(lam, level, alphabet))
        assert all(b.size <= block for b in blocks)
        joined = np.concatenate(blocks)
        expected = level_nodes(lam, level, alphabet)
        assert joined.tobytes() == expected.tobytes()

    def test_level_checked_before_the_first_block(self):
        with pytest.raises(LevelTooDeep):
            level_blocks(0.5 + 0.1j, MAX_LEVEL["ternary"] + 1, "ternary")
        with pytest.raises(ValueError):
            level_blocks(0.5 + 0.1j, -1, "binary")
        with pytest.raises(ValueError):
            level_blocks(0.5 + 0.1j, 2, "decimal")


class TestOverlapItinerary:
    def test_zero_free_series(self):
        f = RationalTypeSeries.parse("1;1,1,-1")
        w = overlap_itinerary(f, (), 7)
        assert w.letters == (1, 1, 1, -1, 1, 1, -1)
        assert w.binary

    def test_sign_choice_at_zero(self):
        f = RationalTypeSeries.parse("1,-1,-1,0;1")
        assert overlap_itinerary(f, (1,), 6).letters == (1, -1, -1, 1, 1, 1)
        assert overlap_itinerary(f, (-1,), 6).letters == (1, -1, -1, -1, 1, 1)

    def test_missing_sign_rejected(self):
        f = RationalTypeSeries.parse("1,-1,-1,0;1")
        with pytest.raises(ValueError):
            overlap_itinerary(f, (), 6)

    def test_bad_sign_rejected(self):
        f = RationalTypeSeries.parse("1,-1,-1,0;1")
        with pytest.raises(ValueError):
            overlap_itinerary(f, (0,), 6)


class TestSelfSimilarityResiduals:
    def test_k0_exact_zero(self, roots, fixtures):
        f = fixtures[5].series
        w = overlap_itinerary(f, (), 16)
        res = selfsim_residuals(f, roots[5], 0j, w, 2, 0)
        assert res.center_residual == 0.0
        assert res.radius_residual == 0.0

    def test_period3_about_origin(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        w = overlap_itinerary(f, (), 16)
        for n in range(3):
            for k in (1, 2):
                res = selfsim_residuals(f, lam, 0j, w, n, k)
                assert res.center_residual <= 1e-10
                assert res.radius_residual <= 1e-10

    def test_one_zero_series_both_signs(self, roots, fixtures):
        f, lam = fixtures[2].series, roots[2]
        for sign in (1, -1):
            w = overlap_itinerary(f, (sign,), 16)
            center = sign * lam**3
            for k in (1, 2):
                res = selfsim_residuals(f, lam, center, w, 0, k)
                assert res.center_residual <= 1e-10 * (1 + abs(center))
                assert res.radius_residual <= 1e-10

    def test_word_inconsistent_with_series(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        bad = Word((1, -1, 1, 1, 1, 1, 1, 1), binary=True)  # a_1 should be +1
        with pytest.raises(ValueError):
            selfsim_residuals(f, lam, 0j, bad, 0, 1)

    def test_word_too_short(self, roots, fixtures):
        f, lam = fixtures[5].series, roots[5]
        w = overlap_itinerary(f, (), 3)
        with pytest.raises(ValueError):
            selfsim_residuals(f, lam, 0j, w, 0, 2)
