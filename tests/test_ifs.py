import itertools
import math

import numpy as np
import pytest

from ifslab import (
    LevelTooDeep,
    RationalTypeSeries,
    Word,
    attractor_sample,
    node,
    overlap_itinerary,
    selfsim_residuals,
)
from ifslab import ifs
from ifslab.ifs import MAX_LEVEL, level_blocks, level_nodes, nodal_radius
from oracles import level_chunks_broadcast, level_nodes_broadcast

LAM_RECT = 1j / math.sqrt(2)

#: Block bounds for the walks: the default (3^9); 2^14, binary blocks of the
#: default size under a bound that is no power of 3, so ternary ones of 3^8;
#: and 7, ternary blocks of 3 nodes and binary ones of 4, many stages deep.
BLOCKS = [ifs._BLOCK_NODES, 1 << 14, 7]


class TestWord:
    def test_letters_and_len(self):
        w = Word((1, -1, 0, 1))
        assert w.letters == (1, -1, 0, 1)
        assert len(w) == 4

    def test_binary_rejects_center(self):
        with pytest.raises(ValueError):
            Word((1, 0, -1), binary=True)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            Word((1, 2))


class TestNode:
    def test_single_plus(self):
        assert node(Word((1,)), 0.77 + 0.1j) == 1

    def test_two_letters(self):
        assert node(Word((1, -1)), 0.5) == pytest.approx(0.5)

    def test_matches_direct_sum(self, roots):
        lam = roots[5]
        assert node(Word((1, 1, -1)), lam) == pytest.approx(1 + lam - lam**2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            node(Word(()), 0.5)

    def test_composition_of_maps(self):
        # node of word w equals s_w(0)
        lam = 0.4 + 0.3j
        w = Word((1, -1, 0, 1))
        z = 0j
        for letter in reversed(w.letters):
            z = letter + lam * z
        assert abs(node(w, lam) - z) < 1e-14


class TestInstarDisks:
    """The level-n instar: the nodes of ``level_nodes`` with the one radius
    of ``nodal_radius``."""

    def test_level0_binary(self):
        assert level_nodes(0.5, 0, "binary").tolist() == [-1, 1]
        assert nodal_radius(0.5, 0) == pytest.approx(1.0)

    def test_level1_ternary_count(self):
        assert level_nodes(0.3 + 0.2j, 1, "ternary").size == 9

    def test_counts(self):
        assert level_nodes(0.4 + 0.2j, 3, "binary").size == 2**4
        assert level_nodes(0.4 + 0.2j, 3, "ternary").size == 3**4

    def test_rectangle_box(self):
        # at lam = i/sqrt(2) the attractor is the rectangle [-2,2]x[-r2,r2]
        nodes = level_nodes(LAM_RECT, 2, "binary")
        inflate = nodal_radius(LAM_RECT, 2)
        assert np.all(np.abs(nodes.real) <= 2 + inflate + 1e-12)
        assert np.all(np.abs(nodes.imag) <= math.sqrt(2) + inflate + 1e-12)

    def test_words_lexicographic(self):
        nodes = level_nodes(0.5, 1, "ternary")
        words = itertools.product((-1, 0, 1), repeat=2)
        assert nodes.tolist() == [a0 + a1 * 0.5 for a0, a1 in words]

    def test_children_inside_parent(self):
        lam = 0.55 + 0.2j
        for level in range(4):
            parents = level_nodes(lam, level, "ternary")
            children = level_nodes(lam, level + 1, "ternary")
            gap = np.abs(children - np.repeat(parents, 3)) + nodal_radius(lam, level + 1)
            assert np.all(gap <= nodal_radius(lam, level) + 1e-12)

    def test_radius_per_level(self):
        lam = 0.61 + 0.13j
        R = 1 / (1 - abs(lam))
        for level in range(11):
            assert nodal_radius(lam, level) == pytest.approx(abs(lam) ** (level + 1) * R)

    def test_level_guards(self):
        with pytest.raises(LevelTooDeep):
            level_nodes(0.5 + 0.1j, MAX_LEVEL["ternary"] + 1, "ternary")
        with pytest.raises(LevelTooDeep):
            level_nodes(0.5 + 0.1j, MAX_LEVEL["binary"] + 1, "binary")

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            level_nodes(0.5, 1, "decimal")


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
        from_words = []
        for letters in itertools.product((-1, 0, 1), repeat=4):
            z = 0j
            for letter in reversed(letters):
                z = letter + lam * z
            from_words.append(z)
        assert np.allclose(pts, from_words, rtol=0, atol=1e-14)


class TestLevelBlocks:
    @pytest.mark.parametrize("alphabet, level", [
        ("binary", 0), ("binary", 13), ("ternary", 0), ("ternary", 9),
    ])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_blocks_are_the_level_bit_for_bit(self, monkeypatch, alphabet, level, block):
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        lam = 0.52 + 0.31j
        blocks = list(level_blocks(lam, level, alphabet))
        assert all(b.size <= block for b in blocks)
        joined = np.concatenate(blocks)
        expected = level_nodes(lam, level, alphabet)
        assert joined.tobytes() == expected.tobytes()

    def test_one_weight_table_per_walk(self, monkeypatch):
        # blocks of 3 nodes: 19,683 blocks, every one folded with the walk's
        # one table of letter weights
        monkeypatch.setattr(ifs, "_BLOCK_NODES", 7)
        tables = []
        letter_weights = ifs._letter_weights

        def counted(*args):
            tables.append(args)
            return letter_weights(*args)

        monkeypatch.setattr(ifs, "_letter_weights", counted)
        assert sum(b.size for b in level_blocks(0.52 + 0.31j, 9, "ternary")) == 3**10
        assert len(tables) == 1

    def test_level_checked_before_the_first_block(self):
        with pytest.raises(LevelTooDeep):
            level_blocks(0.5 + 0.1j, MAX_LEVEL["ternary"] + 1, "ternary")
        with pytest.raises(ValueError):
            level_blocks(0.5 + 0.1j, -1, "binary")
        with pytest.raises(ValueError):
            level_blocks(0.5 + 0.1j, 2, "decimal")

    @pytest.mark.parametrize("block", [7, 20, 1 << 14, ifs._BLOCK_NODES])
    @pytest.mark.parametrize("alphabet, level", [("ternary", 11), ("binary", 16)])
    def test_every_block_has_one_size(self, monkeypatch, block, alphabet, level):
        # the certificate's clearance sizes its arrays to a block, and
        # allocates them again whenever the size changes; the last block
        # is as large as the others, since a stage's runs of prefixes
        # divide the blocks of the stage above
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        k = 3 if alphabet == "ternary" else 2
        sizes = {b.size for b in level_blocks(0.52 + 0.31j, level, alphabet)}
        assert sizes == {k ** ifs._levels_within(k, block)}

    @pytest.mark.parametrize("block", [ifs._BLOCK_NODES, 20])
    @pytest.mark.parametrize("alphabet, level", [("ternary", 11), ("binary", 16)])
    def test_a_kept_block_outlives_the_next(self, monkeypatch, block, alphabet, level):
        # every block is an array of its own, which no later block reuses
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        blocks = level_blocks(0.52 + 0.31j, level, alphabet)
        first = next(blocks)
        kept = first.tobytes()
        second = next(blocks)
        assert second.tobytes() != kept
        assert first.tobytes() == kept

    @pytest.mark.parametrize("alphabet, level", [("ternary", 14), ("binary", 22)])
    def test_folds_start_from_long_runs_of_prefixes(self, monkeypatch, alphabet, level):
        # a fold pays its per-level call overhead once per call, so a walk
        # of the deepest level must not grow its blocks from 1 or 2 prefixes
        starts = []
        fold = ifs._fold

        def counted(nodes, *args):
            starts.append(nodes.size)
            return fold(nodes, *args)

        monkeypatch.setattr(ifs, "_fold", counted)
        for _ in level_blocks(0.52 + 0.31j, level, alphabet):
            pass
        assert sum(starts) / len(starts) >= 100

    @pytest.mark.parametrize("alphabet, level", [("ternary", 14), ("binary", 22)])
    def test_deepest_levels_bit_for_bit(self, alphabet, level):
        # a whole level would take 0.1-0.2 GB, so the two ordered streams
        # are compared slice by slice as they come, against the broadcast
        # fold of ``oracles``
        lam = TestFoldOracle.LAMS["mixed"]
        chunks = level_chunks_broadcast(lam, level, alphabet)
        k = 3 if alphabet == "ternary" else 2
        size = k ** ifs._levels_within(k, ifs._BLOCK_NODES)
        want, count = np.empty(0, np.complex128), 0
        for block in level_blocks(lam, level, alphabet):
            assert block.size == size <= ifs._BLOCK_NODES
            while want.size < block.size:
                want = np.concatenate([want, next(chunks)])
            assert block.tobytes() == want[:block.size].tobytes(), count
            want, count = want[block.size:], count + block.size
        assert want.size == 0 and next(chunks, None) is None
        assert count == k ** (level + 1)


class TestFoldOracle:
    """``level_nodes`` and the joined ``level_blocks`` have the bits of the
    broadcast fold kept in ``oracles``.  Some of the lambda have a zero real
    or imaginary part, so the signs of zeros are compared too."""

    LAMS = {"half": 0.5, "i/sqrt2": LAM_RECT, "mixed": -0.3 + 0.6j, "landmark5": None}

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("alphabet", ["binary", "ternary"])
    @pytest.mark.parametrize("name", sorted(LAMS))
    def test_nodes_equal_broadcast_fold(self, monkeypatch, roots, name, alphabet, block):
        monkeypatch.setattr(ifs, "_BLOCK_NODES", block)
        lam = roots[5] if self.LAMS[name] is None else self.LAMS[name]
        for level in range(11):
            expected = level_nodes_broadcast(lam, level, alphabet).tobytes()
            assert level_nodes(lam, level, alphabet).tobytes() == expected, level
            blocks = list(level_blocks(lam, level, alphabet))
            assert np.concatenate(blocks).tobytes() == expected, level


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
