from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from topostab.errors import DataError, ZeroVariance, ZeroVarianceDiff
from topostab.pipeline import hexbin_csv
from topostab.stats import (average_precision, hexbin, paired_t_one_tailed,
                            pearson_r, signed_log, stratified_split, t_sf)

from oracles import aps_by_threshold_sweep, reference_hexbin


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        assert average_precision([0.4, 0.3, 0.2, 0.1], [0, 0, 0, 1]) \
            == pytest.approx(0.25)

    def test_interleaved(self):
        got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx(1.0 / 2 * (1 + 2 / 3), abs=1e-12)

    def test_matches_sweep_oracle_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            truths = rng.integers(0, 2, size=n)
            if truths.sum() == 0:
                truths[0] = 1
            scores = np.round(rng.random(n), 2)  # force ties
            assert average_precision(scores, truths) == pytest.approx(
                aps_by_threshold_sweep(scores, truths), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        scores = rng.random(60)
        truths = rng.integers(0, 2, size=60)
        truths[0] = 1
        base = average_precision(scores, truths)
        assert average_precision(np.exp(3 * scores), truths) \
            == pytest.approx(base, abs=1e-12)

    def test_random_scores_concentrate_near_prevalence(self):
        rng = np.random.default_rng(2)
        truths = np.array([1] * 70 + [0] * 130)
        prevalence = 0.35
        vals = []
        for _ in range(100):
            vals.append(average_precision(rng.random(200), truths))
        assert abs(np.mean(vals) - prevalence) < 0.15

    def test_no_positives_raises(self):
        with pytest.raises(ValueError):
            average_precision([0.5, 0.4], [0, 0])


class TestPearson:
    def test_exact_line(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_r([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0)

    def test_known_value(self):
        assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) \
            == pytest.approx(0.8, abs=5e-3)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(50), rng.random(50)
        r = pearson_r(x, y)
        assert pearson_r(y, x) == pytest.approx(r, abs=1e-12)
        assert pearson_r(2.5 * x + 7, y) == pytest.approx(r, abs=1e-9)
        assert pearson_r(-x, y) == pytest.approx(-r, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(80), rng.random(80)
        assert pearson_r(x, y) == pytest.approx(
            scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(ZeroVariance):
            pearson_r([1, 1, 1], [1, 2, 3])


class TestStudentT:
    def test_published_table_value(self):
        # two-sided 0.05 critical value at df=9
        assert t_sf(2.262, 9) == pytest.approx(0.025, abs=1e-3)

    def test_sf_against_scipy(self):
        for t in (-3.0, -0.5, 0.0, 0.7, 2.262, 6.1):
            for df in (1, 4, 9, 30, 200):
                assert t_sf(t, df) == pytest.approx(
                    scipy.stats.t.sf(t, df), abs=1e-8)

    def test_paired_t_matches_scipy(self):
        rng = np.random.default_rng(8)
        a = rng.random(12)
        b = a + rng.normal(0.1, 0.05, size=12)
        t, p = paired_t_one_tailed(b, a)
        ref = scipy.stats.ttest_rel(b, a, alternative="greater")
        assert t == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_near_constant_positive_shift_rejects(self):
        rng = np.random.default_rng(9)
        a = rng.random(8)
        t, p = paired_t_one_tailed(a + 1.0 + rng.normal(0, 1e-6, size=8), a)
        assert p < 0.001

    def test_constant_difference_raises(self):
        a = np.arange(5.0)
        with pytest.raises(ZeroVarianceDiff):
            paired_t_one_tailed(a + 2.0, a)


class TestStratifiedSplit:
    def test_proportions_and_disjointness(self):
        ids = [f"s{i}" for i in range(40)]
        labels = ["a"] * 30 + ["b"] * 10
        train, valid = stratified_split(ids, labels, fraction=0.8, seed=1)
        assert len(train) == 32 and len(valid) == 8
        assert set(train) | set(valid) == set(ids)
        assert not set(train) & set(valid)
        train_b = sum(1 for t in train if ids.index(t) >= 30)
        assert train_b == 8

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"s{i}" for i in range(30)]
        labels = (["a", "b"] * 15)
        one = stratified_split(ids, labels, seed=5)
        two = stratified_split(ids, labels, seed=5)
        other = stratified_split(ids, labels, seed=6)
        assert one == two
        assert one != other

    def test_single_class_raises(self):
        with pytest.raises(DataError, match="^stratified_split needs both "
                           "classes present$"):
            stratified_split(["a", "b"], ["x", "x"])

    @pytest.mark.parametrize("fraction, cls, side", [
        (0.1, "b", "training"),             # 1 of a's 10, 0 of b's 6
        (0.99999999999, "a", "validation"),
        (1.0, "a", "validation")])
    def test_class_with_an_empty_side_raises(self, fraction, cls, side):
        ids = [f"s{i}" for i in range(16)]
        labels = ["a"] * 10 + ["b"] * 6
        with pytest.raises(DataError, match=f"^split fraction {fraction} "
                           f"leaves class '{cls}' with no {side} member$"):
            stratified_split(ids, labels, fraction=fraction)


class TestHexbin:
    def test_single_stable_point(self):
        rows = hexbin([(0.2, 0.3)], [True], side=1.0)
        assert len(rows) == 1
        assert rows[0][2] == 1

    def test_opposite_labels_cancel(self):
        rows = hexbin([(0.1, 0.1), (0.11, 0.1)], [True, False], side=1.0)
        assert len(rows) == 1
        assert rows[0][2] == 0
        assert rows[0][3] == 0.0

    def test_ten_unstable_export_value(self):
        pts = [(0.01 * k, 0.0) for k in range(10)]
        rows = hexbin(pts, [False] * 10, side=2.0)
        assert len(rows) == 1
        assert rows[0][2] == -10
        assert rows[0][3] == pytest.approx(-math.log(11.0))

    def test_every_point_lands_in_exactly_one_hex(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(500, 2)) * 3
        labels = rng.integers(0, 2, 500).astype(bool)
        n_stable = int(labels.sum())
        # all-same-label grids account for every point; the signed grid's
        # net count must equal the label imbalance
        all_plus = hexbin(pts, np.ones(500, dtype=bool), side=0.7)
        assert sum(c for _, _, c, _ in all_plus) == 500
        signed = sum(c for _, _, c, _ in hexbin(pts, labels, side=0.7))
        assert signed == n_stable - (500 - n_stable)

    def test_nearest_center_is_own_hex(self):
        rng = np.random.default_rng(7)
        side = 0.9
        for _ in range(300):
            u, v = rng.normal(size=2) * 4
            [(cu, cv, _, _)] = hexbin([(u, v)], [True], side=side)
            # no neighboring center is strictly closer
            d_own = math.hypot(u - cu, v - cv)
            for dq, dr in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1),
                           (-1, 1)]:
                nu = cu + side * math.sqrt(3.0) * (dq + dr / 2.0)
                nv = cv + side * 1.5 * dr
                assert d_own <= math.hypot(u - nu, v - nv) + 1e-9

    def test_rows_are_sorted_python_numbers(self):
        rng = np.random.default_rng(8)
        rows = hexbin(rng.normal(size=(200, 2)), rng.integers(0, 2, 200),
                      side=0.5)
        for row in rows:
            assert [type(x) for x in row] == [float, float, int, float]
        # axial (q, r) order: r = v / (1.5 side), q = u / (sqrt3 side) - r/2
        keys = [(round(u / (math.sqrt(3.0) * 0.5) - v / 1.5), round(v / 0.75))
                for u, v, _, _ in rows]
        assert keys == sorted(set(keys))

    def test_empty_and_bad_side(self):
        assert hexbin(np.zeros((0, 2)), np.zeros(0, dtype=bool), 1.0) == []
        with pytest.raises(ValueError, match="positive"):
            hexbin([(0.0, 0.0)], [True], side=0.0)

    @pytest.mark.parametrize("points, side", [
        # a side so small that the lattice coordinates pass 2^63
        ([(0.1, 0.2), (0.3, 0.4)], 1e-300),
        # or overflow to inf
        ([(1e10, 0.0), (0.0, 1.0)], 1e-300),
        # a side derived from a u range of one ulp
        ([(1.0, 1e10), (1.0 + 2.0 ** -52, 1e10)], None),
    ])
    def test_points_off_the_int64_lattice_raise(self, points, side):
        with pytest.raises(DataError, match="outside the int64 hex lattice"):
            hexbin_csv(np.array(points), np.array([True, False]), side)

    def test_signed_log(self):
        assert signed_log(0) == 0.0
        assert signed_log(10) == pytest.approx(math.log(11.0))
        assert signed_log(-10) == pytest.approx(-math.log(11.0))


def _boundary_points(rng, side, n):
    """Points on a quarter grid of the hex lattice's axial frame: many sit
    exactly on hex edges and corners, where rounding ties decide."""
    q = rng.integers(-12, 13, size=n) / 4.0
    r = rng.integers(-12, 13, size=n) / 4.0
    return np.column_stack([side * math.sqrt(3.0) * (q + r / 2.0),
                            side * 1.5 * r])


class TestHexbinMatchesReference:
    """The array hexbin against the per-point loop of tests/oracles.py,
    compared by repr so every float matches bit for bit."""

    def _check(self, pts, labels, side):
        got = hexbin(pts, labels, side)
        assert repr(got) == repr(reference_hexbin(pts, labels, side))

    def test_random_inputs(self):
        rng = np.random.default_rng(9)
        for k in range(200):
            n = int(rng.integers(1, 300))
            scale = 10.0 ** rng.uniform(-3, 3)
            pts = rng.normal(size=(n, 2)) * scale + rng.normal(size=2)
            labels = rng.integers(0, 2, n).astype(bool)
            self._check(pts, labels, float(scale * rng.uniform(0.01, 2.0)))

    @pytest.mark.parametrize("side", [1.0, 0.05, 0.3, 7.0])
    def test_points_on_hex_boundaries(self, side):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            self._check(_boundary_points(rng, side, n),
                        rng.integers(0, 2, n).astype(bool), side)

    def test_half_integer_axial_ties(self):
        # qf, rf and -qf-rf exact halves: round and np.rint go to even
        pts = [(math.sqrt(3.0) * (q + r / 2.0), 1.5 * r)
               for q in (-2.5, -0.5, 0.5, 1.5, 2.5) for r in (-1.5, 0.5, 2.5)]
        self._check(pts, [True, False] * 7 + [True], 1.0)
