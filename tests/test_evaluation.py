"""Metric fixtures and replicate averaging."""

import math

import pytest
from hypothesis import given, strategies as st

from stockcast.errors import StockcastError
from stockcast.evaluation import mae, r_squared, replicate_average


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_worked_example(self):
        assert r_squared([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_target(self):
        with pytest.raises(StockcastError, match="^target series is constant$"):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(StockcastError, match=r"^\(2,\) vs \(1,\)$"):
            r_squared([1.0, 2.0], [1.0])
        with pytest.raises(StockcastError, match="^need at least 2 points, got 1$"):
            r_squared([1.0], [1.0])

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        y = [1.0, 2.0, 4.0, 4.5, 5.0, 7.0]
        p = [1.1, 1.9, 4.2, 4.4, 5.3, 6.8]
        base = r_squared(y, p)
        shuffled = r_squared([y[i] for i in order], [p[i] for i in order])
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestMae:
    def test_identical(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert mae([1.0, 2.0], [1.5, 2.5]) == 0.5

    def test_worked_example(self):
        assert mae([1, 2, 3], [1, 2, 4]) == pytest.approx(1 / 3, abs=1e-12)

    def test_triangle_bound(self):
        y = [1.0, 2.0, 3.0]
        w = [1.5, 1.5, 2.0]
        z = [0.5, 2.5, 4.0]
        assert mae(y, z) <= mae(y, w) + mae(w, z) + 1e-12


class TestReplicateAverage:
    def report(self, r2s):
        return replicate_average("Prices", "normalized", r2s, [v / 10 for v in r2s])

    def test_mean(self):
        report = self.report([0.9, 0.8])
        assert report.r2_mean == pytest.approx(0.85)
        assert report.r2_runs == (0.9, 0.8)

    def test_singleton(self):
        report = self.report([0.7])
        assert report.r2_mean == 0.7 and len(report.r2_runs) == 1

    def test_ten_identical(self):
        report = self.report([0.9] * 10)
        assert report.r2_mean == pytest.approx(0.9) and len(report.r2_runs) == 10

    @given(st.permutations(list(range(5))))
    def test_permutation_invariant(self, order):
        r2s = [0.1, 0.5, 0.9, 0.3, 0.7]
        base = self.report(r2s)
        shuffled = self.report([r2s[i] for i in order])
        assert shuffled.r2_mean == pytest.approx(base.r2_mean, rel=1e-12)
        assert shuffled.mae_mean == pytest.approx(base.mae_mean, rel=1e-12)

    def test_left_to_right_mean(self):
        # added left to right the 1.0 is lost; math.fsum, as 3.12's sum() would, keeps it
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        report = self.report(values)
        assert report.r2_mean == 0.0
        assert report.mae_mean == ((1e15 + 0.1) - 1e15) / 3 != math.fsum([1e15, 0.1, -1e15]) / 3
