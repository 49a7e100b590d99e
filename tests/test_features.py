"""Indicators, scaling, assembly and windowing."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stockcast.config import FEATURE_SETS
from stockcast.errors import StockcastError
from stockcast.features import (
    FeatureMatrix,
    assemble,
    feature_set_columns,
    make_windows,
    minmax_fit,
    minmax_transform,
    rsi,
    select,
    sma,
)
from stockcast.sentiment import DailySentiment

from conftest import make_bar


def sma_oracle(closes, period):
    """Brute-force rolling mean over explicit slices."""
    out = []
    for t in range(len(closes)):
        if t >= period - 1:
            window = closes[t - period + 1:t + 1]
            out.append(sum(window) / period)
        else:
            out.append(None)
    first = next(v for v in out if v is not None)
    return [first if v is None else v for v in out]


def rsi_oracle(closes, period):
    """Literal Wilder recursion, branch by branch."""
    deltas = [closes[t] - closes[t - 1] for t in range(1, len(closes))]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    out = [50.0] * len(closes)
    avg_gain = sum(gains[:period]) / period
    avg_loss = sum(losses[:period]) / period
    for t in range(period, len(closes)):
        if t > period:
            avg_gain = (avg_gain * (period - 1) + gains[t - 1]) / period
            avg_loss = (avg_loss * (period - 1) + losses[t - 1]) / period
        if avg_gain == 0 and avg_loss == 0:
            out[t] = 50.0
        elif avg_loss == 0:
            out[t] = 100.0
        elif avg_gain == 0:
            out[t] = 0.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


class TestSma:
    def test_worked_example(self):
        assert sma([1, 2, 3, 4, 5], 3) == [2.0, 2.0, 2.0, 3.0, 4.0]

    def test_constant_series(self):
        assert sma([7.0] * 6, 4) == [7.0] * 6

    def test_period_one_is_identity(self):
        series = [3.0, 1.0, 4.0, 1.5]
        assert sma(series, 1) == series

    def test_too_short(self):
        with pytest.raises(StockcastError, match="^need at least 3 closes, got 2$"):
            sma([1.0, 2.0], 3)

    @settings(max_examples=100)
    @given(st.lists(st.floats(1.0, 1e4), min_size=5, max_size=40),
           st.integers(1, 5))
    def test_matches_oracle(self, closes, period):
        assert sma(closes, period) == pytest.approx(sma_oracle(closes, period),
                                                    rel=1e-12)

    @settings(max_examples=100)
    @given(st.lists(st.floats(1.0, 1e4), min_size=6, max_size=40))
    def test_within_window_bounds(self, closes):
        period = 4
        out = sma(closes, period)
        for t in range(period - 1, len(closes)):
            window = closes[t - period + 1:t + 1]
            assert min(window) - 1e-9 <= out[t] <= max(window) + 1e-9


class TestRsi:
    def test_strictly_increasing_is_100(self):
        out = rsi([1, 2, 3, 4, 5, 6], 3)
        assert out[3:] == [100.0, 100.0, 100.0]

    def test_strictly_decreasing_is_0(self):
        out = rsi([6, 5, 4, 3, 2, 1], 3)
        assert out[3:] == [0.0, 0.0, 0.0]

    def test_hand_recursion_case(self):
        assert rsi([10, 11, 10], 2) == [50.0, 50.0, 50.0]

    def test_flat_series_is_50(self):
        assert rsi([5.0] * 6, 2) == [50.0] * 6

    def test_warmup_filled_with_50(self):
        out = rsi([10, 11, 10, 12, 11, 13], 3)
        assert out[:3] == [50.0, 50.0, 50.0]

    def test_too_short(self):
        with pytest.raises(StockcastError, match="^need at least 4 closes, got 3$"):
            rsi([1.0, 2.0, 3.0], 3)

    @settings(max_examples=100)
    @given(st.lists(st.floats(1.0, 1e4), min_size=6, max_size=50),
           st.integers(2, 5))
    def test_matches_oracle_and_bounded(self, closes, period):
        if len(closes) < period + 1:
            return
        out = rsi(closes, period)
        assert out == pytest.approx(rsi_oracle(closes, period), rel=1e-12)
        assert all(0.0 <= v <= 100.0 for v in out)


class TestMinmax:
    def test_endpoints_and_midpoint(self):
        state = minmax_fit(np.array([[2.0], [4.0], [6.0]]), ["x"])
        values = minmax_transform(state, np.array([[2.0], [6.0], [4.0]]))
        assert values.ravel().tolist() == [0.0, 1.0, 0.5]

    def test_constant_column_maps_to_zero(self):
        state = minmax_fit(np.array([[5.0], [5.0]]), ["x"])
        out = minmax_transform(state, np.array([[5.0], [7.0]]))
        assert out.ravel().tolist() == [0.0, 0.0]

    def test_empty_column(self):
        with pytest.raises(StockcastError,
                           match="^cannot fit normalization on empty column 'x'$"):
            minmax_fit(np.empty((0, 1)), ["x"])

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30).filter(
        lambda xs: max(xs) > min(xs)))
    def test_training_values_land_in_unit_interval(self, xs):
        col = np.array(xs).reshape(-1, 1)
        state = minmax_fit(col, ["x"])
        out = minmax_transform(state, col)
        assert out.min() >= 0.0 and out.max() <= 1.0


# --- assembly ----------------------------------------------------------------

EXPECTED_WIDTHS = {
    "Prices": 6,
    "Prices-RSI-SMA": 8,
    "Prices-News": 9,
    "Prices-News-RSI-SMA": 11,
    "Prices-Tweets": 9,
    "Prices-Tweets-RSI-SMA": 11,
    "Prices-Tweets-News": 12,
    "Prices-Tweets-News-RSI-SMA": 14,
    "Prices-Weighted-Tweets": 8,
    "Prices-Weighted-Tweets-RSI-SMA": 10,
    "Prices-Weighted-Tweets-News": 11,
    "Prices-Weighted-Tweets-News-RSI-SMA": 13,
}


def daily_rows(dates):
    return [DailySentiment(d, 0.1 * i, 0.5, 0.2 * i, i) for i, d in enumerate(dates)]


def build_inputs(n=8):
    dates = [date(2023, 1, 2) + timedelta(days=i) for i in range(n)]
    bars = [make_bar(d, open_=100 + i, close=101 + i) for i, d in enumerate(dates)]
    indicators = {"rsi": [50.0] * n, "sma": [100.0] * n}
    return dates, bars, indicators


class TestAssemble:
    def test_all_twelve_column_counts(self):
        assert set(EXPECTED_WIDTHS) == set(FEATURE_SETS)
        dates, bars, indicators = build_inputs()
        table = assemble(bars, daily_rows(dates), daily_rows(dates), indicators)
        for feature_set, width in EXPECTED_WIDTHS.items():
            matrix = select(table, feature_set)
            assert len(matrix.columns) == width, feature_set
            assert matrix.values.shape == (len(bars), width)
            assert list(matrix.columns) == feature_set_columns(feature_set)
            for j, name in enumerate(matrix.columns):
                assert matrix.values[:, j].tolist() \
                    == table.values[:, table.columns.index(name)].tolist(), name

    def test_price_columns_in_order(self):
        dates, bars, _ = build_inputs()
        matrix = select(assemble(bars, daily_rows(dates), daily_rows(dates)), "Prices")
        assert matrix.columns == ("open", "high", "low", "close", "adj_close", "volume")
        assert matrix.values[:, 0].tolist() == [b.open for b in bars]

    def test_weighted_block_excludes_confidence(self):
        dates, bars, _ = build_inputs()
        matrix = select(assemble(bars, daily_rows(dates), daily_rows(dates)),
                        "Prices-Weighted-Tweets")
        assert matrix.columns[6:] == ("tweet_mean_ws", "tweet_count")

    def test_misaligned_sentiment_rejected(self):
        dates, bars, _ = build_inputs()
        shifted = daily_rows([d + timedelta(days=1) for d in dates])
        with pytest.raises(StockcastError,
                           match="^inputs not aligned to the trading calendar at 2023-01-02$"):
            select(assemble(bars, shifted, daily_rows(dates)), "Prices-Tweets")


# --- windowing -----------------------------------------------------------------

def matrix_of(values, dates):
    return FeatureMatrix(tuple(dates), ("close",),
                         np.asarray(values, dtype=np.float64).reshape(-1, 1))


class TestMakeWindows:
    def test_index_enumeration(self):
        # oracle: with rows 1..10, lookback 3, split after row 7, valid
        # targets are rows 4..10; 4..7 train, 8..10 test
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        values = [float(i + 1) for i in range(10)]
        expected_train = [t for t in range(3, 10) if dates[t] <= dates[6]]
        expected_test = [t for t in range(3, 10) if dates[t] > dates[6]]
        split = make_windows(matrix_of(values, dates), 3, dates[6])
        assert len(split.train) == len(expected_train) == 4
        assert len(split.test) == len(expected_test) == 3
        assert split.train.dates == tuple(dates[t] for t in expected_train)
        assert split.test.dates == tuple(dates[t] for t in expected_test)

    def test_boundary_lookback(self):
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        values = list(range(1, 11))
        split = make_windows(matrix_of(values, dates), 9, dates[-1])
        assert len(split.train) == 1 and len(split.test) == 0

    def test_insufficient_history(self):
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        with pytest.raises(StockcastError, match="^lookback 7 >= training rows 7$"):
            make_windows(matrix_of(range(10), dates), 7, dates[6])

    def test_causality(self):
        # every sample's window rows predate its target date
        n, lookback = 30, 5
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(n)]
        values = np.arange(n, dtype=float) * 10  # row t holds value 10t
        split = make_windows(matrix_of(values, dates), lookback, dates[19])
        state = split.norm
        for ds_part in (split.train, split.test):
            for X, target_date in zip(ds_part.X, ds_part.dates):
                t = dates.index(target_date)
                raw_rows = (X * (state.maxs - state.mins) + state.mins).ravel()
                assert raw_rows.tolist() == pytest.approx(
                    [10.0 * k for k in range(t - lookback, t)], rel=1e-12, abs=1e-9)

    def test_normalization_fitted_on_train_only(self):
        n = 20
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(n)]
        values = list(range(1, n + 1))  # test rows exceed the train max
        split = make_windows(matrix_of(values, dates), 3, dates[9])
        assert split.train.y.max() <= 1.0 and split.train.y.min() >= 0.0
        assert split.test.y.max() > 1.0  # not clipped
        lo, hi = split.norm.column_state("close")
        assert (lo, hi) == (1.0, 10.0)
