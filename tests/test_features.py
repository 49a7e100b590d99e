"""Indicators, scaling, assembly and windowing."""

import math
import operator
import pickle
from datetime import date, timedelta
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.array_utils import byte_bounds

from stockcast import scoring
from stockcast.config import FEATURE_SETS
from stockcast.errors import StockcastError
from stockcast.features import (
    INDICATOR_COLUMNS,
    PRICE_COLUMNS,
    FeatureMatrix,
    assemble,
    feature_set_columns,
    make_windows,
    rsi,
    select,
    sma,
)
from stockcast.ingest import load_price_csv

from conftest import FIXTURES, make_bar


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
        with pytest.raises(StockcastError, match="^need more than 3 closes, got 3$"):
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


def left_fold(values):
    """values added left to right from the int 0, as Python 3.11's sum() adds."""
    return reduce(operator.add, values, 0)


class TestLeftToRightSums:
    """sma and rsi add floats left to right, never compensated as Python
    3.12's sum() adds them. Each case checks that math.fsum differs on its
    inputs, so a compensated sum would fail it."""

    def test_sma_window_that_cancels(self):
        closes = [1e16, 1.0, -1e16]
        assert left_fold(closes) == 0.0 != math.fsum(closes)
        assert sma(closes, 3) == [0.0, 0.0, 0.0]

    def test_sma_of_the_fixture_closes(self):
        closes = [bar.close for bar in load_price_csv(FIXTURES / "prices.csv")]
        windows = [closes[t - 13:t + 1] for t in range(13, len(closes))]
        assert sma(closes, 14)[13:] == [left_fold(w) / 14 for w in windows]
        assert sum(left_fold(w) != math.fsum(w) for w in windows) > 100

    def test_rsi_first_averages(self):
        # gains 1e16 then fifty 1.0s, each lost in a left fold; losses one 1e16
        closes = [0.0, 1e16, 0.0] + [float(i) for i in range(1, 51)]
        gains = [1e16, 0.0] + [1.0] * 50
        assert left_fold(gains) == 1e16 != math.fsum(gains)
        assert rsi(closes, 52)[-1] == 50.0  # average gain == average loss


def minmax_oracle(table, n_train):
    """Min-max scaling written out column by column: (x - min) / (max - min)
    with each column's min and max over its first n_train rows, and 0.0
    everywhere in a constant column."""
    out = np.empty_like(table)
    for j, column in enumerate(table.T.tolist()):
        lo, hi = min(column[:n_train]), max(column[:n_train])
        out[:, j] = [0.0 if hi == lo else (x - lo) / (hi - lo) for x in column]
    return out


def consecutive_dates(n):
    return [date(2023, 1, 1) + timedelta(days=i) for i in range(n)]


class TestMinmax:
    """make_windows' scaling, against minmax_oracle."""

    def test_endpoints_and_midpoint(self):
        # rows 2, 6, 4 train and 8 tests; lookback 1 windows rows 0..2
        dates = consecutive_dates(4)
        split = make_windows(matrix_of([2.0, 6.0, 4.0, 8.0], dates), 1, dates[2])
        assert split.train.X.ravel().tolist() == [0.0, 1.0]
        assert split.train.y.tolist() == [1.0, 0.5]
        assert split.test.X.ravel().tolist() == [0.5]
        assert split.test.y.tolist() == [1.5]  # above the training max: not clipped
        assert split.close_range == (2.0, 6.0)

    def test_constant_column_maps_to_zero(self):
        # volume is 5.0 on every training row and 7.0 on the test rows
        dates = consecutive_dates(8)
        matrix = FeatureMatrix(tuple(dates), ("close", "volume"),
                               (tuple(map(float, range(8))), (5.0,) * 5 + (7.0,) * 3))
        split = make_windows(matrix, 2, dates[4])
        assert len(split.train.y) == 3 and len(split.test.y) == 3
        for part in (split.train, split.test):
            assert part.X[..., 1].tolist() == [[0.0, 0.0]] * 3
        assert split.test.y.tolist() == [1.25, 1.5, 1.75]

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30).filter(
        lambda xs: max(xs) > min(xs)))
    def test_training_values_land_in_unit_interval(self, xs):
        dates = consecutive_dates(len(xs))
        split = make_windows(matrix_of(xs, dates), 1, dates[-1])
        scaled = minmax_oracle(np.array(xs).reshape(-1, 1), len(xs))
        assert split.train.X.ravel().tobytes() == scaled[:-1, 0].tobytes()
        assert split.train.y.tobytes() == scaled[1:, 0].tobytes()
        assert split.train.X.min() >= 0.0 and split.train.X.max() <= 1.0
        assert split.train.y.min() >= 0.0 and split.train.y.max() <= 1.0

    def test_non_finite_scaled_column_refused(self):
        # a finite column whose training span passes the float range
        dates = consecutive_dates(6)
        ws = (1.7e308, -1.7e308, 0.0, 1.0, 2.0, 3.0)
        matrix = FeatureMatrix(tuple(dates), ("close", "tweet_mean_ws"),
                               (tuple(map(float, range(6))), ws))
        with pytest.raises(StockcastError, match="^feature column 'tweet_mean_ws' is not finite "
                                                 "once min-max scaled on the training rows$"):
            make_windows(matrix, 2, dates[3])


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


def daily_columns(dates):
    """Daily sentiment columns for ``dates``, as scoring.Dataset's ``daily``
    holds them: tweets then news, each mean_label, mean_conf, mean_ws, count."""
    days = range(len(dates))
    source = {"mean_label": [0.1 * i for i in days], "mean_conf": [0.5 for _ in days],
              "mean_ws": [0.2 * i for i in days], "count": list(days)}
    return {f"{prefix}_{key}": column for prefix in ("tweet", "news")
            for key, column in source.items()}


def build_inputs(n=8):
    dates = [date(2023, 1, 2) + timedelta(days=i) for i in range(n)]
    bars = [make_bar(d, open_=100 + i, close=101 + i) for i, d in enumerate(dates)]
    indicators = {"rsi": [50.0] * n, "sma": [100.0] * n}
    return dates, bars, indicators


class TestAssemble:
    def test_all_twelve_column_counts(self):
        assert set(EXPECTED_WIDTHS) == set(FEATURE_SETS)
        dates, bars, indicators = build_inputs()
        table = assemble(bars, daily_columns(dates), indicators)
        for feature_set, width in EXPECTED_WIDTHS.items():
            matrix = select(table, feature_set)
            assert len(matrix.columns) == width, feature_set
            assert [len(column) for column in matrix.values] == [len(bars)] * width
            assert list(matrix.columns) == feature_set_columns(feature_set)
            for column, name in zip(matrix.values, matrix.columns):
                assert column == table.values[table.columns.index(name)], name
        assert all(type(v) is float for column in table.values for v in column)

    def test_price_columns_in_order(self):
        dates, bars, _ = build_inputs()
        matrix = select(assemble(bars, daily_columns(dates)), "Prices")
        assert matrix.columns == ("open", "high", "low", "close", "adj_close", "volume")
        assert list(matrix.values[0]) == [b.open for b in bars]

    def test_weighted_block_excludes_confidence(self):
        dates, bars, _ = build_inputs()
        matrix = select(assemble(bars, daily_columns(dates)),
                        "Prices-Weighted-Tweets")
        assert matrix.columns[6:] == ("tweet_mean_ws", "tweet_count")

    def test_daily_columns_keep_their_names(self):
        dates, bars, indicators = build_inputs()
        daily = daily_columns(dates)
        table = assemble(bars, daily, indicators)
        assert table.columns == (*PRICE_COLUMNS, *scoring.DAILY_SENTIMENT_COLUMNS[1:],
                                 *INDICATOR_COLUMNS)
        for name, column in daily.items():
            assert table.values[table.columns.index(name)] == tuple(map(float, column)), name

    def test_short_indicator_rejected(self):
        dates, bars, indicators = build_inputs()
        indicators["rsi"] = indicators["rsi"][:-1]
        with pytest.raises(StockcastError,
                           match="^inputs not aligned to the trading calendar at 2023-01-09$"):
            assemble(bars, daily_columns(dates), indicators)


# --- windowing -----------------------------------------------------------------

def matrix_of(values, dates):
    return FeatureMatrix(tuple(dates), ("close",), (tuple(map(float, values)),))


def check_windows_are_views(matrix, lookback, split_date):
    """make_windows' train and test X are read-only views of one table,
    bit for bit the np.stack copies of minmax_oracle's rows, and pickle (as
    they reach a pool worker) as contiguous copies; each y is a contiguous
    copy of the oracle's close targets. Returns the split."""
    split = make_windows(matrix, lookback, split_date)
    n, n_train = len(matrix.dates), sum(1 for d in matrix.dates if d <= split_date)
    scaled = minmax_oracle(np.column_stack(matrix.values), n_train)
    close = matrix.columns.index("close")
    lows, highs = [], []
    for part, targets in ((split.train, range(lookback, n_train)), (split.test, range(n_train, n))):
        stacked = np.stack([scaled[t - lookback:t] for t in targets]) if targets \
            else np.empty((0, lookback, len(matrix.columns)))
        assert part.X.shape == stacked.shape and part.X.dtype == stacked.dtype
        assert part.X.tobytes() == stacked.tobytes()
        assert not part.X.flags.writeable and not part.X.flags.owndata
        assert part.y.tobytes() == scaled[targets.start:targets.stop, close].tobytes()
        assert part.y.flags.c_contiguous and part.y.flags.owndata
        assert part.dates == tuple(matrix.dates[t] for t in targets)
        sent = pickle.loads(pickle.dumps(part.X))
        assert sent.flags.c_contiguous and sent.tobytes() == stacked.tobytes()
        if targets:
            low, high = byte_bounds(part.X)
            lows.append(low)
            highs.append(high)
    # the windows together span one table's bytes, however many windows there are
    assert max(highs) - min(lows) <= scaled.nbytes
    if len(split.test.y):
        assert np.shares_memory(split.train.X, split.test.X)
    return split


class TestMakeWindows:
    def test_index_enumeration(self):
        # oracle: with rows 1..10, lookback 3, split after row 7, valid
        # targets are rows 4..10; 4..7 train, 8..10 test
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        values = [float(i + 1) for i in range(10)]
        expected_train = [t for t in range(3, 10) if dates[t] <= dates[6]]
        expected_test = [t for t in range(3, 10) if dates[t] > dates[6]]
        split = make_windows(matrix_of(values, dates), 3, dates[6])
        assert len(split.train.y) == len(expected_train) == 4
        assert len(split.test.y) == len(expected_test) == 3
        assert split.train.dates == tuple(dates[t] for t in expected_train)
        assert split.test.dates == tuple(dates[t] for t in expected_test)

    def test_boundary_lookback(self):
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        values = list(range(1, 11))
        split = make_windows(matrix_of(values, dates), 9, dates[-1])
        assert len(split.train.y) == 1 and len(split.test.y) == 0

    def test_insufficient_history(self):
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(10)]
        with pytest.raises(StockcastError, match="^lookback 7 >= training rows 7 "
                                                 "up to split_date 2023-01-07$"):
            make_windows(matrix_of(range(10), dates), 7, dates[6])

    def test_causality(self):
        # every sample's window rows predate its target date
        n, lookback = 30, 5
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(n)]
        values = np.arange(n, dtype=float) * 10  # row t holds value 10t
        split = make_windows(matrix_of(values, dates), lookback, dates[19])
        lo, hi = split.close_range
        for ds_part in (split.train, split.test):
            for X, target_date in zip(ds_part.X, ds_part.dates):
                t = dates.index(target_date)
                raw_rows = (X * (hi - lo) + lo).ravel()
                assert raw_rows.tolist() == pytest.approx(
                    [10.0 * k for k in range(t - lookback, t)], rel=1e-12, abs=1e-9)

    def test_normalization_fitted_on_train_only(self):
        n = 20
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(n)]
        values = list(range(1, n + 1))  # test rows exceed the train max
        split = make_windows(matrix_of(values, dates), 3, dates[9])
        assert split.train.y.max() <= 1.0 and split.train.y.min() >= 0.0
        assert split.test.y.max() > 1.0  # not clipped
        assert split.close_range == (1.0, 10.0)
        scaled = minmax_oracle(np.array(values, dtype=float).reshape(-1, 1), 10)
        assert split.test.y.tobytes() == scaled[10:, 0].tobytes()

    def test_windows_are_views_with_an_empty_test_split(self):
        dates = [date(2023, 1, 1) + timedelta(days=i) for i in range(12)]
        values = np.arange(24, dtype=float).reshape(12, 2) ** 1.5
        matrix = FeatureMatrix(tuple(dates), ("close", "volume"),
                               tuple(map(tuple, values.T.tolist())))
        split = check_windows_are_views(matrix, 4, dates[-1])
        assert (len(split.train.y), len(split.test.y)) == (8, 0)
        assert split.test.X.shape == (0, 4, 2)
