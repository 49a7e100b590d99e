"""Technical indicators, feature assembly, and scaled windowing.

Twelve feature sets (config.FEATURE_SETS) combine four column blocks in
a fixed order:

    prices      open, high, low, close, adj_close, volume
    tweets      tweet_mean_label, tweet_mean_conf, tweet_count
    w-tweets    tweet_mean_ws, tweet_count        (replaces tweets)
    news        news_mean_label, news_mean_conf, news_count
    indicators  rsi, sma

A run assembles one daily table that holds each column once: the prices,
the eight columns of daily_sentiment.csv under its header's names
(news_mean_ws among them, which no set selects), then the indicators. A
feature set is the selection of its blocks' columns from that table, by
name.

A FeatureMatrix holds plain floats, one tuple per column, so assembling,
selecting and formatting the table (all featurize does) needs no numpy.
numpy loads only in make_windows, which stacks one set's columns into a
float64 (rows, columns) table and min-max scales it with each column's
(min, max) over the training rows; test rows may land outside [0, 1]
and are never clipped.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import FEATURE_SETS
from .errors import StockcastError, echo_number
from .evaluation import left_sum

PRICE_COLUMNS = ["open", "high", "low", "close", "adj_close", "volume"]
TWEET_COLUMNS = ["tweet_mean_label", "tweet_mean_conf", "tweet_count"]
WEIGHTED_TWEET_COLUMNS = ["tweet_mean_ws", "tweet_count"]
NEWS_COLUMNS = ["news_mean_label", "news_mean_conf", "news_count"]
INDICATOR_COLUMNS = ["rsi", "sma"]

_BLOCKS = {
    "prices": PRICE_COLUMNS,
    "tweets": TWEET_COLUMNS,
    "weighted_tweets": WEIGHTED_TWEET_COLUMNS,
    "news": NEWS_COLUMNS,
    "indicators": INDICATOR_COLUMNS,
}


def feature_set_columns(feature_set):
    """Documented column order for one feature-set id."""
    if feature_set not in FEATURE_SETS:
        raise KeyError(f"unknown feature set {feature_set!r}")
    cols = []
    for block in FEATURE_SETS[feature_set]:
        cols.extend(_BLOCKS[block])
    return cols


# --- indicators -------------------------------------------------------------

def sma(closes, period):
    """Simple moving average; warm-up entries take the first defined value.

    output[t] = mean(closes[t-period+1 .. t]) for t >= period-1.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    n = len(closes)
    if n < period:
        raise StockcastError(f"need at least {echo_number(period)} closes, got {n}")
    out = [0.0] * n
    for t in range(period - 1, n):
        out[t] = left_sum(closes[t - period + 1:t + 1]) / period
    for t in range(period - 1):
        out[t] = out[period - 1]
    return out


def rsi(closes, period):
    """Relative Strength Index with Wilder smoothing, in [0, 100].

    The first averages are simple means of the first ``period`` deltas;
    afterwards avg = (prev*(period-1) + delta)/period. Zero average loss
    gives 100, zero average gain gives 0, both zero give 50. Warm-up
    entries are filled with the neutral 50.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    n = len(closes)
    if n <= period:
        raise StockcastError(f"need more than {echo_number(period)} closes, got {n}")
    gains = [0.0] * n
    losses = [0.0] * n
    for t in range(1, n):
        delta = closes[t] - closes[t - 1]
        if delta > 0:
            gains[t] = delta
        else:
            losses[t] = -delta
    out = [50.0] * n
    avg_gain = left_sum(gains[1:period + 1]) / period
    avg_loss = left_sum(losses[1:period + 1]) / period
    for t in range(period, n):
        if t > period:
            avg_gain = (avg_gain * (period - 1) + gains[t]) / period
            avg_loss = (avg_loss * (period - 1) + losses[t]) / period
        if avg_gain == 0 and avg_loss == 0:
            out[t] = 50.0
        elif avg_loss == 0:
            out[t] = 100.0
        elif avg_gain == 0:
            out[t] = 0.0
        else:
            rs = avg_gain / avg_loss
            out[t] = 100.0 - 100.0 / (1.0 + rs)
    return out


# --- assembly -------------------------------------------------------------------

class FeatureMatrix(NamedTuple):
    """Date-indexed raw feature values: the daily table, or one set's columns of it."""

    dates: tuple
    columns: tuple
    values: tuple  # one tuple of floats per column, one float per date


def assemble(bars, daily, indicators=None):
    """Every daily column as one raw FeatureMatrix, the table each feature
    set selects its columns from.

    Columns: the six prices from ``bars``; then ``daily``'s columns under
    their own names, the eight of daily_sentiment.csv (scoring.Dataset's
    ``daily``), each one value per bar; then rsi and sma when
    ``indicators`` is given. Values are left unscaled here; make_windows
    scales on the training rows, so no test information leaks into the
    scale.

    Raises:
        StockcastError: an indicator series does not cover the bar dates.
    """
    dates = [bar.date for bar in bars]
    columns = [*PRICE_COLUMNS, *daily]
    series = [[getattr(b, key) for b in bars] for key in PRICE_COLUMNS]
    series += daily.values()
    if indicators is not None:
        for key in INDICATOR_COLUMNS:
            if len(indicators[key]) != len(dates):
                raise StockcastError("inputs not aligned to the trading calendar at "
                                     f"{dates[min(len(indicators[key]), len(dates) - 1)]}")
        columns += INDICATOR_COLUMNS
        series += [indicators[key] for key in INDICATOR_COLUMNS]
    values = tuple(tuple(map(float, column)) for column in series)
    return FeatureMatrix(dates=tuple(dates), columns=tuple(columns), values=values)


def select(table, feature_set):
    """``feature_set``'s columns of a table from assemble, in feature_set_columns order."""
    columns = feature_set_columns(feature_set)
    values = tuple(table.values[table.columns.index(name)] for name in columns)
    return FeatureMatrix(dates=table.dates, columns=tuple(columns), values=values)


def format_columns(table):
    """{"date", then each column of ``table``: its values as
    pipeline.write_matrix_csv writes them}: ISO dates, floats via repr."""
    text = {"date": [d.isoformat() for d in table.dates]}
    for name, column in zip(table.columns, table.values):
        text[name] = [repr(v) for v in column]
    return text


# --- windowing ------------------------------------------------------------------

class WindowedDataset(NamedTuple):
    """Supervised samples: lookback rows of features -> next normalized close."""

    X: object           # (n_samples, lookback, n_features) float64 ndarray
    y: object           # (n_samples,) float64 ndarray
    dates: tuple        # target date per sample


class SplitWindows(NamedTuple):
    train: WindowedDataset
    test: WindowedDataset
    close_range: tuple  # training (min, max) of close: maps forecasts back to prices


def make_windows(matrix, lookback, split_date):
    """Scale a raw FeatureMatrix and cut it into train/test samples.

    The sample with target row t consumes rows [t-lookback, t); train
    samples are those with target date <= split_date, test the rest.
    Test windows may reach back into training rows for context, which
    leaks nothing (those rows predate the targets).

    The matrix's columns are stacked into one float64 (rows, columns)
    table and min-max scaled with each column's (min, max) over the
    training rows: (x - min) / (max - min), 0.0 for a constant column,
    test rows not clipped. Train and test ``X`` are read-only views of the
    scaled table, not copies: window k is rows [k, k + lookback) of it, so
    the windows hold the table once instead of lookback times. ``y`` is a
    copy of the scaled close column's targets.

    Raises:
        StockcastError: lookback >= number of training rows, or a column's
            scaled training rows are not finite.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    dates, n = matrix.dates, len(matrix.dates)
    n_train = sum(1 for d in dates if d <= split_date)
    if lookback >= n_train:
        raise StockcastError(f"lookback {echo_number(lookback)} >= training rows {n_train} "
                             f"up to split_date {split_date}")
    scaled = np.column_stack([np.asarray(column, dtype=np.float64) for column in matrix.values])
    lo, hi = scaled[:n_train].min(axis=0), scaled[:n_train].max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        scaled -= lo
        scaled /= np.where(span == 0, 1.0, span)
    scaled[:, span == 0] = 0.0
    finite = np.isfinite(scaled[:n_train]).all(axis=0)
    if not finite.all():
        raise StockcastError(f"feature column {matrix.columns[finite.argmin()]!r} is not "
                             f"finite once min-max scaled on the training rows")
    close = matrix.columns.index("close")
    # (n - lookback + 1, lookback, columns): window k is scaled[k:k + lookback]
    windows = sliding_window_view(scaled, lookback, axis=0).transpose(0, 2, 1)
    train, test = (WindowedDataset(X=windows[start - lookback:stop - lookback],
                                   y=scaled[start:stop, close].copy(), dates=dates[start:stop])
                   for start, stop in ((lookback, n_train), (n_train, n)))
    return SplitWindows(train, test, close_range=(float(lo[close]), float(hi[close])))


__all__ = [
    "PRICE_COLUMNS",
    "TWEET_COLUMNS",
    "WEIGHTED_TWEET_COLUMNS",
    "NEWS_COLUMNS",
    "INDICATOR_COLUMNS",
    "feature_set_columns",
    "sma",
    "rsi",
    "FeatureMatrix",
    "assemble",
    "select",
    "format_columns",
    "WindowedDataset",
    "SplitWindows",
    "make_windows",
]
