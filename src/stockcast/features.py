"""Technical indicators, min-max scaling, feature assembly and windowing.

Twelve feature sets (config.FEATURE_SETS) combine four column blocks in
a fixed order:

    prices      open, high, low, close, adj_close, volume
    tweets      tweet_mean_label, tweet_mean_conf, tweet_count
    w-tweets    tweet_mean_ws, tweet_count        (replaces tweets)
    news        news_mean_label, news_mean_conf, news_count
    indicators  rsi, sma

A run assembles one daily table that holds each column once; a feature
set is the selection of its blocks' columns from that table.

Scaling is fitted on the training span only; test rows are transformed
with the same state and may land outside [0, 1] (never clipped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FEATURE_SETS
from .errors import StockcastError

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
        raise StockcastError(f"need at least {period} closes, got {n}")
    out = [0.0] * n
    for t in range(period - 1, n):
        out[t] = sum(closes[t - period + 1:t + 1]) / period
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
    if n < period + 1:
        raise StockcastError(f"need at least {period + 1} closes, got {n}")
    gains = [0.0] * n
    losses = [0.0] * n
    for t in range(1, n):
        delta = closes[t] - closes[t - 1]
        if delta > 0:
            gains[t] = delta
        else:
            losses[t] = -delta
    out = [50.0] * n
    avg_gain = sum(gains[1:period + 1]) / period
    avg_loss = sum(losses[1:period + 1]) / period
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


# --- min-max scaling ----------------------------------------------------------

@dataclass(frozen=True)
class NormalizationState:
    """Per-column (min, max) fitted on the training span."""

    columns: tuple
    mins: np.ndarray
    maxs: np.ndarray

    def column_state(self, name):
        i = self.columns.index(name)
        return float(self.mins[i]), float(self.maxs[i])


def minmax_fit(values, columns):
    """Fit per-column (min, max) on a (rows, cols) array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise StockcastError("cannot fit normalization on empty column "
                             f"{columns[0] if columns else '<none>'!r}")
    return NormalizationState(
        columns=tuple(columns),
        mins=values.min(axis=0),
        maxs=values.max(axis=0),
    )


def minmax_transform(state, values):
    """(x - min) / (max - min); constant columns map to 0.0. Not clipped."""
    values = np.asarray(values, dtype=np.float64)
    span = state.maxs - state.mins
    safe = np.where(span == 0, 1.0, span)
    out = (values - state.mins) / safe
    return np.where(span == 0, 0.0, out)


# --- assembly -------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMatrix:
    """Date-indexed raw feature values: the daily table, or one set's columns of it."""

    dates: tuple
    columns: tuple
    values: np.ndarray  # (n_dates, n_columns) float64


def assemble(bars, tweet_daily, news_daily, indicators=None):
    """Every daily column as one raw FeatureMatrix, the table each feature
    set selects its columns from.

    Columns: the six prices, tweet_mean_label, tweet_mean_conf, tweet_count,
    tweet_mean_ws, the three news columns, then rsi and sma when
    ``indicators`` is given. All inputs must cover exactly the bar dates, in
    order. Values are left unscaled here; make_windows fits normalization
    on the training span so no test information leaks into the scaler.

    Raises:
        StockcastError: a sentiment row or indicator series does not
            line up with the bar dates.
    """
    dates = [bar.date for bar in bars]
    _check_aligned(dates, [d.date for d in tweet_daily])
    _check_aligned(dates, [d.date for d in news_daily])
    columns = [*PRICE_COLUMNS, *TWEET_COLUMNS, "tweet_mean_ws", *NEWS_COLUMNS]
    values = np.array([
        [b.open, b.high, b.low, b.close, b.adj_close, b.volume,
         t.mean_label, t.mean_conf, t.count, t.mean_ws,
         n.mean_label, n.mean_conf, n.count]
        for b, t, n in zip(bars, tweet_daily, news_daily)
    ], dtype=np.float64)
    if indicators is not None:
        for key in INDICATOR_COLUMNS:
            if len(indicators[key]) != len(dates):
                raise StockcastError("inputs not aligned to the trading calendar at "
                                     f"{dates[min(len(indicators[key]), len(dates) - 1)]}")
        columns += INDICATOR_COLUMNS
        values = np.column_stack([values, *(indicators[key] for key in INDICATOR_COLUMNS)])
    return FeatureMatrix(dates=tuple(dates), columns=tuple(columns), values=values)


def select(table, feature_set):
    """``feature_set``'s columns of a table from assemble, in feature_set_columns order."""
    columns = feature_set_columns(feature_set)
    index = [table.columns.index(name) for name in columns]
    return FeatureMatrix(dates=table.dates, columns=tuple(columns), values=table.values[:, index])


def _check_aligned(bar_dates, other_dates):
    if len(bar_dates) != len(other_dates):
        shorter = min(len(bar_dates), len(other_dates))
        raise StockcastError("inputs not aligned to the trading calendar at "
                             f"{bar_dates[min(shorter, len(bar_dates) - 1)]}")
    for bd, od in zip(bar_dates, other_dates):
        if bd != od:
            raise StockcastError(f"inputs not aligned to the trading calendar at {bd}")


def format_columns(table):
    """{"date", then each column of ``table``: its values as
    pipeline.write_matrix_csv writes them}: ISO dates, floats via repr."""
    text = {"date": [d.isoformat() for d in table.dates]}
    for j, name in enumerate(table.columns):
        text[name] = [repr(v) for v in table.values[:, j].tolist()]
    return text


# --- windowing ------------------------------------------------------------------

@dataclass(frozen=True)
class WindowedDataset:
    """Supervised samples: lookback rows of features -> next normalized close."""

    X: np.ndarray       # (n_samples, lookback, n_features)
    y: np.ndarray       # (n_samples,)
    dates: tuple        # target date per sample

    def __len__(self):
        return self.X.shape[0]


@dataclass(frozen=True)
class SplitWindows:
    train: WindowedDataset
    test: WindowedDataset
    norm: NormalizationState


def make_windows(matrix, lookback, split_date):
    """Scale a raw FeatureMatrix and cut it into train/test samples.

    The sample with target row t consumes rows [t-lookback, t); train
    samples are those with target date <= split_date, test the rest.
    Test windows may reach back into training rows for context, which
    leaks nothing (those rows predate the targets).

    Raises:
        StockcastError: lookback >= number of training rows.
    """
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    dates = matrix.dates
    n = len(dates)
    n_train_rows = sum(1 for d in dates if d <= split_date)
    if lookback >= n_train_rows:
        raise StockcastError(f"lookback {lookback} >= training rows {n_train_rows}")
    norm = minmax_fit(matrix.values[:n_train_rows], matrix.columns)
    scaled = minmax_transform(norm, matrix.values)
    close_idx = matrix.columns.index("close")

    def build(t_start, t_stop):
        targets = range(t_start, t_stop)
        X = np.stack([scaled[t - lookback:t] for t in targets]) if t_stop > t_start \
            else np.empty((0, lookback, len(matrix.columns)))
        y = np.array([scaled[t, close_idx] for t in targets], dtype=np.float64)
        return WindowedDataset(X=X, y=y, dates=tuple(dates[t] for t in targets))

    train = build(lookback, n_train_rows)
    test = build(n_train_rows, n)
    return SplitWindows(train=train, test=test, norm=norm)


__all__ = [
    "PRICE_COLUMNS",
    "TWEET_COLUMNS",
    "WEIGHTED_TWEET_COLUMNS",
    "NEWS_COLUMNS",
    "INDICATOR_COLUMNS",
    "feature_set_columns",
    "sma",
    "rsi",
    "NormalizationState",
    "minmax_fit",
    "minmax_transform",
    "FeatureMatrix",
    "assemble",
    "select",
    "format_columns",
    "WindowedDataset",
    "SplitWindows",
    "make_windows",
]
