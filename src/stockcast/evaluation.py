"""R-squared / MAE metrics and replicate averaging.

numpy is imported where an input becomes an array, so the modules that
import this one load no numpy until a metric is computed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import StockcastError


class AggregateReport(NamedTuple):
    feature_set: str
    scale: str
    r2_mean: float
    mae_mean: float
    r2_runs: tuple
    mae_runs: tuple


def _pair(y_true, y_pred, min_len):
    import numpy as np

    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise StockcastError(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.size < min_len:
        raise StockcastError(f"need at least {min_len} points, got {y_true.size}")
    return y_true, y_pred


def r_squared(y_true, y_pred):
    """1 - SS_res/SS_tot. May be negative; constant targets are an error
    rather than a silent zero, so degenerate fixtures surface."""
    y_true, y_pred = _pair(y_true, y_pred, 2)
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0:
        raise StockcastError("target series is constant")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def mae(y_true, y_pred):
    """Mean absolute error."""
    y_true, y_pred = _pair(y_true, y_pred, 1)
    return float(abs(y_true - y_pred).mean())


def left_sum(values):
    """The sum of ``values`` added left to right from the int 0.

    Python 3.11's ``sum()`` adds floats the same way; 3.12's compensates
    the rounding, so its last bits differ. The replicate means and the
    SMA and RSI indicators add through here, so their bits do not depend
    on the Python version.
    """
    total = 0
    for value in values:
        total += value
    return total


def replicate_average(feature_set, scale, r2_runs, mae_runs):
    """The AggregateReport of one (feature set, scale): each replicate's R2
    and MAE, in replicate order, and their means, each summed by left_sum."""
    n = len(r2_runs)
    if not n:
        raise ValueError("need at least one run")
    return AggregateReport(feature_set, scale, left_sum(r2_runs) / n, left_sum(mae_runs) / n,
                           tuple(r2_runs), tuple(mae_runs))


__all__ = ["AggregateReport", "r_squared", "mae", "left_sum", "replicate_average"]
