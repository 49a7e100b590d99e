"""R-squared / MAE metrics and replicate averaging.

numpy is imported where an input becomes an array, so the modules that
import this one for its records load no numpy until a metric is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StockcastError


@dataclass(frozen=True)
class RunMetrics:
    feature_set: str
    r2: float
    mae: float
    scale: str


@dataclass(frozen=True)
class AggregateReport:
    feature_set: str
    scale: str
    replicates: int
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


def replicate_average(runs):
    """Average RunMetrics over replicates of one (feature set, scale).

    Raises:
        StockcastError: runs disagree on feature_set or scale.
    """
    if not runs:
        raise ValueError("need at least one run")
    feature_set = runs[0].feature_set
    scale = runs[0].scale
    for run in runs:
        if run.feature_set != feature_set or run.scale != scale:
            raise StockcastError(
                f"cannot average {run.feature_set}/{run.scale} "
                f"with {feature_set}/{scale}"
            )
    r2_runs = tuple(run.r2 for run in runs)
    mae_runs = tuple(run.mae for run in runs)
    return AggregateReport(
        feature_set=feature_set,
        scale=scale,
        replicates=len(runs),
        r2_mean=sum(r2_runs) / len(runs),
        mae_mean=sum(mae_runs) / len(runs),
        r2_runs=r2_runs,
        mae_runs=mae_runs,
    )


__all__ = ["RunMetrics", "AggregateReport", "r_squared", "mae", "replicate_average"]
