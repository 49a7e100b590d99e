"""Training, reports and simulation: daily scores in, reports out.

scoring.load_dataset turns the input files into daily scores; this
module builds the feature table from them, trains every (feature set,
replicate) model, writes the reports and trades the forecasts.

Everything here is deterministic for a fixed config: replicate i trains
with seed base_seed + i, report files serialize floats via repr, and no
wall-clock state enters any output, so rerunning a config reproduces
identical bytes.

Only train-eval computes on arrays. numpy and forecaster are imported
inside the functions that train on arrays or read them (run_feature_set,
_fit_group and _check_sizes), and features, which loads numpy only
to window a table (features.make_windows), inside those that build or
window one (build_matrix and run_train_eval). So ingest, featurize,
simulate and the post workers run without numpy: train-eval loads its
posts before it windows them, and the post workers fork from it then.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import market_sim
from .errors import RunFailed, StockcastError, echo, echo_number
from .evaluation import mae, r_squared, replicate_average
from .ingest import load_price_csv
from .outputs import _ReadBack, _write_csv, _write_json, publish
from .scoring import _usable_cores, _worker_pool, load_dataset

# Only for bench/tracer.py, which wraps these names on this module; calls made
# inside scoring bypass its wrappers
from .ingest import assign_posts, calendar_from_bars, load_posts_jsonl
from .scoring import make_provider


def build_matrix(config, dataset):
    """The raw (unscaled) daily table the configured feature sets select from.

    rsi and sma are computed only when a configured set uses them: they
    need more closes than the other columns do, and too few for a period
    is an error that names the prices file and the period's key, as is an
    indicator value past the float range.
    """
    from . import features

    indicators = None
    if any("indicators" in features.FEATURE_SETS[fs] for fs in config.feature_sets):
        closes = [bar.close for bar in dataset.bars]
        indicators = {}
        for name, compute, period in (("rsi", features.rsi, config.rsi_period),
                                      ("sma", features.sma, config.sma_period)):
            try:
                indicators[name] = compute(closes, period)
                bad = next((bar.date for bar, value in zip(dataset.bars, indicators[name])
                            if not math.isfinite(value)), None)
                if bad is not None:
                    raise StockcastError(f"{name} is not finite on {bad}")
            except StockcastError as exc:
                raise StockcastError(f"{config.prices}: {name}_period = {echo_number(period)}: "
                                     f"{exc}") from None
    return features.assemble(dataset.bars, dataset.daily, indicators)


@dataclass
class FeatureSetResult:
    feature_set: str
    split: object                   # features.SplitWindows
    reports: list                   # AggregateReport, both scales
    mean_pred_norm: object          # replicate-mean normalized predictions (ndarray)
    mean_pred_price: object         # same, on the price scale
    true_price: object              # test targets on the price scale


def run_feature_set(feature_set, split, preds):
    """Evaluate one feature set from its replicates' test-window forecasts.

    ``preds`` holds one normalized forecast per replicate, in replicate
    order, which the reports' per-run lists keep.
    """
    import numpy as np

    close_min, close_max = split.close_range

    def to_price(values):
        return values * (close_max - close_min) + close_min

    y_true_norm = split.test.y
    y_true_price = to_price(y_true_norm)

    runs = {"normalized": ([], []), "denormalized": ([], [])}  # scale -> (R2s, MAEs)
    for pred_norm in preds:
        for (r2_runs, mae_runs), y_true, pred in zip(
                runs.values(), (y_true_norm, y_true_price), (pred_norm, to_price(pred_norm))):
            r2_runs.append(r_squared(y_true, pred))
            mae_runs.append(mae(y_true, pred))
    reports = [replicate_average(feature_set, scale, *scores) for scale, scores in runs.items()]
    mean_pred_norm = np.mean(np.stack(preds), axis=0)
    return FeatureSetResult(
        feature_set=feature_set,
        split=split,
        reports=reports,
        mean_pred_norm=mean_pred_norm,
        mean_pred_price=to_price(mean_pred_norm),
        true_price=y_true_price,
    )


def _fit_group(jobs, index):
    """Train one set's group of replicates in lockstep; their test forecasts,
    in replicate order.

    ``jobs[index]`` is one (config, seed, models, train, test) tuple, which
    trains ``models`` replicates seeded seed, seed + 1, ...; a _worker_pool
    task over the shared job list, so only the index goes to a worker.

    Each replicate's weights are the ones it trains to alone, so its
    forecast is too. A group that raises RunFailed trains its replicates
    again one at a time, in order, so the error raised is the one the
    first failing replicate raises alone.
    """
    from . import forecaster

    config, seed, models, train, test = jobs[index]
    if models > 1:
        try:
            trained = forecaster.train(train, config, seed=seed, models=models)
        except RunFailed:
            pass
        else:
            return [forecaster.predict(weights, test) for weights, _ in trained]
    alone = (forecaster.train(train, config, seed=seed + k)[0] for k in range(models))
    return [forecaster.predict(weights, test) for weights, _ in alone]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """numpy loaded inside gets 1 BLAS thread; the environment's values return after.

    BLAS libraries read these once, when loaded, so a process that loaded
    numpy before keeps its own thread count, and so do workers it forks.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _fit_all(jobs, workers):
    """_fit_group over ``jobs``; results, or the first error, in job order.

    Jobs are independent, so with 2 or more ``workers`` (_training_workers)
    they run in that many workers forked from this process, which inherit
    numpy, forecaster and ``jobs``. Fewer train here, with this process's
    BLAS threads. Results do not depend on the path taken, only on the
    BLAS thread count a model trains with.
    """
    with _worker_pool(workers, jobs) as run:
        return list(run(_fit_group, range(len(jobs))))


#: The largest per-step gate block, K*B*4H floats, of a lockstep group of
#: K replicates: a pair of fixture-size models (H=16, B=32), no triple.
#: The pair pays end to end: in 10 alternating bench/run.py
#: fixture_quickstart runs (2 cores), K=2 beat K=1 in 10 of 10, with
#: median wall times of 1.883 s against 2.304 s. Per-step timings of
#: scripts/step_profile.py --models were too noisy on that host to rank
#: group sizes. Each model a group adds holds one more workspace in its
#: worker.
_GROUP_GATE_FLOATS = 4096


def _group_size(config):
    """K, the replicates of a set one job trains in lockstep.

    The largest K whose per-step gate block, K*batch_size*4*hidden_units
    floats, is within _GROUP_GATE_FLOATS and that leaves at least
    min(models, usable cores) jobs, so each model trains with the BLAS
    threads it would train with alone. Only the sizes within the gate
    block's bound are scanned, so the time does not grow with replicates.
    """
    sets, n = len(config.feature_sets), config.replicates
    wanted = min(sets * n, _usable_cores())
    block = config.batch_size * 4 * config.hidden_units
    largest = max(1, min(n, _GROUP_GATE_FLOATS // block))
    # -(-n // size) is ceil(n / size) in ints: a count past the float range
    # must reach _check_sizes' memory bound, not overflow here
    return max(size for size in range(1, largest + 1)
               if size == 1 or sets * -(-n // size) >= wanted)


def _training_workers(config):
    """The workers _fit_all trains in: one per job, up to the usable cores."""
    jobs = len(config.feature_sets) * -(-config.replicates // _group_size(config))
    return min(jobs, _usable_cores())


def _train_jobs(config, splits):
    """The _fit_group jobs of every (set, replicate) model, in set then replicate order.

    ``splits`` holds each configured set's windows. Replicate i trains with
    seed base_seed + i. Each job is a (config, seed, K, train, test) tuple
    that holds a set's windows once and K (_group_size) of its replicates,
    in order, with the first one's seed; a set's last job takes the
    replicates that are left.
    """
    n = config.replicates
    k = _group_size(config)
    return [(config, config.base_seed + i, min(k, n - i), split.train, split.test)
            for split in splits for i in range(0, n, k)]


def simulate_feature_set(config, bars, predictions):
    """Trade one set's (date, predicted close) pairs over the same-dated bars."""
    return market_sim.run_simulation(predictions, bars, config.initial_capital,
                                     config.profit_threshold, config.dip_threshold)


# --- report writers ---------------------------------------------------------

def write_report_json(path, config, results):
    _write_json(path, config, {"reports": [
        {
            "stock": config.stock,
            "sentiment_provider": config.provider,
            "feature_set": report.feature_set,
            "replicates": len(report.r2_runs),
            "r2_mean": report.r2_mean,
            "mae_mean": report.mae_mean,
            "r2_runs": list(report.r2_runs),
            "mae_runs": list(report.mae_runs),
            "scale": report.scale,
        }
        for result in results for report in result.reports
    ]})


def write_metrics_csv(path, config, results):
    """Flat table, one row per feature set (the Tables 4-5 shape), normalized scale."""
    _write_csv(path, config, ["feature_set", "stock", "sentiment_provider", "r2", "mae"], [
        [report.feature_set, config.stock, config.provider,
         repr(report.r2_mean), repr(report.mae_mean)]
        for result in results for report in result.reports if report.scale == "normalized"
    ])


PREDICTIONS_COLUMNS = ["date", "close_norm", "pred_norm", "close", "pred"]


def write_predictions_csv(path, config, result):
    """Plot-ready series: per test date, truth and replicate-mean forecast."""
    _write_csv(path, config, PREDICTIONS_COLUMNS, [
        [d.isoformat(), *map(repr, values)] for d, *values in zip(
            result.split.test.dates, result.split.test.y.tolist(), result.mean_pred_norm.tolist(),
            result.true_price.tolist(), result.mean_pred_price.tolist())
    ])


def load_predictions_csv(path, config, dates):
    """The (date, pred) pairs of a predictions file written for this config.

    Raises:
        StockcastError: the file is missing or not UTF-8, carries another
            config_hash, does not parse in full (see _ReadBack), or has a
            ``pred`` that is not a finite float.
    """
    path = Path(path)
    if not path.is_file():
        raise StockcastError(
            f"{path} not found: run train-eval with the same config and flags "
            f"into the same --out-dir first"
        )
    table = _ReadBack(path)
    first = table.lines[0] if table.lines else ""
    if first != f"# config_hash={config.config_hash}":
        raise StockcastError(
            f"{path}: first line {echo(repr(first))} does not carry this config's "
            f"config_hash={config.config_hash}; rerun train-eval with the same "
            f"config and flags"
        )
    return [(d, table.finite(index, "pred", fields[-1]))
            for index, d, fields in table.rows(1, PREDICTIONS_COLUMNS, dates)]


def write_ledger_csv(path, config, sim_result):
    header = ["date", "r", "action", "entry_price", "exit_price", "capital_after"]
    _write_csv(path, config, header, [
        [entry.date.isoformat(), repr(entry.r), entry.action,
         "" if entry.entry_price is None else repr(entry.entry_price),
         "" if entry.exit_price is None else repr(entry.exit_price),
         repr(entry.capital_after)]
        for entry in sim_result.ledger
    ])


def write_simulation_json(path, config, sim_results):
    _write_json(path, config, {
        "stock": config.stock,
        "sentiment_provider": config.provider,
        "rows": [
            {"feature_set": feature_set, "percent_gain": sim.percent_gain,
             "final_capital": sim.final_capital,
             "trades": sum(1 for e in sim.ledger if e.action != market_sim.NONE)}
            for feature_set, sim in sim_results
        ],
    })


def write_matrix_csv(path, config, columns, column_text):
    """One feature set's matrix: a date column first and ``columns`` after it,
    each from ``column_text``, the features.format_columns of a table
    holding them."""
    _write_csv(path, config, ["date", *columns],
               zip(*(column_text[name] for name in ("date", *columns))))


def safe_name(feature_set):
    return feature_set.lower().replace("-", "_")


def _check_scorable(config, y_test):
    """Refuse test targets r_squared cannot score: fewer than 2, or constant."""
    n = y_test.size
    if n < 2 or (y_test == y_test[0]).all():
        raise StockcastError(
            f"split_date {config.split_date} leaves {n} test window{'' if n == 1 else 's'}"
            f"{', all with the same close' if n >= 2 else ''}: R2 needs at least 2 "
            f"whose closes differ"
        )


def _check_sizes(config, splits):
    """Refuse a hidden_units whose parameter vector numpy cannot index, and a
    replicates whose forecasts cannot fit in this machine's memory.

    The parent holds every (set, replicate) model's test forecast, 8 bytes
    a test window, until the reports are written, so a replicate count
    whose forecasts alone pass the physical memory could never finish.
    """
    import numpy as np

    from . import forecaster

    n_features = max(split.train.X.shape[2] for split in splits)
    nbytes = forecaster.theta_size(n_features, config.hidden_units) * np.dtype(np.float64).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise StockcastError(f"hidden_units = {echo_number(config.hidden_units)}: a model of "
                             f"that size is past numpy's index range")
    per_replicate = len(splits) * splits[0].test.y.nbytes
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if config.replicates * per_replicate > memory:
        raise StockcastError(f"replicates = {echo_number(config.replicates)}: the forecasts of "
                             f"{len(splits)} feature sets, {per_replicate} bytes a replicate, "
                             f"pass this machine's {memory} bytes of memory")


def run_train_eval(config, out_dir):
    """The train-eval command body; returns the per-set results.

    Every set's windows, the model size and the replicate count are
    checked before out_dir is made, so bad input fails before training
    starts and leaves no out dir. publish makes out_dir before any model
    trains; the reports land once every model has trained, report.json
    last.

    Posts are loaded before numpy, which loads in features.make_windows,
    so any post workers fork without it. When the models train in workers
    (_training_workers), numpy loads with 1 BLAS thread, and the
    environment comes back when the command ends.
    """
    workers = _training_workers(config)
    with _one_blas_thread() if workers > 1 else nullcontext():
        table = build_matrix(config, load_dataset(config, out_dir))
        from . import features

        splits = [
            features.make_windows(features.select(table, fs), config.lookback, config.split_date)
            for fs in config.feature_sets
        ]
        del table  # the windows view make_windows' own scaled tables: free this one
        _check_scorable(config, splits[0].test.y)  # every set's targets are the same closes
        _check_sizes(config, splits)
        jobs = _train_jobs(config, splits)
        with publish(out_dir, marker="report.json") as stage:
            preds = [pred for group in _fit_all(jobs, workers) for pred in group]
            n = config.replicates
            results = [
                run_feature_set(fs, split, preds[k * n:(k + 1) * n])
                for k, (fs, split) in enumerate(zip(config.feature_sets, splits))
            ]
            write_report_json(stage("report.json"), config, results)
            write_metrics_csv(stage("metrics_table.csv"), config, results)
            for result in results:
                write_predictions_csv(
                    stage(f"predictions_{safe_name(result.feature_set)}.csv"), config, result
                )
    return results


def run_simulate(config, out_dir):
    """The simulate command body: trades the forecasts train-eval wrote.

    Every set's predictions file is checked, and every set simulated,
    before any ledger is staged; the ledgers land through publish,
    simulation_summary.json last.
    """
    out_dir = Path(out_dir)
    bars = [bar for bar in load_price_csv(config.prices) if bar.date > config.split_date]
    dates = [bar.date for bar in bars]
    predictions = [
        (fs, load_predictions_csv(out_dir / f"predictions_{safe_name(fs)}.csv", config, dates))
        for fs in config.feature_sets
    ]
    sim_results = [(fs, simulate_feature_set(config, bars, pairs)) for fs, pairs in predictions]
    with publish(out_dir, marker="simulation_summary.json") as stage:
        for feature_set, sim in sim_results:
            write_ledger_csv(stage(f"ledger_{safe_name(feature_set)}.csv"), config, sim)
        write_simulation_json(stage("simulation_summary.json"), config, sim_results)
    return sim_results


__all__ = [
    "FeatureSetResult",
    "build_matrix",
    "run_feature_set",
    "simulate_feature_set",
    "run_train_eval",
    "run_simulate",
    "write_report_json",
    "write_metrics_csv",
    "write_predictions_csv",
    "load_predictions_csv",
    "PREDICTIONS_COLUMNS",
    "write_ledger_csv",
    "write_simulation_json",
    "write_matrix_csv",
    "safe_name",
]
