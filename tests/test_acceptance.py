"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import functools
import hashlib
import json
import math
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from stockcast import forecaster as fc
from stockcast import pipeline
from stockcast.config import FEATURE_SETS, ExperimentConfig, parse_config
from stockcast.evaluation import mae, r_squared
from stockcast.features import (
    FeatureMatrix,
    assemble,
    make_windows,
    rsi,
    select,
    sma,
)
from stockcast.sentiment import SentimentScore, weighted_sentiment

from conftest import CONFIGS, make_post
from test_forecaster import finite_difference_grads, max_relative_error
from test_market_sim import sim


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({label}): PASS")
            return result
        return run
    return wrap


@criterion(1, "engagement formula oracle, 1000 random posts")
def test_criterion_1_formula_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        tr, tl, tc, f = (int(x) for x in rng.integers(0, 10_000, size=4))
        label = int(rng.integers(-1, 2))
        conf = float(rng.uniform(0, 1))
        a, b, g, d = (float(x) for x in rng.uniform(1e-3, 5.0, size=4))
        post = make_post(retweets=tr, likes=tl, comments=tc, followers=f)
        score = SentimentScore(label, conf)
        w = ExperimentConfig(alpha=a, beta=b, gamma=g, delta=d)

        # independent direct evaluation
        t_i = a * tr + b * tl + g * tc
        u_i = d * f
        s = label * conf
        tt = tr + tl + tc
        expected = 0.0 if tt == 0 else t_i * u_i * s / tt
        got = weighted_sentiment(post, score, w)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

        # equal-weight closed form
        w_eq = ExperimentConfig(alpha=a, beta=a, gamma=a, delta=d)
        ws_eq = weighted_sentiment(post, score, w_eq)
        closed = 0.0 if tt == 0 else a * d * f * label * conf
        assert ws_eq == pytest.approx(closed, rel=1e-12, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


@criterion(2, "worked example WS = 24.0")
def test_criterion_2_worked_example():
    post = make_post(retweets=100, likes=200, comments=50, followers=1000)
    ws = weighted_sentiment(post, SentimentScore(1, 0.8), ExperimentConfig())
    assert ws == 24.0


@criterion(3, "gradient check, 20 random configurations")
def test_criterion_3_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    checked = 0
    worst = 0.0
    while checked < 20:
        hidden = int(rng.integers(2, 9))
        lookback = int(rng.integers(1, 6))
        feats = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 10_000))
        weights = fc.init_weights(feats, hidden, seed)
        weights = fc.LstmWeights.from_theta(weights.theta[None], feats, hidden)
        X = rng.uniform(-1, 1, size=(1, 3, lookback, feats))
        y = rng.uniform(0, 1, size=(1, 3))
        workspace = fc.LstmWorkspace(3, lookback, feats, hidden)
        pred, cache = fc.forward(weights, X, workspace)
        if np.all(pred == 0.0):
            continue  # dead head: both sides identically zero, not informative
        analytic = fc.backward(weights, cache, y, workspace)
        fd = finite_difference_grads(weights, X, y, h=1e-5)
        worst = max(worst, max_relative_error(analytic, fd))
        checked += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(4, "sine-wave convergence, R2 >= 0.95, MAE <= 0.03")
def test_criterion_4_synthetic_convergence():
    start = time.monotonic()
    n = 500
    t = np.arange(n)
    closes = 100.0 + 10.0 * np.sin(2 * np.pi * t / 50)
    dates = tuple(date(2021, 1, 4) + timedelta(days=int(i)) for i in range(n))
    matrix = FeatureMatrix(dates, ("close",), (tuple(closes.tolist()),))
    split = make_windows(matrix, 30, dates[399])
    config = ExperimentConfig(hidden_units=32, learning_rate=0.001, batch_size=128, epochs=200)
    [(weights, history)] = fc.train(split.train, config, seed=0)
    pred = fc.predict(weights, split.test)
    r2 = r_squared(split.test.y, pred)
    err = mae(split.test.y, pred)
    elapsed = time.monotonic() - start
    assert r2 >= 0.95, f"r2 {r2:.4f}"
    assert err <= 0.03, f"mae {err:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@criterion(5, "indicator fixtures exact")
def test_criterion_5_indicator_fixtures():
    out = sma([1, 2, 3, 4, 5], 3)
    assert out[2:] == [2.0, 3.0, 4.0]

    increasing = rsi([1, 2, 3, 4, 5, 6], 3)
    assert all(v == 100.0 for v in increasing[3:])
    decreasing = rsi([6, 5, 4, 3, 2, 1], 3)
    assert all(v == 0.0 for v in decreasing[3:])
    assert rsi([10, 11, 10], 2)[2] == 50.0


@criterion(6, "metric fixtures to 1e-12")
def test_criterion_6_metric_fixtures():
    assert r_squared([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-12)
    assert mae([1, 2, 3], [1, 2, 4]) == pytest.approx(1 / 3, abs=1e-12)


@criterion(7, "simulation ledger oracle")
def test_criterion_7_simulation_oracle():
    long_day = sim([(100.0, 104.0, 103.0)])
    assert long_day.percent_gain == 4.0

    short_day = sim([(100.0, 95.0, 98.0)])
    assert short_day.percent_gain == 5.0

    flat = sim([(100.0, 104.0, 100.0), (104.0, 103.0, 104.0)])
    assert flat.percent_gain == 0.0

    from test_market_sim import TestTenDayHandTrace
    TestTenDayHandTrace().test_row_for_row()


@criterion(8, "protocol constants honored and echoed")
def test_criterion_8_protocol_constants(tmp_path):
    experiment = ExperimentConfig()
    assert experiment.hidden_units == 256
    assert experiment.learning_rate == 0.001
    assert experiment.batch_size == 128
    assert experiment.epochs == 100
    assert experiment.replicates == 10
    assert experiment.split_date == date(2022, 12, 31)

    assert experiment.initial_capital == 1_000_000.0
    assert experiment.profit_threshold == 0.02
    assert experiment.dip_threshold == 0.02

    # the shipped full-scale template carries the same constants
    template = parse_config(CONFIGS / "protocol.conf")
    assert (template.hidden_units, template.learning_rate, template.batch_size,
            template.epochs, template.replicates) == (256, 0.001, 128, 100, 10)
    assert template.initial_capital == 1_000_000.0
    assert template.split_date == date(2022, 12, 31)

    # reports echo the effective config
    config = parse_config(CONFIGS / "fixture.conf").replace(
        feature_sets=("Prices",), replicates=1, epochs=2, out_dir=str(tmp_path))
    pipeline.run_train_eval(config, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    echo = report["protocol"]
    assert echo["initial_capital"] == 1_000_000.0
    assert echo["profit_threshold"] == 0.02
    assert echo["dip_threshold"] == 0.02
    assert echo["split_date"] == "2022-12-31"
    assert echo["hidden_units"] == config.hidden_units
    assert echo["epochs"] == 2
    assert report["config_hash"] == config.config_hash


#: The files test_criterion_9_end_to_end_determinism writes: each one's
#: SHA-256, the host_key of the host that wrote them, and their headline
#: values (see frozen_record).
FROZEN_OUTPUTS = Path(__file__).parent / "data" / "fixture_outputs_sha256.json"


def host_key():
    """What an output's bits depend on besides the code and the config:
    Python's minor version, numpy's version, the CPU features numpy was
    built for (baseline) and found to dispatch to, and its BLAS."""
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints it
        build = {}
    simd = build.get("SIMD Extensions", {})
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__,
            "cpu_baseline": simd.get("baseline"), "cpu_dispatch": simd.get("found"),
            "blas": build.get("Build Dependencies", {}).get("blas", {}).get("name")}


def frozen_record(out_dir):
    """FROZEN_OUTPUTS' contents for the train-eval and simulate outputs in ``out_dir``.

    ``values`` holds each report row's r2_mean and mae_mean, keyed
    ``<set>/<scale>/<name>``, and each set's percent_gain and trades, keyed
    ``<set>/<name>``.
    """
    out_dir = Path(out_dir)
    values = {}
    for row in json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["reports"]:
        for name in ("r2_mean", "mae_mean"):
            values[f"{row['feature_set']}/{row['scale']}/{name}"] = row[name]
    summary = json.loads((out_dir / "simulation_summary.json").read_text(encoding="utf-8"))
    for row in summary["rows"]:
        for name in ("percent_gain", "trades"):
            values[f"{row['feature_set']}/{name}"] = row[name]
    return {"host": host_key(),
            "sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out_dir.iterdir())},
            "values": values}


def check_frozen_outputs(out_dir):
    r"""The quickstart's train-eval and simulate outputs in ``out_dir`` are
    the frozen ones: byte for byte on the host that froze them; elsewhere,
    where BLAS or SIMD may round differently, every value within 1e-9
    relative and every trade count equal.

    FROZEN_OUTPUTS was written from a checkout P of commit 9354937, the
    parent of the commit that added it (``git archive 9354937 | tar -x -C
    P``), by this command, run at the repository root:

        PYTHONPATH=P/src:tests python -c "import json, test_acceptance as t
        from stockcast import pipeline, config
        c = config.parse_config(t.CONFIGS / 'fixture.conf')
        pipeline.run_train_eval(c, 'P/out'); pipeline.run_simulate(c, 'P/out')
        t.FROZEN_OUTPUTS.write_text(json.dumps(t.frozen_record('P/out'), indent=1) + '\n')"

    A change that alters an output on purpose reruns it from its own tree
    and names each changed file.
    """
    frozen = json.loads(FROZEN_OUTPUTS.read_text(encoding="utf-8"))
    got = frozen_record(out_dir)
    assert len(frozen["sha256"]) == 27  # reports, 12 predictions, 12 ledgers, summary
    if got["host"] == frozen["host"]:
        assert got["sha256"] == frozen["sha256"]
    assert got["values"].keys() == frozen["values"].keys()
    for key, want in frozen["values"].items():
        if key.endswith("/trades"):
            assert got["values"][key] == want, key
        else:
            assert math.isclose(got["values"][key], want, rel_tol=1e-9), key


@criterion(9, "end-to-end determinism, byte-identical reports")
def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    config = parse_config(CONFIGS / "fixture.conf")
    assert len(config.feature_sets) == 12
    assert config.replicates == 2

    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        pipeline.run_train_eval(config, out_dir)
        pipeline.run_simulate(config, out_dir)
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})

    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    expected = {"report.json", "metrics_table.csv", "simulation_summary.json"}
    assert expected <= set(outputs[0])
    check_frozen_outputs(tmp_path / "a")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@criterion(10, "feature-set shape audit")
def test_criterion_10_feature_set_shapes():
    from test_features import EXPECTED_WIDTHS, build_inputs, daily_columns

    assert len(FEATURE_SETS) == 12
    assert EXPECTED_WIDTHS["Prices"] == 6
    assert EXPECTED_WIDTHS["Prices-Tweets-News-RSI-SMA"] == 14
    dates, bars, indicators = build_inputs()
    table = assemble(bars, daily_columns(dates), indicators)
    for feature_set, width in EXPECTED_WIDTHS.items():
        matrix = select(table, feature_set)
        assert [len(column) for column in matrix.values] == [len(bars)] * width, feature_set
