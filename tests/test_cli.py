"""Config parsing and the four CLI commands on tiny datasets."""

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from stockcast import cli, pipeline
from stockcast.config import ExperimentConfig, apply_overrides, parse_config
from stockcast.errors import ConfigError, NonFiniteActivation, TrainingDiverged
from stockcast.forecaster import LstmConfig

from conftest import REPO


def subprocess_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_tiny_dataset(tmp_path, n_bars=60):
    """Small but trainable dataset: varying closes, a few posts."""
    d0 = date(2022, 1, 3)
    days = []
    d = d0
    while len(days) < n_bars:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i, day in enumerate(days):
        base = 100 + 5 * ((i % 10) / 10) + i * 0.1
        open_, close = base, base + 0.5
        lines.append(f"{day.isoformat()},{open_:.2f},{close + 1:.2f},"
                     f"{open_ - 1:.2f},{close:.2f},{close:.2f},1000")
    (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")

    tweets = [
        {"id": f"t{i}", "ts": f"{days[i * 3].isoformat()}T12:00:00Z",
         "text": "profit surge rally", "likes": 200, "retweets": 10,
         "comments": 5, "followers": 1000}
        for i in range(8) if i * 3 < len(days)
    ]
    (tmp_path / "tweets.jsonl").write_text(
        "\n".join(json.dumps(t) for t in tweets) + "\n")
    news = [
        {"id": f"n{i}", "ts": f"{days[i * 5].isoformat()}T08:00:00Z",
         "text": "quarterly loss warning"}
        for i in range(4) if i * 5 < len(days)
    ]
    (tmp_path / "news.jsonl").write_text(
        "\n".join(json.dumps(n) for n in news) + "\n")
    return days


def write_config(tmp_path, **extra):
    defaults = {
        "stock": "TINY",
        "prices": "prices.csv",
        "tweets": "tweets.jsonl",
        "news": "news.jsonl",
        "lookback": 5,
        "hidden_units": 4,
        "epochs": 2,
        "batch_size": 16,
        "replicates": 1,
        "base_seed": 3,
        "rsi_period": 5,
        "sma_period": 5,
        "split_date": "2022-03-04",
        "feature_sets": "Prices",
        "out_dir": str(tmp_path / "out"),
    }
    defaults.update(extra)
    text = "\n".join(f"{k} = {v}" for k, v in defaults.items())
    path = tmp_path / "exp.conf"
    path.write_text(text + "\n")
    return path


class TestConfig:
    def test_defaults_follow_protocol(self):
        config = ExperimentConfig()
        assert config.hidden_units == 256
        assert config.learning_rate == 0.001
        assert config.batch_size == 128
        assert config.epochs == 100
        assert config.replicates == 10
        assert config.initial_capital == 1_000_000.0
        assert config.profit_threshold == 0.02
        assert config.dip_threshold == 0.02
        assert config.split_date == date(2022, 12, 31)
        assert len(config.feature_sets) == 12

    def test_parse_and_relative_paths(self, tmp_path):
        write_tiny_dataset(tmp_path)
        config = parse_config(write_config(tmp_path))
        assert config.stock == "TINY"
        assert config.prices == str(tmp_path / "prices.csv")
        assert config.feature_sets == ("Prices",)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_feature_set_rejected(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,NotASet")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert "NotASet" in str(exc.value)

    def test_hash_ignores_out_dir_only(self, tmp_path):
        write_tiny_dataset(tmp_path)
        config = parse_config(write_config(tmp_path))
        assert apply_overrides(config, {"out_dir": "elsewhere"}).config_hash \
            == config.config_hash
        assert apply_overrides(config, {"base_seed": 99}).config_hash \
            != config.config_hash

    def test_dip_threshold_none_or_bogus(self, tmp_path):
        write_tiny_dataset(tmp_path)
        assert parse_config(write_config(tmp_path, dip_threshold="none")).dip_threshold is None
        with pytest.raises(ConfigError, match="dip_threshold"):
            parse_config(write_config(tmp_path, dip_threshold="bogus"))

    def test_hash_covers_input_contents(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        before = parse_config(path).config_hash
        with open(tmp_path / "news.jsonl", "a") as fh:
            fh.write("\n")
        assert parse_config(path).config_hash != before

    def test_hash_independent_of_checkout(self, tmp_path):
        # the same config and inputs in two directories hash alike; the
        # inputs' bytes still count
        paths = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write_tiny_dataset(tmp_path / name)
            paths.append(write_config(tmp_path / name, out_dir="out"))
        first, second = (parse_config(path) for path in paths)
        assert first.prices != second.prices
        assert first.config_hash == second.config_hash
        with open(tmp_path / "b" / "prices.csv", "a") as fh:
            fh.write("\n")
        assert parse_config(paths[1]).config_hash != first.config_hash

    def test_comments_ignored(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        path.write_text("# leading comment\n" + path.read_text())
        assert parse_config(path).stock == "TINY"


class TestIngestCommand:
    def test_happy_path_counts(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        code = cli.main(["ingest", "--config", str(write_config(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "bars: 60" in out
        assert "tweets: 8" in out
        assert "news: 4" in out

    def test_missing_price_file_exit_2(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, prices="absent.csv")
        code = cli.main(["ingest", "--config", str(path)])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = cli.main(["ingest", "--config", str(tmp_path / "nope.conf")])
        assert code == 2
        assert "nope.conf" in capsys.readouterr().err


class TestFeaturizeCommand:
    def test_prices_shape(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path, n_bars=5)
        path = write_config(tmp_path, split_date="2022-01-06")
        code = cli.main(["featurize", "--config", str(path)])
        assert code == 0
        csv_path = tmp_path / "out" / "features_prices.csv"
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 6  # header + 5 rows
        assert lines[0].split(",") == [
            "date", "open", "high", "low", "close", "adj_close", "volume"]

    def test_deterministic_bytes(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        cli.main(["featurize", "--config", str(path)])
        first = (tmp_path / "out" / "features_prices.csv").read_bytes()
        cli.main(["featurize", "--config", str(path)])
        assert (tmp_path / "out" / "features_prices.csv").read_bytes() == first

    def test_unknown_feature_set_exit_2(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        code = cli.main(["featurize", "--config", str(path),
                         "--feature-set", "Bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Bogus" in err and "Prices-RSI-SMA" in err


@pytest.mark.parametrize("command", ["ingest", "featurize"])
def test_header_only_price_file_exit_2(tmp_path, capsys, command):
    write_tiny_dataset(tmp_path)
    prices = tmp_path / "prices.csv"
    prices.write_text(prices.read_text().splitlines()[0] + "\n")
    code = cli.main([command, "--config", str(write_config(tmp_path)),
                     "--feature-set", "Prices"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(prices) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("text", None), ("text", 5), ("id", None), ("id", 1.5), ("id", True),
    ("ts", 20220103), ("likes", 1000.9), ("likes", True), ("likes", "250"),
    ("followers", None),
], ids=["text-null", "text-number", "id-null", "id-float", "id-bool", "ts-number",
        "likes-float", "likes-bool", "likes-string", "followers-null"])
def test_mistyped_post_field_exit_2(tmp_path, capsys, field, value):
    write_tiny_dataset(tmp_path)
    tweets = tmp_path / "tweets.jsonl"
    lines = tweets.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    tweets.write_text("\n".join(lines) + "\n")
    code = cli.main(["ingest", "--config", str(write_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{tweets}:2: " in err and repr(field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 1)[0]],
                         ids=["extra-field", "missing-field"])
def test_price_row_width_exit_2(tmp_path, capsys, edit):
    write_tiny_dataset(tmp_path)
    prices = tmp_path / "prices.csv"
    lines = prices.read_text().splitlines()
    lines[3] = edit(lines[3])
    prices.write_text("\n".join(lines) + "\n")
    code = cli.main(["ingest", "--config", str(write_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{prices}:4: unparsable row at line 4: " in err
    assert "Traceback" not in err


class TestTrainEvalCommand:
    def test_single_replicate_report(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        code = cli.main(["train-eval", "--config", str(path)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rows = [r for r in report["reports"] if r["scale"] == "normalized"]
        assert len(rows) == 1
        assert rows[0]["feature_set"] == "Prices"
        assert len(rows[0]["r2_runs"]) == 1
        assert report["protocol"]["epochs"] == 2

    def test_replicates_override(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        cli.main(["train-eval", "--config", str(path), "--replicates", "2"])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rows = [r for r in report["reports"] if r["scale"] == "normalized"]
        assert len(rows[0]["r2_runs"]) == 2

    def test_identical_bytes_same_seed(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        cli.main(["train-eval", "--config", str(path)])
        first = (tmp_path / "out" / "report.json").read_bytes()
        cli.main(["train-eval", "--config", str(path)])
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    INVALID_VALUES = [
        ("hidden_units", 0), ("batch_size", 0), ("epochs", 0), ("lookback", 0),
        ("learning_rate", 0), ("rsi_period", 0), ("sma_period", 0),
        ("alpha", -1), ("beta", -1), ("gamma", -1), ("delta", -1),
        ("initial_capital", 0), ("profit_threshold", -1), ("dip_threshold", -1),
        ("learning_rate", "inf"), ("initial_capital", "inf"), ("alpha", "inf"),
        ("profit_threshold", "inf"), ("min_likes", -1),
    ]

    @pytest.mark.parametrize("key,value", INVALID_VALUES,
                             ids=[f"{key}-inf" if value == "inf" else key
                                  for key, value in INVALID_VALUES])
    def test_invalid_model_key_exit_2(self, tmp_path, key, value):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, **{key: value})
        proc = subprocess.run(
            [sys.executable, "-m", "stockcast.cli", "train-eval", "--config", str(path)],
            capture_output=True, text=True, env=subprocess_env(), check=False)
        assert proc.returncode == 2
        assert key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_key_given_twice_exit_2(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        lines = path.read_text().splitlines()
        epochs_line = next(n for n, line in enumerate(lines, 1) if line.startswith("epochs"))
        path.write_text("\n".join(lines + ["epochs = 3"]) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "stockcast.cli", "train-eval", "--config", str(path)],
            capture_output=True, text=True, env=subprocess_env(), check=False)
        assert proc.returncode == 2
        assert "'epochs'" in proc.stderr
        assert f"{path}:{len(lines) + 1}:" in proc.stderr
        assert f"line {epochs_line}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_diverged_training_exit_3(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)

        def explode(dataset, config):
            raise TrainingDiverged(0)

        monkeypatch.setattr("stockcast.pipeline.forecaster.train", explode)
        code = cli.main(["train-eval", "--config", str(path)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("last_days", [1, 2], ids=["no-test-window", "one-test-window"])
    def test_unscorable_split_refused_before_training(self, tmp_path, monkeypatch, capsys,
                                                      last_days):
        # split_date on the last bar leaves no test window, on the one before
        # it a single window; R2 cannot score either
        days = write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, split_date=days[-last_days].isoformat())
        monkeypatch.setattr("stockcast.pipeline.forecaster.train", refuse_training)
        code = cli.main(["train-eval", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "split_date" in err
        assert not (tmp_path / "out").exists()

    def test_constant_test_closes_refused_before_training(self, tmp_path, monkeypatch,
                                                          capsys):
        write_tiny_dataset(tmp_path)
        prices = tmp_path / "prices.csv"
        header, *rows = prices.read_text().splitlines()
        rows = [row if row[:10] <= "2022-03-04"
                else row[:10] + ",100.00,101.00,99.00,100.00,100.00,1000" for row in rows]
        prices.write_text("\n".join([header, *rows]) + "\n")
        monkeypatch.setattr("stockcast.pipeline.forecaster.train", refuse_training)
        code = cli.main(["train-eval", "--config", str(write_config(tmp_path))])
        err = capsys.readouterr().err
        assert code == 2
        assert "split_date" in err and "same close" in err

    def test_missing_price_file_leaves_no_out_dir(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        code = cli.main(["train-eval", "--config",
                         str(write_config(tmp_path, prices="absent.csv"))])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def refuse_training(dataset, config):
    raise AssertionError("no model may train on refused input")


def force_cores(monkeypatch, n):
    """Make the train-eval pool size see ``n`` usable cores."""
    monkeypatch.setattr("stockcast.pipeline.os.sched_getaffinity",
                        lambda pid: set(range(n)))


class TestWorkerPool:
    def test_pool_outputs_match_in_process(self, tmp_path, monkeypatch):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA", replicates=2)
        outputs = {}
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        for cores in (2, 1):
            force_cores(monkeypatch, cores)
            out_dir = tmp_path / f"out{cores}"
            assert cli.main(["train-eval", "--config", str(path),
                             "--out-dir", str(out_dir)]) == 0
            outputs[cores] = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert len(outputs[2]) == 4  # report, metrics table, two prediction files
        assert outputs[2] == outputs[1]
        # workers get 1 BLAS thread through the environment; this process's comes back
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_divergence_in_workers_exit_3(self, tmp_path, monkeypatch, capfd):
        # seed 5 diverges at epoch 0 on both sets, so both jobs fail
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA",
                            learning_rate="1e300", base_seed=5)
        force_cores(monkeypatch, 2)
        code = cli.main(["train-eval", "--config", str(path)])
        err = capfd.readouterr().err
        assert code == 3
        assert err.count("error: training diverged at epoch 0") == 1
        assert "error:" not in err.replace("error: training diverged at epoch 0", "")
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_first_error_in_job_order(self, tmp_path, monkeypatch):
        # Job 0 trains for a while and then fails in predict; job 1 diverges
        # at once. The error reported is job 0's, though job 1 fails first.
        write_tiny_dataset(tmp_path)
        config = parse_config(write_config(tmp_path))
        split = pipeline.features.make_windows(
            pipeline.build_matrix(config, pipeline.load_dataset(config), "Prices"),
            config.lookback, config.split_date)
        bad_test = pipeline.features.WindowedDataset(
            X=np.full_like(split.test.X, np.nan), y=split.test.y, dates=split.test.dates)
        slow = LstmConfig(hidden_units=4, epochs=300, batch_size=16, seed=3)
        diverging = LstmConfig(hidden_units=4, learning_rate=1e300, batch_size=16, seed=5)
        force_cores(monkeypatch, 2)
        with pytest.raises(NonFiniteActivation):
            pipeline._fit_all([(split.train, bad_test, slow),
                               (split.train, split.test, diverging)])


class TestSimulateCommand:
    def test_summary_rows_and_ledger(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA")
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        code = cli.main(["simulate", "--config", str(path)])
        assert code == 0
        summary = json.loads(
            (tmp_path / "out" / "simulation_summary.json").read_text())
        assert [row["feature_set"] for row in summary["rows"]] == [
            "Prices", "Prices-RSI-SMA"]
        assert summary["protocol"]["initial_capital"] == 1_000_000.0
        ledger = (tmp_path / "out" / "ledger_prices.csv").read_text().splitlines()
        assert ledger[0].startswith("# config_hash=")
        assert ledger[1] == "date,r,action,entry_price,exit_price,capital_after"

    def test_config_hash_echoed_everywhere(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        cli.main(["train-eval", "--config", str(path)])
        cli.main(["simulate", "--config", str(path)])
        config = parse_config(path)
        out = tmp_path / "out"
        for f in out.iterdir():
            text = f.read_text()
            assert config.config_hash in text, f.name

    def test_no_predictions_exit_2(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "predictions_prices.csv" in err and "train-eval" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("**/ledger_*.csv"))

    def test_other_seed_refused(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path), "--seed", "1"]) == 0
        code = cli.main(["simulate", "--config", str(path), "--seed", "2"])
        assert code == 2
        assert "config_hash" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ledger_prices.csv").exists()

    def test_truncated_predictions_refused(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        pred_path = tmp_path / "out" / "predictions_prices.csv"
        lines = pred_path.read_text().splitlines(keepends=True)
        pred_path.write_text("".join(lines[:-1]))
        code = cli.main(["simulate", "--config", str(path)])
        assert code == 2
        assert str(pred_path) in capsys.readouterr().err

    def test_changed_prices_refused(self, tmp_path, capsys):
        # same dates, doubled bars after split_date: forecasts made from the
        # old file must not be traded against the new one
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        prices = tmp_path / "prices.csv"
        lines = prices.read_text().splitlines()
        doubled = [lines[0]]
        for line in lines[1:]:
            day, *values = line.split(",")
            if day > "2022-03-04":
                values = [f"{2 * float(v):.2f}" for v in values[:5]] + values[5:]
            doubled.append(",".join([day, *values]))
        prices.write_text("\n".join(doubled) + "\n")
        code = cli.main(["simulate", "--config", str(path)])
        assert code == 2
        assert "config_hash" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ledger_prices.csv").exists()

    def test_dip_threshold_none(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, dip_threshold="none")
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        assert cli.main(["simulate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "simulation_summary.json").read_text())
        assert summary["protocol"]["dip_threshold"] is None
        ledger = (out / "ledger_prices.csv").read_text().splitlines()[2:]
        assert ledger
        assert not {row.split(",")[2] for row in ledger} & {"buy_at_close", "deferred_exit"}

    def test_trains_nothing(self, tmp_path, monkeypatch):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path)]) == 0

        def refuse(dataset, config):
            raise AssertionError("simulate must not train")

        monkeypatch.setattr("stockcast.pipeline.forecaster.train", refuse)
        assert cli.main(["simulate", "--config", str(path)]) == 0


def test_tracer_patches_every_name(tmp_path):
    """The benchmark's tracer wraps pipeline names by attribute; a rename fails here."""
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path)
    (tmp_path / "spans").mkdir()
    for command in ("train-eval", "simulate"):
        proc = subprocess.run(
            [sys.executable, str(REPO / "bench" / "tracer.py"),
             str(tmp_path / "spans" / command), "t", "--", command, "--config", str(path)],
            capture_output=True, text=True, env=subprocess_env(), check=False)
        assert proc.returncode == 0, proc.stderr
