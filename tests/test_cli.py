"""Config parsing and the four CLI commands on tiny datasets."""

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from stockcast import cli
from stockcast.config import ExperimentConfig, apply_overrides, parse_config
from stockcast.errors import ConfigError, TrainingDiverged


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

    @pytest.mark.parametrize("key", ["hidden_units", "batch_size", "epochs",
                                     "lookback", "learning_rate"])
    def test_invalid_model_key_exit_2(self, tmp_path, key):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, **{key: 0})
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "stockcast.cli", "train-eval", "--config", str(path)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        assert key in proc.stderr
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


class TestSimulateCommand:
    def test_summary_rows_and_ledger(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA")
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
