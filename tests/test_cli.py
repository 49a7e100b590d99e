"""Config parsing and the four CLI commands on tiny datasets."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stockcast import cli, features, forecaster, pipeline, scoring
from stockcast.config import ExperimentConfig, parse_config
from stockcast.errors import ECHO_LIMIT, RunFailed, StockcastError, echo, echo_path
from stockcast.outputs import publish

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
        with pytest.raises(StockcastError,
                           match=f"^{re.escape(str(path))}:1: unknown key 'nonsense'$"):
            parse_config(path)

    def test_unknown_feature_set_rejected(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, feature_sets="Prices,NotASet")
        line = path.read_text().splitlines().index("feature_sets = Prices,NotASet") + 1
        with pytest.raises(StockcastError, match=f"^{re.escape(str(path))}:{line}: bad value for "
                           r"'feature_sets': unknown feature sets \['NotASet'\]; valid: "):
            parse_config(path)

    def test_feature_set_named_twice_refused_before_loading(self, tmp_path, capsys):
        # prices names no file: the config error must come before any data loads
        path = write_config(tmp_path, prices="absent.csv", feature_sets="Prices, Prices")
        line = path.read_text().splitlines().index("feature_sets = Prices, Prices") + 1
        assert cli.main(["train-eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: bad value for 'feature_sets': 'Prices' named twice\n")
        assert not (tmp_path / "out").exists()
        with pytest.raises(StockcastError, match="^'Prices' named twice$"):
            ExperimentConfig(feature_sets=("Prices", "Prices"))  # a config built in code

    def test_hash_ignores_out_dir_only(self, tmp_path):
        write_tiny_dataset(tmp_path)
        config = parse_config(write_config(tmp_path))
        assert config.replace(out_dir="elsewhere").config_hash == config.config_hash
        assert config.replace(base_seed=99).config_hash != config.config_hash

    def test_overrides_are_checked(self, tmp_path, capsys):
        # a flag, or replace() in code, is checked as a config line is and names its key
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path), "--replicates", "0"]) == 2
        assert capsys.readouterr().err == "error: replicates must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()
        config = parse_config(path)
        with pytest.raises(StockcastError, match="^lookback must be >= 1, got 0$"):
            config.replace(lookback=0)
        with pytest.raises(TypeError, match="'lookback_days'"):
            config.replace(lookback_days=2)
        with pytest.raises(AttributeError):
            config.lookback = 0

    def test_dip_threshold_none_or_bogus(self, tmp_path):
        write_tiny_dataset(tmp_path)
        assert parse_config(write_config(tmp_path, dip_threshold="none")).dip_threshold is None
        with pytest.raises(StockcastError, match="bad value for 'dip_threshold'"):
            parse_config(write_config(tmp_path, dip_threshold="bogus"))

    def test_empty_path_rejected(self, tmp_path):
        # an empty path would resolve to the config's own directory
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, prices="")
        with pytest.raises(StockcastError,
                           match=f"^{re.escape(str(path))}:2: bad value for 'prices': empty path$"):
            parse_config(path)

    def test_empty_out_dir_in_config_exit_2(self, tmp_path, monkeypatch, capsys):
        # an empty out_dir would write every output into the working directory
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, out_dir="")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: out_dir must not be empty\n"
        assert not (tmp_path / "daily_sentiment.csv").exists()

    def test_empty_out_dir_flag_exit_2(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["featurize", "--config", str(path), "--out-dir", ""]) == 2
        assert capsys.readouterr().err == "error: out_dir must not be empty\n"
        assert not list(tmp_path.glob("features_*.csv"))

    def test_empty_feature_sets_refused_before_loading(self, tmp_path, capsys):
        # prices names no file: the config error must come before any data loads
        path = write_config(tmp_path, prices="absent.csv", feature_sets="")
        line = path.read_text().splitlines().index("feature_sets = ") + 1
        assert cli.main(["train-eval", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: bad value for 'feature_sets': "), err
        assert not (tmp_path / "out").exists()

    def test_bad_keep_cashtags_names_line(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, keep_cashtags="x")
        line = path.read_text().splitlines().index("keep_cashtags = x") + 1
        with pytest.raises(StockcastError, match=re.escape(
                f"{path}:{line}: bad value for 'keep_cashtags': must be true/false, got 'x'")):
            parse_config(path)

    def test_default_paths_resolve_against_config_dir(self, tmp_path, monkeypatch, capsys):
        # prices, tweets and news left out name prices.csv, tweets.jsonl and
        # news.jsonl next to the config, not in the working directory
        data = tmp_path / "data"
        data.mkdir()
        write_tiny_dataset(data)
        path = write_config(data)
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if line.split(" = ")[0] not in ("prices", "tweets", "news")))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["ingest", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bars: 60 " in out and "tweets: 8" in out and "news: 4" in out
        config = parse_config(path)
        assert (config.prices, config.tweets, config.news) == tuple(
            str(data / name) for name in ("prices.csv", "tweets.jsonl", "news.jsonl"))

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

    def test_form_feed_stays_in_its_comment(self, tmp_path):
        # str.splitlines would end the comment at the form feed
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        path.write_text("# leading\x0ccomment\n" + path.read_text())
        assert parse_config(path).stock == "TINY"
        # a later line keeps the number text mode gives it
        path.write_text(path.read_text() + "\x0c\nnonsense = 1\n")
        line = path.read_text().count("\n")
        with pytest.raises(StockcastError,
                           match=f"^{re.escape(str(path))}:{line}: unknown key 'nonsense'$"):
            parse_config(path)


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

    def test_missing_file_in_a_deep_dir_names_the_file(self, tmp_path, capsys):
        # the echo keeps a long path's tail, which holds the file name
        write_tiny_dataset(tmp_path)
        absent = tmp_path / ("deep" * 20) / "absent.csv"
        path = write_config(tmp_path, prices=absent)
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: missing file: ...{str(absent)[-ECHO_LIMIT:]}\n"


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


@pytest.mark.parametrize("command", ["featurize", "train-eval"])
@pytest.mark.parametrize("key, needed", [("rsi_period", 31), ("sma_period", 30)])
def test_indicator_period_past_price_rows_exit_2(tmp_path, capsys, command, key, needed):
    write_tiny_dataset(tmp_path, n_bars=20)
    path = write_config(tmp_path, **{key: 30})
    need = f"more than {needed - 1}" if key == "rsi_period" else f"at least {needed}"
    code = cli.main([command, "--config", str(path), "--feature-set", "Prices-RSI-SMA"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {tmp_path / 'prices.csv'}: {key} = 30: "
                   f"need {need} closes, got 20\n")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("site", ["tweet", "replay"])
def test_integer_past_digit_limit_exit_2(tmp_path, capsys, site):
    # 5,001 digits: past Python's int-string limit of 4,300, which json.loads
    # reports with a ValueError that is no JSONDecodeError
    write_tiny_dataset(tmp_path)
    huge = "9" * 5001
    if site == "tweet":
        path = tmp_path / "tweets.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"likes": 200', f'"likes": {huge}')
        path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path)
    else:
        path = tmp_path / "scores.jsonl"
        path.write_text(f'{{"id": "t0", "label": {huge}, "confidence": 1}}\n')
        config = write_config(tmp_path, provider="replay", replay_scores="scores.jsonl")
    code = cli.main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}:1: unparsable line 1: Exceeds the limit "), err[:300]
    assert "Traceback" not in err


#: The error that a weighted sentiment past float range ends with.
TOO_LARGE = "is not a finite float: engagement counts or weights alpha..delta too large\n"


@pytest.mark.parametrize("counts, too_large", [
    ({"likes": 10**400}, "is not a finite float: beta * likes too large\n"),
    ({"likes": 10**200, "followers": 10**200}, TOO_LARGE),
], ids=["likes-past-float", "product-past-float"])
def test_overflowing_engagement_exit_2(tmp_path, capsys, counts, too_large):
    # 10**400 likes cannot become a float, so beta's term is not finite;
    # 10**200 likes times 10**200 followers overflows to inf, though each
    # term is finite. Either must stop before anything is written.
    write_tiny_dataset(tmp_path)
    tweets = tmp_path / "tweets.jsonl"
    lines = tweets.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **counts})
    tweets.write_text("\n".join(lines) + "\n")
    for command in ("ingest", "featurize"):
        code = cli.main([command, "--config", str(write_config(tmp_path))])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tweets}: post id 't1': weighted sentiment {too_large}")
    assert not (tmp_path / "out").exists()


def test_day_mean_past_float_exit_2(tmp_path, capsys):
    # with alpha = 1e300 each post weighs 1e308, a finite float; the day's
    # sum of two is not
    days = write_tiny_dataset(tmp_path)
    tweets = tmp_path / "tweets.jsonl"
    post = {"ts": f"{days[0]}T12:00:00Z", "text": "profit surge rally",
            "retweets": 1, "likes": 0, "comments": 0, "followers": 10**9}
    tweets.write_text("".join(json.dumps({"id": f"big{i}", **post}) + "\n" for i in range(2)))
    code = cli.main(["ingest", "--config", str(write_config(tmp_path, alpha="1e300"))])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {tweets}: mean weighted sentiment on {days[0]} {TOO_LARGE}")
    assert not (tmp_path / "out").exists()


#: Characters of one oversized input value.
HUGE = 200_000


def oversized_input(tmp_path, site):
    """(command, config, path, line): an input with an oversized value at one
    site that echoes input into an error message."""
    write_tiny_dataset(tmp_path)
    extra = {
        "config-value": {"keep_cashtags": "x" * HUGE},
        "config-float": {"alpha": "x" * HUGE},
        "lexicon-line": {"lexicon": "lexicon.tsv"},
        "replay-field": {"provider": "replay", "replay_scores": "scores.jsonl"},
    }.get(site, {})
    config = write_config(tmp_path, **extra)
    if site.startswith("config-"):
        lines = config.read_text().splitlines()
        if site == "config-line":
            lines.append("[" * HUGE)
        line = next(n for n, text in enumerate(lines, 1) if len(text) >= HUGE)
        config.write_text("\n".join(lines) + "\n")
        return "ingest", config, config, line
    if site == "lexicon-line":
        path = tmp_path / "lexicon.tsv"
        path.write_text("profit\t+1\n" + "x" * HUGE + "\n")
        return "ingest", config, path, 2
    if site == "replay-field":
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"id": "t0", "label": [1] * 50_000, "confidence": 1}) + "\n")
        return "ingest", config, path, 1
    if site in ("post-field", "post-timestamp"):
        path = tmp_path / "tweets.jsonl"
        lines = path.read_text().splitlines()
        field = {"text": ["word"] * 50_000} if site == "post-field" else {"ts": "x" * HUGE}
        lines[2] = json.dumps({**json.loads(lines[2]), **field})
        path.write_text("\n".join(lines) + "\n")
        return "ingest", config, path, 3
    if site == "price-field":  # under the csv module's field limit
        path = tmp_path / "prices.csv"
        lines = path.read_text().splitlines()
        lines[4] = _field(lines[4], 4, "1" + "0" * 100_000 + "x")
        path.write_text("\n".join(lines) + "\n")
        return "ingest", config, path, 5
    assert site == "predictions-row"
    assert cli.main(["train-eval", "--config", str(config)]) == 0
    path = tmp_path / "out" / "predictions_prices.csv"
    lines = path.read_text().splitlines()
    lines[2] = ",".join(["1"] * 50_000)
    path.write_text("\n".join(lines) + "\n")
    return "simulate", config, path, 3


@pytest.mark.parametrize("site", ["config-line", "config-value", "config-float", "lexicon-line",
                                  "replay-field", "post-field", "post-timestamp", "price-field",
                                  "predictions-row"])
def test_oversized_value_echo_is_cut(tmp_path, capsys, site):
    command, config, path, line = oversized_input(tmp_path, site)
    capsys.readouterr()
    code = cli.main([command, "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err) < 1000, err[:2000]
    assert err.startswith(f"error: {path}:{line}: ") and err.endswith("...\n"), err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["featurize", "train-eval"])
def test_indicator_past_float_range_exit_2(tmp_path, monkeypatch, capsys, command):
    # 16 bars in a row at 1.5e308, each a valid bar: the 14-day SMA sums
    # past the float max from the first window that holds two of them
    shutil.copytree(REPO / "fixtures", tmp_path / "fixtures")
    (tmp_path / "configs").mkdir()
    shutil.copy(REPO / "configs" / "fixture.conf", tmp_path / "configs")
    prices = tmp_path / "fixtures" / "prices.csv"
    header, *rows = prices.read_text().splitlines()
    for i in range(100, 116):
        day, *_, volume = rows[i].split(",")
        rows[i] = ",".join([day, *["1.5e308"] * 5, volume])
    prices.write_text("\n".join([header, *rows]) + "\n")
    monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
    code = cli.main([command, "--config", str(tmp_path / "configs" / "fixture.conf")])
    assert code == 2
    first = rows[101][:10]
    assert capsys.readouterr().err == (
        f"error: {prices}: sma_period = 14: sma is not finite on {first}\n")
    assert not (tmp_path / "configs" / "out").exists()


def test_feature_past_float_range_once_scaled_exit_2(tmp_path, monkeypatch, capsys):
    # with alpha = 1e300 and delta = 0.17 one post weighs 1.7e308: the day
    # means of a rally post and a loss post span past the float max
    days = write_tiny_dataset(tmp_path)
    post = {"retweets": 1, "likes": 0, "comments": 0, "followers": 10**9}
    (tmp_path / "tweets.jsonl").write_text("".join(json.dumps(line) + "\n" for line in [
        {"id": "up", "ts": f"{days[0]}T12:00:00Z", "text": "profit surge rally", **post},
        {"id": "down", "ts": f"{days[3]}T12:00:00Z", "text": "quarterly loss warning", **post},
    ]))
    path = write_config(tmp_path, alpha="1e300", delta="0.17",
                        feature_sets="Prices-Weighted-Tweets")
    monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
    assert cli.main(["train-eval", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("error: feature column 'tweet_mean_ws' is not finite "
                                       "once min-max scaled on the training rows\n")
    assert not (tmp_path / "out").exists()


def test_price_file_with_byte_order_mark_exit_2(tmp_path, capsys):
    # a "CSV UTF-8" export starts with U+FEFF, which joins the first header name
    write_tiny_dataset(tmp_path)
    prices = tmp_path / "prices.csv"
    prices.write_bytes(b"\xef\xbb\xbf" + prices.read_bytes())
    assert cli.main(["ingest", "--config", str(write_config(tmp_path))]) == 2
    assert capsys.readouterr().err == f"error: {prices}:1: starts with a UTF-8 byte order mark\n"


#: Text inputs besides the prices: (file name, text, further config keys).
#: Decoded, a leading U+FEFF would join the first lexicon word, stopword,
#: replay id or config key, so that word would never match.
BOM_INPUTS = {
    "lexicon": ("lexicon.tsv", "gain\t1\nloss\t-1\n", {}),
    "stopwords": ("stopwords.txt", "the\nand\n", {}),
    "replay_scores": ("scores.jsonl", '{"id": "t0", "label": 1, "confidence": 0.5}\n',
                      {"provider": "replay"}),
    "tweets": ("tweets.jsonl", '{"id": "t0", "ts": "2022-01-05", "text": "gain"}\n', {}),
    "news": ("news.jsonl", '{"id": "n0", "ts": "2022-01-05", "text": "loss"}\n', {}),
}


@pytest.mark.parametrize("key", ["config", *BOM_INPUTS])
def test_text_input_with_byte_order_mark_exit_2(tmp_path, capsys, key):
    write_tiny_dataset(tmp_path)
    if key == "config":
        config = path = write_config(tmp_path)
    else:
        name, text, extra = BOM_INPUTS[key]
        path = tmp_path / name
        path.write_text(text)
        config = write_config(tmp_path, **{key: name}, **extra)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: starts with a UTF-8 byte order mark\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ts", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+05:00"])
@pytest.mark.parametrize("name", ["tweets.jsonl", "news.jsonl"])
def test_timestamp_past_datetime_range_exit_2(tmp_path, capsys, name, ts):
    # valid ISO 8601, but its UTC time falls outside datetime's years 1-9999
    write_tiny_dataset(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines.append(json.dumps({"id": "edge", "ts": ts, "text": "profit"}))
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--config", str(write_config(tmp_path))]) == 2
    n = len(lines)
    assert capsys.readouterr().err == (f"error: {path}:{n}: unparsable line {n}: "
                                       f"bad timestamp: date value out of range\n")


@pytest.mark.parametrize("column, value", [
    (1, "inf"), (2, "inf"), (3, "-inf"), (4, "nan"), (5, "1e999"), (6, "inf"), (6, "nan"),
], ids=["open-inf", "high-inf", "low-neg-inf", "close-nan", "adj-close-overflow",
        "volume-inf", "volume-nan"])
def test_non_finite_price_exit_2(tmp_path, capsys, column, value):
    days = write_tiny_dataset(tmp_path)
    prices = tmp_path / "prices.csv"
    lines = prices.read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = value
    lines[3] = ",".join(fields)
    prices.write_text("\n".join(lines) + "\n")
    code = cli.main(["ingest", "--config", str(write_config(tmp_path))])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {prices}:4: unparsable row at line 4: "
                                       f"non-finite price or volume on {days[2]}\n")


#: Input files the program reads, as the config key that names each; a
#: file name for those the tiny config leaves unset.
INPUT_FILES = {"config": None, "prices": None, "tweets": None, "news": None,
               "lexicon": "lexicon.tsv", "replay_scores": "scores.jsonl",
               "stopwords": "stopwords.txt"}


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("key", list(INPUT_FILES))
def test_unreadable_input_exit_2(tmp_path, capsys, key, case):
    write_tiny_dataset(tmp_path)
    extra = {key: INPUT_FILES[key]} if INPUT_FILES[key] else {}
    if key == "replay_scores":
        extra["provider"] = "replay"
    config = write_config(tmp_path, **extra)
    path = config if key == "config" else Path(getattr(parse_config(config), key))
    if path.exists():
        path.unlink()
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(path.name.encode() + b"\n\xff\n")
    code = cli.main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    expected = {
        "missing": f"error: missing file: {path}\n",
        "directory": f"error: {path}: Is a directory\n",
        "not-utf8": f"error: {path}:2: not UTF-8 text: invalid start byte\n",
    }[case]
    if key == "config" and case != "not-utf8":
        expected = f"error: config file not found: {path}\n"
    assert code == 2
    assert err == expected


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

        def explode(dataset, config, *, seed, models=1):
            raise RunFailed("training diverged at epoch 0")

        monkeypatch.setattr("stockcast.forecaster.train", explode)
        code = cli.main(["train-eval", "--config", str(path)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("last_days, windows", [(1, "0 test windows"), (2, "1 test window")],
                             ids=["no-test-window", "one-test-window"])
    def test_unscorable_split_refused_before_training(self, tmp_path, monkeypatch, capsys,
                                                      last_days, windows):
        # split_date on the last bar leaves no test window, on the one before
        # it a single window; R2 cannot score either
        days = write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, split_date=days[-last_days].isoformat())
        monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
        code = cli.main(["train-eval", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: split_date {days[-last_days]} leaves {windows}: "
                       f"R2 needs at least 2 whose closes differ\n")
        assert not (tmp_path / "out").exists()

    def test_constant_test_closes_refused_before_training(self, tmp_path, monkeypatch,
                                                          capsys):
        write_tiny_dataset(tmp_path)
        prices = tmp_path / "prices.csv"
        header, *rows = prices.read_text().splitlines()
        rows = [row if row[:10] <= "2022-03-04"
                else row[:10] + ",100.00,101.00,99.00,100.00,100.00,1000" for row in rows]
        prices.write_text("\n".join([header, *rows]) + "\n")
        monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
        code = cli.main(["train-eval", "--config", str(write_config(tmp_path))])
        err = capsys.readouterr().err
        assert code == 2
        assert "split_date" in err and "same close" in err

    def test_overflow_in_training_prints_only_the_error(self, tmp_path):
        # at lr 1e308 the first Adam step takes the weights past the float
        # range, so forward's products overflow before the loss check stops
        text = (REPO / "configs" / "fixture.conf").read_text()
        path = tmp_path / "fixture.conf"
        path.write_text(text.replace("learning_rate = 0.001", "learning_rate = 1e308")
                        .replace("../fixtures/", f"{REPO / 'fixtures'}/"))
        proc = subprocess.run(
            [sys.executable, "-m", "stockcast.cli", "train-eval", "--config", str(path),
             "--feature-set", "Prices", "--replicates", "1"],
            capture_output=True, text=True, env=subprocess_env(), check=False)
        assert proc.returncode == 3
        assert proc.stderr == "error: training diverged at epoch 0\n"

    def test_missing_price_file_leaves_no_out_dir(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        code = cli.main(["train-eval", "--config",
                         str(write_config(tmp_path, prices="absent.csv"))])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_made_before_training(self, tmp_path, monkeypatch, capsys):
        # a file where out_dir should be: refused before any model trains
        write_tiny_dataset(tmp_path)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
        assert cli.main(["train-eval", "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err.startswith(f"error: out_dir {str(out)!r}: ")

    def test_hidden_units_past_index_range_exit_2(self, tmp_path, monkeypatch, capsys):
        # numpy cannot index a parameter vector of ~6.4e19 floats
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, hidden_units=4000000000)
        monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
        assert cli.main(["train-eval", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hidden_units = 4000000000: "), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["key", "flag"])
    def test_replicates_past_memory_exit_2(self, tmp_path, how):
        # the forecasts of 10^20 replicates pass any machine's memory: refused
        # at once, not after a scan of every group size or a list of every job
        write_tiny_dataset(tmp_path)
        huge = "100000000000000000000"
        path = write_config(tmp_path, **({"replicates": huge} if how == "key" else {}))
        flag = ["--replicates", huge] if how == "flag" else []
        proc = subprocess.run(
            [sys.executable, "-m", "stockcast.cli", "train-eval", "--config", str(path), *flag],
            capture_output=True, text=True, env=subprocess_env(), timeout=30, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: replicates = {huge}: "), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_memory_error_exit_3(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        monkeypatch.setattr("stockcast.forecaster.train", exhaust_memory)
        assert cli.main(["train-eval", "--config", str(write_config(tmp_path))]) == 3
        assert capsys.readouterr().err == f"error: out of memory: {ALLOCATION_FAILED}\n"
        assert not (tmp_path / "out" / "report.json").exists()


def refuse_training(dataset, config, *, seed, models=1):
    raise AssertionError("no model may train on refused input")


#: The message of numpy's MemoryError for hidden_units = 300000.
ALLOCATION_FAILED = ("Unable to allocate 2.62 TiB for an array with shape (360008700001,) "
                     "and data type float64")


def exhaust_memory(*args, **kwargs):
    """Fail as numpy does when an allocation is refused; module level, so workers can run it."""
    raise MemoryError(ALLOCATION_FAILED)


def force_cores(monkeypatch, n):
    """Make the train-eval pool size see ``n`` usable cores."""
    monkeypatch.setattr("stockcast.scoring.os.sched_getaffinity",
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
        # numpy is loaded here already, so forked workers train with this
        # process's BLAS threads; the 1-thread environment the command sets
        # for numpy's load is restored after it
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
        table = pipeline.build_matrix(config, scoring.load_dataset(config))
        split = features.make_windows(
            features.select(table, "Prices"), config.lookback, config.split_date)
        bad_test = features.WindowedDataset(
            X=np.full_like(split.test.X, np.nan), y=split.test.y, dates=split.test.dates)
        slow = ExperimentConfig(hidden_units=4, epochs=300, batch_size=16)
        diverging = ExperimentConfig(hidden_units=4, learning_rate=1e300, batch_size=16)
        with pytest.raises(RunFailed, match=r"^non-finite prediction; training diverged\?$"):
            pipeline._fit_all([(slow, 3, 1, split.train, bad_test),
                               (diverging, 5, 1, split.train, split.test)], workers=2)

    def test_group_raises_the_diverging_replicates_error(self, tmp_path, monkeypatch, capsys):
        # at lr 1e300 seed 4 trains through and seed 5 diverges at epoch 0; on
        # one core the two train as one group, which fails, and then one at a
        # time: seed 4 trains, and seed 5 raises its own error
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path, replicates=2, learning_rate="1e300", base_seed=4)
        force_cores(monkeypatch, 1)
        calls = []
        real_train = forecaster.train

        def recording_train(dataset, config, *, seed, models=1):
            calls.append(tuple(range(seed, seed + models)))
            try:
                return real_train(dataset, config, seed=seed, models=models)
            except RunFailed as exc:
                calls.append(str(exc))
                raise

        monkeypatch.setattr("stockcast.forecaster.train", recording_train)
        assert cli.main(["train-eval", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "error: training diverged at epoch 0\n"
        assert calls == [(4, 5), "training diverged at epoch 0", (4,), (5,),
                         "training diverged at epoch 0"]

    def test_group_error_is_the_first_failing_replicates(self, monkeypatch):
        # replicate 0 alone diverges at epoch 2 and replicate 1 at epoch 0, so
        # their group stops at epoch 0; the error raised is replicate 0's
        diverges_at = {7: 2, 8: 0}

        def diverging_train(dataset, config, *, seed, models=1):
            epoch = min(diverges_at[seed + k] for k in range(models))
            raise RunFailed(f"training diverged at epoch {epoch}")

        monkeypatch.setattr("stockcast.forecaster.train", diverging_train)
        with pytest.raises(RunFailed, match="^training diverged at epoch 2$"):
            pipeline._fit_group([(ExperimentConfig(hidden_units=4), 7, 2, None, None)], 0)

    def test_memory_error_in_worker_comes_back(self):
        # the CLI turns it into exit 3 as it does one raised here
        with scoring._worker_pool(2, None) as run, pytest.raises(MemoryError) as caught:
            list(run(exhaust_memory, [0, 1]))
        assert str(caught.value) == ALLOCATION_FAILED


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

    def test_capital_past_float_range_exit_3(self, tmp_path, capsys):
        # closes below opens after split_date: the forecasts' shorts gain, and
        # the first gain takes 1.79e308 past the largest float
        write_tiny_dataset(tmp_path)
        prices = tmp_path / "prices.csv"
        lines = prices.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            day, open_, high, low, close, *rest = line.split(",")
            if day > "2022-03-04":
                lines[i] = ",".join([day, close, high, low, open_, *rest])
        prices.write_text("\n".join(lines) + "\n")
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA",
                            initial_capital=1.79e308)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        code = cli.main(["simulate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("error: capital on 2022-03-07 is inf, not a finite number: "
                       "lower initial_capital (1.79e+308)\n")
        out = tmp_path / "out"
        assert not list(out.glob("ledger_*.csv"))
        assert not (out / "simulation_summary.json").exists()

    def test_trains_nothing(self, tmp_path, monkeypatch):
        write_tiny_dataset(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["train-eval", "--config", str(path)]) == 0

        def refuse(dataset, config, *, seed, models=1):
            raise AssertionError("simulate must not train")

        monkeypatch.setattr("stockcast.forecaster.train", refuse)
        assert cli.main(["simulate", "--config", str(path)]) == 0


def staged_files(out_dir):
    return sorted(f.name for f in Path(out_dir).iterdir() if f.name.endswith(".tmp"))


#: A device on which every write fails with ENOSPC.
DEV_FULL = Path("/dev/full")


class TestPublish:
    """A command's outputs land together, its marker last, or not at all."""

    @staticmethod
    def short_out_dir(tmp_path, monkeypatch):
        """Run in tmp_path with out_dir ``out``: an error shows the whole output path."""
        monkeypatch.chdir(tmp_path)
        return Path("out")

    def test_failed_writer_leaves_previous_run(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA", out_dir=out)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        before = read_outputs(out)
        real = pipeline.write_predictions_csv
        calls = []

        def fail_second(stage, config, result):
            calls.append(stage)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", str(stage))
            real(stage, config, result)

        monkeypatch.setattr("stockcast.pipeline.write_predictions_csv", fail_second)
        # another seed, so a file that landed would differ
        assert cli.main(["train-eval", "--config", str(path), "--seed", "9"]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'predictions_prices_rsi_sma.csv'}: No space left on device\n")
        assert read_outputs(out) == before
        assert staged_files(out) == []

    def test_failed_rename_leaves_no_marker(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA", out_dir=out)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        real = os.replace
        calls = []

        def fail_second(src, dst):
            calls.append(str(dst))
            if len(calls) == 2:
                raise OSError(5, "Input/output error", str(src), None, str(dst))
            real(src, dst)

        monkeypatch.setattr("stockcast.outputs.os.replace", fail_second)
        assert cli.main(["train-eval", "--config", str(path), "--seed", "9"]) == 2
        assert capsys.readouterr().err == f"error: {calls[1]}: Input/output error\n"
        assert calls[1] == str(out / "predictions_prices.csv")  # the marker was not reached
        assert not (out / "report.json").exists()
        assert staged_files(out) == []

    def test_directory_in_place_of_an_output_exit_2(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, feature_sets="Prices,Prices-Tweets", out_dir=out)
        blocked = out / "predictions_prices_tweets.csv"
        blocked.mkdir(parents=True)
        assert cli.main(["train-eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
        assert not (out / "report.json").exists()
        assert staged_files(out) == []

    def test_directory_in_place_of_the_summary_exit_2(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, out_dir=out)
        assert cli.main(["train-eval", "--config", str(path)]) == 0
        blocked = out / "simulation_summary.json"
        blocked.mkdir()
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
        assert not list(out.glob("ledger_*.csv"))
        assert staged_files(out) == []

    def test_failure_under_a_deep_out_dir_names_the_file(self, tmp_path, monkeypatch, capsys):
        # the echo keeps a long path's tail, which holds the file name
        write_tiny_dataset(tmp_path)
        out = tmp_path / ("deep" * 20) / "out"
        path = write_config(tmp_path, out_dir=out)
        failed = out / "predictions_prices.csv"
        assert len(str(failed)) > ECHO_LIMIT

        def fail(stage, config, result):
            raise OSError(28, "No space left on device", str(stage))

        monkeypatch.setattr("stockcast.pipeline.write_predictions_csv", fail)
        assert cli.main(["train-eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: ...{str(failed)[-ECHO_LIMIT:]}: No space left on device\n")
        assert staged_files(out) == []

    def test_featurize_prints_after_landing(self, tmp_path, monkeypatch, capsys):
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, feature_sets="Prices,Prices-RSI-SMA", out_dir=out)
        real = cli.write_matrix_csv

        def fail_second(stage, config, columns, column_text):
            real(stage, config, columns, column_text)
            if "rsi_sma" in stage.name:
                raise OSError(28, "No space left on device", str(stage))

        monkeypatch.setattr(cli, "write_matrix_csv", fail_second)
        assert cli.main(["featurize", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out / 'features_prices_rsi_sma.csv'}: No space left on device\n")
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
    @pytest.mark.parametrize("command, name", [("ingest", "daily_sentiment.csv"),
                                               ("train-eval", "report.json")],
                             ids=["csv", "json"])
    def test_full_device_names_the_output(self, tmp_path, monkeypatch, capsys, command, name):
        # a real failed write or close raises an OSError that carries no file name
        write_tiny_dataset(tmp_path)
        out = self.short_out_dir(tmp_path, monkeypatch)
        path = write_config(tmp_path, out_dir=out)
        out.mkdir()
        (out / f".{name}.{os.getpid()}.tmp").symlink_to(DEV_FULL)
        assert cli.main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {out / name}: No space left on device\n"
        assert list(out.iterdir()) == []
        assert DEV_FULL.exists()


def refuse_posts(*args, **kwargs):
    raise AssertionError("the posts were scored by ingest; no command may read them again")


def read_outputs(out_dir):
    return {f.name: f.read_bytes() for f in Path(out_dir).iterdir()}


def check_frozen_daily_sentiment(saved):
    r"""``saved``, the fixture's daily_sentiment.csv, hashes without its
    ``# scores=`` line, which any edit to a scoring module moves, to the
    ``daily_sentiment_sha256`` of tests/data/fixture_daily_sentiment.json.
    Its values are Python floats summed left to right, so its bytes do not
    depend on the host.

    The digest was written from a checkout P of commit ef0b2b4 (``git
    archive ef0b2b4 | tar -x -C P``) by this command:

        PYTHONPATH=P/src python -m stockcast.cli ingest \
            --config P/configs/fixture.conf --out-dir P/out &&
        grep -v '^# scores=' P/out/daily_sentiment.csv | sha256sum
    """
    frozen = json.loads((REPO / "tests" / "data" / "fixture_daily_sentiment.json")
                        .read_text(encoding="utf-8"))
    kept = b"".join(line for line in saved.splitlines(keepends=True)
                    if not line.startswith(b"# scores="))
    assert hashlib.sha256(kept).hexdigest() == frozen["daily_sentiment_sha256"]


class TestScoredOnce:
    """ingest saves the daily sentiment; featurize and train-eval reuse it."""

    def test_fixture_outputs_identical_with_or_without_ingest(self, tmp_path, monkeypatch):
        config = str(REPO / "configs" / "fixture.conf")
        run = ["--feature-set", "Prices-Tweets-News", "--replicates", "1"]
        outputs = {}
        for name in ("alone", "after-ingest"):
            out_dir = str(tmp_path / name)
            if name == "after-ingest":
                assert cli.main(["ingest", "--config", config, "--out-dir", out_dir]) == 0
                monkeypatch.setattr("stockcast.scoring.read_posts", refuse_posts)
            assert cli.main(["featurize", "--config", config, "--out-dir", out_dir]) == 0
            assert cli.main(["train-eval", "--config", config, "--out-dir", out_dir, *run]) == 0
            outputs[name] = read_outputs(out_dir)
        saved = outputs["after-ingest"].pop(scoring.DAILY_SENTIMENT_FILE)
        assert saved.startswith(b"# config_hash=")
        check_frozen_daily_sentiment(saved)
        assert len(outputs["alone"]) == 12 + 3  # 12 feature files, report, table, predictions
        assert outputs["after-ingest"] == outputs["alone"]

    def test_saved_rows_equal_scored_rows(self, tmp_path, fixture_config_path):
        config = parse_config(fixture_config_path).replace(out_dir=str(tmp_path))
        scored = scoring.load_dataset(config, tmp_path)  # nothing saved yet
        with publish(tmp_path) as stage:
            scoring.write_daily_sentiment(stage(scoring.DAILY_SENTIMENT_FILE), config, scored)
        saved = scoring.load_dataset(config, tmp_path)
        for key in ("tweet_count", "news_count", "daily"):
            assert getattr(saved, key) == getattr(scored, key), key
        assert list(saved.daily) == scoring.DAILY_SENTIMENT_COLUMNS[1:]
        assert 0 in saved.daily["tweet_count"]  # forward-filled days too

    @pytest.mark.parametrize("command, flags", [
        ("featurize", []), ("featurize", ["--feature-set", "Prices-Weighted-Tweets-News"]),
        ("train-eval", []), ("train-eval", ["--feature-set", "Prices-Tweets"]),
        ("train-eval", ["--seed", "9"]), ("train-eval", ["--replicates", "2"]),
    ])
    def test_reuse_reads_no_post(self, tmp_path, monkeypatch, command, flags):
        write_tiny_dataset(tmp_path)
        config = str(write_config(tmp_path))
        assert cli.main(["ingest", "--config", config]) == 0
        monkeypatch.setattr("stockcast.scoring.read_posts", refuse_posts)
        assert cli.main([command, "--config", config, *flags]) == 0

    #: An edit after ingest, as (config key, new value) or (file key, edit of its text).
    EDITS = {
        "prices": lambda text: text.replace(",1000\n", ",1001\n", 1),
        "tweets": lambda text: text.replace("profit surge rally", "loss warning", 1),
        "news": lambda text: text.replace("quarterly loss warning", "profit", 1),
        "lexicon": lambda text: text.replace("profit\t+1", "profit\t-1"),
        "replay_scores": lambda text: text.replace('"label": 1', '"label": -1', 1),
        "stopwords": lambda text: text + "profit\n",
        "provider": "replay",
        "min_likes": 250,
        "keep_cashtags": "false",
        "alpha": 0.5, "beta": 0.5, "gamma": 0.5, "delta": 0.5,
    }

    @pytest.mark.parametrize("key", list(EDITS))
    def test_edit_after_ingest_rescores(self, tmp_path, monkeypatch, key):
        write_tiny_dataset(tmp_path)
        resources = Path(scoring.__file__).parent / "resources"
        for name in ("lexicon.tsv", "stopwords.txt"):
            (tmp_path / name).write_bytes((resources / name).read_bytes())
        (tmp_path / "scores.jsonl").write_text("".join(
            json.dumps({"id": post_id, "label": 1, "confidence": 0.5}) + "\n"
            for post_id in [f"t{i}" for i in range(8)] + [f"n{i}" for i in range(4)]))
        files = {"lexicon": "lexicon.tsv", "stopwords": "stopwords.txt",
                 "replay_scores": "scores.jsonl"}
        extra = dict(files, feature_sets="all")
        if key == "replay_scores":
            extra["provider"] = "replay"
        config = write_config(tmp_path, **extra)
        assert cli.main(["ingest", "--config", str(config)]) == 0
        edit = self.EDITS[key]
        if callable(edit):
            path = Path(getattr(parse_config(config), key))
            path.write_text(edit(path.read_text()))
        else:
            config = write_config(tmp_path, **extra, **{key: edit})
        loads = []
        load_posts = scoring.read_posts

        def counting(path, kind, byte_range=None):
            loads.append(kind)
            return load_posts(path, kind, byte_range)

        monkeypatch.setattr("stockcast.scoring.read_posts", counting)
        assert cli.main(["featurize", "--config", str(config)]) == 0
        assert loads, "featurize reused scores from before the edit"
        fresh = tmp_path / "fresh"
        assert cli.main(["featurize", "--config", str(config), "--out-dir", str(fresh)]) == 0
        reused = read_outputs(tmp_path / "out")
        del reused[scoring.DAILY_SENTIMENT_FILE]
        assert reused == read_outputs(fresh)

    def test_failed_ingest_writes_nothing(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        tweets = tmp_path / "tweets.jsonl"
        good = tweets.read_text()
        tweets.write_text(good + "not json\n")
        config = str(write_config(tmp_path))
        assert cli.main(["ingest", "--config", config]) == 2
        assert not (tmp_path / "out").exists()
        tweets.write_text(good)
        assert cli.main(["ingest", "--config", config]) == 0
        saved = read_outputs(tmp_path / "out")
        tweets.write_text(good + "not json\n")
        assert cli.main(["ingest", "--config", config]) == 2
        assert read_outputs(tmp_path / "out") == saved  # no new file, no temporary one

    #: One edit of a saved file's lines each, and the 1-based line it breaks.
    MALFORMED = {
        "config-hash-line": (lambda lines: ["config_hash=x", *lines[1:]], 1),
        "kept-line": (lambda lines: [*lines[:2], "# kept_tweets=-1 kept_news=4", *lines[3:]], 3),
        "header": (lambda lines: [*lines[:3], lines[3].replace("tweet_mean_ws", "ws"),
                                  *lines[4:]], 4),
        "date-skipped": (lambda lines: [*lines[:6], *lines[7:]], 7),
        "dates-swapped": (lambda lines: [*lines[:6], lines[7], lines[6], *lines[8:]], 7),
        "mean-nan": (lambda lines: [*lines[:9], _field(lines[9], 3, "nan"), *lines[10:]], 10),
        "mean-inf": (lambda lines: [*lines[:9], _field(lines[9], 6, "inf"), *lines[10:]], 10),
        "count-negative": (lambda lines: [*lines[:9], _field(lines[9], 4, "-1"), *lines[10:]], 10),
        "count-fraction": (lambda lines: [*lines[:9], _field(lines[9], 8, "1.5"), *lines[10:]],
                           10),
        "rows-missing": (lambda lines: lines[:-1], 64),
        "row-extra": (lambda lines: [*lines, lines[-1]], 65),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_saved_file_exit_2(self, tmp_path, monkeypatch, capsys, case):
        write_tiny_dataset(tmp_path)
        config = str(write_config(tmp_path))
        assert cli.main(["ingest", "--config", config]) == 0
        path = tmp_path / "out" / scoring.DAILY_SENTIMENT_FILE
        edit, line = self.MALFORMED[case]
        lines = path.read_text().splitlines()
        assert len(lines) == 64  # 4 header lines, 60 trading dates
        path.write_text("\n".join(edit(lines)) + "\n")
        monkeypatch.setattr("stockcast.forecaster.train", refuse_training)
        capsys.readouterr()
        for command in ("featurize", "train-eval"):
            assert cli.main([command, "--config", config]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}:{line}: "), err
            assert err.endswith("; rerun ingest into this out dir\n"), err
        assert not list((tmp_path / "out").glob("features_*.csv"))

    def test_other_digest_is_rescored(self, tmp_path, monkeypatch):
        # a file from another config's ingest is left alone, however broken
        write_tiny_dataset(tmp_path)
        config = str(write_config(tmp_path))
        assert cli.main(["ingest", "--config", config]) == 0
        path = tmp_path / "out" / scoring.DAILY_SENTIMENT_FILE
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "# scores=0", "garbage"]) + "\n")
        assert cli.main(["featurize", "--config", config]) == 0

    def test_other_digest_with_a_bad_byte_is_rescored(self, tmp_path):
        # the digest is checked before any row: a byte that is not UTF-8 fails nothing
        write_tiny_dataset(tmp_path)
        config = str(write_config(tmp_path))
        assert cli.main(["ingest", "--config", config]) == 0
        path = tmp_path / "out" / scoring.DAILY_SENTIMENT_FILE
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"# scores=0\n"
        lines[5] = b"\xff" + lines[5]
        path.write_bytes(b"".join(lines))
        assert cli.main(["featurize", "--config", config]) == 0
        fresh = tmp_path / "fresh"
        assert cli.main(["featurize", "--config", config, "--out-dir", str(fresh)]) == 0
        reused = read_outputs(tmp_path / "out")
        assert reused.pop(scoring.DAILY_SENTIMENT_FILE) == b"".join(lines)  # left alone
        assert reused == read_outputs(fresh)


def _field(line, i, value):
    """``line`` of a saved daily file with comma-separated field ``i`` replaced."""
    fields = line.split(",")
    fields[i] = value
    return ",".join(fields)


#: Spans each command must record in the CLI process: the tracer patches
#: module attributes, so one the program stopped looking up would be missing.
TRACED_SPANS = {
    "ingest": {"config.parse_config", "pipeline.load_dataset"},
    "featurize": {"config.parse_config", "pipeline.load_dataset", "features.assemble"},
    "train-eval": {"config.parse_config", "pipeline.load_dataset", "features.assemble",
                   "evaluation.r_squared"},
    "simulate": {"config.parse_config", "market_sim.run_simulation"},
}


def test_tracer_patches_every_name(tmp_path):
    """The benchmark's tracer wraps pipeline names by attribute; a rename fails
    here, and so does a call the program no longer makes through a patched name.

    featurize and train-eval run after ingest, so on its saved daily sentiment."""
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path)
    (tmp_path / "spans").mkdir()
    for command, spans in TRACED_SPANS.items():
        prefix = tmp_path / "spans" / command
        proc = subprocess.run(
            [sys.executable, str(REPO / "bench" / "tracer.py"),
             str(prefix), "t", "--", command, "--config", str(path)],
            capture_output=True, text=True, env=subprocess_env(), check=False)
        assert proc.returncode == 0, proc.stderr
        meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        called = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype=np.intc,
                               count=meta["count"])
        assert spans <= {meta["names"][i] for i in called}, command


def test_traced_run_writes_the_same_bytes(tmp_path):
    """train-eval then simulate, once as the CLI and once through bench/tracer.py,
    into two out dirs: every file must be byte-identical, as the benchmark
    requires of each traced pass against its untraced first pass. The tracer
    only wraps calls, so a wrapper that changed a result or a call's order
    would show here. Two sets of two replicates train as two lockstep pairs,
    in the pool on a host with 2 or more cores. The tracer loads numpy
    before the command does, so the traced process may get more BLAS
    threads than the plain one; but at this shape (4 hidden units, batch
    16) each matmul is small enough for BLAS to run on one thread, so a
    mismatch that depends on the BLAS thread count may not show here."""
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path, feature_sets="Prices,Prices-Weighted-Tweets", replicates=2)
    runs = {"plain": [sys.executable, "-m", "stockcast.cli"],
            "traced": [sys.executable, str(REPO / "bench" / "tracer.py"),
                       str(tmp_path / "spans"), "t", "--"]}
    for name, argv in runs.items():
        for command in ("train-eval", "simulate"):
            proc = subprocess.run(
                [*argv, command, "--config", str(path), "--out-dir", str(tmp_path / name)],
                capture_output=True, text=True, env=subprocess_env(), check=False)
            assert proc.returncode == 0, proc.stderr
    plain = read_outputs(tmp_path / "plain")
    assert "simulation_summary.json" in plain and "report.json" in plain
    assert read_outputs(tmp_path / "traced") == plain


#: Imported by a CLI subprocess before its command runs (see run_probed).
#: Forked workers inherit every patch, so each wrapper calls the function
#: it replaces, captured here before the patch. ``forks`` holds the
#: threads of the process at each fork; a post task records whether its
#: worker has numpy and a training job its worker's BLAS thread count
#: (asked as the benchmark asks), in a file named by the task and the pid.
POOL_PROBE = """\
import os, sys
from pathlib import Path
from stockcast import pipeline, scoring

HERE = Path(__file__).parent
_fork, _score_range, _fit_group = os.fork, scoring._score_range, pipeline._fit_group
forks = []


def fork():
    forks.append(len(os.listdir("/proc/self/task")))
    return _fork()


def score_range(shared, task):
    rows = _score_range(shared, task)
    HERE.joinpath(f"score_range.{os.getpid()}.probe").write_text(str("numpy" in sys.modules))
    return rows


def fit_group(jobs, index):
    from run import blas_threads  # bench/run.py

    HERE.joinpath(f"fit_group.{os.getpid()}.probe").write_text(str(blas_threads()))
    return _fit_group(jobs, index)


os.fork = fork
scoring._score_range = score_range
pipeline._fit_group = fit_group
"""


def run_probed(tmp_path, argv, cores=None):
    """Run the CLI on ``argv`` in a subprocess with POOL_PROBE installed and
    2 post workers, however small the post files. Returns the forks and a
    dict task -> what its workers recorded; every probed task must have run
    in a worker. ``cores`` forces the usable core count. BLAS may take 2
    threads, so numpy loaded before a fork shows in the forks."""
    (tmp_path / "pool_probe.py").write_text(POOL_PROBE)
    code = "\n".join([
        "import json, sys",
        "import pool_probe",
        "from stockcast import cli, scoring",
        "scoring._post_workers = lambda config: 2",
        *([f"scoring.os.sched_getaffinity = lambda pid: set(range({cores}))"] if cores else []),
        f"code = cli.main({argv!r})",
        "print(json.dumps([pool_probe.os.getpid(), pool_probe.forks]))",
        "sys.exit(code)",
    ])
    env = subprocess_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(tmp_path), str(REPO / "bench")])
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pid, forks = json.loads(proc.stdout.splitlines()[-1])
    recorded = {}
    for path in tmp_path.glob("*.probe"):
        task, worker, _ = path.name.split(".")
        assert int(worker) != pid, path.name
        recorded.setdefault(task, []).append(path.read_text())
    return forks, recorded


@pytest.mark.parametrize("case", ["import", "ingest", "featurize", "simulate",
                                  "score_range_worker", "featurize_score_range_worker"])
def test_start_up_leaves_out_numpy(tmp_path, fixture_config_path, case):
    """Only train-eval loads numpy. A fresh interpreter that imports the CLI
    and reads a config (the benchmark's setup_s), the ingest, featurize
    (over the daily_sentiment.csv ingest wrote) and simulate commands, and a
    post worker, in ingest or in a featurize that finds no
    daily_sentiment.csv to read, run without it. The first four also leave
    out multiprocessing, which the worker pools import when they start, and
    dataclasses and inspect, which cost every command's start-up about
    10 ms: no record in the package is a dataclass."""
    config = str(fixture_config_path)
    ingest = ["ingest", "--config", config, "--out-dir", str(tmp_path / "out")]
    if case.endswith("score_range_worker"):
        command = ingest if case == "score_range_worker" else ["featurize", *ingest[1:]]
        _, recorded = run_probed(tmp_path, command)
        assert {task: set(values) for task, values in recorded.items()} == {
            "score_range": {"False"}}
        return
    one_model = ["--feature-set", "Prices", "--replicates", "1"]
    absent = ("numpy", "multiprocessing", "dataclasses", "inspect")
    report = f"print(*(name in sys.modules for name in {absent!r}))"
    if case == "import":
        code = f"import sys; from stockcast import cli; cli.parse_config({config!r}); {report}"
    else:
        if case == "featurize":
            assert cli.main(ingest) == 0
        elif case == "simulate":
            assert cli.main(["train-eval", *ingest[1:], *one_model]) == 0
        argv = {"ingest": ingest, "featurize": ["featurize", *ingest[1:]],
                "simulate": ["simulate", *ingest[1:], *one_model]}[case]
        code = f"import sys; from stockcast import cli; assert cli.main({argv!r}) == 0; {report}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), cwd=tmp_path, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == " ".join(["False"] * len(absent))


@pytest.mark.parametrize("command, forks, expected", [
    ("ingest", 2, {"score_range": {"False"}}),
    ("featurize", 2, {"score_range": {"False"}}),
    ("train-eval", 4, {"score_range": {"False"}, "fit_group": {"1"}}),
], ids=["ingest", "featurize", "train-eval"])
def test_pools_fork_from_one_thread(tmp_path, fixture_config_path, command, forks, expected):
    """Every pool forks from a single-threaded process: the post pools
    before numpy loads, so no post worker has it, and the training pool
    after numpy loaded with 1 BLAS thread, so every training worker trains
    with 1, whatever the environment gives the command; byte-identical
    reruns depend on that count. train-eval finds no daily_sentiment.csv,
    so it forks a post pool and then, on 2 cores, a training pool."""
    argv = [command, "--config", str(fixture_config_path), "--out-dir", str(tmp_path / "out"),
            "--feature-set", "Prices"]
    threads, recorded = run_probed(tmp_path, argv, cores=2)
    assert threads == [1] * forks
    assert {task: set(values) for task, values in recorded.items()} == expected


# --- every malformed input fails cleanly ------------------------------------

NON_FINITE = ["inf", "-inf", "nan", "1e999"]
JSON_VALUES = [None, True, 1, 1.5, "s", [], {}]


def mutate_line(name, line, mutation, draw):
    """``line`` of the file ``name`` with one field dropped, added or replaced."""
    if name.endswith(".conf"):
        key, value = line.split(" = ", 1)
        if mutation == "drop-field":
            return f"{key} ="
        if mutation == "add-field":
            return f"{line} = 1"
        return f"{key} = " + draw(st.sampled_from(
            NON_FINITE if mutation == "non-finite" else ["true", "abc", "[]", '""']))
    if name.endswith(".csv"):
        fields = line.split(",")
        i = draw(st.integers(0, len(fields) - 1))
        if mutation == "drop-field":
            del fields[i]
        elif mutation == "add-field":
            fields.insert(i, "7")
        else:
            fields[i] = draw(st.sampled_from(
                NON_FINITE if mutation == "non-finite" else ["abc", "true", ""]))
        return ",".join(fields)
    record = json.loads(line)
    key = draw(st.sampled_from(sorted(record)))
    if mutation == "drop-field":
        del record[key]
    elif mutation == "add-field":
        record["extra"] = 1
    elif mutation == "non-finite":
        record[key] = float(draw(st.sampled_from(NON_FINITE)))
    else:
        record[key] = draw(st.sampled_from([v for v in JSON_VALUES if v != record[key]]))
    return json.dumps(record)


def mutate(name, data, mutation, draw):
    """``data``, the bytes of the file ``name``, with one mutation applied."""
    if mutation == "bom":
        return b"\xef\xbb\xbf" + data
    if mutation == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = data.splitlines()
    if mutation == "truncate":
        lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1]) - 1))]
        return b"\n".join(lines)
    i = draw(st.integers(0, len(lines) - 1))
    if mutation in ("non-utf8", "pad"):
        at = draw(st.integers(0, len(lines[i])))
        insert = b"x" * OVER_CSV_FIELD_LIMIT if mutation == "pad" \
            else draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"]))
        lines[i] = lines[i][:at] + insert + lines[i][at:]
    elif mutation == "nested":
        lines[i] = b"[" * 200_000  # past json's recursion limit
    else:
        lines[i] = mutate_line(name, lines[i].decode(), mutation, draw).encode()
    return b"\n".join(lines) + b"\n"


MUTATIONS = ["drop-field", "add-field", "non-finite", "swap-type", "bom", "crlf", "truncate",
             "non-utf8", "pad", "nested"]

#: One more character than the csv module's default field_size_limit().
OVER_CSV_FIELD_LIMIT = 131_073


class Draws:
    """Stands in for ``st.data()`` in an explicit example: each draw returns
    the next of the given values, whatever the strategy."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["prices.csv", "tweets.jsonl", "exp.conf", "predictions_prices.csv",
                             "daily_sentiment.csv"]),
       mutation=st.sampled_from(MUTATIONS), data=st.data())
# a price field and a predictions field over the csv field limit (csv.Error)
@example(name="prices.csv", mutation="pad", data=Draws(1, 0))
@example(name="predictions_prices.csv", mutation="pad", data=Draws(2, 0))
# a posts line that json.loads gives up on with a RecursionError
@example(name="tweets.jsonl", mutation="nested", data=Draws(0))
# a path longer than the OS allows (OSError ENAMETOOLONG): line 3 is tweets = tweets.jsonl
@example(name="exp.conf", mutation="pad", data=Draws(2, len("tweets = tweets.jsonl")))
def test_mutated_input_fails_cleanly(tmp_path, monkeypatch, capsys, name, mutation, data):
    """One mutated line or byte in one input: exit 0, 2 or 3, never a traceback.

    ``ingest`` reads the prices, posts and config; ``simulate`` reads the
    predictions file, written once by a tiny ``train-eval``; ``featurize``
    reads the daily_sentiment.csv that an ``ingest`` just before wrote.
    An exit 2 prints one short ``error:`` line naming the mutated file, or,
    for a config mutation, its key or the file the key now names, cut by
    ``echo_path`` like any path. The config's
    ``out_dir = out`` resolves against the working directory, tmp_path.
    """
    monkeypatch.chdir(tmp_path)
    sim = tmp_path / "sim"
    if not (tmp_path / "exp.conf").exists():
        write_tiny_dataset(tmp_path, n_bars=20)
        write_config(tmp_path, out_dir="out")
        sim.mkdir()
        write_tiny_dataset(sim)
        assert cli.main(["train-eval", "--config", str(write_config(sim))]) == 0
        capsys.readouterr()
    if name.startswith("predictions_"):
        command, config, path = "simulate", sim / "exp.conf", sim / "out" / name
    elif name == "daily_sentiment.csv":
        command, config, path = "featurize", tmp_path / "exp.conf", Path("out") / name
        assert cli.main(["ingest", "--config", str(config)]) == 0  # this config's digest
        capsys.readouterr()
    else:
        command, config, path = "ingest", tmp_path / "exp.conf", tmp_path / name
    original = path.read_bytes()
    mutated = mutate(name, original, mutation, data.draw)
    path.write_bytes(mutated)
    try:
        code = cli.main([command, "--config", str(config)])
    finally:
        path.write_bytes(original)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code != 2:
        return
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert len(err) < 1000, err[:1000]
    named = [str(path)]
    if name.endswith(".conf"):
        for old, line in zip(original.splitlines(), mutated.splitlines()):
            if old != line:
                key, _, value = (part.strip() for part in
                                 line.decode("utf-8", "replace").partition("="))
                named.append(key)
                if value:
                    named.append(echo_path((tmp_path / value).resolve()))
    assert any(n and n in err for n in named), err
