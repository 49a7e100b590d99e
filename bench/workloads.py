"""The benchmark's workloads: which CLI commands run, on which inputs.

``fixture_quickstart`` runs the README quickstart on the committed
fixtures. The other two run on inputs generated from the workload seed
into the run's own directory; the program sees only those files and a
config written next to them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import check
import gen
from stockcast.config import parse_config
from stockcast.features import feature_set_columns

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GENERATED_SPAN = (date(2018, 1, 1), date(2023, 12, 31))

PROTOCOL_CONFIG = """\
# protocol_shape: the reference model shape, sized to a few epochs.
stock = SYNT
prices = prices.csv
tweets = tweets.jsonl
news = news.jsonl
provider = lexicon
min_likes = 100
rsi_period = 14
sma_period = 14
lookback = 30
hidden_units = 256
learning_rate = 0.001
batch_size = 128
epochs = 3
split_date = 2022-12-31
replicates = 1
base_seed = 42
feature_sets = Prices-Tweets-News-RSI-SMA
out_dir = out
"""

POSTS_CONFIG = """\
# posts_bulk: a high post volume through ingest and featurize.
stock = SYNT
prices = prices.csv
tweets = tweets.jsonl
news = news.jsonl
provider = lexicon
min_likes = 100
rsi_period = 14
sma_period = 14
lookback = 30
split_date = 2022-12-31
feature_sets = all
out_dir = out
"""


@dataclass
class Inputs:
    """What a workload's commands run on, and what its outputs must show."""

    config: Path
    sizes: dict             # input sizes, reported with every result
    dates: list             # trading dates of the price file
    expected_counts: dict   # feature column -> {trading date: posts}
    reference: dict | None


def describe(config_path, reference=None):
    """Read a workload's inputs back: sizes, calendar and daily post counts."""
    config = parse_config(config_path)
    dates = check.trading_dates(config.prices)
    tweet_texts, tweet_counts = check.scan_posts(dates, config.tweets, config.min_likes)
    news_texts, news_counts = check.scan_posts(dates, config.news)
    texts = tweet_texts + news_texts
    windows = sum(1 for d in dates if d <= config.split_date) - config.lookback
    models = len(config.feature_sets) * config.replicates
    return Inputs(
        config=Path(config_path),
        sizes={
            "bars": len(dates),
            "posts": len(texts),
            "distinct_text_share": round(len(set(texts)) / max(len(texts), 1), 4),
            "train_windows": windows,
            "feature_sets": len(config.feature_sets),
            "features": max(len(feature_set_columns(s)) for s in config.feature_sets),
            "sample_epochs_per_train_eval": windows * config.epochs * models,
        },
        dates=dates,
        expected_counts={"tweet_count": tweet_counts, "news_count": news_counts},
        reference=reference,
    )


def prepare_fixture(work_dir, seed):
    """The committed fixtures and config; the seed changes nothing here."""
    reference = json.loads((REFERENCE_DIR / "fixture_quickstart.json").read_text(encoding="utf-8"))
    return describe(ROOT / "configs" / "fixture.conf", reference)


def _prepare_generated(work_dir, seed, config_text, tweets_per_day, news_per_day):
    work_dir = Path(work_dir)
    gen.generate(work_dir, seed, *GENERATED_SPAN, tweets_per_day, news_per_day)
    config = work_dir / "run.conf"
    config.write_text(config_text, encoding="utf-8")
    return describe(config)


def prepare_protocol(work_dir, seed):
    return _prepare_generated(work_dir, seed, PROTOCOL_CONFIG, 2.0, 0.35)


def prepare_posts(work_dir, seed):
    return _prepare_generated(work_dir, seed, POSTS_CONFIG, 60.0, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    prepare: object
    passes: int     # at least this many passes per run; the median damps one slow pass


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fixture_quickstart",
            "README quickstart on the committed fixtures: 48 small models bound by "
            "per-batch Python overhead; simulate retrains all 24, so train-once shows here",
            ("ingest", "featurize", "train-eval", "simulate"),
            prepare_fixture,
            2,
        ),
        Workload(
            "protocol_shape",
            "one model at the reference shape (H=256, T=30, B=128, 14 features, 3 epochs, "
            "1275 windows): BLAS-bound recurrent matmuls; never simulates",
            ("ingest", "train-eval"),
            prepare_protocol,
            3,
        ),
        Workload(
            "posts_bulk",
            "~134k mostly distinct posts through ingest and featurize of all 12 sets: "
            "ingest, textprep and sentiment do the work, the forecaster none",
            ("ingest", "featurize"),
            prepare_posts,
            2,
        ),
    )
}
