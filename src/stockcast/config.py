"""Experiment configuration: flat `key = value` files, one pair per line.

`#` starts a comment; blank lines are ignored. Relative input paths, and
the default `prices.csv`, `tweets.jsonl` and `news.jsonl` of a path key
left out, are resolved against the config file's directory, so bundled
configs work from any working directory; `out_dir` is kept as written, so
it resolves against the working directory. The canonical serialization
(sorted `key=value` lines), together with the SHA-256 of every input file
the config names, is hashed into every output file for traceability.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from datetime import date
from functools import cached_property
from pathlib import Path

from .errors import StockcastError, echo, open_text

PROVIDERS = ("lexicon", "replay")

#: The twelve feature-set identifiers and the blocks each one stacks, in
#: column order; features._BLOCKS names each block's columns. The table
#: lives here, not in the array module, so reading a config loads no numpy.
FEATURE_SETS = {
    "Prices": ("prices",),
    "Prices-RSI-SMA": ("prices", "indicators"),
    "Prices-News": ("prices", "news"),
    "Prices-News-RSI-SMA": ("prices", "news", "indicators"),
    "Prices-Tweets": ("prices", "tweets"),
    "Prices-Tweets-RSI-SMA": ("prices", "tweets", "indicators"),
    "Prices-Tweets-News": ("prices", "tweets", "news"),
    "Prices-Tweets-News-RSI-SMA": ("prices", "tweets", "news", "indicators"),
    "Prices-Weighted-Tweets": ("prices", "weighted_tweets"),
    "Prices-Weighted-Tweets-RSI-SMA": ("prices", "weighted_tweets", "indicators"),
    "Prices-Weighted-Tweets-News": ("prices", "weighted_tweets", "news"),
    "Prices-Weighted-Tweets-News-RSI-SMA": (
        "prices", "weighted_tweets", "news", "indicators",
    ),
}

#: Reference protocol defaults: model 256/0.001/128/100, ten replicates,
#: one million starting capital with symmetric 2% thresholds, and the
#: 2018-2022 / 2023 temporal split.
DEFAULT_SPLIT_DATE = date(2022, 12, 31)
DEFAULT_REPLICATES = 10


@dataclass(frozen=True)
class ExperimentConfig:
    stock: str = "STOCK"
    prices: str = "prices.csv"
    tweets: str = "tweets.jsonl"
    news: str = "news.jsonl"
    provider: str = "lexicon"
    lexicon: str | None = None
    replay_scores: str | None = None
    stopwords: str | None = None
    min_likes: int | None = None
    keep_cashtags: bool = True
    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.3
    delta: float = 0.1
    rsi_period: int = 14
    sma_period: int = 14
    lookback: int = 30
    hidden_units: int = 256
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 100
    split_date: date = DEFAULT_SPLIT_DATE
    replicates: int = DEFAULT_REPLICATES
    base_seed: int = 42
    initial_capital: float = 1_000_000.0
    profit_threshold: float = 0.02
    dip_threshold: float | None = 0.02
    feature_sets: tuple = tuple(FEATURE_SETS)
    out_dir: str = "out"

    def __post_init__(self):
        if self.provider not in PROVIDERS:
            raise StockcastError(f"provider must be one of {PROVIDERS}, got {self.provider!r}")
        if self.provider == "replay" and not self.replay_scores:
            raise StockcastError("provider=replay needs a replay_scores path")
        if self.replicates < 1:
            raise StockcastError("replicates must be >= 1")
        if self.base_seed < 0:
            raise StockcastError("base_seed must be non-negative")
        if self.min_likes is not None and self.min_likes < 0:
            raise StockcastError(f"min_likes must be >= 0 or none, got {self.min_likes}")
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise StockcastError(f"{key} must be finite, got {value}")
        for key in ("hidden_units", "batch_size", "epochs", "lookback",
                    "rsi_period", "sma_period"):
            if getattr(self, key) < 1:
                raise StockcastError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("learning_rate", "initial_capital"):
            if not getattr(self, key) > 0:
                raise StockcastError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("alpha", "beta", "gamma", "delta", "profit_threshold", "dip_threshold"):
            if key == "dip_threshold" and self.dip_threshold is None:
                continue  # dip rule off
            if not getattr(self, key) >= 0:
                raise StockcastError(f"{key} must be >= 0, got {getattr(self, key)}")
        _check_feature_sets(self.feature_sets)
        if not self.out_dir:  # "" would write every output into the working directory
            raise StockcastError("out_dir must not be empty")

    def canonical(self):
        """Sorted key=value lines; the hashing base.

        out_dir is excluded: it says where results land, not what the
        experiment is, so reruns into different directories hash alike.
        So are the input paths: config_hash hashes each input by key and
        content, so the same data hashes alike in every checkout.
        """
        lines = []
        for f in fields(self):
            if f.name == "out_dir" or f.name in _PATH_KEYS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, date):
                value = value.isoformat()
            lines.append(f"{f.name}={value}")
        return "\n".join(sorted(lines))

    @cached_property
    def input_sha256(self):
        """{path key: SHA-256 of its file} for each input file that is set.

        The files are read once per config object, on first use, never
        while parsing; config_hash and scoring.scores_digest share
        the result.
        """
        return {key: _file_sha256(getattr(self, key)) for key in _PATH_KEYS if getattr(self, key)}

    @cached_property
    def config_hash(self):
        """canonical() plus the SHA-256 of each input file that is set.

        Hashing contents, not just paths, makes a changed input file change
        the hash, so simulate refuses forecasts made from other data.
        """
        lines = [self.canonical()]
        lines += [f"{key}.sha256={sha}" for key, sha in self.input_sha256.items()]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _check_feature_sets(names):
    """Refuse a name that is no feature set, and one named twice (it would train twice)."""
    unknown = [fs for fs in names if fs not in FEATURE_SETS]
    if unknown:
        raise StockcastError(f"unknown feature sets {echo(str(unknown))}; "
                             f"valid: {', '.join(FEATURE_SETS)}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise StockcastError(f"{echo(repr(name))} named twice")


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}

_PATH_KEYS = ("prices", "tweets", "news", "lexicon", "replay_scores", "stopwords")

_FLOAT_KEYS = ("alpha", "beta", "gamma", "delta", "learning_rate",
               "initial_capital", "profit_threshold", "dip_threshold")


def _parse_value(key, raw, base_dir):
    if key in _PATH_KEYS:
        if not raw:
            raise ValueError("empty path")
        p = Path(raw)
        if not p.is_absolute():
            p = (base_dir / p).resolve()
        return str(p)
    if key in ("min_likes",):
        return None if raw.lower() in ("", "none") else int(raw)
    if key in ("keep_cashtags",):
        try:
            return _BOOL_VALUES[raw.lower()]
        except KeyError:
            raise ValueError(f"must be true/false, got {echo(repr(raw))}") from None
    if key in ("rsi_period", "sma_period", "lookback", "hidden_units",
               "batch_size", "epochs", "replicates", "base_seed"):
        return int(raw)
    if key == "dip_threshold" and raw.lower() == "none":
        return None
    if key in _FLOAT_KEYS:
        return float(raw)
    if key == "split_date":
        return date.fromisoformat(raw)
    if key == "feature_sets":
        if raw.strip().lower() == "all":
            return tuple(FEATURE_SETS)
        names = tuple(part.strip() for part in raw.split(",") if part.strip())
        if not names:
            raise ValueError("names no feature set; give a comma list of set names or all")
        _check_feature_sets(names)
        return names
    return raw


def parse_config(path):
    """Parse a config file into an ExperimentConfig.

    Raises:
        StockcastError: unreadable file, unknown or repeated key, or bad value.
    """
    path = Path(path)
    if not path.is_file():
        raise StockcastError(f"config file not found: {path}")
    base_dir = path.parent.resolve()
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    seen = {}
    with open_text(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StockcastError(
                f"{path}:{lineno}: expected 'key = value', got {echo(repr(line))}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise StockcastError(f"{path}:{lineno}: unknown key {echo(repr(key))}")
        if key in seen:
            raise StockcastError(f"{path}:{lineno}: key {key!r} given twice, "
                                 f"first on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _parse_value(key, raw, base_dir)
        except (ValueError, TypeError, StockcastError) as exc:
            # float() and date.fromisoformat() quote the whole value
            detail = str(exc).replace(repr(raw), echo(repr(raw)))
            raise StockcastError(f"{path}:{lineno}: bad value for {key!r}: {detail}") from exc
    for f in fields(ExperimentConfig):
        if f.name in _PATH_KEYS and f.name not in values and f.default is not None:
            values[f.name] = _parse_value(f.name, f.default, base_dir)
    return ExperimentConfig(**values)


def apply_overrides(config, overrides):
    """Apply CLI-style overrides (already typed) onto a parsed config."""
    return replace(config, **overrides) if overrides else config


__all__ = [
    "ExperimentConfig",
    "FEATURE_SETS",
    "parse_config",
    "apply_overrides",
    "PROVIDERS",
    "DEFAULT_SPLIT_DATE",
    "DEFAULT_REPLICATES",
]
