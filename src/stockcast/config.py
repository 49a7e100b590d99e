"""Experiment configuration: flat `key = value` files, one pair per line.

`#` starts a comment; blank lines are ignored. Relative paths are
resolved against the config file's directory, so bundled configs work
from any working directory. The canonical serialization (sorted
`key=value` lines) is hashed into every output file for traceability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path

from .errors import ConfigError
from .features import FEATURE_SETS

PROVIDERS = ("lexicon", "replay")

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
    prompt_template: str | None = None
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
    dip_threshold: float = 0.02
    feature_sets: tuple = tuple(FEATURE_SETS)
    out_dir: str = "out"

    def __post_init__(self):
        if self.provider not in PROVIDERS:
            raise ConfigError(f"provider must be one of {PROVIDERS}, got {self.provider!r}")
        if self.provider == "replay" and not self.replay_scores:
            raise ConfigError("provider=replay needs a replay_scores path")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be non-negative")
        for key in ("hidden_units", "batch_size", "epochs", "lookback"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        unknown = [fs for fs in self.feature_sets if fs not in FEATURE_SETS]
        if unknown:
            raise ConfigError(
                f"unknown feature sets {unknown}; valid: {', '.join(FEATURE_SETS)}"
            )

    def canonical(self):
        """Sorted key=value lines; the hashing base.

        out_dir is excluded: it says where results land, not what the
        experiment is, so reruns into different directories hash alike.
        """
        lines = []
        for f in fields(self):
            if f.name == "out_dir":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, date):
                value = value.isoformat()
            lines.append(f"{f.name}={value}")
        return "\n".join(sorted(lines))

    @property
    def config_hash(self):
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}

_PATH_KEYS = ("prices", "tweets", "news", "lexicon", "replay_scores",
              "prompt_template", "stopwords")


def _parse_value(key, raw, base_dir):
    if key in _PATH_KEYS:
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
            raise ConfigError(f"{key} must be true/false, got {raw!r}")
    if key in ("rsi_period", "sma_period", "lookback", "hidden_units",
               "batch_size", "epochs", "replicates", "base_seed"):
        return int(raw)
    if key in ("alpha", "beta", "gamma", "delta", "learning_rate",
               "initial_capital", "profit_threshold", "dip_threshold"):
        return float(raw)
    if key == "split_date":
        return date.fromisoformat(raw)
    if key == "feature_sets":
        if raw.strip().lower() == "all":
            return tuple(FEATURE_SETS)
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def parse_config(path, overrides=None):
    """Parse a config file, apply CLI overrides, return ExperimentConfig.

    Raises:
        ConfigError: unreadable file, unknown key, or bad value.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    base_dir = path.parent.resolve()
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, raw, base_dir)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def apply_overrides(config, overrides):
    """Apply CLI-style overrides (already typed) onto a parsed config."""
    clean = {key: value for key, value in overrides.items() if value is not None}
    if not clean:
        return config
    try:
        return replace(config, **clean)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


__all__ = [
    "ExperimentConfig",
    "parse_config",
    "apply_overrides",
    "PROVIDERS",
    "DEFAULT_SPLIT_DATE",
    "DEFAULT_REPLICATES",
]
