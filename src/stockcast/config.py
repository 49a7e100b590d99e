"""Experiment configuration: flat `key = value` files, one pair per line.

`#` starts a comment; blank lines are ignored. ExperimentConfig declares
each key once: a value is parsed by its field's annotation (_parse_value)
and checked by _check_value, a number against its bound in _BOUNDS, both
while a file is read, naming the line, and again for a config built in
code or changed by a flag, naming the key. Relative input paths, and
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
from dataclasses import dataclass, fields
from datetime import date
from functools import cached_property
from pathlib import Path

from .errors import StockcastError, echo, echo_number
from .ingest import text_lines

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, a field per config key. The defaults are the reference
    protocol's: model 256/0.001/128/100, ten replicates, one million starting
    capital with symmetric 2% thresholds, and the 2018-2022 / 2023 temporal
    split."""

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
    split_date: date = date(2022, 12, 31)
    replicates: int = 10
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
        for f in fields(self):
            try:
                _check_value(f.name, getattr(self, f.name))
            except ValueError as exc:
                raise StockcastError(f"{f.name} {exc}") from None
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


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}

_PATH_KEYS = ("prices", "tweets", "news", "lexicon", "replay_scores", "stopwords")

#: {numeric key: (its lower bound, whether a value may equal it)}; a float
#: key's value must also be finite, and an optional key's may be None.
_BOUNDS = {"learning_rate": (0, False), "initial_capital": (0, False),
           **dict.fromkeys(("min_likes", "alpha", "beta", "gamma", "delta", "base_seed",
                            "profit_threshold", "dip_threshold"), (0, True)),
           **dict.fromkeys(("rsi_period", "sma_period", "lookback", "hidden_units",
                            "batch_size", "epochs", "replicates"), (1, True))}


def _check_value(key, value):
    """Raise a ValueError, worded to follow the key, if ``value`` is out of
    ``key``'s range: a path or out_dir holding a NUL byte, which no file
    name can, or a number that is not finite or not past its _BOUNDS. The
    value is shown through echo_number, so a 4,300-digit one cannot flood
    stderr, nor a longer one make str() raise.
    A feature_sets naming no set, or a set twice (it would train twice),
    raises a StockcastError."""
    if key == "feature_sets":
        unknown = [fs for fs in value if fs not in FEATURE_SETS]
        if unknown:
            raise StockcastError(f"unknown feature sets {echo(str(unknown))}; "
                                 f"valid: {', '.join(FEATURE_SETS)}")
        for i, name in enumerate(value):
            if name in value[:i]:
                raise StockcastError(f"{echo(repr(name))} named twice")
    if (key in _PATH_KEYS or key == "out_dir") and value and "\0" in value:
        raise ValueError("must not hold a NUL byte")
    if key in _BOUNDS and value is not None:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        low, inclusive = _BOUNDS[key]
        if not (value >= low if inclusive else value > low):
            raise ValueError(f"must be {'>=' if inclusive else '>'} {low}, "
                             f"got {echo_number(value)}")


def _parse_value(key, kind, raw, base_dir):
    """``raw`` parsed by ``kind``, the annotation of field ``key`` (``int``,
    ``float``, ``bool``, ``date``, ``tuple`` or ``str``): a path key's
    resolved against ``base_dir``, and ``none`` (or, for min_likes,
    nothing) as None where the annotation ends in ``| None``."""
    if key in _PATH_KEYS:
        if not raw:
            raise ValueError("empty path")
        _check_value(key, raw)  # before resolve() meets a NUL byte
        p = Path(raw)
        return str(p if p.is_absolute() else (base_dir / p).resolve())
    if kind.endswith(" | None"):
        if raw.lower() == "none" or (key == "min_likes" and not raw):
            return None
        kind = kind.removesuffix(" | None")
    if kind == "bool":
        if raw.lower() not in _BOOL_VALUES:
            raise ValueError(f"must be true/false, got {echo(repr(raw))}")
        return _BOOL_VALUES[raw.lower()]
    if kind == "tuple":
        if raw.strip().lower() == "all":
            return tuple(FEATURE_SETS)
        names = tuple(part.strip() for part in raw.split(",") if part.strip())
        if not names:
            raise ValueError("names no feature set; give a comma list of set names or all")
        return names
    return {"int": int, "float": float, "date": date.fromisoformat, "str": str}[kind](raw)


def parse_config(path):
    """Parse a config file into an ExperimentConfig.

    Lines are read by ``ingest.text_lines``, which ends them where text
    mode does, so a form feed or ``\\u2028`` inside a comment stays in the
    comment.

    Raises:
        StockcastError: unreadable file, unknown or repeated key, or bad
            value; a line error starts ``<path>:<line>: ``, and comes only
            after the whole file decoded as UTF-8.
    """
    path = Path(path)
    if not path.is_file():
        raise StockcastError(f"config file not found: {path}")
    base_dir = path.parent.resolve()
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    seen = {}
    for lineno, line in enumerate(text_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StockcastError(
                f"{path}:{lineno}: expected 'key = value', got {echo(repr(line))}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise StockcastError(f"{path}:{lineno}: unknown key {echo(repr(key))}")
        if key in seen:
            raise StockcastError(f"{path}:{lineno}: key {key!r} given twice, "
                                 f"first on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _parse_value(key, kinds[key], raw, base_dir)
            _check_value(key, values[key])
        except (ValueError, TypeError, StockcastError) as exc:
            # float() and date.fromisoformat() quote the whole value
            detail = str(exc).replace(repr(raw), echo(repr(raw)))
            raise StockcastError(f"{path}:{lineno}: bad value for {key!r}: {detail}") from exc
    for f in fields(ExperimentConfig):
        if f.name in _PATH_KEYS and f.name not in values and f.default is not None:
            values[f.name] = _parse_value(f.name, f.type, f.default, base_dir)
    return ExperimentConfig(**values)


__all__ = [
    "ExperimentConfig",
    "FEATURE_SETS",
    "parse_config",
    "PROVIDERS",
]
