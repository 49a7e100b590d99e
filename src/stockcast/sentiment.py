"""Sentiment scoring providers and engagement-weighted sentiment.

A provider turns cleaned text into a (label, confidence) score; the
engagement formulas then combine that score with retweet/like/comment
counts and follower reach into a single weighted value per post:

    interaction      = alpha*retweets + beta*likes + gamma*comments
    influence        = delta*followers
    signed sentiment = label * confidence
    total engagement = retweets + likes + comments
    weighted         = interaction * influence * signed / total engagement

Posts with zero engagement (news items in particular) get weighted
sentiment 0 rather than a divide-by-zero.

Two offline providers ship with the package: a lexicon scorer and a
replay provider that serves precomputed scores from file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .errors import UnknownPostId, UnparsableLine

#: Default engagement weights: 0.3 for each interaction metric, 0.1 for
#: follower influence.
DEFAULT_ALPHA = 0.3
DEFAULT_BETA = 0.3
DEFAULT_GAMMA = 0.3
DEFAULT_DELTA = 0.1

_LABELS = {-1, 0, 1}


@dataclass(frozen=True)
class SentimentScore:
    """Polarity label in {-1, 0, 1} with classifier confidence in [0, 1]."""

    label: int
    confidence: float

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"label must be -1, 0 or 1, got {self.label}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class WeightParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.delta) < 0:
            raise ValueError("weights must be non-negative")


class ScoredPost(NamedTuple):
    post: object  # RawPost
    score: SentimentScore
    weighted: float


@dataclass(frozen=True)
class DailySentiment:
    date: object
    mean_label: float
    mean_conf: float
    mean_ws: float
    count: int


# --- engagement formulas ----------------------------------------------------

def tweet_interaction(post, w):
    """alpha*retweets + beta*likes + gamma*comments."""
    return w.alpha * post.retweets + w.beta * post.likes + w.gamma * post.comments


def user_influence(post, w):
    """delta*followers."""
    return w.delta * post.followers


def signed_sentiment(score):
    """label * confidence, in [-1, 1]."""
    return score.label * score.confidence


def total_interaction(post):
    """Plain engagement sum: retweets + likes + comments."""
    return float(post.retweets + post.likes + post.comments)


def weighted_sentiment(post, score, w):
    """Engagement-weighted sentiment for one post.

    Zero total engagement (e.g. news items) yields 0 by definition.
    """
    tt = total_interaction(post)
    if tt == 0:
        return 0.0
    return tweet_interaction(post, w) * user_influence(post, w) * signed_sentiment(score) / tt


def score_post(post, score, w):
    """Bundle a post with its score and engagement-weighted sentiment."""
    return ScoredPost(post, score, weighted_sentiment(post, score, w))


# --- providers ---------------------------------------------------------------

class LexiconProvider:
    """Deterministic offline scorer counting polarity words.

    label = sign(positives - negatives); confidence = |positives -
    negatives| / token count, clamped to [0, 1]. Empty text scores (0, 0).
    This is a reproducibility stand-in, not an emulation of any neural
    scorer.
    """

    name = "lexicon"

    def __init__(self, lexicon=None):
        self.lexicon = dict(lexicon) if lexicon is not None else load_lexicon()

    def score(self, text, post_id=None):
        tokens = text.split()
        if not tokens:
            return SentimentScore(0, 0.0)
        # One pass: positives minus negatives, counting exactly the values
        # equal to +1 and -1.
        diff = 0
        for value in map(self.lexicon.get, tokens):
            if value == 1:
                diff += 1
            elif value == -1:
                diff -= 1
        label = (diff > 0) - (diff < 0)
        conf = min(abs(diff) / len(tokens), 1.0)
        return SentimentScore(label, conf)


class ReplayProvider:
    """Serve precomputed scores (e.g. from an external model) by post id."""

    name = "replay"

    def __init__(self, table):
        self.table = dict(table)

    @classmethod
    def from_jsonl(cls, path):
        return cls(load_replay_scores(path))

    def score(self, text, post_id=None):
        if post_id is None or post_id not in self.table:
            raise UnknownPostId(post_id)
        return self.table[post_id]


def load_lexicon(path=None):
    """Load a word -> {-1, +1} map from a TSV of `word<TAB>{+1|-1}` lines."""
    if path is None:
        text = resources.files("stockcast.resources").joinpath("lexicon.tsv").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    lexicon = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word, value = line.split("\t")
            lexicon[word.strip().lower()] = int(value)
        except ValueError as exc:
            raise UnparsableLine(lineno, f"bad lexicon entry: {line!r}", path) from exc
        if lexicon[word.strip().lower()] not in (-1, 1):
            raise UnparsableLine(lineno, f"lexicon polarity must be +1 or -1: {line!r}",
                                 path)
    return lexicon


def load_replay_scores(path):
    """Load an id -> SentimentScore table from `{id, label, confidence}` JSONL."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                table[str(record["id"])] = SentimentScore(
                    int(record["label"]), float(record["confidence"])
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise UnparsableLine(lineno, str(exc), path) from exc
    return table


# --- daily aggregation ---------------------------------------------------------

def aggregate_daily(scored_by_date, calendar):
    """Collapse per-post scores into one row per trading date.

    Args:
        scored_by_date: dict trading-date -> list of ScoredPost (from
            ingest.assign_posts + scoring).
        calendar: the trading calendar to emit over.

    Returns:
        One DailySentiment per calendar date, in order. Dates without
        posts carry count=0 and means forward-filled from the previous
        day (0.0 before the first populated day).
    """
    rows = []
    prev = (0.0, 0.0, 0.0)
    for d in calendar:
        posts = scored_by_date.get(d, [])
        if posts:
            n = len(posts)
            mean_label = sum(p.score.label for p in posts) / n
            mean_conf = sum(p.score.confidence for p in posts) / n
            mean_ws = sum(p.weighted for p in posts) / n
            prev = (mean_label, mean_conf, mean_ws)
            rows.append(DailySentiment(d, mean_label, mean_conf, mean_ws, n))
        else:
            rows.append(DailySentiment(d, prev[0], prev[1], prev[2], 0))
    return rows


__all__ = [
    "SentimentScore",
    "WeightParams",
    "ScoredPost",
    "DailySentiment",
    "LexiconProvider",
    "ReplayProvider",
    "tweet_interaction",
    "user_influence",
    "signed_sentiment",
    "total_interaction",
    "weighted_sentiment",
    "score_post",
    "aggregate_daily",
    "load_lexicon",
    "load_replay_scores",
]
