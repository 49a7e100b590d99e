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
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources

from .errors import StockcastError, echo, open_text

#: Default engagement weights: 0.3 for each interaction metric, 0.1 for
#: follower influence.
DEFAULT_ALPHA = 0.3
DEFAULT_BETA = 0.3
DEFAULT_GAMMA = 0.3
DEFAULT_DELTA = 0.1

_LABELS = {-1, 0, 1}


class SentimentScore(namedtuple("SentimentScore", "label confidence")):
    """Polarity label in {-1, 0, 1} with classifier confidence in [0, 1].

    Calling the class checks both ranges. ``SentimentScore._make((label,
    confidence))`` skips the check, for a scorer whose values are in range
    by construction; a scorer builds one per post.
    """

    __slots__ = ()

    def __new__(cls, label, confidence):
        if label not in _LABELS:
            raise ValueError(f"label must be -1, 0 or 1, got {label}")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        return super().__new__(cls, label, confidence)


@dataclass(frozen=True)
class WeightParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.delta) < 0:
            raise ValueError("weights must be non-negative")


_NEUTRAL = SentimentScore(0, 0.0)


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
    """(label, confidence, weighted): one post's score, as aggregate_daily averages it."""
    return score.label, score.confidence, weighted_sentiment(post, score, w)


# --- providers ---------------------------------------------------------------

class LexiconProvider:
    """Deterministic offline scorer counting polarity words.

    label = sign(positives - negatives); confidence = |positives -
    negatives| / token count, clamped to [0, 1]. Empty text scores (0, 0).
    This is a reproducibility stand-in, not an emulation of any neural
    scorer.
    """

    def __init__(self, lexicon):
        self.lexicon = lexicon

    def score(self, text, post_id=None):
        tokens = text.split()
        if not tokens:
            return _NEUTRAL
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
        return SentimentScore._make((label, conf))  # in range by construction


class ReplayProvider:
    """Serve precomputed scores (e.g. from an external model) by post id."""

    def __init__(self, table):
        self.table = table

    def score(self, text, post_id=None):
        if post_id is None or post_id not in self.table:
            raise StockcastError(f"no replay score for post id {echo(repr(post_id))}")
        return self.table[post_id]


def load_lexicon(path=None):
    """Load a word -> {-1, +1} map from a TSV of `word<TAB>{+1|-1}` lines."""
    if path is None:
        path = resources.files("stockcast.resources").joinpath("lexicon.tsv")
    with open_text(path) as fh:
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
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: bad lexicon entry: "
                f"{echo(repr(line))}") from exc
        if lexicon[word.strip().lower()] not in (-1, 1):
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"lexicon polarity must be +1 or -1: {echo(repr(line))}")
    return lexicon


def load_replay_scores(path):
    """Load an id -> SentimentScore table from `{id, label, confidence}` JSONL.

    The post loader's typing applies: ``id`` is a string or an integer,
    ``label`` a JSON integer in {-1, 0, 1} and ``confidence`` a JSON number
    in [0, 1], none of them a boolean. Any other line, or an id given
    twice (``7`` and ``"7"`` alike), raises a StockcastError at
    ``<path>:<line>: ``.
    """
    table = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                post_id, label, conf = record["id"], record["label"], record["confidence"]
                # type(), not isinstance(): a JSON true is a bool, an int subclass
                if type(post_id) not in (str, int):
                    raise ValueError(f"field 'id' must be a string or an integer, "
                                     f"got {echo(json.dumps(post_id))}")
                if type(label) is not int:
                    raise ValueError(f"field 'label' must be an integer, "
                                     f"got {echo(json.dumps(label))}")
                if type(conf) not in (int, float):
                    raise ValueError(f"field 'confidence' must be a number, "
                                     f"got {echo(json.dumps(conf))}")
                post_id, score = str(post_id), SentimentScore(label, float(conf))
                if post_id in table:
                    raise ValueError(f"duplicate id {echo(repr(post_id))}, "
                                     f"first on line {_first_line(path, post_id)}")
                table[post_id] = score
            except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:  # OverflowError: an integer confidence past float range
                raise StockcastError(
                    f"{path}:{lineno}: unparsable line {lineno}: {exc}") from exc
    return table


def _first_line(path, post_id):
    """The line of ``path`` that first gives ``post_id``: a second scan, so
    that only a duplicate id pays for naming it. Every line up to the
    duplicate parsed on the first scan."""
    with open_text(path) as fh:
        return next(lineno for lineno, line in enumerate(fh, start=1)
                    if line.strip() and str(json.loads(line)["id"]) == post_id)


# --- daily aggregation ---------------------------------------------------------

def aggregate_daily(sums_by_date, calendar):
    """Divide per-day score sums into one row per trading date.

    Args:
        sums_by_date: dict trading-date -> (n, label_sum, conf_sum,
            weighted_sum): the number of posts assigned to that date and
            the sums of their score_post values, each added in load order,
            left to right from 0.
        calendar: the trading calendar to emit over.

    Returns:
        One DailySentiment per calendar date, in order. Dates without
        posts carry count=0 and means forward-filled from the previous
        day (0.0 before the first populated day).
    """
    rows = []
    prev = (0.0, 0.0, 0.0)
    for d in calendar:
        n, label_sum, conf_sum, weighted_sum = sums_by_date.get(d, (0, 0, 0.0, 0.0))
        if n:
            mean_label = label_sum / n
            mean_conf = conf_sum / n
            mean_ws = weighted_sum / n
            prev = (mean_label, mean_conf, mean_ws)
            rows.append(DailySentiment(d, mean_label, mean_conf, mean_ws, n))
        else:
            rows.append(DailySentiment(d, prev[0], prev[1], prev[2], 0))
    return rows


__all__ = [
    "SentimentScore",
    "WeightParams",
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
