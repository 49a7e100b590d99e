"""Sentiment scoring providers and engagement-weighted sentiment.

A provider turns cleaned text into a (label, confidence) score; the
engagement formulas then combine that score with retweet/like/comment
counts and follower reach into a single weighted value per post:

    interaction      = alpha*retweets + beta*likes + gamma*comments
    influence        = delta*followers
    signed sentiment = label * confidence
    total engagement = retweets + likes + comments
    weighted         = interaction * influence * signed / total engagement

The weights alpha..delta are the experiment config's (``w``, an
ExperimentConfig, which checks that each is finite and >= 0). Posts with
zero engagement (news items in particular) get weighted sentiment 0
rather than a divide-by-zero.

Two offline providers ship with the package: a lexicon scorer and a
replay provider that serves precomputed scores from file.
"""

from __future__ import annotations

import json
from collections import namedtuple
from importlib import resources

from .errors import StockcastError, echo, echo_number
from .ingest import json_records, text_lines

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
            raise ValueError(f"label must be -1, 0 or 1, got {echo_number(label)}")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {echo_number(confidence)}")
        return super().__new__(cls, label, confidence)


# --- engagement formulas ----------------------------------------------------

def signed_sentiment(score):
    """label * confidence, in [-1, 1]."""
    return score.label * score.confidence


def weighted_value(retweets, likes, comments, followers, signed, w):
    """The module docstring's weighted value, from a post's numbers.

    (alpha*retweets + beta*likes + gamma*comments) * (delta*followers) *
    signed / (retweets + likes + comments), evaluated left to right, with
    ``w``'s alpha..delta; 0.0 when the engagement total is 0 (news items,
    say). A count past float range raises OverflowError.
    """
    total = float(retweets + likes + comments)
    if total == 0:
        return 0.0
    return ((w.alpha * retweets + w.beta * likes + w.gamma * comments) * (w.delta * followers)
            * signed / total)


def weighted_sentiment(post, score, w):
    """Engagement-weighted sentiment for one post: weighted_value of its counts."""
    return weighted_value(post.retweets, post.likes, post.comments, post.followers,
                          signed_sentiment(score), w)


# The text-level API below (score_post, clean_text, the providers' score) is
# the reference formulation the scoring tests compare ingest's pass against.

def score_post(post, score, w):
    """(label, confidence, weighted): one post's score, as aggregate_daily averages it."""
    return score.label, score.confidence, weighted_sentiment(post, score, w)


# --- providers ---------------------------------------------------------------

class LexiconProvider:
    """Deterministic offline scorer counting polarity words.

    label = sign(positives - negatives); confidence = |positives -
    negatives| / token count, clamped to [0, 1]. Empty text scores (0, 0).
    This is a reproducibility stand-in, not an emulation of any neural
    scorer. It reads the cleaned text (``reads_text``).
    """

    reads_text = True

    def __init__(self, lexicon):
        self.lexicon = lexicon

    def score(self, text, post_id=None):
        return SentimentScore._make(self.score_tokens(text.split()))

    def score_tokens(self, tokens):
        """``(label, confidence)`` of a list of cleaned tokens, as a plain tuple."""
        if not tokens:
            return 0, 0.0
        # One pass: positives minus negatives, counting exactly the values
        # equal to +1 and -1. Most tokens are not in the lexicon; skipping
        # their None first saves two comparisons that would fail.
        diff = 0
        for value in map(self.lexicon.get, tokens):
            if value is None:
                continue
            if value == 1:
                diff += 1
            elif value == -1:
                diff -= 1
        return (diff > 0) - (diff < 0), min(abs(diff) / len(tokens), 1.0)


class ReplayProvider:
    """Serve precomputed scores (e.g. from an external model) by post id.

    It reads no text (``reads_text``), so ingest cleans none for it.
    """

    reads_text = False

    def __init__(self, table):
        self.table = table

    def score(self, text, post_id=None):
        if post_id is None or post_id not in self.table:
            raise StockcastError(f"no replay score for post id {echo(repr(post_id))}")
        return self.table[post_id]


def load_lexicon(path=None):
    """Load a word -> {-1, +1} map from a TSV of `word<TAB>{+1|-1}` lines.

    Lines are read by ``ingest.text_lines``, which ends them where text
    mode does; blank lines and lines starting with ``#`` are skipped. Any
    other line that is not one word, a tab and +1 or -1, or that gives a
    word again (matched after strip and lowercase, as the map keys it),
    raises a StockcastError at ``<path>:<line>: ``, after the whole file
    decoded as UTF-8. A file with no entry raises one at ``<path>: ``: it
    would score every post 0.
    """
    if path is None:
        path = resources.files("stockcast.resources").joinpath("lexicon.tsv")
    lexicon, first_line = {}, {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word, value = line.split("\t")
            value = int(value)
        except ValueError as exc:
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: bad lexicon entry: "
                f"{echo(repr(line))}") from exc
        if value not in (-1, 1):
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"lexicon polarity must be +1 or -1: {echo(repr(line))}")
        word = word.strip().lower()
        if word in lexicon:
            # either polarity would be a silent pick
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: duplicate word "
                                 f"{echo(repr(word))}, first on line {first_line[word]}")
        lexicon[word] = value
        first_line[word] = lineno
    if not lexicon:
        raise StockcastError(f"{path}: no lexicon entries, so every post would score 0")
    return lexicon


def load_replay_scores(path):
    """Load an id -> SentimentScore table from `{id, label, confidence}` JSONL.

    Lines are read by ``ingest.text_lines`` and parsed by
    ``ingest.json_records``, so the post loader's rules and messages
    apply: blank lines are skipped, each other line is a JSON object
    holding all three fields, and ``id`` is a string or an integer.
    ``label`` is a JSON integer in {-1, 0, 1} and ``confidence`` a JSON
    number in [0, 1], neither a boolean. Any other line, or an id given
    twice (``7`` and ``"7"`` alike), raises a StockcastError at
    ``<path>:<line>: ``.
    """
    table = {}
    records = json_records(path, text_lines(path), 1, ("id", "label", "confidence"))
    for lineno, record, post_id in records:
        label, conf = record["label"], record["confidence"]
        try:
            if type(label) is not int:
                raise ValueError(f"field 'label' must be an integer, "
                                 f"got {echo(json.dumps(label))}")
            if type(conf) not in (int, float):
                raise ValueError(f"field 'confidence' must be a number, "
                                 f"got {echo(json.dumps(conf))}")
            score = SentimentScore(label, float(conf))
            if post_id in table:
                raise ValueError(f"duplicate id {echo(repr(post_id))}, "
                                 f"first on line {_first_line(path, post_id)}")
        # OverflowError: an integer confidence past float range
        except (ValueError, OverflowError) as exc:
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: {exc}") from exc
        table[post_id] = score
    return table


def _first_line(path, post_id):
    """The line of ``path`` that first gives ``post_id``: a second scan, so
    that only a duplicate id pays for naming it. Every line up to the
    duplicate passed json_records on the first scan."""
    records = json_records(path, text_lines(path), 1, ("id",))
    return next(lineno for lineno, _, record_id in records if record_id == post_id)


# --- daily aggregation ---------------------------------------------------------

def aggregate_daily(sums_by_day, days):
    """Divide per-day score sums into daily columns over ``days`` trading days.

    Args:
        sums_by_day: dict day index -> (n, label_sum, conf_sum,
            weighted_sum): the number of posts assigned to that trading day
            and the sums of their score_post values, each added in load
            order, left to right from 0.
        days: the number of trading days to emit.

    Returns:
        (mean_label, mean_conf, mean_ws, count): four lists with one entry
        per day, in order. Days without posts carry count 0 and means
        forward-filled from the previous day (0.0 before the first
        populated day).
    """
    columns = ([], [], [], [])
    mean_label = mean_conf = mean_ws = 0.0
    for day in range(days):
        n, label_sum, conf_sum, weighted_sum = sums_by_day.get(day, (0, 0, 0.0, 0.0))
        if n:
            mean_label, mean_conf, mean_ws = label_sum / n, conf_sum / n, weighted_sum / n
        for column, value in zip(columns, (mean_label, mean_conf, mean_ws, n)):
            column.append(value)
    return columns


__all__ = [
    "SentimentScore",
    "LexiconProvider",
    "ReplayProvider",
    "signed_sentiment",
    "weighted_value",
    "weighted_sentiment",
    "aggregate_daily",
    "load_lexicon",
    "load_replay_scores",
]
