"""scoring's one-pass range scorer against the formulation it replaced.

The reference below is ``_score_range`` and ``_gather`` as they were:
load_posts_jsonl builds a RawPost per line, assign_posts groups the kept
posts by trading day, and each is weighed through clean_text, the
provider's score and score_post. The pass must give the same columns byte
for byte, and the same errors, on a file built to hit each rule.
"""

import json
import math
from array import array
from collections import defaultdict
from datetime import date

import pytest

from stockcast import scoring, sentiment, textprep
from stockcast.config import ExperimentConfig
from stockcast.errors import StockcastError, echo
from stockcast.ingest import TradingCalendar, assign_posts, line_ranges, load_posts_jsonl

CALENDAR = TradingCalendar([date(2022, 1, d) for d in (3, 4, 5, 6, 7, 10, 11)])
MIN_LIKES = 100
HUGE = 10 ** 400  # a JSON integer past float range


def reference_score_range(shared, task):
    provider, stopwords, config, calendar = shared
    path, kind, min_likes, byte_range = task
    posts = load_posts_jsonl(path, kind, byte_range=byte_range)
    n = len(posts)
    keep = bytes(min_likes is None or post.likes >= min_likes for post in posts)
    row_of = {post.id: row for row, post in enumerate(posts)}
    days = array("i", [-1]) * n
    labels = array("b", [0]) * n
    confidences = array("d", [0.0]) * n
    weighted = array("d", [0.0]) * n
    errors = {}
    countable = [post for post, keep_it in zip(posts, keep) if keep_it]
    for day, day_posts in enumerate(assign_posts(countable, calendar).values()):
        for post in day_posts:
            row = row_of[post.id]
            days[row] = day
            text = textprep.clean_text(post.text, stopwords, config.keep_cashtags)
            try:
                score = provider.score(text, post_id=post.id)
                try:
                    triple = sentiment.score_post(post, score, config)
                except OverflowError:
                    triple = (0, 0.0, math.inf)
                if not math.isfinite(triple[2]):
                    counts = (post.retweets, post.likes, post.comments, post.followers)
                    raise StockcastError(
                        f"{path}: post id {echo(repr(post.id))}: weighted sentiment is not a "
                        f"finite float{scoring._too_large(config, counts)}")
                labels[row], confidences[row], weighted[row] = triple
            except StockcastError as exc:
                errors[row] = exc
    ids = [post.id.encode("utf-8", "surrogatepass") for post in posts]
    return ids, keep, days, labels, confidences, weighted, errors


def reference_gather(results):
    seen, kept, sums, unscored = set(), 0, defaultdict(lambda: [0, 0, 0.0, 0.0]), None
    for ids, keep, days, labels, confidences, weighted, errors in results:
        for row, post_id in enumerate(ids):
            if post_id in seen:
                continue
            seen.add(post_id)
            if not keep[row]:
                continue
            kept += 1
            if days[row] < 0:
                continue
            if row in errors:
                if unscored is None or days[row] < unscored[0]:
                    unscored = (days[row], errors[row])
                continue
            day_sums = sums[days[row]]
            for i, value in enumerate((1, labels[row], confidences[row], weighted[row])):
                day_sums[i] += value
    return kept, sums, None if unscored is None else unscored[1]


def comparable(result):
    """A _score_range result with its arrays as bytes and its errors as messages."""
    ids, keep, *columns, errors = result
    return (ids, bytes(keep), *(column.tobytes() for column in columns),
            {row: str(exc) for row, exc in errors.items()})


def comparable_gather(gathered):
    kept, sums, unscored = gathered
    return (kept, {day: [float(v).hex() for v in day_sums] for day, day_sums in sums.items()},
            None if unscored is None else str(unscored))


def tweet(post_id, day, text, likes=MIN_LIKES, retweets=3, comments=2, followers=500,
          hour=12, offset="+00:00"):
    return {"id": post_id, "ts": f"2022-01-{day:02d}T{hour:02d}:30:00{offset}", "text": text,
            "retweets": retweets, "likes": likes, "comments": comments, "followers": followers}


TWEETS = [
    tweet("e1", 3, "up \U0001F680\U0001F525 big profit ☀ rally"),
    tweet("c1", 3, "$$A and $1a then $SYNT surge", likes=MIN_LIKES - 1),
    tweet("u1", 4, "see https://x.co/a?b=1 and www.y.com/z strong gain #bullish @trader"),
    tweet("v1", 4, "RT vıa VİA İNVESTORS optimistic Kelvin loss"),
    tweet(7, 5, "integer id, at the boundary", likes=MIN_LIKES),
    tweet("e1", 5, "a duplicate in the same range: never read"),
    tweet("w1", 8, "a Saturday post rolls to Monday; crash", hour=23, offset="-05:00"),
    tweet("late", 12, "past the calendar end"),
    tweet("z1", 6, "no engagement at all", retweets=0, likes=0, comments=0, followers=0),
    tweet("z2", 6, "kept with zero engagement", retweets=0, likes=MIN_LIKES + 1, comments=0),
    tweet("big1", 6, "profit past float range", retweets=HUGE),
    tweet("big2", 7, "weighted value overflows to inf: profit",
          retweets=10 ** 10, followers=10 ** 308),
    tweet("d1", 10, "a post whose id comes again in a later range"),
    *[tweet(f"f{i}", 3 + i % 5, f"filler {i} the {('surge', 'loss')[i % 2]} and profit",
            likes=MIN_LIKES + i, retweets=i, followers=1000 * i) for i in range(30)],
    tweet("d1", 11, "the later copy: dropped across ranges"),
    tweet("e1", 11, "and again"),
]

NEWS = [
    {"id": "n1", "ts": "2022-01-03T08:00:00Z", "text": "Synthetic Corp profit outlook"},
    {"id": "n2", "ts": "2022-01-09T08:00:00", "text": "weekend news loss", "likes": "ignored"},
    {"id": "n1", "ts": "2022-01-10T08:00:00Z", "text": "duplicate news id"},
]


def write_posts(path, records):
    # CR LF on every third line, so some ranges are split by text-mode reading
    text = "".join(json.dumps(r) + ("\r\n" if i % 3 == 2 else "\n")
                   for i, r in enumerate(records))
    path.write_bytes(text.encode("utf-8"))
    return path


def tasks(path, kind, min_likes, size):
    ranges = line_ranges(path, size)
    assert len(ranges) >= 3
    return [(path, kind, min_likes, byte_range) for byte_range in ranges] + [
        (path, kind, min_likes, None)]


def providers(tmp_path):
    table = {(str(r["id"])): sentiment.SentimentScore(1 - i % 3, 0.25 * (i % 5))
             for i, r in enumerate(TWEETS + NEWS) if r["id"] != "z2"}  # z2: no replay score
    return {"lexicon": sentiment.LexiconProvider(sentiment.load_lexicon()),
            "replay": sentiment.ReplayProvider(table)}


@pytest.mark.parametrize("provider_name", ["lexicon", "replay"])
@pytest.mark.parametrize("keep_cashtags", [True, False])
def test_score_range_matches_reference(tmp_path, monkeypatch, provider_name, keep_cashtags):
    provider = providers(tmp_path)[provider_name]
    config = ExperimentConfig(keep_cashtags=keep_cashtags, alpha=0.3, beta=0.2, gamma=0.1,
                              delta=0.05)
    shared = (provider, textprep.load_stopwords(), config, CALENDAR)
    files = [tasks(write_posts(tmp_path / "tweets.jsonl", TWEETS), "tweet", MIN_LIKES, 700),
             tasks(write_posts(tmp_path / "news.jsonl", NEWS), "news", None, 60)]
    expected = [[reference_score_range(shared, task) for task in file] for file in files]
    if not provider.reads_text:
        def refuse(*args, **kwargs):
            raise AssertionError("a provider that reads no text had its text cleaned")

        monkeypatch.setattr(textprep, "clean_tokens", refuse)
        monkeypatch.setattr(textprep, "clean_text", refuse)
    got = [[scoring._score_range(shared, task) for task in file] for file in files]
    for file_got, file_expected in zip(got, expected):
        assert list(map(comparable, file_got)) == list(map(comparable, file_expected))
        ranges = slice(0, -1)  # the whole-file task last, gathered alone
        for results in (file_got[ranges], file_got[-1:]):
            expected_results = file_expected[ranges] if len(results) > 1 else file_expected[-1:]
            assert comparable_gather(scoring._gather(iter(results))) == comparable_gather(
                reference_gather(expected_results))
    tweet_errors = {str(e) for result in got[0] for e in result[6].values()}
    assert any("big1" in e for e in tweet_errors) and any("big2" in e for e in tweet_errors)
    if provider_name == "replay":
        assert "no replay score for post id 'z2'" in tweet_errors
