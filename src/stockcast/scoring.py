"""Input files to daily scores: the posts loaded, scored and averaged per day.

load_dataset checks the prices and posts, scores each post once, and
averages the scores per trading day; write_daily_sentiment saves that
once per out dir, and load_daily_sentiment reads it back while its
``# scores=`` digest matches. The digest covers the source of
_SCORING_MODULES: this module and every package module it imports,
which import no other (a test walks their imports). Training, the
reports and the simulator live elsewhere, so editing them leaves saved
scores valid.

The fork pool here also runs pipeline's training jobs. The array module,
a shared library, is imported only by _score_range, which scores posts,
and multiprocessing only when a pool starts, so starting a command loads
neither.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

from . import sentiment, textprep
from .errors import StockcastError, echo
from .ingest import assign_posts, calendar_from_bars, line_ranges, load_posts_jsonl, load_price_csv
from .outputs import _ReadBack, _write_csv


@dataclass
class Dataset:
    """Validated inputs plus daily sentiment, aligned to the calendar.

    ``tweet_count`` and ``news_count`` are the posts kept: the first post
    of each id and, for tweets, only those with at least ``min_likes``.
    """

    bars: list
    tweet_count: int
    news_count: int
    tweet_daily: list
    news_daily: list


def make_provider(config):
    if config.provider == "lexicon":
        return sentiment.LexiconProvider(sentiment.load_lexicon(config.lexicon))
    return sentiment.ReplayProvider(sentiment.load_replay_scores(config.replay_scores))


#: Post files are cut into byte ranges of about this size, one task each.
_RANGE_BYTES = 1 << 20
#: Post bytes per worker: smaller inputs load faster than workers start.
_BYTES_PER_WORKER = 4 << 20


def load_dataset(config, out_dir=None):
    """Load + validate prices and posts, score posts, aggregate daily.

    When ``out_dir`` holds a daily_sentiment.csv that ingest wrote with
    this config's scores_digest, the post counts and daily rows come from
    that file (see load_daily_sentiment) and no post is read. Otherwise
    each post file is cut into ranges of about _RANGE_BYTES that end on
    line ends, and _score_range loads, checks and scores each one, the
    tweets' ranges and then the news' as one task list: in workers forked
    from this process, one per _BYTES_PER_WORKER of posts up to the usable
    cores, or here when that makes fewer than 2. The commands call this
    before they load numpy, so the workers never hold it, and each
    inherits the scorer, stopwords, weights and calendar instead of
    unpickling them. The first error reported
    is the one a single pass over the inputs meets first: prices, the
    tweets file in line order, the news file, the lexicon or replay table,
    stopwords, then a post without a replay score or a finite weighted
    sentiment in (day, load) order, then a day whose mean weighted
    sentiment is not finite, tweets before news.
    """
    bars = load_price_csv(config.prices)
    calendar = calendar_from_bars(bars)
    if out_dir is not None:
        saved = load_daily_sentiment(Path(out_dir) / DAILY_SENTIMENT_FILE, config, calendar)
        if saved is not None:
            return Dataset(bars, *saved)
    try:
        provider = make_provider(config)
        stopwords = textprep.load_stopwords(config.stopwords)
    except (StockcastError, OSError):
        load_posts_jsonl(config.tweets, "tweet")  # the post files' errors come first
        load_posts_jsonl(config.news, "news")
        raise
    weights = sentiment.WeightParams(config.alpha, config.beta, config.gamma, config.delta)
    shared = (provider, stopwords, config.keep_cashtags, weights, calendar)
    tweet_tasks = _post_tasks(config.tweets, "tweet", config.min_likes)
    news_tasks = _post_tasks(config.news, "news", None)
    with _worker_pool(_post_workers(config), shared) as run:
        results = run(_score_range, tweet_tasks + news_tasks)
        tweets = _gather(islice(results, len(tweet_tasks)))
        news = _gather(results)
    for _, _, unscored in (tweets, news):
        if unscored is not None:
            raise unscored

    def daily(sums, path):
        rows = sentiment.aggregate_daily(
            {calendar.dates[day]: day_sums for day, day_sums in sums.items()}, calendar)
        for row in rows:
            if not math.isfinite(row.mean_ws):
                raise StockcastError(f"{path}: mean weighted sentiment on {row.date} is not "
                                     f"a finite float{_TOO_LARGE}")
        return rows

    return Dataset(
        bars=bars,
        tweet_count=tweets[0],
        news_count=news[0],
        tweet_daily=daily(tweets[1], config.tweets),
        news_daily=daily(news[1], config.news),
    )


_TOO_LARGE = ": engagement counts or weights alpha..delta too large"


def _post_workers(config):
    """Workers for the post files: one per _BYTES_PER_WORKER, up to the usable cores."""
    size = 0
    for path in (config.tweets, config.news):
        try:
            size += os.path.getsize(path)
        except OSError:
            pass  # the loader reports it, in file order
    return min(_usable_cores(), size // _BYTES_PER_WORKER)


def _post_tasks(path, kind, min_likes):
    try:
        ranges = line_ranges(path, _RANGE_BYTES)
    except OSError:
        ranges = [None]  # the whole-file load reports it, in task order
    return [(path, kind, min_likes, byte_range) for byte_range in ranges]


def _score_range(shared, task):
    """Load, check and score one byte range of a post file.

    Returns the range's posts as columns, one entry per post in load
    order: the ids as UTF-8 bytes (with surrogatepass, so an id holding a
    lone surrogate encodes too, and distinct ids stay distinct), a keep
    flag (bytes; 1 when min_likes is None or the post has at least
    min_likes), the calendar day (array 'i'), and the post's score_post
    label (array 'b'), confidence and weighted value (array 'd'); then a
    dict row -> StockcastError. A post no daily
    average can include is not scored and gets day -1: one dated past the
    calendar end, or not kept. A post the provider cannot score gets the
    provider's StockcastError, and one whose weighted sentiment is not a
    finite float a StockcastError naming the file and the post; either is
    an error only if the post is the first of its id. Only primitives go
    back, as columns: returning post objects cost more to pickle than
    scoring them in the worker saved, and a tuple per post cost the main
    process about 120 B per kept post.
    """
    from array import array

    provider, stopwords, keep_cashtags, weights, calendar = shared
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
            text = textprep.clean_text(post.text, stopwords, keep_cashtags)
            try:
                score = provider.score(text, post_id=post.id)  # raises without a replay score
                labels[row], confidences[row], weighted[row] = _finite_score(
                    path, post, score, weights)
            except StockcastError as exc:
                errors[row] = exc
    ids = [post.id.encode("utf-8", "surrogatepass") for post in posts]
    return ids, keep, days, labels, confidences, weighted, errors


def _finite_score(path, post, score, weights):
    """score_post's triple; a StockcastError if its weighted value is not a finite float."""
    try:
        triple = sentiment.score_post(post, score, weights)
        if math.isfinite(triple[2]):
            return triple
    except OverflowError:  # a count past float range
        pass
    raise StockcastError(f"{path}: post id {echo(repr(post.id))}: weighted sentiment is "
                         f"not a finite float{_TOO_LARGE}")


def _gather(results):
    """Merge one file's _score_range results, in file order.

    Keeps the first post of each id, then drops those the worker did not
    keep, as the one-pass loader did over a whole file. Returns the number
    kept; a dict day -> [n, label_sum, conf_sum, weighted_sum], the count
    and running sums of its scored posts, added in load order from 0 (what
    aggregate_daily divides); and the error of the first kept post without
    a score in (day, load) order, or None. Per kept post this holds only
    its id, as bytes, in the set of seen ids; the sums grow with the days.
    """
    seen = set()
    kept = 0
    sums = defaultdict(lambda: [0, 0, 0.0, 0.0])
    unscored = None
    for ids, keep, days, labels, confidences, weighted, errors in results:
        for row, post_id in enumerate(ids):
            if post_id in seen:
                continue
            seen.add(post_id)
            if not keep[row]:
                continue
            kept += 1
            day = days[row]
            if day < 0:
                continue
            if row in errors:
                if unscored is None or day < unscored[0]:
                    unscored = (day, errors[row])
                continue
            day_sums = sums[day]
            day_sums[0] += 1
            day_sums[1] += labels[row]
            day_sums[2] += confidences[row]
            day_sums[3] += weighted[row]
    return kept, sums, None if unscored is None else unscored[1]


# --- the fork pool: post ranges here, training jobs in pipeline -----------------

def _usable_cores():
    return len(os.sched_getaffinity(0))


_shared = None  # in a worker: what _worker_pool shares with every task


def _set_shared(value):
    global _shared
    _shared = value


def _with_shared(fn, task):
    return fn(_shared, task)


@contextmanager
def _worker_pool(workers, shared):
    """``run(fn, tasks)``: an iterator of ``fn(shared, task)``, in task order.

    With 2 or more workers the tasks run in that many workers forked from
    this process, which inherit ``shared``, the modules it has loaded and
    its BLAS thread count; only each task and its result are pickled. Call
    it from a single-threaded process only: one that has loaded numpy
    with 1 BLAS thread (see pipeline._one_blas_thread), or not at all.
    Workers with this process's BLAS threads would oversubscribe the
    cores, which at 256 hidden units made them slower than training
    serially. With fewer workers, the tasks run here, one after another. A
    task's error is raised when the iterator reaches it, so the first
    error reported is the first in task order either way.
    """
    if workers < 2:
        yield lambda fn, tasks: (fn(shared, task) for task in tasks)
        return
    import multiprocessing  # only here: process start-up stays free of it

    with multiprocessing.get_context("fork").Pool(workers, _set_shared, (shared,)) as pool:
        yield lambda fn, tasks: pool.imap(partial(_with_shared, fn), tasks, chunksize=1)


# --- daily sentiment, scored once per out dir -----------------------------------

#: The file ingest writes into the out dir for featurize and train-eval to reuse.
DAILY_SENTIMENT_FILE = "daily_sentiment.csv"
DAILY_SENTIMENT_COLUMNS = [
    "date", "tweet_mean_label", "tweet_mean_conf", "tweet_mean_ws", "tweet_count",
    "news_mean_label", "news_mean_conf", "news_mean_ws", "news_count",
]
#: Config keys a post's score depends on, besides the input files.
_SCORE_KEYS = ("provider", "min_likes", "keep_cashtags", "alpha", "beta", "gamma", "delta")
_PACKAGE = Path(__file__).resolve().parent
#: The modules whose code turns the input files into daily scores: loading
#: and decoding posts, cleaning, scoring, the ranges and daily means here,
#: and the file writer and reader. Editing any other module leaves saved
#: scores valid.
_SCORING_MODULES = ("errors.py", "ingest.py", "outputs.py", "scoring.py", "sentiment.py",
                    "textprep.py")
_KEPT_RE = re.compile(r"# kept_tweets=([0-9]{1,19}) kept_news=([0-9]{1,19})")
_COUNT_RE = re.compile(r"[0-9]{1,19}")


def scores_digest(config):
    """SHA-256 hex digest of everything the daily sentiment depends on.

    That is the SHA-256 of each input file config_hash reads (the same
    per-file hashes, so no file is read twice), the config keys in
    _SCORE_KEYS, and the bytes of _SCORING_MODULES and the resource files.
    Other keys (feature_sets, base_seed, replicates, ...) and other modules
    (the forecaster, features, the simulator, ...) leave it alone.
    """
    digest = hashlib.sha256()
    lines = [f"{key}.sha256={sha}" for key, sha in config.input_sha256.items()]
    lines += [f"{key}={getattr(config, key)}" for key in _SCORE_KEYS]
    digest.update("\n".join(lines).encode("utf-8"))
    for path in sorted(_PACKAGE.rglob("*")):
        name = path.relative_to(_PACKAGE).as_posix()
        if path.is_file() and (name in _SCORING_MODULES or name.startswith("resources/")):
            data = path.read_bytes()
            digest.update(f"\n{name} {len(data)}\n".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


def write_daily_sentiment(path, config, dataset):
    """Save ``dataset``'s post counts and daily rows to ``path``, a publish stage.

    An output in the CSV form, with two note lines: ``# scores=`` with
    scores_digest and ``# kept_tweets=N kept_news=M``; then the
    DAILY_SENTIMENT_COLUMNS header and one row per trading date.
    """
    _write_csv(path, config, DAILY_SENTIMENT_COLUMNS, [
        [tweet.date.isoformat(),
         repr(tweet.mean_label), repr(tweet.mean_conf), repr(tweet.mean_ws), tweet.count,
         repr(news.mean_label), repr(news.mean_conf), repr(news.mean_ws), news.count]
        for tweet, news in zip(dataset.tweet_daily, dataset.news_daily)
    ], notes=[f"scores={scores_digest(config)}",
              f"kept_tweets={dataset.tweet_count} kept_news={dataset.news_count}"])


def load_daily_sentiment(path, config, calendar):
    """(tweet_count, news_count, tweet_daily, news_daily) saved by write_daily_sentiment.

    None when ``path`` is no file or cannot be looked up, when an input
    file cannot be read for the digest, or when its second line carries
    another digest than this config's scores_digest, whatever else the
    file holds: the caller then scores the posts, and reports an
    unreadable input or out dir where it would without the file. A file
    with this digest must parse in full (see _ReadBack). A wrong stamp
    line, a mean that is not a finite float or a count that is not a whole
    number >= 0 is a StockcastError too, and every such error says to
    rerun ingest.
    """
    path = Path(path)
    try:
        if not path.is_file():
            return None
        digest = scores_digest(config)
    except OSError:
        return None
    table = _ReadBack(path, "; rerun ingest into this out dir", strict=False)
    lines = table.lines
    if lines[1:2] != [f"# scores={digest}"]:
        return None
    if not lines[0].startswith("# config_hash="):
        raise table.expected(0, "# config_hash=<hash>")
    kept = _KEPT_RE.fullmatch(lines[2]) if len(lines) > 2 else None
    if kept is None:
        raise table.expected(2, "# kept_tweets=N kept_news=M")
    tweet_daily, news_daily = [], []
    for index, d, fields in table.rows(3, DAILY_SENTIMENT_COLUMNS, calendar.dates):
        for daily, first in ((tweet_daily, 1), (news_daily, 5)):
            columns = DAILY_SENTIMENT_COLUMNS[first:first + 4]
            *texts, count = fields[first:first + 4]
            means = [table.finite(index, column, text) for column, text in zip(columns, texts)]
            if not _COUNT_RE.fullmatch(count):
                raise table.error(index, f"{columns[3]} {echo(repr(count))} is not a whole "
                                         f"number >= 0")
            daily.append(sentiment.DailySentiment(d, *means, int(count)))
    return int(kept[1]), int(kept[2]), tweet_daily, news_daily


__all__ = [
    "Dataset",
    "make_provider",
    "load_dataset",
    "scores_digest",
    "write_daily_sentiment",
    "load_daily_sentiment",
    "DAILY_SENTIMENT_FILE",
    "DAILY_SENTIMENT_COLUMNS",
]
