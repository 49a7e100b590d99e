"""End-to-end orchestration: files in, reports out.

Everything here is deterministic for a fixed config: replicate i trains
with seed base_seed + i, report files serialize floats via repr, and no
wall-clock state enters any output, so rerunning a config reproduces
identical bytes.

Only featurize and train-eval compute on arrays. numpy, forecaster and
features are imported inside the functions that build or train on arrays
(build_matrix, run_feature_set, _train_jobs, _fit_group, run_train_eval
and _check_model_size), so ingest, simulate and the post workers run
without them. Likewise the array module, a shared library, is imported only by
_score_range and _gather, which score posts, so starting a command does
not load it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date
from functools import partial
from itertools import islice
from pathlib import Path

from . import market_sim, sentiment, textprep
from .errors import RunFailed, StockcastError, echo, echo_path, open_text
from .evaluation import RunMetrics, mae, r_squared, replicate_average
from .ingest import (
    assign_posts,
    calendar_from_bars,
    line_ranges,
    load_posts_jsonl,
    load_price_csv,
)


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
    if config.provider == "replay":
        return sentiment.ReplayProvider(sentiment.load_replay_scores(config.replay_scores))
    raise StockcastError(f"unknown provider {config.provider!r}")


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
    tweets' ranges and then the news' as one task list: in spawn workers,
    one per _BYTES_PER_WORKER of posts up to the usable cores, or here
    when that makes fewer than 2. The first error reported
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

    def daily(by_day, path):
        rows = sentiment.aggregate_daily(
            {calendar.dates[day]: scores for day, scores in by_day.items()}, calendar)
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
    order: the ids, a keep flag (bytes; 1 when min_likes is None or the
    post has at least min_likes), the calendar day (array 'i'), and the
    post's score_post label (array 'b'), confidence and weighted value
    (array 'd'); then a dict row -> StockcastError. A post no daily
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
    return [post.id for post in posts], keep, days, labels, confidences, weighted, errors


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
    kept; a dict day -> (labels, confidences, weighted), three columns
    (arrays 'b', 'd' and 'd') in load order; and the error of the first
    kept post without a score in (day, load) order, or None. Per kept post
    this holds its id in the set of seen ids plus about 17 bytes of columns.
    """
    from array import array

    seen = set()
    kept = 0
    by_day = defaultdict(lambda: (array("b"), array("d"), array("d")))
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
            day_labels, day_confidences, day_weighted = by_day[day]
            day_labels.append(labels[row])
            day_confidences.append(confidences[row])
            day_weighted.append(weighted[row])
    return kept, by_day, None if unscored is None else unscored[1]


def build_matrix(config, dataset):
    """The raw (unscaled) daily table the configured feature sets select from.

    rsi and sma are computed only when a configured set uses them: they
    need more closes than the other columns do, and too few for a period
    is an error that names the prices file and the period's key.
    """
    from . import features

    indicators = None
    if any("indicators" in features.FEATURE_SETS[fs] for fs in config.feature_sets):
        closes = [bar.close for bar in dataset.bars]
        indicators = {}
        for name, compute, period in (("rsi", features.rsi, config.rsi_period),
                                      ("sma", features.sma, config.sma_period)):
            try:
                indicators[name] = compute(closes, period)
            except StockcastError as exc:
                raise StockcastError(f"{config.prices}: {name}_period = {period}: {exc}") from None
    return features.assemble(dataset.bars, dataset.tweet_daily, dataset.news_daily, indicators)


@dataclass
class FeatureSetResult:
    feature_set: str
    split: object                   # features.SplitWindows
    reports: list                   # AggregateReport, both scales
    mean_pred_norm: object          # replicate-mean normalized predictions (ndarray)
    mean_pred_price: object         # same, on the price scale
    true_price: object              # test targets on the price scale


def run_feature_set(feature_set, split, preds):
    """Evaluate one feature set from its replicates' test-window forecasts.

    ``preds`` holds one normalized forecast per replicate, in replicate
    order, which the reports' per-run lists keep.
    """
    import numpy as np

    close_min, close_max = split.norm.column_state("close")

    def to_price(values):
        return values * (close_max - close_min) + close_min

    y_true_norm = split.test.y
    y_true_price = to_price(y_true_norm)

    run_metrics = []
    for pred_norm in preds:
        run_metrics.append(RunMetrics(
            feature_set,
            r_squared(y_true_norm, pred_norm), mae(y_true_norm, pred_norm),
            "normalized",
        ))
        pred_price = to_price(pred_norm)
        run_metrics.append(RunMetrics(
            feature_set,
            r_squared(y_true_price, pred_price), mae(y_true_price, pred_price),
            "denormalized",
        ))

    reports = [
        replicate_average([m for m in run_metrics if m.scale == scale])
        for scale in ("normalized", "denormalized")
    ]
    mean_pred_norm = np.mean(np.stack(preds), axis=0)
    return FeatureSetResult(
        feature_set=feature_set,
        split=split,
        reports=reports,
        mean_pred_norm=mean_pred_norm,
        mean_pred_price=to_price(mean_pred_norm),
        true_price=y_true_price,
    )


def _fit_group(_, job):
    """Train one set's group of replicates in lockstep; their test forecasts,
    in replicate order.

    ``job`` is one (LstmConfig, models, train, test) tuple, which trains
    ``models`` replicates seeded config.seed, config.seed + 1, ...; a
    _worker_pool task that shares nothing. The config comes first: a spawn
    worker starts without numpy and imports it, with forecaster, while it
    unpickles it. Imported after the windows' arrays instead, they raised
    a fixture worker's peak RSS by about 0.3 MB.

    Each replicate's weights are the ones it trains to alone, so its
    forecast is too. A group that raises RunFailed trains its replicates
    again one at a time, in order, so the error raised is the one the
    first failing replicate raises alone.
    """
    from . import forecaster

    config, models, train, test = job
    if models > 1:
        try:
            trained = forecaster.train(train, config, models=models)
        except RunFailed:
            pass
        else:
            return [forecaster.predict(weights, test) for weights, _ in trained]
    alone = (forecaster.train(train, replace(config, seed=config.seed + k))[0]
             for k in range(models))
    return [forecaster.predict(weights, test) for weights, _ in alone]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_in_children():
    """Processes started inside see 1 BLAS thread; this one's values return after.

    BLAS libraries read these once, when loaded, so the running process
    keeps its own thread count throughout.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _usable_cores():
    return len(os.sched_getaffinity(0))


_shared = None  # in a worker: what _worker_pool shares with every task


def _set_shared(value):
    global _shared
    _shared = value


def _with_shared(fn, task):
    return fn(_shared, task)


@contextmanager
def _worker_pool(workers, shared=None):
    """``run(fn, tasks)``: an iterator of ``fn(shared, task)``, in task order.

    With 2 or more workers the tasks run in that many spawn workers, which
    receive ``shared`` once each, through the pool initializer, and 1 BLAS
    thread each: workers that inherited this process's BLAS threads would
    oversubscribe the cores, which at 256 hidden units made them slower
    than training serially. With fewer, the tasks run here, one after
    another. A task's error is raised when the iterator reaches it, so the
    first error reported is the first in task order either way.
    """
    if workers < 2:
        yield lambda fn, tasks: (fn(shared, task) for task in tasks)
        return
    import multiprocessing  # only here: process start-up stays free of it

    with _one_blas_thread_in_children(), multiprocessing.get_context("spawn").Pool(
            workers, _set_shared, (shared,)) as pool:
        yield lambda fn, tasks: pool.imap(partial(_with_shared, fn), tasks, chunksize=1)


def _fit_all(jobs):
    """_fit_group over ``jobs``; results, or the first error, in job order.

    Jobs are independent, so with several jobs and several usable cores
    they run in spawn workers, one per core up to the job count. One job,
    or one core, runs here with this process's BLAS threads. Results do not
    depend on the path taken, only on the BLAS thread count a model trains
    with.
    """
    with _worker_pool(min(len(jobs), _usable_cores())) as run:
        return list(run(_fit_group, jobs))


#: The largest per-step gate block, K*B*4H floats, of a lockstep group of
#: K replicates: a pair of fixture-size models (H=16, B=32). With
#: scripts/step_profile.py --models (T=10, F=10, 1 BLAS thread, two runs)
#: a model's forward, backward, clip and Adam took 0.74-0.78x its time
#: alone in such a pair and 0.64-0.65x in a triple, 0.86-1.01x in a pair
#: at H=32 and 0.87-0.99x at H=64; at the reference shape (H=256, B=128,
#: T=30, F=14) a pair took 0.95-1.03x. Each model a group adds holds one
#: more workspace in its worker.
_GROUP_GATE_FLOATS = 4096


def _train_jobs(config, splits):
    """The _fit_group jobs of every (set, replicate) model, in set then replicate order.

    Replicate i trains with seed base_seed + i. Each job is an
    (LstmConfig, K, train, test) tuple that holds a set's windows once and
    K of its replicates, in order, the config seeded for the first of
    them: the largest K whose per-step gate block,
    K*batch_size*4*hidden_units floats, is within _GROUP_GATE_FLOATS and
    that leaves at least min(models, usable cores) jobs, so each model
    trains with the BLAS threads it would train with alone; a set's last
    job takes the replicates that are left.
    """
    from . import forecaster

    n = config.replicates
    wanted = min(len(splits) * n, _usable_cores())
    block = config.batch_size * 4 * config.hidden_units
    k = max(size for size in range(1, n + 1)
            if size == 1 or (size * block <= _GROUP_GATE_FLOATS
                             and len(splits) * math.ceil(n / size) >= wanted))
    return [(forecaster.LstmConfig(hidden_units=config.hidden_units,
                                   learning_rate=config.learning_rate,
                                   batch_size=config.batch_size, epochs=config.epochs,
                                   seed=config.base_seed + i),
             min(k, n - i), split.train, split.test)
            for split in splits for i in range(0, n, k)]


def simulate_feature_set(config, bars, predictions):
    """Trade one set's (date, predicted close) pairs over the same-dated bars."""
    return market_sim.run_simulation(predictions, bars, config.initial_capital,
                                     config.profit_threshold, config.dip_threshold)


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
#: and decoding posts, cleaning, scoring, and the ranges and daily means
#: here. Editing any other module leaves saved scores valid.
_SCORING_MODULES = ("errors.py", "ingest.py", "pipeline.py", "sentiment.py", "textprep.py")
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


@contextmanager
def publish(out_dir, marker=None):
    """Stage a command's output files in ``out_dir``, then land them together.

    Makes out_dir with its parents if missing; one that cannot be made (a
    file of that name exists, a name is too long, ...) is a StockcastError
    naming the out_dir key and the path. Then yields ``stage(name)``, the
    path to write output ``name`` to: ``.<name>.<pid>.tmp`` in out_dir. When
    the block exits cleanly, every staged file is renamed to its name, and
    ``marker`` last, after the old marker is removed: a marker on disk
    means every file beside it came from the run that wrote it. When the
    block raises, nothing is renamed. No temporary file outlives the
    block, and an OSError on one is reported as a StockcastError naming
    the output it stands for.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StockcastError(f"out_dir {echo_path(repr(str(out_dir)))}: {exc.strerror}") from exc
    staged = {}  # temporary path, as a str -> output path

    def stage(name):
        tmp = out_dir / f".{name}.{os.getpid()}.tmp"
        staged[str(tmp)] = out_dir / name
        return tmp

    try:
        yield stage
        if marker is not None:
            (out_dir / marker).unlink(missing_ok=True)
        for tmp, path in sorted(staged.items(), key=lambda item: item[1].name == marker):
            os.replace(tmp, path)
    except OSError as exc:
        path = staged.get(str(exc.filename))
        if path is None:
            raise
        raise StockcastError(f"{echo_path(path)}: {exc.strerror}") from exc
    finally:
        for tmp in staged:
            Path(tmp).unlink(missing_ok=True)


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


class _ReadBack:
    """An output this program wrote in the CSV form and reads back.

    ``lines`` are the file's lines as text mode reads them: each ends at
    LF, CR LF or a lone CR. Every error is a StockcastError at
    ``<path>:<line>: `` that ends with ``frame``.
    """

    def __init__(self, path, frame="", strict=True):
        """Read ``path``: as UTF-8 (open_text), or, unless ``strict``, with
        each bad byte replaced, so that it fails the line it is on."""
        self.path, self.frame = path, frame
        with (open_text(path) if strict else open(path, encoding="utf-8", errors="replace")) as fh:
            self.lines = [line.rstrip("\n") for line in fh]

    def error(self, index, problem):
        return StockcastError(f"{self.path}:{index + 1}: {problem}{self.frame}")

    def expected(self, index, what):
        """The error for a line ``index`` that is not ``what``; it echoes the line."""
        got = echo(repr(self.lines[index])) if index < len(self.lines) else "end of file"
        return self.error(index, f"expected {what}, got {got}")

    def rows(self, start, columns, dates):
        """Yield (index, date, fields) for each of ``dates``, in order.

        Line ``start`` is the header ``columns``; then comes one row per
        date, which starts with that date and has as many fields as the
        header; then no line at all. The first line out of place raises.
        """
        header = ",".join(columns)
        if self.lines[start:start + 1] != [header]:
            raise self.expected(start, f"the header {header}")
        for index, d in enumerate(dates, start + 1):
            fields = self.lines[index].split(",") if index < len(self.lines) else []
            if len(fields) != len(columns) or fields[0] != d.isoformat():
                raise self.expected(index, f"a row for {d}")
            yield index, d, fields
        end = start + 1 + len(dates)
        if len(self.lines) > end:
            raise self.expected(end, "end of file")

    def finite(self, index, column, text):
        """``text``, field ``column`` of line ``index``, as a finite float."""
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise self.error(index, f"{column} {echo(repr(text))} is not a finite float")
        return value


# --- report writers ---------------------------------------------------------

#: The config keys every JSON output echoes under "protocol".
_PROTOCOL_KEYS = ("hidden_units", "learning_rate", "batch_size", "epochs", "replicates",
                  "split_date", "initial_capital", "profit_threshold", "dip_threshold",
                  "lookback", "base_seed")


def write_report_json(path, config, results):
    _write_json(path, config, {"reports": [
        {
            "stock": config.stock,
            "sentiment_provider": config.provider,
            "feature_set": report.feature_set,
            "replicates": report.replicates,
            "r2_mean": report.r2_mean,
            "mae_mean": report.mae_mean,
            "r2_runs": list(report.r2_runs),
            "mae_runs": list(report.mae_runs),
            "scale": report.scale,
        }
        for result in results for report in result.reports
    ]})


def write_metrics_csv(path, config, results):
    """Flat table, one row per feature set (the Tables 4-5 shape), normalized scale."""
    _write_csv(path, config, ["feature_set", "stock", "sentiment_provider", "r2", "mae"], [
        [report.feature_set, config.stock, config.provider,
         repr(report.r2_mean), repr(report.mae_mean)]
        for result in results for report in result.reports if report.scale == "normalized"
    ])


PREDICTIONS_COLUMNS = ["date", "close_norm", "pred_norm", "close", "pred"]


def write_predictions_csv(path, config, result):
    """Plot-ready series: per test date, truth and replicate-mean forecast."""
    _write_csv(path, config, PREDICTIONS_COLUMNS, [
        [d.isoformat(), *map(repr, values)] for d, *values in zip(
            result.split.test.dates, result.split.test.y.tolist(), result.mean_pred_norm.tolist(),
            result.true_price.tolist(), result.mean_pred_price.tolist())
    ])


def load_predictions_csv(path, config, dates):
    """The (date, pred) pairs of a predictions file written for this config.

    Raises:
        StockcastError: the file is missing or not UTF-8, carries another
            config_hash, does not parse in full (see _ReadBack), or has a
            ``pred`` that is not a finite float.
    """
    path = Path(path)
    if not path.is_file():
        raise StockcastError(
            f"{path} not found: run train-eval with the same config and flags "
            f"into the same --out-dir first"
        )
    table = _ReadBack(path)
    first = table.lines[0] if table.lines else ""
    if first != f"# config_hash={config.config_hash}":
        raise StockcastError(
            f"{path}: first line {echo(repr(first))} does not carry this config's "
            f"config_hash={config.config_hash}; rerun train-eval with the same "
            f"config and flags"
        )
    return [(d, table.finite(index, "pred", fields[-1]))
            for index, d, fields in table.rows(1, PREDICTIONS_COLUMNS, dates)]


def write_ledger_csv(path, config, sim_result):
    header = ["date", "r", "action", "entry_price", "exit_price", "capital_after"]
    _write_csv(path, config, header, [
        [entry.date.isoformat(), repr(entry.r), entry.action,
         "" if entry.entry_price is None else repr(entry.entry_price),
         "" if entry.exit_price is None else repr(entry.exit_price),
         repr(entry.capital_after)]
        for entry in sim_result.ledger
    ])


def write_simulation_json(path, config, sim_results):
    _write_json(path, config, {
        "stock": config.stock,
        "sentiment_provider": config.provider,
        "rows": [
            {"feature_set": feature_set, "percent_gain": sim.percent_gain,
             "final_capital": sim.final_capital,
             "trades": sum(1 for e in sim.ledger if e.action != market_sim.NONE)}
            for feature_set, sim in sim_results
        ],
    })


def write_matrix_csv(path, config, columns, column_text):
    """One feature set's matrix: a date column first and ``columns`` after it,
    each from ``column_text``, the features.format_columns of a table
    holding them."""
    _write_csv(path, config, ["date", *columns],
               zip(*(column_text[name] for name in ("date", *columns))))


def _write_csv(path, config, header, rows, notes=()):
    """The outputs' CSV form: a ``# config_hash=`` line, a ``# <note>`` line
    per note, ``header``, then ``rows``, each row ending in CR LF."""
    with _named(path), open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in [f"config_hash={config.config_hash}", *notes]))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, config, payload):
    """The outputs' JSON form: ``payload`` plus the config_hash and, under
    "protocol", the _PROTOCOL_KEYS; keys sorted, dates in ISO form."""
    stamp = {"config_hash": config.config_hash,
             "protocol": {key: getattr(config, key) for key in _PROTOCOL_KEYS}}
    with _named(path):
        Path(path).write_text(json.dumps({**stamp, **payload}, indent=1, sort_keys=True,
                                         default=date.isoformat) + "\n", encoding="utf-8")


@contextmanager
def _named(path):
    """An OSError raised inside without a filename (a failed write or
    close) gets ``path`` as its filename, so publish names the output."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def safe_name(feature_set):
    return feature_set.lower().replace("-", "_")


def _check_scorable(config, y_test):
    """Refuse test targets r_squared cannot score: fewer than 2, or constant."""
    n = y_test.size
    if n < 2 or (y_test == y_test[0]).all():
        raise StockcastError(
            f"split_date {config.split_date} leaves {n} test windows"
            f"{', all with the same close' if n >= 2 else ''}: R2 needs at least 2 "
            f"whose closes differ"
        )


def _check_model_size(config, splits):
    """Refuse a hidden_units whose parameter vector numpy cannot index."""
    import numpy as np

    from . import forecaster

    n_features = max(split.train.X.shape[2] for split in splits)
    nbytes = forecaster.theta_size(n_features, config.hidden_units) * np.dtype(np.float64).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise StockcastError(f"hidden_units = {config.hidden_units}: a model of {nbytes} bytes "
                             f"is past numpy's index range")


def run_train_eval(config, out_dir):
    """The train-eval command body; returns the per-set results.

    Every set's windows, and the model size, are checked before out_dir
    is made, so bad input fails before training starts and leaves no out
    dir. publish makes out_dir before any model trains; the reports land
    once every model has trained, report.json last.
    """
    from . import features

    table = build_matrix(config, load_dataset(config, out_dir))
    splits = [
        features.make_windows(features.select(table, fs), config.lookback, config.split_date)
        for fs in config.feature_sets
    ]
    del table  # the windows view make_windows' own scaled tables: free this one
    _check_scorable(config, splits[0].test.y)  # every set's targets are the same closes
    _check_model_size(config, splits)
    jobs = _train_jobs(config, splits)
    with publish(out_dir, marker="report.json") as stage:
        preds = [pred for group in _fit_all(jobs) for pred in group]
        n = config.replicates
        results = [
            run_feature_set(fs, split, preds[k * n:(k + 1) * n])
            for k, (fs, split) in enumerate(zip(config.feature_sets, splits))
        ]
        write_report_json(stage("report.json"), config, results)
        write_metrics_csv(stage("metrics_table.csv"), config, results)
        for result in results:
            write_predictions_csv(
                stage(f"predictions_{safe_name(result.feature_set)}.csv"), config, result
            )
    return results


def run_simulate(config, out_dir):
    """The simulate command body: trades the forecasts train-eval wrote.

    Every set's predictions file is checked, and every set simulated,
    before any ledger is staged; the ledgers land through publish,
    simulation_summary.json last.
    """
    out_dir = Path(out_dir)
    bars = [bar for bar in load_price_csv(config.prices) if bar.date > config.split_date]
    dates = [bar.date for bar in bars]
    predictions = [
        (fs, load_predictions_csv(out_dir / f"predictions_{safe_name(fs)}.csv", config, dates))
        for fs in config.feature_sets
    ]
    sim_results = [(fs, simulate_feature_set(config, bars, pairs)) for fs, pairs in predictions]
    with publish(out_dir, marker="simulation_summary.json") as stage:
        for feature_set, sim in sim_results:
            write_ledger_csv(stage(f"ledger_{safe_name(feature_set)}.csv"), config, sim)
        write_simulation_json(stage("simulation_summary.json"), config, sim_results)
    return sim_results


__all__ = [
    "Dataset",
    "FeatureSetResult",
    "make_provider",
    "load_dataset",
    "build_matrix",
    "run_feature_set",
    "simulate_feature_set",
    "run_train_eval",
    "run_simulate",
    "write_report_json",
    "write_metrics_csv",
    "write_predictions_csv",
    "load_predictions_csv",
    "PREDICTIONS_COLUMNS",
    "scores_digest",
    "write_daily_sentiment",
    "load_daily_sentiment",
    "DAILY_SENTIMENT_FILE",
    "DAILY_SENTIMENT_COLUMNS",
    "write_ledger_csv",
    "write_simulation_json",
    "write_matrix_csv",
    "safe_name",
    "publish",
]
