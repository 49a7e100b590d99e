"""Orchestration-level checks on the bundled fixture dataset."""

import ast
import hashlib
import json
import shutil
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest

from stockcast import cli, pipeline, scoring
from stockcast.config import parse_config
from stockcast.features import select
from stockcast.ingest import line_ranges
from stockcast.pipeline import (
    build_matrix,
    load_predictions_csv,
    run_train_eval,
    safe_name,
    simulate_feature_set,
)
from stockcast.scoring import load_dataset, make_provider
from stockcast.sentiment import ReplayProvider

from conftest import CONFIGS, FIXTURES
from test_features import check_windows_are_views

PACKAGE = Path(scoring.__file__).parent


@pytest.fixture(scope="module")
def config(fixture_config_path):
    base = parse_config(fixture_config_path)
    return replace(base, feature_sets=("Prices-Tweets-News-RSI-SMA",), epochs=4)


@pytest.fixture(scope="module")
def dataset(config):
    return load_dataset(config)


@pytest.fixture(scope="module")
def trained(config, tmp_path_factory):
    """(out_dir, result) of one train-eval run over the config's one set."""
    out_dir = tmp_path_factory.mktemp("train_eval")
    (result,) = run_train_eval(config, out_dir)
    return out_dir, result


def test_matrix_dates_match_calendar(config, dataset):
    matrix = select(build_matrix(config, dataset), "Prices-Tweets-News-RSI-SMA")
    assert list(matrix.dates) == [bar.date for bar in dataset.bars]
    assert [len(column) for column in matrix.values] == [len(dataset.bars)] * 14


def test_daily_sentiment_covers_every_session(config, dataset):
    assert list(dataset.daily) == scoring.DAILY_SENTIMENT_COLUMNS[1:]
    assert [len(column) for column in dataset.daily.values()] == [len(dataset.bars)] * 8
    assert sum(dataset.daily["tweet_count"]) <= dataset.tweet_count
    assert sum(dataset.daily["news_count"]) <= dataset.news_count


def test_daily_sentiment_matches_frozen_values(dataset):
    """Daily tweet and news sentiment equal, float for float, the values the
    loader, cleaner and scorer gave before the post path was rewritten for
    speed (tests/data/fixture_daily_sentiment.json)."""
    frozen = json.loads((Path(__file__).parent / "data" / "fixture_daily_sentiment.json")
                        .read_text(encoding="utf-8"))
    dates = [bar.date.isoformat() for bar in dataset.bars]
    for source in ("tweet", "news"):
        columns = [dataset.daily[f"{source}_{key}"]
                   for key in ("mean_label", "mean_conf", "mean_ws", "count")]
        rows = [list(row) for row in zip(dates, *columns)]
        assert rows == frozen[f"{source}_daily"], source


def test_fixture_feature_files_match_frozen_digests(fixture_config_path, tmp_path, capsys):
    """The fixture config's twelve features_*.csv files hash to the SHA-256
    values in tests/data/fixture_features_sha256.json, so a set that selects
    its columns in another order, or a value formatted another way, fails."""
    argv = ["featurize", "--config", str(fixture_config_path), "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    frozen = json.loads((Path(__file__).parent / "data" / "fixture_features_sha256.json")
                        .read_text(encoding="utf-8"))
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("features_*.csv")}
    assert written == frozen


def test_fixture_windows_are_views_of_one_table(config, dataset):
    matrix = select(build_matrix(config, dataset), "Prices-Tweets-News-RSI-SMA")
    split = check_windows_are_views(matrix, config.lookback, config.split_date)
    assert len(split.train) > 0 and len(split.test) > 0


def test_run_feature_set_shapes(config, dataset, trained):
    _, result = trained
    n_test = len(result.split.test)
    assert result.mean_pred_norm.shape == (n_test,)
    assert result.mean_pred_price.shape == (n_test,)
    scales = {report.scale for report in result.reports}
    assert scales == {"normalized", "denormalized"}

    test_dates = result.split.test.dates
    sim = simulate_feature_set(config, dataset.bars[-n_test:],
                               list(zip(test_dates, result.mean_pred_price.tolist())))
    assert sim.ledger[0].date == result.split.test.dates[0]
    assert sim.ledger[-1].date == result.split.test.dates[-1]


@pytest.mark.parametrize("conf, overrides, cores, groups", [
    ("fixture.conf", {}, 2, [2] * 12),
    ("protocol.conf", {}, 2, [1] * 120),
    # the benchmark's protocol_shape run: one model of the reference shape
    ("protocol.conf", {"feature_sets": ("Prices-Tweets-News-RSI-SMA",), "replicates": 1}, 2,
     [1]),
    ("fixture.conf", {"feature_sets": ("Prices",)}, 2, [1, 1]),
    ("fixture.conf", {"feature_sets": ("Prices",)}, 1, [2]),
], ids=["fixture", "protocol", "protocol-shape", "one-set-two-cores", "one-set-one-core"])
def test_replicates_group_while_small_and_jobs_fill_the_cores(monkeypatch, conf, overrides,
                                                             cores, groups):
    monkeypatch.setattr("stockcast.scoring.os.sched_getaffinity",
                        lambda pid: set(range(cores)))
    config = replace(parse_config(CONFIGS / conf), **overrides)
    splits = [SimpleNamespace(train=f"{fs} train", test=f"{fs} test")
              for fs in config.feature_sets]
    jobs = pipeline._train_jobs(config, splits)
    assert [models for _, _, models, _, _ in jobs] == groups
    assert all(job_config is config for job_config, *_ in jobs)
    # each set's replicates in order, seeded base_seed + i, with that set's windows
    n = config.replicates
    assert [(train, test, seed + k) for _, seed, models, train, test in jobs
            for k in range(models)] == [(f"{fs} train", f"{fs} test", config.base_seed + i)
                                        for fs in config.feature_sets for i in range(n)]


def test_replay_provider_covers_fixture_posts(fixture_config_path):
    base = parse_config(fixture_config_path)
    replay_path = str((fixture_config_path.parent / "../fixtures/replay_scores.jsonl").resolve())
    config = replace(base, provider="replay", replay_scores=replay_path,
                     feature_sets=("Prices-Tweets",), epochs=2)
    dataset = load_dataset(config)
    assert sum(dataset.daily["tweet_count"]) > 0
    provider = make_provider(config)
    assert isinstance(provider, ReplayProvider)


def test_r2_on_both_scales_agree(trained):
    # affine rescaling leaves R2 unchanged; MAE scales by the close span
    _, result = trained
    by_scale = {report.scale: report for report in result.reports}
    assert by_scale["normalized"].r2_mean == pytest.approx(
        by_scale["denormalized"].r2_mean, rel=1e-9)
    lo, hi = result.split.close_range
    assert by_scale["denormalized"].mae_mean == pytest.approx(
        by_scale["normalized"].mae_mean * (hi - lo), rel=1e-9)


def test_csv_ledger_equals_in_memory_ledger(config, dataset, trained):
    out_dir, result = trained
    dates = list(result.split.test.dates)
    bars = dataset.bars[-len(dates):]
    from_memory = simulate_feature_set(
        config, bars, list(zip(dates, result.mean_pred_price.tolist())))
    pairs = load_predictions_csv(
        out_dir / f"predictions_{safe_name(result.feature_set)}.csv", config, dates)
    from_csv = simulate_feature_set(config, bars, pairs)
    assert from_csv == from_memory


def test_scores_digest_covers_package_files(config, tmp_path, monkeypatch):
    # an edited scorer, writer or bundled lexicon makes ingest's saved scores
    # stale; an edited model, feature, simulator, report or CLI module does not
    package = tmp_path / "stockcast"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    digest = scoring.scores_digest(config)
    monkeypatch.setattr("stockcast.scoring._PACKAGE", package)
    assert scoring.scores_digest(config) == digest
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "textprep.cpython-311.pyc").write_bytes(b"compiled")
    assert scoring.scores_digest(config) == digest
    scored_by = ("resources/lexicon.tsv", "resources/stopwords.txt", "errors.py", "ingest.py",
                 "outputs.py", "scoring.py", "sentiment.py", "textprep.py")
    for name in scored_by + ("forecaster.py", "features.py", "market_sim.py", "pipeline.py",
                             "cli.py", "config.py", "evaluation.py"):
        path = package / name
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        assert (scoring.scores_digest(config) != digest) == (name in scored_by), name
        path.write_bytes(original)
    assert scoring.scores_digest(replace(
        config, base_seed=1, replicates=3, feature_sets=("Prices",), epochs=1,
        out_dir="elsewhere")) == digest


def package_imports(path):
    """The package modules the module at ``path`` imports, as file names:
    ``from . import x``, ``from .x import y``, ``import stockcast.x`` and
    the like, at any depth, so imports inside functions count too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["stockcast" if node.level else None, node.module]))
            modules = [f"{base}.{alias.name}" for alias in node.names] \
                if base == "stockcast" else [base]
        else:
            continue
        found.update(f"{module.split('.')[1]}.py" for module in modules
                     if module.startswith("stockcast."))
    return found


def outside_imports(modules):
    """(module, imported) for each package module one of ``modules`` imports
    that is not itself in ``modules``."""
    return sorted((name, imported) for name in modules
                  for imported in package_imports(PACKAGE / name) if imported not in modules)


def test_scoring_modules_import_only_each_other():
    # the digest hashes _SCORING_MODULES alone, so code they import from
    # another module could change a score and leave saved scores in use
    assert outside_imports(scoring._SCORING_MODULES) == []
    assert "pipeline.py" not in scoring._SCORING_MODULES
    # the walk finds imports at the top and inside functions alike: with
    # pipeline.py in the list, as it once was, it reports what pipeline adds
    assert outside_imports(scoring._SCORING_MODULES + ("pipeline.py",)) == [
        ("pipeline.py", "evaluation.py"), ("pipeline.py", "features.py"),
        ("pipeline.py", "forecaster.py"), ("pipeline.py", "market_sim.py")]


# --- post files loaded in byte ranges, in workers or here -------------------

GOOD = {"id": "g", "ts": "2022-06-01T12:00:00Z", "text": "strong profit rally",
        "likes": 500, "retweets": 5, "comments": 1, "followers": 100}


def post_line(**fields):
    return json.dumps({**GOOD, **fields})


def force_pool(monkeypatch, range_bytes=256):
    """Make load_dataset cut posts into ``range_bytes`` ranges and score
    them in 2 workers, however small the files."""
    monkeypatch.setattr("stockcast.scoring.os.sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr("stockcast.scoring._BYTES_PER_WORKER", 1)
    monkeypatch.setattr("stockcast.scoring._RANGE_BYTES", range_bytes)


def write_posts_config(tmp_path, tweets, **extra):
    """A config over the fixture prices and news with ``tweets`` as the
    tweets file, written as given (str lines are joined with \\n)."""
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(tweets if isinstance(tweets, bytes) else ("\n".join(tweets) + "\n").encode())
    values = {"prices": FIXTURES / "prices.csv", "tweets": path,
              "news": FIXTURES / "news.jsonl", "min_likes": 100, "out_dir": tmp_path / "out",
              **extra}
    config = tmp_path / "posts.conf"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return config


def ingest_err(config, capsys):
    assert cli.main(["ingest", "--config", str(config)]) == 2
    return capsys.readouterr().err


def summary(dataset):
    return (dataset.tweet_count, dataset.news_count, dataset.daily)


def tweet_counts(dataset):
    """ISO date -> the number of tweets averaged on that day."""
    return dict(zip((bar.date.isoformat() for bar in dataset.bars),
                    dataset.daily["tweet_count"]))


@pytest.mark.parametrize("provider", ["lexicon", "replay"])
def test_pool_matches_in_process(fixture_config_path, monkeypatch, provider):
    base = parse_config(fixture_config_path)
    config = replace(base, provider=provider, replay_scores=str(FIXTURES / "replay_scores.jsonl"))
    here = load_dataset(config)
    force_pool(monkeypatch, range_bytes=4096)
    assert scoring._post_workers(config) == 2
    assert len(line_ranges(config.tweets, scoring._RANGE_BYTES)) > 20
    assert summary(load_dataset(config)) == summary(here)
    assert here.tweet_count > 0 and here.news_count > 0


def test_later_range_error_keeps_serial_line_number(tmp_path, monkeypatch, capsys):
    # 20 CRLF lines, 10 ended by a lone CR, 1 ended by LF: the bad line is
    # line 32 of a text-mode read, many ranges into the file
    lines = (post_line(id=f"a{i}") + "\r\n" for i in range(20))
    lines = "".join(lines) + "".join(post_line(id=f"b{i}") + "\r" for i in range(10))
    data = (lines + post_line(id="c") + "\n" + '{"id": "x", "ts": 5}\n').encode()
    config = write_posts_config(tmp_path, data)
    path = tmp_path / "tweets.jsonl"
    expected = f"error: {path}:32: missing field 'text' at line 32\n"
    assert ingest_err(config, capsys) == expected
    force_pool(monkeypatch)
    assert len(line_ranges(path, scoring._RANGE_BYTES)) > 10
    assert ingest_err(config, capsys) == expected


@pytest.mark.parametrize("gap", [300, 2])
@pytest.mark.parametrize("name", ["tweets", "news"])
def test_bad_json_then_bad_byte(tmp_path, monkeypatch, capsys, name, gap):
    # A post file that is not UTF-8 fails at its first bad byte, before a bad
    # line ahead of it: one in the same 8 KiB, or 300 lines (over 8 KiB, and
    # many forced-pool ranges) ahead
    lines = [post_line(id="a"), "not json"] + [post_line(id=f"g{i}") for i in range(gap)]
    data = ("\n".join(lines) + "\n").encode() + b'{"id": "\xff"}\n'
    path = tmp_path / f"{name}.jsonl"
    if name == "news":
        path.write_bytes(data)
        config = write_posts_config(tmp_path, [post_line(id="t")], news=path)
    else:
        config = write_posts_config(tmp_path, data)
    assert (data.index(b"\xff") - data.index(b"not json") > 8192) == (gap == 300)
    expected = f"error: {path}:{gap + 3}: not UTF-8 text: invalid start byte\n"
    assert ingest_err(config, capsys) == expected
    force_pool(monkeypatch)
    assert ingest_err(config, capsys) == expected


@pytest.mark.parametrize("news_case", ["bad-line", "missing"])
def test_one_task_list_reports_tweets_error_first(tmp_path, monkeypatch, capsys, news_case):
    # Both files' ranges run as one task list: the news file's first line is
    # bad, or the file is missing, and its one range may well be scored
    # first, but the tweets file's bad last line, many ranges in, is the
    # error reported
    news = tmp_path / "news.jsonl"
    if news_case == "bad-line":
        news.write_text("not json\n" + post_line(id="n") + "\n")
    lines = [post_line(id=f"a{i}") for i in range(30)] + ['{"id": "x", "ts": 5}']
    config = write_posts_config(tmp_path, lines, news=news)
    expected = f"error: {tmp_path / 'tweets.jsonl'}:31: missing field 'text' at line 31\n"
    assert ingest_err(config, capsys) == expected
    force_pool(monkeypatch)
    assert len(line_ranges(tmp_path / "tweets.jsonl", scoring._RANGE_BYTES)) > 10
    assert ingest_err(config, capsys) == expected


def test_tweets_error_before_lexicon_error(tmp_path, monkeypatch, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t2\n")
    config = write_posts_config(tmp_path, [post_line(id="a"), post_line(id="b", likes=-1)],
                                lexicon=lexicon)
    force_pool(monkeypatch)
    assert ingest_err(config, capsys) == (
        f"error: {tmp_path / 'tweets.jsonl'}:2: unparsable line 2: negative count 'likes'\n")
    config.write_text(config.read_text().replace(str(tmp_path / "tweets.jsonl"),
                                                 str(FIXTURES / "tweets.jsonl")))
    assert ingest_err(config, capsys).startswith(f"error: {lexicon}:1: ")


def test_min_likes_filter(tmp_path):
    # posts with likes >= min_likes (100) are kept and counted
    lines = [post_line(id=f"t{likes}", likes=likes) for likes in (50, 100, 150)]
    dataset = load_dataset(parse_config(write_posts_config(tmp_path, lines)))
    assert dataset.tweet_count == 2
    counts = tweet_counts(dataset)
    assert counts["2022-06-01"] == 2


def test_duplicate_of_post_under_min_likes_stays_dropped(tmp_path, monkeypatch):
    # "dup" first has 10 likes, under min_likes: the first post of an id
    # decides, so its later copy, in another range, is dropped as well
    pad = [post_line(id=f"p{i}") for i in range(20)]
    lines = [post_line(id="dup", likes=10)] + pad + [
        post_line(id="dup", likes=900, ts="2022-06-02T12:00:00Z")]
    config = parse_config(write_posts_config(tmp_path, lines))
    here = load_dataset(config)
    force_pool(monkeypatch)
    assert len(line_ranges(config.tweets, scoring._RANGE_BYTES)) > 10
    pooled = load_dataset(config)
    assert summary(pooled) == summary(here)
    assert pooled.tweet_count == 20
    counts = tweet_counts(pooled)
    assert counts["2022-06-01"] == 20 and counts["2022-06-02"] == 0


def test_lone_surrogate_id_kept_once(tmp_path, monkeypatch, capsys):
    # The id "\ud800", a lone surrogate, loads from its JSON escape as a str
    # that strict UTF-8 cannot encode; ids are kept as surrogatepass bytes,
    # so ingest scores it, and its later copy, in another range, is dropped
    pad = [post_line(id=f"p{i}") for i in range(20)]
    lines = [post_line(id="\ud800")] + pad + [
        post_line(id="\ud800", ts="2022-06-02T12:00:00Z")]
    assert '"id": "\\ud800"' in lines[0]
    config = write_posts_config(tmp_path, lines)
    force_pool(monkeypatch)
    assert len(line_ranges(tmp_path / "tweets.jsonl", scoring._RANGE_BYTES)) > 10
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert "tweets: 21\n" in capsys.readouterr().out
    dataset = load_dataset(parse_config(config))
    counts = tweet_counts(dataset)
    assert counts["2022-06-01"] == 21 and counts["2022-06-02"] == 0


def test_missing_replay_score_only_where_it_counts(tmp_path, monkeypatch, capsys):
    # Only "a" has a replay score. "late" is dated past the last bar
    # (2023-03-31) and "low" is under min_likes: neither is scored, so
    # neither raises. Of "miss-b" and "miss-a", both kept, "miss-a" has the
    # earlier day and is reported, though it comes later in the file.
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"id": "a", "label": 1, "confidence": 0.5}) + "\n")
    news = tmp_path / "news.jsonl"
    news.write_text("")
    lines = [post_line(id="a", text=f"copy {i}") for i in range(10)] + [
        post_line(id="late", ts="2023-04-03T12:00:00Z"), post_line(id="low", likes=1)]
    config = write_posts_config(tmp_path, lines, news=news, provider="replay",
                                replay_scores=scores)
    force_pool(monkeypatch)
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert "tweets: 2\n" in capsys.readouterr().out  # "a" and "late"
    lines += [post_line(id="miss-b", ts="2022-09-01T12:00:00Z"),
              post_line(id="miss-a", ts="2022-08-01T12:00:00Z")]
    config = write_posts_config(tmp_path, lines, news=news, provider="replay",
                                replay_scores=scores)
    assert ingest_err(config, capsys) == (
        f"error: {tmp_path / 'tweets.jsonl'}: no replay score for post id 'miss-a'\n")


def test_ingest_peak_memory_per_kept_post(tmp_path, monkeypatch):
    """Scoring 20,000 distinct kept tweets in-process peaks under 190 traced
    bytes per kept post. What load_dataset keeps per kept post is only its
    id, as bytes, in the set of seen ids; its score goes into its day's
    running sums. A str id (16 bytes more) or 17 bytes of score columns per
    post breaks this: on Python 3.11 byte ids with sums read 179 bytes, str
    ids with sums 195, byte ids with columns 203 and str ids with columns
    216. Ranges of 64 KiB keep the one range being scored small beside that."""
    monkeypatch.setattr("stockcast.scoring._RANGE_BYTES", 1 << 16)
    first = date(2022, 1, 3)
    lines = [post_line(id=f"t{i}", text=f"strong profit rally {i}",
                       ts=f"{first + timedelta(days=i % 420)}T12:00:00Z")
             for i in range(20_000)]
    config = parse_config(write_posts_config(tmp_path, lines))
    tracemalloc.start()
    try:
        dataset = load_dataset(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = dataset.tweet_count + dataset.news_count
    assert dataset.tweet_count == 20_000
    assert peak / kept < 190, (peak, kept)
