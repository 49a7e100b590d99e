"""Time ingest and scoring stage by stage, in one process.

For the config's tweets and news files, runs the stages ``load_dataset``
runs when it scores posts: ``line_ranges``, then ``_score_range`` on each
range, a pickle dump and load of each range's result (what a pool worker's
result costs to send back), ``_gather`` over each file's results, which
keeps each day's running score sums, and ``aggregate_daily``, which
divides them. Then, on their own over each
range's posts that ``_score_range`` scores, the three calls its pass makes
per post: stage ``clean_text`` times ``textprep.clean_tokens`` (not run for
a provider that reads no text), ``score`` the provider's ``score_tokens``
(or, for replay, its ``score`` by id) and ``score_post``
``sentiment.weighted_value``. Prints one ``<stage> <ms>`` line per stage,
then the posts loaded per second over the first five stages and the
tracemalloc peak bytes per kept post while ``_gather`` runs (a second,
traced run of it).

Usage (from the repository root):
    PYTHONPATH=src python scripts/ingest_profile.py --config configs/fixture.conf
"""

from __future__ import annotations

import argparse
import pickle
import time
import tracemalloc

from stockcast import scoring, sentiment, textprep
from stockcast.config import parse_config
from stockcast.ingest import assign_posts, calendar_from_bars, load_posts_jsonl, load_price_csv

#: The stages load_dataset runs, in order; posts per second is taken over these.
PIPELINE_STAGES = ("line_ranges", "score_range", "pickle", "gather", "aggregate_daily")
#: The per-post calls inside score_range, timed on their own: cleaning,
#: the provider's score and the weighted value.
POST_STAGES = ("clean_text", "score", "score_post")


def _timed(ms, stage, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    ms[stage] += (time.perf_counter() - t0) * 1e3
    return result


def profile(config):
    """(milliseconds by stage, posts loaded per second, _gather bytes per kept post)."""
    calendar = calendar_from_bars(load_price_csv(config.prices))
    provider = scoring.make_provider(config)
    stopwords = textprep.load_stopwords(config.stopwords)
    shared = (provider, stopwords, config, calendar)
    files = ((config.tweets, "tweet", config.min_likes), (config.news, "news", None))
    ms = dict.fromkeys(PIPELINE_STAGES + POST_STAGES, 0.0)

    tasks = [_timed(ms, "line_ranges", scoring._post_tasks, *file) for file in files]
    results = []
    for file_tasks in tasks:
        file_results = []
        for task in file_tasks:
            result = _timed(ms, "score_range", scoring._score_range, shared, task)
            file_results.append(_timed(ms, "pickle", lambda r: pickle.loads(pickle.dumps(r)),
                                       result))
        results.append(file_results)
    gathered = [_timed(ms, "gather", scoring._gather, iter(rs)) for rs in results]
    for kept, sums, unscored in gathered:
        if unscored is not None:
            raise SystemExit(f"error: {unscored}")
        _timed(ms, "aggregate_daily", sentiment.aggregate_daily, sums, len(calendar.dates))
    posts = sum(len(r[0]) for rs in results for r in rs)
    posts_per_s = posts / (sum(ms[stage] for stage in PIPELINE_STAGES) / 1e3)

    tracemalloc.start()
    try:
        for rs in results:
            scoring._gather(iter(rs))
        gather_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bytes_per_kept = gather_peak / max(1, sum(kept for kept, _, _ in gathered))

    for file_tasks in tasks:
        for path, kind, min_likes, byte_range in file_tasks:
            posts = [p for p in load_posts_jsonl(path, kind, byte_range=byte_range)
                     if min_likes is None or p.likes >= min_likes]
            scored = [p for day_posts in assign_posts(posts, calendar).values()
                      for p in day_posts]
            if provider.reads_text:
                tokens = _timed(ms, "clean_text", lambda: [
                    textprep.clean_tokens(p.text, stopwords, config.keep_cashtags)
                    for p in scored])
                scores = _timed(ms, "score", lambda: list(map(provider.score_tokens, tokens)))
            else:
                scores = _timed(ms, "score", lambda: [
                    provider.score(p.text, post_id=p.id) for p in scored])
            _timed(ms, "score_post", lambda: [
                sentiment.weighted_value(p.retweets, p.likes, p.comments, p.followers,
                                         label * confidence, config)
                for p, (label, confidence) in zip(scored, scores)])
    return ms, posts_per_s, bytes_per_kept


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    ms, posts_per_s, bytes_per_kept = profile(parse_config(args.config))
    for stage, value in ms.items():
        print(f"{stage:15s} {value:10.2f} ms")
    print(f"posts_per_s {posts_per_s:.0f}")
    print(f"gather_bytes_per_kept_post {bytes_per_kept:.1f}")


if __name__ == "__main__":
    main()
