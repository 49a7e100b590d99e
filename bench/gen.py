"""Seeded input generator for the generated benchmark workloads.

Writes a Yahoo-style price CSV and tweet/news JSON-lines files shaped like
the bundled fixtures, at a size chosen by the caller. The same seed and
arguments give the same bytes. Tweets are built from the fixture phrase
bank plus lexicon words plus one random letters-only token, so almost
every text is distinct both before and after cleaning; that keeps a text
cache in the program from getting a free win on these inputs.
"""

from __future__ import annotations

import importlib.util
import json
from datetime import timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lexicon_words():
    path = ROOT / "src" / "stockcast" / "resources" / "lexicon.tsv"
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line.split("\t")[0])
    return words


def _token(value):
    """Letters-only token for an integer: survives text cleaning intact."""
    letters = []
    for _ in range(9):
        value, digit = divmod(value, 26)
        letters.append(chr(ord("a") + digit))
    return "".join(letters)


def _calendar_days(start, end):
    return [start + timedelta(days=i) for i in range((end - start).days + 1)]


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def generate(out_dir, seed, start, end, tweets_per_day, news_per_day):
    """Write prices.csv, tweets.jsonl and news.jsonl into out_dir, covering
    the calendar days start..end (prices on weekdays only)."""
    fx = _load_fixture_module()
    lexicon = _lexicon_words()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng([seed, 0])
    bars = fx.make_prices(list(fx.weekdays(start, end)), rng)
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for d, o, h, l, c, a, v in bars:
        lines.append(f"{d.isoformat()},{o:.4f},{h:.4f},{l:.4f},{c:.4f},{a:.4f},{v}")
    (out_dir / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    days = _calendar_days(start, end)
    rng = np.random.default_rng([seed, 1])
    per_day = rng.poisson(tweets_per_day, size=len(days))
    n = int(per_day.sum())
    mood = rng.random(n).tolist()
    phrase_idx = rng.integers(0, 5, size=n).tolist()
    n_words = rng.integers(0, 4, size=n).tolist()
    verbatim = (rng.random(n) < 0.1).tolist()  # bare phrase, as a copied post would be
    word_idx = rng.integers(0, len(lexicon), size=(n, 3)).tolist()
    tokens = rng.integers(0, 26 ** 9, size=n, dtype=np.int64).tolist()
    hours = rng.integers(0, 24, size=n).tolist()
    minutes = rng.integers(0, 60, size=n).tolist()
    retweets = rng.integers(0, 400, size=n).tolist()
    likes = rng.integers(40, 4000, size=n).tolist()  # some fall under min_likes
    comments = rng.integers(0, 150, size=n).tolist()
    followers = rng.integers(500, 800_000, size=n).tolist()
    banks = (fx.POSITIVE_BITS, fx.NEGATIVE_BITS, fx.NEUTRAL_BITS)
    tweets = []
    k = 0
    for d, count in zip(days, per_day.tolist()):
        for _ in range(count):
            bank = banks[0] if mood[k] < 0.4 else banks[1] if mood[k] < 0.7 else banks[2]
            if verbatim[k]:
                text = bank[phrase_idx[k]]
            else:
                words = [lexicon[j] for j in word_idx[k][:n_words[k]]]
                text = " ".join([bank[phrase_idx[k]], *words, _token(tokens[k])])
            # json.dumps(record, sort_keys=True), spelled out for speed
            tweets.append(
                f'{{"comments": {comments[k]}, "followers": {followers[k]}, '
                f'"id": "t{k + 1:07d}", "kind": "tweet", "likes": {likes[k]}, '
                f'"retweets": {retweets[k]}, "text": {json.dumps(text)}, '
                f'"ts": "{d.isoformat()}T{hours[k]:02d}:{minutes[k]:02d}:00+00:00"}}\n')
            k += 1
    (out_dir / "tweets.jsonl").write_text("".join(tweets), encoding="utf-8")

    rng = np.random.default_rng([seed, 2])
    per_day = rng.poisson(news_per_day, size=len(days))
    news = []
    for d, count in zip(days, per_day):
        for _ in range(int(count)):
            text = (f"{fx.NEWS_BITS[int(rng.integers(0, len(fx.NEWS_BITS)))]} "
                    f"{lexicon[int(rng.integers(0, len(lexicon)))]} "
                    f"{_token(int(rng.integers(0, 26 ** 9)))}")
            news.append({
                "id": f"n{len(news) + 1:06d}",
                "ts": f"{d.isoformat()}T{int(rng.integers(6, 22)):02d}:00:00+00:00",
                "text": text,
                "kind": "news",
            })
    _write_jsonl(out_dir / "news.jsonl", news)
