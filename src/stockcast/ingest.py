"""Load, validate and calendar-align daily price bars and raw posts.

Price data comes from a Yahoo-style CSV (``Date,Open,High,Low,Close,
Adj Close,Volume``); tweets and news come from JSON-lines files. The
trading calendar is derived from the price file, and posts are assigned
to the next trading day on or after their UTC date so their information
is usable at that day's open.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from .errors import (
    DuplicateDate,
    MissingColumn,
    MissingField,
    NonMonotonicDate,
    StockcastError,
    UnparsableLine,
    UnparsableRow,
)

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]

POST_KINDS = ("tweet", "news")


@dataclass(frozen=True)
class PriceBar:
    """One day of OHLCV data for one stock."""

    date: date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float

    def validate(self):
        if not (self.low <= self.open <= self.high):
            raise ValueError(f"open {self.open} outside [low, high] on {self.date}")
        if not (self.low <= self.close <= self.high):
            raise ValueError(f"close {self.close} outside [low, high] on {self.date}")
        if min(self.open, self.high, self.low, self.close, self.adj_close) <= 0:
            raise ValueError(f"non-positive price on {self.date}")
        if self.volume < 0:
            raise ValueError(f"negative volume on {self.date}")


@dataclass(frozen=True)
class RawPost:
    """One tweet or news item with engagement counts.

    News items carry no engagement, so all four counts are zero for
    kind="news".
    """

    id: str
    timestamp: datetime
    text: str
    retweets: int = 0
    likes: int = 0
    comments: int = 0
    followers: int = 0
    kind: str = "tweet"


class TradingCalendar:
    """Ordered trading dates, derived from the validated price file."""

    def __init__(self, dates):
        dates = list(dates)
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise NonMonotonicDate(cur)
        self.dates = dates

    def __len__(self):
        return len(self.dates)

    def __iter__(self):
        return iter(self.dates)

    def assign(self, d):
        """Next trading date on or after ``d``, or None past the calendar end.

        Posts on trading days map to that day; weekend/holiday posts roll
        forward to the next session.
        """
        i = bisect.bisect_left(self.dates, d)
        if i >= len(self.dates):
            return None
        return self.dates[i]


def load_price_csv(path):
    """Load and validate a Yahoo-style daily price CSV.

    Rows must be strictly increasing by date, with per-bar OHLC sanity
    enforced (low <= open/close <= high, positive prices, volume >= 0).

    Raises:
        MissingColumn: header does not match the documented schema.
        UnparsableRow: a row fails to parse or violates bar invariants.
        DuplicateDate / NonMonotonicDate: date ordering problems.
        StockcastError: the file has no rows after its header.
    """
    path = Path(path)
    bars = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(PRICE_HEADER[0], path)
        for col in PRICE_HEADER:
            if col not in header:
                raise MissingColumn(col, path)
        idx = {col: header.index(col) for col in PRICE_HEADER}
        last_date = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                d = date.fromisoformat(row[idx["Date"]].strip())
                bar = PriceBar(
                    date=d,
                    open=float(row[idx["Open"]]),
                    high=float(row[idx["High"]]),
                    low=float(row[idx["Low"]]),
                    close=float(row[idx["Close"]]),
                    adj_close=float(row[idx["Adj Close"]]),
                    volume=float(row[idx["Volume"]]),
                )
                bar.validate()
            except (ValueError, IndexError) as exc:
                raise UnparsableRow(lineno, str(exc)) from exc
            if last_date is not None:
                if bar.date == last_date:
                    raise DuplicateDate(bar.date)
                if bar.date < last_date:
                    raise NonMonotonicDate(bar.date)
            last_date = bar.date
            bars.append(bar)
    if not bars:
        raise StockcastError(f"{path}: no price rows after the header")
    return bars


def calendar_from_bars(bars):
    return TradingCalendar(bar.date for bar in bars)


def _parse_timestamp(raw):
    ts = datetime.fromisoformat(str(raw).replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_posts_jsonl(path, kind, min_likes=None):
    """Load tweets or news from a JSON-lines file.

    Each line is one object with fields ``id``, ``ts``, ``text`` and, for
    tweets, ``retweets``/``likes``/``comments``/``followers``. Engagement
    fields default to 0 when absent and are forced to 0 for news. Posts
    with a duplicate id are dropped, keeping the first occurrence.

    Args:
        path: JSONL file path.
        kind: "tweet" or "news"; applied to every loaded post.
        min_likes: optional filter re-applying the collection-time
            minimum-likes rule (posts with likes >= min_likes are kept).

    Raises:
        UnparsableLine: a line is not a JSON object.
        MissingField: a required field is absent.
    """
    if kind not in POST_KINDS:
        raise ValueError(f"kind must be one of {POST_KINDS}, got {kind!r}")
    path = Path(path)
    posts = []
    seen_ids = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UnparsableLine(lineno, str(exc)) from exc
            if not isinstance(record, dict):
                raise UnparsableLine(lineno, "expected a JSON object")
            for field in ("id", "ts", "text"):
                if field not in record:
                    raise MissingField(field, lineno)
            try:
                ts = _parse_timestamp(record["ts"])
            except ValueError as exc:
                raise UnparsableLine(lineno, f"bad timestamp: {exc}") from exc

            def count(name):
                if kind == "news":
                    return 0
                value = record.get(name, 0)
                try:
                    value = int(value)
                except (TypeError, ValueError) as exc:
                    raise UnparsableLine(lineno, f"bad count {name!r}") from exc
                if value < 0:
                    raise UnparsableLine(lineno, f"negative count {name!r}")
                return value

            post = RawPost(
                id=str(record["id"]),
                timestamp=ts,
                text=str(record["text"]),
                retweets=count("retweets"),
                likes=count("likes"),
                comments=count("comments"),
                followers=count("followers"),
                kind=kind,
            )
            if post.id in seen_ids:
                continue
            seen_ids.add(post.id)
            posts.append(post)
    if min_likes is not None:
        posts = [p for p in posts if p.likes >= min_likes]
    return posts


def assign_posts(posts, calendar):
    """Map posts onto trading dates.

    Returns a dict trading-date -> list of posts, ordered as loaded.
    Posts dated after the last trading day are dropped (there is no
    session left for their information to act on).
    """
    assigned = {d: [] for d in calendar}
    for post in posts:
        d = calendar.assign(post.timestamp.date())
        if d is None:
            continue
        assigned[d].append(post)
    return assigned


__all__ = [
    "PriceBar",
    "RawPost",
    "TradingCalendar",
    "PRICE_HEADER",
    "load_price_csv",
    "load_posts_jsonl",
    "calendar_from_bars",
    "assign_posts",
]
