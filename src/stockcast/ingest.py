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
import io
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .errors import StockcastError, echo, open_text

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]

POST_KINDS = ("tweet", "news")

# Tweet engagement counts, in RawPost field order; news carries none.
_COUNT_FIELDS = ("retweets", "likes", "comments", "followers")
_NO_COUNTS = (0, 0, 0, 0)


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
        if not all(map(math.isfinite, (self.open, self.high, self.low, self.close,
                                       self.adj_close, self.volume))):
            raise ValueError(f"non-finite price or volume on {self.date}")
        if not (self.low <= self.open <= self.high):
            raise ValueError(f"open {self.open} outside [low, high] on {self.date}")
        if not (self.low <= self.close <= self.high):
            raise ValueError(f"close {self.close} outside [low, high] on {self.date}")
        if min(self.open, self.high, self.low, self.close, self.adj_close) <= 0:
            raise ValueError(f"non-positive price on {self.date}")
        if self.volume < 0:
            raise ValueError(f"negative volume on {self.date}")


class RawPost(NamedTuple):
    """One tweet or news item with engagement counts.

    News items carry no engagement, so all four counts are zero for
    news. A named tuple rather than a frozen dataclass: a post is built
    once per input line and the tuple is the cheaper record.
    """

    id: str
    timestamp: datetime
    text: str
    retweets: int = 0
    likes: int = 0
    comments: int = 0
    followers: int = 0


class TradingCalendar:
    """Ordered trading dates, derived from the validated price file."""

    def __init__(self, dates):
        dates = list(dates)
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise StockcastError(f"dates not strictly increasing at {cur}")
        self.dates = dates

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
    enforced (finite values, low <= open/close <= high, positive prices,
    volume >= 0).

    Raises:
        StockcastError: a header column is missing, the file has no rows
            after its header, or a row fails to parse, breaks a bar
            invariant or repeats or goes back in date. Row errors start
            ``<path>:<line>: ``.
    """
    path = Path(path)
    bars = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for col in PRICE_HEADER:
                if col not in header:
                    raise StockcastError(f"missing required column {col!r} in {path}")
            idx = {col: header.index(col) for col in PRICE_HEADER}
            last_date = None
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise StockcastError(f"{path}:{lineno}: unparsable row at line {lineno}: "
                                         f"{len(row)} fields where the header has {len(header)}")
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
                except (ValueError, IndexError) as exc:  # float() quotes the whole field
                    raise StockcastError(f"{path}:{lineno}: unparsable row at line {lineno}: "
                                         f"{echo(str(exc))}") from exc
                if last_date is not None:
                    if bar.date == last_date:
                        raise StockcastError(f"{path}:{lineno}: duplicate date {bar.date}")
                    if bar.date < last_date:
                        raise StockcastError(
                            f"{path}:{lineno}: dates not strictly increasing at {bar.date}")
                last_date = bar.date
                bars.append(bar)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise StockcastError(f"{path}:{reader.line_num}: unparsable row at line "
                                 f"{reader.line_num}: {exc}") from exc
    if not bars:
        raise StockcastError(f"{path}: no price rows after the header")
    return bars


def calendar_from_bars(bars):
    return TradingCalendar(bar.date for bar in bars)


def _parse_timestamp(raw):
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def line_ranges(path, size):
    """Split a post file into byte ranges of about ``size`` bytes that end on line ends.

    Returns one ``(start, end, first_line)`` per range, in file order, for
    ``load_posts_jsonl``'s ``byte_range``. ``first_line`` numbers the
    range's first line as text-mode reading does, which ends a line at an
    LF, a CR LF or a lone CR. A range ends just after an LF, so it never
    splits a CR LF or a UTF-8 sequence.

    A file holding a byte that is not UTF-8 comes back as the one range
    None, the whole file. Text-mode reading decodes 8 KiB at a time, so a
    bad byte is reported before a bad line just ahead of it in the same
    block; only a read of the whole file reports the same error first.

    A block that is all ASCII is valid UTF-8 and is not decoded, and one
    without a CR adds only its LF count.
    """
    ranges = []
    start, first_line = 0, 1
    with open(path, "rb") as fh:
        while block := fh.read(size):
            if not block.endswith(b"\n"):
                block += fh.readline()
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError:
                    return [None]
            ranges.append((start, start + len(block), first_line))
            first_line += block.count(b"\n")
            if b"\r" in block:
                first_line += block.count(b"\r") - block.count(b"\r\n")
            start += len(block)
    return ranges


def load_posts_jsonl(path, kind, byte_range=None):
    """Load tweets or news from a JSON-lines file.

    Each line is one object with fields ``id`` (a string or an integer),
    ``ts`` (an ISO-8601 string), ``text`` (a string) and, for tweets,
    ``retweets``/``likes``/``comments``/``followers`` (JSON integers, not
    booleans, at least 0). Engagement fields default to 0 when absent and
    are forced to 0 for news, whose lines are not checked for them. Posts
    with a duplicate id are dropped, keeping the first occurrence; the
    scoring applies ``min_likes`` after that.

    Args:
        path: JSONL file path.
        kind: "tweet" or "news"; news lines are not checked for counts.
        byte_range: one ``line_ranges`` entry, to load only that part of
            the file, its lines numbered as in the whole file; duplicate
            ids are then dropped only within the range. None loads the
            whole file.

    Raises:
        StockcastError: a line is not a JSON object, or a field is absent
            or has the wrong type or value, or the file is not UTF-8. The
            message starts ``<path>:<line>: ``.
    """
    if kind not in POST_KINDS:
        raise ValueError(f"kind must be one of {POST_KINDS}, got {kind!r}")
    path = Path(path)
    if byte_range is None:
        with open_text(path) as fh:
            return _read_posts(path, kind, fh, 1)
    start, end, first_line = byte_range
    with open(path, "rb") as fh:
        fh.seek(start)
        text = fh.read(end - start).decode("utf-8")
    return _read_posts(path, kind, io.StringIO(text, newline=None), first_line)


def _read_posts(path, kind, lines, first_line):
    """The posts of ``lines``, numbered from ``first_line``; see load_posts_jsonl."""
    news = kind == "news"
    posts = []
    seen_ids = set()
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: expected a JSON object")
        for field in ("id", "ts", "text"):
            if field not in record:
                raise StockcastError(
                    f"{path}:{lineno}: missing field {field!r} at line {lineno}")
        post_id = record["id"]
        if type(post_id) is not str:
            if type(post_id) is not int:
                raise StockcastError(
                    f"{path}:{lineno}: unparsable line {lineno}: field 'id' must be "
                    f"a string or an integer, got {echo(json.dumps(post_id))}")
            post_id = str(post_id)
        text = record["text"]
        if type(text) is not str:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"field 'text' must be a string, got {echo(json.dumps(text))}")
        ts = record["ts"]
        if type(ts) is not str:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"field 'ts' must be a string, got {echo(json.dumps(ts))}")
        try:
            ts = _parse_timestamp(ts)
        except ValueError as exc:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"bad timestamp: {echo(str(exc))}") from exc
        if news:
            counts = _NO_COUNTS
        else:
            counts = []
            for name in _COUNT_FIELDS:
                value = record.get(name, 0)
                # type(), not isinstance(): a JSON true is a bool, an int subclass
                if type(value) is not int:
                    raise StockcastError(
                        f"{path}:{lineno}: unparsable line {lineno}: bad count {name!r}: "
                        f"expected an integer, got {echo(json.dumps(value))}")
                if value < 0:
                    raise StockcastError(
                        f"{path}:{lineno}: unparsable line {lineno}: negative count {name!r}")
                counts.append(value)
        if post_id in seen_ids:
            continue
        seen_ids.add(post_id)
        posts.append(RawPost(post_id, ts, text, *counts))
    return posts


def assign_posts(posts, calendar):
    """Map posts onto trading dates.

    Returns a dict trading-date -> list of posts, ordered as loaded, with
    one key per calendar date in calendar order. Posts dated after the
    last trading day are dropped (there is no session left for their
    information to act on).
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
    "line_ranges",
    "load_posts_jsonl",
    "calendar_from_bars",
    "assign_posts",
]
