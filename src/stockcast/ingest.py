"""Load, validate and calendar-align daily price bars and raw posts.

Price data comes from a Yahoo-style CSV (``Date,Open,High,Low,Close,
Adj Close,Volume``); tweets and news come from JSON-lines files. The
trading calendar is derived from the price file, and posts are assigned
to the next trading day on or after their UTC date so their information
is usable at that day's open.
"""

from __future__ import annotations

import bisect
import codecs
import csv
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .errors import StockcastError, echo, line_ends, not_utf8

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]

POST_KINDS = ("tweet", "news")

# Tweet engagement counts, in RawPost field order; news carries none.
_COUNT_FIELDS = ("retweets", "likes", "comments", "followers")
_NO_COUNTS = (0, 0, 0, 0)
#: Text files are cut into line_ranges of about this size: one scoring task
#: each in a post file, and the most of a file text_lines holds at once.
_RANGE_BYTES = 1 << 20


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
    news. load_posts_jsonl builds one per post; the scoring reads
    read_posts' plain tuples, in the same field order, and builds none.
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

    def day(self, d):
        """Index in ``dates`` of the first trading date on or after ``d``, or
        -1 past the calendar end.

        Posts on trading days map to that day; weekend/holiday posts roll
        forward to the next session.
        """
        i = bisect.bisect_left(self.dates, d)
        return i if i < len(self.dates) else -1


def load_price_csv(path):
    """Load and validate a Yahoo-style daily price CSV.

    Rows must be strictly increasing by date, with per-bar OHLC sanity
    enforced (finite values, low <= open/close <= high, positive prices,
    volume >= 0).

    The file is read by text_lines, each line with its end, so a quoted
    field may hold a line break, which csv keeps as an LF.

    Raises:
        StockcastError: the file is not UTF-8 or starts with a UTF-8 byte
            order mark (see line_ranges), a header column is missing, the
            file has no rows after its header, or a row fails to parse,
            breaks a bar invariant or repeats or goes back in date. Row
            errors start ``<path>:<line>: ``.
    """
    path = Path(path)
    bars = []
    reader = csv.reader(text_lines(path))
    try:
        header = next(reader, [])
        for col in PRICE_HEADER:
            if col not in header:
                raise StockcastError(f"missing required column {col!r} in {path}")
        idx = {col: header.index(col) for col in PRICE_HEADER}
        last_date = None
        # A row starts on the line after the previous row's last line; a
        # quoted field may hold line breaks, so rows are not lines.
        next_line = reader.line_num + 1
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
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
    """``raw`` as an aware UTC datetime; one without an offset is taken as UTC.

    The ``Z`` rewrite runs only on a string holding a ``Z``, and the
    conversion only off UTC: either step would return its input unchanged.
    A NUL anywhere is refused: fromisoformat reads a trailing one as the
    string's end.
    """
    if "\0" in raw:
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00") if "Z" in raw else raw)
    if ts.tzinfo is timezone.utc:
        return ts
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def line_ranges(path, size):
    """Split a text file into byte ranges of about ``size`` bytes that end on line ends.

    Returns one ``(start, end, first_line)`` per range, in file order, for
    ``read_posts``' ``byte_range`` or for text_lines. ``first_line``
    numbers the range's first line as text-mode reading does, which ends a
    line at an LF, a CR LF or a lone CR. A range ends just after an LF, so
    it never splits a CR LF or a UTF-8 sequence.

    Each range is checked to be UTF-8 as it is cut, so a file holding a
    byte that is not UTF-8 raises a StockcastError at its first such byte,
    ``<path>:<line>: not UTF-8 text: <reason>``, with the line and reason a
    text-mode read of the whole file gives (errors.not_utf8), before any
    line of the file is parsed. A block that is all ASCII is valid UTF-8
    and is not decoded. Then a file that starts with a UTF-8 byte order
    mark raises one at ``<path>:1: ``: decoded, the mark would join the
    first key, word, field or JSON value.
    """
    ranges = []
    start, first_line = 0, 1
    with open(path, "rb") as fh:
        bom = fh.peek(3).startswith(codecs.BOM_UTF8)
        while block := fh.read(size):
            if not block.endswith(b"\n"):
                block += fh.readline()
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise not_utf8(path, block, exc, first_line) from None
            ranges.append((start, start + len(block), first_line))
            first_line += line_ends(block)
            start += len(block)
    if bom:
        raise StockcastError(f"{path}:1: starts with a UTF-8 byte order mark")
    return ranges


def text_lines(path):
    """The lines of a text input file, as ``open(path, encoding="utf-8")``
    reads them: each ends at an LF, a CR LF or a lone CR and is given with
    an LF for its end, the last one perhaps with none.

    line_ranges checks the whole file before a line is given, so its first
    byte that is not UTF-8 raises first, then a leading byte order mark.
    The file is read one range of about _RANGE_BYTES at a time.
    """
    for start, end, _ in line_ranges(path, _RANGE_BYTES):
        *lines, last = _post_lines(path, start, end)
        yield from (line + "\n" for line in lines)
        if last:  # the file's last line, without a line end
            yield last


def load_posts_jsonl(path, kind, byte_range=None):
    """Load tweets or news from a JSON-lines file, as a list of RawPost.

    Each line is one object with fields ``id`` (a string or an integer),
    ``ts`` (an ISO-8601 string), ``text`` (a string) and, for tweets,
    ``retweets``/``likes``/``comments``/``followers`` (JSON integers, not
    booleans, at least 0). Engagement fields default to 0 when absent and
    are forced to 0 for news, whose lines are not checked for them. Posts
    with a duplicate id are dropped, keeping the first occurrence; the
    scoring applies ``min_likes`` after that. These are read_posts' posts,
    which the scoring reads one at a time instead.

    Args:
        path: JSONL file path.
        kind: "tweet" or "news"; news lines are not checked for counts.
        byte_range: one ``line_ranges`` entry, to load only that part of
            the file, its lines numbered as in the whole file; duplicate
            ids are then dropped only within the range. None loads the
            whole file, read as read_posts reads it.

    Raises:
        StockcastError: the file is not UTF-8 (reported first, at its first
            bad byte) or starts with a byte order mark (see line_ranges),
            or a line is not a JSON object, or
            a field is absent or has the wrong type or value. The message
            starts ``<path>:<line>: ``.
    """
    return list(map(RawPost._make, read_posts(path, kind, byte_range)))


def read_posts(path, kind, byte_range=None):
    """The first post of each id in a post file, or in one of its ``line_ranges``.

    A generator of plain tuples ``(id, timestamp, text, retweets, likes,
    comments, followers)``, RawPost's fields, in line order. Every line is
    checked as load_posts_jsonl says, duplicates included, and the first
    bad one raises when the generator reaches it. Without ``byte_range``
    the whole file is read by text_lines, so a byte that is not UTF-8 or a
    byte order mark raises before any line is parsed. Either way no more
    than one range is held at once, read by _post_lines; lines end where
    text-mode reading ends them, at an LF, a CR LF or a lone CR.
    """
    if kind not in POST_KINDS:
        raise ValueError(f"kind must be one of {POST_KINDS}, got {kind!r}")
    path = Path(path)
    news = kind == "news"
    seen_ids = set()
    if byte_range is None:
        lines, first_line = text_lines(path), 1
    else:
        start, end, first_line = byte_range
        lines = _post_lines(path, start, end)
    for lineno, record, post_id in json_records(path, lines, first_line, ("id", "ts", "text")):
        text = record["text"]
        if type(text) is not str:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: field 'text' "
                                 f"must be a string, got {echo(json.dumps(text))}")
        ts = record["ts"]
        if type(ts) is not str:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: field 'ts' "
                                 f"must be a string, got {echo(json.dumps(ts))}")
        try:
            ts = _parse_timestamp(ts)
        # OverflowError: a UTC time outside years 1-9999
        except (ValueError, OverflowError) as exc:
            raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: "
                                 f"bad timestamp: {echo(str(exc))}") from exc
        if news:
            counts = _NO_COUNTS
        else:  # _COUNT_FIELDS, each 0 when absent
            retweets, likes, comments, followers = counts = (
                record.get("retweets", 0), record.get("likes", 0),
                record.get("comments", 0), record.get("followers", 0))
            # type(), not isinstance(): a JSON true is a bool, an int subclass
            if not (type(retweets) is type(likes) is type(comments) is type(followers) is int
                    and retweets >= 0 and likes >= 0 and comments >= 0 and followers >= 0):
                _bad_count(path, lineno, counts)
        if post_id in seen_ids:
            continue
        seen_ids.add(post_id)
        yield (post_id, ts, text) + counts


def _post_lines(path, start, end):
    """The lines of bytes ``start`` to ``end`` of a text file, one of its
    line_ranges, read at once and decoded, without their line ends."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(end - start)
    # Text mode ends lines at an LF, a CR LF or a lone CR; each becomes an
    # LF here (replace returns data itself when there is nothing to
    # replace). No UTF-8 sequence holds a CR or LF byte, so each line of the
    # range (valid UTF-8, see line_ranges) decodes on its own, and none is
    # held decoded longer than it is read. The trailing "" after the last
    # LF is a blank line, which json_records skips and text_lines drops.
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return map(bytes.decode, data.split(b"\n"))


def _bad_count(path, lineno, counts):
    """Raise the error of the first of a tweet line's counts that is not a JSON integer >= 0."""
    for name, value in zip(_COUNT_FIELDS, counts):
        if type(value) is not int:
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: bad count {name!r}: "
                f"expected an integer, got {echo(json.dumps(value))}")
        if value < 0:
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: negative count {name!r}")


#: The scanner json.loads runs, with json.loads' default settings.
_scan_once = json.JSONDecoder().scan_once


def json_records(path, lines, first_line, fields):
    """``(lineno, record, id)`` for each non-blank line of a JSON-lines file.

    ``lines`` are numbered from ``first_line``. Each must be one JSON
    object holding every name in ``fields``, ``"id"`` among them; ``id``
    is a string, or an integer taken as its decimal string. A line that
    breaks a rule raises a StockcastError at ``<path>:<line>: ``:
    ``unparsable line N: `` and the parse error, ``expected a JSON
    object`` or the id rule, or ``missing field 'x' at line N``.

    Each stripped line is parsed by ``_scan_once``, the scanner json.loads
    itself runs, and the value is taken only when it ends at the line's
    end. On a stripped line that is exactly json.loads' result; any other
    line (a parse error, trailing data, a BOM) goes to json.loads, so its
    message is json.loads' own. One parse per line, not one of the lines
    joined as a JSON array: lines such as ``{"a": [1`` and ``2]}`` join
    into a valid array, while each alone is an error.
    """
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):  # json.loads says which
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            # ValueError: JSONDecodeError, or an integer past the int-string
            # digit limit; RecursionError: deep nesting
            except (ValueError, RecursionError) as exc:
                raise StockcastError(f"{path}:{lineno}: unparsable line {lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise StockcastError(
                f"{path}:{lineno}: unparsable line {lineno}: expected a JSON object")
        for field in fields:
            if field not in record:
                raise StockcastError(
                    f"{path}:{lineno}: missing field {field!r} at line {lineno}")
        record_id = record["id"]
        if type(record_id) is not str:
            # type(), not isinstance(): a JSON true is a bool, an int subclass
            if type(record_id) is not int:
                raise StockcastError(
                    f"{path}:{lineno}: unparsable line {lineno}: field 'id' must be "
                    f"a string or an integer, got {echo(json.dumps(record_id))}")
            record_id = str(record_id)
        yield lineno, record, record_id


def assign_posts(posts, calendar):
    """Map posts onto trading dates.

    Returns a dict trading-date -> list of posts, ordered as loaded, with
    one key per calendar date in calendar order. Posts dated after the
    last trading day are dropped (there is no session left for their
    information to act on).
    """
    assigned = {d: [] for d in calendar.dates}
    for post in posts:
        day = calendar.day(post.timestamp.date())
        if day >= 0:
            assigned[calendar.dates[day]].append(post)
    return assigned


__all__ = [
    "PriceBar",
    "RawPost",
    "TradingCalendar",
    "PRICE_HEADER",
    "load_price_csv",
    "line_ranges",
    "text_lines",
    "load_posts_jsonl",
    "read_posts",
    "json_records",
    "calendar_from_bars",
    "assign_posts",
]
