"""Loader and calendar contracts."""

import json
import re
from datetime import date

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stockcast.errors import StockcastError, echo
from stockcast.ingest import (
    TradingCalendar,
    assign_posts,
    calendar_from_bars,
    _post_lines,
    json_records,
    line_ranges,
    load_posts_jsonl,
    load_price_csv,
)

from conftest import make_post

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "prices.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestLoadPriceCsv:
    def test_field_mapping(self, tmp_path):
        path = write_csv(tmp_path, ["2023-01-03,100,105,99,104,104,5000"])
        (bar,) = load_price_csv(path)
        assert bar.date == date(2023, 1, 3)
        assert (bar.open, bar.high, bar.low, bar.close) == (100, 105, 99, 104)
        assert bar.adj_close == 104 and bar.volume == 5000

    def test_high_below_open_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["2023-01-03,100,98,95,97,97,5000"])
        with pytest.raises(StockcastError, match=re.escape(
                f"{path}:2: unparsable row at line 2: open 100.0 outside [low, high]")):
            load_price_csv(path)

    def test_five_row_fixture_sorted(self, tmp_path):
        rows = [
            f"2023-01-{d:02d},100,105,99,104,104,5000" for d in (3, 4, 5, 6, 9)
        ]
        bars = load_price_csv(write_csv(tmp_path, rows))
        assert len(bars) == 5
        assert [b.date for b in bars] == sorted(b.date for b in bars)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["2023-01-03,100,105,99,104,5000"],
                         header="Date,Open,High,Low,Close,Volume")
        with pytest.raises(StockcastError, match=re.escape(
                f"missing required column 'Adj Close' in {path}")):
            load_price_csv(path)

    def test_duplicate_date(self, tmp_path):
        rows = ["2023-01-03,100,105,99,104,104,5000"] * 2
        with pytest.raises(StockcastError, match="duplicate date 2023-01-03$"):
            load_price_csv(write_csv(tmp_path, rows))

    def test_non_monotonic_date(self, tmp_path):
        rows = [
            "2023-01-04,100,105,99,104,104,5000",
            "2023-01-03,100,105,99,104,104,5000",
        ]
        with pytest.raises(StockcastError, match="dates not strictly increasing at 2023-01-03$"):
            load_price_csv(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("row, message", [
        ("2023-01-03,100,105,99,104,104,5000,7",
         "unparsable row at line 3: 8 fields where the header has 7"),
        ("2023-01-03,x,105,99,104,104,5000",
         "unparsable row at line 3: could not convert string to float: 'x'"),
        ("2023-01-02,100,105,99,104,104,5000", "duplicate date 2023-01-02"),
        ("2023-01-01,100,105,99,104,104,5000", "dates not strictly increasing at 2023-01-01"),
        ("2023-01-03,100,inf,99,104,104,5000",
         "unparsable row at line 3: non-finite price or volume on 2023-01-03"),
        ("2023-01-03,100,105,99,104,104,nan",
         "unparsable row at line 3: non-finite price or volume on 2023-01-03"),
    ], ids=["extra-field", "bad-number", "duplicate-date", "date-backwards", "inf-high",
            "nan-volume"])
    def test_row_error_names_file_and_line(self, tmp_path, row, message):
        path = write_csv(tmp_path, ["2023-01-02,100,105,99,104,104,5000", row])
        with pytest.raises(StockcastError) as exc:
            load_price_csv(path)
        assert str(exc.value) == f"{path}:3: {message}"

    def test_row_after_a_quoted_line_break_names_its_physical_line(self, tmp_path):
        # the second row spans lines 2-3 ("1\n" is a valid float), so the bad close is on line 4
        path = write_csv(tmp_path, ['2022-01-03,"1\n",2,0.5,1,1,100',
                                    "2022-01-04,1,2,0.5,9,9,100"])
        with pytest.raises(StockcastError) as exc:
            load_price_csv(path)
        assert str(exc.value) == (f"{path}:4: unparsable row at line 4: "
                                  f"close 9.0 outside [low, high] on 2022-01-04")

    def test_negative_volume_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["2023-01-03,100,105,99,104,104,-1"])
        with pytest.raises(StockcastError, match=re.escape(
                f"{path}:2: unparsable row at line 2: negative volume on 2023-01-03")):
            load_price_csv(path)


class TestLoadPostsJsonl:
    def write_jsonl(self, tmp_path, records):
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_tweet_mapping(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{
            "id": "t1", "ts": "2023-01-03T12:00:00+00:00", "text": "hello",
            "retweets": 10, "likes": 250, "comments": 5, "followers": 8000,
        }])
        (post,) = load_posts_jsonl(path, "tweet")
        assert (post.retweets, post.likes, post.comments, post.followers) == (10, 250, 5, 8000)

    def test_news_defaults_to_zero_counts(self, tmp_path):
        path = self.write_jsonl(tmp_path, [
            {"id": "n1", "ts": "2023-01-03T12:00:00Z", "text": "headline"},
        ])
        (post,) = load_posts_jsonl(path, "news")
        assert (post.retweets, post.likes, post.comments, post.followers) == (0, 0, 0, 0)

    def test_unparsable_line_numbered(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id": "a", "ts": "2023-01-03T00:00:00Z", "text": "x"}\nnot json\n')
        with pytest.raises(StockcastError, match=re.escape(f"{path}:2: unparsable line 2: ")):
            load_posts_jsonl(path, "tweet")

    def test_missing_field(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{"id": "a", "text": "x"}])
        with pytest.raises(StockcastError,
                           match=re.escape(f"{path}:1: missing field 'ts' at line 1")):
            load_posts_jsonl(path, "tweet")

    def test_integer_id_read_as_string(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{"id": 17, "ts": "2023-01-03T12:00:00Z",
                                            "text": "x"}])
        (post,) = load_posts_jsonl(path, "tweet")
        assert post.id == "17"

    def test_news_counts_ignored(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{"id": "n1", "ts": "2023-01-03T12:00:00Z",
                                            "text": "x", "likes": 2.5}])
        (post,) = load_posts_jsonl(path, "news")
        assert post.likes == 0

    GOOD = {"id": "a", "ts": "2023-01-03T00:00:00Z", "text": "x"}

    @pytest.mark.parametrize("line, message", [
        ("not json", "unparsable line 2: Expecting value"),
        ("[1]", "unparsable line 2: expected a JSON object"),
        ('{"id": "b", "text": "x"}', "missing field 'ts' at line 2"),
        ('{"id": "b", "ts": "x", "text": "x"}', "unparsable line 2: bad timestamp: "),
        ('{"id": "b", "ts": "2023-01-03", "text": "x", "likes": -1}',
         "unparsable line 2: negative count 'likes'"),
    ], ids=["json", "not-object", "missing", "timestamp", "negative"])
    def test_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + line + "\n")
        with pytest.raises(StockcastError) as exc:
            load_posts_jsonl(path, "tweet")
        assert str(exc.value).startswith(f"{path}:2: {message}")

    def test_duplicate_ids_keep_first(self, tmp_path):
        records = [
            {"id": "dup", "ts": "2023-01-03T12:00:00Z", "text": "first"},
            {"id": "dup", "ts": "2023-01-04T12:00:00Z", "text": "second"},
        ]
        posts = load_posts_jsonl(self.write_jsonl(tmp_path, records), "tweet")
        assert len(posts) == 1 and posts[0].text == "first"


class TestCalendar:
    def test_assign_rolls_forward_to_next_session(self):
        cal = TradingCalendar([date(2023, 1, 6), date(2023, 1, 9)])  # Fri, Mon
        assert cal.day(date(2023, 1, 7)) == 1  # Saturday
        assert cal.day(date(2023, 1, 6)) == 0
        assert cal.day(date(2023, 1, 10)) == -1

    def test_assign_posts_drops_past_calendar_end(self):
        cal = TradingCalendar([date(2023, 1, 6)])
        posts = [make_post("a", date(2023, 1, 5)), make_post("b", date(2023, 1, 10))]
        assigned = assign_posts(posts, cal)
        assert [p.id for p in assigned[date(2023, 1, 6)]] == ["a"]

    def test_non_monotonic_rejected(self):
        with pytest.raises(StockcastError, match="^dates not strictly increasing at 2023-01-06$"):
            TradingCalendar([date(2023, 1, 9), date(2023, 1, 6)])


def test_calendar_matches_price_file(fixtures_dir):
    bars = load_price_csv(fixtures_dir / "prices.csv")
    cal = calendar_from_bars(bars)
    assert cal.dates == [b.date for b in bars]
    assert cal.dates[0] == bars[0].date and cal.dates[-1] == bars[-1].date


# --- line_ranges ----------------------------------------------------------------

def line_ranges_oracle(path, size):
    """line_ranges as it was before it skipped decoding all-ASCII blocks and
    counting CRs in blocks without one: every block decoded, every block's
    CR and CR LF counted. A file that is not UTF-8 raises the error at the
    line where Python's text mode, bad bytes replaced, shows the first one,
    with the reason its strict read gives."""
    ranges = []
    start, first_line = 0, 1
    with open(path, "rb") as fh:
        while block := fh.read(size):
            if not block.endswith(b"\n"):
                block += fh.readline()
            try:
                block.decode("utf-8")
            except UnicodeDecodeError:
                with open(path, encoding="utf-8") as text:
                    with pytest.raises(UnicodeDecodeError) as exc:
                        text.read()
                with open(path, encoding="utf-8", errors="replace") as text:
                    line = next(n for n, got in enumerate(text, 1) if "\ufffd" in got)
                raise StockcastError(f"{path}:{line}: not UTF-8 text: {exc.value.reason}")
            ranges.append((start, start + len(block), first_line))
            first_line += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            start += len(block)
    return ranges


#: Line ends of each kind, ASCII text and 2-, 3- and 4-byte UTF-8 characters.
LINE_PIECES = st.sampled_from([b"\n", b"\r", b"\r\n", b"a", b'{"id": 1}',
                               "é".encode(), "€".encode(), "😀".encode()])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(LINE_PIECES, max_size=80), bad_at=st.none() | st.integers(0, 80),
       size=st.integers(1, 64))
@example(pieces=[b"a", b"\r", b"b", b"\n", b"c", b"\n"], bad_at=None, size=1)  # a lone CR
@example(pieces=[b"a", b"\n", "é".encode(), b"\n"], bad_at=3, size=2)  # a bad byte after é
def test_line_ranges_matches_oracle(tmp_path, pieces, bad_at, size):
    if bad_at is not None:
        pieces.insert(min(bad_at, len(pieces)), b"\xff")  # not UTF-8
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"".join(pieces))
    try:
        expected = line_ranges_oracle(path, size)
    except StockcastError as exc:
        with pytest.raises(StockcastError, match=f"^{re.escape(str(exc))}$"):
            line_ranges(path, size)
    else:
        assert line_ranges(path, size) == expected


def first_records(path, parts):
    """json_records over each ``(lines, first_line)`` part, in order, then the first error."""
    out = []
    try:
        for lines, first_line in parts:
            out.extend(r[:2] for r in json_records(path, lines, first_line, ("id",)))
    except StockcastError as exc:
        out.append(str(exc))
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(LINE_PIECES | st.sampled_from([b" ", b"\x0c"]), max_size=80),
       size=st.integers(1, 64))
@example(pieces=[b'{"id": 1}', b"\r", b'{"id": 1}', b"\r\n", b"a", b"\r", b"\n"], size=1)
def test_ranges_read_the_lines_of_a_text_mode_read(tmp_path, pieces, size):
    # CR LF and a lone CR end a range's lines as they end a text-mode read's
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"".join(pieces))
    ranges = line_ranges(path, size)
    in_ranges = first_records(path, ((_post_lines(path, *r[:2]), r[2]) for r in ranges))
    with open(path, encoding="utf-8") as text_mode:
        assert in_ranges == first_records(path, [(text_mode, 1)])


# --- json_records: one parse per line, exactly json.loads' ------------------------

def json_records_by_loads(path, lines, first_line, fields):
    """json_records as it was before it scanned each line itself: json.loads
    on each stripped line, then the same object, field and id rules."""
    out = []
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
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
            if type(record_id) is not int:
                raise StockcastError(
                    f"{path}:{lineno}: unparsable line {lineno}: field 'id' must be "
                    f"a string or an integer, got {echo(json.dumps(record_id))}")
            record_id = str(record_id)
        out.append((lineno, record, record_id))
    return out


def outcome(read, lines):
    """What ``read`` gives for ``lines``: its records (repr, so a NaN equals
    itself) or its error message."""
    try:
        return repr(list(read("p.jsonl", lines, 7, ("id",))))
    except StockcastError as exc:
        return f"error: {exc}"


#: Lines that one json.loads of all of them joined as an array would take
#: differently: three lines that join into a valid array, trailing data, a
#: BOM, a bare NaN, nesting past the recursion limit, a leading form feed
#: (which strip removes); each with whether it is an error.
EXACTNESS_CASES = {
    "array-join": (['{"id": "a", "n": 1}, {"id": "b", "n": 2}', '{"id": "c", "n": [1', "2]}"],
                   True),
    "extra-data": (["{} x"], True),
    "bom": (['\ufeff{"id": "a"}'], True),
    "nan": (['{"id": "a", "x": NaN}', "NaN"], True),
    "deep": (["[" * 100_000 + "]" * 100_000], True),
    "form-feed": (['\x0c{"id": "a"}\x0c', "", '  {"id": 7, "t": "\\u00e9"}\t'], False),
}


@pytest.mark.parametrize("case", list(EXACTNESS_CASES))
def test_json_records_match_json_loads_per_line(case):
    lines, is_error = EXACTNESS_CASES[case]
    got = outcome(json_records, lines)
    assert got == outcome(json_records_by_loads, lines)
    assert got.startswith("error: p.jsonl:") == is_error, got[:200]


JSON_PIECES = st.sampled_from(['{"id": "a"}', '{"id": 1', "}", "{", "[", "]", ",", " ", "\t",
                               '"id"', ":", "1", "NaN", "Infinity", "-", "1e999", "null",
                               "true", "\ufeff", "\x0c", "\\", '"', "x", "é", '{"id": []}'])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(JSON_PIECES, max_size=8).map("".join), max_size=4))
def test_json_records_match_json_loads_on_mutated_lines(lines):
    assert outcome(json_records, lines) == outcome(json_records_by_loads, lines)
