"""Loader and calendar contracts."""

import json
from datetime import date

import pytest

from stockcast.errors import (
    DuplicateDate,
    MissingColumn,
    MissingField,
    NonMonotonicDate,
    UnparsableLine,
    UnparsableRow,
)
from stockcast.ingest import (
    TradingCalendar,
    assign_posts,
    calendar_from_bars,
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
        with pytest.raises(UnparsableRow) as exc:
            load_price_csv(path)
        assert exc.value.line == 2

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
        with pytest.raises(MissingColumn) as exc:
            load_price_csv(path)
        assert exc.value.column == "Adj Close"

    def test_duplicate_date(self, tmp_path):
        rows = ["2023-01-03,100,105,99,104,104,5000"] * 2
        with pytest.raises(DuplicateDate):
            load_price_csv(write_csv(tmp_path, rows))

    def test_non_monotonic_date(self, tmp_path):
        rows = [
            "2023-01-04,100,105,99,104,104,5000",
            "2023-01-03,100,105,99,104,104,5000",
        ]
        with pytest.raises(NonMonotonicDate):
            load_price_csv(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("row, reason", [
        ("2023-01-03,100,105,99,104,104,5000,7", "8 fields where the header has 7"),
        ("2023-01-03,x,105,99,104,104,5000", "could not convert string to float: 'x'"),
    ], ids=["extra-field", "bad-number"])
    def test_row_error_names_file_and_line(self, tmp_path, row, reason):
        path = write_csv(tmp_path, ["2023-01-02,100,105,99,104,104,5000", row])
        with pytest.raises(UnparsableRow) as exc:
            load_price_csv(path)
        assert exc.value.line == 3
        assert str(exc.value) == f"{path}:3: unparsable row at line 3: {reason}"

    def test_negative_volume_rejected(self, tmp_path):
        with pytest.raises(UnparsableRow):
            load_price_csv(write_csv(tmp_path, ["2023-01-03,100,105,99,104,104,-1"]))


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
        assert post.kind == "tweet"

    def test_news_defaults_to_zero_counts(self, tmp_path):
        path = self.write_jsonl(tmp_path, [
            {"id": "n1", "ts": "2023-01-03T12:00:00Z", "text": "headline"},
        ])
        (post,) = load_posts_jsonl(path, "news")
        assert (post.retweets, post.likes, post.comments, post.followers) == (0, 0, 0, 0)
        assert post.kind == "news"

    def test_min_likes_filter(self, tmp_path):
        records = [
            {"id": f"t{i}", "ts": "2023-01-03T12:00:00Z", "text": "x", "likes": likes}
            for i, likes in enumerate((50, 100, 150))
        ]
        posts = load_posts_jsonl(self.write_jsonl(tmp_path, records), "tweet",
                                 min_likes=100)
        assert [p.likes for p in posts] == [100, 150]

    def test_unparsable_line_numbered(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id": "a", "ts": "2023-01-03T00:00:00Z", "text": "x"}\nnot json\n')
        with pytest.raises(UnparsableLine) as exc:
            load_posts_jsonl(path, "tweet")
        assert exc.value.line == 2

    def test_missing_field(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{"id": "a", "text": "x"}])
        with pytest.raises(MissingField) as exc:
            load_posts_jsonl(path, "tweet")
        assert exc.value.name == "ts"

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

    @pytest.mark.parametrize("line, error, message", [
        ("not json", UnparsableLine, "unparsable line 2: Expecting value"),
        ("[1]", UnparsableLine, "unparsable line 2: expected a JSON object"),
        ('{"id": "b", "text": "x"}', MissingField, "missing field 'ts' at line 2"),
        ('{"id": "b", "ts": "x", "text": "x"}', UnparsableLine,
         "unparsable line 2: bad timestamp: "),
        ('{"id": "b", "ts": "2023-01-03", "text": "x", "likes": -1}', UnparsableLine,
         "unparsable line 2: negative count 'likes'"),
    ], ids=["json", "not-object", "missing", "timestamp", "negative"])
    def test_errors_name_file_and_line(self, tmp_path, line, error, message):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + line + "\n")
        with pytest.raises(error) as exc:
            load_posts_jsonl(path, "tweet")
        assert exc.value.line == 2
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
        assert cal.assign(date(2023, 1, 7)) == date(2023, 1, 9)  # Saturday
        assert cal.assign(date(2023, 1, 6)) == date(2023, 1, 6)
        assert cal.assign(date(2023, 1, 10)) is None

    def test_assign_posts_drops_past_calendar_end(self):
        cal = TradingCalendar([date(2023, 1, 6)])
        posts = [make_post("a", date(2023, 1, 5)), make_post("b", date(2023, 1, 10))]
        assigned = assign_posts(posts, cal)
        assert [p.id for p in assigned[date(2023, 1, 6)]] == ["a"]

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicDate):
            TradingCalendar([date(2023, 1, 9), date(2023, 1, 6)])


def test_calendar_matches_price_file(fixtures_dir):
    bars = load_price_csv(fixtures_dir / "prices.csv")
    cal = calendar_from_bars(bars)
    assert list(cal) == [b.date for b in bars]
    assert cal.dates[0] == bars[0].date and cal.dates[-1] == bars[-1].date
