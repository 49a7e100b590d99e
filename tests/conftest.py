"""Shared fixtures: repo paths and small data builders."""

from datetime import date, datetime, timezone
from pathlib import Path

import pytest

from stockcast.ingest import PriceBar, RawPost

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def fixture_config_path():
    return CONFIGS / "fixture.conf"


def make_bar(d, open_=100.0, high=None, low=None, close=104.0, adj=None, volume=1000.0):
    """Bar builder with consistent OHLC defaults."""
    high = high if high is not None else max(open_, close) * 1.01
    low = low if low is not None else min(open_, close) * 0.99
    adj = adj if adj is not None else close
    return PriceBar(date=d, open=open_, high=high, low=low, close=close,
                    adj_close=adj, volume=volume)


def make_post(post_id="p1", day=date(2023, 1, 3), text="text",
              retweets=0, likes=0, comments=0, followers=0):
    return RawPost(
        id=post_id,
        timestamp=datetime(day.year, day.month, day.day, 12, 0, tzinfo=timezone.utc),
        text=text,
        retweets=retweets,
        likes=likes,
        comments=comments,
        followers=followers,
    )
