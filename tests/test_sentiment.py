"""Engagement-weighted sentiment: worked examples, providers, properties."""

import json
import random
from array import array
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from stockcast import scoring
from stockcast.errors import StockcastError
from stockcast.ingest import TradingCalendar
from stockcast.sentiment import (
    DailySentiment,
    LexiconProvider,
    ReplayProvider,
    SentimentScore,
    WeightParams,
    aggregate_daily,
    load_lexicon,
    load_replay_scores,
    score_post,
    signed_sentiment,
    total_interaction,
    tweet_interaction,
    user_influence,
    weighted_sentiment,
)

from conftest import make_post

W = WeightParams()


def reference_weighted(post, score, w):
    """Independent direct evaluation of the five formulas."""
    t_i = w.alpha * post.retweets + w.beta * post.likes + w.gamma * post.comments
    u_i = w.delta * post.followers
    s = score.label * score.confidence
    tt_i = post.retweets + post.likes + post.comments
    if tt_i == 0:
        return 0.0
    return t_i * u_i * s / tt_i


class TestFormulas:
    def test_interaction_worked_example(self):
        post = make_post(retweets=100, likes=200, comments=50)
        assert tweet_interaction(post, W) == 105.0

    def test_interaction_zero(self):
        assert tweet_interaction(make_post(), W) == 0.0

    def test_default_weights(self):
        assert (W.alpha, W.beta, W.gamma, W.delta) == (0.3, 0.3, 0.3, 0.1)

    def test_influence(self):
        assert user_influence(make_post(followers=1000), W) == 100.0
        assert user_influence(make_post(followers=0), W) == 0.0

    def test_signed(self):
        assert signed_sentiment(SentimentScore(1, 0.8)) == 0.8
        assert signed_sentiment(SentimentScore(0, 0.99)) == 0.0
        assert signed_sentiment(SentimentScore(-1, 0.9)) == -0.9

    def test_total_interaction(self):
        assert total_interaction(make_post(retweets=100, likes=200, comments=50)) == 350.0
        assert total_interaction(make_post()) == 0.0
        assert total_interaction(make_post(retweets=1)) == 1.0

    def test_weighted_worked_example_exact(self):
        post = make_post(retweets=100, likes=200, comments=50, followers=1000)
        assert weighted_sentiment(post, SentimentScore(1, 0.8), W) == 24.0

    def test_weighted_neutral_label(self):
        post = make_post(retweets=100, likes=200, comments=50, followers=1000)
        assert weighted_sentiment(post, SentimentScore(0, 0.9), W) == 0.0

    def test_weighted_zero_engagement(self):
        post = make_post(followers=1000)
        assert weighted_sentiment(post, SentimentScore(1, 0.9), W) == 0.0

    def test_score_validation(self):
        with pytest.raises(ValueError):
            SentimentScore(2, 0.5)
        with pytest.raises(ValueError):
            SentimentScore(1, 1.5)
        with pytest.raises(ValueError):
            WeightParams(alpha=-0.1)


counts = st.integers(0, 10_000)
weights_pos = st.floats(1e-3, 10.0, allow_nan=False)
labels = st.sampled_from([-1, 0, 1])
confs = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=300)
@given(counts, counts, counts, counts, labels, confs,
       weights_pos, weights_pos, weights_pos, weights_pos)
def test_matches_reference(tr, tl, tc, fc, label, conf, a, b, g, d):
    post = make_post(retweets=tr, likes=tl, comments=tc, followers=fc)
    score = SentimentScore(label, conf)
    w = WeightParams(a, b, g, d)
    got = weighted_sentiment(post, score, w)
    want = reference_weighted(post, score, w)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300)
@given(counts, counts, counts, counts, labels, confs, weights_pos, weights_pos)
def test_equal_weight_closed_form(tr, tl, tc, fc, label, conf, a, d):
    post = make_post(retweets=tr, likes=tl, comments=tc, followers=fc)
    score = SentimentScore(label, conf)
    w = WeightParams(a, a, a, d)
    ws = weighted_sentiment(post, score, w)
    if tr + tl + tc == 0:
        assert ws == 0.0
    else:
        assert ws == pytest.approx(a * d * fc * label * conf, rel=1e-12, abs=1e-12)


@settings(max_examples=200)
@given(counts, counts, counts, st.floats(1e-6, 1.0, allow_nan=False),
       weights_pos, weights_pos)
def test_monotone_in_followers(tr, tl, tc, conf, a, d):
    if tr + tl + tc == 0:
        return
    w = WeightParams(a, a, a, d)
    score = SentimentScore(1, conf)
    low = weighted_sentiment(make_post(retweets=tr, likes=tl, comments=tc, followers=100), score, w)
    high = weighted_sentiment(make_post(retweets=tr, likes=tl, comments=tc, followers=200), score, w)
    assert high > low


@settings(max_examples=200)
@given(counts, counts, counts, counts, labels, confs, weights_pos, st.floats(0.1, 5.0))
def test_interaction_weights_scale_linearly(tr, tl, tc, fc, label, conf, a, k):
    post = make_post(retweets=tr, likes=tl, comments=tc, followers=fc)
    score = SentimentScore(label, conf)
    base = weighted_sentiment(post, score, WeightParams(a, a, a, 0.1))
    scaled = weighted_sentiment(post, score, WeightParams(k * a, k * a, k * a, 0.1))
    assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-12)


@settings(max_examples=200)
@given(labels, confs)
def test_signed_bounded(label, conf):
    assert abs(signed_sentiment(SentimentScore(label, conf))) <= 1.0


class TestLexiconProvider:
    LEX = {"good": 1, "bad": -1}

    def test_counts(self):
        provider = LexiconProvider(self.LEX)
        score = provider.score("good good bad")
        assert score.label == 1
        assert score.confidence == pytest.approx(1 / 3, rel=1e-12)

    def test_empty_text(self):
        assert LexiconProvider(self.LEX).score("") == SentimentScore(0, 0.0)

    def test_balanced(self):
        assert LexiconProvider(self.LEX).score("good bad") == SentimentScore(0, 0.0)

    def test_bundled_lexicon(self):
        provider = LexiconProvider(load_lexicon())
        assert provider.score("profit surge rally").label == 1
        assert provider.score("loss crash selloff").label == -1


def reference_lexicon_score(lexicon, text):
    """The two-generator count the one-pass scorer replaced."""
    tokens = text.split()
    if not tokens:
        return SentimentScore(0, 0.0)
    pos = sum(1 for t in tokens if lexicon.get(t) == 1)
    neg = sum(1 for t in tokens if lexicon.get(t) == -1)
    diff = pos - neg
    label = (diff > 0) - (diff < 0)
    conf = min(abs(diff) / max(len(tokens), 1), 1.0)
    return SentimentScore(label, conf)


# A hand-built lexicon is not checked the way a loaded one is: only values
# equal to +1 or -1 may count.
ODD_LEXICON = {"good": 1, "bad": -1, "great": 2, "awful": -2, "meh": 0,
               "fine": 1.0, "poor": -1.0, "half": 0.5, "yes": True, "none": None}


@settings(max_examples=200)
@given(st.lists(st.sampled_from([*ODD_LEXICON, "other", "x"]), max_size=12),
       st.sampled_from([" ", "  ", "\t", "\xa0"]))
def test_lexicon_score_matches_two_pass_count(words, sep):
    text = sep.join(words)
    assert LexiconProvider(ODD_LEXICON).score(text) == reference_lexicon_score(ODD_LEXICON, text)


class TestReplayProvider:
    def test_lookup(self):
        table = {"a": SentimentScore(-1, 0.9)}
        assert ReplayProvider(table).score("", post_id="a") == SentimentScore(-1, 0.9)

    def test_unknown_id(self):
        with pytest.raises(StockcastError, match="^no replay score for post id 'missing'$"):
            ReplayProvider({}).score("", post_id="missing")

    def test_jsonl_fixture_table(self, tmp_path):
        records = [
            {"id": "a", "label": 1, "confidence": 0.7},
            {"id": "b", "label": 0, "confidence": 0.5},
            {"id": "c", "label": -1, "confidence": 0.95},
        ]
        path = tmp_path / "scores.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        table = load_replay_scores(path)
        assert len(table) == 3
        assert table["c"] == SentimentScore(-1, 0.95)
        provider = ReplayProvider(table)
        assert provider.score("ignored text", post_id="b") == SentimentScore(0, 0.5)
        with pytest.raises(StockcastError, match="^no replay score for post id 'zzz'$"):
            provider.score("x", post_id="zzz")

    def test_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a", "label": 1, "confidence": 0.7}\n{"id": "b"}\n')
        with pytest.raises(StockcastError) as exc:
            load_replay_scores(path)
        assert str(exc.value).startswith(f"{path}:2: unparsable line 2: ")

    def test_deeply_nested_line_names_file_and_line(self, tmp_path):
        # json.loads gives up on deep nesting with a RecursionError
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a", "label": 1, "confidence": 0.7}\n' + "[" * 200_000 + "\n")
        with pytest.raises(StockcastError) as exc:
            load_replay_scores(path)
        assert str(exc.value).startswith(f"{path}:2: unparsable line 2: ")

    @pytest.mark.parametrize("field, value, reason", [
        ("id", None, "field 'id' must be a string or an integer, got null"),
        ("id", True, "field 'id' must be a string or an integer, got true"),
        ("id", 1.5, "field 'id' must be a string or an integer, got 1.5"),
        ("label", True, "field 'label' must be an integer, got true"),
        ("label", "1", 'field \'label\' must be an integer, got "1"'),
        ("label", 1.0, "field 'label' must be an integer, got 1.0"),
        ("label", 2, "label must be -1, 0 or 1, got 2"),
        ("confidence", "0.7", 'field \'confidence\' must be a number, got "0.7"'),
        ("confidence", True, "field 'confidence' must be a number, got true"),
        ("confidence", None, "field 'confidence' must be a number, got null"),
        ("confidence", 1.5, "confidence must be in [0, 1], got 1.5"),
        ("confidence", float("nan"), "confidence must be in [0, 1], got nan"),
        ("confidence", 10**400, "int too large to convert to float"),
    ], ids=["id-null", "id-bool", "id-float", "label-bool", "label-string", "label-float",
            "label-range", "confidence-string", "confidence-bool", "confidence-null",
            "confidence-range", "confidence-nan", "confidence-past-float"])
    def test_mistyped_field_names_file_and_line(self, tmp_path, field, value, reason):
        path = tmp_path / "scores.jsonl"
        good = {"id": "a", "label": 1, "confidence": 0.7}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(StockcastError) as exc:
            load_replay_scores(path)
        assert str(exc.value) == f"{path}:2: unparsable line 2: {reason}"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        # 7 and "7" are one id: keeping either copy silently would pick a score
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": 7, "label": 1, "confidence": 0.7}\n'
                        '{"id": "8", "label": 0, "confidence": 0.1}\n'
                        '{"id": "7", "label": -1, "confidence": 0.2}\n')
        with pytest.raises(StockcastError) as exc:
            load_replay_scores(path)
        assert str(exc.value) == (
            f"{path}:3: unparsable line 3: duplicate id '7', first on line 1")

    def test_integer_id_and_confidence_accepted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": 17, "label": -1, "confidence": 1}\n')
        assert load_replay_scores(path) == {"17": SentimentScore(-1, 1.0)}


class TestAggregateDaily:
    D = [date(2023, 1, d) for d in (3, 4, 5)]

    def scored(self, day, label, conf, **counts):
        """One post's (label, confidence, weighted), as score_post gives it."""
        post = make_post(f"p{label}{conf}", day, **counts)
        return score_post(post, SentimentScore(label, conf), W)

    @staticmethod
    def sums(scored):
        """Per-post triples as the running sums aggregate_daily takes per day,
        added as ingest adds them: scoring._gather over one range that
        holds the posts, all on day 0, in order."""
        labels, confidences, weighted = zip(*scored)
        n = len(scored)
        result = ([b"%d" % i for i in range(n)], bytes([1]) * n, array("i", [0]) * n,
                  array("b", labels), array("d", confidences), array("d", weighted), {})
        kept, sums, unscored = scoring._gather([result])
        assert (kept, list(sums), unscored) == (n, [0], None)
        return sums[0]

    def test_means_over_one_day(self):
        cal = TradingCalendar(self.D[:1])
        posts = [
            self.scored(self.D[0], 1, 0.9),
            self.scored(self.D[0], 0, 0.5),
            self.scored(self.D[0], -1, 0.7),
        ]
        (row,) = aggregate_daily({self.D[0]: self.sums(posts)}, cal)
        assert row.count == 3
        assert row.mean_label == pytest.approx(0.0)
        assert row.mean_conf == pytest.approx(0.7)

    def test_empty_day_forward_fills(self):
        cal = TradingCalendar(self.D[:2])
        posts = [self.scored(self.D[0], 1, 0.5), self.scored(self.D[0], 0, 0.5)]
        rows = aggregate_daily({self.D[0]: self.sums(posts)}, cal)
        assert rows[1].count == 0
        assert rows[1].mean_label == rows[0].mean_label == 0.5

    def test_leading_empty_day_defaults_to_zero(self):
        cal = TradingCalendar(self.D[:2])
        rows = aggregate_daily({self.D[1]: self.sums([self.scored(self.D[1], 1, 0.9)])}, cal)
        assert rows[0] == DailySentiment(self.D[0], 0.0, 0.0, 0.0, 0)

    def test_singleton_day(self):
        cal = TradingCalendar(self.D[:1])
        (row,) = aggregate_daily(
            {self.D[0]: self.sums([self.scored(self.D[0], -1, 0.8)])}, cal)
        assert (row.mean_label, row.mean_conf, row.count) == (-1.0, 0.8, 1)

    def test_order_invariance(self):
        cal = TradingCalendar(self.D[:1])
        posts = [
            self.scored(self.D[0], 1, 0.9, retweets=5, likes=10, followers=100),
            self.scored(self.D[0], -1, 0.4, retweets=1, likes=3, followers=50),
            self.scored(self.D[0], 0, 0.2),
        ]
        forward = aggregate_daily({self.D[0]: self.sums(posts)}, cal)
        backward = aggregate_daily({self.D[0]: self.sums(posts[::-1])}, cal)
        assert forward[0].mean_label == pytest.approx(backward[0].mean_label)
        assert forward[0].mean_ws == pytest.approx(backward[0].mean_ws)
        assert forward[0].count == backward[0].count

    def test_means_are_sum_over_count_bit_for_bit(self):
        """The daily means equal sum(column) / n, the expression the running
        sums replace, bit for bit (float.hex), forward-fill included: over
        random days of -1/0/1 labels and of values of either sign from 1e-300
        to 1e300, zeros of both signs, days with only -0.0 (whose sum from 0
        is 0.0) and empty days. Python 3.11's sum() adds left to right from 0."""
        rng = random.Random(25)

        def value():
            if rng.random() < 0.1:
                return rng.choice((0.0, -0.0))
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)

        for _ in range(20):
            days = [date(2023, 1, 2) + timedelta(days=i) for i in range(30)]
            by_day = {d: [(rng.choice((-1, 0, 1)), value(), value())
                          for _ in range(rng.randint(1, 6))]
                      for d in days if rng.random() < 0.7}
            by_day[days[3]] = [(0, -0.0, -0.0)]
            by_day[days[4]] = [(0, -0.0, -0.0)] * 3
            rows = aggregate_daily({d: self.sums(scored) for d, scored in by_day.items()},
                                   TradingCalendar(days))
            expected, means = [], (0.0, 0.0, 0.0)
            for d in days:
                scored = by_day.get(d, [])
                if scored:
                    means = tuple(sum(column) / len(scored) for column in zip(*scored))
                expected.append((d, *(m.hex() for m in means), len(scored)))
            assert [(row.date, row.mean_label.hex(), row.mean_conf.hex(), row.mean_ws.hex(),
                     row.count) for row in rows] == expected
