"""Engagement-weighted sentiment: worked examples, providers, properties."""

import json
import random
from array import array
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from stockcast import scoring
from stockcast.config import ExperimentConfig
from stockcast.errors import StockcastError
from stockcast.sentiment import (
    LexiconProvider,
    ReplayProvider,
    SentimentScore,
    aggregate_daily,
    load_lexicon,
    load_replay_scores,
    score_post,
    signed_sentiment,
    weighted_sentiment,
    weighted_value,
)

from conftest import make_post

W = ExperimentConfig()


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
    """weighted_value's terms one at a time: with influence 1 and signed 1 the
    value is interaction / total, and with alpha = beta = gamma = 1 the
    interaction equals the total."""

    def test_interaction_worked_example(self):
        # interaction 0.3 * (100 + 200 + 50) = 105, influence 0.1 * 10 = 1, total 350
        assert weighted_value(100, 200, 50, 10, 1.0, W) == 105.0 / 350.0

    def test_interaction_zero(self):
        no_interaction = ExperimentConfig(alpha=0.0, beta=0.0, gamma=0.0, delta=0.1)
        assert weighted_value(100, 200, 50, 1000, 1.0, no_interaction) == 0.0

    def test_default_weights(self):
        assert (W.alpha, W.beta, W.gamma, W.delta) == (0.3, 0.3, 0.3, 0.1)

    def test_influence(self):
        unit = ExperimentConfig(alpha=1.0, beta=1.0, gamma=1.0, delta=0.1)
        assert weighted_value(100, 200, 50, 1000, 1.0, unit) == 100.0
        assert weighted_value(100, 200, 50, 0, 1.0, unit) == 0.0

    def test_signed(self):
        assert signed_sentiment(SentimentScore(1, 0.8)) == 0.8
        assert signed_sentiment(SentimentScore(0, 0.99)) == 0.0
        assert signed_sentiment(SentimentScore(-1, 0.9)) == -0.9

    def test_total_interaction(self):
        # interaction = retweets
        retweets_only = ExperimentConfig(alpha=1.0, beta=0.0, gamma=0.0, delta=0.1)
        assert weighted_value(100, 200, 50, 3500, 1.0, retweets_only) == 100.0  # 100*350/350
        assert weighted_value(0, 0, 0, 3500, 1.0, retweets_only) == 0.0
        assert weighted_value(1, 0, 0, 10, 1.0, retweets_only) == 1.0

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
    w = ExperimentConfig(alpha=a, beta=b, gamma=g, delta=d)
    got = weighted_sentiment(post, score, w)
    want = reference_weighted(post, score, w)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300)
@given(counts, counts, counts, counts, labels, confs, weights_pos, weights_pos)
def test_equal_weight_closed_form(tr, tl, tc, fc, label, conf, a, d):
    post = make_post(retweets=tr, likes=tl, comments=tc, followers=fc)
    score = SentimentScore(label, conf)
    w = ExperimentConfig(alpha=a, beta=a, gamma=a, delta=d)
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
    w = ExperimentConfig(alpha=a, beta=a, gamma=a, delta=d)
    score = SentimentScore(1, conf)
    low = weighted_sentiment(make_post(retweets=tr, likes=tl, comments=tc, followers=100), score, w)
    high = weighted_sentiment(make_post(retweets=tr, likes=tl, comments=tc, followers=200), score, w)
    assert high > low


@settings(max_examples=200)
@given(counts, counts, counts, counts, labels, confs, weights_pos, st.floats(0.1, 5.0))
def test_interaction_weights_scale_linearly(tr, tl, tc, fc, label, conf, a, k):
    post = make_post(retweets=tr, likes=tl, comments=tc, followers=fc)
    score = SentimentScore(label, conf)
    base = weighted_sentiment(post, score, ExperimentConfig(alpha=a, beta=a, gamma=a, delta=0.1))
    scaled = weighted_sentiment(
        post, score, ExperimentConfig(alpha=k * a, beta=k * a, gamma=k * a, delta=0.1))
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

    def test_line_separator_stays_in_its_comment(self, tmp_path):
        # str.splitlines would end the comment at U+2028 and read "x" as an entry
        path = tmp_path / "lexicon.tsv"
        path.write_text("# a comment\u2028x\ngood\t+1\n", encoding="utf-8")
        assert load_lexicon(path) == {"good": 1}

    @pytest.mark.parametrize("second", ["good\t-1", "good\t+1", " Good \t-1"])
    def test_word_given_twice_names_both_lines(self, tmp_path, second):
        # keeping either polarity would be a silent pick, as with a replay id given twice
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"good\t+1\n# comment\nbad\t-1\n{second}\n", encoding="utf-8")
        with pytest.raises(StockcastError) as exc:
            load_lexicon(path)
        assert str(exc.value) == (
            f"{path}:4: unparsable line 4: duplicate word 'good', first on line 1")


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

    # The post loader's messages: no Python wording from a KeyError or TypeError
    @pytest.mark.parametrize("line, reason", [
        ('{"id": "b"}', "missing field 'label' at line 2"),
        ("[1]", "unparsable line 2: expected a JSON object"),
        ('"x"', "unparsable line 2: expected a JSON object"),
        ("5", "unparsable line 2: expected a JSON object"),
        ("null", "unparsable line 2: expected a JSON object"),
    ], ids=["missing-label", "list", "string", "number", "null"])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a", "label": 1, "confidence": 0.7}\n' + line + "\n")
        with pytest.raises(StockcastError) as exc:
            load_replay_scores(path)
        assert str(exc.value) == f"{path}:2: {reason}"

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
        posts = [
            self.scored(self.D[0], 1, 0.9),
            self.scored(self.D[0], 0, 0.5),
            self.scored(self.D[0], -1, 0.7),
        ]
        (label,), (conf,), _, (count,) = aggregate_daily({0: self.sums(posts)}, 1)
        assert count == 3
        assert label == pytest.approx(0.0)
        assert conf == pytest.approx(0.7)

    def test_empty_day_forward_fills(self):
        posts = [self.scored(self.D[0], 1, 0.5), self.scored(self.D[0], 0, 0.5)]
        labels, _, _, counts = aggregate_daily({0: self.sums(posts)}, 2)
        assert counts[1] == 0
        assert labels[1] == labels[0] == 0.5

    def test_leading_empty_day_defaults_to_zero(self):
        columns = aggregate_daily({1: self.sums([self.scored(self.D[1], 1, 0.9)])}, 2)
        assert [column[0] for column in columns] == [0.0, 0.0, 0.0, 0]

    def test_singleton_day(self):
        (label,), (conf,), _, (count,) = aggregate_daily(
            {0: self.sums([self.scored(self.D[0], -1, 0.8)])}, 1)
        assert (label, conf, count) == (-1.0, 0.8, 1)

    def test_order_invariance(self):
        posts = [
            self.scored(self.D[0], 1, 0.9, retweets=5, likes=10, followers=100),
            self.scored(self.D[0], -1, 0.4, retweets=1, likes=3, followers=50),
            self.scored(self.D[0], 0, 0.2),
        ]
        forward = aggregate_daily({0: self.sums(posts)}, 1)
        backward = aggregate_daily({0: self.sums(posts[::-1])}, 1)
        assert forward[0] == pytest.approx(backward[0])
        assert forward[2] == pytest.approx(backward[2])
        assert forward[3] == backward[3]

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
            days = 30
            by_day = {day: [(rng.choice((-1, 0, 1)), value(), value())
                            for _ in range(rng.randint(1, 6))]
                      for day in range(days) if rng.random() < 0.7}
            by_day[3] = [(0, -0.0, -0.0)]
            by_day[4] = [(0, -0.0, -0.0)] * 3
            columns = aggregate_daily({day: self.sums(scored) for day, scored in by_day.items()},
                                      days)
            expected, means = [], (0.0, 0.0, 0.0)
            for day in range(days):
                scored = by_day.get(day, [])
                if scored:
                    means = tuple(sum(column) / len(scored) for column in zip(*scored))
                expected.append((*(m.hex() for m in means), len(scored)))
            labels, confs, weighted, counts = columns
            assert [(label.hex(), conf.hex(), ws.hex(), count) for label, conf, ws, count
                    in zip(labels, confs, weighted, counts)] == expected
