"""Orchestration-level checks on the bundled fixture dataset."""

import pytest

from stockcast.config import apply_overrides, parse_config
from stockcast.pipeline import (
    build_matrix,
    load_dataset,
    load_predictions_csv,
    make_provider,
    run_train_eval,
    safe_name,
    simulate_feature_set,
)


@pytest.fixture(scope="module")
def config(fixture_config_path):
    base = parse_config(fixture_config_path)
    return apply_overrides(base, {"feature_sets": ("Prices-Tweets-News-RSI-SMA",),
                                  "epochs": 4})


@pytest.fixture(scope="module")
def dataset(config):
    return load_dataset(config)


@pytest.fixture(scope="module")
def trained(config, tmp_path_factory):
    """(out_dir, result) of one train-eval run over the config's one set."""
    out_dir = tmp_path_factory.mktemp("train_eval")
    (result,) = run_train_eval(config, out_dir)
    return out_dir, result


def test_matrix_dates_match_calendar(config, dataset):
    matrix = build_matrix(config, dataset, "Prices-Tweets-News-RSI-SMA")
    assert list(matrix.dates) == list(dataset.calendar)
    assert matrix.values.shape == (len(dataset.bars), 14)


def test_daily_sentiment_covers_every_session(config, dataset):
    assert [d.date for d in dataset.tweet_daily] == list(dataset.calendar)
    assert [d.date for d in dataset.news_daily] == list(dataset.calendar)
    assert sum(d.count for d in dataset.tweet_daily) <= len(dataset.tweets)


def test_run_feature_set_shapes(config, dataset, trained):
    _, result = trained
    n_test = len(result.split.test)
    assert result.mean_pred_norm.shape == (n_test,)
    assert result.mean_pred_price.shape == (n_test,)
    assert len(result.loss_histories) == config.replicates
    assert all(len(h) == config.epochs for h in result.loss_histories)
    scales = {report.scale for report in result.reports}
    assert scales == {"normalized", "denormalized"}

    test_dates = result.split.test.dates
    sim = simulate_feature_set(config, dataset.bars[-n_test:],
                               list(zip(test_dates, result.mean_pred_price.tolist())))
    assert sim.ledger[0].date == result.split.test.dates[0]
    assert sim.ledger[-1].date == result.split.test.dates[-1]


def test_replay_provider_covers_fixture_posts(fixture_config_path):
    base = parse_config(fixture_config_path)
    replay_path = str((fixture_config_path.parent / "../fixtures/replay_scores.jsonl").resolve())
    config = apply_overrides(base, {
        "provider": "replay",
        "replay_scores": replay_path,
        "feature_sets": ("Prices-Tweets",),
        "epochs": 2,
    })
    dataset = load_dataset(config)
    assert sum(d.count for d in dataset.tweet_daily) > 0
    provider = make_provider(config)
    assert provider.name == "replay"


def test_r2_on_both_scales_agree(trained):
    # affine rescaling leaves R2 unchanged; MAE scales by the close span
    _, result = trained
    by_scale = {report.scale: report for report in result.reports}
    assert by_scale["normalized"].r2_mean == pytest.approx(
        by_scale["denormalized"].r2_mean, rel=1e-9)
    lo, hi = result.split.norm.column_state("close")
    assert by_scale["denormalized"].mae_mean == pytest.approx(
        by_scale["normalized"].mae_mean * (hi - lo), rel=1e-9)


def test_csv_ledger_equals_in_memory_ledger(config, dataset, trained):
    out_dir, result = trained
    dates = list(result.split.test.dates)
    bars = dataset.bars[-len(dates):]
    from_memory = simulate_feature_set(
        config, bars, list(zip(dates, result.mean_pred_price.tolist())))
    pairs = load_predictions_csv(
        out_dir / f"predictions_{safe_name(result.feature_set)}.csv", config, dates)
    from_csv = simulate_feature_set(config, bars, pairs)
    assert from_csv == from_memory
