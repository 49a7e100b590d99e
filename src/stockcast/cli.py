"""Command-line frontend.

Commands: ingest, featurize, train-eval, simulate. Exit codes: 0 ok,
2 input/validation error, 3 runtime/training error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, scoring
from .config import parse_config
from .errors import RunFailed, StockcastError, echo, echo_path
from .outputs import publish
from .pipeline import write_matrix_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3


def _int_flag(text):
    """``int(text)``: argparse would quote a refused value whole, so it is cut by echo."""
    try:
        return int(text)
    except ValueError:  # not an integer, or more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(repr(text))}") from None


def _add_common(parser, with_run_flags=True):
    """The flags every command takes; each but --config stores its config key's value."""
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--feature-set", dest="feature_sets", metavar="FEATURE_SET",
                        type=lambda name: (name,), help="restrict to one feature set")
    parser.add_argument("--out-dir", help="output directory")
    if with_run_flags:
        parser.add_argument("--seed", dest="base_seed", metavar="SEED", type=_int_flag,
                            help="override base seed")
        parser.add_argument("--replicates", type=_int_flag,
                            help="override replicate count")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stockcast",
        description="Deterministic multimodal stock forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("ingest", help="validate and score inputs, save daily sentiment"),
                with_run_flags=False)
    _add_common(sub.add_parser("featurize", help="export feature matrix CSVs"),
                with_run_flags=False)
    _add_common(sub.add_parser("train-eval", help="train replicates, write metrics"))
    _add_common(sub.add_parser("simulate", help="run the trading simulation"))
    return parser


def _load_config(args):
    """The --config file's config, with each flag given in place of its key."""
    keys = ("feature_sets", "out_dir", "base_seed", "replicates")  # the keys flags set
    return replace(parse_config(args.config), **{
        key: getattr(args, key) for key in keys if getattr(args, key, None) is not None})


def cmd_ingest(args):
    """Load, check and score every input; save the daily sentiment for the other commands."""
    config = _load_config(args)
    dataset = pipeline.load_dataset(config)
    with publish(config.out_dir) as stage:
        scoring.write_daily_sentiment(stage(scoring.DAILY_SENTIMENT_FILE), config, dataset)
    bars = dataset.bars
    print(f"stock: {config.stock}")
    print(f"bars: {len(bars)} ({bars[0].date} .. {bars[-1].date})")
    print(f"tweets: {dataset.tweet_count}")
    print(f"news: {dataset.news_count}")
    print(f"provider: {config.provider}")
    print(f"config_hash: {config.config_hash}")
    print(f"wrote {Path(config.out_dir) / scoring.DAILY_SENTIMENT_FILE}")
    return EXIT_OK


def cmd_featurize(args):
    config = _load_config(args)
    dataset = pipeline.load_dataset(config, config.out_dir)
    from .features import format_columns, select  # only here: ingest and simulate skip it

    table = pipeline.build_matrix(config, dataset)
    column_text = format_columns(table)
    wrote = []
    with publish(config.out_dir) as stage:
        for feature_set in config.feature_sets:
            matrix = select(table, feature_set)
            name = f"features_{pipeline.safe_name(feature_set)}.csv"
            write_matrix_csv(stage(name), config, matrix.columns, column_text)
            wrote.append(f"wrote {Path(config.out_dir) / name} "
                         f"({len(matrix.dates)} rows x {len(matrix.columns)} features)")
    print("\n".join(wrote))
    return EXIT_OK


def cmd_train_eval(args):
    config = _load_config(args)
    results = pipeline.run_train_eval(config, config.out_dir)
    for result in results:
        for report in result.reports:
            if report.scale != "normalized":
                continue
            print(f"{result.feature_set}: r2={report.r2_mean:.4f} "
                  f"mae={report.mae_mean:.4f} ({len(report.r2_runs)} replicates)")
    print(f"reports written to {config.out_dir}")
    return EXIT_OK


def cmd_simulate(args):
    config = _load_config(args)
    sim_results = pipeline.run_simulate(config, config.out_dir)
    for feature_set, sim in sim_results:
        print(f"{feature_set}: gain={sim.percent_gain:.4f}%")
    print(f"ledgers written to {config.out_dir}")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "train-eval": cmd_train_eval,
    "simulate": cmd_simulate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's names the allocation; a worker's comes back pickled
        print(f"error: out of memory: {exc or 'no details'}", file=sys.stderr)
        return EXIT_RUNTIME
    except StockcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: missing file: {echo_path(exc.filename or exc)}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {echo_path(exc.filename)}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
