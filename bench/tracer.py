"""Run one stockcast CLI command with a span around each module's public calls.

    python3 bench/tracer.py SPANS_PREFIX RUN_ID -- ingest --config c.conf

The wrappers are installed from outside: each function is replaced under
the name the program looks it up by (``pipeline.load_price_csv``, since
pipeline binds it with ``from .ingest import``; ``forecaster.adam_step``,
looked up as a global inside ``train``; ``LexiconProvider.score``, a
method). No program source is changed. Spans (name, start, end, parent)
stay in memory and are written once, when the command has finished, to
SPANS_PREFIX.bin and SPANS_PREFIX.json; nothing goes into the program's
out_dir. Times are CLOCK_MONOTONIC seconds, the clock the benchmark uses
to time the process from outside.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """Spans in parallel arrays, plus small per-call notes for derived counts."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.notes = {}

    def wrap(self, span_name, fn, note=None):
        name_id = len(self.names)
        self.names.append(span_name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                self.notes.setdefault(span_name, []).append(note(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, span_name, note=None):
        setattr(owner, attr, self.wrap(span_name, getattr(owner, attr), note))

    def write(self, prefix):
        prefix = Path(prefix)
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        prefix.with_suffix(".json").write_text(json.dumps({
            "run_id": self.run_id,
            "count": len(self.name),
            "names": self.names,
            "notes": self.notes,
        }), encoding="utf-8")


def read_spans(prefix):
    """(meta, name, parent, start, end) as written by Recorder.write."""
    prefix = Path(prefix)
    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    raw = prefix.with_suffix(".bin").read_bytes()
    n = meta["count"]
    name = np.frombuffer(raw, dtype=np.intc, count=n)
    parent = np.frombuffer(raw, dtype=np.intc, count=n, offset=4 * n)
    start = np.frombuffer(raw, dtype=np.float64, count=n, offset=8 * n)
    end = np.frombuffer(raw, dtype=np.float64, count=n, offset=16 * n)
    return meta, name, parent, start, end


def _size_note(args, _result):
    return os.path.getsize(args[0])


def _train_note(args, _result):
    dataset, config = args
    n, lookback, n_features = dataset.X.shape
    return [n, lookback, n_features, config.hidden_units, config.epochs, config.batch_size]


def install(rec):
    """Wrap the public calls of every stockcast module; returns cli.main, wrapped."""
    from stockcast import cli, features, forecaster, market_sim, pipeline, sentiment, textprep

    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = rec.wrap(f"cli.{command}", fn)
    rec.patch(cli, "parse_config", "config.parse_config")
    rec.patch(cli, "write_matrix_csv", "features.write_matrix_csv")

    for name in ("load_dataset", "make_provider", "build_matrix", "run_feature_set",
                 "simulate_feature_set", "run_train_eval", "run_simulate"):
        rec.patch(pipeline, name, f"pipeline.{name}")
    for name in ("write_report_json", "write_metrics_csv", "write_predictions_csv",
                 "write_ledger_csv", "write_simulation_json"):
        rec.patch(pipeline, name, f"pipeline.{name}", _size_note)
    rec.patch(pipeline, "load_price_csv", "ingest.load_price_csv")
    rec.patch(pipeline, "load_posts_jsonl", "ingest.load_posts_jsonl",
              lambda args, _result: str(args[0]))
    rec.patch(pipeline, "calendar_from_bars", "ingest.calendar_from_bars")
    rec.patch(pipeline, "assign_posts", "ingest.assign_posts")
    for name in ("r_squared", "mae", "replicate_average"):
        rec.patch(pipeline, name, f"evaluation.{name}")

    rec.patch(textprep, "clean_text", "textprep.clean_text")
    rec.patch(textprep, "load_stopwords", "textprep.load_stopwords")
    for name in ("score_post", "aggregate_daily", "load_lexicon", "load_replay_scores"):
        rec.patch(sentiment, name, f"sentiment.{name}")
    rec.patch(sentiment.LexiconProvider, "score", "sentiment.score")
    rec.patch(sentiment.ReplayProvider, "score", "sentiment.score")

    for name in ("assemble", "rsi", "sma"):
        rec.patch(features, name, f"features.{name}")
    rec.patch(features, "make_windows", "features.make_windows",
              lambda args, split: sum(a.nbytes for d in (split.train, split.test)
                                      for a in (d.X, d.y)))

    rec.patch(forecaster, "train", "forecaster.train", _train_note)
    rec.patch(forecaster, "predict", "forecaster.predict",
              lambda args, pred: bool(np.any(pred != 0)))
    for name in ("init_weights", "clip_gradients", "adam_step"):
        rec.patch(forecaster, name, f"forecaster.{name}")

    rec.patch(market_sim, "run_simulation", "market_sim.run_simulation",
              lambda args, result: len(args[0]))
    return rec.wrap("cli.main", cli.main)


def main(argv):
    prefix, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_PREFIX RUN_ID -- <stockcast args>")
    rec = Recorder(run_id)
    traced_main = install(rec)
    try:
        return traced_main(cli_args)
    finally:
        rec.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
