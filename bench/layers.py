"""Per-module metrics from the spans that bench/tracer.py records.

A span's busy time is its duration; its self time is the duration minus
the time covered by its direct child spans. Counts are per traced pass
of a workload's command sequence. FLOP and byte figures marked
``.computed`` are derived from array shapes, not measured.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import median

import numpy as np

from tracer import read_spans

#: (metric, unit, better, the end-to-end figure it should move). Every
#: traced run reports all of them; a module a workload does not reach
#: reports 0. Times are wall seconds inside the wrapped calls.
PER_LAYER = [
    ("cli.startup_s", "s", "lower", "setup_s, wall_s"),
    ("cli.commands", "count", "lower", "wall_s"),
    ("cli.ingest_s", "s", "lower", "ingest_s"),
    ("cli.featurize_s", "s", "lower", "featurize_s"),
    ("cli.train_eval_s", "s", "lower", "train_eval_s"),
    ("cli.simulate_s", "s", "lower", "simulate_s"),
    ("cli.train_sample_epochs_per_s", "1/s", "higher", "train_sample_epochs_per_s"),
    ("cli.posts_per_s", "1/s", "higher", "posts_per_s"),
    ("bench.trace_overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
    ("pipeline.load_dataset.calls", "count", "lower", "simulate_s, featurize_s, wall_s"),
    ("pipeline.load_dataset.busy_s", "s", "lower", "ingest_s, featurize_s, wall_s"),
    ("pipeline.run_feature_set.calls", "count", "lower", "simulate_s, wall_s"),
    ("pipeline.write.busy_s", "s", "lower", "train_eval_s, simulate_s"),
    ("pipeline.write.bytes", "B", "lower", "train_eval_s, simulate_s"),
    ("pipeline.self_s", "s", "lower", "wall_s"),
    ("ingest.load_posts_jsonl.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("ingest.load_price_csv.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("ingest.posts_read", "count", "higher", "posts_per_s"),
    ("textprep.clean_text.calls", "count", "lower", "ingest_s, posts_per_s"),
    ("textprep.clean_text.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("textprep.clean_text.us_p50", "us", "lower", "ingest_s, posts_per_s"),
    ("textprep.clean_text.us_p99", "us", "lower", "ingest_s, posts_per_s"),
    ("sentiment.score.calls", "count", "lower", "ingest_s, posts_per_s"),
    ("sentiment.score.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("sentiment.score_post.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("sentiment.aggregate_daily.busy_s", "s", "lower", "ingest_s, posts_per_s"),
    ("features.build_matrix.busy_s", "s", "lower", "featurize_s"),
    ("features.make_windows.busy_s", "s", "lower", "featurize_s, train_eval_s"),
    ("features.write_matrix_csv.busy_s", "s", "lower", "featurize_s"),
    ("features.window_bytes", "B.computed", "lower", "train_eval_s, peak_rss_mb"),
    ("forecaster.train.calls", "count", "lower", "train_eval_s, simulate_s"),
    ("forecaster.train.busy_s", "s", "lower",
     "train_eval_s, simulate_s, train_sample_epochs_per_s"),
    ("forecaster.train.self_s", "s", "lower", "train_eval_s, train_sample_epochs_per_s"),
    ("forecaster.steps", "count", "lower", "train_eval_s"),
    ("forecaster.step_ms.p50", "ms", "lower", "train_eval_s, train_sample_epochs_per_s"),
    ("forecaster.step_ms.p99", "ms", "lower", "train_eval_s"),
    ("forecaster.adam_step.busy_s", "s", "lower", "train_eval_s, simulate_s"),
    ("forecaster.clip_gradients.busy_s", "s", "lower", "train_eval_s, simulate_s"),
    ("forecaster.predict.busy_s", "s", "lower", "train_eval_s, simulate_s"),
    ("forecaster.train.gflop", "GFLOP.computed", "lower", "train_eval_s"),
    ("forecaster.cache_bytes", "B.computed", "lower", "peak_rss_mb"),
    ("forecaster.train.gflops_per_s", "GFLOP/s.computed", "higher", "train_sample_epochs_per_s"),
    ("forecaster.gemm_peak_gflops", "GFLOP/s", "higher",
     "none: the BLAS ceiling at the recurrent shape"),
    ("forecaster.live_ratio", "ratio", "higher", "none: replicates that learned"),
    ("evaluation.calls", "count", "lower", "train_eval_s"),
    ("evaluation.busy_s", "s", "lower", "train_eval_s"),
    ("market_sim.run_simulation.calls", "count", "lower", "simulate_s"),
    ("market_sim.run_simulation.busy_s", "s", "lower", "simulate_s"),
    ("market_sim.days", "count", "higher", "simulate_s"),
]


def train_gflop(n, lookback, n_features, hidden, epochs):
    """Matmul FLOPs of one train call: per sample and step, four gates do
    2H(F+H) forward and 2H(F+2H) backward multiply-adds' worth each."""
    return n * epochs * lookback * 8 * hidden * (2 * n_features + 3 * hidden) / 1e9


def cache_bytes(n, lookback, n_features, hidden, batch):
    """float64 activation cache of one full batch: per step x plus seven (B, H)
    arrays (h_prev, c_prev, four gates, tanh_c)."""
    return lookback * min(batch, n) * (n_features + 7 * hidden) * 8


def gemm_peak_gflops(rows, hidden, seconds=0.3):
    """Best dgemm rate for (rows, H) @ (H, H), the recurrent product."""
    rng = np.random.default_rng(0)
    a = rng.random((rows, hidden))
    b = rng.random((hidden, hidden))
    flop = 2.0 * rows * hidden * hidden
    reps = max(1, int(2e7 // flop))
    best = 0.0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        t0 = time.monotonic()
        for _ in range(reps):
            a @ b
        best = max(best, reps * flop / (time.monotonic() - t0))
    return best / 1e9


@functools.lru_cache(maxsize=None)
def _line_count(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def analyse(commands):
    """Per-module metrics of one traced pass.

    commands: (spawn_time, spans_prefix) per CLI process, in run order.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    notes = defaultdict(list)
    clean_us = []
    step_gaps = []
    startups = []
    for spawn, prefix in commands:
        meta, name, parent, start, end = read_spans(prefix)
        dur = end - start
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        for i, span_name in enumerate(meta["names"]):
            sel = name == i
            calls[span_name] += int(sel.sum())
            busy[span_name] += float(dur[sel].sum())
            self_time[span_name] += float(own[sel].sum())
            if span_name == "cli.main" and sel.any():
                startups.append(float(start[sel][0]) - spawn)
            elif span_name == "textprep.clean_text":
                clean_us.append(dur[sel] * 1e6)
            elif span_name == "forecaster.adam_step":
                ends, owners = end[sel], parent[sel]
                for owner in np.unique(owners):
                    step_gaps.append(np.diff(np.sort(ends[owners == owner])) * 1e3)
        for key, values in meta["notes"].items():
            notes[key].extend(values)

    def prefixed(stem, table):
        return sum(v for k, v in table.items() if k.startswith(stem))

    def pct(chunks, q):
        values = np.concatenate(chunks) if chunks else np.empty(0)
        return float(np.percentile(values, q)) if values.size else 0.0

    trains = notes["forecaster.train"]
    gflop = sum(train_gflop(n, t, f, h, e) for n, t, f, h, e, _ in trains)
    predicts = notes["forecaster.predict"]
    m = {
        "cli.startup_s": median(startups) if startups else 0.0,
        "cli.commands": len(commands),
        "pipeline.load_dataset.calls": calls["pipeline.load_dataset"],
        "pipeline.load_dataset.busy_s": busy["pipeline.load_dataset"],
        "pipeline.run_feature_set.calls": calls["pipeline.run_feature_set"],
        "pipeline.write.busy_s": prefixed("pipeline.write_", busy),
        "pipeline.write.bytes": sum(sum(v) for k, v in notes.items()
                                    if k.startswith("pipeline.write_")),
        "pipeline.self_s": prefixed("pipeline.", self_time),
        "ingest.load_posts_jsonl.busy_s": busy["ingest.load_posts_jsonl"],
        "ingest.load_price_csv.busy_s": busy["ingest.load_price_csv"],
        "ingest.posts_read": sum(_line_count(path) for path in notes["ingest.load_posts_jsonl"]),
        "textprep.clean_text.calls": calls["textprep.clean_text"],
        "textprep.clean_text.busy_s": busy["textprep.clean_text"],
        "textprep.clean_text.us_p50": pct(clean_us, 50),
        "textprep.clean_text.us_p99": pct(clean_us, 99),
        "sentiment.score.calls": calls["sentiment.score"],
        "sentiment.score.busy_s": busy["sentiment.score"],
        "sentiment.score_post.busy_s": busy["sentiment.score_post"],
        "sentiment.aggregate_daily.busy_s": busy["sentiment.aggregate_daily"],
        "features.build_matrix.busy_s": busy["features.assemble"] + busy["features.rsi"]
        + busy["features.sma"],
        "features.make_windows.busy_s": busy["features.make_windows"],
        "features.write_matrix_csv.busy_s": busy["features.write_matrix_csv"],
        "features.window_bytes": max(notes["features.make_windows"], default=0),
        "forecaster.train.calls": calls["forecaster.train"],
        "forecaster.train.busy_s": busy["forecaster.train"],
        "forecaster.train.self_s": self_time["forecaster.train"],
        "forecaster.steps": calls["forecaster.adam_step"],
        "forecaster.step_ms.p50": pct(step_gaps, 50),
        "forecaster.step_ms.p99": pct(step_gaps, 99),
        "forecaster.adam_step.busy_s": busy["forecaster.adam_step"],
        "forecaster.clip_gradients.busy_s": busy["forecaster.clip_gradients"],
        "forecaster.predict.busy_s": busy["forecaster.predict"],
        "forecaster.train.gflop": gflop,
        "forecaster.cache_bytes": max((cache_bytes(n, t, f, h, b) for n, t, f, h, _, b in trains),
                                      default=0),
        "forecaster.train.gflops_per_s": gflop / busy["forecaster.train"] if trains else 0.0,
        "forecaster.live_ratio": sum(predicts) / len(trains) if trains else 0.0,
        "evaluation.calls": prefixed("evaluation.", calls),
        "evaluation.busy_s": prefixed("evaluation.", busy),
        "market_sim.run_simulation.calls": calls["market_sim.run_simulation"],
        "market_sim.run_simulation.busy_s": busy["market_sim.run_simulation"],
        "market_sim.days": sum(notes["market_sim.run_simulation"]),
    }
    # The largest recurrent product trained, for the gemm ceiling.
    shape = max(((min(b, n), h) for n, _, _, h, _, b in trains), default=None,
                key=lambda s: s[0] * s[1] * s[1])
    return m, shape
