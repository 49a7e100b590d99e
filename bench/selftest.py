#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 bench/selftest.py

Shows that the checks behind error_rate pass clean outputs and count a
tampered output file and a command that exits non-zero, and that
BENCHMARK.json lists the workloads and metrics the code reports. Writes
only under .bench_work/selftest in the checkout. Exits 0 when every
case holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from datetime import date
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HASH = "0123456789abcdef"
DATES = [date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4), date(2023, 1, 5)]
TRUTH = [0.50, 0.60, 0.55, 0.70]
PRED = [0.52, 0.58, 0.57, 0.66]


def write_outputs(out_dir):
    """A one-set, one-replicate train-eval output plus one feature matrix;
    returns the matching reference values."""
    out_dir.mkdir(parents=True)
    y, p = np.array(TRUTH), np.array(PRED)
    r2, mae = float(check.r_squared(y, p)), float(np.mean(np.abs(y - p)))
    rows = [{"feature_set": "Prices-Tweets", "scale": scale, "replicates": 1,
             "r2_mean": r2, "mae_mean": mae * factor}
            for scale, factor in (("normalized", 1.0), ("denormalized", 10.0))]
    (out_dir / "report.json").write_text(
        json.dumps({"config_hash": HASH, "reports": rows}, indent=1), encoding="utf-8")
    lines = [f"# config_hash={HASH}", "date,close_norm,pred_norm,close,pred"]
    lines += [f"{d.isoformat()},{t!r},{q!r},{t * 10 + 100!r},{q * 10 + 100!r}"
              for d, t, q in zip(DATES, TRUTH, PRED)]
    (out_dir / "predictions_prices_tweets.csv").write_text("\n".join(lines) + "\n",
                                                          encoding="utf-8")
    lines = [f"# config_hash={HASH}", "date,close,tweet_count"]
    lines += [f"{d.isoformat()},{100.0 + i!r},{float(i % 2)!r}" for i, d in enumerate(DATES)]
    (out_dir / "features_prices_tweets.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"reports": {"Prices-Tweets": {
        row["scale"]: {"r2": row["r2_mean"], "mae": row["mae_mean"]} for row in rows}}}


def checks(clean, out_dir, reference):
    tally = check.Tally()
    check.check_config_hash(tally, out_dir, HASH)
    check.check_reference(tally, out_dir, reference)
    check.check_recomputed(tally, out_dir)
    counts = {d: i % 2 for i, d in enumerate(DATES)}
    check.check_daily_counts(tally, out_dir, DATES, {"tweet_count": counts})
    check.check_identical(tally, clean, out_dir)
    return tally


def tamper(path, old, new):
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise SystemExit(f"selftest setup: {old!r} not in {path.name}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def main():
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    clean = work / "clean"
    reference = write_outputs(clean)
    cases = []

    tally = checks(clean, clean, reference)
    cases.append(("clean outputs pass", tally.failed == 0 and tally.attempted > 0, tally))

    shutil.copytree(clean, work / "pred")
    tamper(work / "pred" / "predictions_prices_tweets.csv", "0.58", "0.59")
    tally = checks(clean, work / "pred", reference)
    cases.append(("tampered prediction is counted",
                  any("rerun bytes differ" in f for f in tally.failures)
                  and any("recomputed" in f for f in tally.failures), tally))

    shutil.copytree(clean, work / "hash")
    tamper(work / "hash" / "features_prices_tweets.csv", HASH, "fedcba9876543210")
    tally = checks(clean, work / "hash", reference)
    cases.append(("tampered config_hash is counted",
                  any("config_hash" in f for f in tally.failures), tally))

    shutil.copytree(clean, work / "count")
    tamper(work / "count" / "features_prices_tweets.csv",
           "2023-01-03,101.0,1.0", "2023-01-03,101.0,2.0")
    tally = checks(clean, work / "count", reference)
    cases.append(("tampered tweet_count is counted",
                  any("tweet_count differs" in f for f in tally.failures), tally))

    shutil.copytree(clean, work / "report")
    tamper(work / "report" / "report.json", '"r2_mean": 0.', '"r2_mean": -0.')
    tally = checks(clean, work / "report", reference)
    cases.append(("tampered R2 in report.json is counted",
                  any("reference" in f for f in tally.failures), tally))

    tally = check.Tally()
    (work / "logs").mkdir()
    with run.Spawner() as spawner:
        result = spawner.launch([sys.executable, "-m", "stockcast.cli", "ingest", "--config",
                                 work / "missing.conf"], work, work / "logs" / "bad",
                                run.child_env(), run.now() + 60)
    check.check_exit(tally, "ingest with a missing config", result.returncode)
    cases.append(("non-zero exit is counted",
                  result.returncode == 2 and tally.failed == 1 and tally.attempted == 1, tally))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tally = check.Tally()
    tally.check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
                "end_to_end differs from run.END_TO_END")
    tally.check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
                == [row[:3] for row in layers.PER_LAYER], "per_layer differs from layers.PER_LAYER")
    tally.check([(w["name"], w["why"]) for w in spec["workloads"]]
                == [(w.name, w.why) for w in WORKLOADS.values()], "workloads differ")
    cases.append(("BENCHMARK.json matches the code", tally.failed == 0, tally))

    ok = True
    for label, passed, tally in cases:
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {tally.failed} of {tally.attempted} "
              f"checks failed")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
