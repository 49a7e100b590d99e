"""Output checks for benchmark runs.

Every check is one attempt; a check that fails is one failure with a
reason. The run's error rate is failures over attempts, commands
included. Checks read only the program's output files and the inputs
the benchmark gave it.
"""

from __future__ import annotations

import bisect
import csv
import json
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

#: A value matches its reference when |value - ref| <= ABS_TOL + REL_TOL*|ref|.
#: Byte-identical reruns are checked separately; this tolerance only
#: leaves room for a kernel change that reorders floating-point sums.
REL_TOL = 1e-6
ABS_TOL = 1e-9


class Tally:
    """Attempted checks and the reasons of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def close_enough(value, ref):
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def check_exit(tally, label, returncode):
    tally.check(returncode == 0, f"{label}: exit code {returncode}")


def parse_config_hash(stdout):
    """The `config_hash: ...` line that `stockcast ingest` prints."""
    for line in stdout.splitlines():
        if line.startswith("config_hash:"):
            return line.split(":", 1)[1].strip()
    return None


def _file_hash(path):
    if path.suffix == ".csv":
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
        return first[len("# config_hash="):] if first.startswith("# config_hash=") else None
    if path.suffix == ".json":
        try:
            return json.loads(path.read_text(encoding="utf-8")).get("config_hash")
        except (ValueError, AttributeError):
            return None
    return None


def check_config_hash(tally, out_dir, config_hash):
    """Every output file carries the hash that `ingest` printed."""
    files = sorted(Path(out_dir).iterdir())
    tally.check(bool(files), f"{out_dir}: no output files")
    for path in files:
        found = _file_hash(path)
        tally.check(config_hash is not None and found == config_hash,
                    f"{path.name}: config_hash {found!r}, ingest printed {config_hash!r}")


def check_identical(tally, first_dir, again_dir):
    """A rerun of the same commands reproduces every file byte for byte."""
    first = {p.name: p for p in Path(first_dir).iterdir()}
    again = {p.name: p for p in Path(again_dir).iterdir()}
    tally.check(first.keys() == again.keys(),
                f"rerun wrote {sorted(again.keys() ^ first.keys())} differently")
    for name in sorted(first.keys() & again.keys()):
        tally.check(first[name].read_bytes() == again[name].read_bytes(),
                    f"{name}: rerun bytes differ")


def _report_values(out_dir):
    payload = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    return {(row["feature_set"], row["scale"]): row for row in payload["reports"]}


def check_reference(tally, out_dir, reference):
    """R2, MAE and percent_gain against values stored with the benchmark."""
    out_dir = Path(out_dir)
    rows = _report_values(out_dir)
    for feature_set, scales in sorted(reference["reports"].items()):
        for scale, ref in sorted(scales.items()):
            row = rows.get((feature_set, scale))
            for key in ("r2", "mae"):
                got = None if row is None else row[f"{key}_mean"]
                tally.check(got is not None and close_enough(got, ref[key]),
                            f"{feature_set}/{scale} {key}: {got!r}, reference {ref[key]!r}")
    if "percent_gain" in reference:
        summary = json.loads((out_dir / "simulation_summary.json").read_text(encoding="utf-8"))
        gains = {row["feature_set"]: row["percent_gain"] for row in summary["rows"]}
        for feature_set, ref in sorted(reference["percent_gain"].items()):
            got = gains.get(feature_set)
            tally.check(got is not None and close_enough(got, ref),
                        f"{feature_set} percent_gain: {got!r}, reference {ref!r}")


def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def r_squared(y_true, y_pred):
    return 1.0 - np.sum((y_true - y_pred) ** 2) / np.sum((y_true - y_true.mean()) ** 2)


def check_recomputed(tally, out_dir):
    """For single-replicate runs, R2 and MAE recomputed from predictions_*.csv
    match report.json on both scales."""
    out_dir = Path(out_dir)
    rows = _report_values(out_dir)
    for (feature_set, scale), row in sorted(rows.items()):
        if row["replicates"] != 1:
            continue
        name = feature_set.lower().replace("-", "_")
        header, table = _read_table(out_dir / f"predictions_{name}.csv")
        cols = ("close_norm", "pred_norm") if scale == "normalized" else ("close", "pred")
        y_true, y_pred = (np.array([float(r[header.index(c)]) for r in table]) for c in cols)
        for key, value in (("r2", r_squared(y_true, y_pred)),
                           ("mae", float(np.mean(np.abs(y_true - y_pred))))):
            tally.check(close_enough(row[f"{key}_mean"], value),
                        f"{feature_set}/{scale} {key}: report {row[f'{key}_mean']!r}, "
                        f"recomputed {value!r}")


def _utc_date(raw):
    ts = datetime.fromisoformat(str(raw).replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).date()


def trading_dates(prices_path):
    with open(prices_path, encoding="utf-8") as fh:
        next(fh)
        return [date.fromisoformat(line.split(",", 1)[0]) for line in fh if line.strip()]


def scan_posts(dates, posts_path, min_likes=None):
    """Texts of a posts file, and posts per trading date: first occurrence
    of each id, rolled forward to the next trading date, dropped past the
    last one."""
    texts = []
    counts = dict.fromkeys(dates, 0)
    seen = set()
    with open(posts_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            texts.append(record["text"])
            if record["id"] in seen:
                continue
            seen.add(record["id"])
            if min_likes is not None and int(record.get("likes", 0)) < min_likes:
                continue
            i = bisect.bisect_left(dates, _utc_date(record["ts"]))
            if i < len(dates):
                counts[dates[i]] += 1
    return texts, counts


def check_daily_counts(tally, out_dir, dates, expected):
    """features_*.csv rows cover every trading date, and each count column
    (tweet_count, news_count) matches the benchmark's own count."""
    for path in sorted(Path(out_dir).glob("features_*.csv")):
        header, table = _read_table(path)
        tally.check([r[0] for r in table] == [d.isoformat() for d in dates],
                    f"{path.name}: dates differ from the price calendar")
        for column, counts in expected.items():
            if column not in header:
                continue
            j = header.index(column)
            got = [float(r[j]) for r in table]
            want = [float(counts[d]) for d in dates]
            tally.check(got == want, f"{path.name}: {column} differs from the input posts")
