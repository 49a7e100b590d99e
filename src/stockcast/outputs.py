"""The one writer and the one checked reader of the files a command outputs.

Every output lands through publish, in the CSV form of _write_csv or the
JSON form of _write_json; the outputs read back (daily_sentiment.csv and
the predictions files) are read through _ReadBack.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from datetime import date
from pathlib import Path

from .errors import StockcastError, echo, echo_path, open_text


@contextmanager
def publish(out_dir, marker=None):
    """Stage a command's output files in ``out_dir``, then land them together.

    Makes out_dir with its parents if missing; one that cannot be made (a
    file of that name exists, a name is too long, ...) is a StockcastError
    naming the out_dir key and the path. Then yields ``stage(name)``, the
    path to write output ``name`` to: ``.<name>.<pid>.tmp`` in out_dir. When
    the block exits cleanly, every staged file is renamed to its name, and
    ``marker`` last, after the old marker is removed: a marker on disk
    means every file beside it came from the run that wrote it. When the
    block raises, nothing is renamed. No temporary file outlives the
    block, and an OSError on one is reported as a StockcastError naming
    the output it stands for.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StockcastError(f"out_dir {echo_path(repr(str(out_dir)))}: {exc.strerror}") from exc
    staged = {}  # temporary path, as a str -> output path

    def stage(name):
        tmp = out_dir / f".{name}.{os.getpid()}.tmp"
        staged[str(tmp)] = out_dir / name
        return tmp

    try:
        yield stage
        if marker is not None:
            (out_dir / marker).unlink(missing_ok=True)
        for tmp, path in sorted(staged.items(), key=lambda item: item[1].name == marker):
            os.replace(tmp, path)
    except OSError as exc:
        path = staged.get(str(exc.filename))
        if path is None:
            raise
        raise StockcastError(f"{echo_path(path)}: {exc.strerror}") from exc
    finally:
        for tmp in staged:
            Path(tmp).unlink(missing_ok=True)


class _ReadBack:
    """An output this program wrote in the CSV form and reads back.

    ``lines`` are the file's lines as text mode reads them: each ends at
    LF, CR LF or a lone CR. Every error is a StockcastError at
    ``<path>:<line>: `` that ends with ``frame``.
    """

    def __init__(self, path, frame="", strict=True):
        """Read ``path``: as UTF-8 (open_text), or, unless ``strict``, with
        each bad byte replaced, so that it fails the line it is on."""
        self.path, self.frame = path, frame
        with (open_text(path) if strict else open(path, encoding="utf-8", errors="replace")) as fh:
            self.lines = [line.rstrip("\n") for line in fh]

    def error(self, index, problem):
        return StockcastError(f"{self.path}:{index + 1}: {problem}{self.frame}")

    def expected(self, index, what):
        """The error for a line ``index`` that is not ``what``; it echoes the line."""
        got = echo(repr(self.lines[index])) if index < len(self.lines) else "end of file"
        return self.error(index, f"expected {what}, got {got}")

    def rows(self, start, columns, dates):
        """Yield (index, date, fields) for each of ``dates``, in order.

        Line ``start`` is the header ``columns``; then comes one row per
        date, which starts with that date and has as many fields as the
        header; then no line at all. The first line out of place raises.
        """
        header = ",".join(columns)
        if self.lines[start:start + 1] != [header]:
            raise self.expected(start, f"the header {header}")
        for index, d in enumerate(dates, start + 1):
            fields = self.lines[index].split(",") if index < len(self.lines) else []
            if len(fields) != len(columns) or fields[0] != d.isoformat():
                raise self.expected(index, f"a row for {d}")
            yield index, d, fields
        end = start + 1 + len(dates)
        if len(self.lines) > end:
            raise self.expected(end, "end of file")

    def finite(self, index, column, text):
        """``text``, field ``column`` of line ``index``, as a finite float."""
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise self.error(index, f"{column} {echo(repr(text))} is not a finite float")
        return value


#: The config keys every JSON output echoes under "protocol".
_PROTOCOL_KEYS = ("hidden_units", "learning_rate", "batch_size", "epochs", "replicates",
                  "split_date", "initial_capital", "profit_threshold", "dip_threshold",
                  "lookback", "base_seed")


def _write_csv(path, config, header, rows, notes=()):
    """The outputs' CSV form: a ``# config_hash=`` line, a ``# <note>`` line
    per note, ``header``, then ``rows``, each row ending in CR LF."""
    with _named(path), open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in [f"config_hash={config.config_hash}", *notes]))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, config, payload):
    """The outputs' JSON form: ``payload`` plus the config_hash and, under
    "protocol", the _PROTOCOL_KEYS; keys sorted, dates in ISO form."""
    stamp = {"config_hash": config.config_hash,
             "protocol": {key: getattr(config, key) for key in _PROTOCOL_KEYS}}
    with _named(path):
        Path(path).write_text(json.dumps({**stamp, **payload}, indent=1, sort_keys=True,
                                         default=date.isoformat) + "\n", encoding="utf-8")


@contextmanager
def _named(path):
    """An OSError raised inside without a filename (a failed write or
    close) gets ``path`` as its filename, so publish names the output."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


__all__ = ["publish"]
