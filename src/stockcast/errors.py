"""The two errors the program raises on purpose, one per non-zero exit code.

- ``StockcastError``: exit 2. An input file, config value or flag is
  invalid, or a caller broke a function's contract.
- ``RunFailed``: exit 3. The inputs were valid but the run could not
  finish: training diverged, predictions and bars fell out of step, or a
  simulated capital left the float range.

The CLI's only decision about an error is which of the two exit codes it
gets, so these are the only classes. What went wrong, and where, is in the
message, written at the raise site; a load error starts ``<path>:<line>: ``.
A message echoes an input value through ``echo``, so one huge line or field
cannot flood stderr, a number through ``echo_number``, which also shows an
int too long for str(), and a path through ``echo_path``, which keeps the
file name at its end. A text input file is read by ``ingest.text_lines``
or one of its ``line_ranges``: one that is not UTF-8 is reported at the
line of its first bad byte, in ``not_utf8``'s words, ahead of a leading
byte order mark.
Both classes take only the message, so the default ``Exception`` pickling
carries them out of a training worker process unchanged.
"""

import sys


class StockcastError(Exception):
    """Invalid input or a broken contract: exit 2."""


class RunFailed(StockcastError):
    """Valid input, but the run could not finish: exit 3."""


#: Characters of an input value an error message shows; longer ones are cut.
ECHO_LIMIT = 80


def echo(text):
    """``text``, an input value as a message shows it (its repr, say), cut
    to its first ECHO_LIMIT characters plus ``...`` when longer."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


def echo_number(value):
    """``value``, a number, as a message shows it: echo of its decimal
    text, or, for an int with more digits than Python converts to text
    (sys.get_int_max_str_digits), a phrase that says so, without the str()
    that would raise."""
    limit = sys.get_int_max_str_digits()
    if type(value) is int and limit and abs(value) >= 10 ** limit:
        return f"{'a negative' if value < 0 else 'an'} integer of over {limit} digits"
    return echo(str(value))


def echo_path(path):
    """``path`` as a message shows it: cut to ``...`` plus its last
    ECHO_LIMIT characters when longer, so a deep path still names its file."""
    text = str(path)
    return text if len(text) <= ECHO_LIMIT else "..." + text[-ECHO_LIMIT:]


def line_ends(data):
    """The number of lines that end in the bytes ``data``, as text-mode
    reading ends them: at an LF, a CR LF or a lone CR. The CR counts are
    skipped when ``data`` holds no CR."""
    ends = data.count(b"\n")
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends


def not_utf8(path, data, exc, first_line):
    """The StockcastError for ``exc``, the UnicodeDecodeError of ``data``,
    the bytes of ``path`` from the start of line ``first_line``:
    ``<path>:<line>: not UTF-8 text: <reason>``, the bad byte's line
    numbered by ``line_ends``."""
    line = first_line + line_ends(data[:exc.start])
    return StockcastError(f"{path}:{line}: not UTF-8 text: {exc.reason}")

