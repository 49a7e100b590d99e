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
cannot flood stderr, and a path through ``echo_path``, which keeps the file
name at its end.
Both classes take only the message, so the default ``Exception`` pickling
carries them out of a training worker process unchanged.
"""

from contextlib import contextmanager
from pathlib import Path


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


def echo_path(path):
    """``path`` as a message shows it: cut to ``...`` plus its last
    ECHO_LIMIT characters when longer, so a deep path still names its file."""
    text = str(path)
    return text if len(text) <= ECHO_LIMIT else "..." + text[-ECHO_LIMIT:]


@contextmanager
def open_text(path, newline=None):
    """``path`` opened for reading as UTF-8 text.

    A byte sequence that is not UTF-8 raises a StockcastError at
    ``<path>:<line>: ``. Text is decoded in chunks, so the line is found by
    decoding the whole file once more, on that error only.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise StockcastError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
            raise
