"""Exception types shared across the pipeline.

Every error raised on bad input or a broken contract is a subclass of
StockcastError, so callers (and the CLI) can distinguish validation
failures from genuine bugs.
"""

import copyreg


class StockcastError(Exception):
    """Base class for all pipeline errors.

    Errors cross process boundaries (a training worker raises, the CLI
    reports), so they pickle as message plus attributes: unpickling must
    not call a subclass ``__init__`` again, whose parameters are not the
    formatted message held in ``args``.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- ingest ---------------------------------------------------------------

def _located(path, line, message):
    """Prefix ``<path>:<line>: `` when the error came from a known file."""
    return message if path is None else f"{path}:{line}: {message}"


class MissingColumn(StockcastError):
    def __init__(self, column, path=None):
        self.column = column
        self.path = path
        super().__init__(f"missing required column {column!r}"
                         + (f" in {path}" if path else ""))


class UnparsableRow(StockcastError):
    def __init__(self, line, reason="", path=None):
        self.line = line
        self.path = path
        super().__init__(_located(path, line, f"unparsable row at line {line}: {reason}"))


class DuplicateDate(StockcastError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"duplicate date {date}")


class NonMonotonicDate(StockcastError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"dates not strictly increasing at {date}")


class UnparsableLine(StockcastError):
    def __init__(self, line, reason="", path=None):
        self.line = line
        self.path = path
        super().__init__(_located(path, line, f"unparsable line {line}: {reason}"))


class MissingField(StockcastError):
    def __init__(self, name, line, path=None):
        self.name = name
        self.line = line
        self.path = path
        super().__init__(_located(path, line, f"missing field {name!r} at line {line}"))


# --- sentiment ------------------------------------------------------------

class UnknownPostId(StockcastError):
    def __init__(self, post_id):
        self.post_id = post_id
        super().__init__(f"no replay score for post id {post_id!r}")


# --- features -------------------------------------------------------------

class SeriesTooShort(StockcastError):
    pass


class EmptyColumn(StockcastError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"cannot fit normalization on empty column {column!r}")


class MisalignedInputs(StockcastError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"inputs not aligned to the trading calendar at {date}")


class InsufficientHistory(StockcastError):
    pass


# --- forecaster -----------------------------------------------------------

class NonFiniteActivation(StockcastError):
    pass


class LengthMismatch(StockcastError):
    pass


class TrainingDiverged(StockcastError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}")


# --- evaluation -----------------------------------------------------------

class ConstantTarget(StockcastError):
    pass


class MixedFeatureSets(StockcastError):
    pass


# --- market_sim -----------------------------------------------------------

class NonPositiveOpen(StockcastError):
    pass


class MisalignedSeries(StockcastError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"prediction and bar series misaligned at {date}")


# --- cli ------------------------------------------------------------------

class ConfigError(StockcastError):
    pass
