"""Each kind of error the program raises has its exit code's class and pickles.

``pytest.raises(StockcastError)`` elsewhere also accepts a ``RunFailed``, so
these cases pin the class, which decides between exit 2 and exit 3. A
training worker's error reaches the CLI pickled, so each must also survive
a round trip with its type and message.
"""

import inspect
import pickle
import re
from datetime import date, timedelta

import numpy as np
import pytest

from stockcast import errors
from stockcast.config import parse_config
from stockcast.errors import RunFailed, StockcastError
from stockcast.evaluation import RunMetrics, r_squared, replicate_average
from stockcast.features import (
    FeatureMatrix,
    WindowedDataset,
    assemble,
    make_windows,
    minmax_fit,
    select,
    sma,
)
from stockcast.forecaster import (
    LstmConfig,
    LstmWeights,
    LstmWorkspace,
    forward,
    init_weights,
    train,
)
from stockcast.ingest import TradingCalendar, load_posts_jsonl, load_price_csv
from stockcast.market_sim import return_signal, run_simulation
from stockcast.sentiment import DailySentiment, ReplayProvider

from conftest import make_bar

D = [date(2023, 1, 2) + timedelta(days=i) for i in range(10)]
HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"
ROW = "2023-01-03,100,105,99,104,104,5000\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def misaligned_sentiment(tmp_path):
    bars = [make_bar(d) for d in D[:3]]
    shifted = [DailySentiment(d, 0.0, 0.0, 0.0, 0) for d in D[1:4]]
    aligned = [DailySentiment(d, 0.0, 0.0, 0.0, 0) for d in D[:3]]
    select(assemble(bars, shifted, aligned), "Prices-Tweets")


def diverging_training(tmp_path):
    dataset = WindowedDataset(X=np.full((4, 3, 2), np.nan), y=np.zeros(4), dates=tuple(D[:4]))
    train(dataset, LstmConfig(hidden_units=2, batch_size=4, epochs=1, seed=0))


def mixed_runs(tmp_path):
    replicate_average([RunMetrics("Prices", 0.5, 0.1, "normalized"),
                       RunMetrics("Prices-News", 0.5, 0.1, "normalized")])


#: One raise site per kind of error: the class it must raise, and a call
#: that reaches it. Each kind keeps the name of the class it had when every
#: kind had its own; "StockcastError" stands for the errors that never did,
#: such as a price file with no rows.
SITES = {
    "StockcastError": (StockcastError, lambda p: load_price_csv(write(p, "h.csv", HEADER))),
    "ConfigError": (StockcastError, lambda p: parse_config(
        write(p, "bad.conf", "nonsense = 1\n"))),
    "CapitalOverflow": (RunFailed, lambda p: run_simulation(
        [(D[0], 103.0)], [make_bar(D[0], open_=100, close=104)], 1.79e308, 0.02, 0.02)),
    "ConstantTarget": (StockcastError, lambda p: r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])),
    "DuplicateDate": (StockcastError, lambda p: load_price_csv(
        write(p, "d.csv", HEADER + ROW + ROW))),
    "EmptyColumn": (StockcastError, lambda p: minmax_fit(np.empty((0, 1)), ["x"])),
    "InsufficientHistory": (StockcastError, lambda p: make_windows(
        FeatureMatrix(tuple(D), ("close",), np.arange(10.0).reshape(-1, 1)),
        7, D[6])),
    "LengthMismatch": (StockcastError, lambda p: r_squared([1.0, 2.0], [1.0])),
    "MisalignedInputs": (StockcastError, misaligned_sentiment),
    "MisalignedSeries": (RunFailed, lambda p: run_simulation(
        [(D[1], 100.0)], [make_bar(D[0])], 1_000_000.0, 0.02, 0.02)),
    "MissingColumn": (StockcastError, lambda p: load_price_csv(
        write(p, "c.csv", "Date,Open,High,Low,Close,Volume\n"))),
    "MissingField": (StockcastError, lambda p: load_posts_jsonl(
        write(p, "f.jsonl", '{"id": "a", "text": "x"}\n'), "tweet")),
    "MixedFeatureSets": (StockcastError, mixed_runs),
    "NonFiniteActivation": (RunFailed, lambda p: forward(
        LstmWeights.from_theta(init_weights(LstmConfig(hidden_units=2, seed=0), 2).theta[None],
                               2, 2),
        np.full((1, 1, 3, 2), np.nan), LstmWorkspace(1, 3, 2, 2))),
    "NonMonotonicDate": (StockcastError, lambda p: TradingCalendar([D[1], D[0]])),
    "NonPositiveOpen": (StockcastError, lambda p: return_signal(100.0, 0.0)),
    "SeriesTooShort": (StockcastError, lambda p: sma([1.0, 2.0], 3)),
    "TrainingDiverged": (RunFailed, diverging_training),
    "UnknownPostId": (StockcastError, lambda p: ReplayProvider({}).score("", post_id="x")),
    "UnparsableLine": (StockcastError, lambda p: load_posts_jsonl(
        write(p, "l.jsonl", "not json\n"), "tweet")),
    "UnparsableRow": (StockcastError, lambda p: load_price_csv(
        write(p, "r.csv", HEADER + ROW.replace("100", "x", 1)))),
}


def test_samples_cover_every_error_class():
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.StockcastError)}
    assert classes == {cls.__name__ for cls, _ in SITES.values()} == {"StockcastError",
                                                                       "RunFailed"}


@pytest.mark.parametrize("name", sorted(SITES))
def test_pickle_round_trip(tmp_path, name):
    cls, reach = SITES[name]
    with pytest.raises(StockcastError) as exc:
        reach(tmp_path)
    original = exc.value
    assert type(original) is cls
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert copy.args == original.args


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("newline", [None, ""])
def test_not_utf8_names_the_line_text_mode_reads(tmp_path, end, newline):
    # \xff on the fourth line, with every line end in the file the same
    path = tmp_path / "bad.txt"
    path.write_bytes(end.join(["a", "b", "c", "d\xff"]).encode("latin-1") + end.encode())
    with pytest.raises(StockcastError, match=rf"^{re.escape(str(path))}:4: not UTF-8 text: "):
        with errors.open_text(path, newline=newline) as fh:
            fh.read()
    # text-mode reading of a decodable copy puts the byte on the same line
    with open(path, encoding="latin-1", newline=newline) as fh:
        assert fh.readlines()[3].startswith("d\xff")
