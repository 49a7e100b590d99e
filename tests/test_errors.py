"""Every pipeline error survives pickling, as it must to leave a worker process."""

import inspect
import pickle

import pytest

from stockcast import errors

#: Constructor arguments for one instance of each error class.
SAMPLES = {
    "StockcastError": ("plain message",),
    "MissingColumn": ("Close", "prices.csv"),
    "UnparsableRow": (7, "could not convert string to float: 'x'", "prices.csv"),
    "DuplicateDate": ("2022-01-03",),
    "NonMonotonicDate": ("2022-01-04",),
    "UnparsableLine": (3, "Expecting value", "tweets.jsonl"),
    "MissingField": ("id", 4, "news.jsonl"),
    "UnknownPostId": ("t99",),
    "SeriesTooShort": ("need 15 closes",),
    "EmptyColumn": ("close",),
    "MisalignedInputs": ("2022-01-05",),
    "InsufficientHistory": ("lookback 30 >= training rows 12",),
    "NonFiniteActivation": ("non-finite prediction",),
    "LengthMismatch": ("predictions (3,) vs targets (4,)",),
    "TrainingDiverged": (3,),
    "ConstantTarget": ("constant target",),
    "MixedFeatureSets": ("Prices vs Prices-News",),
    "NonPositiveOpen": ("open 0.0",),
    "MisalignedSeries": ("2023-01-03",),
    "ConfigError": ("replicates must be >= 1",),
}


def test_samples_cover_every_error_class():
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.StockcastError)}
    assert classes == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_round_trip(name):
    original = getattr(errors, name)(*SAMPLES[name])
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is type(original)
    assert str(copy) == str(original)
    assert vars(copy) == vars(original)
    assert copy.args == original.args
