"""Every config key at the edges of its type: exit 0, 2 or 3, never a traceback.

EDGES holds the edge values of each annotation an ExperimentConfig field
carries, so a key is tried at the edges of the type it is parsed by. Each
(key, value) case writes test_cli's tiny dataset, sets the key in a config
of the smallest model, and runs in process each command that reads the
key. Every command must exit 0, 2 or 3, print at most one ``error:`` line
of under 512 bytes, and raise nothing. An exit 2 must name the key, or the
config line that sets it.
"""

from dataclasses import fields

import pytest

from stockcast import cli
from stockcast.config import _BOUNDS, ExperimentConfig, _parse_value
from stockcast.errors import StockcastError

from test_cli import write_config, write_tiny_dataset

#: The edge values of each annotation, ``| None`` left off. An int value
#: of 4,300 nines is the longest int() parses.
EDGES = {
    "int": ["0", "-1", str(2**63), str(10**400), "9" * 4300, "-" + "9" * 4300, "true"],
    "float": ["-0.0", "1e-320", "1e308", "1e400", "NaN", "Infinity"],
    "date": ["0001-01-01", "9999-12-31", "2023-02-29", "2024-02-29"],
    "bool": ["", "2", "no"],
    "str": ["", "a\0b", "/a\0b"],
    "tuple": ["", "a\0b", "Prices,Prices"],
}

#: The commands that read each key, in the order they run.
READERS = {
    **dict.fromkeys(("stock", "prices", "feature_sets", "out_dir"),
                    ("ingest", "featurize", "train-eval", "simulate")),
    **dict.fromkeys(("tweets", "news", "provider", "lexicon", "replay_scores", "stopwords",
                     "min_likes", "keep_cashtags", "alpha", "beta", "gamma", "delta"),
                    ("ingest",)),
    **dict.fromkeys(("rsi_period", "sma_period"), ("featurize", "train-eval")),
    **dict.fromkeys(("lookback", "hidden_units", "learning_rate", "batch_size", "epochs",
                     "replicates", "base_seed"), ("train-eval",)),
    **dict.fromkeys(("split_date", "initial_capital", "profit_threshold", "dip_threshold"),
                    ("train-eval", "simulate")),
}

#: How a message may name a key other than by its name: scoring names the
#: four engagement weights together.
ALIASES = dict.fromkeys(("alpha", "beta", "gamma", "delta"), "alpha..delta")

#: The smallest model on a set that reads both indicator periods.
SMALLEST = {"lookback": 2, "hidden_units": 1, "batch_size": 64, "epochs": 1,
            "feature_sets": "Prices-RSI-SMA"}


def kind(field):
    """The annotation ``field`` is parsed by, ``| None`` left off."""
    return field.type.removesuffix(" | None")


def label(value):
    """``value`` as a test id shows it: a NUL byte spelled out, a long one cut."""
    text = value.replace("\0", "NUL")
    return text if len(text) <= 24 else f"{text[:4]}...{len(text)}-chars"


def never_ends(key, value):
    """An epoch count of 2**63 and above is a valid request for a run that
    never ends, so it is left out: only the time it takes is wrong."""
    return key == "epochs" and value.isdigit() and int(value) >= 2**63


CASES = [(f.name, value) for f in fields(ExperimentConfig) for value in EDGES[kind(f)]
         if not never_ends(f.name, value)]


@pytest.mark.parametrize("key, value", CASES, ids=[f"{k}={label(v)}" for k, v in CASES])
def test_config_edge_fails_cleanly(tmp_path, capsys, key, value):
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path, **{**SMALLEST, key: value})
    line = next(n for n, text in enumerate(path.read_text().splitlines(), 1)
                if text.startswith(f"{key} = "))
    for command in READERS[key]:
        code = cli.main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (command, code)
        assert err.count("error:") == (code != 0) and err.count("\n") == (code != 0), err
        assert len(err.encode()) < 512, (command, err[:512])
        if code == 2:
            named = (key, ALIASES.get(key, key), f"{path}:{line}:")
            assert any(name in err for name in named), (command, err)
        if code and command == "train-eval":
            break  # simulate reads the predictions train-eval writes


def test_every_field_has_a_parser_and_every_number_a_bound(tmp_path):
    # each default, written as canonical() writes it, parses back to itself
    default = ExperimentConfig()
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    for text in default.canonical().splitlines():
        key, raw = text.split("=", 1)
        assert _parse_value(key, types[key], raw, tmp_path) == getattr(default, key), key
    for f in fields(ExperimentConfig):
        assert kind(f) in EDGES, f.name
        assert (f.name in _BOUNDS) == (kind(f) in ("int", "float")), f.name


@pytest.mark.parametrize("replicates", [str(10**309), "9" * 4300], ids=["1e309", "9x4300"])
def test_replicates_flag_past_float_range_exit_2(tmp_path, capsys, replicates):
    # ceil(n / size) in floats raised OverflowError before the memory bound
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path, **SMALLEST)
    assert cli.main(["train-eval", "--config", str(path), "--replicates", replicates]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: replicates = {replicates[:80]}...: "), err
    assert err.count("\n") == 1 and len(err) < 512
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "featurize", "train-eval"])
def test_nul_in_out_dir_flag_exit_2(tmp_path, capsys, command):
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path, **SMALLEST)
    assert cli.main([command, "--config", str(path), "--out-dir", "a\0b"]) == 2
    assert capsys.readouterr().err == "error: out_dir must not hold a NUL byte\n"


@pytest.mark.parametrize("key", ["prices", "lexicon", "out_dir"])
def test_nul_in_a_path_built_in_code_names_the_key(key):
    with pytest.raises(StockcastError, match=f"^{key} must not hold a NUL byte$"):
        ExperimentConfig(**{key: "/a\0b"})
