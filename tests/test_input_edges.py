"""Every config key and input field at its edges: exit 0, 2 or 3, never a traceback.

EDGES holds the edge values of each annotation an ExperimentConfig key
carries, so a key is tried at the edges of the type it is parsed by. Each
(key, value) case writes test_cli's tiny dataset, sets the key in a config
of the smallest model, and runs in process each command that reads the
key. Every command must exit 0, 2 or 3, print at most one ``error:`` line
of under 512 bytes, and raise nothing. An exit 2 must name the key, or the
config line that sets it.

POST_EDGES and REPLAY_EDGES do the same for the fields and lines of the
post files and the replay table, through ``ingest`` on the tiny dataset,
each within WALL_BOUND_S. An exit 2 must name ``<path>:<line>``, or the
post file and the post id for an error in scoring one post. The post rows
that span ranges run again in a forced pool of 2 workers over tiny ranges.
"""

import json
import math
import time

import pytest

from stockcast import cli
from stockcast.config import _BOUNDS, _KEYS, ExperimentConfig, _parse_value, parse_config
from stockcast.errors import StockcastError

from test_cli import write_config, write_tiny_dataset
from test_pipeline import force_pool

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

#: The smallest model on a set that reads both indicator periods.
SMALLEST = {"lookback": 2, "hidden_units": 1, "batch_size": 64, "epochs": 1,
            "feature_sets": "Prices-RSI-SMA"}


def kind(key):
    """The annotation ``key`` is parsed by, ``| None`` left off."""
    return _KEYS[key].removesuffix(" | None")


def label(value):
    """``value`` as a test id shows it: a NUL byte spelled out, a long one cut."""
    text = value.replace("\0", "NUL")
    return text if len(text) <= 24 else f"{text[:4]}...{len(text)}-chars"


def never_ends(key, value):
    """An epoch count of 2**63 and above is a valid request for a run that
    never ends, so it is left out: only the time it takes is wrong."""
    return key == "epochs" and value.isdigit() and int(value) >= 2**63


CASES = [(key, value) for key in _KEYS for value in EDGES[kind(key)]
         if not never_ends(key, value)]


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
            assert key in err or f"{path}:{line}:" in err, (command, err)
        if code and command == "train-eval":
            break  # simulate reads the predictions train-eval writes


def test_every_field_has_a_parser_and_every_number_a_bound(tmp_path):
    # each default, written as canonical() writes it, parses back to itself
    default = ExperimentConfig()
    for text in default.canonical().splitlines():
        key, raw = text.split("=", 1)
        assert _parse_value(key, _KEYS[key], raw, tmp_path) == getattr(default, key), key
    for key in _KEYS:
        assert kind(key) in EDGES, key
        assert (key in _BOUNDS) == (kind(key) in ("int", "float")), key


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


@pytest.mark.parametrize("flag", ["--seed", "--replicates"])
def test_int_flag_past_the_digit_limit_exit_2(tmp_path, capsys, flag):
    # int() refuses 5,000 digits, and argparse quoted the whole value
    write_tiny_dataset(tmp_path)
    path = write_config(tmp_path, **SMALLEST)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-eval", "--config", str(path), flag, "9" * 5000])
    assert exc.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert f"argument {flag}: invalid int value: '999" in line and len(line.encode()) < 512


def test_config_int_past_the_digit_limit_names_the_key():
    # str() of an int past 4,300 digits raises, so the bound's message cannot show it
    with pytest.raises(StockcastError, match="^hidden_units must be >= 1, got a negative "
                                             "integer of over 4300 digits$"):
        ExperimentConfig(hidden_units=-10**5000)


def past_the_digit_limit(key):
    """The message that refuses 10**5000 for ``key``: canonical() could not write it."""
    return f"^{key} must have at most 4300 digits, got an integer of over 4300 digits$"


@pytest.mark.parametrize("key", ["replicates", "hidden_units"])
def test_size_past_the_digit_limit_in_code_names_the_key(tmp_path, key):
    write_tiny_dataset(tmp_path)
    config = parse_config(write_config(tmp_path, **SMALLEST))
    with pytest.raises(StockcastError, match=past_the_digit_limit(key)):
        config.replace(**{key: 10**5000})


def test_config_hash_never_meets_an_int_past_the_digit_limit():
    # a bound of >= 0 lets 10**5000 through; config_hash would raise a bare ValueError
    with pytest.raises(StockcastError, match=past_the_digit_limit("base_seed")):
        ExperimentConfig(base_seed=10**5000)
    with pytest.raises(StockcastError, match=past_the_digit_limit("base_seed")):
        ExperimentConfig().replace(base_seed=10**5000)


# --- the post files and the replay table -----------------------------------------

#: Seconds one command of the file half may take; each takes well under one.
WALL_BOUND_S = 10

BOM = b"\xef\xbb\xbf"


def post(ensure_ascii=True, **fields):
    """One post line, a kept tweet on a trading day unless ``fields`` say otherwise."""
    record = {"id": "e", "ts": "2022-01-05T12:00:00Z", "text": "profit", "likes": 300,
              **fields}
    return json.dumps(record, ensure_ascii=ensure_ascii).encode() + b"\n"


def raw_post(field, raw):
    """A post line with ``raw``, JSON text written as given, as ``field``'s value."""
    return post(**{field: "RAW"}).replace(b'"RAW"', raw)


def filler(data):
    """``data``, then 200 good post lines: a file of many forced-pool ranges."""
    return data + b"".join(post(id=f"f{i}") for i in range(200))


#: {row: (post file bytes from the tiny dataset's, outcome for tweets, outcome
#: for news, spans forced-pool ranges)}. An outcome is 0 (exit 0), "first"
#: or "last" (exit 2 at the file's first or last line) or "post" (exit 2
#: naming the file and the post id 'e').
POST_EDGES = {
    "bom-at-start": (lambda data: BOM + data, "first", "first", False),
    "bom-at-start-and-bad-byte": (lambda data: BOM + data + b"\xff\n", "last", "last", False),
    "bom-in-text": (lambda data: data + post(ensure_ascii=False, text="a\ufeffb"), 0, 0, False),
    "bad-byte-first-line": (lambda data: b"\xff" + data, "first", "first", False),
    "bad-byte-unterminated-last-line": (lambda data: data + b'{"id": "\xff"}', "last", "last",
                                        False),
    # a bad line first: the file is not UTF-8, so its first bad byte is reported
    "bad-byte-many-ranges-in": (lambda data: b"not json\n" + filler(data) + b"\xff\n",
                                "last", "last", True),
    "cr-line-ends": (lambda data: filler(data).replace(b"\n", b"\r"), 0, 0, True),
    "crlf-line-ends": (lambda data: filler(data).replace(b"\n", b"\r\n"), 0, 0, True),
    "truncated-last-line": (lambda data: data + post()[:25], "last", "last", False),
    "empty": (lambda data: b"", 0, 0, False),
    "blank-lines-only": (lambda data: b"\n \r\n\t\n\r", 0, 0, False),
    "line-longer-than-a-range": (lambda data: filler(data) + post(text="profit " * 200), 0, 0,
                                 True),
    "duplicated-lines": (lambda data: filler(data) * 2, 0, 0, True),
    "lone-surrogate-in-id": (lambda data: data + raw_post("id", b'"\\ud800"'), 0, 0, False),
    "lone-surrogate-in-text": (lambda data: data + raw_post("text", b'"a\\udc00"'), 0, 0, False),
    "u2028-in-text": (lambda data: data + post(ensure_ascii=False, text="a\u2028b"), 0, 0,
                      False),
    "nul-in-text": (lambda data: data + post(text="a\0b"), 0, 0, False),
    "ts-date-only": (lambda data: data + post(ts="2022-01-05"), 0, 0, False),
    "ts-offset-plus-24h": (lambda data: data + post(ts="2022-01-05T12:00:00+24:00"),
                           "last", "last", False),
    "ts-offset-minus-24h": (lambda data: data + post(ts="2022-01-05T12:00:00-24:00"),
                            "last", "last", False),
    "ts-nul-inside": (lambda data: data + post(ts="2022-01-05\0T12:00:00"), "last", "last",
                      False),
    # datetime.fromisoformat reads a trailing NUL as the string's end
    "ts-nul-at-end": (lambda data: data + post(ts="2022-01-05T12:00:00\0"), "last", "last",
                      False),
    "ts-year-0": (lambda data: data + post(ts="0000-01-05T12:00:00Z"), "last", "last", False),
    "ts-full-width-digits": (lambda data: data + post(ts="\uff12\uff10\uff12\uff12-01-05"),
                             "last", "last", False),
    "id-float": (lambda data: data + post(id=1.5), "last", "last", False),
    "id-4300-digits": (lambda data: data + post(id=10**4299), 0, 0, False),
    "id-5000-digits": (lambda data: data + raw_post("id", b"9" * 5000), "last", "last", False),
    # news lines are not checked for counts
    "count-1e400": (lambda data: data + post(retweets=10**400), "post", 0, False),
    "count-true": (lambda data: data + post(likes=True), "last", 0, False),
    "count-minus-1": (lambda data: data + post(comments=-1), "last", 0, False),
    "nesting-past-recursion-limit": (
        lambda data: data + raw_post("text", b"[" * 100_000 + b"]" * 100_000), "last", "last",
        False),
}

POST_CASES = [(name, row, pool) for name in ("tweets", "news") for row in POST_EDGES
              for pool in (False, True) if not pool or POST_EDGES[row][3]]


def run_ingest(config, capsys):
    """``ingest`` in process: its exit code and stderr, checked against the
    rules every case keeps."""
    start = time.perf_counter()
    code = cli.main(["ingest", "--config", str(config)])
    assert time.perf_counter() - start < WALL_BOUND_S
    err = capsys.readouterr().err
    assert code in (0, 2, 3), code
    assert err.count("error:") == (code != 0) and err.count("\n") == (code != 0), err
    assert len(err.encode()) < 512, err[:512]
    return code, err


@pytest.mark.parametrize("name, row, pool", POST_CASES,
                         ids=[f"{n}-{r}{'-pool' if p else ''}" for n, r, p in POST_CASES])
def test_post_file_edge_fails_cleanly(tmp_path, monkeypatch, capsys, name, row, pool):
    write_tiny_dataset(tmp_path)
    path = tmp_path / f"{name}.jsonl"
    build, tweets_outcome, news_outcome, _ = POST_EDGES[row]
    data = build(path.read_bytes())
    path.write_bytes(data)
    if pool:
        force_pool(monkeypatch)
    code, err = run_ingest(write_config(tmp_path), capsys)
    outcome = tweets_outcome if name == "tweets" else news_outcome
    assert code == (2 if outcome else 0), err
    if outcome == "post":
        assert err.startswith(f"error: {path}: post id 'e': "), err
    elif outcome:
        line = 1 if outcome == "first" else len(data.splitlines())
        assert err.startswith(f"error: {path}:{line}: "), err


def replay_line(post_id, label=1, confidence=0.5):
    return json.dumps({"id": post_id, "label": label, "confidence": confidence})


#: {row: (replay table lines after one for each tiny post, expected
#: stderr)}. Each table's last line, or a tiny post without a score, is
#: the edge; "{table}" and "{tweets}" stand for the paths.
REPLAY_EDGES = {
    "label-4000-digits": ([replay_line("x", label=10**3999)],
                          "{table}:13: unparsable line 13: label must be -1, 0 or 1, got "
                          + "1" + "0" * 79 + "..."),
    "label-true": ([replay_line("x", label=True)],
                   "{table}:13: unparsable line 13: field 'label' must be an integer, got true"),
    "label-2": ([replay_line("x", label=2)],
                "{table}:13: unparsable line 13: label must be -1, 0 or 1, got 2"),
    "confidence-1e400": (['{"id": "x", "label": 1, "confidence": 1e400}'],
                         "{table}:13: unparsable line 13: confidence must be in [0, 1], got inf"),
    "confidence-nan": ([replay_line("x", confidence=math.nan)],
                       "{table}:13: unparsable line 13: confidence must be in [0, 1], got nan"),
    "confidence-minus-0": ([replay_line("x", confidence=-0.0)], None),
    "confidence-int-past-float-range": (
        [replay_line("x", confidence=10**400)],
        "{table}:13: unparsable line 13: int too large to convert to float"),
    "id-7-and-quoted-7": ([replay_line(7), replay_line("7")],
                          "{table}:14: unparsable line 14: duplicate id '7', first on line 13"),
    "no-score-for-a-post": ([], "{tweets}: no replay score for post id 't3'"),
    # the first bad byte comes first, however far past a bad line
    "bad-json-then-bad-byte-300-lines-on": (
        ["not json", *(replay_line(f"x{i}") for i in range(300)), '{"id": "\udcff"}'],
        "{table}:314: not UTF-8 text: invalid start byte"),
}


@pytest.mark.parametrize("row", REPLAY_EDGES)
def test_replay_table_edge_fails_cleanly(tmp_path, capsys, row):
    write_tiny_dataset(tmp_path)
    lines, expected = REPLAY_EDGES[row]
    ids = [f"t{i}" for i in range(8) if i != 3 or lines] + [f"n{i}" for i in range(4)]
    table = tmp_path / "scores.jsonl"
    table.write_text("".join(line + "\n" for line in [*map(replay_line, ids), *lines]),
                     errors="surrogateescape")
    config = write_config(tmp_path, provider="replay", replay_scores=table)
    code, err = run_ingest(config, capsys)
    if expected is None:
        assert code == 0
    else:
        expected = expected.format(table=table, tweets=tmp_path / "tweets.jsonl")
        assert (code, err) == (2, f"error: {expected}\n")


# --- the price file, the lexicon and the stopwords file ---------------------------

#: {key: (file name, its text)}: the tiny dataset's price file, and a
#: lexicon and a stopwords file written beside it.
LINE_FILES = {"prices": ("prices.csv", None),
              "lexicon": ("lexicon.tsv", b"profit\t1\nloss\t-1\n"),
              "stopwords": ("stopwords.txt", b"the\nand\n")}


def inside_last_line(char):
    """An edit that puts ``char`` three bytes before the end of the file,
    inside its last line: in a price file's last volume, before a lexicon
    line's polarity, inside the last stopword."""
    return lambda data: data[:-3] + char.encode() + data[-3:]


#: {row: (file bytes from the key's file, outcome for prices, lexicon,
#: stopwords)}. An outcome is 0 (exit 0), "first" or "last" (exit 2 at the
#: file's first or last line) or "file" (exit 2 naming the file, for a
#: price file without its header columns or a lexicon without entries).
LINE_EDGES = {
    "bom-at-start": (lambda data: BOM + data, "first", "first", "first"),
    "bom-at-start-and-bad-byte": (lambda data: BOM + data + b"\xff\n", "last", "last", "last"),
    "bad-byte-first-line": (lambda data: b"\xff" + data, "first", "first", "first"),
    "bad-byte-unterminated-last-line": (lambda data: data + b"\xff", "last", "last", "last"),
    "cr-line-ends": (lambda data: data.replace(b"\n", b"\r"), 0, 0, 0),
    "crlf-line-ends": (lambda data: data.replace(b"\n", b"\r\n"), 0, 0, 0),
    "empty": (lambda data: b"", "file", "file", 0),
    "blank-lines-only": (lambda data: b"\n \r\n\t\n\r", "file", "file", 0),
    # none of these ends a line; int() and float() strip all but NUL
    "form-feed-in-line": (inside_last_line("\x0c"), "last", 0, 0),
    "x85-in-line": (inside_last_line("\x85"), "last", 0, 0),
    "u2028-in-line": (inside_last_line("\u2028"), "last", 0, 0),
    "nul-in-line": (inside_last_line("\0"), "last", "last", 0),
}


def price_rows(edit):
    """An edit of the price file's lines, split at LF; the header is line 0."""
    def build(data):
        lines = data.split(b"\n")
        edit(lines)
        return b"\n".join(lines)
    return build


def swap_first_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def repeat_first_row(lines):
    lines[2] = lines[1]


def with_row(day, at):
    """An edit that puts a valid row for ``day``, an ISO date, in as line ``at``."""
    return lambda lines: lines.insert(at, f"{day},100,101,99,100,100,1000".encode())


def quote_first_volume(line_break):
    """An edit that splits the first row's volume over two lines in a quoted field."""
    def edit(lines):
        row = lines[1].rsplit(b",", 1)[0]
        lines[1] = row + b',"10' + line_break + b'00"'
    return edit


#: {row: (price file bytes from the tiny dataset's, outcome)}: outcomes as
#: in LINE_EDGES, or the line number an exit 2 names. A row's error names
#: the line the row starts on.
PRICE_EDGES = {
    "reordered-rows": (price_rows(swap_first_rows), 3),
    "duplicated-row": (price_rows(repeat_first_row), 3),
    "truncated-last-row": (lambda data: data[:-10], "last"),
    "date-year-1": (price_rows(with_row("0001-01-01", 1)), 0),
    "date-year-9999": (price_rows(with_row("9999-12-31", -1)), 0),
    "date-2023-02-29": (price_rows(with_row("2023-02-29", -1)), "last"),
    "date-2024-02-29": (price_rows(with_row("2024-02-29", -1)), 0),
    "quoted-lf-in-field": (price_rows(quote_first_volume(b"\n")), 2),
    "quoted-crlf-in-field": (price_rows(quote_first_volume(b"\r\n")), 2),
}

LINE_CASES = [(key, row) for key in LINE_FILES for row in LINE_EDGES] + [
    ("prices", row) for row in PRICE_EDGES]


@pytest.mark.parametrize("key, row", LINE_CASES, ids=[f"{k}-{r}" for k, r in LINE_CASES])
def test_line_file_edge_fails_cleanly(tmp_path, capsys, key, row):
    write_tiny_dataset(tmp_path)
    name, text = LINE_FILES[key]
    path = tmp_path / name
    if row in PRICE_EDGES:
        build, outcome = PRICE_EDGES[row]
    else:
        build, *outcomes = LINE_EDGES[row]
        outcome = outcomes[list(LINE_FILES).index(key)]
    data = build(path.read_bytes() if text is None else text)
    path.write_bytes(data)
    code, err = run_ingest(write_config(tmp_path, **{key: name}), capsys)
    assert code == (2 if outcome else 0), err
    if outcome == "file":
        assert err.startswith("error: ") and str(path) in err, err
    elif outcome:
        line = {"first": 1, "last": len(data.splitlines())}.get(outcome, outcome)
        assert err.startswith(f"error: {path}:{line}: "), err
