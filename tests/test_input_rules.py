"""Each rule for reading an input file is written once.

An AST walk over ``src/stockcast`` fails on:

- a text-mode ``open`` call, or a ``.readlines()`` call, except
  ``outputs._ReadBack``'s read of daily_sentiment.csv with each bad byte
  replaced and ``outputs._write_csv``'s write. Every text input file is
  read by ``ingest.text_lines``, or by ``ingest._post_lines`` over one of
  its ``line_ranges``, as bytes: the file is checked for its first byte
  that is not UTF-8, then for a leading byte order mark, before any line
  is read, and its lines end where ``errors.line_ends`` counts one, at an
  LF, a CR LF or a lone CR.
- a ``.splitlines()`` call in any module. ``str.splitlines`` also ends
  lines at a form feed, ``\\x85``, ``\\u2028`` and others, so its line
  numbers disagree with every other reader's.
- a ``json.loads`` call, or any use of a JSON decoder's ``scan_once``,
  outside ``ingest.py``. Every JSON-lines file, the post files and the
  replay table alike, is parsed by ``ingest.json_records``, which holds
  the blank-line, parse-error, JSON-object, field and id rules and their
  messages: it scans each line with ``scan_once`` and hands any line that
  scan does not take whole to ``json.loads``, for its message.
"""

import ast

from conftest import REPO

#: (module, call) of every allowed call of each checked kind.
ALLOWED = {("ingest", "json.loads"), ("ingest", "scan_once"), ("outputs", "open")}


def text_mode(call):
    """Whether ``call``, an ``open`` call, opens a file in text mode: its
    mode is absent, or not a constant string holding ``b``."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value)


def checked_calls(tree, module):
    """(module, call) for each text-mode ``open``, ``.readlines()``,
    ``.splitlines()`` and ``json.loads`` call and each ``.scan_once``
    attribute (bound to be called later) in ``tree``."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "scan_once":
            sites.append((module, "scan_once"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and text_mode(node):
            sites.append((module, "open"))
        if isinstance(func, ast.Attribute):
            if func.attr in ("readlines", "splitlines"):
                sites.append((module, func.attr))
            elif func.attr == "loads" and isinstance(func.value, ast.Name) \
                    and func.value.id == "json":
                sites.append((module, "json.loads"))
    return sites


def test_one_line_rule_and_one_json_reader():
    sites = []
    for path in sorted((REPO / "src" / "stockcast").rglob("*.py")):
        sites += checked_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    stray = sorted(set(sites) - ALLOWED)
    assert stray == [], f"text reads, line splits or JSON parses outside the one reader: {stray}"
    # json_records' scanner and its one fallback parse; _ReadBack's
    # replacing read and _write_csv's write
    assert sorted(sites) == [("ingest", "json.loads"), ("ingest", "scan_once"),
                             ("outputs", "open"), ("outputs", "open")]


WALKED = '''
import json

def f(text, fh, p):
    open(p)
    open(p, "w", newline="")
    open(p, mode=p.mode)
    open(p, "rb")
    open(p, mode="rb")
    fh.readlines()
    fh.readline()
    text.splitlines()
    fh.read().splitlines(keepends=True)
    json.loads(text)
    json.dumps(text)
    text.split("\\n")
    scan = json.JSONDecoder().scan_once
    json.decoder.JSONDecoder().scan_once(text, 0)
'''


def test_walk_finds_each_kind():
    assert sorted(checked_calls(ast.parse(WALKED), "m")) == [
        ("m", "json.loads"), ("m", "open"), ("m", "open"), ("m", "open"), ("m", "readlines"),
        ("m", "scan_once"), ("m", "scan_once"), ("m", "splitlines"), ("m", "splitlines")]
