"""Each rule for reading an input file is written once.

An AST walk over ``src/stockcast`` fails on:

- a ``.splitlines()`` call in any module. An input file is split into
  lines by text-mode reading (``fh.readlines()`` inside
  ``errors.open_text``), which ends a line where ``errors.line_ends``
  counts one: at an LF, a CR LF or a lone CR. ``str.splitlines`` also
  ends lines at a form feed, ``\\x85``, ``\\u2028`` and others, so its
  line numbers disagree with every other reader's.
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
ALLOWED = {("ingest", "json.loads"), ("ingest", "scan_once")}


def checked_calls(tree, module):
    """(module, call) for each ``.splitlines()`` and ``json.loads`` call and
    each ``.scan_once`` attribute (bound to be called later) in ``tree``."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "scan_once":
            sites.append((module, "scan_once"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "splitlines":
                sites.append((module, "splitlines"))
            elif func.attr == "loads" and isinstance(func.value, ast.Name) \
                    and func.value.id == "json":
                sites.append((module, "json.loads"))
    return sites


def test_one_line_rule_and_one_json_reader():
    sites = []
    for path in sorted((REPO / "src" / "stockcast").rglob("*.py")):
        sites += checked_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    stray = sorted(set(sites) - ALLOWED)
    assert stray == [], f"line splits or JSON parses outside the one reader: {stray}"
    # json_records' scanner and its one fallback parse
    assert sorted(sites) == [("ingest", "json.loads"), ("ingest", "scan_once")]


WALKED = '''
import json

def f(text, fh):
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
        ("m", "json.loads"), ("m", "scan_once"), ("m", "scan_once"),
        ("m", "splitlines"), ("m", "splitlines")]
