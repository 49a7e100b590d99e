"""Every file the program writes goes through one stage-and-publish path,
and every output it reads back goes through one checked reader.

An AST walk over ``src/stockcast`` finds every file write and every
rename. A file write is an ``open`` call whose mode is not a constant
string free of ``w``, ``a``, ``x`` and ``+``, or a ``.write_text`` or
``.write_bytes`` call; a rename is ``os.replace`` or ``os.rename``. Each
must sit in ``outputs.publish`` (the renames), or in ``outputs._write_csv``
or ``outputs._write_json`` (the framed outputs). A writer that opens its
own file, or renames one, fails here.

A second walk, over READ_BACK_MODULES (every module that reads an output
back), finds every file read: an ``open`` that is not a write, an
``open_text``, or a ``.read_text`` or ``.read_bytes`` call. Each must sit
in ``outputs._ReadBack``, the reader that checks daily_sentiment.csv and
the predictions files, or be ``scoring.scores_digest``'s read of the
package files. A read-back that opens its own file fails here.
"""

import ast

from conftest import REPO

#: (module, enclosing function, call) of every allowed write or rename.
ALLOWED = {
    ("outputs", "publish", "os.replace"),
    ("outputs", "_write_csv", "open"),
    ("outputs", "_write_json", "write_text"),
}

#: The modules that read outputs back: pipeline the predictions files,
#: scoring daily_sentiment.csv, both through outputs._ReadBack.
READ_BACK_MODULES = ("outputs", "pipeline", "scoring")

#: (module, enclosing function, call) of every allowed read in READ_BACK_MODULES.
READS_ALLOWED = {
    ("outputs", "_ReadBack.__init__", "open"),
    ("outputs", "_ReadBack.__init__", "open_text"),
    ("scoring", "scores_digest", "read_bytes"),
}


def _writes(call):
    """The call's name if it writes or renames a file, else None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        if mode is None:
            return None
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and not set(mode.value) & set("wax+"):
            return None
        return "open"
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return func.attr
        if func.attr in ("replace", "rename") and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            return f"os.{func.attr}"
    return None


def _reads(call):
    """The call's name if it opens or reads a file and does not write one, else None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in ("open", "open_text"):
        return None if _writes(call) else func.id
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
        return func.attr
    return None


def call_sites(tree, module, name_of=_writes):
    """(module, innermost enclosing function or "<module>", call) per call
    ``name_of`` names; a method's function is ``Class.method``."""
    sites = []

    def visit(node, function, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if cls is None else f"{cls}.{node.name}"
            cls = None
        if isinstance(node, ast.Call):
            name = name_of(node)
            if name is not None:
                sites.append((module, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function, cls)

    visit(tree, "<module>", None)
    return sites


def test_every_write_goes_through_publish():
    sites = []
    for path in sorted((REPO / "src" / "stockcast").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += call_sites(tree, path.stem)
    stray = sorted(set(sites) - ALLOWED)
    assert stray == [], f"writes or renames outside publish: {stray}"
    assert set(sites) == ALLOWED
    assert len(sites) == len(ALLOWED)  # one site each


def test_every_read_back_goes_through_one_reader():
    sites = []
    for module in READ_BACK_MODULES:
        path = REPO / "src" / "stockcast" / f"{module}.py"
        sites += call_sites(ast.parse(path.read_text(encoding="utf-8")), module, _reads)
    stray = sorted(set(sites) - READS_ALLOWED)
    assert stray == [], f"reads outside _ReadBack: {stray}"
    assert set(sites) == READS_ALLOWED
    assert len(sites) == len(READS_ALLOWED)  # one site each


WALKED = '''
def f(p, os):
    open(p)
    open(p, "r")
    open(p, "w")
    open(p, mode="ab")
    open(p, p.mode)
    p.write_text("x")
    p.write_bytes(b"x")
    p.read_text()
    os.replace(p, p)
    os.rename(p, p)
    s.replace("a", "b")


class C:
    def m(self, p):
        open_text(p)
        p.read_bytes()

        def inner():
            open(p, "rb")
'''


def test_walk_finds_each_kind():
    tree = ast.parse(WALKED)
    assert [name for _, _, name in call_sites(tree, "m")] == [
        "open", "open", "open", "write_text", "write_bytes", "os.replace", "os.rename"]
    assert [site[1:] for site in call_sites(tree, "m", _reads)] == [
        ("f", "open"), ("f", "open"), ("f", "read_text"),
        ("C.m", "open_text"), ("C.m", "read_bytes"), ("inner", "open")]
