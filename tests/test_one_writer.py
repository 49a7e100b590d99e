"""Every file the program writes goes through one stage-and-publish path.

An AST walk over ``src/stockcast`` finds every file write and every
rename. A file write is an ``open`` call whose mode is not a constant
string free of ``w``, ``a``, ``x`` and ``+``, or a ``.write_text`` or
``.write_bytes`` call; a rename is ``os.replace`` or ``os.rename``. Each
must sit in ``pipeline.publish`` (the renames), ``pipeline._write_csv`` or
``pipeline._write_json`` (the framed outputs), or be the text write of
``pipeline.write_daily_sentiment``, whose lines are not the CSV dialect.
A writer that opens its own file, or renames one, fails here.
"""

import ast

from conftest import REPO

#: (module, enclosing function, call) of every allowed write or rename.
ALLOWED = {
    ("pipeline", "publish", "os.replace"),
    ("pipeline", "_write_csv", "open"),
    ("pipeline", "_write_json", "write_text"),
    ("pipeline", "write_daily_sentiment", "write_text"),
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


def write_sites(tree, module):
    """(module, innermost enclosing function or "<module>", call) per write or rename."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = _writes(node)
            if name is not None:
                sites.append((module, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sites


def test_every_write_goes_through_publish():
    sites = []
    for path in sorted((REPO / "src" / "stockcast").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += write_sites(tree, path.stem)
    stray = sorted(set(sites) - ALLOWED)
    assert stray == [], f"writes or renames outside publish: {stray}"
    assert set(sites) == ALLOWED
    assert len(sites) == len(ALLOWED)  # one site each


def test_walk_finds_each_kind():
    source = '''
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
'''
    assert [name for _, _, name in write_sites(ast.parse(source), "m")] == [
        "open", "open", "open", "write_text", "write_bytes", "os.replace", "os.rename"]
