"""Every name a module exports is used by the program, not only by its tests.

A name in a ``src/stockcast`` module's ``__all__`` must be read as a
``Name`` or an ``Attribute`` somewhere in ``src/``, ``bench/`` or
``scripts/``. Its own definition and its ``__all__`` entry do not count,
and neither do docstrings or other strings.
"""

import ast

from conftest import REPO

PROGRAM_DIRS = ("src", "bench", "scripts")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def program_references():
    """Every identifier the program reads, as a bare name or an attribute."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def test_every_exported_name_has_a_program_caller():
    used = program_references()
    modules = sorted((REPO / "src" / "stockcast").glob("*.py"))
    exports = {path.stem: exported_names(parse(path)) for path in modules}
    assert sum(map(len, exports.values())) > 50  # the walk found the modules' __all__
    unused = [f"{module}.{name}" for module, names in exports.items()
              for name in names if name not in used]
    assert unused == [], f"exported but never used by the program: {unused}"
