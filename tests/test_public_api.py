"""Every name a module exports, and every record field, is used by the program.

A name in a ``src/stockcast`` module's ``__all__`` must be read as a
``Name`` or an ``Attribute`` somewhere in ``src/``, ``bench/`` or
``scripts/``. Its own definition and its ``__all__`` entry do not count,
and neither do docstrings or other strings. An annotated field of a class
in ``src/stockcast`` (a dataclass or NamedTuple field) must be read as an
``Attribute`` in the same three directories: a field only tests read, or
only a constructor sets, is dead weight in every record. Fields are
matched by name, so one that shares its name with a field read elsewhere
passes.
"""

import ast

from conftest import REPO

PROGRAM_DIRS = ("src", "bench", "scripts")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def program_references():
    """(names, attributes): every identifier the program reads bare, and as an attribute."""
    names, attributes = set(), set()
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    return names, attributes


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def record_fields(tree):
    """(class, field) for each annotated field in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_exported_name_has_a_program_caller():
    used = set().union(*program_references())
    modules = sorted((REPO / "src" / "stockcast").glob("*.py"))
    exports = {path.stem: exported_names(parse(path)) for path in modules}
    assert sum(map(len, exports.values())) > 50  # the walk found the modules' __all__
    unused = [f"{module}.{name}" for module, names in exports.items()
              for name in names if name not in used]
    assert unused == [], f"exported but never used by the program: {unused}"


def test_every_record_field_has_a_program_reader():
    _, attributes = program_references()
    fields = [(f"{path.stem}.{cls}", field)
              for path in sorted((REPO / "src" / "stockcast").glob("*.py"))
              for cls, field in record_fields(parse(path))]
    assert len(fields) > 50  # the walk found the records
    unread = [f"{cls}.{field}" for cls, field in fields if field not in attributes]
    assert unread == [], f"record fields the program never reads: {unread}"
