"""scripts/code_lines.py: the code-line count that size reports quote."""

import importlib.util

from conftest import REPO

_spec = importlib.util.spec_from_file_location("code_lines", REPO / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: Ten code lines: import, class, size, def area, the two lines of its
#: return, async def, the two lines of the string value and its return.
SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a line code

# a comment-only line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function
        docstring."""
        # a comment inside a body
        return (self.size
                * self.size)


async def fetch():
    "One-line docstring."
    text = """a string that is a value,
    not a docstring"""
    return os.sep + text
'''


def test_sample_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path) == 10


def test_main_prints_each_file_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "    10  a.py\n     1  b.py\n    11  total\n"
