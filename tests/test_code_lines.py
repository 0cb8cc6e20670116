from pathlib import Path

import pytest

SOURCES = {
    "module-docstring": ('"""The module,\nover two lines."""\nx = 1\n', 1),
    "comment-and-blank-lines": ("# a comment only\n\nx = 1  # and one after code\n\n", 1),
    "class-and-function-docstrings": (
        'class A:\n    """The class."""\n\n    def f(self):\n        """The\n        function."""\n'
        "        return 1\n",
        3,
    ),
    "string-not-a-docstring": ('x = 1\n"""a string\n\nthat is not a docstring"""\n', 4),
    "f-string": ('x = 1\ny = f"""{x}\n\nno field on this line\n{x:>{x}} and {{braces}}\n"""\n', 6),
}


@pytest.mark.parametrize("source, want", SOURCES.values(), ids=SOURCES)
def test_counts_each_kind_of_line(monkeypatch, source, want):
    # tools/code_lines.py, whose count ROADMAP's line budget reads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import code_lines

    assert code_lines.code_lines(source.encode()) == want
