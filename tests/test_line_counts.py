"""``tools/line_counts.py`` counts every source line once."""
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SOURCE = '''"""Module docstring.

Its blank line belongs to it.
"""
import os  # a trailing comment makes no comment line

# a comment line

def f():
    """One line."""
    return """a string argument,
not a docstring"""
'''


def test_each_line_counted_once():
    count = runpy.run_path(str(ROOT / "tools" / "line_counts.py"))["count"]
    # lines, code (5, 9, 11, 12), docstring (1-4, 10), comment (7), blank (6, 8)
    assert count(SOURCE) == (12, 4, 5, 1, 2)
    for path in (ROOT / "src" / "wavelab1d").glob("*.py"):
        lines, *parts = count(path.read_text())
        assert lines == path.read_text().count("\n") == sum(parts)
