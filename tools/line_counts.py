"""Print the line counts of the package sources, each line counted once.

Usage (from the repository root):

    python3 tools/line_counts.py [FILE ...]

Without arguments it counts ``src/wavelab1d/*.py``.  For each file, and in
total, it prints the ``wc -l`` count and splits it into code, docstring,
comment and blank lines, which add up to it.  A line is code if it holds
any token other than a comment or a docstring; otherwise it is a docstring
line if a docstring spans it (blank lines inside docstrings included), a
comment line if it holds a comment, and blank otherwise.  A docstring is a
string literal that makes up a whole statement.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count(text: str) -> tuple[int, int, int, int, int]:
    """(lines, code, docstring, comment, blank) of one source text."""
    tokens = [tok for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline)
              if tok.type != tokenize.NL]
    code, doc, comment = set(), set(), set()
    for i, tok in enumerate(tokens):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(rows)
        elif (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
              and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)):
            doc.update(rows)
        elif tok.type not in _LAYOUT:
            code.update(rows)
    lines = text.count("\n")
    doc -= code
    comment -= code | doc
    return lines, len(code), len(doc), len(comment), lines - len(code | doc | comment)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted(Path("src/wavelab1d").glob("*.py"))
    print(f"{'lines':>6} {'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}  file")
    totals = [0] * 5
    for path in paths:
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print("{:>6} {:>6} {:>6} {:>7} {:>6}  {}".format(*counts, path))
    print("{:>6} {:>6} {:>6} {:>7} {:>6}  total".format(*totals))


if __name__ == "__main__":
    main(sys.argv[1:])
