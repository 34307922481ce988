"""Deterministic CSV and JSON emission.

Floats are written with Python's shortest round-trip representation so a
file parses back to bit-identical values; line endings are pinned to "\\n"
and the encoding to UTF-8, so repeated runs produce byte-identical
artifacts on any platform and locale.

CSV rows are rendered by column, ``_CHUNK_ROWS`` rows at a time: one
``tolist`` per column turns a chunk into Python floats, and one ``%``
format with a ``%r`` per field renders all its lines, the text that
``",".join(repr(float(v)) for v in row)`` gives each row.  A column that
several files share (the x of every state file) is rendered once by
``render`` and written through ``%s``.  At most one chunk's Python
objects are alive at a time: a whole column of them made Python's
allocator take one more 1 MiB arena, which stayed resident after the run
(notes/decisions.md).
"""
from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

# rows rendered per chunk of a CSV file
_CHUNK_ROWS = 1024


def _create(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def render(values) -> np.ndarray:
    """The text of each float of ``values``, as a str column for ``write_csv``.

    numpy's float-to-str cast gives ``repr``'s shortest round-trip text
    without making a Python object per value.
    """
    return np.asarray(values, dtype=float).astype(str)


def write_csv(path, header, columns) -> Path:
    """Write a header line, then one line per row of the equal-length ``columns``.

    A column holds numbers, written as floats, or float text from ``render``.
    No columns write the header alone.
    """
    path = Path(path)
    columns = [c if c.dtype.kind == "U" else c.astype(float, copy=False)
               for c in map(np.asarray, columns)]
    line = ",".join("%s" if c.dtype.kind == "U" else "%r" for c in columns) + "\n"
    n_rows = len(columns[0]) if columns else 0
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write(line * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    with _create(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
