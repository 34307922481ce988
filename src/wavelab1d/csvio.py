"""Deterministic CSV and JSON emission.

Floats are written with Python's shortest round-trip representation so a
file parses back to bit-identical values; line endings are pinned to "\\n"
so repeated runs produce byte-identical artifacts.
"""
from __future__ import annotations

import json
from pathlib import Path


def write_csv(path, header, rows) -> Path:
    """Write a header line, then one line per row of float fields."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
