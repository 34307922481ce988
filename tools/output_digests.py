"""Print the sha256 of every output of every CLI subcommand at its default config.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/output_digests.py

Each subcommand runs in-process into its own directory under a temporary
directory, which is removed afterwards.  The script prints one line per
subcommand with its exit status, then one ``<sha256>  <subcommand>/<file>``
line per output file.  ``manifest.json`` is skipped because it records wall
times.  Two source trees whose printouts are identical produce byte-identical
outputs; run it with ``PYTHONPATH`` pointing at each tree to compare them.
"""
from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from wavelab1d.cli import main
from wavelab1d.config import SUBCOMMANDS
from wavelab1d.manifest import MANIFEST_NAME


def digests(root: Path):
    """Yield the printed lines for every subcommand, run under ``root``."""
    for name in SUBCOMMANDS:
        out_dir = root / name
        code = main([name, "--out-dir", str(out_dir), "--quiet"])
        yield f"{name}: exit {code}"
        for path in sorted(out_dir.iterdir()):
            if path.name != MANIFEST_NAME:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                yield f"{digest}  {name}/{path.name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
