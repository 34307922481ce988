"""Run manifests: the reproducibility record of every CLI run.

A manifest stores the artifact version, the fully resolved configuration
text, input digests, wall times, the environment and the digest of every
emitted file.  The configuration echo is sufficient to re-execute the run
bit-exactly on the same environment; only the wall times differ between a
run and its re-execution.  The environment (Python and numpy versions,
platform, byte order) is recorded because the output bits depend on it.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .csvio import write_json

MANIFEST_NAME = "manifest.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


@dataclass
class RunManifest:
    artifact_version: str
    subcommand: str
    config_text: str
    input_digests: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""
    verdict: str = ""
    outputs: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def add_output(self, path, base_dir):
        path = Path(path)
        self.outputs.append({
            "name": str(path.relative_to(base_dir)),
            "sha256": sha256_file(path),
            "bytes": path.stat().st_size,
        })

    def write(self, out_dir) -> Path:
        return write_json(Path(out_dir) / MANIFEST_NAME, asdict(self))


def new_manifest(subcommand: str, config_text: str) -> RunManifest:
    return RunManifest(
        artifact_version=__version__,
        subcommand=subcommand,
        config_text=config_text,
        input_digests={"config_text": sha256_bytes(config_text.encode())},
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "byteorder": sys.byteorder,
        },
    )


def load_manifest(path) -> RunManifest:
    with open(path) as fh:
        data = json.load(fh)
    return RunManifest(**data)


def rerun_from_manifest(manifest_path, out_dir):
    """Re-execute a recorded run; returns the new manifest path.

    All CSV/JSON outputs of the re-run are byte-identical to the original
    (criterion: compare the per-file digests of the two manifests).
    """
    from .cli import dispatch
    from .config import parse_text, resolve

    m = load_manifest(manifest_path)
    dispatch(resolve(m.subcommand, parse_text(m.config_text)), Path(out_dir), quiet=True)
    return Path(out_dir) / MANIFEST_NAME
