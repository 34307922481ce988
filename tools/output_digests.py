"""Print the sha256 of every output of every CLI subcommand at its default
config, then of a fixed list of non-default runs.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/output_digests.py

Each run goes in-process into its own directory under a temporary
directory, which is removed afterwards.  The script prints one line per run
with its exit status, then one ``<sha256>  <run>/<file>`` line per output
file.  ``manifest.json`` itself is skipped because it records wall times;
instead one ``<sha256>  <run>/config_text`` line digests the resolved
configuration the manifest echoes.  It pins every emitted default, also of
the subcommands whose outputs embed no configuration.  Two source trees
whose printouts are identical produce byte-identical outputs; run it with
``PYTHONPATH`` pointing at each tree to compare them.

The non-default runs are cheap (a few seconds each) and cross the edge
cases of the stepper's active window: -0.0 samples, cfl < 1, non-integer p,
a blow-up, dense trajectories (one at cfl 0.9, where flux loops interpolate
between nodes) and zero data.  Two more set every ``init.*`` key that an
analytic kind reads, which pins the key-to-field mapping of the config's
initial-data builder.

No CLI run reaches the Picard oracle or the virial and Morawetz
functionals, so the last lines digest them directly, each at one small
fixed config: ``picard_fixed_point``'s levels and iteration count; the u
and v of ``evolve_by_dalembert`` over two windows, with the source
disabled and on zero data; ``virial_check`` at every interior time and at
a list of times; and ``morawetz_accumulator``.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from wavelab1d import (GridSpec, InitialData, Nonlinearity, Trajectory,
                       evolve_by_dalembert, morawetz_accumulator, picard_fixed_point,
                       virial_check)
from wavelab1d.cli import main
from wavelab1d.config import SUBCOMMANDS
from wavelab1d.manifest import MANIFEST_NAME

EXTRA_RUNS = (
    # a negative bump samples to -0.0 outside its support
    ("simulate", ("init.kind=polynomial_bump", "init.amplitude=-0.8", "grid.cfl=0.9")),
    ("trapezoid", ("init.kind=polynomial_bump", "init.amplitude=-0.8")),
    # zero data: an empty window
    ("tail", ("init.amplitude=0.0",)),
    ("simulate", ("nl.p=2.5", "grid.cfl=0.5", "init.velocity_fraction=0.5",
                  "run.t_end=2")),
    # blows up at cfl < 1
    ("focusing", ("grid.cfl=0.9",)),
    ("simulate", ("init.kind=polynomial_bump", "init.radius=0.75", "init.power=3",
                  "init.center=0.5", "init.velocity_fraction=0.25", "run.t_end=2")),
    ("simulate", ("init.width=0.5", "init.center=-0.5", "run.t_end=2")),
    # a dense trajectory interpolated off the cfl = 1 lattice
    ("flux-check", ("grid.cfl=0.9", "flux.h=0.45")),
)


def digests(root: Path):
    """Yield the printed lines for every run, each under its own dir in ``root``."""
    runs = [(name, ()) for name in SUBCOMMANDS] + list(EXTRA_RUNS)
    for i, (name, overrides) in enumerate(runs):
        label = f"{name}[{' '.join(overrides)}]" if overrides else name
        out_dir = root / f"{i:02d}"
        args = [name, "--out-dir", str(out_dir), "--quiet"]
        for pair in overrides:
            args += ["--override", pair]
        code = main(args)
        yield f"{label}: exit {code}"
        manifest = out_dir / MANIFEST_NAME
        if manifest.exists():
            config_text = json.loads(manifest.read_text())["config_text"]
            yield f"{hashlib.sha256(config_text.encode()).hexdigest()}  {label}/config_text"
        for path in sorted(out_dir.iterdir()):
            if path.name != MANIFEST_NAME:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                yield f"{digest}  {label}/{path.name}"


def _sha(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def oracle_digests():
    """Yield the printed lines for the verification tools at their fixed configs."""
    grid = GridSpec(-8.0, 8.0, 1600)           # dx = 0.01
    nl = Nonlinearity(p=3.0)
    label = "picard_fixed_point[gaussian amplitude=0.5 velocity_fraction=0.3 T=0.25]"
    res = picard_fixed_point(InitialData.gaussian(amplitude=0.5, velocity_fraction=0.3),
                             grid, nl, 0.25)
    digest = hashlib.sha256(res.levels.tobytes() + str(res.iterations).encode())
    yield f"{digest.hexdigest()}  {label}/levels+iterations"
    # two windows: the bound fails on [0, 0.5] and holds on [0, 0.25]
    runs = (("gaussian amplitude=1", InitialData.gaussian(amplitude=1.0), nl),
            ("gaussian velocity_fraction=0.4 sign=disabled",
             InitialData.gaussian(velocity_fraction=0.4),
             Nonlinearity(p=3.0, sign="disabled")),
            ("zero", InitialData.zero(), nl))
    for name, init, run_nl in runs:
        state = evolve_by_dalembert(init, grid, run_nl, 0.5)
        label = f"evolve_by_dalembert[{name} T=0.5]"
        yield f"{_sha(state.u)}  {label}/u"
        yield f"{_sha(state.v)}  {label}/v"
    traj = Trajectory.record(InitialData.polynomial_bump(amplitude=0.5),
                             GridSpec(-4.0, 4.0, 400), Nonlinearity(p=3.0, sign="focusing"),
                             1.0)
    for s_values in (None, [0.1, 0.5, 0.52, 0.98]):
        rep = virial_check(traj, 1.0, s_values=s_values)
        label = f"virial_check[polynomial_bump amplitude=0.5 focusing R=1 s={s_values}]"
        yield f"{_sha(rep.s_values, rep.I_values, rep.lhs_rhs_residuals)}  {label}"
    label = "morawetz_accumulator[polynomial_bump amplitude=0.5 focusing t_max=1]"
    yield f"{_sha(np.float64(morawetz_accumulator(traj, 1.0)))}  {label}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
    for line in oracle_digests():
        print(line, flush=True)
