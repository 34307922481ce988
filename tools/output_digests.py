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
initial-data builder.  Three more reach the verdict branches no default
run takes: ``conjecture``'s inconclusive report (exit 3) and its pass on
zero data (exit 0), and ``focusing``'s zero-data report (exit 3).  The
next two pin the ray positions of ``trapezoid`` and ``flux-check`` when
the ray starts at a lattice time t > 0 and falls between nodes (cfl 0.9).
The next one steps even data on an even node count, so the stepper's
half-lattice path runs with its ghost node mirroring the last stepped node
(every other mirror-symmetric run has an odd node count).  The next one
simulates focusing data, which write state files and a header-only
``diagnostics.csv``.  The next eight each set one bad value, so they write
only ``error.json``, whose digest pins the exception type and message.
The next eight reach branches that no earlier run takes: ``simulate`` at
p = 2 and at p = 5 (the power term's own kernels), with the source
disabled, on an asymmetric domain (nodes from ``linspace``) and to
t_end = 0 (no step); ``flux-check`` and ``trapezoid`` on the minus pair;
and ``cp-table`` at p = 2.5 and at p = 1e4.  The next two run ``flux-check``
and ``trapezoid`` on focusing data, which the configuration rejects, so
each writes only ``error.json``.  The last three set a geometry that only
the grid can reject, before the trajectory is recorded: a flux vertex
outside the domain, flux vertices off the cfl = 0.9 lattice and a
trapezoid ray that leaves the domain; each writes only ``error.json``.

No CLI run reaches the Picard oracle, the virial and Morawetz functionals
or the brute-force Q, so the last lines digest them directly, each at one
small fixed config: ``picard_fixed_point``'s levels and iteration count;
the u and v of ``evolve_by_dalembert`` over two windows, with the source
disabled and on zero data; ``virial_check`` at every interior time and at
a list of times; and ``morawetz_accumulator``.  Then come the oracles at
inputs off the CLI defaults: brute-force Q on 3,000 seeded points, some
with zero weight (three 1024-row blocks); ``integrate_profile`` with
``semi_energy`` at p = 2.5 and at p = 5 with f'(0) != 0; and
``morawetz_accumulator`` on a negative bump, which samples to -0.0.  Two
lines digest the ``u_levels`` that ``Trajectory.record`` stores: the
negative bump at cfl 0.9, and mirrored data at cfl 1, which the stepper
evolves on half the lattice.  The next four digest ``Trajectory.pointwise``
(u, u_x and u_t at every node of every level) and ``sample_derivatives`` of
the last state, for seeded samples whose cone reaches nodes 2 and n - 2,
at cfl 1 and 0.9: no CLI run reaches an end node's one-sided stencil
through a trajectory.  The last line digests ``flux_loop``'s edge
integrals around a rectangle for the plus and the minus pair: no CLI run
has a vertical flux edge.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from wavelab1d import (GridSpec, InitialData, Nonlinearity, OdeParams, Trajectory,
                       evolve_by_dalembert, flux_loop, integrate_profile,
                       morawetz_accumulator, pairwise_weighted_distance, picard_fixed_point,
                       rectangle, sample_derivatives, semi_energy, virial_check)
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
    # conjecture's inconclusive and pass reports, focusing's zero-data report
    ("conjecture", ("grid.dx=0.01", "grid.cfl=0.9", "init.amplitude=6.0",
                    "init.width=0.25", "probe.offset=0.1", "probe.length=1.0")),
    ("conjecture", ("init.amplitude=0.0",)),
    ("focusing", ("init.amplitude=0.0",)),
    # rays that start off t = 0 between nodes: trapezoid's own x = t - eta
    # and the flux edges' x0 + slope * (t - t0)
    ("trapezoid", ("grid.cfl=0.9", "trapezoid.t1=0.18", "trapezoid.t2=0.9",
                   "trapezoid.eta=0.1")),
    ("flux-check", ("grid.cfl=0.9", "flux.t0=0.18", "flux.h=0.45")),
    # even data on an even node count (12,002): the stepper's ghost node
    # mirrors the last stepped node
    ("simulate", ("grid.x_min=-12.001", "grid.x_max=12.001")),
    # focusing data have no energy diagnostics: a header-only diagnostics.csv
    ("simulate", ("nl.sign=focusing", "init.amplitude=0.5", "run.t_end=1")),
    # one bad value each: the run writes only error.json
    ("simulate", ("grid.cfl=1.5",)),
    ("flux-check", ("flux.h=0",)),
    ("simulate", ("grid.x_min=0", "grid.x_max=1", "grid.dx=0.3")),
    ("focusing", ("run.guard=0",)),
    ("selfsimilar", ("ray.t_list=40,10",)),
    ("cp-table", ("cp.p_values=2,1.02",)),
    ("tail", ("thresholds.conservation_tol=-1",)),
    ("focusing", ("thresholds.norm_blowup=0",)),
    # power_term's p = 2 and p = 5 kernels, the disabled source, linspace
    # nodes on an asymmetric domain and a run of no steps
    ("simulate", ("nl.p=2", "run.t_end=2")),
    ("simulate", ("nl.p=5", "run.t_end=2")),
    ("simulate", ("nl.sign=disabled", "run.t_end=2")),
    ("simulate", ("grid.x_min=-10", "grid.x_max=12", "run.t_end=2")),
    ("simulate", ("run.t_end=0",)),
    # the minus pair on rays
    ("flux-check", ("flux.which=minus",)),
    ("trapezoid", ("trapezoid.which=minus",)),
    # C_p off the default p values, and at a large p
    ("cp-table", ("cp.p_values=2.5,1e4",)),
    # focusing data on the density tools: rejected at resolve, before recording
    ("flux-check", ("nl.sign=focusing",)),
    ("trapezoid", ("nl.sign=focusing",)),
    # geometry checked against the grid before recording
    ("flux-check", ("flux.a=-100",)),
    ("flux-check", ("grid.cfl=0.9",)),
    ("trapezoid", ("trapezoid.eta=50", "trapezoid.t2=10")),
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
    rng = np.random.default_rng(2024)
    x = rng.uniform(-10.0, 10.0, 3000)
    w = rng.uniform(0.0, 1.0, 3000) * (rng.random(3000) >= 0.3)
    q = pairwise_weighted_distance(x, w, "brute_force")
    yield f"{_sha(np.float64(q))}  pairwise_weighted_distance[3000 seeded points brute_force]"
    for p, a, b in ((2.5, 1.0, 0.0), (5.0, 0.8, 0.5)):
        params = OdeParams(p=p, a=a, b=b)
        sol = integrate_profile(params)
        rep = semi_energy(sol, params)
        steps = np.array([sol.accepted_steps, sol.rejected_steps])
        digest = _sha(sol.y_samples, sol.f_samples, sol.fprime_samples,
                      rep.Etilde_samples, rep.asymptotic_trace, steps)
        yield f"{digest}  integrate_profile+semi_energy[p={p} a={a} b={b}]"
    traj = Trajectory.record(InitialData.polynomial_bump(amplitude=-0.8),
                             GridSpec(-4.0, 4.0, 400), Nonlinearity(p=3.0), 1.5)
    label = "morawetz_accumulator[polynomial_bump amplitude=-0.8 defocusing t_max=1.5]"
    yield f"{_sha(np.float64(morawetz_accumulator(traj, 1.5)))}  {label}"
    # the stored levels themselves, written only over each level's nonzero extent
    runs = (("amplitude=-0.8 cfl=0.9", InitialData.polynomial_bump(amplitude=-0.8), 0.9),
            ("amplitude=3 center=1 mirror cfl=1",
             InitialData.polynomial_bump(amplitude=3.0, center=1.0, mirror=True), 1.0))
    for name, init, cfl in runs:
        traj = Trajectory.record(init, GridSpec(-4.0, 4.0, 400, cfl=cfl), nl, 1.5)
        label = f"Trajectory.record[polynomial_bump {name} defocusing t_end=1.5]"
        yield f"{_sha(traj.u_levels)}  {label}/u_levels"
    # seeded samples on nodes [22, 378], 20 steps: the last level's cone
    # reaches nodes 2 and 398, so the end stencils read nonzero values
    rng = np.random.default_rng(23)
    u0, u1 = np.zeros((2, 401))
    u0[22:-22], u1[22:-22] = rng.normal(size=(2, 357))
    for cfl in (1.0, 0.9):
        grid = GridSpec(-4.0, 4.0, 400, cfl=cfl)
        traj = Trajectory.record(InitialData.explicit(u0, u1), grid, nl, 20 * grid.dt)
        levels = np.repeat(np.arange(traj.n_levels), grid.n_nodes)
        js = np.tile(np.arange(grid.n_nodes), traj.n_levels)
        label = f"Trajectory[seeded explicit samples cfl={cfl} 20 steps]"
        yield f"{_sha(*traj.pointwise(levels, js))}  {label}/pointwise"
        ux, ut = sample_derivatives(traj.state(traj.n_levels - 1), grid)
        yield f"{_sha(ux, ut)}  {label}/sample_derivatives"
    # no CLI run has a vertical flux edge
    traj = Trajectory.record(InitialData.polynomial_bump(amplitude=-0.8),
                             GridSpec(-4.0, 4.0, 400), nl, 1.0)
    path = rectangle(-1.5, 1.0, 0.0, 1.0)
    values = [flux_loop(traj, path, which).edge_integrals for which in ("plus", "minus")]
    label = "flux_loop[polynomial_bump amplitude=-0.8 rectangle(-1.5, 1, 0, 1)]"
    yield f"{_sha(np.array(values))}  {label}/plus+minus"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
    for line in oracle_digests():
        print(line, flush=True)
