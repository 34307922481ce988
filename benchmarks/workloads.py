"""The benchmark workloads: seeded inputs, ops, output checks, digests.

A workload's ``prepare(seed)`` draws every seeded input value; node counts
and step counts never depend on the seed.  ``ops(inputs, ctx, out_dir)``
returns one iteration of the workload as a list of ``Op`` objects.  The
worker times ``op.call()`` alone; ``op.check(value)`` runs untimed and
returns ``(ok, detail, digest)``.  Digests are sha256 hex strings of the
op's outputs, compared against ``reference.json`` for the stored seeds.

Library calls go through module attributes (``wl.flux_loop``, ``cli.main``)
at call time, so the tracer's patches see them.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONCENTRATION = "concentration-default"
VALIDATION = "validation"
WORKLOADS = (CONCENTRATION, VALIDATION)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    seeded: bool = True   # False: the digest is the same for every seed


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _amplitude(rng) -> float:
    return float(1.0 + 0.1 * rng.uniform(-1.0, 1.0))


# -- CLI runs -------------------------------------------------------------

def _simulate_argv(rng) -> list[str]:
    # the domain is pinned to the one amplitude 1 resolves to, so the gaussian's
    # amplitude-dependent truncation radius cannot change the node count
    return ["simulate",
            "--override", "grid.cfl=0.9",
            "--override", "run.t_end=5",
            "--override", "run.sample_every=0.5",
            "--override", "grid.x_min=-13.234",
            "--override", "grid.x_max=13.234",
            "--override", f"init.amplitude={_amplitude(rng)!r}",
            "--override", f"init.velocity_fraction={float(rng.uniform(0.0, 0.5))!r}"]


def _resolve_cli(argv):
    """The config the CLI would resolve for ``argv`` (set-up path)."""
    from wavelab1d import cli
    args = cli.build_parser().parse_args(argv)
    return cli.resolve(args.subcommand, {}, cli._parse_overrides(args.override))


def _outputs_digest(out_dir: Path) -> str:
    files = sorted(p for p in out_dir.iterdir() if p.name != "manifest.json")
    return _sha(*[(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files])


def _config_value(out_dir: Path, key: str) -> str:
    text = json.loads((out_dir / "manifest.json").read_text())["config_text"]
    for line in text.splitlines():
        k, _, v = line.partition(" = ")
        if k == key:
            return v
    raise KeyError(key)


def _check_concentration(out_dir: Path, code: int):
    if code != 0:
        return False, f"exit {code}", None
    report = json.loads((out_dir / "concentration_report.json").read_text())
    evenness = report["series_summary"]["evenness_error"]["max"]
    gap = report["scalars"]["q_method_gap"]
    ok = evenness <= 1e-10 and gap <= 1e-10
    return ok, f"evenness {evenness:.3g} q_method_gap {gap:.3g}", _outputs_digest(out_dir)


def _check_simulate(out_dir: Path, code: int):
    """Exit 0, 11 state dumps, and E and M drift within the config's tolerance."""
    if code != 0:
        return False, f"exit {code}", None
    tol = float(_config_value(out_dir, "thresholds.conservation_tol"))
    with open(out_dir / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    E = np.array([float(r["E"]) for r in rows])
    M = np.array([float(r["M"]) for r in rows])
    # drift relative to |E0|, the scale the scenario runners' gate uses
    scale = abs(E[0]) or 1.0
    drift = max(np.abs(E - E[0]).max(), np.abs(M - M[0]).max()) / scale
    n_states = sum(1 for p in out_dir.glob("state_t*.csv"))
    ok = drift <= tol and len(rows) == 11 and n_states == 11
    return ok, f"drift {drift:.3g} (tol {tol:g}), {n_states} states", \
        _outputs_digest(out_dir)


def _cli_op(name, argv, check, out_dir: Path) -> Op:
    """One CLI run; its outputs are deleted once checked."""
    from wavelab1d import cli

    def call():
        return cli.main(argv + ["--out-dir", str(out_dir), "--quiet"])

    def checked(code):
        try:
            return check(out_dir, code)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op(name, call, checked)


# -- validation -----------------------------------------------------------

VALIDATION_DX = 5e-4      # trajectory: 10,401 nodes x 2,401 levels, ~400 MB
PICARD_DX = 2e-3          # oracle: 6,001 nodes, T = 0.5
N_RANDOM_PATHS = 20
N_POINTS = 10_000


def _random_lattice_paths(wl, rng, n_paths):
    """Rectangles and characteristic parallelograms with vertices on 0.01."""
    paths = []
    while len(paths) < n_paths:
        kind = int(rng.integers(0, 3))
        x0, x1 = sorted(int(v) * 0.01 for v in rng.integers(-220, 221, size=2))
        if x1 - x0 < 0.1:
            continue
        if kind == 0:
            t0, t1 = sorted(int(v) * 0.01 for v in rng.integers(0, 121, size=2))
            if t1 - t0 >= 0.1:
                paths.append(wl.rectangle(x0, x1, t0, t1))
            continue
        slope = 1 if kind == 1 else -1
        t0 = int(rng.integers(0, 60)) * 0.01
        h = int(rng.integers(10, 121 - round(t0 * 100))) * 0.01
        if min(x0, x0 + slope * h) >= -2.5 and max(x1, x1 + slope * h) <= 2.5:
            paths.append(wl.parallelogram(x0, x1, t0, h, slope))
    return paths


def _prepare_validation(seed: int):
    import wavelab1d as wl
    rng = np.random.default_rng(seed)
    grid = wl.GridSpec(-2.6, 2.6, int(round(5.2 / VALIDATION_DX)), cfl=1.0)
    bump = wl.InitialData.polynomial_bump(amplitude=_amplitude(rng), radius=1.0, power=3)
    paths = [wl.example_flux_polygon(-0.8, 0.6, 0.4, 0.2)]
    paths += _random_lattice_paths(wl, rng, N_RANDOM_PATHS)
    x = np.sort(rng.uniform(-50.0, 50.0, N_POINTS))
    w = rng.uniform(0.0, 1.0, N_POINTS)
    picard_grid = wl.GridSpec(-6.0, 6.0, int(round(12.0 / PICARD_DX)), cfl=1.0)
    picard_init = wl.InitialData.gaussian(amplitude=0.1)
    simulate_argv = _simulate_argv(rng)
    _resolve_cli(simulate_argv)
    return dict(grid=grid, bump=bump, paths=paths, x=x, w=w,
                picard_grid=picard_grid, picard_init=picard_init,
                nl=wl.Nonlinearity(p=3.0), simulate_argv=simulate_argv)


def _validation_ops(inp, ctx, out_dir) -> list[Op]:
    import wavelab1d as wl
    grid, nl = inp["grid"], inp["nl"]
    tol = 10.0 * grid.dx ** 2
    ops = []

    def record():
        ctx["traj"] = wl.Trajectory.record(inp["bump"], grid, nl, 1.2)
        return ctx["traj"]

    def check_record(traj):
        ok = traj.u_levels.shape == (2401, grid.n_nodes) and bool(
            np.isfinite(traj.u_levels[-1]).all())
        stride = traj.u_levels[::100]
        return ok, f"levels {traj.u_levels.shape}", _sha(
            stride.tobytes(), traj.u_levels[-1].tobytes(), traj.v_levels[-1].tobytes())

    ops.append(Op("record", record, check_record))

    def check_flux(rep):
        ok = abs(rep.closure_residual) <= tol
        return ok, f"residual {rep.closure_residual:.3g}", _sha(
            rep.edge_integrals, rep.closure_residual)

    for i, path in enumerate(inp["paths"]):
        ops.append(Op(f"flux_loop.{i:02d}",
                      lambda path=path: wl.flux_loop(ctx["traj"], path, "plus"),
                      check_flux))

    def check_trapezoid(rep):
        worst = max(abs(rep.residual_left), abs(rep.residual_right))
        return worst <= tol, f"residual {worst:.3g}", _sha(
            rep.lhs_left, rep.lhs_right, rep.flux_integral)

    for which in ("plus", "minus"):
        ops.append(Op(f"trapezoid.{which}",
                      lambda which=which: wl.trapezoid_check(ctx["traj"], 0.2, 0.0, 1.0,
                                                             which),
                      check_trapezoid))

    s_values = (0.25, 0.5, 0.75, 1.0)

    def check_virial(rep):
        # |I| <= (R/2) * squared H^1 x L^2 norm, and a second-order residual
        traj = ctx["traj"]
        ok = bool(np.abs(rep.lhs_rhs_residuals).max() <= tol)
        for s, I in zip(rep.s_values, rep.I_values):
            _, _, h1l2 = wl.energy.norms(traj.state(traj.level_of(s)), grid, nl)
            ok &= abs(I) <= 0.5 * rep.R * h1l2 + 1e-12
        return ok, f"residual {np.abs(rep.lhs_rhs_residuals).max():.3g}", _sha(
            rep.I_values.tobytes(), rep.lhs_rhs_residuals.tobytes())

    ops.append(Op("virial", lambda: wl.virial_check(ctx["traj"], 1.0, s_values=s_values),
                  check_virial))

    def morawetz(t_max):
        ctx[f"morawetz{t_max}"] = wl.morawetz_accumulator(ctx["traj"], t_max)
        return ctx[f"morawetz{t_max}"]

    def check_morawetz(value):
        ok = 0.0 < ctx.get("morawetz0.5", 0.0) <= value
        ctx.pop("traj", None)   # the last op on the trajectory frees it
        return ok, f"{value:.6g}", _sha(value)

    ops.append(Op("morawetz.0.5", lambda: morawetz(0.5),
                  lambda v: (v > 0.0, f"{v:.6g}", _sha(v))))
    ops.append(Op("morawetz.1.0", lambda: morawetz(1.0), check_morawetz))

    pg, pinit = inp["picard_grid"], inp["picard_init"]
    p_tol = 10.0 * pg.dx ** 2

    def picard():
        ctx["picard"] = wl.picard_fixed_point(pinit, pg, nl, 0.5)
        return ctx["picard"]

    def check_picard(res):
        ok = res.iterations >= 1 and res.final_change < 1e-12
        return ok, f"{res.iterations} iterations", _sha(res.levels.tobytes(),
                                                        res.iterations)

    def check_leapfrog(state):
        sup = float(np.abs(ctx["picard"].levels[-1] - state.u).max())
        return sup <= p_tol, f"picard sup {sup:.3g}", _sha(state.u.tobytes(),
                                                           state.v.tobytes())

    ops.append(Op("picard", picard, check_picard, seeded=False))
    ops.append(Op("leapfrog_vs_picard", lambda: wl.evolve(pinit, pg, nl, 0.5),
                  check_leapfrog, seeded=False))

    def brute():
        ctx["brute"] = wl.pairwise_weighted_distance(inp["x"], inp["w"], "brute_force")
        return ctx["brute"]

    def check_prefix(q):
        gap = abs(q - ctx["brute"]) / abs(ctx["brute"])
        return gap <= 1e-10, f"gap {gap:.3g}", _sha(q)

    ops.append(Op("q.brute_force", brute,
                  lambda q: (q > 0.0, f"{q:.6g}", _sha(q))))
    ops.append(Op("q.prefix_sum",
                  lambda: wl.pairwise_weighted_distance(inp["x"], inp["w"], "prefix_sum"),
                  check_prefix))

    for a in (0.5, 1.0):
        params = wl.OdeParams(p=3.0, a=a, b=0.0)

        def integrate(params=params, a=a):
            ctx[f"sol{a}"] = wl.integrate_profile(params)
            return ctx[f"sol{a}"]

        def check_integrate(sol):
            ok = bool(np.isfinite(sol.f_samples).all())
            return ok, f"{sol.accepted_steps} accepted, {sol.rejected_steps} rejected", \
                _sha(sol.f_samples.tobytes(), sol.fprime_samples.tobytes(),
                     sol.accepted_steps, sol.rejected_steps)

        def check_semi(rep):
            et = rep.Etilde_samples[rep.y_samples >= 0.0]
            ok = bool(np.all(np.diff(et) <= 1e-8 * (abs(et[0]) + 1.0)))
            return ok, "monotone" if ok else "not monotone", _sha(
                rep.Etilde_samples.tobytes(), rep.A_estimate)

        def check_ray(rows):
            energies = [e for _, e in rows]
            ok = all(e >= 0.0 for e in energies) and all(
                later <= earlier for earlier, later in zip(energies, energies[1:]))
            return ok, f"{energies[-1]:.3g}", _sha(rows)

        ops.append(Op(f"integrate_profile.a{a}", integrate, check_integrate, seeded=False))
        ops.append(Op(f"semi_energy.a{a}",
                      lambda params=params, a=a: wl.semi_energy(ctx[f"sol{a}"], params),
                      check_semi, seeded=False))
        ops.append(Op(f"ray_energy_decay.a{a}",
                      lambda params=params, a=a: wl.ray_energy_decay(
                          ctx[f"sol{a}"], params, 1.0, 2.0, (10.0, 20.0, 40.0, 80.0)),
                      check_ray, seeded=False))

    ops.append(_cli_op("simulate", inp["simulate_argv"], _check_simulate, out_dir))
    return ops


# -- registry -------------------------------------------------------------

def prepare(workload: str, seed: int):
    """Seeded inputs of one workload, resolved as far as the set-up goes."""
    if workload == VALIDATION:
        return _prepare_validation(seed)
    rng = np.random.default_rng(seed)
    argv = ["concentration", "--override", f"init.amplitude={_amplitude(rng)!r}"]
    _resolve_cli(argv)
    return argv


def ops(workload: str, inputs, ctx: dict, out_dir: Path) -> list[Op]:
    if workload == VALIDATION:
        return _validation_ops(inputs, ctx, out_dir)
    return [_cli_op(workload, inputs, _check_concentration, out_dir)]
