"""Command-line front end.

    wavelab1d <subcommand> [config] [--override key=value ...]
              [--out-dir DIR] [--quiet]

Subcommands: simulate, flux-check, trapezoid, decay, tail, retraction,
conjecture, focusing, concentration, selfsimilar, cp-table.  Exit status:
0 pass, 2 fail verdict, 3 inconclusive, 1 error.  Every run writes its
outputs plus a manifest sufficient to reproduce them byte-for-byte; no
environment variables are consulted.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import SUBCOMMANDS, parse_config, resolve
from .csvio import write_csv, write_json
from .energy import compute_densities, cone_energy, conserved_pair
from .errors import ValidationError, WaveLabError
from .experiments import RUNNERS, PASS, FAIL, INCONCLUSIVE
from .flux import example_flux_polygon, flux_loop, trapezoid_check
from .grid import FieldState
from .interaction import interaction_q
from .manifest import new_manifest
from .selfsimilar import cp_constant, integrate_profile, ray_energy_decay, semi_energy
from .solver import Observer, Trajectory, evolve, steps_for

_EXIT = {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _run_experiment(cfg, out_dir, outputs):
    subcommand = cfg.subcommand
    report = RUNNERS[subcommand](cfg)
    series_names = [n for n in report.columns if n != "t"]
    rows = zip(report.columns["t"], *(report.columns[n] for n in series_names))
    outputs.append(write_csv(out_dir / f"{subcommand}_series.csv",
                             ["t"] + series_names, rows))
    outputs.append(write_json(out_dir / f"{subcommand}_report.json",
                              report.to_json_dict()))
    return report.verdict


def _write_report(out_dir, outputs, name, payload, ok) -> str:
    """Write ``payload`` and its verdict to ``<name>_report.json``; return the verdict."""
    verdict = PASS if ok else FAIL
    outputs.append(write_json(out_dir / f"{name}_report.json",
                              {**payload, "verdict": verdict}))
    return verdict


def _state_name(t: float) -> str:
    return f"state_t{t:g}.csv"


def _run_simulate(cfg, out_dir, outputs):
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    eta = cfg["run.eta"]
    times = list(cfg.t_samples())
    # one state file per sampled step, so no two steps may share a name
    steps = {steps_for(t, grid.dt) for t in times}
    if len({_state_name(m * grid.dt) for m in steps}) < len(steps):
        raise ValidationError("run.t_samples", "sample times too close to be told "
                              "apart in state file names (6 significant digits)")
    diag_rows = []

    def collect(state: FieldState):
        outputs.append(write_csv(out_dir / _state_name(state.t), ["x", "u", "v"],
                                 zip(grid.nodes, state.u, state.v)))
        if nl.sign != "focusing":
            d = compute_densities(state, grid, nl)
            E, M, Ep, Em = conserved_pair(d, grid)
            q = interaction_q(d, grid, "prefix_sum")
            diag_rows.append((state.t, E, M, Ep, Em, cone_energy(d, grid, eta), q))

    evolve(init, grid, nl, cfg["run.t_end"], observers=[Observer(times, collect)],
           guard=cfg["run.guard"])
    outputs.append(write_csv(out_dir / "diagnostics.csv",
                             ["t", "E", "M", "E_plus", "E_minus", "E_cone_eta", "Q"],
                             diag_rows))
    return PASS


def _run_flux_check(cfg, out_dir, outputs):
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    traj = Trajectory.record(init, grid, nl, cfg.horizon(), guard=cfg["run.guard"])
    path = example_flux_polygon(cfg["flux.a"], cfg["flux.b"], cfg["flux.h"],
                                cfg["flux.t0"])
    rep = flux_loop(traj, path, cfg["flux.which"])
    threshold = cfg["thresholds.flux_residual"]
    return _write_report(out_dir, outputs, "flux",
                         {**rep.as_dict(), "threshold": threshold},
                         abs(rep.closure_residual) <= threshold)


def _run_trapezoid(cfg, out_dir, outputs):
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    traj = Trajectory.record(init, grid, nl, cfg.horizon(), guard=cfg["run.guard"])
    rep = trapezoid_check(traj, cfg["trapezoid.eta"], cfg["trapezoid.t1"],
                          cfg["trapezoid.t2"], cfg["trapezoid.which"])
    threshold = cfg["thresholds.trapezoid_residual"]
    worst = max(abs(rep.residual_left), abs(rep.residual_right))
    return _write_report(out_dir, outputs, "trapezoid",
                         {**asdict(rep), "threshold": threshold}, worst <= threshold)


def _run_selfsimilar(cfg, out_dir, outputs):
    params = cfg.ode_params()
    lim = 1.0 - params.delta
    samples = np.linspace(-lim, lim, cfg["ode.samples"])
    sol = integrate_profile(params, samples)
    rep = semi_energy(sol, params)
    outputs.append(write_csv(
        out_dir / "profile.csv", ["y", "f", "fprime", "Etilde", "asymptotic_trace"],
        zip(sol.y_samples, sol.f_samples, sol.fprime_samples,
            rep.Etilde_samples, rep.asymptotic_trace)))
    rows = ray_energy_decay(sol, params, cfg["ray.R"], cfg["ray.R1"],
                            cfg["ray.t_list"])
    outputs.append(write_csv(out_dir / "ray_decay.csv", ["t", "ray_energy"], rows))
    et = rep.Etilde_samples[sol.y_samples >= 0.0]
    tol = cfg["thresholds.semi_energy_mono"] * (abs(et[0]) + 1.0)
    monotone = bool(np.all(np.diff(et) <= tol))
    payload = {
        "p": params.p, "a": params.a, "b": params.b, "delta": params.delta,
        "C_p": rep.C_p, "A_estimate": rep.A_estimate,
        "accepted_steps": sol.accepted_steps, "rejected_steps": sol.rejected_steps,
        "semi_energy_monotone": monotone,
    }
    return _write_report(out_dir, outputs, "selfsimilar", payload, monotone)


def _run_cp_table(cfg, out_dir, outputs):
    rows = []
    for p in cfg["cp.p_values"]:
        beta = 2.0 / (p - 1.0)
        rows.append((p, beta, cp_constant(p)))
    outputs.append(write_csv(out_dir / "cp_table.csv", ["p", "beta", "C_p"], rows))
    return PASS


_HANDLERS = {
    **dict.fromkeys(RUNNERS, _run_experiment),
    "simulate": _run_simulate,
    "flux-check": _run_flux_check,
    "trapezoid": _run_trapezoid,
    "selfsimilar": _run_selfsimilar,
    "cp-table": _run_cp_table,
}


def dispatch(subcommand: str, cfg, out_dir, quiet: bool = False) -> int:
    """Run one subcommand, writing outputs plus the run manifest."""
    handler = _HANDLERS.get(subcommand)
    if handler is None:
        raise ValidationError("subcommand", f"unknown subcommand {subcommand!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = new_manifest(subcommand, cfg.emit())
    manifest.started = _utcnow()
    outputs: list[Path] = []
    verdict = handler(cfg, out_dir, outputs)
    manifest.finished = _utcnow()
    manifest.verdict = verdict
    for path in outputs:
        manifest.add_output(path, out_dir)
    manifest.write(out_dir)
    if not quiet:
        print(f"{subcommand}: verdict={verdict} outputs={len(outputs)} "
              f"out_dir={out_dir}")
    return _EXIT[verdict]


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValidationError("override", f"{pair!r} is not key=value")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab1d",
        description="Numerical laboratory for directional energy transport "
                    "in the 1D semilinear wave equation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("config", nargs="?", default=None,
                        help="config file (flat key = value lines)")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
        sp.add_argument("--out-dir", default=None, help="output directory")
        sp.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir) if args.out_dir else Path(f"out_{args.subcommand}")
    try:
        overrides = _parse_overrides(args.override)
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ValidationError("config", f"cannot read {args.config!r} "
                                      f"({type(exc).__name__})")
            cfg = parse_config(text, args.subcommand, overrides)
        else:
            cfg = resolve(args.subcommand, {}, overrides)
        return dispatch(args.subcommand, cfg, out_dir, quiet=args.quiet)
    except WaveLabError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "error.json",
                   {"error_type": type(exc).__name__, "message": str(exc)})
        if not args.quiet:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
