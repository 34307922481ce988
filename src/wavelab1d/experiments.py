"""Desk-scale scenario runners.

Each scenario evolves configured data, records scalar diagnostics at the
sample times through observers (no dense storage), and derives a verdict
from configurable trend gates.  The continuum statements behind the gates
are t -> infinity limits; the finite-horizon thresholds are recorded in the
report manifest and never presented as universal constants.

Every defocusing scenario re-verifies E and M conservation as a side
condition: drift beyond ``thresholds.conservation_tol`` flips the verdict
to ``inconclusive`` (diagnosing discretization, not theory).  Reports are
pure functions of the configuration, so re-running a manifest reproduces
them bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._version import __version__
from .config import Config
from .energy import (compute_densities, cone_energy, conserved_pair,
                     interval_energy, norms, potential, trapezoid)
from .errors import BlowUpDetected, EvennessViolated, ValidationError
from .grid import FieldState, GridSpec, InitialData, Nonlinearity, sample_derivatives
from .interaction import interaction_q
from .solver import Observer, evolve, steps_for

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass
class ExperimentReport:
    """Named time series, per-gate outcomes and the overall verdict."""

    scenario: str
    columns: dict[str, list] = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    gates: dict[str, str] = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def series_summary(self) -> dict:
        out = {}
        for name, values in self.columns.items():
            if name == "t" or not values:
                continue
            arr = [float(v) for v in values]
            out[name] = {"initial": arr[0], "final": arr[-1],
                         "min": min(arr), "max": max(arr)}
        return out

    def to_json_dict(self) -> dict:
        out = asdict(self)
        del out["columns"]
        return {**out, "series_summary": self.series_summary()}


def _new_report(cfg: Config) -> ExperimentReport:
    return ExperimentReport(scenario=cfg.subcommand,
                            thresholds=cfg.thresholds(),
                            manifest={"artifact_version": __version__,
                                      "config": cfg.emit()})


def _conservation_gate(report: ExperimentReport, tol: float):
    E, M = report.columns["E"], report.columns["M"]
    scale = abs(E[0]) if abs(E[0]) > 0.0 else 1.0
    drift = max(max(abs(v - E[0]) for v in E), max(abs(v - M[0]) for v in M))
    report.scalars["conservation_drift"] = drift
    if drift > tol * scale:
        report.gates["conservation"] = FAIL
        report.notes.append(
            f"conservation drift {drift:.3e} exceeds "
            f"{tol:.1e} * E0; verdict downgraded to inconclusive")
        report.verdict = INCONCLUSIVE
    else:
        report.gates["conservation"] = PASS


def _settle(report: ExperimentReport, gate_values: dict[str, bool]):
    for name, ok in gate_values.items():
        report.gates[name] = PASS if ok else FAIL
    report.verdict = PASS if all(gate_values.values()) else FAIL


def _run_scenario(cfg: Config, nl: Nonlinearity, grid: GridSpec, init: InitialData,
                  names, sample, settle, zero_note=None) -> ExperimentReport:
    """Shared body of the defocusing scenarios.

    Evolves ``init`` and records t, E and M plus the scenario's columns
    ``names`` at every sample time; ``sample(state, d, E_plus, E_minus)``
    returns the values of ``names`` in order, where ``d`` holds the state's
    energy densities and ``E_plus``/``E_minus`` its directional energy
    totals.  Then ``settle(report)`` sets the gates and the verdict,
    and the conservation gate runs.  When ``zero_note`` is given and E
    vanishes at the first sample, the run is inconclusive with that note
    and neither gate runs.
    """
    report = _new_report(cfg)
    cols = {name: [] for name in ("t", "E", "M", *names)}

    def collect(state: FieldState):
        d = compute_densities(state, grid, nl)
        E, M, Ep, Em = conserved_pair(d, grid)
        row = (state.t, E, M, *sample(state, d, Ep, Em))
        for column, value in zip(cols.values(), row, strict=True):
            column.append(value)

    evolve(init, grid, nl, cfg["run.t_end"],
           observers=[Observer(cfg["run.t_samples"], collect)], guard=cfg["run.guard"])
    report.columns = cols
    if zero_note is not None and cols["E"][0] == 0.0:
        report.verdict = INCONCLUSIVE
        report.notes.append(zero_note)
        return report
    settle(report)
    _conservation_gate(report, cfg["thresholds.conservation_tol"])
    return report


def run_decay(cfg: Config) -> ExperimentReport:
    """Directional energy left behind by the light cone, plus norm decay.

    Records E_plus(t; -inf, ct), E_minus(t; -ct, inf), the central cone
    energy, and the L^(p+1) and sup norms; each final value must fall below
    its threshold times the conserved total (energies) or the initial value
    (norms).
    """
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    c = cfg["run.c"]

    def sample(state: FieldState, d, Ep, Em):
        ct = c * state.t
        lp, sup, _ = norms(state, grid, nl)
        return (Ep, Em,
                interval_energy(d, grid, grid.x_min, ct, "plus"),
                interval_energy(d, grid, -ct, grid.x_max, "minus"),
                interval_energy(d, grid, -ct, ct, "full"), lp, sup)

    def settle(report: ExperimentReport):
        cols = report.columns
        thr_e = cfg["thresholds.energy_ratio"]
        thr_n = cfg["thresholds.norm_ratio"]
        _settle(report, {
            "eplus_left": cols["E_plus_left"][-1] <= thr_e * cols["E_plus_total"][0],
            "eminus_right": cols["E_minus_right"][-1] <= thr_e * cols["E_minus_total"][0],
            "central": cols["central"][-1] <= thr_e * cols["E"][0],
            "lp_norm": cols["lp_norm"][-1] <= thr_n * cols["lp_norm"][0],
            "sup_norm": cols["sup_norm"][-1] <= thr_n * cols["sup_norm"][0],
        })

    return _run_scenario(cfg, nl, grid, init,
                         ("E_plus_total", "E_minus_total", "E_plus_left",
                          "E_minus_right", "central", "lp_norm", "sup_norm"),
                         sample, settle)


def run_tail(cfg: Config) -> ExperimentReport:
    """Energy beyond |x| > t + R stays exactly zero on the lattice.

    R0 is the data support radius.  The velocity reconstruction and the
    derivative stencils widen the numerical cone by up to three cells, so
    the gated series measures beyond a ``run.margin_cells`` halo; the raw
    series (no halo) is recorded for the truncation-floor diagnostic.
    """
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    support = init.support_interval(grid)
    r0 = max(abs(support[0]), abs(support[1])) if support else 0.0
    radii = (r0 + cfg["run.R"], r0 + cfg["run.R"] + 1.0)
    margin = cfg["run.margin_cells"] * grid.dx

    def tail_energy(d, radius):
        left = interval_energy(d, grid, grid.x_min, -radius, "full")
        right = interval_energy(d, grid, radius, grid.x_max, "full")
        return left + right

    def sample(state: FieldState, d, Ep, Em):
        return (tail_energy(d, state.t + radii[0] + margin),
                tail_energy(d, state.t + radii[1] + margin),
                tail_energy(d, state.t + radii[0]))

    def settle(report: ExperimentReport):
        _settle(report, {
            "tail_R0_zero": max(report.columns["tail_R0"]) == 0.0,
            "tail_R0_plus_1_zero": max(report.columns["tail_R0_plus_1"]) == 0.0,
        })

    return _run_scenario(cfg, nl, grid, init,
                         ("tail_R0", "tail_R0_plus_1", "tail_R0_raw"), sample, settle)


def run_retraction(cfg: Config) -> ExperimentReport:
    """Cone energy E_eta(t): nondecreasing, eventually strictly positive."""
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    eta = cfg["run.eta"]

    def sample(state: FieldState, d, Ep, Em):
        return (cone_energy(d, grid, eta),)

    def settle(report: ExperimentReport):
        E0 = report.columns["E"][0]
        series = report.columns["E_cone"]
        tol = cfg["thresholds.monotonicity_tol"] * E0
        _settle(report, {
            "cone_monotone": all(b >= a - tol for a, b in zip(series, series[1:])),
            "cone_floor": series[-1] > cfg["thresholds.retraction_floor"] * E0,
        })

    return _run_scenario(cfg, nl, grid, init, ("E_cone",), sample, settle,
                         zero_note="zero solution: the retraction statement assumes "
                                   "nonzero data, nothing to verify")


def _probe_bump(eta: float, offset: float, length: float):
    """g' of the smooth bump g supported in (-eta + offset, -eta + offset + length).

    g(s) = exp(-1/(1-z^2)) on |z| < 1 with z the normalized offset;
    returns g' as a vectorized callable.
    """
    s_c = -eta + offset + 0.5 * length
    half = 0.5 * length

    def gprime(s):
        z = (np.asarray(s, dtype=float) - s_c) / half
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0 - 1e-12
        zi = z[inside]
        w = 1.0 - zi * zi
        out[inside] = np.exp(-1.0 / w) * (-2.0 * zi / (w * w)) / half
        return out

    return gprime


def run_conjecture_probe(cfg: Config) -> ExperimentReport:
    """Probes of the open retraction statement.

    (i) the right-going energy beyond the ray x = t - eta, nonincreasing by
    the trapezoid law (its limit is the open question, so this series alone
    cannot produce a pass); (ii) the weak-convergence probe
    Int u_x(t+s, t) g(s) ds evaluated through integration by parts; (iii)
    the strongly decaying component Int |(u_x + u_t)(t+s, t)|^2 ds.
    """
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    eta = cfg["run.eta"]
    gprime = _probe_bump(eta, cfg["probe.offset"], cfg["probe.length"])
    x = grid.nodes

    def sample(state: FieldState, d, Ep, Em):
        gp = gprime(x - state.t)
        ux, ut = sample_derivatives(state, grid)
        s_sum = ux + ut
        mask = x >= state.t - eta
        return (interval_energy(d, grid, state.t - eta, grid.x_max, "plus"),
                -trapezoid(state.u * gp, grid.dx),
                trapezoid((s_sum * s_sum)[mask], grid.dx))

    def settle(report: ExperimentReport):
        cols = report.columns
        series = cols["E_plus_beyond_ray"]
        E0 = cols["E"][0]
        tol = cfg["thresholds.monotonicity_tol"] * (E0 if E0 > 0.0 else 1.0)
        monotone = all(b <= a + tol for a, b in zip(series, series[1:]))
        base = 1 if len(cols["t"]) > 2 else 0
        weak = [abs(v) for v in cols["weak_probe"]]
        strong = cols["strong_probe"]
        weak_ok = weak[-1] <= cfg["thresholds.weak_probe_ratio"] * weak[base]
        strong_ok = strong[-1] <= cfg["thresholds.strong_probe_ratio"] * strong[base]
        retracted = series[-1] <= cfg["thresholds.retraction_ratio"] * E0

        _settle(report, {"ray_series_monotone": monotone, "weak_probe": weak_ok,
                         "strong_probe": strong_ok})
        report.gates["ray_series_retracted"] = PASS if retracted else INCONCLUSIVE
        if report.verdict == PASS and retracted:
            report.notes.append("ray series fell below its threshold at desk scale; "
                                "the t -> infinity statement remains open")
        elif report.verdict == PASS:
            report.verdict = INCONCLUSIVE
            report.notes.append("known-true probes hold; the retraction limit "
                                "itself remains an open question")

    return _run_scenario(cfg, nl, grid, init,
                         ("E_plus_beyond_ray", "weak_probe", "strong_probe"),
                         sample, settle)


def run_focusing(cfg: Config) -> ExperimentReport:
    """Focusing dichotomy: blow-up in finite time or unbounded norm growth.

    Evolves until BlowUpDetected or t_end, recording the H^1 x L^2 norm;
    passes if blow-up is detected or the norm exceeds
    ``thresholds.norm_blowup``.  Conservation is not gated here: the
    discrete energy loses meaning at blow-up scale.
    """
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    if nl.sign != "focusing":
        raise ValidationError("nl.sign", "run_focusing needs a focusing nonlinearity")
    report = _new_report(cfg)
    cols = {name: [] for name in ("t", "E", "M", "h1l2_norm", "sup_norm")}

    def collect(state: FieldState):
        # the focusing equation conserves the energy with -|u|^(p+1)/(p+1)
        ux, ut = sample_derivatives(state, grid)
        dens = 0.5 * ux * ux + 0.5 * ut * ut - nl.source_sign * potential(state.u, nl)
        E = trapezoid(dens, grid.dx)
        M = trapezoid(ux * ut, grid.dx)
        _, sup, h1l2 = norms(state, grid, nl)
        row = (state.t, E, M, math.sqrt(h1l2), sup)
        for column, value in zip(cols.values(), row, strict=True):
            column.append(value)

    blowup_time = None
    try:
        evolve(init, grid, nl, cfg["run.t_end"],
               observers=[Observer(cfg["run.t_samples"], collect)], guard=cfg["run.guard"])
    except BlowUpDetected as exc:
        blowup_time = exc.t
        report.notes.append(f"blow-up detected at t = {exc.t:.6g} "
                            f"(sup {exc.sup_value:.3e})")
    report.columns = cols
    if blowup_time is not None:
        report.scalars["blowup_time"] = blowup_time

    peak = max(cols["h1l2_norm"], default=0.0)
    if blowup_time is None and peak == 0.0:
        report.verdict = INCONCLUSIVE
        report.notes.append("zero solution: the dichotomy hypotheses are not met")
        return report
    norm_exceeded = peak >= cfg["thresholds.norm_blowup"]
    _settle(report, {"blowup_or_growth": blowup_time is not None or norm_exceeded})
    return report


def _check_even(init: InitialData, grid: GridSpec, ev_tol: float):
    """Raise EvennessViolated unless the sampled u0 and u1 are even to within
    ``ev_tol`` relative to their sup; the samples die with the call."""
    for name, arr in zip(("u0", "u1"), init.sample(grid)):
        scale = float(np.max(np.abs(arr))) or 1.0
        if float(np.max(np.abs(arr - arr[::-1]))) > ev_tol * scale:
            raise EvennessViolated(f"{name} is not even to within {ev_tol:.1e}")


def run_concentration(cfg: Config) -> ExperimentReport:
    """Interaction functional Q(t) of even data stays bounded below.

    Verifies solver evenness along the way and spot-checks the prefix-sum
    Q value against the brute-force double sum at the baseline time.
    """
    nl, grid, init = cfg.nonlinearity(), cfg.grid(), cfg.initial_data()
    ev_tol = cfg["thresholds.evenness_tol"]

    if abs(grid.x_min + grid.x_max) > 1e-9 * max(1.0, abs(grid.x_max)):
        raise ValidationError("grid", "concentration needs a symmetric domain")
    _check_even(init, grid, ev_tol)

    # the baseline is the sampled grid time nearest run.q_baseline_time,
    # the earliest one on a tie
    t0 = cfg["run.q_baseline_time"]
    sampled = sorted(steps_for(t, grid.dt) * grid.dt for t in cfg["run.t_samples"])
    t_base = min(sampled, key=lambda t: abs(t - t0))
    spot = {}

    def sample(state: FieldState, d, Ep, Em):
        q = interaction_q(d, grid, "prefix_sum")
        if state.t == t_base:
            brute = interaction_q(d, grid, "brute_force")
            spot["q_method_gap"] = abs(brute - q) / (abs(brute) or 1.0)
        scale = float(np.max(np.abs(state.u))) or 1.0
        return q, float(np.max(np.abs(state.u - state.u[::-1]))) / scale

    def settle(report: ExperimentReport):
        q = report.columns["Q"]
        idx0 = report.columns["t"].index(t_base)
        report.scalars.update(spot)
        _settle(report, {
            "q_floor": min(q[idx0:]) >= cfg["thresholds.q_floor_ratio"] * q[idx0],
            "evenness": max(report.columns["evenness_error"]) <= ev_tol,
            "q_methods_agree": spot["q_method_gap"] <= 1e-10,
        })

    return _run_scenario(cfg, nl, grid, init, ("Q", "evenness_error"), sample, settle,
                         zero_note="zero solution: the concentration statement "
                                   "assumes nonzero data")


RUNNERS = {
    "decay": run_decay,
    "tail": run_tail,
    "retraction": run_retraction,
    "conjecture": run_conjecture_probe,
    "focusing": run_focusing,
    "concentration": run_concentration,
}
