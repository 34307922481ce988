"""Scenario smoke tests on coarse grids; the acceptance suite runs the
production resolutions."""
import numpy as np
import pytest

from wavelab1d import EvennessViolated, GridSpec, InitialData, evolve
from wavelab1d.config import resolve
from wavelab1d.experiments import (run_concentration, run_conjecture_probe,
                                   run_decay, run_focusing, run_retraction,
                                   run_tail)
from tests_support import levine_threshold

COARSE = {"grid.dx": "0.02"}


def _zero(extra=None):
    ov = dict(COARSE)
    ov["init.amplitude"] = "0.0"
    ov.update(extra or {})
    return ov


def test_decay_zero_data_passes():
    rep = run_decay(resolve("decay", {}, _zero()))
    assert rep.verdict == "pass"
    assert all(v == 0.0 for v in rep.columns["E"])


def test_decay_gaussian_energy_gates():
    rep = run_decay(resolve("decay", {}, COARSE))
    assert rep.gates["eplus_left"] == "pass"
    assert rep.gates["eminus_right"] == "pass"
    assert rep.gates["central"] == "pass"
    assert rep.gates["conservation"] == "pass"
    # norms decay but the L4 gate needs longer horizons; see the ledger
    assert rep.columns["lp_norm"][-1] < rep.columns["lp_norm"][0]


def test_decay_linear_right_mover_leaves_no_plus_energy():
    ov = dict(COARSE)
    ov.update({"nl.sign": "disabled", "init.velocity_fraction": "1.0",
               "run.t_end": "30", "run.c": "0.5"})
    rep = run_decay(resolve("decay", {}, ov))
    # once the support passes x = ct the half-line E+ is an O(dx^4) floor
    assert rep.columns["E_plus_left"][-1] <= 1e-8


def test_tail_exact_zero_and_floor():
    rep = run_tail(resolve("tail", {}, COARSE))
    assert rep.verdict == "pass"
    assert max(rep.columns["tail_R0"]) == 0.0
    assert max(rep.columns["tail_R0_plus_1"]) == 0.0
    E = rep.columns["E"][0]
    assert max(rep.columns["tail_R0_raw"]) <= 1e-20 * E


def test_conservation_drift_beyond_tolerance_is_inconclusive():
    ov = {**COARSE, "run.t_end": "5"}
    assert run_tail(resolve("tail", {}, ov)).verdict == "pass"
    rep = run_tail(resolve("tail", {}, {**ov, "thresholds.conservation_tol": "0"}))
    assert rep.verdict == "inconclusive"
    assert rep.gates["conservation"] == "fail"
    drift = rep.scalars["conservation_drift"]
    E, M = rep.columns["E"], rep.columns["M"]
    assert drift == max(abs(v - col[0]) for col in (E, M) for v in col) > 0.0
    assert rep.notes[-1].startswith(f"conservation drift {drift:.3e} exceeds")


def test_tail_zero_data():
    rep = run_tail(resolve("tail", {}, _zero()))
    assert rep.verdict == "pass"


def test_retraction_gaussian():
    rep = run_retraction(resolve("retraction", {}, COARSE))
    assert rep.verdict == "pass"
    E = rep.columns["E"][0]
    cone = rep.columns["E_cone"]
    assert cone[-1] > 0.01 * E
    assert np.all(np.diff(cone) >= -1e-8 * E)


def test_retraction_deep_cone_captures_most_energy():
    ov = dict(COARSE)
    ov.update({"run.eta": "-5.0", "run.t_end": "5", "run.sample_every": "1"})
    rep = run_retraction(resolve("retraction", {}, ov))
    E = rep.columns["E"][0]
    cone = rep.columns["E_cone"]
    assert cone[-1] >= cone[1] > 0.5 * E


def test_retraction_zero_data_inconclusive():
    rep = run_retraction(resolve("retraction", {}, _zero()))
    assert rep.verdict == "inconclusive"


def test_conjecture_probes():
    ov = {"grid.dx": "0.01", "grid.cfl": "0.9", "init.amplitude": "6.0",
          "init.width": "0.25", "probe.offset": "0.1", "probe.length": "1.0"}
    rep = run_conjecture_probe(resolve("conjecture", {}, ov))
    assert rep.gates["ray_series_monotone"] == "pass"
    assert rep.gates["weak_probe"] == "pass"
    assert rep.gates["strong_probe"] == "pass"
    # the open limit itself must never pass at desk scale
    assert rep.verdict == "inconclusive"
    assert rep.gates["ray_series_retracted"] == "inconclusive"


def test_sample_times_on_one_step_give_the_report_of_distinct_times():
    # 4.99 and 5 map to the same step at dt = 0.05: two rows, so the probe
    # gates compare t = 5 with t = 0, as for "0,5"
    ov = {"grid.dx": "0.05", "run.t_end": "5"}
    dup = run_conjecture_probe(resolve("conjecture", {}, {**ov, "run.t_samples": "0,4.99,5"}))
    ref = run_conjecture_probe(resolve("conjecture", {}, {**ov, "run.t_samples": "0,5"}))
    assert len(ref.columns["t"]) == 2
    assert (dup.columns, dup.gates, dup.verdict) == (ref.columns, ref.gates, ref.verdict)


def test_conjecture_zero_data():
    rep = run_conjecture_probe(resolve("conjecture", {}, _zero()))
    assert all(v == 0.0 for v in rep.columns["weak_probe"])
    assert all(v == 0.0 for v in rep.columns["strong_probe"])
    assert rep.verdict == "pass"  # trivially retracted: all probes vanish


def test_levine_threshold_closed_form():
    from math import gamma, pi, sqrt
    g = GridSpec(-3.0, 3.0, 6000)
    shape = InitialData.polynomial_bump(amplitude=1.0, radius=1.0, power=2)
    astar = levine_threshold(shape, g, 3.0)
    a = 256.0 / 105.0
    b = sqrt(pi) * gamma(9.0) / gamma(9.5)
    assert astar == pytest.approx(sqrt(2.0 * a / b), rel=1e-5)


def test_focusing_blowup_detected():
    rep = run_focusing(resolve("focusing", {}, {"grid.dx": "0.005"}))
    assert rep.verdict == "pass"
    assert rep.scalars["blowup_time"] < 20.0


def test_focusing_small_data_survives():
    ov = {"grid.dx": "0.02", "init.amplitude": "0.03"}
    rep = run_focusing(resolve("focusing", {}, ov))
    assert "blowup_time" not in rep.scalars
    assert rep.verdict == "fail"  # neither branch of the dichotomy observed


def test_focusing_blowup_before_the_first_sample():
    ov = {"grid.dx": "0.005", "run.t_samples": "5,10"}
    rep = run_focusing(resolve("focusing", {}, ov))
    assert not rep.columns["t"]
    assert rep.scalars["blowup_time"] < 5.0
    assert rep.verdict == "pass"


def test_focusing_zero_data_inconclusive():
    rep = run_focusing(resolve("focusing", {}, _zero()))
    assert rep.verdict == "inconclusive"


def test_concentration_two_bumps(monkeypatch):
    # the brute-force Q spot check rides on the one evolution
    calls = []

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr("wavelab1d.experiments.evolve", counting_evolve)
    rep = run_concentration(resolve("concentration", {}, {"grid.dx": "0.01"}))
    assert len(calls) == 1
    assert rep.verdict == "pass"
    assert max(rep.columns["evenness_error"]) == 0.0
    assert rep.scalars["q_method_gap"] <= 1e-10
    q = rep.columns["Q"]
    t = rep.columns["t"]
    i0 = t.index(5.0)
    assert min(q[i0:]) >= 0.2 * q[i0]


def test_concentration_zero_data_inconclusive():
    rep = run_concentration(resolve("concentration", {}, _zero()))
    assert rep.verdict == "inconclusive"
    assert "q_method_gap" not in rep.scalars


def test_concentration_rejects_odd_data():
    cfg = resolve("concentration", {}, {"grid.dx": "0.02"})
    # sneak odd data past the config layer to hit the runtime check
    from wavelab1d.config import Config
    values = dict(cfg.values)
    values["init.center"] = 3.0
    values["init.mirror"] = False
    bad = Config(subcommand="concentration", values=tuple(sorted(values.items())))
    with pytest.raises(EvennessViolated):
        run_concentration(bad)


def test_reports_are_reproducible():
    cfg = resolve("retraction", {}, COARSE)
    a = run_retraction(cfg)
    b = run_retraction(cfg)
    assert a.columns == b.columns
    assert a.verdict == b.verdict
    assert a.to_json_dict() == b.to_json_dict()
