import json

import numpy as np
import pytest

from wavelab1d import Trajectory, ValidationError
from wavelab1d.cli import dispatch, main
from wavelab1d.config import Config, resolve
from wavelab1d.manifest import load_manifest, rerun_from_manifest
from tests_support import read_csv


def run_cli(args):
    return main([a for a in args if a is not None])


def test_cp_table(tmp_path):
    out = tmp_path / "cp"
    assert run_cli(["cp-table", "--out-dir", str(out), "--quiet"]) == 0
    header, rows = read_csv(out / "cp_table.csv")
    assert header == ["p", "beta", "C_p"]
    table = {row[0]: row[2] for row in rows}
    assert table[3.0] == pytest.approx(5.0, abs=1e-9)
    assert set(table) == {2.0, 3.0, 5.0}


def test_simulate_zero_data(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--out-dir", str(out), "--quiet",
                    "--override", "init.amplitude=0.0",
                    "--override", "grid.dx=0.05",
                    "--override", "run.t_end=2"])
    assert code == 0
    header, rows = read_csv(out / "state_t2.csv")
    assert header == ["x", "u", "v"]
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in rows)
    m = load_manifest(out / "manifest.json")
    names = {o["name"] for o in m.outputs}
    assert "diagnostics.csv" in names and "state_t0.csv" in names


def test_sample_times_on_one_step_write_one_state_and_row(tmp_path):
    # at dt = 0.002 the samples 0.001, 0.002 share step 1 and 0.003, 0.004 step 2
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--out-dir", str(out), "--quiet",
                    "--override", "run.t_end=0.004",
                    "--override", "run.sample_every=0.001"]) == 0
    names = [o["name"] for o in load_manifest(out / "manifest.json").outputs]
    assert sorted(names) == sorted(set(names))
    assert sum(name.startswith("state_t") for name in names) == 3
    _, rows = read_csv(out / "diagnostics.csv")
    assert len(rows) == 3 and rows[0][0] < rows[1][0] < rows[2][0]


def test_sample_times_that_share_a_state_file_name_are_rejected(tmp_path):
    # at dt = 0.05 the steps at t = 10000.05 and 10000.1 both print as 10000.1
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--out-dir", str(out), "--quiet",
                    "--override", "init.amplitude=0",
                    "--override", "grid.x_min=-1", "--override", "grid.x_max=1",
                    "--override", "grid.dx=0.05", "--override", "run.t_end=10000.2",
                    "--override", "run.t_samples=10000.05,10000.1"])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "ValidationError"
    assert err["message"].startswith("run.t_samples: ")
    assert not list(out.glob("state_t*.csv"))


def test_decay_report_schema(tmp_path):
    out = tmp_path / "decay"
    code = run_cli(["decay", "--out-dir", str(out), "--quiet",
                    "--override", "grid.dx=0.05", "--override", "run.t_end=10"])
    assert code in (0, 2, 3)
    report = json.loads((out / "decay_report.json").read_text())
    assert report["scenario"] == "decay"
    assert report["verdict"] in ("pass", "fail", "inconclusive")
    # the manifest echoes every default of the resolved configuration
    cfg_text = report["manifest"]["config"]
    for key in ("run.c = 0.5", "nl.p = 3.0", "nl.sign = defocusing",
                "init.kind = gaussian", "grid.cfl = 1.0"):
        assert key in cfg_text


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.t_end = 4\ngrid.dx = 0.05\ninit.amplitude = 0.5\n")
    out = tmp_path / "ret"
    code = run_cli(["retraction", str(cfg), "--out-dir", str(out), "--quiet",
                    "--override", "run.t_end=6"])
    assert code in (0, 2, 3)
    m = load_manifest(out / "manifest.json")
    assert "run.t_end = 6.0" in m.config_text
    assert "init.amplitude = 0.5" in m.config_text


def test_dispatch_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ValidationError):
        dispatch(Config("nope", resolve("cp-table").values), tmp_path / "nope", quiet=True)
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("override", ["nl.p=0.5", "grid.cfl=0", "grid.cfl=-0.5",
                                      "run.t_samples=,", "run.t_samples=-1,0,2",
                                      "run.t_end=-1", "run.t_end=inf", "run.t_end=nan",
                                      "run.sample_every=inf", "init.amplitude=nan",
                                      "init.width=inf", "grid.dx=inf", "nl.p=inf",
                                      "init.amplitude"])
def test_error_exit_and_error_json(tmp_path, override):
    out = tmp_path / "bad"
    code = run_cli(["simulate", "--out-dir", str(out), "--quiet",
                    "--override", override])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "ValidationError"
    key = override.split("=")[0] if "=" in override else "override"
    assert err["message"].startswith(key + ": ")


@pytest.mark.parametrize("subcommand, overrides, key", [
    ("flux-check", ("flux.h=-0.5",), "flux.h"), ("flux-check", ("flux.h=0",), "flux.h"),
    ("flux-check", ("flux.a=1", "flux.b=-1"), "flux.b"),
    ("flux-check", ("flux.t0=-0.1",), "flux.t0"),
    ("trapezoid", ("trapezoid.t1=1", "trapezoid.t2=0.5"), "trapezoid.t2"),
    ("trapezoid", ("trapezoid.t1=-0.5",), "trapezoid.t1"),
])
def test_bad_window_rejected_before_recording(tmp_path, monkeypatch, subcommand,
                                              overrides, key):
    # the dense trajectory's cost grows like t^2, so a window that cannot be
    # checked must fail before it is recorded
    recorded = []
    monkeypatch.setattr(Trajectory, "record",
                        classmethod(lambda cls, *args, **kwargs: recorded.append(args)))
    out = tmp_path / "bad"
    args = [subcommand, "--out-dir", str(out), "--quiet"]
    for pair in overrides:
        args += ["--override", pair]
    assert run_cli(args) == 1
    assert recorded == []
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "ValidationError"
    assert err["message"].startswith(key + ": ")


def test_unreadable_config_file_is_an_error(tmp_path):
    out = tmp_path / "bad"
    code = run_cli(["decay", str(tmp_path / "missing.txt"), "--out-dir", str(out),
                    "--quiet"])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "ValidationError"
    assert err["message"].startswith("config: ")
    assert "missing.txt" in err["message"]


def test_flux_check_and_trapezoid(tmp_path):
    out = tmp_path / "flux"
    code = run_cli(["flux-check", "--out-dir", str(out), "--quiet",
                    "--override", "grid.dx=0.01",
                    "--override", "init.kind=polynomial_bump",
                    "--override", "thresholds.flux_residual=0.001"])
    assert code == 0
    rep = json.loads((out / "flux_report.json").read_text())
    assert len(rep["edges"]) == 6
    assert "q_decomposition" in rep
    assert abs(rep["closure_residual"]) <= 0.001

    out2 = tmp_path / "trap"
    code = run_cli(["trapezoid", "--out-dir", str(out2), "--quiet",
                    "--override", "grid.dx=0.01",
                    "--override", "init.kind=polynomial_bump",
                    "--override", "thresholds.trapezoid_residual=0.001"])
    assert code == 0
    rep2 = json.loads((out2 / "trapezoid_report.json").read_text())
    assert rep2["verdict"] == "pass"


def test_flux_check_off_lattice_time_is_a_validation_error(tmp_path):
    # at cfl < 1 only x is interpolated; times must stay lattice times
    out = tmp_path / "flux"
    code = run_cli(["flux-check", "--out-dir", str(out), "--quiet",
                    "--override", "grid.cfl=0.9"])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "ValidationError"
    assert "t=0.5 is not a lattice time" in err["message"]


def test_selfsimilar_outputs(tmp_path):
    out = tmp_path / "ss"
    code = run_cli(["selfsimilar", "--out-dir", str(out), "--quiet",
                    "--override", "ode.samples=801"])
    assert code == 0
    header, rows = read_csv(out / "profile.csv")
    assert header == ["y", "f", "fprime", "Etilde", "asymptotic_trace"]
    assert len(rows) == 801
    header2, rows2 = read_csv(out / "ray_decay.csv")
    assert header2 == ["t", "ray_energy"]
    assert [r[0] for r in rows2] == [10.0, 20.0, 40.0, 80.0]


def test_selfsimilar_decreasing_ray_times_write_only_the_error(tmp_path):
    out = tmp_path / "ss"
    code = run_cli(["selfsimilar", "--out-dir", str(out), "--quiet",
                    "--override", "ray.t_list=40,10"])
    assert code == 1
    assert [path.name for path in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["message"].startswith("ray.t_list: ")


def test_selfsimilar_ray_times_past_the_profile_write_only_the_error(tmp_path):
    # t / (t + R) exceeds the profile's range 1 - delta
    out = tmp_path / "ss"
    code = run_cli(["selfsimilar", "--out-dir", str(out), "--quiet",
                    "--override", "ray.t_list=10,20000"])
    assert code == 1
    assert [path.name for path in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["message"].startswith("ray.t_list: ")


def test_selfsimilar_largest_accepted_ray_time_runs(tmp_path):
    # the largest float t with t / (t + R) <= (1 - delta) + 1e-12 at the defaults
    def accepted(t):
        return t / (t + 1.0) <= (1.0 - 1e-4) + 1e-12

    lo, hi = 9999.0, 10000.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    assert accepted(lo) and not accepted(hi)
    out = tmp_path / "edge"
    assert run_cli(["selfsimilar", "--out-dir", str(out), "--quiet",
                    "--override", "ode.samples=201",
                    "--override", f"ray.t_list=10,{lo!r}"]) == 0
    header, rows = read_csv(out / "ray_decay.csv")
    assert [r[0] for r in rows] == [10.0, lo]
    with pytest.raises(ValidationError, match="ray.t_list"):
        resolve("selfsimilar", {}, {"ray.t_list": f"10,{hi!r}"})


@pytest.mark.parametrize("subcommand, overrides", [
    ("simulate", ("grid.dx=0.02", "run.t_end=2", "init.amplitude=0.7")),
    ("tail", ("grid.dx=0.05", "run.t_end=5")),
    ("trapezoid", ("grid.dx=0.02", "init.kind=polynomial_bump")),
    ("cp-table", ("cp.p_values=1.5,4",)),
], ids=["simulate", "tail", "trapezoid", "cp-table"])
def test_rerun_from_manifest_byte_identical(tmp_path, subcommand, overrides):
    # one case per kind of handler: the tool that writes states, a scenario
    # runner, a tool on a dense trajectory and the pure table
    out1 = tmp_path / "a"
    args = [subcommand, "--out-dir", str(out1), "--quiet"]
    for pair in overrides:
        args += ["--override", pair]
    assert run_cli(args) == 0
    out2 = tmp_path / "b"
    rerun_from_manifest(out1 / "manifest.json", out2)
    m1 = load_manifest(out1 / "manifest.json")
    m2 = load_manifest(out2 / "manifest.json")
    assert m1.subcommand == m2.subcommand == subcommand
    assert m1.config_text == m2.config_text
    d1 = {o["name"]: o["sha256"] for o in m1.outputs}
    d2 = {o["name"]: o["sha256"] for o in m2.outputs}
    assert d1 == d2
    # and the bytes really are identical on disk
    for name in d1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("subcommand, override", [
    ("cp-table", "cp.p_values=2,1.02"),
    ("cp-table", "cp.p_values=1e4"),
    ("selfsimilar", "ode.p=1.027"),
])
def test_overflowing_cp_constant_writes_only_the_error(tmp_path, subcommand, override):
    # C_p overflows a float for p near 1 and for p in the thousands
    out = tmp_path / "cp"
    code = run_cli([subcommand, "--out-dir", str(out), "--quiet", "--override", override])
    assert code == 1
    assert [path.name for path in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["error_type"] == "InvalidParams"
    assert err["message"].startswith(override.split("=")[0] + ": C_p overflows")


def test_manifest_records_environment_and_old_format_loads(tmp_path):
    import platform
    import sys

    out1 = tmp_path / "a"
    assert run_cli(["simulate", "--out-dir", str(out1), "--quiet",
                    "--override", "grid.dx=0.05", "--override", "run.t_end=1"]) == 0
    data = json.loads((out1 / "manifest.json").read_text())
    assert data["environment"] == {"python": platform.python_version(),
                                   "numpy": np.__version__,
                                   "platform": platform.platform(),
                                   "byteorder": sys.byteorder}
    # a manifest written before the field existed still loads and reruns
    del data["environment"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert load_manifest(old).environment == {}
    out2 = tmp_path / "b"
    m2 = load_manifest(rerun_from_manifest(old, out2))
    assert m2.outputs == data["outputs"]
    assert m2.environment == load_manifest(out1 / "manifest.json").environment


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "sim2"
    run_cli(["simulate", "--out-dir", str(out), "--quiet",
             "--override", "grid.dx=0.04", "--override", "run.t_end=1",
             "--override", "init.amplitude=0.3"])
    header, rows = read_csv(out / "state_t1.csv")
    from wavelab1d.config import resolve
    cfg = resolve("simulate", {}, {"grid.dx": "0.04", "run.t_end": "1",
                                   "init.amplitude": "0.3"})
    from wavelab1d import Observer, evolve
    got = []
    evolve(cfg.initial_data(), cfg.grid(), cfg.nonlinearity(), 1.0,
           observers=[Observer([1.0], got.append)])
    assert np.array_equal(np.array([r[1] for r in rows]), got[0].u)
