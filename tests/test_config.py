import pytest
from hypothesis import given, settings, strategies as st

from wavelab1d.config import SCHEMAS, SUBCOMMANDS, parse_text, resolve
from wavelab1d.errors import InvalidParams, ParseError, ValidationError


def test_parse_text_basics():
    raw = parse_text("""
# comment line
nl.p = 3.0
grid.dx = 0.01   # trailing comment
init.kind = gaussian
""")
    assert raw == {"nl.p": "3.0", "grid.dx": "0.01", "init.kind": "gaussian"}


def test_parse_text_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_text("nl.p = 3\nbogus line\n")
    assert info.value.line_no == 2
    with pytest.raises(ParseError):
        parse_text("nl.p = 3\nnl.p = 4\n")  # duplicate
    with pytest.raises(ParseError):
        parse_text("nl.p =\n")  # empty value


def test_simulate_defaults():
    cfg = resolve("simulate", {})
    assert cfg["nl.p"] == 3.0
    assert cfg["nl.sign"] == "defocusing"
    assert cfg["init.kind"] == "gaussian"
    assert cfg["grid.cfl"] == 1.0
    assert cfg["grid.dx"] == 2e-3
    assert cfg.grid().dx == pytest.approx(2e-3)


def test_validation_errors():
    with pytest.raises(ValidationError) as info:
        resolve("simulate", {"nl.p": "0.5"})
    assert "exceed 1" in str(info.value)
    with pytest.raises(ValidationError) as info:
        resolve("simulate", {"grid.cfl": "1.5"})
    assert "cfl" in str(info.value)
    with pytest.raises(ValidationError):
        resolve("simulate", {"made.up_key": "1"})
    with pytest.raises(ValidationError):
        resolve("decay", {"run.c": "1.5"})
    with pytest.raises(ValidationError):
        resolve("simulate", {"nl.p": "not_a_number"})


@pytest.mark.parametrize("subcommand, key, text", [
    ("flux-check", "flux.t0", "inf"), ("trapezoid", "trapezoid.t2", "inf"),
    ("decay", "run.t_samples", "5,inf"), ("cp-table", "cp.p_values", "3,nan"),
    ("simulate", "run.guard", "-inf")])
def test_non_finite_values_rejected(subcommand, key, text):
    with pytest.raises(ValidationError) as info:
        resolve(subcommand, {key: text})
    assert str(info.value) == f"{key}: must be finite"


@pytest.mark.parametrize("subcommand, key, text", [
    ("selfsimilar", "ode.samples", "1"), ("conjecture", "probe.length", "0"),
    ("focusing", "run.guard", "0"), ("tail", "run.margin_cells", "-5"),
    ("tail", "run.R", "-3"), ("cp-table", "cp.p_values", ","),
    ("selfsimilar", "ray.t_list", ","), ("selfsimilar", "ray.t_list", "40,10"),
    ("selfsimilar", "ray.t_list", "10,10"), ("selfsimilar", "ray.t_list", "-5,10"),
    ("flux-check", "flux.which", "full"), ("trapezoid", "trapezoid.which", "full"),
    # C_p overflows a float
    ("selfsimilar", "ode.p", "1.027"), ("cp-table", "cp.p_values", "2,1.02"),
    ("cp-table", "cp.p_values", "1e4"),
    # the flux hexagon and the trapezoid window
    ("flux-check", "flux.h", "-0.5"), ("flux-check", "flux.h", "0"),
    ("flux-check", "flux.b", "-1"), ("flux-check", "flux.t0", "-0.1"),
    ("trapezoid", "trapezoid.t1", "-0.5"), ("trapezoid", "trapezoid.t2", "0"),
    ("simulate", "grid.dx", "0"), ("simulate", "grid.dx", "-0.1"),
    ("simulate", "run.sample_every", "0"), ("selfsimilar", "ray.R", "2"),
    ("cp-table", "cp.p_values", "0.5,2"), ("simulate", "init.kind", "explicit_samples"),
    ("focusing", "init.radius", "0"), ("focusing", "init.power", "0"),
    ("simulate", "init.width", "0")])
def test_out_of_range_values_rejected(subcommand, key, text):
    with pytest.raises(ValidationError) as info:
        resolve(subcommand, {key: text})
    assert info.value.field == key


def test_overflowing_cp_rejected_at_resolve():
    # before the profile is integrated, not after
    with pytest.raises(InvalidParams):
        resolve("selfsimilar", {}, {"ode.p": "1.027"})


def test_sample_times_end_at_t_end_between_sampling_periods():
    cfg = resolve("simulate", {}, {"run.t_end": "2.5", "run.sample_every": "1"})
    assert cfg["run.t_samples"] == (0.0, 1.0, 2.0, 2.5)


def test_scenario_key_must_match():
    assert resolve("decay", {"scenario": "decay"})["run.c"] == 0.5
    with pytest.raises(ValidationError):
        resolve("decay", {"scenario": "tail"})


def test_round_trip_all_subcommands():
    for name in SUBCOMMANDS:
        cfg = resolve(name, {})
        again = resolve(name, parse_text(cfg.emit()))
        assert again == cfg, name


@given(dx=st.sampled_from(["0.01", "0.02", "0.05"]),
       amp=st.floats(0.1, 4.0),
       c=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_round_trip_with_overrides(dx, amp, c):
    cfg = resolve("decay", {}, {"grid.dx": dx, "init.amplitude": repr(amp),
                                "run.c": repr(c)})
    assert resolve("decay", parse_text(cfg.emit())) == cfg


def test_auto_grid_covers_support_cone():
    cfg = resolve("decay", {}, {"grid.dx": "0.05", "run.t_end": "10"})
    g = cfg.grid()
    support = cfg.initial_data().support_interval(g)
    assert g.x_min <= -(support[1] + 10.0) and g.x_max >= support[1] + 10.0
    assert abs(g.x_min + g.x_max) < 1e-12  # symmetric for auto-sized grids


def test_explicit_grid_respected():
    cfg = resolve("simulate", {"grid.x_min": "-3.0", "grid.x_max": "5.0",
                               "grid.dx": "0.1", "init.amplitude": "0.0"})
    g = cfg.grid()
    assert (g.x_min, g.x_max, g.n_cells) == (-3.0, 5.0, 80)
    with pytest.raises(ValidationError):
        resolve("simulate", {"grid.x_min": "0.0", "grid.x_max": "1.0",
                             "grid.dx": "0.3"})


@pytest.mark.parametrize("given, text, missing", [
    ("grid.x_min", "-3", "grid.x_max"), ("grid.x_max", "3", "grid.x_min")])
def test_one_sided_domain_override_rejected(given, text, missing):
    with pytest.raises(ValidationError) as info:
        resolve("simulate", {}, {given: text})
    assert info.value.field == missing


def test_values_take_the_type_of_their_default():
    # a bare type marks a value resolved from the others
    for name, schema in SCHEMAS.items():
        cfg = resolve(name, {})
        for key, default in schema.items():
            want = default if isinstance(default, type) else type(default)
            assert type(cfg[key]) is want, (name, key)
    cfg = resolve("simulate", {}, {"init.mirror": "1", "init.power": "3"})
    assert cfg["init.mirror"] is True
    assert type(cfg["init.power"]) is int and cfg["init.power"] == 3
    for key, text in (("init.power", "true"), ("init.mirror", "2"), ("grid.dx", "x")):
        with pytest.raises(ValidationError) as info:
            resolve("simulate", {}, {key: text})
        assert info.value.field == key


def test_t_samples_resolution():
    cfg = resolve("retraction", {}, {"run.t_end": "10", "run.sample_every": "2.5",
                                     "grid.dx": "0.05"})
    assert cfg["run.t_samples"] == (0.0, 2.5, 5.0, 7.5, 10.0)
    cfg2 = resolve("retraction", {}, {"run.t_samples": "0,1,4", "grid.dx": "0.05",
                                      "run.t_end": "5"})
    assert cfg2["run.t_samples"] == (0.0, 1.0, 4.0)


def test_concentration_config_guards():
    with pytest.raises(ValidationError):
        resolve("concentration", {}, {"init.mirror": "false"})
    with pytest.raises(ValidationError):
        resolve("concentration", {}, {"init.velocity_fraction": "0.5"})


def test_focusing_needs_focusing_sign():
    assert resolve("focusing", {})["nl.sign"] == "focusing"
    with pytest.raises(ValidationError):
        resolve("focusing", {}, {"nl.sign": "defocusing"})
    with pytest.raises(ValidationError):
        resolve("decay", {}, {"nl.sign": "focusing"})
