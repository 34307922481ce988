import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelab1d import (GridSpec, InitialData, Nonlinearity, Observer,
                       Trajectory, ValidationError, compute_densities,
                       conserved_pair, evolve, interval_energy,
                       light_cone_energy, morawetz_accumulator, sample_derivatives)
from wavelab1d.energy import norms, potential
from wavelab1d.grid import FieldState

from tests_support import (expression_densities, expression_norms, expression_potential,
                           full_row_morawetz, traced_memory)

P3 = Nonlinearity(p=3.0)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def _state(u, v):
    return FieldState(t=0.0, u=np.asarray(u, float), v=np.asarray(v, float))


def test_zero_state_densities():
    g = GridSpec(-1.0, 1.0, 20)
    d = compute_densities(_state(np.zeros(21), np.zeros(21)), g, P3)
    for arr in (d.e_plus, d.e_minus, d.e_full, d.momentum_density):
        assert np.all(arr == 0.0)


def test_component_rejects_an_unknown_name():
    g = GridSpec(-1.0, 1.0, 20)
    d = compute_densities(_state(np.zeros(21), np.zeros(21)), g, P3)
    assert d.component("minus") is d.e_minus
    with pytest.raises(ValidationError, match="expected plus, minus or full") as info:
        d.component("momentum")
    assert info.value.field == "which"


def test_plateau_densities():
    # u = 1, u_t = 0 on a wide plateau: e+ = e- = 1/8, e_full = 1/4
    g = GridSpec(-2.0, 2.0, 40)
    d = compute_densities(_state(np.ones(41), np.zeros(41)), g, P3)
    assert np.allclose(d.e_plus, 0.125, rtol=0, atol=1e-15)
    assert np.allclose(d.e_minus, 0.125, rtol=0, atol=1e-15)
    assert np.allclose(d.e_full, 0.25, rtol=0, atol=1e-15)


def test_unit_slope_density():
    # u_x = 1, u_t = -1 and u = 0 at the origin node: e+ = 1, e- = 0
    g = GridSpec(-1.0, 1.0, 100)
    u = g.nodes.copy()
    v = -np.ones(g.n_nodes)
    d = compute_densities(_state(u, v), g, P3)
    j = g.index_of(0.0)
    # the |u|^4 term vanishes only at the origin
    assert d.e_plus[j] == pytest.approx(1.0)
    assert d.e_minus[j] == pytest.approx(0.0, abs=1e-15)


def test_focusing_densities_rejected():
    g = GridSpec(-1.0, 1.0, 20)
    with pytest.raises(ValidationError):
        compute_densities(_state(np.zeros(21), np.zeros(21)), g,
                          Nonlinearity(p=3.0, sign="focusing"))


@given(u=arrays(np.float64, 41, elements=finite),
       v=arrays(np.float64, 41, elements=finite))
@settings(max_examples=100, deadline=None)
def test_pointwise_identities_exact(u, v):
    g = GridSpec(-1.0, 1.0, 40)
    d = compute_densities(_state(u, v), g, P3)
    assert np.all(d.e_full == d.e_plus + d.e_minus)
    assert np.all(d.momentum_density == d.e_minus - d.e_plus)
    assert np.all(d.e_plus >= 0.0)
    assert np.all(d.e_minus >= 0.0)


def test_momentum_density_is_ux_ut():
    rng = np.random.default_rng(7)
    g = GridSpec(-1.0, 1.0, 200)
    u = rng.normal(size=201)
    v = rng.normal(size=201)
    d = compute_densities(_state(u, v), g, P3)
    ux, ut = sample_derivatives(_state(u, v), g)
    scale = np.abs(d.e_full).max()
    assert np.abs(d.momentum_density - ux * ut).max() <= 1e-13 * max(scale, 1.0)


def test_gaussian_energy_closed_form():
    # E = Int 2 x^2 e^(-2x^2) + (1/4) Int e^(-4x^2) for u0 = e^(-x^2), u1 = 0
    g = GridSpec(-8.0, 8.0, 16000)  # dx = 1e-3
    init = InitialData.gaussian(amplitude=1.0)
    u0, u1 = init.sample(g)
    d = compute_densities(_state(u0, u1), g, P3)
    E = interval_energy(d, g, g.x_min, g.x_max, "full")
    closed = math.sqrt(math.pi / 2.0) / 2.0 + math.sqrt(math.pi) / 8.0
    assert abs(E - closed) <= 1e-6
    # symmetric data: M = 0 and the split is even
    E_, M, Ep, Em = conserved_pair(d, g)
    assert abs(M) <= 1e-12
    assert Ep == pytest.approx(E_ / 2.0, rel=1e-12)
    assert Em == pytest.approx(E_ / 2.0, rel=1e-12)


@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p, sign", [(2.0, "defocusing"), (2.5, "defocusing"),
                                     (3.0, "defocusing"), (5.0, "defocusing"),
                                     (3.0, "disabled")])
def test_in_place_densities_and_norms_match_expression_form(cfl, p, sign):
    g = GridSpec(-4.0, 4.0, 800, cfl=cfl)
    nl = Nonlinearity(p=p, sign=sign)
    # a negative bump samples u and v to -0.0 outside its support
    init = InitialData.polynomial_bump(amplitude=-0.8, center=0.3, velocity_fraction=0.5)
    states = []
    evolve(init, g, nl, 1.0, observers=[Observer(np.linspace(0.0, 1.0, 5), states.append)])
    assert np.signbit(states[0].u[states[0].u == 0.0]).any()
    assert np.signbit(states[0].v[states[0].v == 0.0]).any()
    for state in states:
        d = compute_densities(state, g, nl)
        got = (d.e_plus, d.e_minus, d.e_full, d.momentum_density)
        for arr, ref in zip(got, expression_densities(state, g, nl), strict=True):
            assert arr.tobytes() == ref.tobytes()
        assert potential(state.u, nl).tobytes() == expression_potential(state.u, nl).tobytes()
        assert ([v.hex() for v in norms(state, g, nl)]
                == [v.hex() for v in expression_norms(state, g, nl)])


# array headers and small Python objects on top of the arrays themselves
OBJECT_BYTES = 16 * 1024


def _big_state():
    g = GridSpec(-1.0, 1.0, 2 ** 17)                   # 131,073 nodes
    rng = np.random.default_rng(2)
    return g, _state(rng.normal(size=g.n_nodes), rng.normal(size=g.n_nodes))


def test_compute_densities_peaks_at_its_four_outputs():
    g, state = _big_state()
    with traced_memory() as above:
        d = compute_densities(state, g, P3)
        peak = above()[1]
    assert peak <= 4 * state.u.nbytes + OBJECT_BYTES
    assert d.e_full.size == g.n_nodes


def test_sample_derivatives_peaks_at_one_state_sized_array():
    g, state = _big_state()
    with traced_memory() as above:
        ux, _ = sample_derivatives(state, g)
        peak = above()[1]
    assert peak <= state.u.nbytes + OBJECT_BYTES
    assert ux.size == g.n_nodes


def test_interval_energy_empty_and_additive():
    g = GridSpec(-2.0, 2.0, 400)
    rng = np.random.default_rng(3)
    d = compute_densities(_state(rng.normal(size=401), rng.normal(size=401)), g, P3)
    assert interval_energy(d, g, 0.5, 0.5, "full") == 0.0
    total = interval_energy(d, g, -1.7, 1.3, "full")
    split = (interval_energy(d, g, -1.7, -0.2345, "full")
             + interval_energy(d, g, -0.2345, 1.3, "full"))
    assert split == pytest.approx(total, rel=1e-12)


def test_interval_energy_inside_one_cell():
    g = GridSpec(-2.0, 2.0, 400)                       # dx = 0.01
    rng = np.random.default_rng(5)
    d = compute_densities(_state(rng.normal(size=401), rng.normal(size=401)), g, P3)
    a, c, b = 0.1234, 0.125, 0.1287                    # all inside [0.12, 0.13]
    # the trapezoid rule integrates the linear interpolant exactly
    f = np.interp([a, b], g.nodes, d.e_full)
    total = interval_energy(d, g, a, b, "full")
    assert total == pytest.approx((b - a) * 0.5 * (f[0] + f[1]), rel=1e-12)
    split = interval_energy(d, g, a, c, "full") + interval_energy(d, g, c, b, "full")
    assert split == pytest.approx(total, rel=1e-12)


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_interval_energy_additivity_property(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    g = GridSpec(-2.0, 2.0, 100)
    rng = np.random.default_rng(11)
    d = compute_densities(_state(rng.normal(size=101), rng.normal(size=101)), g, P3)
    total = interval_energy(d, g, lo, hi, "plus")
    split = (interval_energy(d, g, lo, mid, "plus")
             + interval_energy(d, g, mid, hi, "plus"))
    assert split == pytest.approx(total, rel=1e-10, abs=1e-13)


def test_conserved_pair_identities_and_right_mover():
    g = GridSpec(-10.0, 10.0, 10000)
    nl = Nonlinearity(p=3.0, sign="disabled")
    init = InitialData.gaussian(amplitude=1.0, velocity_fraction=1.0)
    u0, u1 = init.sample(g)
    d = compute_densities(_state(u0, u1), g, nl)
    E, M, Ep, Em = conserved_pair(d, g)
    # pure right-mover: left-going energy vanishes and M = -E
    assert Em <= 1e-10
    assert abs(M + E) <= 1e-10
    assert Ep == pytest.approx((E - M) / 2.0, rel=1e-12)


def test_zero_conserved_pair():
    g = GridSpec(-1.0, 1.0, 10)
    d = compute_densities(_state(np.zeros(11), np.zeros(11)), g, P3)
    assert conserved_pair(d, g) == (0.0, 0.0, 0.0, 0.0)


def test_light_cone_energy_monotone():
    g = GridSpec(-20.0, 20.0, 2000)  # dx = 0.02
    init = InitialData.gaussian(amplitude=1.0)
    traj = Trajectory.record(init, g, P3, 10.0)
    assert light_cone_energy(traj, eta=5.0, t=2.0) == 0.0  # empty cone
    vals = [light_cone_energy(traj, eta=-1.0, t=float(t)) for t in range(1, 11)]
    E = conserved_pair(compute_densities(traj.state(0), g, P3), g)[0]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-8 * E)


def test_zero_trajectory_cone_and_morawetz():
    g = GridSpec(-5.0, 5.0, 250)
    traj = Trajectory.record(InitialData.zero(), g, P3, 3.0)
    assert light_cone_energy(traj, eta=0.0, t=2.0) == 0.0
    assert morawetz_accumulator(traj, 3.0) == 0.0


def _nan_poked(traj):
    u_levels = traj.u_levels.copy()
    u_levels[3, u_levels.shape[1] // 3] = math.nan
    return Trajectory(traj.grid, traj.nl, traj.times, u_levels, traj.v_levels)


def _negative_zero_ends():
    """A recorded bump whose rows carry -0.0 just outside their nonzero nodes;
    row 2 holds only -0.0 and +0.0, so its bit extent is not empty."""
    traj = Trajectory.record(InitialData.polynomial_bump(amplitude=0.5),
                             GridSpec(-4.0, 4.0, 400), P3, 1.5)
    u_levels = traj.u_levels.copy()
    for u in u_levels:
        nonzero = np.flatnonzero(u)
        u[[nonzero[0] - 3, nonzero[-1] + 2]] = -0.0
    u_levels[2] = 0.0
    u_levels[2, [40, 41, 350]] = -0.0
    return Trajectory(traj.grid, traj.nl, traj.times, u_levels, traj.v_levels)


def _recorded(init, nl):
    return lambda: Trajectory.record(init, GridSpec(-4.0, 4.0, 400), nl, 1.5)


_MORAWETZ_RUNS = {
    # a negative bump samples to -0.0 outside its support
    "negative bump": _recorded(InitialData.polynomial_bump(amplitude=-0.8), P3),
    "focusing": _recorded(InitialData.polynomial_bump(amplitude=0.5),
                          Nonlinearity(p=3.0, sign="focusing")),
    "zero": _recorded(InitialData.zero(), P3),
    "-0.0 extent ends": _negative_zero_ends,
}


@pytest.mark.parametrize("name", sorted(_MORAWETZ_RUNS))
def test_morawetz_bits_match_full_row_reference(name):
    traj = _MORAWETZ_RUNS[name]()
    for t_max in (0.0, 0.52, 1.5):
        got = morawetz_accumulator(traj, t_max)
        assert got.hex() == full_row_morawetz(traj, t_max).hex()
    # a NaN sits inside the extent the zero skip computes over
    assert math.isnan(morawetz_accumulator(_nan_poked(traj), 1.5))


def test_morawetz_monotone_and_saturating():
    g = GridSpec(-60.0, 60.0, 2400)  # dx = 0.05
    traj = Trajectory.record(InitialData.gaussian(amplitude=1.0), g, P3, 50.0)
    m10 = morawetz_accumulator(traj, 10.0)
    m25 = morawetz_accumulator(traj, 25.0)
    m50 = morawetz_accumulator(traj, 50.0)
    assert 0.0 < m10 <= m25 <= m50
    # saturation consistent with the finite space-time bound
    assert (m50 - m25) < 0.05 * m50
