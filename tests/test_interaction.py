import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab1d import (GridSpec, InitialData, Nonlinearity, Trajectory,
                       compute_densities, interaction_q,
                       pairwise_weighted_distance, virial_check)
from wavelab1d.grid import FieldState
from wavelab1d.interaction import _LEAF as LEAF, _tree_sum

from tests_support import blockwise_brute_force

P3 = Nonlinearity(p=3.0)


def test_single_weight_gives_zero():
    x = np.array([0.0, 1.0, 2.0])
    w = np.array([0.0, 3.0, 0.0])
    assert pairwise_weighted_distance(x, w, "prefix_sum") == 0.0
    assert pairwise_weighted_distance(x, w, "brute_force") == 0.0


def test_two_unit_weights():
    # ordered pairs count both directions: 2 * |2| * 1 * 1 = 4
    x = np.array([0.0, 2.0])
    w = np.array([1.0, 1.0])
    assert pairwise_weighted_distance(x, w, "prefix_sum") == pytest.approx(4.0)
    assert pairwise_weighted_distance(x, w, "brute_force") == pytest.approx(4.0)


def test_methods_agree_on_random_input():
    rng = np.random.default_rng(123)
    x = np.sort(rng.uniform(-10, 10, 10_000))
    w = rng.uniform(0, 1, 10_000)
    qb = pairwise_weighted_distance(x, w, "brute_force")
    qp = pairwise_weighted_distance(x, w, "prefix_sum")
    assert abs(qp - qb) <= 1e-10 * qb


@given(st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 10.0)),
                min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_methods_agree_property(pairs):
    # increments of zero produce repeated positions (adversarial input)
    incs = np.array([p[0] for p in pairs])
    w = np.array([p[1] for p in pairs])
    x = np.cumsum(incs)
    qb = pairwise_weighted_distance(x, w, "brute_force")
    qp = pairwise_weighted_distance(x, w, "prefix_sum")
    # floor: coincident nonzero positions make q exactly 0 by cancellation
    # in one method and round-off-small in the other
    noise = 1e-12 * (1.0 + float(np.sum(w)) ** 2 * float(np.max(x, initial=0.0)))
    assert abs(qp - qb) <= 1e-10 * qb + noise


def _brute_force_input(n, zero_fraction, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-10.0, 10.0, n))
    w = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    w[rng.random(n) < zero_fraction] = 0.0
    return x, w


@pytest.mark.parametrize("n, zero_fraction", [(1, 0.0), (7, 0.0), (1023, 0.0),
                                              (1025, 0.0), (3000, 0.3)])
def test_brute_force_bits_match_blockwise_reference(n, zero_fraction):
    x, w = _brute_force_input(n, zero_fraction, seed=n)
    got = pairwise_weighted_distance(x, w, "brute_force")
    assert got.hex() == blockwise_brute_force(x, w).hex()


@pytest.mark.parametrize("size", [LEAF - 1, LEAF, LEAF + 1, LEAF + 9, 2 * LEAF - 1,
                                  2 * LEAF + 1, 3 * LEAF + 5, 8 * LEAF + 17])
def test_leaf_tree_sum_matches_ndarray_sum(size):
    # a numpy change to its pairwise summation fails here, not in the digests
    rng = np.random.default_rng(size)
    a = rng.standard_normal(size + 3) * 10.0 ** rng.uniform(-8.0, 8.0, size + 3)
    for lo in (0, 3):
        got = _tree_sum(lambda i, j: a[i:j].sum(), lo, lo + size)
        assert float(got).hex() == float(a[lo:lo + size].sum()).hex()


def test_brute_force_memory_is_leaf_sized():
    x, w = _brute_force_input(6000, 0.0, seed=6)
    tracemalloc.start()
    try:
        pairwise_weighted_distance(x, w, "brute_force")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1024-row block of 6,000 columns alone would be 49 MB
    assert peak < 8e6


def test_all_equal_positions_give_zero():
    x = np.zeros(100)
    w = np.geomspace(1e-6, 1e3, 100)
    assert pairwise_weighted_distance(x, w, "prefix_sum") == pytest.approx(0.0, abs=1e-9)


def test_prefix_requires_sorted_positions():
    from wavelab1d.errors import ValidationError
    with pytest.raises(ValidationError):
        pairwise_weighted_distance(np.array([1.0, 0.0]), np.ones(2), "prefix_sum")


def test_prefix_sum_speed_budget():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-50, 50, 1_000_000))
    w = rng.uniform(0, 1, 1_000_000)
    import time
    t0 = time.time()
    pairwise_weighted_distance(x, w, "prefix_sum")
    assert time.time() - t0 <= 0.1


def test_interaction_q_from_densities():
    g = GridSpec(-2.0, 2.0, 200)
    init = InitialData.polynomial_bump(amplitude=1.0, radius=1.0)
    u0, u1 = init.sample(g)
    d = compute_densities(FieldState(t=0.0, u=u0, v=u1), g, P3)
    q_fast = interaction_q(d, g, "prefix_sum")
    q_slow = interaction_q(d, g, "brute_force")
    assert q_fast == pytest.approx(q_slow, rel=1e-12)
    assert q_fast > 0.0


def test_virial_zero_solution():
    g = GridSpec(-4.0, 4.0, 400)
    traj = Trajectory.record(InitialData.zero(), g,
                             Nonlinearity(p=3.0, sign="focusing"), 1.0)
    rep = virial_check(traj, 1.0)
    assert np.all(rep.I_values == 0.0)
    assert np.all(rep.lhs_rhs_residuals == 0.0)


def test_virial_reads_each_level_once(monkeypatch):
    g = GridSpec(-4.0, 4.0, 400)                       # dt = 0.02
    init = InitialData.polynomial_bump(amplitude=0.5, radius=1.0, power=2)
    traj = Trajectory.record(init, g, Nonlinearity(p=3.0, sign="focusing"), 0.5)
    reads = []
    state = Trajectory.state
    monkeypatch.setattr(Trajectory, "state",
                        lambda self, level: reads.append(level) or state(self, level))
    virial_check(traj, 1.0)
    assert reads == list(range(traj.n_levels))
    reads.clear()
    rep = virial_check(traj, 1.0, s_values=[0.3, 0.1, 0.12])
    assert reads == [4, 5, 6, 7, 14, 15, 16]
    assert np.array_equal(rep.s_values, [0.3, 0.1, 0.12])
    reads.clear()
    rep = virial_check(traj, 1.0, s_values=[])
    assert reads == []
    for arr in (rep.s_values, rep.I_values, rep.lhs_rhs_residuals):
        assert arr.shape == (0,) and arr.dtype == np.float64


def test_virial_initially_zero_for_time_symmetric_data():
    # u1 = 0 makes the integrand u_y * u_s vanish at t = 0
    g = GridSpec(-4.0, 4.0, 800)
    nl = Nonlinearity(p=3.0, sign="focusing")
    init = InitialData.polynomial_bump(amplitude=0.5, radius=1.0, power=2)
    traj = Trajectory.record(init, g, nl, 0.5)
    from wavelab1d import sample_derivatives
    from wavelab1d.energy import trapezoid
    state0 = traj.state(0)
    ux, ut = sample_derivatives(state0, g)
    a = np.clip(g.nodes, -1.0, 1.0)
    assert trapezoid(a * ux * ut, g.dx) == 0.0


def test_virial_identity_second_order():
    nl = Nonlinearity(p=3.0, sign="focusing")
    init = InitialData.polynomial_bump(amplitude=0.5, radius=1.0, power=2)
    residuals = []
    for dx in (0.01, 0.005):
        g = GridSpec(-4.0, 4.0, int(round(8 / dx)))
        traj = Trajectory.record(init, g, nl, 2.0)
        rep = virial_check(traj, 1.0, s_values=[0.5, 1.0, 1.5])
        residuals.append(np.abs(rep.lhs_rhs_residuals).max())
        # |I| <= (R/2) * squared H1 x L2 norm
        from wavelab1d.energy import norms
        for s, I in zip(rep.s_values, rep.I_values):
            _, _, h1l2 = norms(traj.state(traj.level_of(s)), g, nl)
            assert abs(I) <= 0.5 * 1.0 * h1l2 + 1e-12
    assert 3.0 <= residuals[0] / residuals[1] <= 5.0
