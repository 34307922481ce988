import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavelab1d import solver
from wavelab1d import (BlowUpDetected, DomainTooSmall, GridSpec, InitialData,
                       Nonlinearity, Observer, Trajectory, ValidationError, evolve)
from wavelab1d.energy import norms
from tests_support import every_level, first_step, level_bytes, with_full_grid

P3 = Nonlinearity(p=3.0)
LINEAR = Nonlinearity(p=3.0, sign="disabled")


def test_zero_data_is_fixed_point():
    g = GridSpec(-5.0, 5.0, 500)
    states = []
    obs = Observer(times=[0.0, 2.5, 5.0, 7.5, 10.0], fn=states.append)
    final = evolve(InitialData.zero(), g, P3, 10.0, observers=[obs])
    assert final.t == pytest.approx(10.0)
    for s in states:
        assert np.all(s.u == 0.0) and np.all(s.v == 0.0)


def test_linear_shift_exact_at_cfl_one():
    # with cfl = 1 the leapfrog update transports a right-mover exactly
    g = GridSpec(-8.0, 8.0, 1600)
    init = InitialData.polynomial_bump(amplitude=1.0, center=-2.0, radius=1.0,
                                       power=3, velocity_fraction=1.0)
    s = evolve(init, g, LINEAR, 3.0)
    expected = init.u0_at(g.nodes - 3.0)
    assert np.abs(s.u - expected).max() <= 1e-12


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_linear_splitting_lp_norm_ratio(p):
    # u1 = 0 data split into two half-amplitude copies; once their supports
    # are disjoint the L^(p+1) norm is exactly 2^(-p/(p+1)) of its initial
    # value (8^(-1/4) at p = 3), the floor of the c05 decay bound
    g = GridSpec(-5.0, 5.0, 1000)
    nl = Nonlinearity(p=p, sign="disabled")
    init = InitialData.gaussian(amplitude=6.0, width=0.25)
    lo, hi = init.support_interval()
    assert 3.0 > (hi - lo) / 2.0
    states = []
    evolve(init, g, nl, 3.0, observers=[Observer([0.0, 3.0], states.append)])
    ratio = norms(states[1], g, nl)[0] / norms(states[0], g, nl)[0]
    assert ratio == pytest.approx(2.0 ** (-p / (p + 1.0)), rel=1e-13, abs=0.0)


def test_first_step_trivial_cases():
    g = GridSpec(-2.0, 2.0, 100)
    zero = first_step(InitialData.zero(), g, P3)
    assert np.all(zero.u == 0.0)

    # constant velocity: u1 = dt in the interior (free Taylor step)
    n = g.n_nodes
    init = InitialData.explicit(np.zeros(n), np.ones(n))
    s = first_step(init, g, LINEAR)
    assert np.allclose(s.u[1:-1], g.dt, rtol=0, atol=1e-15)

    # constant displacement: u1 = c - (dt^2/2) c^3 in the interior
    c = 0.7
    init = InitialData.explicit(np.full(n, c), np.zeros(n))
    s = first_step(init, g, P3)
    assert np.allclose(s.u[1:-1], c - 0.5 * g.dt ** 2 * c ** 3, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p", [3.0, 2.5])
def test_first_step_is_one_step_of_evolve(cfl, p):
    g = GridSpec(-4.0, 4.0, 400, cfl=cfl)
    nl = Nonlinearity(p=p)
    init = InitialData.gaussian(amplitude=1.0, width=0.5, velocity_fraction=0.3)
    a = first_step(init, g, nl)
    b = evolve(init, g, nl, g.dt)
    assert a.t == b.t
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 5.0])
def test_power_term_out_matches_allocating_form(p):
    nl = Nonlinearity(p=p)
    u = np.random.default_rng(0).normal(scale=3.0, size=10_000)
    out = np.empty_like(u)
    assert nl.power_term(u, out=out) is out
    assert np.array_equal(out, nl.power_term(u))
    np.testing.assert_allclose(out, np.abs(u) ** (p - 1.0) * u, rtol=1e-15, atol=0.0)


WINDOW_DATA = {
    "mirrored_bump": InitialData.polynomial_bump(amplitude=3.0, center=1.5, radius=1.0,
                                                 mirror=True),
    # samples to -0.0 on every node outside its support
    "negative_bump": InitialData.polynomial_bump(amplitude=-0.8, radius=1.0),
    "moving_gaussian": InitialData.gaussian(amplitude=1.0, center=-1.0, width=0.5,
                                            velocity_fraction=0.5),
    "zero": InitialData.zero(),
}


@pytest.mark.parametrize("cfl", [1.0, 0.9, 0.5])
@pytest.mark.parametrize("p", [3.0, 2.5])
@pytest.mark.parametrize("sign", ["defocusing", "focusing", "disabled"])
def test_windowed_evolve_matches_full_grid_loop(cfl, p, sign):
    # every emitted level, and the (t, sup) of each blow-up, bit for bit
    g = GridSpec(-8.0, 8.0, 800, cfl=cfl)
    nl = Nonlinearity(p=p, sign=sign)
    for name, init in WINDOW_DATA.items():
        got = level_bytes(evolve, init, g, nl, 1.5)
        assert got == with_full_grid(level_bytes, evolve, init, g, nl, 1.5), name
        # the focusing mirrored bump is the blow-up case
        assert (got[0] == "blowup") == (sign == "focusing" and name == "mirrored_bump")


@pytest.mark.parametrize("cfl", [1.0, 0.9, 0.5])
def test_windowed_first_step_clamps_to_the_interior(cfl):
    # data nonzero on every node, boundary included
    g = GridSpec(-2.0, 2.0, 100, cfl=cfl)
    rng = np.random.default_rng(7)
    init = InitialData.explicit(rng.normal(size=g.n_nodes), rng.normal(size=g.n_nodes))
    for nl in (P3, LINEAR, Nonlinearity(p=2.5, sign="focusing")):
        a = first_step(init, g, nl)
        b = with_full_grid(first_step, init, g, nl)
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()


SIGNED_SAMPLES = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cfl=st.floats(0.3, 1.0), p=st.floats(1.1, 5.0),
       sign=st.sampled_from(["defocusing", "focusing", "disabled"]),
       n_steps=st.integers(1, 30), guard_frac=st.sampled_from([None, 0.9, 0.999]))
def test_windowed_evolve_matches_full_grid_on_sparse_data(data, cfl, p, sign, n_steps,
                                                          guard_frac):
    # nonzero samples on a few central nodes, -0.0 anywhere (it is not support,
    # so it may sit on the boundary nodes)
    g = GridSpec(-20.0, 20.0, 100, cfl=cfl)
    n = g.n_nodes
    u = np.zeros(n)
    v = np.zeros(n)
    nodes = st.integers(0, n - 1)
    for arr in (u, v):
        for j in data.draw(st.lists(st.integers(40, 60), max_size=6)):
            arr[j] = data.draw(SIGNED_SAMPLES)
        for j in data.draw(st.lists(nodes, max_size=3)):
            if arr[j] == 0.0:
                arr[j] = -0.0
    init = InitialData.explicit(u, v)
    args = (init, g, Nonlinearity(p=p, sign=sign), n_steps * g.dt)
    guard = 1e8
    levels = with_full_grid(level_bytes, evolve, *args)
    if guard_frac is not None and levels[0] != "blowup":
        # above the data's sup and below the later levels' sup: trips mid-run
        later = max(np.abs(np.frombuffer(u_bytes)).max() for _, u_bytes, _ in levels[1:])
        sup0 = max(np.abs(u).max(), np.abs(v).max())
        guard = max(guard_frac * later, np.nextafter(sup0, np.inf))
    assert level_bytes(evolve, *args, guard=guard) == \
        with_full_grid(level_bytes, evolve, *args, guard=guard)


def march(*args, **kwargs):
    """``evolve`` without its domain check, so data may sit next to the boundary."""
    with mock.patch.object(solver, "_check_domain", lambda *a: None):
        return evolve(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_cells=st.integers(3, 60), cfl=st.sampled_from([1.0, 0.9, 0.5]),
       p=st.sampled_from([2.0, 2.5, 3.0, 5.0]),
       sign=st.sampled_from(["defocusing", "focusing", "disabled"]),
       n_steps=st.integers(1, 40), guard_frac=st.sampled_from([None, 0.9, 0.999, math.inf]))
def test_mirror_path_matches_full_grid_reference(data, n_cells, cfl, p, sign, n_steps,
                                                 guard_frac):
    # palindromic data, mirrored from a random half: the half-lattice loop
    # against the full-grid loop at every level, blow-ups included; then the
    # same data with one sign bit of u0 or u1 flipped, so that level 0 or
    # maybe level 1 is no palindrome and the full-grid path runs
    g = GridSpec(-20.0, 20.0, n_cells, cfl=cfl)
    n = g.n_nodes
    h = (n + 1) // 2
    halves = []
    for _ in range(2):
        half = np.zeros(h)
        for j in data.draw(st.lists(st.integers(0, h - 1), max_size=8)):
            half[j] = data.draw(SIGNED_SAMPLES)
        halves.append(np.concatenate((half, half[:n - h][::-1])))
    nl = Nonlinearity(p=p, sign=sign)
    runs = [halves]
    for i in range(2):
        flipped = [arr.copy() for arr in halves]
        j = data.draw(st.integers(0, n - 1).filter(lambda j: 2 * j != n - 1))
        flipped[i][j] = -flipped[i][j]
        runs.append(flipped)
    for flips, (u0, u1) in enumerate(runs):
        init = InitialData.explicit(u0, u1)
        args = (init, g, nl, n_steps * g.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            level1 = solver._start_level(u0, u1, init, g, nl)
            guard = math.inf if guard_frac == math.inf else 1e8
            levels = with_full_grid(level_bytes, march, *args, guard=guard)
            if guard_frac not in (None, math.inf) and levels[0] != "blowup":
                later = max(np.abs(np.frombuffer(u_bytes)).max() for _, u_bytes, _ in levels[1:])
                guard = max(guard_frac * later, np.nextafter(np.abs(u0).max(), np.inf))
                levels = with_full_grid(level_bytes, march, *args, guard=guard)
            with mock.patch.object(solver, "aligned_zeros",
                                   wraps=solver.aligned_zeros) as spy:
                assert level_bytes(march, *args, guard=guard) == levels
        mirrored = n > 3 and all(a.tobytes() == a[::-1].tobytes() for a in (u0, level1))
        assert mirrored or flips or n == 3  # the unflipped data take the half path
        if levels[0] != "blowup" or levels[1] > 0.0:
            length = h + 1 if mirrored else n
            assert [call.args for call in spy.call_args_list] == [(6, length)]


@pytest.mark.parametrize("cfl", [1.0, 0.9, 0.5])
@pytest.mark.parametrize("p", [3.0, 2.5])
def test_aligned_window_clamps_at_both_grid_edges(cfl, p):
    # data on nodes 1 and n - 2, so the window rounded out to cache lines is
    # cut back to [1, n - 1) on both sides from the first step
    for n_cells in range(8, 20):
        g = GridSpec(-1.0, 1.0, n_cells, cfl=cfl)
        n = g.n_nodes
        u = np.zeros(n)
        v = np.zeros(n)
        u[[1, n - 2]] = [0.7, -1.3]
        v[[1, n - 2]] = [-0.4, 0.9]
        init = InitialData.explicit(u, v)
        for sign in ("defocusing", "focusing", "disabled"):
            args = (init, g, Nonlinearity(p=p, sign=sign), 3 * n * g.dt)
            assert level_bytes(march, *args) == \
                with_full_grid(level_bytes, march, *args), (n_cells, sign)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfl=st.floats(0.3, 1.0), p=st.floats(1.1, 5.0),
       n_steps=st.integers(12, 60))
def test_guard_bound_skips_checks_and_trips_mid_block_like_full_grid(data, cfl, p,
                                                                      n_steps):
    # focusing data that grow; the guard sits just below the sup of a level
    # k >= 12 that exceeds every earlier sup, so both loops trip at level k
    g = GridSpec(-40.0, 40.0, 200, cfl=cfl)
    n = g.n_nodes
    u = np.zeros(n)
    v = np.zeros(n)
    for arr in (u, v):
        for j in data.draw(st.lists(st.integers(90, 110), max_size=6)):
            arr[j] = data.draw(st.floats(-3.0, 3.0))
    init = InitialData.explicit(u, v)
    nl = Nonlinearity(p=p, sign="focusing")
    t_end = n_steps * g.dt
    sups = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            with_full_grid(evolve, init, g, nl, t_end, guard=math.inf,
                           observers=[every_level(g, t_end,
                                                  lambda s: sups.append(np.abs(s.u).max()))])
        except BlowUpDetected:
            pass
    # a guard this far above levels 0 and 1 leaves level 2 unchecked
    trips = [k for k in range(12, len(sups))
             if sups[k] > max(sups[:k]) and sups[k] >= 1e6 * max(sups[:2])]
    assume(trips)
    k = data.draw(st.sampled_from(trips))
    guard = np.nextafter(sups[k], 0.0)

    with mock.patch.object(solver, "_guard_check", wraps=solver._guard_check) as spy:
        got = level_bytes(evolve, init, g, nl, t_end, guard=guard)
    assert got == with_full_grid(level_bytes, evolve, init, g, nl, t_end, guard=guard)
    assert got[:2] == ("blowup", k * g.dt)
    checked = {round(call.args[1] / g.dt) for call in spy.call_args_list}
    assert max(checked) == k and 2 not in checked
    assert len(checked) < k + 1


@pytest.mark.parametrize("guard", [math.inf, 1e300])
def test_huge_guards_follow_the_full_grid_loop(guard):
    # the sup bound overflows (float ** float raises OverflowError) before the
    # levels do; the exact checks it forces trip at the full grid's level
    g = GridSpec(-24.0, 24.0, 480)
    init = InitialData.polynomial_bump(amplitude=6.0, radius=1.0, power=2)
    nl = Nonlinearity(p=3.0, sign="focusing")
    with np.errstate(over="ignore", invalid="ignore"):
        got = level_bytes(evolve, init, g, nl, 20.0, guard=guard)
        assert got == with_full_grid(level_bytes, evolve, init, g, nl, 20.0, guard=guard)
    assert got[0] == "blowup" and 0.0 < got[1] < 20.0

    zeros = np.zeros(g.n_nodes)
    bad = zeros.copy()
    bad[240] = np.nan
    for u, v, t in ((bad, zeros, 0.0), (zeros, bad, g.dt)):
        with pytest.raises(BlowUpDetected) as info:
            evolve(InitialData.explicit(u, v), g, nl, 1.0, guard=guard)
        assert info.value.t == t and math.isnan(info.value.sup_value)


@pytest.mark.parametrize("cfl", [1.0, 0.5])
def test_domain_check_at_the_exact_boundary(cfl):
    # support plus (n_steps + 2) dx lands exactly on both domain edges
    g = GridSpec(-2.0, 2.0, 200, cfl=cfl)
    n = g.n_nodes
    j_lo = 30
    u0 = np.zeros(n)
    u0[j_lo:n - j_lo] = 0.5
    init = InitialData.explicit(u0, np.zeros(n))
    n_steps = j_lo - 2
    s = evolve(init, g, P3, n_steps * g.dt)
    assert s.u[0] == 0.0 and s.u[-1] == 0.0
    assert s.u[1] == 0.0 and s.u[2] != 0.0  # the cone reached node 2
    ref = with_full_grid(evolve, init, g, P3, n_steps * g.dt)
    assert s.u.tobytes() == ref.u.tobytes() and s.v.tobytes() == ref.v.tobytes()
    with pytest.raises(DomainTooSmall):
        evolve(init, g, P3, (n_steps + 1) * g.dt)


def test_finite_speed_of_propagation_exact_on_lattice():
    g = GridSpec(-10.0, 10.0, 1000)  # dx = 0.02, cfl = 1
    init = InitialData.polynomial_bump(amplitude=1.0, radius=1.0, power=2)
    levels = []
    obs = Observer(times=[2.0, 4.0, 6.0], fn=levels.append)
    evolve(init, g, P3, 6.0, observers=[obs])
    for s in levels:
        outside = np.abs(g.nodes) > 1.0 + s.t + 2 * g.dx + 1e-12
        assert np.all(s.u[outside] == 0.0)


def test_time_reversal_symmetry():
    g = GridSpec(-12.0, 12.0, 1200)  # dx = 0.02
    init = InitialData.gaussian(amplitude=1.0)
    u0, u1 = init.sample(g)
    fwd = evolve(init, g, P3, 2.0)
    back = evolve(InitialData.explicit(fwd.u, -fwd.v), g, P3, 2.0)
    err = np.abs(back.u - u0).max()
    assert err <= 50.0 * g.dx ** 2


def test_determinism_bit_identical():
    g = GridSpec(-8.0, 8.0, 800)
    init = InitialData.gaussian(amplitude=1.0, velocity_fraction=0.3)
    a = evolve(init, g, P3, 2.0)
    b = evolve(init, g, P3, 2.0)
    assert np.all(a.u == b.u) and np.all(a.v == b.v)


def test_domain_too_small():
    g = GridSpec(-5.0, 5.0, 500)
    with pytest.raises(DomainTooSmall):
        evolve(InitialData.gaussian(), g, P3, 10.0)


def test_blowup_detected_for_focusing():
    g = GridSpec(-24.0, 24.0, 4800)
    init = InitialData.polynomial_bump(amplitude=6.0, radius=1.0, power=2)
    with pytest.raises(BlowUpDetected) as info:
        evolve(init, g, Nonlinearity(p=3.0, sign="focusing"), 20.0)
    assert 0.0 < info.value.t < 20.0


def test_blowup_guard_reads_u_at_every_level():
    # t = 0 included: a large velocity alone does not stop the run
    g = GridSpec(-2.0, 2.0, 200)
    zeros = np.zeros(g.n_nodes)
    v = zeros.copy()
    v[100] = 2e8
    s = evolve(InitialData.explicit(zeros, v), g, LINEAR, 0.1)
    assert s.t == pytest.approx(0.1)
    assert np.abs(s.u).max() < 1e8

    v[100] = np.nan
    with pytest.raises(BlowUpDetected) as info:
        evolve(InitialData.explicit(zeros, v), g, LINEAR, 0.1)
    assert info.value.t == g.dt
    with pytest.raises(ValidationError):
        evolve(InitialData.explicit(zeros, v), g, LINEAR, 0.1,
               observers=[Observer([0.0], lambda s: None)])

    u = zeros.copy()
    u[100] = 2e8
    with pytest.raises(BlowUpDetected) as info:
        evolve(InitialData.explicit(u, zeros), g, LINEAR, 0.1)
    assert info.value.t == 0.0


def test_observer_beyond_horizon_rejected():
    g = GridSpec(-5.0, 5.0, 500)
    obs = Observer(times=[3.0], fn=lambda s: None)
    with pytest.raises(Exception):
        evolve(InitialData.zero(), g, P3, 1.0, observers=[obs])


def test_trajectory_record_levels():
    g = GridSpec(-4.0, 4.0, 400)
    init = InitialData.polynomial_bump(amplitude=0.5, radius=1.0)
    traj = Trajectory.record(init, g, P3, 1.0)
    assert traj.n_levels == 51
    s = traj.state(traj.level_of(0.5))
    direct = []
    evolve(init, g, P3, 1.0, observers=[Observer([0.5], direct.append)])
    assert np.all(s.u == direct[0].u)
    assert np.all(s.v == direct[0].v)


@pytest.mark.parametrize("t_end", [1.0, 0.0])
@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p", [3.0, 2.5])
def test_trajectory_velocities_are_the_steppers_bits(cfl, p, t_end):
    # recomputed velocities against a copy of every emitted state.v
    g = GridSpec(-8.0, 8.0, 800, cfl=cfl)
    nl = Nonlinearity(p=p)
    rng = np.random.default_rng(3)
    for name in ("negative_bump", "moving_gaussian"):
        init = WINDOW_DATA[name]
        emitted = []
        evolve(init, g, nl, t_end,
               observers=[every_level(g, t_end, lambda s: emitted.append(s.v))])
        traj = Trajectory.record(init, g, nl, t_end)
        assert traj.v_levels.shape == (2, g.n_nodes)
        assert traj.n_levels == len(emitted)
        for m, v in enumerate(emitted):
            assert traj.state(m).v.tobytes() == v.tobytes(), (name, m)
        if t_end == 0.0:
            assert traj.v_levels[0].tobytes() == traj.v_levels[-1].tobytes()
        last = traj.n_levels - 1
        levels = np.concatenate([[0, last, 0, last], rng.integers(0, last + 1, 200)])
        js = rng.integers(0, g.n_nodes, levels.size)
        _, _, ut = traj.pointwise(levels, js)
        expected = np.array([emitted[m][j] for m, j in zip(levels, js)])
        assert ut.tobytes() == expected.tobytes(), name
        _, _, ut = traj.pointwise([-1, -traj.n_levels], [0, 0])
        assert ut.tobytes() == np.array([emitted[-1][0], emitted[0][0]]).tobytes()
        with pytest.raises(IndexError):
            traj.pointwise([-traj.n_levels - 1], [0])


def _whole_rows(init, g, nl, t_end, **kwargs):
    """Every emitted state.u written whole into a dense array: the store's reference."""
    rows = np.empty((solver.steps_for(t_end, g.dt) + 1, g.n_nodes))

    def store(state):
        rows[g.step_of(state.t)] = state.u

    evolve(init, g, nl, t_end, observers=[every_level(g, t_end, store)], **kwargs)
    return rows


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("t_end", [1.0, 0.0])
@pytest.mark.parametrize("cfl", [1.0, 0.9])
def test_trajectory_store_matches_whole_rows(cfl, t_end, lazy, monkeypatch):
    # the extent-only store in the lazily zeroed mapping (or in np.zeros where
    # anonymous mappings are missing): -0.0 outside the negative bump's
    # support, the moving gaussian's full path, the mirrored bump's half
    # path, and zero data, of which nothing is written
    if not lazy:
        monkeypatch.delattr(solver.mmap, "MAP_ANONYMOUS", raising=False)
    g = GridSpec(-8.0, 8.0, 800, cfl=cfl)
    for name in ("negative_bump", "moving_gaussian", "mirrored_bump", "zero"):
        init = WINDOW_DATA[name]
        traj = Trajectory.record(init, g, P3, t_end)
        expected = _whole_rows(init, g, P3, t_end)
        assert traj.u_levels.shape == expected.shape and traj.u_levels.dtype == np.float64
        assert traj.u_levels.nbytes == expected.nbytes
        assert traj.u_levels.tobytes() == expected.tobytes(), name
        assert traj.u_levels.flags.c_contiguous and not traj.u_levels.flags.writeable
        if name == "negative_bump":
            assert np.signbit(expected[0][expected[0] == 0.0]).any()


@pytest.mark.parametrize("cfl", [1.0, 0.9])
def test_trajectory_record_raises_the_steppers_blowup(cfl):
    # a guard trip mid-record: the focusing mirrored bump at the default
    # guard, and at the sup it reaches at t = 0.2
    g = GridSpec(-8.0, 8.0, 800, cfl=cfl)
    focusing = Nonlinearity(p=3.0, sign="focusing")
    init = WINDOW_DATA["mirrored_bump"]
    sups = np.abs(_whole_rows(init, g, focusing, 0.2)).max(axis=1)
    for t_end, guard in ((1.5, solver.DEFAULT_BLOWUP_GUARD), (1.0, float(sups[-1]))):
        expected = level_bytes(evolve, init, g, focusing, t_end, guard=guard)
        assert expected[0] == "blowup" and 0.0 < expected[1] < t_end
        with pytest.raises(BlowUpDetected) as info:
            Trajectory.record(init, g, focusing, t_end, guard=guard)
        assert ("blowup", info.value.t, float(info.value.sup_value).hex()) == expected


def _vm_rss():
    """Resident bytes of this process."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmRSS:"))
    return int(line.split()[1]) * 1024


def _vm_flags(address):
    """The VmFlags of the mapping that starts at ``address`` (empty if none does)."""
    start = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(" ", 1)[0]
            if "-" in head and ":" not in head:
                start = int(head.split("-")[0], 16)
            elif line.startswith("VmFlags:") and start == address:
                return line.split()[1:]
    return []


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_trajectory_keeps_only_the_cone_resident():
    # a narrow bump in a wide box: 310 MB of levels, about 3% of them in the
    # lattice cone; storing the cone and reading every level leave the rest
    # of the array unresident
    g = GridSpec(-10.0, 10.0, 44_000)
    init = InitialData.polynomial_bump(amplitude=1.0, radius=0.1)
    before = _vm_rss()
    traj = Trajectory.record(init, g, P3, 0.4)
    recorded = _vm_rss()
    total = float(traj.u_levels.sum())
    read = _vm_rss()
    nbytes = traj.u_levels.nbytes
    assert nbytes > 3e8 and total > 0.0
    assert recorded - before < nbytes / 4
    assert read - recorded < nbytes / 20
    if os.path.exists("/sys/kernel/mm/transparent_hugepage/enabled"):
        assert "nh" in _vm_flags(traj.u_levels.ctypes.data)


def test_convergence_order_against_oracle():
    from wavelab1d import evolve_by_dalembert
    diffs = []
    for dx in (5e-3, 2.5e-3):
        g = GridSpec(-8.0, 8.0, int(round(16 / dx)))
        init = InitialData.gaussian(amplitude=0.5)
        oracle = evolve_by_dalembert(init, g, P3, 0.25)
        leap = evolve(init, g, P3, 0.25)
        diffs.append(np.abs(oracle.u - leap.u).max())
    ratio = diffs[0] / diffs[1]
    assert 3.0 <= ratio <= 5.0
