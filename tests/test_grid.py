import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelab1d import (GridSpec, InitialData, Nonlinearity, ValidationError,
                       sample_derivatives)
from wavelab1d.grid import FieldState, aligned_zeros, bit_extent, stencil_ux

from tests_support import gather_stencil_ux


def test_nonlinearity_validation():
    with pytest.raises(ValidationError):
        Nonlinearity(p=0.5)
    with pytest.raises(ValidationError):
        Nonlinearity(p=3.0, sign="weird")
    assert Nonlinearity(p=3.0).source_sign == -1.0
    assert Nonlinearity(p=3.0, sign="focusing").source_sign == 1.0
    assert Nonlinearity(p=3.0, sign="disabled").source_sign == 0.0


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 10, cfl=1.5)
    g = GridSpec(-2.0, 2.0, 400, cfl=0.5)
    assert g.dx == pytest.approx(0.01)
    assert g.dt == pytest.approx(0.005)
    assert len(g.nodes) == 401
    assert g.index_of(g.nodes[37]) == 37
    with pytest.raises(ValidationError):
        g.index_of(0.0033)


def test_symmetric_grid_nodes_are_bitwise_mirrored():
    g = GridSpec(-3.0, 3.0, 600)
    assert np.all(g.nodes == -g.nodes[::-1])


def test_field_state_rejects_nonfinite():
    with pytest.raises(ValidationError):
        FieldState(t=0.0, u=np.array([0.0, np.nan, 0.0]), v=np.zeros(3))
    s = FieldState(t=0.0, u=np.zeros(3), v=np.zeros(3))
    with pytest.raises(ValueError):
        s.u[0] = 1.0  # snapshots are immutable


def test_gaussian_truncation_and_support():
    g = GridSpec(-10.0, 10.0, 2000)
    init = InitialData.gaussian(amplitude=1.0, width=1.0)
    u0, u1 = init.sample(g)
    lo, hi = init.support_interval(g)
    assert hi == pytest.approx(math.sqrt(math.log(1e14)), rel=1e-12)
    outside = np.abs(g.nodes) > hi
    assert np.all(u0[outside] == 0.0)
    assert np.all(u1 == 0.0)
    inside = np.abs(g.nodes) < hi
    assert np.all(np.abs(u0[inside]) >= 1e-14 * 0.9)


def test_bump_and_velocity_fraction():
    g = GridSpec(-4.0, 4.0, 800)
    init = InitialData.polynomial_bump(amplitude=2.0, center=0.5, radius=1.0,
                                       power=2, velocity_fraction=1.0)
    u0, u1 = init.sample(g)
    assert np.all(u0[np.abs(g.nodes - 0.5) > 1.0] == 0.0)
    # u1 = -u0' for a pure right-mover
    x = g.nodes
    inside = np.abs(x - 0.5) < 1.0
    z = (x - 0.5)
    expected = -2.0 * 2 * (1 - z ** 2) * (-2 * z)
    assert np.allclose(u1[inside], expected[inside], atol=1e-12)


def test_mirror_makes_even_data():
    g = GridSpec(-6.0, 6.0, 1200)
    init = InitialData.polynomial_bump(amplitude=1.0, center=2.0, radius=1.0,
                                       mirror=True)
    u0, u1 = init.sample(g)
    assert np.all(u0 == u0[::-1])
    assert np.all(u1 == u1[::-1])


@pytest.mark.parametrize("build, fields, name", [
    (InitialData.gaussian, {"radius": -1}, "init.radius"),
    (InitialData.polynomial_bump, {"width": 0.0}, "init.width"),
    (InitialData.gaussian, {"width": float("nan")}, "init.width"),
])
def test_constructors_check_every_analytic_field(build, fields, name):
    # a field is checked even where the kind does not read it
    with pytest.raises(ValidationError) as info:
        build(**fields)
    assert info.value.field == name


def test_explicit_samples_roundtrip():
    g = GridSpec(0.0, 1.0, 10)
    init = InitialData.explicit(np.arange(11.0), np.ones(11))
    u0, u1 = init.sample(g)
    assert np.all(u0 == np.arange(11.0))
    lo, hi = init.support_interval(g)
    assert (lo, hi) == (0.0, 1.0)


def test_derivatives_zero_and_ramp():
    g = GridSpec(-1.0, 1.0, 50)
    zero = FieldState(t=0.0, u=np.zeros(51), v=np.zeros(51))
    ux, ut = sample_derivatives(zero, g)
    assert np.all(ux == 0.0) and np.all(ut == 0.0)
    ramp = FieldState(t=0.0, u=g.nodes.copy(), v=np.zeros(51))
    ux, _ = sample_derivatives(ramp, g)
    # second-order one-sided stencils are exact on linear data, endpoints too
    assert np.allclose(ux, 1.0, rtol=0, atol=1e-12)


def test_sample_derivatives_returns_the_states_own_read_only_velocity():
    g = GridSpec(-1.0, 1.0, 50)
    state = FieldState(t=0.0, u=np.zeros(51), v=np.ones(51))
    ux, ut = sample_derivatives(state, g)
    assert ut is state.v
    with pytest.raises(ValueError):
        ut[0] = 2.0


# -0.0 and +0.0 often, at the ends too, among finite values of both signs
STENCIL_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(u=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(3, 12)),
                elements=STENCIL_VALUES),
       dx=st.sampled_from([1.0, 0.01, 0.003, 16.0 / 1600]))
def test_stencil_ux_matches_the_gather_stencil_bit_for_bit(u, dx):
    rows, n = u.shape
    js = np.tile(np.arange(n), rows)
    lead = (np.repeat(np.arange(rows), n),)
    expected = gather_stencil_ux(u, js, dx, lead).reshape(rows, n)
    assert stencil_ux(u, dx).tobytes() == expected.tobytes()
    assert stencil_ux(u[0], dx).tobytes() == expected[0].tobytes()


def test_derivative_accuracy_sine():
    g = GridSpec(-1.0, 1.0, 2000)  # dx = 1e-3
    state = FieldState(t=0.0, u=np.sin(g.nodes), v=np.zeros(g.n_nodes))
    ux, _ = sample_derivatives(state, g)
    assert np.abs(ux - np.cos(g.nodes)).max() <= 1e-6


def test_aligned_zeros_rows_start_on_cache_lines():
    # every n % 8, and the Picard oracle's 6,001 nodes
    for n in [*range(8, 16), 0, 1, 6001]:
        for n_rows in range(1, 10):
            a = aligned_zeros(n_rows, n)
            assert a.shape == (n_rows, n) and a.dtype == np.float64
            for row in a:
                assert row.ctypes.data % 64 == 0 or n == 0, (n, n_rows)
                assert not row.view(np.int64).any()     # +0.0, not -0.0
            # the rows do not overlap: filling one leaves the others +0.0
            a[0] = -1.0
            assert not a[1:].view(np.int64).any(), (n, n_rows)


# -0.0, NaN and +0.0 in runs, so extents start and end on each of them
EXTENT_VALUES = st.sampled_from([0.0, 0.0, 0.0, -0.0, math.nan, 1.0, -2.5, 5e-324])


@settings(max_examples=300, deadline=None)
@given(u=arrays(np.float64, st.integers(0, 80), elements=EXTENT_VALUES))
def test_bit_extent_matches_flatnonzero_of_the_bits(u):
    nonzero = np.flatnonzero(u.view(np.int64) != 0)
    expected = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
    assert bit_extent(u) == expected


def test_bit_extent_counts_negative_zero_where_flatnonzero_does_not():
    u = np.zeros(10)
    assert bit_extent(u) == (0, 0)
    u[[2, 7]] = -0.0
    assert np.flatnonzero(u).size == 0 and bit_extent(u) == (2, 8)
