import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wavelab1d import (GridSpec, InitialData, NoContraction, Nonlinearity, dalembert,
                       evolve, evolve_by_dalembert, picard_fixed_point)
from wavelab1d.dalembert import _ROW_BLOCK, linear_part, nonlinear_integral
from tests_support import row_by_row_nonlinear_integral, with_row_by_row_integral

P3 = Nonlinearity(p=3.0)
LINEAR = Nonlinearity(p=3.0, sign="disabled")


def _grid(dx, half=8.0):
    return GridSpec(-half, half, int(round(2 * half / dx)))


def test_zero_data_converges_in_one_iteration():
    g = _grid(0.01)
    res = picard_fixed_point(InitialData.zero(), g, P3, 0.25)
    assert res.iterations == 1
    assert np.all(res.levels == 0.0)


def test_disabled_returns_linear_evaluation():
    g = _grid(0.01)
    init = InitialData.gaussian(amplitude=1.0, velocity_fraction=0.4)
    res = picard_fixed_point(init, g, LINEAR, 0.5)
    assert res.iterations == 1
    assert np.all(res.levels == res.linear_part)
    # and the linear lattice evolution agrees with the leapfrog at cfl = 1
    leap = evolve(init, g, LINEAR, 0.5)
    assert np.abs(res.levels[-1] - leap.u).max() <= 1e-12


def _spy_on_windows(monkeypatch):
    """Steps of each linear part built and of each window iterated."""
    built, iterated = [], []
    build, iterate = dalembert.linear_part, dalembert._iterate

    def spy_build(init, grid, K):
        built.append(K)
        return build(init, grid, K)

    def spy_iterate(L, *args):
        iterated.append(L.shape[0] - 1)
        return iterate(L, *args)
    monkeypatch.setattr(dalembert, "linear_part", spy_build)
    monkeypatch.setattr(dalembert, "_iterate", spy_iterate)
    return built, iterated


def test_windowed_oracle_solves_each_window_with_the_oracle(monkeypatch):
    built, iterated = _spy_on_windows(monkeypatch)
    # the bound fails on [0, 0.5] and holds on [0, 0.25]; each linear part is
    # built once and the accepted one is iterated
    state = evolve_by_dalembert(InitialData.gaussian(amplitude=1.0), _grid(0.01), P3, 0.5)
    assert built == [50, 25, 25]
    assert iterated == [25, 25]
    assert state.t == 0.5


def test_windowed_oracle_linear_mode_is_one_free_evolution(monkeypatch):
    g = _grid(0.01)
    init = InitialData.gaussian(amplitude=5.0, velocity_fraction=0.4)
    built, iterated = _spy_on_windows(monkeypatch)
    state = evolve_by_dalembert(init, g, LINEAR, 0.5)
    assert built == iterated == [50]
    ref = picard_fixed_point(init, g, LINEAR, 0.5)
    assert np.array_equal(state.u, ref.levels[-1])
    assert np.abs(state.u - evolve(init, g, LINEAR, 0.5).u).max() <= 1e-12
    zero = evolve_by_dalembert(InitialData.zero(), g, P3, 0.5)
    assert np.all(zero.u == 0.0) and np.all(zero.v == 0.0)


def test_fixed_point_property():
    # one more application of the transform moves the solution < of twice
    # the convergence tolerance
    g = _grid(0.005)
    tol = 1e-12
    init = InitialData.gaussian(amplitude=0.5)
    res = picard_fixed_point(init, g, P3, 0.25, tol_fixed_point=tol)
    again = res.linear_part + nonlinear_integral(res.levels, P3, g.dx)
    assert np.abs(again - res.levels).max() < 2 * tol


def test_no_contraction_raised():
    g = _grid(0.005)
    with pytest.raises(NoContraction, match="shorten T"):
        picard_fixed_point(InitialData.gaussian(amplitude=1.0), g, P3, 0.5)


def test_non_convergence_on_iteration_cap():
    from wavelab1d import NonConvergence
    g = _grid(0.01)
    with pytest.raises(NonConvergence):
        picard_fixed_point(InitialData.gaussian(amplitude=0.1), g, P3, 0.25,
                           max_iterations=1)


def test_oracle_richardson_consistency():
    # oracle vs evolve mismatch is controlled by the two-grid mutual
    # difference: both errors are O(dx^2), with the oracle's quadrature
    # constant measured at about 2.5x the leapfrog's
    init = InitialData.gaussian(amplitude=0.1)
    g1 = _grid(5e-3)
    g2 = _grid(2.5e-3)
    o1 = evolve_by_dalembert(init, g1, P3, 0.25)
    e1 = evolve(init, g1, P3, 0.25)
    e2 = evolve(init, g2, P3, 0.25)
    mutual = np.abs(e1.u - e2.u[::2]).max()
    assert np.abs(o1.u - e1.u).max() <= 3.0 * mutual


def test_windowed_oracle_matches_leapfrog_beyond_one_window():
    g = _grid(5e-3)
    init = InitialData.gaussian(amplitude=1.0)
    st = evolve_by_dalembert(init, g, P3, 0.5)
    leap = evolve(init, g, P3, 0.5)
    assert st.t == pytest.approx(0.5)
    assert np.abs(st.u - leap.u).max() <= 10.0 * g.dx ** 2


def test_linear_part_matches_dalembert_formula():
    # closed-form check: u0 even bump, u1 = 0 gives the two-shift average
    g = _grid(0.01, half=4.0)
    init = InitialData.polynomial_bump(amplitude=1.0, radius=1.0, power=2)
    K = 30
    L = linear_part(init, g, K)
    x = g.nodes
    t = K * g.dx
    expected = 0.5 * (init.u0_at(x - t) + init.u0_at(x + t))
    assert np.abs(L[K] - expected).max() <= 1e-10


POWERS = [1.5, 2.0, 2.5, 3.0, 5.0]
SIGNS = ["defocusing", "focusing"]


def _same_bits_as_row_by_row(levels, nl, dx=0.01):
    new = nonlinear_integral(levels, nl, dx)
    assert new.tobytes() == row_by_row_nonlinear_integral(levels, nl, dx).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), K=st.integers(0, 3 * _ROW_BLOCK), n=st.integers(1, 40),
       p=st.sampled_from(POWERS), sign=st.sampled_from(SIGNS))
def test_blocked_triangle_sums_match_row_by_row(data, K, n, p, sign):
    # n <= 2(K-1) takes the clipped-window branch; +0.0 and -0.0 anywhere
    samples = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)
    levels = data.draw(hnp.arrays(np.float64, (K + 1, n), elements=samples))
    _same_bits_as_row_by_row(levels, Nonlinearity(p=p, sign=sign))


@pytest.mark.parametrize("p", POWERS)
@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("K,n", [(0, 7), (1, 7), (2 * _ROW_BLOCK + 3, 9),
                                 (2 * _ROW_BLOCK + 3, 200)])
def test_triangle_sums_edge_cases_match_row_by_row(K, n, p, sign):
    rng = np.random.default_rng(K * n)
    nl = Nonlinearity(p=p, sign=sign)
    zero = np.zeros((K + 1, n))
    _same_bits_as_row_by_row(zero, nl)                # the zero start: no sums
    _same_bits_as_row_by_row(-zero, nl)               # -0.0 is not the zero start
    levels = rng.normal(size=(K + 1, n))
    levels[rng.random(levels.shape) < 0.3] = -0.0
    _same_bits_as_row_by_row(levels, nl)
    _same_bits_as_row_by_row(-levels, nl)


@pytest.mark.parametrize("nl,T", [(P3, 0.25), (Nonlinearity(p=2.5, sign="focusing"), 0.2)])
def test_picard_fixed_point_matches_row_by_row(nl, T):
    g = _grid(0.01)
    init = InitialData.gaussian(amplitude=0.5, velocity_fraction=0.3)
    new = picard_fixed_point(init, g, nl, T)
    ref = with_row_by_row_integral(picard_fixed_point, init, g, nl, T)
    assert new.levels.tobytes() == ref.levels.tobytes()
    assert new.iterations == ref.iterations
    assert new.final_change == ref.final_change


def test_windowed_oracle_never_leaves_a_one_step_window():
    # one step left over has no velocity to restart from
    g = GridSpec(-3.0, 3.0, 600)
    # three steps do not contract, and no other split of three exists
    with pytest.raises(NoContraction):
        evolve_by_dalembert(InitialData.gaussian(amplitude=13.0), g, P3, 3 * g.dx)
    # halving leaves three steps that do not contract; an earlier window is
    # shortened instead
    state = evolve_by_dalembert(InitialData.gaussian(amplitude=17.0), g, P3, 18 * g.dx)
    assert state.t == 18 * g.dx
    for K in range(3, 25):
        for amplitude in range(12, 20):
            init = InitialData.gaussian(amplitude=float(amplitude))
            try:
                state = evolve_by_dalembert(init, g, P3, K * g.dx)
            except NoContraction:
                continue
            assert state.t == K * g.dx
            assert np.isfinite(state.u).all() and np.isfinite(state.v).all()
