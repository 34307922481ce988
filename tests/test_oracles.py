"""Exact laws the stepper and the energies must obey.

Scaling: u_lam(t, x) = lam^beta u(lam t, lam x), beta = 2/(p-1), maps the
equation onto itself, and with dx and dt divided by lam the leapfrog update
maps onto itself too.  When lam and lam^beta are powers of two every
floating-point operation scales exactly, so the law holds bit for bit, also
for the time and sup at which a focusing run meets a scaled blow-up guard.

Self-similar solutions: every profile f of the ``selfsimilar`` ODE gives the
exact defocusing solution u = x^(-beta) f(t/x) on x > t.  The stepper must
converge to it at second order, and so must ``interval_energy`` of the
computed state to the solution's energy on an interval inside the cone.
"""
import functools

import numpy as np
import pytest

from wavelab1d import GridSpec, InitialData, Nonlinearity, Observer, evolve
from wavelab1d.energy import compute_densities, conserved_pair, interval_energy, trapezoid
from wavelab1d.errors import BlowUpDetected
from wavelab1d.selfsimilar import OdeParams, integrate_profile, lift_field


def _bump_run(p, lam, cfl, sign):
    """(t, u, v, conserved_pair) at seven samples of the bump scaled by lam."""
    beta = 2.0 / (p - 1.0)
    g = GridSpec(-8.0 / lam, 8.0 / lam, 4000, cfl=cfl)
    nl = Nonlinearity(p=p, sign=sign)
    init = InitialData.polynomial_bump(amplitude=1.5 * lam ** beta, center=0.7 / lam,
                                       radius=1.0 / lam, power=3, velocity_fraction=0.5)
    rows = []

    def keep(state):
        rows.append((state.t, state.u, state.v,
                     conserved_pair(compute_densities(state, g, nl), g)))

    evolve(init, g, nl, 3.0 / lam, observers=[Observer(np.arange(7) * (0.5 / lam), keep)])
    return rows


@pytest.mark.parametrize("sign", ["defocusing", "disabled"])
@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p, lam", [(2.0, 2.0), (3.0, 2.0), (3.0, 4.0), (5.0, 4.0)])
def test_power_of_two_scaling_is_exact(p, lam, cfl, sign):
    beta = 2.0 / (p - 1.0)
    base = _bump_run(p, 1.0, cfl, sign)
    scaled = _bump_run(p, lam, cfl, sign)
    assert len(base) == len(scaled) == 7
    for (t, u, v, pair), (t_s, u_s, v_s, pair_s) in zip(base, scaled):
        assert t_s == t / lam
        assert u_s.tobytes() == (lam ** beta * u).tobytes()
        assert v_s.tobytes() == (lam ** (beta + 1.0) * v).tobytes()
        assert pair_s == tuple(lam ** (2.0 * beta + 1.0) * e for e in pair)


def _focusing_blowup(p, lam, cfl, guard):
    """BlowUpDetected's (t, sup) for a focusing bump scaled by lam, with the
    guard scaled like u."""
    beta = 2.0 / (p - 1.0)
    init = InitialData.polynomial_bump(amplitude=6.0 * lam ** beta, center=0.7 / lam,
                                       radius=1.0 / lam, power=3, velocity_fraction=0.5)
    with pytest.raises(BlowUpDetected) as info:
        evolve(init, GridSpec(-8.0 / lam, 8.0 / lam, 4000, cfl=cfl),
               Nonlinearity(p=p, sign="focusing"), 5.0 / lam, guard=guard * lam ** beta)
    return info.value.t, info.value.sup_value


@pytest.mark.parametrize("guard", [1e8, 1e3, 50.0])
@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p, lam", [(2.0, 2.0), (2.0, 4.0), (3.0, 2.0), (3.0, 4.0),
                                    (5.0, 4.0)])
def test_focusing_blowup_maps_exactly_under_power_of_two_scaling(p, lam, cfl, guard):
    """The blow-up time maps to t/lam and the sup to lam^beta sup, bit for bit.

    Only integer p: at p = 2.5 and lam = 8 the time still maps exactly, but
    the sup differs in its last bits in 5 of 6 cases, because np.power does
    not scale exactly.
    """
    t, sup = _focusing_blowup(p, 1.0, cfl, guard)
    t_s, sup_s = _focusing_blowup(p, lam, cfl, guard)
    assert t_s == t / lam
    assert sup_s == lam ** (2.0 / (p - 1.0)) * sup


SELF_SIMILAR_CASES = [(2.0, 1.0, 0.0), (2.5, 1.0, 0.0), (3.0, 1.0, 0.0), (3.0, 2.0, 0.5),
                      (5.0, 1.0, 0.0)]
DXS = (0.01, 0.005, 0.0025)


@functools.cache
def _profile(params):
    return integrate_profile(params)


@functools.cache
def _self_similar_run(params, dx, cfl):
    """(grid, state at t ~ 3) of the exact solution's data cut off outside [2, 10]."""
    g = GridSpec(-2.0, 14.0, round(16.0 / dx), cfl=cfl)
    x = g.nodes
    inside = (x >= 2.0) & (x <= 10.0)
    beta = params.beta
    u0 = np.zeros(g.n_nodes)
    u1 = np.zeros(g.n_nodes)
    u0[inside] = params.a * x[inside] ** -beta
    u1[inside] = params.b * x[inside] ** (-beta - 1.0)
    return g, evolve(InitialData.explicit(u0, u1), g, Nonlinearity(p=params.p), 3.0)


def _self_similar_error(params, dx, cfl):
    """max |u - exact| on the numerical cone of the cut-off data."""
    g, final = _self_similar_run(params, dx, cfl)
    x = g.nodes
    reach = final.t / cfl + 0.05
    cone = (x >= 2.0 + reach) & (x <= 10.0 - reach)
    exact = lift_field(_profile(params), params, final.t, x[cone])
    return float(np.max(np.abs(final.u[cone] - exact.u)))


def _interval_energy_error(params, dx, cfl, a, b):
    """|interval_energy - exact energy| on [a, b], the exact one by the
    trapezoid rule on 200,001 points of the lifted solution."""
    g, final = _self_similar_run(params, dx, cfl)
    nl = Nonlinearity(p=params.p)
    numeric = interval_energy(compute_densities(final, g, nl), g, a, b, "full")
    x = np.linspace(a, b, 200_001)
    exact = lift_field(_profile(params), params, final.t, x)
    density = (0.5 * exact.u_x ** 2 + 0.5 * exact.u_t ** 2
               + np.abs(exact.u) ** (params.p + 1.0) / (params.p + 1.0))
    return abs(numeric - trapezoid(density, float(x[1] - x[0])))


def _assert_second_order(errors):
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.9 <= r <= 4.1 for r in ratios), (errors, ratios)


@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p, a, b", SELF_SIMILAR_CASES)
def test_stepper_converges_to_self_similar_solutions_at_second_order(p, a, b, cfl):
    params = OdeParams(p=p, a=a, b=b)
    _assert_second_order([_self_similar_error(params, dx, cfl) for dx in DXS])


@pytest.mark.parametrize("interval", [(5.5, 6.5), (5.503, 6.497)],
                         ids=["nodes", "off-node"])
@pytest.mark.parametrize("cfl", [1.0, 0.9])
@pytest.mark.parametrize("p, a, b", SELF_SIMILAR_CASES)
def test_interval_energy_converges_to_the_self_similar_energy_at_second_order(
        p, a, b, cfl, interval):
    # the full density e+ + e- = u_x^2/2 + u_t^2/2 + |u|^(p+1)/(p+1); the
    # off-node interval ends inside cells at every dx
    params = OdeParams(p=p, a=a, b=b)
    _assert_second_order([_interval_energy_error(params, dx, cfl, *interval) for dx in DXS])
