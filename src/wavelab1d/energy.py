"""Directional energy densities and their integrals.

The right/left-going densities are

    e+ = (1/4)|u_x - u_t|^2 + |u|^(p+1) / (2(p+1)),
    e- = (1/4)|u_x + u_t|^2 + |u|^(p+1) / (2(p+1)),

and the full energy density and momentum density are *defined* here as
e+ + e- and e- - e+ respectively, which makes the pointwise identities

    e+ + e- = e_full,    e- - e+ = u_x * u_t

hold exactly (the second up to the rounding of the polarization identity;
the stored momentum density is bit-identical to e- - e+ by construction).

All operations are pure functions of immutable inputs and safe to call
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import FieldState, GridSpec, Nonlinearity, bit_extent, sample_derivatives


def trapezoid(y, dx: float) -> float:
    """Composite trapezoid rule on uniformly spaced samples."""
    y = np.asarray(y)
    if y.size < 2:
        return 0.0
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))


def potential(u, nl: Nonlinearity):
    """Potential density |u|^(p+1)/(p+1), unsigned (zeros if disabled).

    The defocusing energy adds it and the focusing energy subtracts it;
    every caller applies its own sign explicitly.
    """
    if nl.sign == "disabled":
        return np.zeros_like(u, dtype=float)
    pot = np.abs(u)
    pot **= nl.p + 1.0
    pot /= nl.p + 1.0
    return pot


@dataclass(frozen=True)
class EnergyDensities:
    """Pointwise energy split of one time slice.

    e_plus + e_minus == e_full and e_minus - e_plus == momentum_density are
    exact by construction (shared floating-point expressions).
    """

    t: float
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_full: np.ndarray
    momentum_density: np.ndarray

    def __post_init__(self):
        for name in ("e_plus", "e_minus", "e_full", "momentum_density"):
            getattr(self, name).setflags(write=False)

    def component(self, which: str) -> np.ndarray:
        try:
            return {"plus": self.e_plus, "minus": self.e_minus, "full": self.e_full}[which]
        except KeyError:
            raise ValidationError("which", "expected plus, minus or full")


def compute_densities(state: FieldState, grid: GridSpec, nl: Nonlinearity) -> EnergyDensities:
    """Evaluate all four densities from one state.

    The potential term is omitted for nl.sign == "disabled"; focusing signs
    are rejected because the directional split is only meaningful for the
    energy-coercive equation.

    e+ = (0.25 (u_x - u_t)) (u_x - u_t) + pot/2, and e- likewise with the
    sum, computed in place in the four arrays returned: u_x becomes e-, and
    the two scratch arrays end up holding e_full and the momentum density.
    """
    if nl.sign == "focusing":
        raise ValidationError("nl.sign", "densities are defined for defocusing/disabled")
    ux, ut = sample_derivatives(state, grid)
    e_plus = np.subtract(ux, ut)
    e_minus = np.add(ux, ut, out=ux)
    quarter = np.multiply(e_plus, 0.25)
    e_plus *= quarter
    np.multiply(e_minus, 0.25, out=quarter)
    e_minus *= quarter
    pot = potential(state.u, nl)
    pot /= 2.0
    e_plus += pot
    e_minus += pot
    e_full = np.add(e_plus, e_minus, out=quarter)
    momentum = np.subtract(e_minus, e_plus, out=pot)
    return EnergyDensities(t=state.t, e_plus=e_plus, e_minus=e_minus,
                           e_full=e_full, momentum_density=momentum)


def _lerp(arr, jf: float) -> float:
    i = int(math.floor(jf))
    if i >= len(arr) - 1:
        return float(arr[-1])
    if i < 0:
        return float(arr[0])
    theta = jf - i
    return float(arr[i] * (1.0 - theta) + arr[i + 1] * theta)


def interval_energy(d: EnergyDensities, grid: GridSpec, a: float, b: float,
                    which: str = "full") -> float:
    """Trapezoid integral of a chosen density over [a, b].

    The interval is clipped to the domain; non-node endpoints contribute via
    linear interpolation of the density, so adjacent intervals add up
    exactly to their union.
    """
    arr = d.component(which)
    a = max(a, grid.x_min)
    b = min(b, grid.x_max)
    if b <= a:
        return 0.0
    dx = grid.dx
    ja = (a - grid.x_min) / dx
    jb = (b - grid.x_min) / dx
    # snap to nodes within round-off so lattice-aligned calls stay exact
    j0 = int(math.ceil(ja - 1e-9))
    j1 = int(math.floor(jb + 1e-9))
    if j0 > j1:
        fa = _lerp(arr, ja)
        fb = _lerp(arr, jb)
        return (b - a) * 0.5 * (fa + fb)
    total = trapezoid(arr[j0:j1 + 1], dx)
    left_gap = j0 - ja
    if left_gap > 1e-9:
        fa = _lerp(arr, ja)
        total += left_gap * dx * 0.5 * (fa + float(arr[j0]))
    right_gap = jb - j1
    if right_gap > 1e-9:
        fb = _lerp(arr, jb)
        total += right_gap * dx * 0.5 * (float(arr[j1]) + fb)
    return total


def conserved_pair(d: EnergyDensities, grid: GridSpec):
    """(E, M, E_plus_total, E_minus_total) over the whole domain.

    E_plus = (E - M)/2 and E_minus = (E + M)/2 hold to quadrature round-off
    because the integrands satisfy the identities pointwise.
    """
    dx = grid.dx
    E = trapezoid(d.e_full, dx)
    M = trapezoid(d.momentum_density, dx)
    E_plus = trapezoid(d.e_plus, dx)
    E_minus = trapezoid(d.e_minus, dx)
    return E, M, E_plus, E_minus


def norms(state: FieldState, grid: GridSpec, nl: Nonlinearity):
    """(L^(p+1) norm of u, sup norm of u, squared H^1 x L^2 norm).

    |u| is taken once for both norms, and every power and square is taken
    in place in one of two arrays.
    """
    ux, ut = sample_derivatives(state, grid)
    scratch = np.abs(state.u)
    sup = float(np.max(scratch)) if scratch.size else 0.0
    scratch **= nl.p + 1.0
    lp = trapezoid(scratch, grid.dx) ** (1.0 / (nl.p + 1.0))
    ux *= ux
    np.multiply(ut, ut, out=scratch)
    h1l2 = trapezoid(ux, grid.dx) + trapezoid(scratch, grid.dx)
    return lp, sup, h1l2


def cone_energy(d: EnergyDensities, grid: GridSpec, eta: float) -> float:
    """Full energy inside the light cone |x| < t - eta at the densities' time."""
    radius = d.t - eta
    if radius <= 0.0:
        return 0.0
    return interval_energy(d, grid, -radius, radius, "full")


def light_cone_energy(trajectory, eta: float, t: float) -> float:
    """Cone energy E_eta(t) from a stored trajectory.

    Empty cones (t <= eta) report zero.  The flux identity makes this
    quantity nondecreasing in t up to quadrature error.
    """
    if t - eta <= 0.0:
        return 0.0
    grid = trajectory.grid
    d = compute_densities(trajectory.state(trajectory.level_of(t)), grid, trajectory.nl)
    return cone_energy(d, grid, eta)


def morawetz_accumulator(trajectory, t_max: float) -> float:
    """Space-time integral of ((t+1)^2 - x^2)_+ |u|^(p+1) / (t+1)^3 up to t_max.

    Trapezoid quadrature in both directions; nondecreasing in t_max since
    the integrand is nonnegative.
    """
    grid = trajectory.grid
    p = trajectory.nl.p
    level_max = trajectory.level_of(t_max)
    xx = grid.nodes * grid.nodes
    slab = np.empty(level_max + 1)
    f = np.zeros_like(xx)
    for m in range(level_max + 1):
        t = float(trajectory.times[m])
        u = trajectory.u_levels[m]
        # u = ±0.0 gives a +0.0 integrand, so pow runs only from the first to
        # the last node whose bits are not +0.0 (-0.0 at the ends writes the
        # +0.0 that f holds); the rule still sums the whole row, whose
        # summation order sets the bits
        lo, hi = bit_extent(u)
        w = ((t + 1.0) ** 2 - xx[lo:hi]) / (t + 1.0) ** 3
        np.clip(w, 0.0, None, out=w)
        np.multiply(w, np.abs(u[lo:hi]) ** (p + 1.0), out=f[lo:hi])
        slab[m] = trapezoid(f, grid.dx)
        f[lo:hi] = 0.0
    return trapezoid(slab, grid.dt)
