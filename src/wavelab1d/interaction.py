"""Pairwise interaction functional and the weighted virial identity.

Q(t) integrates |x1 - x2| against the product of right-going energy
densities; it measures how spread out the right-going energy is.  With
weights w_j = e_plus(x_j) dx,

    Q = sum_{i,j} |x_i - x_j| w_i w_j,

an O(N^2) double sum that collapses to O(N) with prefix sums over the
sorted grid:  sum_{j<i} (x_i - x_j) w_j = x_i W_i - S_i with W, S the
running sums of w and x w.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyDensities, potential, trapezoid
from .errors import ValidationError
from .grid import GridSpec, sample_derivatives
from .solver import Trajectory


def pairwise_weighted_distance(x, w, method: str = "prefix_sum") -> float:
    """sum over ordered pairs of |x_i - x_j| w_i w_j.

    ``prefix_sum`` requires x sorted ascending (grid order) and runs in
    O(N); ``brute_force`` is the O(N^2) oracle, evaluated in blocks.
    Both are deterministic.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape or x.ndim != 1:
        raise ValidationError("weights", "x and w must be 1-d arrays of equal length")
    if method == "prefix_sum":
        if x.size and np.any(np.diff(x) < 0.0):
            raise ValidationError("x", "prefix_sum needs ascending positions")
        W = np.cumsum(w)
        S = np.cumsum(x * w)
        if x.size == 0:
            return 0.0
        # sum_{j<i} (x_i - x_j) w_j = x_i W_{i-1} - S_{i-1}
        inner = x[1:] * W[:-1] - S[:-1]
        return float(2.0 * np.dot(w[1:], inner))
    if method == "brute_force":
        mask = w != 0.0
        xs, ws = x[mask], w[mask]
        if xs.size == 0:
            return 0.0
        total = 0.0
        block = 1024
        buf = np.empty((min(block, xs.size), xs.size))
        for i0 in range(0, xs.size, block):
            nb = min(block, xs.size - i0)
            d = buf[:nb]
            np.subtract(xs[i0:i0 + nb, None], xs[None, :], out=d)
            np.abs(d, out=d)
            d *= ws[i0:i0 + nb, None]
            d *= ws[None, :]
            total += float(d.sum())
        return total
    raise ValidationError("method", "expected prefix_sum or brute_force")


def interaction_q(d: EnergyDensities, grid: GridSpec, method: str = "prefix_sum") -> float:
    """Q at one time from the right-going density, weights e_plus * dx."""
    return pairwise_weighted_distance(grid.nodes, d.e_plus * grid.dx, method)


@dataclass(frozen=True)
class VirialReport:
    """Weighted momentum integral I(s) and its derivative identity residuals.

    I(s) = Int a(y) u_y u_s dy with a = clamp(y, -R, R) satisfies
    |I| <= (R/2) * (squared H^1 x L^2 norm), and

        I'(s) = -Int_{-R}^{R} [ (1/2) u_s^2 + (1/2) u_y^2
                                + sign * |u|^(p+1)/(p+1) ] dy

    for data supported in (-R, R); residuals compare a centered difference
    of I against the right-hand side.
    """

    R: float
    s_values: np.ndarray
    I_values: np.ndarray
    lhs_rhs_residuals: np.ndarray


def virial_check(trajectory: Trajectory, R: float, s_values=None) -> VirialReport:
    """Evaluate I(s) on a stored run and the residual of its derivative law.

    The derivative is a centered difference over one time step, so the
    residual is second order in the grid spacing.  Each level the
    differences need is read from the trajectory once.
    """
    grid = trajectory.grid
    nl = trajectory.nl
    dx, dt = grid.dx, grid.dt
    x = grid.nodes
    a = np.clip(x, -R, R)
    inside = np.abs(x) <= R + 1e-9 * dx

    if s_values is None:
        levels = np.arange(1, trajectory.n_levels - 1)
    else:
        levels = np.array([trajectory.level_of(s) for s in s_values], dtype=int)
        if levels.size and (levels.min() < 1 or levels.max() > trajectory.n_levels - 2):
            raise ValidationError("s_values", "centered difference needs interior times")
    requested = set(levels.tolist())
    I, rhs = {}, {}
    for level in sorted({m + k for m in requested for k in (-1, 0, 1)}):
        state = trajectory.state(level)
        ux, ut = sample_derivatives(state, grid)
        I[level] = trapezoid(a * ux * ut, dx)
        if level in requested:
            dens = 0.5 * ut * ut + 0.5 * ux * ux + nl.source_sign * potential(state.u, nl)
            rhs[level] = -trapezoid(dens[inside], dx)
    s_out = levels * dt
    I_out = np.array([I[m] for m in levels])
    residuals = np.array([(I[m + 1] - I[m - 1]) / (2.0 * dt) - rhs[m] for m in levels])
    return VirialReport(R=R, s_values=s_out, I_values=I_out,
                        lhs_rhs_residuals=residuals)
