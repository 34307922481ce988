"""Fixed-point solution of the wave equation's integral form.

The solution operator is

    (T u)(x,t) = (1/2)[u0(x-t) + u0(x+t) + Int_{x-t}^{x+t} u1 dx']
                 + (sign/2) IInt_{triangle(x,t)} |u|^(p-1) u dx' dt',

iterated to a fixed point on a space-time lattice with dt = dx.  The double
integral over the backward light triangle is evaluated by composite midpoint
quadrature: at the half-level t_{l+1/2} the inner interval has half-width
(k - l - 1/2) dx, so its midpoint cells are centred exactly on lattice
nodes.  This keeps the oracle's quadrature second order while staying
completely independent of the leapfrog update it cross-validates.

Evaluation order of the triangle sums.  With C_l the zero-led prefix sums
of the half-level averages and W(C_l, m)[j] their window sum over lattice
indices [j-m, j+m], element j of row k is

    (((W(C_{k-1}, 0) + W(C_0, k-1)) + W(C_1, k-2)) + ... + W(C_{k-2}, 1)) * scale,

and each W is one subtraction of two prefix sums.  C_l is padded with
zeros on the left and with copies of its last entry on the right, so a
window cut by the left edge subtracts +0.0, which returns every x exactly
(-0.0 and NaN included), and one cut by the right edge subtracts from the
row's total, as the unpadded formula does.  ``nonlinear_integral`` computes
a block of rows at a time and, for each half-width m from high to low, adds
that term to every row of the block that has one.  Row k meets its terms
in the order above, and every element gets the same operations on the same
operands, so blocking changes the schedule and not one bit of the result.
Each W is subtracted into a row of a block-sized window whose rows start on
64-byte cache lines (``grid.aligned_zeros``): at 6,001 nodes the rows of an
unpadded window are 8n bytes apart, so 7 of 8 start off a line, where an
out-of-place ufunc costs up to about twice as much per element.
Data that are all +0.0 (every Picard iteration starts there) give
scale * 0.0 on rows 1..K and +0.0 on row 0 without any sums, which is what
the sums would give.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoContraction, NonConvergence, ValidationError
from .grid import FieldState, GridSpec, InitialData, Nonlinearity, aligned_zeros

DEFAULT_TOL_FIXED_POINT = 1e-12
DEFAULT_MAX_ITERATIONS = 200
# bound on a window's contraction number (``_window``)
_CONTRACTION_BOUND = 0.5


@dataclass
class PicardResult:
    """Converged space-time field of the fixed-point iteration."""

    levels: np.ndarray        # (K+1, n_nodes); row k is the slice at t = k*dx
    linear_part: np.ndarray
    iterations: int
    final_change: float


def _lattice_levels(grid: GridSpec, T: float) -> int:
    dx = grid.dx
    K = int(round(T / dx))
    if abs(K * dx - T) > 1e-9 * max(1.0, abs(T)) or K < 1:
        raise ValidationError("T", "horizon must be a positive lattice multiple of dx")
    return K


def _antiderivative_nodes(init: InitialData, grid: GridSpec, u1):
    """F with F' = u1 on the nodes; exact where the data provide it."""
    x = grid.nodes
    exact = init.u1_integral(np.full_like(x, grid.x_min), x)
    if exact is not None:
        return exact
    dx = grid.dx
    F = np.zeros_like(u1)
    np.cumsum(0.5 * dx * (u1[1:] + u1[:-1]), out=F[1:])
    return F


def linear_part(init: InitialData, grid: GridSpec, K: int) -> np.ndarray:
    """Free evolution of the data on the lattice, levels 0..K.

    Data are extended by zero (u0) and constantly (the u1 antiderivative)
    outside the domain, which is exact for compactly supported data.
    """
    u0, u1 = init.sample(grid)
    n = grid.n_nodes
    F = _antiderivative_nodes(init, grid, u1)
    u0pad = np.zeros(n + 2 * K)
    u0pad[K:K + n] = u0
    Fpad = np.empty(n + 2 * K)
    Fpad[K:K + n] = F
    Fpad[:K] = F[0]
    Fpad[K + n:] = F[-1]
    L = np.empty((K + 1, n))
    for k in range(K + 1):
        right = slice(K + k, K + k + n)
        left = slice(K - k, K - k + n)
        L[k] = 0.5 * (u0pad[right] + u0pad[left]) + 0.5 * (Fpad[right] - Fpad[left])
    return L


# rows of the result computed together: of 4, 6, 8, 12, 16 and 32 rows, 8 was
# fastest at 6,001 nodes, where the block and its window fit in L2 (with and
# without the window's rows on cache lines)
_ROW_BLOCK = 8


def nonlinear_integral(levels: np.ndarray, nl: Nonlinearity, dx: float) -> np.ndarray:
    """(sign/2) double integral of |u|^(p-1)u over backward light triangles.

    Row k of the result is the triangle integral for every node at time
    k*dx, by midpoint quadrature in both directions.  The module docstring
    gives the order in which each element is summed.
    """
    K = levels.shape[0] - 1
    n = levels.shape[1]
    out = np.zeros_like(levels)
    if nl.source_sign == 0.0 or K == 0:
        return out
    scale = 0.5 * nl.source_sign * dx * dx
    if not levels.view(np.int64).any():
        out[1:] = scale * 0.0
        return out
    g = nl.power_term(levels)
    gbar = 0.5 * (g[:-1] + g[1:])                      # half-level averages
    # C[l, K + i] is C_l[i], padded by K zeros on the left and K copies of
    # C_l[n] on the right
    C = np.zeros((K, K + n + 1 + K))
    np.cumsum(gbar, axis=1, out=C[:, K + 1:K + n + 1])
    C[:, K + n + 1:] = C[:, K + n:K + n + 1]
    window = aligned_zeros(_ROW_BLOCK, n)
    for k0 in range(1, K + 1, _ROW_BLOCK):
        k1 = min(k0 + _ROW_BLOCK, K + 1)
        np.subtract(C[k0 - 1:k1 - 1, K + 1:K + n + 1], C[k0 - 1:k1 - 1, K:K + n],
                    out=out[k0:k1])
        for m in range(k1 - 2, 0, -1):
            # rows k >= m+1 of the block add W(C[k-1-m], m)
            ka = max(k0, m + 1)
            rows = C[ka - 1 - m:k1 - 1 - m]
            w = window[:k1 - ka]
            np.subtract(rows[:, K + m + 1:K + m + 1 + n], rows[:, K - m:K - m + n], out=w)
            out[ka:k1] += w
    out[1:] *= scale
    return out


def _window(init: InitialData, grid: GridSpec, nl: Nonlinearity, K: int):
    """Linear part of the K-step window from ``init`` and its contraction
    number p T^2 A^(p-1), T = K dx and A the sup of the linear part; the
    number is 0 when the source is off or A = 0."""
    L = linear_part(init, grid, K)
    A = float(np.max(np.abs(L)))
    if nl.source_sign == 0.0 or A == 0.0:
        return L, 0.0
    return L, nl.p * (K * grid.dx) ** 2 * A ** (nl.p - 1.0)


def _iterate(L: np.ndarray, nl: Nonlinearity, dx: float,
             tol_fixed_point: float = DEFAULT_TOL_FIXED_POINT,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> PicardResult:
    """Iterate U -> L + nonlinear_integral(U) from U = 0 to a fixed point."""
    if nl.source_sign == 0.0:
        # the transform is constant in u; one application is exact
        return PicardResult(L.copy(), L, 1, 0.0)
    U, change = np.zeros_like(L), np.inf
    for iterations in range(1, max_iterations + 1):
        U_new = nonlinear_integral(U, nl, dx)
        U_new += L
        # |U_new - U| overwrites the old iterate, which is not needed again
        np.subtract(U_new, U, out=U)
        change = float(np.max(np.abs(U, out=U)))
        U = U_new
        if change < tol_fixed_point:
            return PicardResult(U, L, iterations, change)
    raise NonConvergence(
        f"no fixed point after {max_iterations} iterations (last change {change:.3e})")


def picard_fixed_point(init: InitialData, grid: GridSpec, nl: Nonlinearity, T: float,
                       tol_fixed_point: float = DEFAULT_TOL_FIXED_POINT,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS) -> PicardResult:
    """Iterate the solution operator to a fixed point on [0, T].

    Raises NoContraction when the window's contraction number exceeds 1/2
    and NonConvergence when the iteration cap is exceeded.
    """
    L, contraction = _window(init, grid, nl, _lattice_levels(grid, T))
    if contraction > _CONTRACTION_BOUND:
        raise NoContraction(f"p*T^2*A^(p-1) = {contraction:.3g} exceeds "
                            f"{_CONTRACTION_BOUND}; shorten T")
    return _iterate(L, nl, grid.dx, tol_fixed_point, max_iterations)


def evolve_by_dalembert(init: InitialData, grid: GridSpec, nl: Nonlinearity,
                        T: float) -> FieldState:
    """Solution slice at time T by Picard iteration of the integral equation.

    Independent of the leapfrog scheme; serves as its oracle.  Splits
    [0, T] into lattice-aligned windows, each with a contraction number
    within a 0.9 margin of the bound, iterates each window to its fixed
    point and restarts from the converged slice.  The velocity of a slice
    is a one-sided second-order time difference of the converged field,
    which keeps the composition second-order accurate.  That needs windows
    of at least two steps, so no window may leave one step over; raises
    NoContraction when no such split is found.
    """
    K_total = _lattice_levels(grid, T)
    if K_total < 2:
        raise ValidationError("T", "horizon must span at least two lattice steps")
    dx = grid.dx
    windows = []              # (start level, data, steps) of each window taken
    done, current, K_w = 0, init, K_total
    while True:
        L, contraction = _window(current, grid, nl, K_w)
        while not contraction <= 0.9 * _CONTRACTION_BOUND:
            if K_w == 2:
                raise NoContraction("contraction fails even on a two-step window")
            K_w = max(2, K_w // 2)
            L, contraction = _window(current, grid, nl, K_w)
        if K_total - done - K_w == 1:
            # shorten the latest window of three or more steps by one, which
            # still contracts, and choose the windows after it again; each
            # such repair makes the sequence of windows lexicographically smaller
            while windows and windows[-1][2] < 3:
                windows.pop()
            if not windows:
                raise NoContraction("found no split into windows of two or more steps"
                                    " that contract")
            done, current, K_w = windows.pop()
            K_w -= 1
            continue
        windows.append((done, current, K_w))
        levels = _iterate(L, nl, dx).levels
        u = levels[K_w].copy()
        v = (3.0 * levels[K_w] - 4.0 * levels[K_w - 1] + levels[K_w - 2]) / (2.0 * dx)
        done += K_w
        if done >= K_total:
            return FieldState(t=done * dx, u=u, v=v)
        current = InitialData.explicit(u, v)
        K_w = K_total - done
