"""Shared helpers for the test suite."""
import contextlib
import csv
import tracemalloc
from unittest import mock

import numpy as np

from wavelab1d import dalembert, solver
from wavelab1d.energy import trapezoid
from wavelab1d.errors import BlowUpDetected, ValidationError
from wavelab1d.grid import FieldState, sample_derivatives, stencil_ux
from wavelab1d.solver import _guard_check, _start_level


def five_point_derivative(f, h):
    """Fourth-order centered first derivative on a uniform grid."""
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def full_grid_march(init, grid, nl, n_steps, schedule, guard) -> FieldState:
    """The full-grid leapfrog loop that ``solver._march`` replaced.

    It differs from ``_march`` only in updating every interior node on every
    step; the windowed loop must reproduce it bit for bit.
    """
    dt = grid.dt
    u0, u1 = init.sample(grid)

    def emit(step, u_arr, v_arr):
        state = FieldState(t=step * dt, u=u_arr.copy(), v=v_arr.copy())
        for fn in schedule.get(step, ()):
            fn(state)
        return state

    _guard_check(u0, 0.0, guard, np.empty_like(u0))

    state0 = emit(0, u0, u1) if 0 in schedule or n_steps == 0 else None
    if n_steps == 0:
        return state0

    u_prev = u0.copy()
    u_cur = _start_level(u0, u1, init, grid, nl)

    c2 = grid.cfl * grid.cfl
    dt2s = grid.dt * grid.dt * nl.source_sign
    n_nodes = grid.n_nodes
    u_next = np.zeros(n_nodes)
    work = np.zeros(n_nodes)
    pw = np.zeros(n_nodes - 2) if dt2s != 0.0 else None
    v_buf = np.empty(n_nodes)
    final_state = None

    _guard_check(u_cur, dt, guard, work)

    for m in range(1, n_steps + 1):
        # u_next holds level m+1, computed from u_cur (m) and u_prev (m-1);
        # neighbours are summed first so mirror-symmetric data stay bit-even
        np.add(u_cur[2:], u_cur[:-2], out=work[1:-1])
        if c2 != 1.0:
            work[1:-1] *= c2
            work[1:-1] += (2.0 - 2.0 * c2) * u_cur[1:-1]
        if dt2s != 0.0:
            nl.power_term(u_cur[1:-1], out=pw)
            pw *= dt2s
            work[1:-1] += pw
        np.subtract(work[1:-1], u_prev[1:-1], out=u_next[1:-1])
        u_next[0] = 0.0
        u_next[-1] = 0.0
        _guard_check(u_next, (m + 1) * dt, guard, work)

        if m in schedule or m == n_steps:
            np.subtract(u_next, u_prev, out=v_buf)
            v_buf /= (2.0 * dt)
            state = emit(m, u_cur, v_buf)
            if m == n_steps:
                final_state = state

        u_prev, u_cur, u_next = u_cur, u_next, u_prev

    return final_state


def first_step(init, grid, nl) -> FieldState:
    """State after one step of ``solver._march``, without ``evolve``'s domain check."""
    return solver._march(init, grid, nl, 1, {}, solver.DEFAULT_BLOWUP_GUARD)


def with_full_grid(fn, *args, **kwargs):
    """Call ``fn`` (``evolve`` or ``first_step``) on ``full_grid_march``."""
    with mock.patch.object(solver, "_march", full_grid_march):
        return fn(*args, **kwargs)


def every_level(grid, t_end, fn) -> solver.Observer:
    """An observer that calls ``fn`` at every level of an evolution to ``t_end``."""
    return solver.Observer(np.arange(solver.steps_for(t_end, grid.dt) + 1) * grid.dt, fn)


def level_bytes(fn, init, grid, nl, t_end, **kwargs):
    """Every level ``fn`` emits as (t, u bytes, v bytes), or the blow-up.

    ``fn`` is ``evolve``-like; a ``BlowUpDetected`` is returned as
    ("blowup", t, sup as hex) so two runs compare with ``==``, NaN included.
    """
    levels = []

    def keep(state):
        levels.append((state.t, state.u.tobytes(), state.v.tobytes()))

    try:
        final = fn(init, grid, nl, t_end, observers=[every_level(grid, t_end, keep)], **kwargs)
    except BlowUpDetected as exc:
        return ("blowup", exc.t, float(exc.sup_value).hex())
    return levels + [(final.t, final.u.tobytes(), final.v.tobytes())]


def levine_threshold(init, grid, p: float) -> float:
    """Amplitude A* at which the focusing energy of A * data crosses zero.

    E(A) = (A^2/2)(|u0'|^2 + |u1|^2) - (A^(p+1)/(p+1)) Int |u0|^(p+1); the
    sign change is located by bisection on quadrature values.
    """
    u0, u1 = init.sample(grid)
    state = FieldState(t=0.0, u=u0, v=u1)
    ux, ut = sample_derivatives(state, grid)
    quad = trapezoid(ux * ux + ut * ut, grid.dx)
    pot = trapezoid(np.abs(u0) ** (p + 1.0), grid.dx)
    if pot <= 0.0 or quad <= 0.0:
        raise ValidationError("init", "need nonzero data for the Levine threshold")

    def energy(A):
        return 0.5 * A * A * quad - A ** (p + 1.0) / (p + 1.0) * pot

    lo, hi = 1e-8, 1.0
    while energy(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError("init", "no sign change found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def read_csv(path):
    """(header, rows) with numeric fields parsed back to floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for raw in reader:
            parsed = []
            for item in raw:
                try:
                    parsed.append(float(item))
                except ValueError:
                    parsed.append(item)
            rows.append(parsed)
    return header, rows


def constant_solution_value(p: float) -> float:
    """The nonzero constant profile: f^(p-1) = beta(beta+1)."""
    beta = 2.0 / (p - 1.0)
    return (beta * (beta + 1.0)) ** (1.0 / (p - 1.0))


def _window_sums(C, m, n_nodes):
    """W[j] = sum of gbar over lattice indices [j-m, j+m], gbar zero outside.

    C is the zero-led prefix-sum row (length n_nodes+1).
    """
    last = n_nodes  # C has indices 0..n_nodes
    W = np.empty(n_nodes)
    if 2 * m < n_nodes:
        W[m:n_nodes - m] = C[2 * m + 1:] - C[:n_nodes - 2 * m]
        W[:m] = C[m + 1:2 * m + 1]
        W[n_nodes - m:] = C[last] - C[n_nodes - 2 * m:n_nodes - m]
    else:
        j = np.arange(n_nodes)
        W[:] = C[np.minimum(j + m + 1, last)] - C[np.maximum(j - m, 0)]
    return W


def row_by_row_nonlinear_integral(levels, nl, dx):
    """The one-row-at-a-time triangle sums that ``dalembert.nonlinear_integral``
    replaced; the row-blocked kernel must reproduce them bit for bit.
    """
    K = levels.shape[0] - 1
    n_nodes = levels.shape[1]
    out = np.zeros_like(levels)
    if nl.source_sign == 0.0 or K == 0:
        return out
    g = nl.power_term(levels)
    gbar = 0.5 * (g[:-1] + g[1:])                      # half-level averages
    C = np.zeros((K, n_nodes + 1))
    np.cumsum(gbar, axis=1, out=C[:, 1:])
    scale = 0.5 * nl.source_sign * dx * dx
    for k in range(1, K + 1):
        acc = _window_sums(C[k - 1], 0, n_nodes)
        for l in range(0, k - 1):
            acc += _window_sums(C[l], k - l - 1, n_nodes)
        out[k] = scale * acc
    return out


def with_row_by_row_integral(fn, *args, **kwargs):
    """Call ``fn`` (``picard_fixed_point`` or another oracle entry point) on
    ``row_by_row_nonlinear_integral``."""
    with mock.patch.object(dalembert, "nonlinear_integral", row_by_row_nonlinear_integral):
        return fn(*args, **kwargs)


def blockwise_brute_force(x, w):
    """The one-buffer-per-block brute-force Q that ``pairwise_weighted_distance``
    replaced; its leaf-by-leaf sums must reproduce it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
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


def full_row_morawetz(trajectory, t_max):
    """The full-grid ``morawetz_accumulator`` loop that the zero-skipping one
    replaced; it must reproduce it bit for bit.
    """
    grid = trajectory.grid
    p = trajectory.nl.p
    level_max = trajectory.level_of(t_max)
    x = grid.nodes
    slab = np.empty(level_max + 1)
    for m in range(level_max + 1):
        t = float(trajectory.times[m])
        w = ((t + 1.0) ** 2 - x * x) / (t + 1.0) ** 3
        np.clip(w, 0.0, None, out=w)
        u = trajectory.u_levels[m]
        slab[m] = trapezoid(w * np.abs(u) ** (p + 1.0), grid.dx)
    return trapezoid(slab, grid.dt)


def gather_stencil_ux(u, js, dx, lead=()):
    """The index-gather ``grid.stencil_ux`` that the slice-based one replaced:
    u_x at node indices ``js`` of the rows ``u[lead]``, where ``lead`` holds
    one leading-axis index array per entry of ``js``.  The slice-based
    stencil must reproduce it bit for bit.
    """
    n = u.shape[-1] - 1
    jm = np.clip(js - 1, 0, n)
    jp = np.clip(js + 1, 0, n)
    ux = (u[lead + (jp,)] - u[lead + (jm,)]) / (2.0 * dx)
    left = js == 0
    if left.any():
        at = tuple(a[left] for a in lead)
        ux[left] = (-3.0 * u[at + (0,)] + 4.0 * u[at + (1,)]
                    - u[at + (2,)]) / (2.0 * dx)
    right = js == n
    if right.any():
        at = tuple(a[right] for a in lead)
        ux[right] = (3.0 * u[at + (n,)] - 4.0 * u[at + (n - 1,)]
                     + u[at + (n - 2,)]) / (2.0 * dx)
    return ux


def expression_potential(u, nl):
    """The allocating ``energy.potential`` that the in-place one replaced; it
    must reproduce it bit for bit."""
    if nl.sign == "disabled":
        return np.zeros_like(u, dtype=float)
    return np.abs(u) ** (nl.p + 1.0) / (nl.p + 1.0)


def expression_densities(state, grid, nl):
    """(e_plus, e_minus, e_full, momentum) as the allocating
    ``energy.compute_densities`` that the in-place one replaced built them,
    from a copied velocity; it must reproduce them bit for bit."""
    ux = stencil_ux(state.u, grid.dx)
    ut = state.v.copy()
    diff = ux - ut
    summ = ux + ut
    pot = expression_potential(state.u, nl) / 2.0
    e_plus = 0.25 * diff * diff + pot
    e_minus = 0.25 * summ * summ + pot
    return e_plus, e_minus, e_plus + e_minus, e_minus - e_plus


def expression_norms(state, grid, nl):
    """The allocating ``energy.norms`` that the in-place one replaced; it must
    reproduce it bit for bit."""
    ux = stencil_ux(state.u, grid.dx)
    ut = state.v.copy()
    lp = trapezoid(np.abs(state.u) ** (nl.p + 1.0), grid.dx) ** (1.0 / (nl.p + 1.0))
    sup = float(np.max(np.abs(state.u))) if state.u.size else 0.0
    h1l2 = trapezoid(ux * ux, grid.dx) + trapezoid(ut * ut, grid.dx)
    return lp, sup, h1l2


@contextlib.contextmanager
def traced_memory():
    """Trace allocations for the block; yields ``above()``, which returns the
    (current, peak) traced bytes above the level at entry.  The peak is reset
    at entry."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        yield lambda: tuple(b - base for b in tracemalloc.get_traced_memory())
    finally:
        if started:
            tracemalloc.stop()
