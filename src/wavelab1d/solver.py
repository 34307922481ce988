"""Leapfrog evolution of the semilinear wave equation.

The update is the explicit three-level scheme

    u[n+1] = 2 u[n] - u[n-1] + cfl^2 (u[n]_{j+1} - 2 u[n]_j + u[n]_{j-1})
             + dt^2 * sign * |u[n]|^(p-1) u[n],

which at cfl = 1 reduces to the exact lattice transport
u[n+1]_j = u[n]_{j+1} + u[n]_{j-1} - u[n-1]_j for the linear part, so flux
diagnostics along characteristics line up with the lattice diagonals.
Velocities are reconstructed as v[n] = (u[n+1] - u[n-1]) / (2 dt).

At cfl = 1 the defocusing scheme is unstable at the Nyquist mode.  Freeze
the coefficient V = p|u|^(p-1) > 0 of the linearised power term; the mode
(-1)^j lambda^n then satisfies lambda + 1/lambda = -(2 + dt^2 V), so one
root has |lambda| > 1 (about 1 + dt sqrt(V), a growth rate per unit time
that does not shrink with dt).  For cfl < 1 the right-hand side is
2 - 4 cfl^2 - dt^2 V, inside [-2, 2] on resolved grids, and the mode is
neutral.  The defocusing solution itself is bounded by its energy, so this
growth is numerical; it is seeded by rounding and usually stays far below
the blow-up guard, but not always:

    wavelab1d decay --override grid.dx=0.00125 --override grid.cfl=1.0 \
        --override init.amplitude=6.0 --override init.width=0.25

stops with BlowUpDetected at t = 29.155 (sup 2.7e8), while the same run at
grid.cfl = 0.9 stays bounded.  A run at the default cfl is trustworthy only
while this growth stays below the guard.

Only the data's lattice cone is stepped.  The loop keeps a node window
[lo, hi) that holds every node whose bits may be nonzero at the current or
the previous level, starting from the bitwise nonzero extent of levels 0
and 1.  The three-point stencil reads only j +- 1, so the window widens by
exactly one node on each side per step at every cfl <= 1 (the scheme's
numerical domain of dependence, whatever the cfl), clamped to the interior.
Outside the window the full-grid update would compute 0 + 0, +-0 * dt^2
and 0 - 0, which is +0.0, and the rotated buffers already hold +0.0 there,
so every emitted state is bit-identical to updating the whole grid.  The
window tests bits, not values: a negative-amplitude bump samples to -0.0
outside its support, and the full-grid update turns those nodes into +0.0,
a difference CSV output shows.  NaN samples fall inside the window too, so
the blow-up guard still sees them.

The loop steps [lo, hi) rounded out to whole 64-byte cache lines (8
doubles), clamped to the interior, on buffers that start on a cache line.
A numpy ufunc writing to a separate output runs about twice as fast when
that output starts on a line, and [lo, hi) moves by one node per step.  The
extra nodes lie outside [lo, hi), so they hold +0.0 at levels m and m - 1
and read only +0.0 neighbours; the update turns them into +0.0 again, as
above, and the emitted bits are those of the full-grid update.

Mirror-symmetric data are stepped on half the lattice.  When levels 0 and 1
are bit palindromes (their int64 views equal their reverses, so -0.0 and
NaN count by their bits) and n >= 4, the loop steps nodes [0, h), with
h = (n + 1) // 2, on buffers of h + 1 nodes.  Level 1 is tested, not u1: a
zero velocity of the default data is -0.0 on one side of the centre and
+0.0 on the other, and adding it to u0 drops the sign.  Ghost node h takes
the value of node n - 1 - h after each step, in place of the zero boundary
node n - 1.  Otherwise h = n - 1 and the ghost copies boundary node 0,
which is the full-grid loop.  At the mirror node n - 1 - j the full update
applies the same operations to the same operands: only the neighbour sum
u[j+1] + u[j-1] swaps its operands, and IEEE addition is commutative; the
power term, the cfl and dt^2 products and the subtraction of level m - 1
are elementwise; both boundaries are +0.0.  So every level is a
palindrome, and each emitted state is rebuilt bit for bit from nodes
[0, h) and their mirror images.  The ghost is nonzero only while its
mirror node is in [lo, hi), so the window and cache-line arguments above
hold with h as the right limit.  The guard reads the half, which holds
every value of the level, so the bound, the exact checks and
BlowUpDetected(t, sup) are those of the full grid.  A NaN sup appears only
after an exact check forced by an overflowing bound, and abs gives it the
default payload on either path.

The guard (|u| below it at every level) is checked exactly at levels 0 and
1.  After that the loop carries bounds S on sup|u| at levels m - 1 and m
and propagates

    S[m+1] = (1 + 1e-12) (L S[m] + S[m-1] + |dt^2 sign| S[m]^p) + 1e-300,

with L = 2 cfl^2 + |2 - 2 cfl^2| the stencil's sum of coefficients.  The
factor covers the rounding of the update's few operations and of pow, the
1e-300 the absolute error of subnormal results (notes/decisions.md).  A
level whose bound is below the guard cannot trip it, so it is not
checked.  A bound that is not below the guard (inf on overflow) forces an
exact check of level m+1, which raises at the same step with the same sup
as a check at every level would, and of level m, so the bound restarts
from two exact sups.  Level m is emitted only after level m+1 passed, as
before.

Evolutions are strictly sequential in time; emitted FieldState snapshots are
immutable and safe to share across threads.  Independent evolutions share no
mutable state.
"""
from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpDetected, DomainTooSmall, ValidationError
from .grid import (FieldState, GridSpec, InitialData, Nonlinearity, aligned_zeros, bit_extent,
                   stencil_ux)

DEFAULT_BLOWUP_GUARD = 1e8


@dataclass(frozen=True)
class Observer:
    """Callback invoked with the current FieldState at each requested time.

    Each requested time is mapped to the first grid time at or after it;
    times that map to the same grid time invoke ``fn`` once.
    """

    times: Sequence[float]
    fn: Callable[[FieldState], None]


def steps_for(t_end: float, dt: float) -> int:
    """Number of steps to the first grid time >= t_end."""
    return max(0, int(math.ceil(t_end / dt - 1e-9)))


def _start_level(u0, u1, init: InitialData, grid: GridSpec, nl: Nonlinearity):
    """Second-order starting level u[1].

    u[1] = u[0] + (cfl^2/2) lap(u0) + (1/2) Int_{x-dt}^{x+dt} u1 dx'
         + (dt^2/2) forcing(u0),

    using the exact antiderivative of u1 when the data provide one (this
    keeps the linear cfl=1 evolution an exact lattice shift) and the
    midpoint value dt*u1 otherwise.
    """
    dt = grid.dt
    c2 = grid.cfl * grid.cfl
    x = grid.nodes
    exact = init.u1_integral(x - dt, x + dt)
    vel_part = 0.5 * exact if exact is not None else dt * u1
    u_next = u0 + vel_part + (dt * dt / 2.0) * nl.forcing(u0)
    # neighbours are summed first so mirror-symmetric data stay bit-even
    u_next[1:-1] += (c2 / 2.0) * (u0[2:] + u0[:-2]) - c2 * u0[1:-1]
    u_next[0] = 0.0
    u_next[-1] = 0.0
    return u_next


def _check_domain(init: InitialData, grid: GridSpec, n_steps: int):
    support = init.support_interval(grid)
    if support is None:
        return
    lo, hi = support
    margin = (n_steps + 2) * grid.dx
    tol = 1e-9 * grid.dx
    if lo - margin < grid.x_min - tol or hi + margin > grid.x_max + tol:
        raise DomainTooSmall(
            f"support [{lo:.4g}, {hi:.4g}] plus cone expansion {margin:.4g} "
            f"exceeds the domain [{grid.x_min:.4g}, {grid.x_max:.4g}]")


def evolve(init: InitialData, grid: GridSpec, nl: Nonlinearity, t_end: float,
           observers: Sequence[Observer] = (),
           guard: float = DEFAULT_BLOWUP_GUARD) -> FieldState:
    """Evolve the Cauchy problem to the first grid time >= t_end.

    Observers are invoked at every requested sample time.  Raises
    BlowUpDetected if any sample goes non-finite or |u| exceeds the guard
    (the expected outcome for focusing runs), and DomainTooSmall if the
    support cone would reach the boundary.  Deterministic: identical inputs
    produce bit-identical outputs.
    """
    if t_end < 0.0:
        raise ValidationError("t_end", "must be nonnegative")
    dt = grid.dt
    n_steps = steps_for(t_end, dt)
    _check_domain(init, grid, n_steps)

    # schedule[step] -> observer callbacks due at that step, each observer
    # once per step even when several of its times map to that step
    schedule: dict[int, list] = {}
    for obs in observers:
        steps = set()
        for t_req in obs.times:
            step = steps_for(t_req, dt)
            if step > n_steps:
                raise ValidationError("observer", f"sample time {t_req!r} beyond t_end")
            steps.add(step)
        for step in steps:
            schedule.setdefault(step, []).append(obs.fn)
    return _march(init, grid, nl, n_steps, schedule, guard)


def _march(init, grid, nl, n_steps, schedule, guard) -> FieldState:
    """The leapfrog loop of ``evolve``.

    Steps the cache-line-rounded window, on half the lattice when both start
    levels are bit palindromes, and checks the guard only where the sup bound
    reaches it, as the module docstring describes.
    """
    dt = grid.dt
    u0, u1 = init.sample(grid)

    def emit(step, u_arr, v_arr):
        state = FieldState(t=step * dt, u=u_arr, v=v_arr)
        for fn in schedule.get(step, ()):
            fn(state)
        return state

    s_prev = _guard_check(u0, 0.0, guard, np.empty_like(u0))

    state = emit(0, u0.copy(), u1.copy()) if 0 in schedule or n_steps == 0 else None
    if n_steps == 0:
        return state

    # the buffers hold nodes [0, h]; ghost node h copies node n - 1 - h after
    # each step: its mirror image, or on the full grid (h = n - 1) node 0
    n_nodes = grid.n_nodes
    level1 = _start_level(u0, u1, init, grid, nl)
    h = (n_nodes + 1) // 2
    if h < n_nodes - 1 and _is_palindrome(u0) and _is_palindrome(level1):
        def whole(half):
            return np.concatenate((half[:h], half[:n_nodes - h][::-1]))
    else:
        h, whole = n_nodes - 1, np.copy
    mirror = n_nodes - 1 - h
    u_prev, u_cur, u_next, work, tmp, v_buf = aligned_zeros(6, h + 1)
    u_prev[:] = u0[:h + 1]
    u_cur[:] = level1[:h + 1]

    c2 = grid.cfl * grid.cfl
    dt2s = grid.dt * grid.dt * nl.source_sign

    # [lo, hi) holds every node whose bits may be nonzero at level m or m - 1;
    # [a, b) is the stepped window, [lo, hi) rounded out to whole cache lines
    lo, hi = bit_extent(u_prev.view(np.int64) | u_cur.view(np.int64))
    a, b = lo, hi
    # s_prev, s_cur bound sup|u| at levels m - 1 and m
    s_cur = _guard_check(u_cur[a:b], dt, guard, work[a:b])
    k = 2.0 - 2.0 * c2
    lip = 2.0 * c2 + abs(k)
    abs_dt2s = abs(dt2s)
    p = nl.p

    for m in range(1, n_steps + 1):
        if lo < hi:
            lo, hi = max(lo - 1, 1), min(hi + 1, h)
            a, b = max(lo - lo % 8, 1), min(hi - hi % -8, h)
        w = slice(a, b)
        # u_next holds level m+1, computed from u_cur (m) and u_prev (m-1);
        # neighbours are summed first so mirror-symmetric data stay bit-even
        np.add(u_cur[a + 1:b + 1], u_cur[a - 1:b - 1], out=work[w])
        if c2 != 1.0:
            work[w] *= c2
            np.multiply(u_cur[w], k, out=tmp[w])
            work[w] += tmp[w]
        if dt2s != 0.0:
            nl.power_term(u_cur[w], out=tmp[w])
            tmp[w] *= dt2s
            work[w] += tmp[w]
        np.subtract(work[w], u_prev[w], out=u_next[w])
        u_next[0] = 0.0
        u_next[h] = u_next[mirror]
        try:
            bound = (1.0 + 1e-12) * (lip * s_cur + s_prev + abs_dt2s * s_cur ** p) + 1e-300
        except OverflowError:
            bound = math.inf
        if bound < guard:
            s_prev, s_cur = s_cur, bound
        else:
            s_next = _guard_check(u_next[w], (m + 1) * dt, guard, work[w])
            s_prev, s_cur = _guard_check(u_cur[w], m * dt, guard, work[w]), s_next

        if m in schedule or m == n_steps:
            state = emit(m, whole(u_cur), whole(_velocity(u_next, u_prev, dt, out=v_buf)))

        u_prev, u_cur, u_next = u_cur, u_next, u_prev

    return state


def _velocity(u_next, u_prev, dt, out=None):
    """(u[m+1] - u[m-1]) / (2 dt), the velocity of level m."""
    v = np.subtract(u_next, u_prev, out=out)
    v /= 2.0 * dt
    return v


def _is_palindrome(a):
    """Whether ``a`` reads the same reversed, bit for bit (-0.0 and NaN included)."""
    bits = a.view(np.int64)
    return np.array_equal(bits, bits[::-1])


def _lazy_zeros(shape):
    """+0.0 float64 array in a private anonymous mapping without huge pages,
    so only the pages written to become resident (``Trajectory``)."""
    anonymous = getattr(mmap, "MAP_ANONYMOUS", None)
    if anonymous is None:
        return np.zeros(shape)
    buf = mmap.mmap(-1, math.prod(shape) * 8, flags=mmap.MAP_PRIVATE | anonymous)
    no_huge_pages = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if no_huge_pages is not None:
        with contextlib.suppress(OSError):      # a kernel without huge pages
            buf.madvise(no_huge_pages)
    return np.frombuffer(buf).reshape(shape)


def _guard_check(u, t, guard, scratch):
    """sup |u|; raises BlowUpDetected(t, sup) unless it is below the guard."""
    if not u.size:
        return 0.0
    np.abs(u, out=scratch)
    sup = float(scratch.max())
    if not (sup < guard):
        raise BlowUpDetected(t, sup)
    return sup


class Trajectory:
    """Dense storage of an evolution: every time level of u.

    Intended for short horizons (flux loops, trapezoid checks, virial and
    Morawetz integrals); long experiments use observers instead.  Storage is
    append-only during evolution and read-only afterwards.

    ``u_levels`` has shape (n_levels, n_nodes).  ``v_levels`` has shape
    (2, n_nodes) and holds only the two velocities the u levels cannot give:
    row 0 is level 0 (the data's u1) and row -1 is the last level (it needs
    the unstored level n_levels).  With one level both rows are u1.  Every
    other velocity is recomputed from the same operands by the stepper's own
    ``_velocity``, so ``state`` and ``pointwise`` return the stepper's
    velocities bit for bit.

    Only the data's lattice cone of ``u_levels`` is resident.  The array
    lives in a private anonymous mapping with transparent huge pages off:
    its untouched pages read as +0.0 through the kernel's shared zero page
    and count toward no process's resident memory.  Each level writes only
    its bitwise nonzero extent, from the first to the last node whose bits
    are not +0.0 (-0.0 and NaN inside it are copied); every bit outside it
    is +0.0, which the mapping already holds.  ``np.zeros`` would not do:
    numpy advises huge pages for large arrays, so the first write into any
    2 MB region makes the whole region resident.  Nor would a shared
    mapping: it is shmem, whose holes become resident pages when read, as
    the consumers' full-row reads do.  Without anonymous mappings
    ``u_levels`` is ``np.zeros``, with the same bits, all resident.
    """

    def __init__(self, grid: GridSpec, nl: Nonlinearity, times, u_levels, v_levels):
        self.grid = grid
        self.nl = nl
        self.times = times
        self.u_levels = u_levels
        self.v_levels = v_levels
        for arr in (times, u_levels, v_levels):
            arr.setflags(write=False)

    @classmethod
    def record(cls, init: InitialData, grid: GridSpec, nl: Nonlinearity,
               t_end: float, guard: float = DEFAULT_BLOWUP_GUARD) -> "Trajectory":
        n_steps = steps_for(t_end, grid.dt)
        times = np.arange(n_steps + 1) * grid.dt
        u_levels = _lazy_zeros((n_steps + 1, grid.n_nodes))
        v_levels = np.empty((2, grid.n_nodes))

        def store(state):
            step = grid.step_of(state.t)
            i, j = bit_extent(state.u)
            u_levels[step, i:j] = state.u[i:j]
            if step == 0:
                v_levels[0] = state.v
            if step == n_steps:
                v_levels[-1] = state.v

        evolve(init, grid, nl, t_end, observers=[Observer(times, store)], guard=guard)
        return cls(grid, nl, times, u_levels, v_levels)

    @property
    def n_levels(self) -> int:
        return len(self.times)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def level_of(self, t: float) -> int:
        level = self.grid.step_of(t)
        if level >= self.n_levels:
            raise ValidationError("time", f"t={t!r} beyond the stored trajectory")
        return level

    def state(self, level: int) -> FieldState:
        level = range(self.n_levels)[level]
        return FieldState(t=float(self.times[level]), u=self.u_levels[level].copy(),
                          v=self._velocity(level, slice(None)))

    def pointwise(self, levels, js):
        """(u, u_x, u_t) at lattice points (levels[i], js[i]), vectorized.

        u_x is ``stencil_ux``, the stencil of sample_derivatives.
        """
        levels = np.arange(self.n_levels)[np.asarray(levels, dtype=int)]
        js = np.asarray(js, dtype=int)
        ux = stencil_ux(self.u_levels, js, self.grid.dx, (levels,))
        return self.u_levels[levels, js], ux, self._velocity(levels, js)

    def _velocity(self, levels, js):
        """u_t at (levels, js): the stored end rows, else the stepper's difference."""
        last = self.n_levels - 1
        u = self.u_levels
        v = _velocity(u[np.minimum(levels + 1, last), js], u[np.maximum(levels - 1, 0), js],
                      self.grid.dt)
        return np.where(levels == 0, self.v_levels[0, js],
                        np.where(levels == last, self.v_levels[-1, js], v))
