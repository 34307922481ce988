"""Grid, nonlinearity, field-state and initial-data primitives.

The continuum problem is the semilinear wave equation

    u_tt - u_xx = sign * |u|^(p-1) u,        (x, t) in R x R,

discretized on a uniform grid over [x_min, x_max] with homogeneous Dirichlet
ends.  The Dirichlet condition is exact as long as the support cone of the
data never reaches the boundary, which the solver enforces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# |u0| below this threshold counts as zero when truncating gaussian tails.
SUPPORT_TRUNCATION = 1e-14

_SIGNS = ("defocusing", "focusing", "disabled")


@dataclass(frozen=True)
class Nonlinearity:
    """Power nonlinearity |u|^(p-1) u with a sign convention.

    ``defocusing`` puts -|u|^(p-1)u on the right-hand side of the wave
    equation, ``focusing`` +|u|^(p-1)u, and ``disabled`` drops the term
    entirely (linear validation mode).
    """

    p: float
    sign: str = "defocusing"

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValidationError("nl.p", "p must exceed 1")
        if self.sign not in _SIGNS:
            raise ValidationError("nl.sign", f"must be one of {_SIGNS}")

    @property
    def source_sign(self) -> float:
        """Sign multiplying |u|^(p-1)u on the right-hand side (0 if disabled)."""
        return {"defocusing": -1.0, "focusing": 1.0, "disabled": 0.0}[self.sign]

    def power_term(self, u, out=None):
        """|u|^(p-1) u, elementwise, written into ``out`` when given.

        ``out`` must not alias ``u``.  Fast paths for p in {2, 3, 5}.
        """
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.p == 3.0:
            np.multiply(u, u, out=out)
            out *= u
        elif self.p == 2.0:
            np.abs(u, out=out)
            out *= u
        elif self.p == 5.0:
            np.multiply(u, u, out=out)
            np.multiply(out, out, out=out)
            out *= u
        else:
            np.abs(u, out=out)
            np.power(out, self.p - 1.0, out=out)
            out *= u
        return out

    def forcing(self, u):
        """Right-hand side sign * |u|^(p-1) u (zero array if disabled)."""
        if self.sign == "disabled":
            return np.zeros_like(np.asarray(u, dtype=float))
        return self.source_sign * self.power_term(u)


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid with nodes x_j = x_min + j*dx, j = 0..n_cells.

    The time step is slaved to the grid through the CFL ratio, dt = cfl*dx.
    cfl = 1 aligns the space-time lattice with the characteristics.
    """

    x_min: float
    x_max: float
    n_cells: int
    cfl: float = 1.0
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValidationError("grid.n_cells", "need at least 2 cells")
        if not self.x_max > self.x_min:
            raise ValidationError("grid.x_max", "x_max must exceed x_min")
        if not 0.0 < self.cfl <= 1.0:
            raise ValidationError("grid.cfl", "cfl in (0,1]")
        if self.x_min == -self.x_max:
            # bit-symmetric nodes so even data evolve exactly evenly
            nodes = (np.arange(self.n_cells + 1) - self.n_cells / 2.0) * self.dx
        else:
            nodes = np.linspace(self.x_min, self.x_max, self.n_cells + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def dt(self) -> float:
        return self.cfl * self.dx

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def index_of(self, x: float) -> int:
        """Node index of a lattice-aligned position; raises if off-lattice."""
        jf = (x - self.x_min) / self.dx
        j = int(round(jf))
        if abs(jf - j) > 1e-6 or not 0 <= j <= self.n_cells:
            raise ValidationError("position", f"x={x!r} is not a grid node")
        return j

    def step_of(self, t: float) -> int:
        """Time-step index of a lattice-aligned time; raises if off-lattice."""
        mf = t / self.dt
        m = int(round(mf))
        if abs(mf - m) > 1e-6 or m < 0:
            raise ValidationError("time", f"t={t!r} is not a lattice time")
        return m


@dataclass(frozen=True)
class FieldState:
    """One immutable time slice of the discrete solution.

    ``u`` holds displacement samples and ``v`` velocity samples (v
    approximates u_t) on the grid nodes.  Arrays are frozen so snapshots can
    be handed to other threads safely.
    """

    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValidationError("state", "u and v must be 1-d arrays of equal length")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValidationError("state", "non-finite samples (blow-up?)")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


_KINDS = ("gaussian", "polynomial_bump", "explicit_samples")


@dataclass(frozen=True)
class InitialData:
    """Initial data (u0, u1) for the Cauchy problem.

    Supported kinds:

    * ``gaussian``: u0 = A exp(-((x-c)/w)^2), truncated to exact zero where
      |u0| < SUPPORT_TRUNCATION.  The induced energy error is O(trunc^2 * w),
      around 1e-28 for unit parameters.
    * ``polynomial_bump``: u0 = A (1 - ((x-c)/R)^2)_+^q, compactly supported.
    * ``explicit_samples``: u0, u1 given directly on the grid nodes.

    For the analytic kinds the velocity is u1 = -velocity_fraction * u0', so
    velocity_fraction = 1 is a pure right-mover and 0 is time-symmetric data.
    ``mirror`` adds the spatial reflection of the data, producing even data
    (two-bump profiles for the concentration experiments).  ``width`` and
    ``radius`` must be positive and ``power`` at least 1 whatever the kind.
    """

    kind: str
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    radius: float = 1.0
    power: int = 2
    velocity_fraction: float = 0.0
    mirror: bool = False
    u_samples: np.ndarray | None = None
    v_samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError("init.kind", f"must be one of {_KINDS}")
        if not self.radius > 0:
            raise ValidationError("init.radius", "must be positive")
        if not self.power >= 1:
            raise ValidationError("init.power", "must be >= 1")
        if not self.width > 0:
            raise ValidationError("init.width", "must be positive")
        if self.kind == "explicit_samples":
            if self.u_samples is None or self.v_samples is None:
                raise ValidationError("init", "explicit_samples needs u_samples and v_samples")
            u = np.asarray(self.u_samples, dtype=float)
            v = np.asarray(self.v_samples, dtype=float)
            u.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "u_samples", u)
            object.__setattr__(self, "v_samples", v)

    # -- constructors ----------------------------------------------------

    @classmethod
    def gaussian(cls, **fields):
        return cls(kind="gaussian", **fields)

    @classmethod
    def polynomial_bump(cls, **fields):
        return cls(kind="polynomial_bump", **fields)

    @classmethod
    def explicit(cls, u, v):
        return cls(kind="explicit_samples", u_samples=np.array(u, dtype=float),
                   v_samples=np.array(v, dtype=float))

    @classmethod
    def zero(cls):
        return cls(kind="gaussian", amplitude=0.0)

    # -- pointwise evaluation (analytic kinds) ---------------------------

    def _truncation_radius(self) -> float:
        """Half-width outside which u0 is treated as exactly zero."""
        if self.kind == "gaussian":
            if abs(self.amplitude) <= SUPPORT_TRUNCATION:
                return 0.0
            return self.width * math.sqrt(math.log(abs(self.amplitude) / SUPPORT_TRUNCATION))
        return self.radius if self.amplitude != 0.0 else 0.0

    def _base(self, x, derivative):
        """The unmirrored profile b(x), or b'(x) when ``derivative``."""
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            if abs(self.amplitude) <= SUPPORT_TRUNCATION:
                return np.zeros_like(x)
            z = (x - self.center) / self.width
            out = self.amplitude * np.exp(-z * z)
            if derivative:
                out = out * (-2.0 * z / self.width)
            out[np.abs(x - self.center) > self._truncation_radius()] = 0.0
            return out
        if self.kind == "polynomial_bump":
            z = (x - self.center) / self.radius
            body = 1.0 - z * z
            if not derivative:
                np.clip(body, 0.0, None, out=body)
                return self.amplitude * body ** self.power
            inside = body > 0.0
            out = np.zeros_like(x)
            out[inside] = (self.amplitude * self.power
                           * body[inside] ** (self.power - 1)
                           * (-2.0 * z[inside] / self.radius))
            return out
        raise ValidationError("init.kind", f"{self.kind} has no closed form")

    def _mirrored(self, x, scale, mirror_scale, derivative=False):
        """scale * b(x), plus mirror_scale * b(-x) when the data are mirrored.

        The mirror of (u0, u1)(x) is (u0(-x), u1(-x)), so u0 takes
        (1, 1), u1 = -vf * b' takes (-vf, -vf) and its antiderivative
        -vf * b takes (-vf, vf).
        """
        x = np.asarray(x, dtype=float)
        out = scale * self._base(x, derivative)
        if self.mirror:
            out = out + mirror_scale * self._base(-x, derivative)
        return out

    def u0_at(self, x):
        """u0 evaluated at arbitrary positions (analytic kinds only)."""
        return self._mirrored(x, 1.0, 1.0)

    def u1_at(self, x):
        """u1 evaluated at arbitrary positions (analytic kinds only)."""
        vf = self.velocity_fraction
        return self._mirrored(x, -vf, -vf, derivative=True)

    def u1_integral(self, x_lo, x_hi):
        """Exact integral of u1 over [x_lo, x_hi], or None if unavailable.

        For the analytic kinds with u1 = -vf*u0' the antiderivative is
        -vf*u0, which keeps the characteristic-aligned start of the solver
        exact on the lattice.
        """
        if self.kind == "explicit_samples":
            return None
        vf = self.velocity_fraction
        return self._mirrored(x_hi, -vf, vf) - self._mirrored(x_lo, -vf, vf)

    # -- grid sampling ---------------------------------------------------

    def sample(self, grid: GridSpec):
        """(u0, u1) sampled on the grid nodes as fresh float64 arrays."""
        if self.kind == "explicit_samples":
            if len(self.u_samples) != grid.n_nodes:
                raise ValidationError("init", "explicit samples do not match the grid")
            return self.u_samples.copy(), self.v_samples.copy()
        x = grid.nodes
        return self.u0_at(x), self.u1_at(x)

    def support_interval(self, grid: GridSpec | None = None):
        """Smallest interval containing all nonzero data, or None if zero.

        The analytic kinds do not need the grid argument.
        """
        if self.kind == "explicit_samples":
            if grid is None:
                raise ValidationError("init", "explicit samples need a grid")
            u0, u1 = self.u_samples, self.v_samples
            nz = np.nonzero((u0 != 0.0) | (u1 != 0.0))[0]
            if nz.size == 0:
                return None
            return grid.nodes[nz[0]], grid.nodes[nz[-1]]
        r = self._truncation_radius()
        if r == 0.0:
            return None
        lo, hi = self.center - r, self.center + r
        if self.mirror:
            lo, hi = min(lo, -hi), max(hi, -lo)
        return lo, hi


def aligned_zeros(n_rows: int, n: int) -> np.ndarray:
    """(n_rows, n) float64 +0.0 array whose rows each start on a 64-byte line.

    Rows are padded to a stride of whole lines (8 doubles).  An out-of-place
    ufunc runs up to about twice as fast into an output that starts on a
    line (notes/decisions.md).
    """
    stride = n - n % -8
    raw = np.zeros(n_rows * stride + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + n_rows * stride].reshape(n_rows, stride)[:, :n]


def bit_extent(u) -> tuple[int, int]:
    """[i, j) from the first to past the last value of float64 (or int64)
    ``u`` whose bits are not all zero, so -0.0 and NaN count; (0, 0) when
    every bit is zero.

    One byte per value and a byte search from each end: ``np.flatnonzero``
    over a 10,401-node row takes several times as long.
    """
    bits = (u.view(np.int64) != 0).tobytes()
    i = bits.find(1)
    return (i, bits.rfind(1) + 1) if i >= 0 else (0, 0)


def stencil_ux(u, dx: float):
    """u_x along the last axis of ``u``, which holds at least 3 nodes.

    Central differences at interior nodes and one-sided second-order
    stencils at the two ends, so linear ramps differentiate exactly
    everywhere.  One output array is the only allocation.
    """
    ux = np.empty(u.shape)
    np.subtract(u[..., 2:], u[..., :-2], out=ux[..., 1:-1])
    ux[..., 1:-1] /= 2.0 * dx
    ux[..., 0] = (-3.0 * u[..., 0] + 4.0 * u[..., 1] - u[..., 2]) / (2.0 * dx)
    ux[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dx)
    return ux


def sample_derivatives(state: FieldState, grid: GridSpec):
    """(u_x, u_t) on the grid nodes.

    u_t is the state's own read-only velocity array, not a copy; u_x is
    ``stencil_ux`` of the state's u.
    """
    return stencil_ux(state.u, grid.dx), state.v
