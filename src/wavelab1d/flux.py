"""Closed-curve flux identities and the characteristic trapezoid law.

For a counterclockwise polygon with edges parallel to the axes or the light
rays, the line integral

    Int_Gamma  e dx + e' dt

vanishes for the exact solution, where (e, e') is either directional pair

    e+ , e'+ = -(1/4)|u_x - u_t|^2 + |u|^(p+1)/(2(p+1))
    e- , e'- = +(1/4)|u_x + u_t|^2 - |u|^(p+1)/(2(p+1)).

Along characteristic edges the combination simplifies: a right-going ray
carries |u|^(p+1)/(p+1) for e+ (nonlinear gain) and (1/2)|u_x + u_t|^2 for
e-, and mirrored for left-going rays.  Edge integrals use composite
trapezoid quadrature on the lattice; at cfl = 1 characteristic edges sample
the lattice diagonals exactly.  At cfl < 1 characteristic edges fall between
nodes and x is interpolated linearly; the closure residual stays second
order (measured at cfl 0.9 on characteristic parallelograms: 3.4e-6, 8.4e-7,
2.1e-7 at dx = 0.01, 0.005, 0.0025).  Vertex, edge and trapezoid window
times must still be lattice times, multiples of dt, or a ValidationError
names the time.  The default
flux-check path (vertex time 0.5) and trapezoid window (t = 1) are not
lattice times at cfl = 0.9, so those runs exit 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import compute_densities, interval_energy, potential, trapezoid
from .errors import PathOutsideDomain, RayOutsideDomain, ValidationError
from .solver import Trajectory

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
RIGHT_CHAR = "right_characteristic"
LEFT_CHAR = "left_characteristic"


@dataclass(frozen=True)
class Edge:
    x0: float
    t0: float
    x1: float
    t1: float
    tag: str


class PolygonPath:
    """Simple closed counterclockwise polygon in the (x, t) plane.

    Every edge must be parallel to an axis or to a light ray; tags are
    inferred from the vertex list.  The path is closed automatically.
    """

    def __init__(self, vertices):
        pts = [tuple(map(float, v)) for v in vertices]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValidationError("path", "need at least three vertices")
        self.vertices = pts
        self.edges = []
        scale = max(max(abs(x), abs(t)) for x, t in pts) + 1.0
        tol = 1e-9 * scale
        for (x0, t0), (x1, t1) in zip(pts, pts[1:] + pts[:1]):
            dx, dt = x1 - x0, t1 - t0
            if abs(dx) <= tol and abs(dt) <= tol:
                raise ValidationError("path", "degenerate edge (repeated vertex)")
            if abs(dt) <= tol:
                tag = HORIZONTAL
            elif abs(dx) <= tol:
                tag = VERTICAL
            elif abs(dx - dt) <= tol:
                tag = RIGHT_CHAR
            elif abs(dx + dt) <= tol:
                tag = LEFT_CHAR
            else:
                raise ValidationError(
                    "path", f"edge ({x0:.4g},{t0:.4g})->({x1:.4g},{t1:.4g}) is neither "
                    "axis-parallel nor characteristic")
            self.edges.append(Edge(x0, t0, x1, t1, tag))
        if self._signed_area() <= 0.0:
            raise ValidationError("path", "vertices must be ordered counterclockwise")

    def _signed_area(self) -> float:
        area = 0.0
        for e in self.edges:
            area += e.x0 * e.t1 - e.x1 * e.t0
        return 0.5 * area

    @property
    def tags(self):
        return [e.tag for e in self.edges]


def rectangle(x0: float, x1: float, t0: float, t1: float) -> PolygonPath:
    """Axis-aligned counterclockwise rectangle [x0,x1] x [t0,t1]."""
    return PolygonPath([(x0, t0), (x1, t0), (x1, t1), (x0, t1)])


def parallelogram(x0: float, x1: float, t0: float, height: float,
                  slope: int = 1) -> PolygonPath:
    """Characteristic-sided parallelogram over [x0, x1] at t0, given height.

    slope +1 tilts along right-going rays, -1 along left-going rays.
    """
    s = float(slope) * height
    return PolygonPath([(x0, t0), (x1, t0), (x1 + s, t0 + height), (x0 + s, t0 + height)])


def example_flux_polygon(a: float, b: float, h: float, t0: float) -> PolygonPath:
    """The worked-example hexagon whose edges carry the Q1..Q4 decomposition.

    Bottom edge [a, b] at time t0, characteristic sides of height h, top
    edge [a, b] again at t0 + 2h.
    """
    return PolygonPath([
        (a, t0), (b, t0), (b + h, t0 + h), (b, t0 + 2 * h),
        (a, t0 + 2 * h), (a - h, t0 + h),
    ])


_EXAMPLE_TAGS = [HORIZONTAL, RIGHT_CHAR, LEFT_CHAR, HORIZONTAL, RIGHT_CHAR, LEFT_CHAR]


@dataclass(frozen=True)
class FluxReport:
    """Per-edge flux integrals of a closed path and their signed sum."""

    which: str
    vertices: tuple
    tags: tuple
    edge_integrals: tuple
    closure_residual: float
    q_decomposition: dict | None

    def as_dict(self) -> dict:
        out = {
            "which": self.which,
            "vertices": [list(v) for v in self.vertices],
            "edges": [{"tag": tag, "value": val}
                      for tag, val in zip(self.tags, self.edge_integrals)],
            "closure_residual": self.closure_residual,
        }
        if self.q_decomposition is not None:
            out["q_decomposition"] = dict(self.q_decomposition)
        return out


@dataclass(frozen=True)
class TrapezoidReport:
    """Both forms of the characteristic energy-transfer identity.

    lhs_left tracks the energy gained left of the moving ray, lhs_right the
    energy lost right of it; both must equal the characteristic flux
    integral, and each residual is reported separately.
    """

    which: str
    eta: float
    t1: float
    t2: float
    lhs_left: float
    lhs_right: float
    flux_integral: float
    residual_left: float
    residual_right: float
    conservation_gap: float


def _check_simple(path: PolygonPath):
    """Reject self-intersecting paths (exact test on the vertices' float values)."""
    pts = [(Fraction(x), Fraction(t)) for x, t in path.vertices]
    n = len(pts)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    def crosses(p, q, r, s):
        o1, o2 = orient(p, q, r), orient(p, q, s)
        o3, o4 = orient(r, s, p), orient(r, s, q)
        if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)):
            return True
        for (a, b, c) in ((p, q, r), (p, q, s), (r, s, p), (r, s, q)):
            if orient(a, b, c) == 0 and on_segment(a, b, c):
                return True
        return False

    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            r, s = pts[j], pts[(j + 1) % n]
            if crosses(p, q, r, s):
                raise ValidationError("path", "polygon is not simple")


def _gather(traj: Trajectory, levels, xs):
    """(u, u_x, u_t) along given levels and x positions, node-snapped."""
    grid = traj.grid
    jf = (np.asarray(xs, dtype=float) - grid.x_min) / grid.dx
    j_round = np.round(jf)
    theta = jf - j_round
    snapped = np.abs(theta) <= 1e-9
    if snapped.all():
        return traj.pointwise(levels, j_round.astype(int))
    j0 = np.floor(jf).astype(int)
    np.clip(j0, 0, grid.n_cells - 1, out=j0)
    th = jf - j0
    u_a, ux_a, ut_a = traj.pointwise(levels, j0)
    u_b, ux_b, ut_b = traj.pointwise(levels, j0 + 1)
    return (u_a * (1 - th) + u_b * th,
            ux_a * (1 - th) + ux_b * th,
            ut_a * (1 - th) + ut_b * th)


def _characteristic_integrand(u, ux, ut, nl, tag, which):
    if which == "plus":
        if tag == RIGHT_CHAR:
            return potential(u, nl)
        d = ux - ut
        return -0.5 * d * d
    if tag == RIGHT_CHAR:
        s = ux + ut
        return 0.5 * s * s
    return -potential(u, nl)


def _dual_integrand(u, ux, ut, nl, which):
    pot = potential(u, nl) / 2.0
    if which == "plus":
        d = ux - ut
        return -0.25 * d * d + pot
    s = ux + ut
    return 0.25 * s * s - pot


def flux_loop(trajectory: Trajectory, path: PolygonPath, which: str = "plus") -> FluxReport:
    """Evaluate every edge integral of the flux identity around a path.

    The signed sum (closure residual) vanishes at second order in dx for
    smooth defocusing runs.  For the worked-example hexagon the report also
    labels the Q1..Q4 energy-transfer decomposition.
    """
    if which not in ("plus", "minus"):
        raise ValidationError("which", "expected plus or minus")
    grid = trajectory.grid
    nl = trajectory.nl
    dt = grid.dt
    t_hi = trajectory.t_max
    for x, t in path.vertices:
        if not (grid.x_min - 1e-9 <= x <= grid.x_max + 1e-9):
            raise PathOutsideDomain(f"vertex x={x:.6g} outside the domain")
        if not (-1e-9 * dt <= t <= t_hi + 1e-9 * dt):
            raise PathOutsideDomain(f"vertex t={t:.6g} outside the stored time range")
        if grid.cfl == 1.0:
            # lattice alignment is part of the path contract at cfl = 1
            grid.index_of(x)
            grid.step_of(t)
    _check_simple(path)

    values = []
    for e in path.edges:
        if e.tag == HORIZONTAL:
            d = compute_densities(trajectory.state(grid.step_of(e.t0)), grid, nl)
            val = interval_energy(d, grid, min(e.x0, e.x1), max(e.x0, e.x1), which)
            values.append(val if e.x1 > e.x0 else -val)
            continue
        m0, m1 = grid.step_of(e.t0), grid.step_of(e.t1)
        sign = 1.0 if m1 > m0 else -1.0
        levels = np.arange(min(m0, m1), max(m0, m1) + 1)
        t_vals = levels * dt
        if e.tag == VERTICAL:
            xs = np.full(levels.shape, e.x0)
            u, ux, ut = _gather(trajectory, levels, xs)
            integrand = _dual_integrand(u, ux, ut, nl, which)
        else:
            slope = 1.0 if e.tag == RIGHT_CHAR else -1.0
            xs = e.x0 + slope * (t_vals - e.t0)
            u, ux, ut = _gather(trajectory, levels, xs)
            integrand = _characteristic_integrand(u, ux, ut, nl, e.tag, which)
        values.append(sign * trapezoid(integrand, dt))

    residual = float(sum(values))
    q = None
    if path.tags == _EXAMPLE_TAGS and path.edges[0].x1 > path.edges[0].x0:
        q = {
            "E_start": values[0],
            "E_end": -values[3],
            "Q1": values[1],
            "Q2": -values[2],
            "Q3": -values[4],
            "Q4": values[5],
        }
    return FluxReport(which=which, vertices=tuple(path.vertices), tags=tuple(path.tags),
                      edge_integrals=tuple(float(v) for v in values),
                      closure_residual=residual, q_decomposition=q)


def trapezoid_check(trajectory: Trajectory, eta: float, t1: float, t2: float,
                    which: str = "plus") -> TrapezoidReport:
    """Energy transfer across the moving ray x = t - eta between t1 and t2.

    Evaluates both half-line forms of the identity (they agree by
    conservation) against the characteristic flux integral:
    |u|^(p+1)/(p+1) for the right-going energy, (1/2)|u_x + u_t|^2 for the
    left-going energy.
    """
    if which not in ("plus", "minus"):
        raise ValidationError("which", "expected plus or minus")
    if not t1 < t2:
        raise ValidationError("t1", "need t1 < t2")
    grid = trajectory.grid
    nl = trajectory.nl
    m1, m2 = trajectory.level_of(t1), trajectory.level_of(t2)
    levels = np.arange(m1, m2 + 1)
    t_vals = levels * grid.dt
    xs = t_vals - eta
    if xs.min() < grid.x_min - 1e-9 or xs.max() > grid.x_max + 1e-9:
        raise RayOutsideDomain(
            f"ray x = t - {eta:.4g} leaves the domain on [{t1:.4g}, {t2:.4g}]")

    d1 = compute_densities(trajectory.state(m1), grid, nl)
    d2 = compute_densities(trajectory.state(m2), grid, nl)
    lhs_left = (interval_energy(d2, grid, grid.x_min, t2 - eta, which)
                - interval_energy(d1, grid, grid.x_min, t1 - eta, which))
    lhs_right = (interval_energy(d1, grid, t1 - eta, grid.x_max, which)
                 - interval_energy(d2, grid, t2 - eta, grid.x_max, which))

    u, ux, ut = _gather(trajectory, levels, xs)
    integrand = _characteristic_integrand(u, ux, ut, nl, RIGHT_CHAR, which)
    flux_integral = trapezoid(integrand, grid.dt)

    return TrapezoidReport(
        which=which, eta=eta, t1=float(t_vals[0]), t2=float(t_vals[-1]),
        lhs_left=lhs_left, lhs_right=lhs_right, flux_integral=flux_integral,
        residual_left=lhs_left - flux_integral,
        residual_right=lhs_right - flux_integral,
        conservation_gap=lhs_left - lhs_right)
