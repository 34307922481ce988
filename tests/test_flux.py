import numpy as np
import pytest

from wavelab1d import (GridSpec, InitialData, Nonlinearity, PathOutsideDomain,
                       PolygonPath, RayOutsideDomain, Trajectory,
                       ValidationError, example_flux_polygon, flux_loop,
                       parallelogram, rectangle, trapezoid_check)

P3 = Nonlinearity(p=3.0)
BUMP = InitialData.polynomial_bump(amplitude=1.0, radius=1.0, power=3)


def _traj(dx, t_end=1.2, half=2.6):
    g = GridSpec(-half, half, int(round(2 * half / dx)))
    return Trajectory.record(BUMP, g, P3, t_end)


@pytest.fixture(scope="module")
def traj_coarse():
    return _traj(4e-3)


@pytest.fixture(scope="module")
def traj_fine():
    return _traj(2e-3)


def test_path_validation():
    with pytest.raises(ValidationError):
        PolygonPath([(0, 0), (1, 0)])  # too few
    with pytest.raises(ValidationError):
        PolygonPath([(0, 0), (1, 0.3), (0, 1)])  # slanted edge
    with pytest.raises(ValidationError):
        PolygonPath([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    p = rectangle(-1.0, 1.0, 0.0, 0.5)
    assert p.tags == ["horizontal", "vertical", "horizontal", "vertical"]
    # a repeated closing vertex is dropped
    closed = PolygonPath([(-1.0, 0.0), (1.0, 0.0), (1.0, 0.5), (-1.0, 0.5), (-1.0, 0.0)])
    assert closed.vertices == p.vertices
    hexagon = example_flux_polygon(-1.0, 0.5, 0.25, 0.0)
    assert hexagon.tags == ["horizontal", "right_characteristic",
                            "left_characteristic", "horizontal",
                            "right_characteristic", "left_characteristic"]


def test_zero_solution_residual_zero():
    g = GridSpec(-2.0, 2.0, 400)
    traj = Trajectory.record(InitialData.zero(), g, P3, 1.0)
    rep = flux_loop(traj, rectangle(-1.0, 1.0, 0.0, 0.5), "plus")
    assert rep.closure_residual == 0.0


def test_rectangle_outside_support_cone(traj_coarse):
    rep = flux_loop(traj_coarse, rectangle(2.3, 2.5, 0.0, 0.1), "plus")
    assert all(v == 0.0 for v in rep.edge_integrals)
    assert rep.closure_residual == 0.0


def test_path_outside_domain_rejected(traj_coarse):
    with pytest.raises(PathOutsideDomain):
        flux_loop(traj_coarse, rectangle(-1.0, 3.5, 0.0, 0.5), "plus")
    with pytest.raises(PathOutsideDomain):
        flux_loop(traj_coarse, rectangle(-1.0, 1.0, 0.0, 2.0), "plus")


def test_flux_residual_second_order(traj_coarse, traj_fine):
    paths = [
        rectangle(-1.5, 1.5, 0.0, 1.0),
        parallelogram(-1.0, 0.5, 0.1, 0.8, +1),
        parallelogram(-0.5, 1.0, 0.1, 0.8, -1),
        example_flux_polygon(-0.8, 0.6, 0.4, 0.2),
    ]
    for path in paths:
        for which in ("plus", "minus"):
            r_c = flux_loop(traj_coarse, path, which).closure_residual
            r_f = flux_loop(traj_fine, path, which).closure_residual
            assert abs(r_c) <= 10.0 * traj_coarse.grid.dx ** 2
            if abs(r_c) > 1e-12:
                assert 3.0 <= r_c / r_f <= 5.0


def test_self_crossing_path_rejected_on_and_off_the_lattice():
    # one shape twice at cfl 0.9: vertices on nodes, and shifted half a cell
    # off them; the left characteristic crosses the right one in both.  The
    # triangle of its first three vertices and the quadrilateral of the
    # others, reversed to run counterclockwise, close on the same trajectory
    g = GridSpec(-2.6, 2.6, 520, cfl=0.9)
    traj = Trajectory.record(BUMP, g, P3, 1.0)
    for verts in ([(0.0, 0.0), (0.9, 0.9), (0.0, 0.9), (0.72, 0.18), (0.72, 0.0)],
                  [(0.005, 0.0), (0.905, 0.9), (0.005, 0.9), (0.725, 0.18), (0.725, 0.0)]):
        with pytest.raises(ValidationError, match="not simple"):
            flux_loop(traj, PolygonPath(verts), "plus")
        for piece in (verts[:3], verts[:1] + verts[:1:-1]):
            for which in ("plus", "minus"):
                rep = flux_loop(traj, PolygonPath(piece), which)
                assert abs(rep.closure_residual) <= 10.0 * g.dx ** 2, (piece, which)


def test_self_crossing_path_rejected_at_construction():
    # the path holds its own invariant: no trajectory is needed to reject it.
    # The last path is two triangles that touch: its vertex (3, 2) lies on
    # its first edge, which no edge crosses
    for verts in ([(0.0, 0.0), (0.9, 0.9), (0.0, 0.9), (0.72, 0.18), (0.72, 0.0)],
                  [(0.005, 0.0), (0.905, 0.9), (0.005, 0.9), (0.725, 0.18), (0.725, 0.0)],
                  [(1.0, 0.0), (4.0, 3.0), (4.0, 1.0), (3.0, 2.0), (1.0, 2.0)]):
        with pytest.raises(ValidationError, match="not simple"):
            PolygonPath(verts)


@pytest.mark.parametrize("slope", [1, -1])
@pytest.mark.parametrize("which", ["plus", "minus"])
def test_interpolated_characteristics_converge_at_second_order(slope, which):
    # at cfl 0.9 a characteristic edge meets the levels between nodes, so
    # _gather interpolates linearly in x; the residual still falls ~4x per halving
    init = InitialData.polynomial_bump(amplitude=0.8, radius=1.0, power=3)
    path = parallelogram(-0.5, 0.5, 0.0, 0.36, slope)
    residuals = []
    for dx in (0.01, 0.005, 0.0025):
        g = GridSpec(-1.5, 1.5, int(round(3.0 / dx)), cfl=0.9)
        traj = Trajectory.record(init, g, P3, 0.36)
        residuals.append(flux_loop(traj, path, which).closure_residual)
    assert abs(residuals[0]) <= 10.0 * 0.01 ** 2
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse / fine >= 3.0


def test_example_polygon_q_decomposition(traj_fine):
    rep = flux_loop(traj_fine, example_flux_polygon(-0.8, 0.6, 0.4, 0.2), "plus")
    q = rep.q_decomposition
    assert q is not None
    assert q["Q1"] >= 0.0 and q["Q2"] >= 0.0 and q["Q3"] >= 0.0 and q["Q4"] >= 0.0
    gain = q["Q1"] - q["Q2"] - q["Q3"] + q["Q4"]
    assert q["E_end"] - q["E_start"] == pytest.approx(gain, abs=5e-6)


def test_trapezoid_zero_solution():
    g = GridSpec(-2.0, 2.0, 200)
    traj = Trajectory.record(InitialData.zero(), g, P3, 1.0)
    rep = trapezoid_check(traj, 0.0, 0.0, 1.0, "plus")
    assert rep.lhs_left == 0.0 and rep.flux_integral == 0.0


def test_trapezoid_left_mover_has_no_plus_flux():
    # a pure left-mover entirely left of the ray: both sides vanish
    g = GridSpec(-6.0, 6.0, 1200)
    nl = Nonlinearity(p=3.0, sign="disabled")
    init = InitialData.polynomial_bump(amplitude=1.0, center=-3.0, radius=1.0,
                                       power=3, velocity_fraction=-1.0)
    traj = Trajectory.record(init, g, nl, 1.0)
    rep = trapezoid_check(traj, eta=-1.0, t1=0.0, t2=1.0, which="plus")
    assert abs(rep.flux_integral) <= 1e-20
    # e+ of a discrete left-mover is O(dx^2) pointwise in the derivative
    # mismatch, hence O(dx^4) after squaring and integrating
    assert abs(rep.lhs_left) <= 50.0 * g.dx ** 4


def test_trapezoid_second_order(traj_coarse, traj_fine):
    for which in ("plus", "minus"):
        r_c = trapezoid_check(traj_coarse, 0.2, 0.0, 1.0, which)
        r_f = trapezoid_check(traj_fine, 0.2, 0.0, 1.0, which)
        assert abs(r_c.residual_left) <= 10.0 * traj_coarse.grid.dx ** 2
        assert 3.0 <= r_c.residual_left / r_f.residual_left <= 5.0
        # the two half-line forms agree by conservation
        assert abs(r_c.conservation_gap) <= 10.0 * traj_coarse.grid.dx ** 2


def test_trapezoid_gaussian_eta_zero():
    res = {}
    for dx in (4e-3, 2e-3):
        g = GridSpec(-4.0, 4.0, int(round(8 / dx)))
        init = InitialData.gaussian(amplitude=1.0, width=0.5)
        traj = Trajectory.record(init, g, P3, 1.0)
        rep = trapezoid_check(traj, 0.0, 0.0, 1.0, "plus")
        res[dx] = rep.residual_left
    assert abs(res[4e-3]) <= 10.0 * 4e-3 ** 2
    assert 3.0 <= res[4e-3] / res[2e-3] <= 5.0


def test_trapezoid_monotonicity(traj_fine):
    # E+ left of the moving ray is nondecreasing, beyond it nonincreasing
    from wavelab1d import compute_densities, interval_energy
    g = traj_fine.grid
    eta = 0.2
    left, right = [], []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        d = compute_densities(traj_fine.state(traj_fine.level_of(t)), g, P3)
        left.append(interval_energy(d, g, g.x_min, t - eta, "plus"))
        right.append(interval_energy(d, g, t - eta, g.x_max, "plus"))
    assert np.all(np.diff(left) >= -1e-8)
    assert np.all(np.diff(right) <= 1e-8)


def test_ray_outside_domain(traj_coarse):
    with pytest.raises(RayOutsideDomain):
        trapezoid_check(traj_coarse, eta=5.0, t1=0.0, t2=1.0)
