"""Self-similar profiles u(x,t) = x^(-beta) f(t/x), beta = 2/(p-1).

The profile solves the singular ODE

    (1 - y^2) f'' - 2(beta+1) y f' - beta(beta+1) f + |f|^(p-1) f = 0

on (-1, 1).  A weighted semi-energy

    Etilde(y) = (1/2)(1-y^2)^(2beta+2) |f'|^2 + (1-y^2)^(2beta+1) P(f),
    P(z) = C_p - beta(beta+1) z^2 / 2 + |z|^(p+1) / (p+1),

decays monotonically on [0, 1) with the closed-form rate
Etilde' = -2(2beta+1) y (1-y^2)^(2beta) P(f), where C_p is the smallest
constant with P(z) >= |z|^(p+1)/(p+2).

Integration uses an embedded Dormand-Prince 5(4) pair with the step capped
by kappa*(1-|y|) near the singular endpoints and a global cap that keeps
the quintic Hermite dense output at integrator accuracy.  Everything here
is pure computation: identical parameters give bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import trapezoid
from .errors import InvalidParams, OutOfRange, ToleranceNotMet

ENDPOINT_STEP_FRACTION = 0.1   # kappa in the cap |h| <= kappa * (1 - |y|)
DENSE_OUTPUT_MAX_STEP = 0.005


@dataclass(frozen=True)
class OdeParams:
    """Exponent, initial values f(0) = a, f'(0) = b, and integrator knobs."""

    p: float
    a: float
    b: float
    delta: float = 1e-4
    tol: float = 1e-10

    def __post_init__(self):
        if not self.p > 1.0:
            raise InvalidParams("ode.p", "p must exceed 1")
        if not 0.0 < self.delta <= 0.5:
            raise InvalidParams("ode.delta", "delta in (0, 0.5]")
        if not self.tol > 0.0:
            raise InvalidParams("ode.tol", "tolerance must be positive")

    @property
    def beta(self) -> float:
        return 2.0 / (self.p - 1.0)

    @property
    def y_max(self) -> float:
        """The profile's endpoint: it is integrated on [-y_max, y_max]."""
        return 1.0 - self.delta


def cp_constant(p: float, field: str = "p") -> float:
    """Smallest C_p with P(z) >= |z|^(p+1)/(p+2).

    Equals the maximum over z >= 0 of beta(beta+1) z^2/2
    - z^(p+1)/((p+1)(p+2)), evaluated at its closed-form root
    z = ((p+2) beta(beta+1))^(1/(p-1)).  Raises ``InvalidParams`` naming
    ``field`` where that overflows a float, which happens only for p near 1.
    """
    if not p > 1.0:
        raise InvalidParams(field, "p must exceed 1")
    beta = 2.0 / (p - 1.0)
    bb = beta * (beta + 1.0)
    try:
        z = ((p + 2.0) * bb) ** (1.0 / (p - 1.0))
        c_p = bb * z * z / 2.0 - z ** (p + 1.0) / ((p + 1.0) * (p + 2.0))
    except OverflowError:
        c_p = math.inf
    if not math.isfinite(c_p):
        raise InvalidParams(field, f"C_p overflows a float at p = {p!r}")
    return c_p


def potential(params: OdeParams, z):
    """P(z) = C_p - beta(beta+1) z^2/2 + |z|^(p+1)/(p+1)."""
    z = np.asarray(z, dtype=float)
    bb = params.beta * (params.beta + 1.0)
    return (cp_constant(params.p) - 0.5 * bb * z * z
            + np.abs(z) ** (params.p + 1.0) / (params.p + 1.0))


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def profile_rhs(params: OdeParams, y: float, f: float, fp: float) -> float:
    """f'' from the ODE's normal form (singular factor 1/(1-y^2))."""
    beta = params.beta
    return ((2.0 * (beta + 1.0) * y * fp + beta * (beta + 1.0) * f
             - abs(f) ** (params.p - 1.0) * f) / (1.0 - y * y))


@dataclass
class OdeSolution:
    """Profile samples plus a dense-output mesh for off-sample evaluation."""

    params: OdeParams
    y_samples: np.ndarray
    f_samples: np.ndarray
    fprime_samples: np.ndarray
    accepted_steps: int
    rejected_steps: int
    _mesh_y: np.ndarray = field(repr=False)
    _mesh_f: np.ndarray = field(repr=False)
    _mesh_fp: np.ndarray = field(repr=False)
    _mesh_fpp: np.ndarray = field(repr=False)

    @property
    def y_min(self) -> float:
        return float(self._mesh_y[0])

    @property
    def y_max(self) -> float:
        return float(self._mesh_y[-1])

    def evaluate(self, y):
        """(f, f') at arbitrary points of the integrated range.

        Quintic two-point Hermite interpolation on the accepted-step mesh;
        raises OutOfRange beyond the integrated interval.
        """
        y_in = np.asarray(y, dtype=float)
        scalar = y_in.ndim == 0
        y = np.atleast_1d(y_in)
        tol = 1e-12
        if y.size and (y.min() < self.y_min - tol or y.max() > self.y_max + tol):
            raise OutOfRange(
                f"y outside the integrated range [{self.y_min:.6g}, {self.y_max:.6g}]")
        yc = np.clip(y, self.y_min, self.y_max)
        idx = np.searchsorted(self._mesh_y, yc, side="right")
        np.clip(idx, 1, len(self._mesh_y) - 1, out=idx)
        y0 = self._mesh_y[idx - 1]
        y1 = self._mesh_y[idx]
        h = y1 - y0
        s = (yc - y0) / h
        f0, f1 = self._mesh_f[idx - 1], self._mesh_f[idx]
        g0, g1 = self._mesh_fp[idx - 1], self._mesh_fp[idx]
        q0, q1 = self._mesh_fpp[idx - 1], self._mesh_fpp[idx]
        s2 = s * s
        s3 = s2 * s
        s4 = s3 * s
        s5 = s4 * s
        a0 = 1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5
        b0 = s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5
        c0 = 0.5 * (s2 - 3.0 * s3 + 3.0 * s4 - s5)
        a1 = 10.0 * s3 - 15.0 * s4 + 6.0 * s5
        b1 = -4.0 * s3 + 7.0 * s4 - 3.0 * s5
        c1 = 0.5 * (s3 - 2.0 * s4 + s5)
        f = (f0 * a0 + h * g0 * b0 + h * h * q0 * c0
             + f1 * a1 + h * g1 * b1 + h * h * q1 * c1)
        da0 = -30.0 * s2 + 60.0 * s3 - 30.0 * s4
        db0 = 1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4
        dc0 = 0.5 * (2.0 * s - 9.0 * s2 + 12.0 * s3 - 5.0 * s4)
        da1 = 30.0 * s2 - 60.0 * s3 + 30.0 * s4
        db1 = -12.0 * s2 + 28.0 * s3 - 15.0 * s4
        dc1 = 0.5 * (3.0 * s2 - 8.0 * s3 + 5.0 * s4)
        fp = (f0 * da0 / h + g0 * db0 + h * q0 * dc0
              + f1 * da1 / h + g1 * db1 + h * q1 * dc1)
        if scalar:
            return float(f[0]), float(fp[0])
        return f, fp


def _stage(f, fp, h, coefficients, ks):
    """(f, fp) + h * sum(c * k), each component added left to right from 0."""
    sf = sfp = 0
    for c, (kf, kfp) in zip(coefficients, ks):
        sf = sf + c * kf
        sfp = sfp + c * kfp
    return f + h * sf, fp + h * sfp


def _integrate_side(params: OdeParams, direction: int):
    """Adaptive sweep from y = 0 towards direction * y_max.

    Returns one (y, f, fp, fpp) mesh row per accepted step (the y = 0 node
    excluded), plus step counters.
    """
    target = direction * params.y_max
    y = 0.0
    f, fp = params.a, params.b
    tol = params.tol

    def rhs(yy, ff, ffp):
        try:
            return profile_rhs(params, yy, ff, ffp)
        except OverflowError:   # where numpy gave inf; either rejects the step
            return math.inf

    rows = []
    accepted = rejected = 0
    h = direction * 1e-3
    k1 = (fp, rhs(y, f, fp))
    while (target - y) * direction > 1e-13:
        cap = min(ENDPOINT_STEP_FRACTION * (1.0 - abs(y)), DENSE_OUTPUT_MAX_STEP)
        h = direction * min(abs(h), cap)
        if (y + h - target) * direction > 0.0:
            h = target - y
        if abs(h) < 1e-15:
            raise ToleranceNotMet(f"step size underflow at y = {y:.8g}")
        ks = [k1]
        failed = False
        for i in range(1, 7):
            yi = y + _DP_C[i] * h
            fi, fpi = _stage(f, fp, h, _DP_A[i], ks)
            if abs(yi) >= 1.0 or not (math.isfinite(fi) and math.isfinite(fpi)):
                failed = True
                break
            ks.append((fpi, rhs(yi, fi, fpi)))
        if not failed:
            f5, fp5 = _stage(f, fp, h, _DP_B5, ks)
            f4, fp4 = _stage(f, fp, h, _DP_B4, ks)
            e0 = abs(f5 - f4) / (tol + tol * abs(f5))
            e1 = abs(fp5 - fp4) / (tol + tol * abs(fp5))
            err = max(e0, e1) if math.isfinite(e0) and math.isfinite(e1) else math.inf
        else:
            err = math.inf
        if err <= 1.0:
            y_new = y + h
            if abs(y_new - target) < 1e-15:
                y_new = target
            f, fp = f5, fp5
            y = y_new
            k1 = ks[6]  # FSAL: last stage equals the derivative at the new point
            rows.append((y, f, fp, profile_rhs(params, y, f, fp)))
            accepted += 1
        else:
            rejected += 1
        factor = 0.9 * err ** (-0.2) if err > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return rows, accepted, rejected


def integrate_profile(params: OdeParams, y_samples=None) -> OdeSolution:
    """Integrate the profile ODE outward from y = 0 to +-y_max.

    Dense output is evaluated at ``y_samples`` (default: a uniform grid of
    4001 points including both endpoints).  Raises ToleranceNotMet on step
    underflow and InvalidParams for bad parameters.
    """
    right, acc_r, rej_r = _integrate_side(params, +1)
    left, acc_l, rej_l = _integrate_side(params, -1)
    origin = (0.0, params.a, params.b, profile_rhs(params, 0.0, params.a, params.b))
    mesh_y, mesh_f, mesh_fp, mesh_fpp = np.array(left[::-1] + [origin] + right).T.copy()

    if y_samples is None:
        y_samples = np.linspace(-params.y_max, params.y_max, 4001)
    else:
        y_samples = np.asarray(y_samples, dtype=float)

    sol = OdeSolution(params=params, y_samples=y_samples,
                      f_samples=np.empty(0), fprime_samples=np.empty(0),
                      accepted_steps=acc_r + acc_l, rejected_steps=rej_r + rej_l,
                      _mesh_y=mesh_y, _mesh_f=mesh_f, _mesh_fp=mesh_fp,
                      _mesh_fpp=mesh_fpp)
    f, fp = sol.evaluate(y_samples)
    sol.f_samples = np.asarray(f)
    sol.fprime_samples = np.asarray(fp)
    return sol


@dataclass(frozen=True)
class SemiEnergyReport:
    """Semi-energy trace of a profile with its closed-form decay rate."""

    C_p: float
    y_samples: np.ndarray
    Etilde_samples: np.ndarray
    Etilde_rate_closed_form: np.ndarray
    A_estimate: float
    asymptotic_trace: np.ndarray


def semi_energy(sol: OdeSolution, params: OdeParams) -> SemiEnergyReport:
    """Evaluate Etilde on the solution samples.

    A_estimate is the value at the largest sampled y (the y_max endpoint
    for default samples); the asymptotic trace is (1-y)^(1+beta) f'(y),
    which tends to zero at the endpoint.
    """
    beta = params.beta
    c_p = cp_constant(params.p)
    y = sol.y_samples
    f = sol.f_samples
    fp = sol.fprime_samples
    w = 1.0 - y * y
    P = potential(params, f)
    etilde = 0.5 * w ** (2.0 * beta + 2.0) * fp * fp + w ** (2.0 * beta + 1.0) * P
    rate = -2.0 * (2.0 * beta + 1.0) * y * w ** (2.0 * beta) * P
    trace = (1.0 - y) ** (1.0 + beta) * fp
    a_est = float(etilde[np.argmax(y)])
    return SemiEnergyReport(C_p=c_p, y_samples=y, Etilde_samples=etilde,
                            Etilde_rate_closed_form=rate, A_estimate=a_est,
                            asymptotic_trace=trace)


@dataclass(frozen=True)
class LiftedField:
    """PDE-side samples of a self-similar profile at one time."""

    t: float
    x: np.ndarray
    u: np.ndarray
    u_t: np.ndarray
    u_x: np.ndarray


def lift_field(sol: OdeSolution, params: OdeParams, t: float, x) -> LiftedField:
    """Lift the profile to (u, u_t, u_x) on x > t at time t.

    u   = x^-beta f(t/x)
    u_t = x^(-beta-1) f'(t/x)
    u_x = -beta x^(-beta-1) f(t/x) - t x^(-beta-2) f'(t/x)
    """
    x = np.asarray(x, dtype=float)
    if t < 0.0:
        raise OutOfRange("lift requires t >= 0")
    if x.size == 0 or x.min() <= t:
        raise OutOfRange("lift requires x > t over the whole range")
    beta = params.beta
    y = t / x
    f, fp = sol.evaluate(y)   # raises OutOfRange beyond the integrated range
    u = x ** (-beta) * f
    u_t = x ** (-beta - 1.0) * fp
    u_x = -beta * x ** (-beta - 1.0) * f - t * x ** (-beta - 2.0) * fp
    return LiftedField(t=t, x=x, u=u, u_t=u_t, u_x=u_x)


def ray_energy_decay(sol: OdeSolution, params: OdeParams, R: float, R1: float,
                     t_list):
    """Velocity energy between the rays x = t + R and x = t + R1 per time.

    Returns [(t, Int |u_t|^2 dx)] rows, each by the trapezoid rule on 2001
    nodes; entries are nonnegative and decay as the window slides up the
    light cone.
    """
    if not 0.0 < R < R1:
        raise InvalidParams("R", "need 0 < R < R1")
    ts = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidParams("t_list", "times must be increasing")
    beta = params.beta
    rows = []
    for t in ts:
        xs = np.linspace(t + R, t + R1, 2001)
        _, fp = sol.evaluate(t / xs)
        integrand = (xs ** (-beta - 1.0) * fp) ** 2
        rows.append((t, trapezoid(integrand, float(xs[1] - xs[0]))))
    return rows
