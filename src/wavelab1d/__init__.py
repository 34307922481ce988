"""Numerical laboratory for the 1D semilinear wave equation.

Evolves u_tt - u_xx = sign |u|^(p-1) u with a characteristic-aligned
leapfrog scheme, cross-validates it against a fixed-point integral-equation
oracle, and exposes the directional energy machinery (flux loops, the
trapezoid law, cone energies, interaction and virial functionals) together
with the self-similar profile ODE as executable diagnostics.
"""
from ._version import __version__
from .errors import (BlowUpDetected, DomainTooSmall, EvennessViolated,
                     InvalidParams, NoContraction, NonConvergence, OutOfRange,
                     ParseError, PathOutsideDomain, RayOutsideDomain,
                     ToleranceNotMet, ValidationError, WaveLabError)
from .grid import (FieldState, GridSpec, InitialData, Nonlinearity,
                   sample_derivatives)
from .solver import Observer, Trajectory, evolve
from .dalembert import evolve_by_dalembert, picard_fixed_point
from .energy import (EnergyDensities, compute_densities, cone_energy,
                     conserved_pair, interval_energy, light_cone_energy,
                     morawetz_accumulator)
from .flux import (FluxReport, PolygonPath, TrapezoidReport,
                   example_flux_polygon, flux_loop, parallelogram, rectangle,
                   trapezoid_check)
from .interaction import (VirialReport, interaction_q, pairwise_weighted_distance,
                          virial_check)
from .selfsimilar import (OdeParams, OdeSolution, SemiEnergyReport,
                          cp_constant, integrate_profile, lift_field,
                          ray_energy_decay, semi_energy)

__all__ = [name for name in dir() if not name.startswith("_")]
