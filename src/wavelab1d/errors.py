"""Exception types shared across the package."""


class WaveLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WaveLabError):
    """A parameter or configuration value violates its invariants."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


class InvalidParams(ValidationError):
    """Invalid parameters for the profile ODE integrator."""


class ParseError(WaveLabError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BlowUpDetected(WaveLabError):
    """A field sample went non-finite or exceeded the blow-up guard."""

    def __init__(self, t, sup_value):
        super().__init__(f"blow-up detected at t={t:.6g} (sup {sup_value:.3e})")
        self.t = t
        self.sup_value = sup_value


class DomainTooSmall(WaveLabError):
    """The support cone of the data would reach the boundary before t_end."""


class NoContraction(WaveLabError):
    """Requested horizon is too large for the fixed-point iteration to contract."""


class NonConvergence(WaveLabError):
    """Fixed-point iteration exceeded its iteration cap without converging."""


class PathOutsideDomain(WaveLabError):
    """A flux polygon leaves the simulated space-time rectangle."""


class RayOutsideDomain(WaveLabError):
    """A characteristic ray leaves the spatial domain on the requested window."""


class OutOfRange(WaveLabError):
    """Requested evaluation point lies outside the integrated profile range."""


class ToleranceNotMet(WaveLabError):
    """Adaptive step size underflowed before reaching the requested endpoint."""


class EvennessViolated(WaveLabError):
    """Initial data are not even to within round-off."""
