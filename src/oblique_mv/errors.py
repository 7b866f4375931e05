"""Exception types shared across the package."""


class ObliqueMVError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ObliqueMVError):
    """Unsupported geometry, bad parameter combination, or invalid config."""


class InfeasibleSetError(ConfigurationError):
    """A constraint set is empty or excludes the origin."""


class CertificateError(ObliqueMVError):
    """An interior certificate does not satisfy its containment claim."""


class SpectralError(ObliqueMVError):
    """A matrix fails a required spectral property (symmetry, positivity)."""


class StepError(ObliqueMVError):
    """A single constrained step failed to converge, worst at ``row``."""

    def __init__(self, message, residual=None, row=None):
        super().__init__(message)
        self.residual, self.row = residual, row


class DivergenceError(ObliqueMVError):
    """A simulated state exceeded the blow-up guard, first in ``particle`` of ``group``."""

    def __init__(self, message, step=None, group=None, particle=None):
        super().__init__(message)
        self.step, self.group, self.particle = step, group, particle


class BudgetError(ConfigurationError):
    """A nested computation would exceed its configured budget."""


class ReductionError(ObliqueMVError):
    """A time-dependent constraint problem cannot be reduced."""
