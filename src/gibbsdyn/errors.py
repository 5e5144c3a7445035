"""Exception types shared across the package."""


class GibbsDynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GibbsDynError, ValueError):
    """An argument is outside the mathematical domain (t <= 0, n < 2, non-finite input)."""


class ConfigError(GibbsDynError, ValueError):
    """A configuration object is invalid (empty window, non-positive tolerance, ...)."""


class NotDifferentiableError(GibbsDynError, ValueError):
    """A derivative was requested where the potential is not differentiable."""


class AccuracyError(GibbsDynError, RuntimeError):
    """Quadrature could not meet its accuracy contract; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InconclusiveError(GibbsDynError, RuntimeError):
    """Classification could not be decided on the available window; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BadMagnetisationError(GibbsDynError, ValueError):
    """A limiting kernel was requested at a bad magnetisation.

    Carries the two extreme minimisers and, when the caller computed them,
    the two selection-limit kernels.
    """

    def __init__(self, message, q_min=None, q_max=None, kernel_min=None, kernel_max=None):
        super().__init__(message)
        self.q_min = q_min
        self.q_max = q_max
        self.kernel_min = kernel_min
        self.kernel_max = kernel_max


class InsufficientStatisticsError(GibbsDynError, RuntimeError):
    """Too few accepted Monte Carlo samples for a statistical claim."""

    def __init__(self, message, accepted=0, acceptance_rate=None):
        super().__init__(message)
        self.accepted = accepted
        self.acceptance_rate = acceptance_rate
