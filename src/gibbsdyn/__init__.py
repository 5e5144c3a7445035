"""Analysis toolkit for dynamical Gibbs-non-Gibbs transitions of mean-field
Brownian spin systems: crossover times, bad magnetisations, conditional
kernels by quadrature, optimal magnetisation trajectories, and Monte Carlo
cross-checks."""

__version__ = "0.1.0"

from gibbsdyn import classify, kernels, mc_sim, paths, potential, tilted
from gibbsdyn.errors import (
    AccuracyError,
    BadMagnetisationError,
    ConfigError,
    DomainError,
    GibbsDynError,
    InconclusiveError,
    InsufficientStatisticsError,
    NotDifferentiableError,
)

__all__ = [
    "potential",
    "tilted",
    "classify",
    "kernels",
    "paths",
    "mc_sim",
    "GibbsDynError",
    "DomainError",
    "ConfigError",
    "NotDifferentiableError",
    "BadMagnetisationError",
    "AccuracyError",
    "InconclusiveError",
    "InsufficientStatisticsError",
    "__version__",
]
