"""Exception hierarchy shared across the package.

``ConfigError`` marks bad user input (configs, CLI arguments); everything
numerical raises a ``NumericalError`` subclass so batch drivers can map
failures to distinct exit codes.
"""


class StaticHedgeError(Exception):
    """Base class for all package errors."""


class ConfigError(StaticHedgeError):
    """Invalid experiment configuration; message carries the field path."""


class NumericalError(StaticHedgeError):
    """Base class for failures inside numerical routines."""


class QuadratureError(NumericalError, ValueError):
    """Unsupported quadrature kind, order, or interval."""


class DomainError(NumericalError, ValueError):
    """Pricing input outside the valid domain (e.g. valuation after expiry)."""


class SeriesError(NumericalError):
    """Jump-diffusion Poisson series failed to converge within the term cap."""


class SpanningError(NumericalError, ValueError):
    """Hedge construction cannot proceed (band/maturity layout problems)."""


class SingularMaturityError(SpanningError):
    """Two short maturities closer than the guard gap; the inter-maturity
    weight has a vanishing time denominator there."""


class SimulationError(NumericalError, ValueError):
    """Simulation grid or hedge-evolution preconditions violated."""
