"""Exception types shared across the library."""


class BecknerError(Exception):
    """Base class for all library errors."""


class DomainError(BecknerError, ValueError):
    """A point, parameter or field value left the valid domain."""


class NonConvergence(BecknerError, RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""


class DegenerateFit(BecknerError, RuntimeError):
    """A regression target sits below the numerical noise floor."""


class ParamError(BecknerError, ValueError):
    """Inequality parameters outside the admissible range."""


class AdmissibilityError(BecknerError, ValueError):
    """An entropy surface failed its admissibility conditions."""


class Inconclusive(BecknerError, RuntimeError):
    """A stochastic check did not produce enough usable samples."""


class IllConditioned(BecknerError, RuntimeError):
    """A Gram matrix is too ill-conditioned for the requested basis."""


class ConfigError(BecknerError, ValueError):
    """Invalid suite configuration."""


class UnknownCheck(BecknerError, LookupError):
    """Unknown check identifier."""
