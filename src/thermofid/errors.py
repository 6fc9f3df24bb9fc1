"""Exception types shared across the toolkit."""


class ThermofidError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ThermofidError, ValueError):
    """Parameter outside the supported domain of a model or formula.

    key names the offending parameter when the raiser knows it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class EvaluationError(ThermofidError):
    """A model evaluation failed to produce a usable result."""


class QuadratureError(EvaluationError):
    """Adaptive quadrature could not reach tolerance within its budget."""


class EigensolverError(EvaluationError):
    """Dense or banded eigensolver failed to converge."""


class NegativeEigenvalue(ThermofidError):
    """Matrix that should be positive semidefinite has a clearly negative eigenvalue."""


class StepTooSmall(ThermofidError):
    """Finite-difference step sits below the numerical noise floor."""


class InsufficientSizes(DomainError):
    """Transition classification needs at least three system sizes."""


class ConfigError(ThermofidError, ValueError):
    """Invalid run configuration; carries the offending key path."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key
