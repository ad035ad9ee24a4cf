"""Exception types shared across the package."""


class RoadGameError(Exception):
    """Base class for all package-specific errors; ``key`` names the config
    entry an error is about, so that a config file's reader can place it."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ParseError(RoadGameError):
    """A data file is malformed; the message names the file and line."""


class ValidationError(RoadGameError):
    """Parsed data violates a structural invariant."""


class DomainError(RoadGameError):
    """An operation was called with arguments outside its domain."""


class ConvergenceError(RoadGameError):
    """An iterative solver failed to converge within its budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SolverError(RoadGameError):
    """Equilibrium solving could not certify the requested tolerance."""

    def __init__(self, message: str, achieved_epsilon: float | None = None):
        super().__init__(message)
        self.achieved_epsilon = achieved_epsilon
