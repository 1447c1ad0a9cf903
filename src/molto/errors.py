"""Exception types shared across the package."""


class MoltoError(Exception):
    """Base class for package errors."""


class InvalidArgument(MoltoError, ValueError):
    """An argument violates a documented precondition."""


class SolverFailure(MoltoError, RuntimeError):
    """A numerical failure: an unconstrained or singular operator, a linear
    solve past the residual gate, or a non-finite sensitivity field."""


class ConfigError(MoltoError, ValueError):
    """Configuration file is malformed or violates the schema."""
