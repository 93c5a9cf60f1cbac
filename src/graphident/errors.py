"""Exception hierarchy shared across the package."""

import math


class GraphIdentError(Exception):
    """Base class for all graphident errors."""


class InvariantError(GraphIdentError, ValueError):
    """A domain invariant was violated (asymmetry, negative weight, ...)."""


class DimensionError(GraphIdentError, ValueError):
    """Inputs have incompatible or unsupported shapes."""


class NumericalFailure(GraphIdentError, RuntimeError):
    """A NaN or Inf appeared inside an iterative computation."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class OracleFailure(GraphIdentError, RuntimeError):
    """The reference solver failed to converge within its hard budget."""


class SchemaError(GraphIdentError, ValueError):
    """A dataset or config file is malformed.

    ``offset`` carries the byte offset of the problem when known, ``field``
    the offending config field name.
    """

    def __init__(self, message: str, offset: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.offset = offset
        self.field = field


class ConfigError(SchemaError):
    """A run configuration failed validation."""


class SimulationError(GraphIdentError, RuntimeError):
    """The flocking integrator blew up (speed sanity bound exceeded)."""


class TrainStepError(GraphIdentError, RuntimeError):
    """A training step failed; carries step diagnostics."""

    def __init__(self, message: str, step: int | None = None,
                 diagnostics: dict | None = None):
        super().__init__(message)
        self.step = step
        self.diagnostics = diagnostics or {}


def require_finite(config, names: tuple[str, ...], error: type) -> None:
    """Raise ``error`` naming the first field of ``config`` among ``names``
    that holds NaN or an infinity, or a pair that holds one; None passes.
    A config checks its float fields with it first, because NaN fails
    every comparison and so passes a check written as ``x <= 0``."""
    for name in names:
        value = getattr(config, name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(v is None or math.isfinite(v) for v in values):
            raise error(f"{name} must be finite, got {value}")
