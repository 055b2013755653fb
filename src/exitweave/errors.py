"""Exception types shared across the package.

Everything raised on purpose derives from ExitweaveError so callers can
catch one base class at the boundary. Validation errors double as
ValueError, and a failed training run (TrainingError) as RuntimeError.
"""


class ExitweaveError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ExitweaveError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericError(ExitweaveError, ValueError):
    """Non-finite values where finite ones are required."""


class DomainError(ExitweaveError, ValueError):
    """Scalar argument outside its admissible range."""


class ConfigError(ExitweaveError, ValueError):
    """Invalid run or module configuration."""


class FormatError(ExitweaveError, ValueError):
    """Malformed external file: dataset, checkpoint, or CSV."""


class CompatibilityError(ExitweaveError, ValueError):
    """Checkpoint does not match the requested configuration or version."""


class TrainingError(ExitweaveError, RuntimeError):
    """Training diverged or hit an invalid state; message carries iteration context."""
