"""Exception types shared across the package, and the finite-float check
every config dataclass runs first."""

import math
from dataclasses import fields


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """Invalid configuration value, flag, or config file."""


def check_finite_fields(config) -> None:
    """Raise ConfigError naming the first float field (or tuple element) of
    the dataclass ``config`` that is NaN or infinite.

    Range checks cannot catch these: every comparison with NaN is False.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


class ParseError(ValueError):
    """Malformed cohort file; message carries file and line."""

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given inputs (e.g. single-class AUROC)."""


class CheckpointError(ValueError):
    """Checkpoint file is corrupt or structurally invalid."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class TrainingError(RuntimeError):
    """Training aborted (e.g. non-finite loss)."""


class GradientCheckError(RuntimeError):
    """Finite-difference gradient check could not be evaluated."""
