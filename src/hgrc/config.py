"""Application config: one JSON document covering training, synthesis, paths.

Every field is optional and defaults to the trained-model values, so a bare
``train --data-dir ...`` runs the standard configuration.  The architecture
sits under ``train.model``.  Unknown keys are rejected by name rather than
silently ignored, and so are the model's input widths, which the data sets.
Every value must have its field's JSON type: integers are whole numbers (not
true/false), floats take either, and tuples are arrays of those.
Checkpoint manifests are read through the same builder, with the widths
allowed.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass

from .errors import ConfigError
from .synthetic import SyntheticSpec
from .train import TrainConfig

# ModelConfig fields that train() takes from the data's schema and vocabulary
DATA_WIDTHS = ("n_variables", "n_codes")


@dataclass(frozen=True)
class PathsConfig:
    """Default file locations; command-line flags override these."""

    data_dir: str | None = None
    checkpoint: str | None = None
    out_dir: str | None = None
    out: str | None = None


@dataclass(frozen=True)
class AppConfig:
    train: TrainConfig
    synthetic: SyntheticSpec
    paths: PathsConfig

    @classmethod
    def defaults(cls) -> "AppConfig":
        return cls(train=TrainConfig(), synthetic=SyntheticSpec(), paths=PathsConfig())


def _matches(value, hint) -> bool:
    """Whether a parsed JSON value fits a field's type hint."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(hint, type):
        return isinstance(value, hint)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_matches, value, args)))
    return any(_matches(value, arg) for arg in args)  # a union such as str | None


def _build_section(cls, raw: dict, section: str, from_data=()):
    """The dataclass ``cls`` built from parsed JSON, checking every value's type.

    The one path from outside input to a config: nested dataclass fields are
    built recursively, arrays become tuples, and keys named in ``from_data``
    are rejected at any depth.  A dataclass's own check names the bare field,
    so its error is re-raised with the section's path in front
    (``train.model.hidden_size must be >= 1``).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    values = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key!r} in config")
        if key in from_data:
            raise ConfigError(f"{section}.{key} is set from the data and cannot be configured")
        hint = hints[key]
        if is_dataclass(hint):
            value = _build_section(hint, value, f"{section}.{key}", from_data)
        elif not _matches(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
        elif typing.get_origin(hint) is tuple:
            value = tuple(value)
        values[key] = value
    try:
        return cls(**values)
    except ConfigError as exc:
        # the dataclass names the bare field; nested sections were built above
        raise ConfigError(f"{section}.{exc}") from None


def parse_app_config(document: dict) -> AppConfig:
    if not isinstance(document, dict):
        raise ConfigError("config file must contain a JSON object")
    known_sections = ("train", "synthetic", "paths")
    for key in document:
        if key not in known_sections:
            raise ConfigError(f"unknown section {key!r} in config")
    return AppConfig(
        train=_build_section(TrainConfig, document.get("train", {}), "train", DATA_WIDTHS),
        synthetic=_build_section(SyntheticSpec, document.get("synthetic", {}), "synthetic"),
        paths=_build_section(PathsConfig, document.get("paths", {}), "paths"),
    )


def load_app_config(path) -> AppConfig:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return parse_app_config(document)


def dump_defaults() -> str:
    """The full default configuration as pretty JSON, minus the data widths."""
    document = asdict(AppConfig.defaults())
    for key in DATA_WIDTHS:
        del document["train"]["model"][key]
    return json.dumps(document, indent=2, sort_keys=True)
