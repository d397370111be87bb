"""Application config: one JSON document covering training, synthesis, paths.

Every field is optional and defaults to the trained-model values, so a bare
``train --data-dir ...`` runs the standard configuration.  The architecture
sits under ``train.model``.  Unknown keys are rejected by name rather than
silently ignored, and so are the model's input widths, which the data sets.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .model import ModelConfig
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


def _build_section(cls, raw: dict, section: str, from_data=()):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key in from_data:
            raise ConfigError(f"{section}.{key} is set from the data and cannot be configured")
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key!r} in config")
    return cls(**raw)


def _build_train(raw: dict) -> TrainConfig:
    if isinstance(raw, dict) and "model" in raw:
        model = _build_section(ModelConfig, raw["model"], "train.model", DATA_WIDTHS)
        raw = {**raw, "model": model}
    return _build_section(TrainConfig, raw, "train")


def parse_app_config(document: dict) -> AppConfig:
    if not isinstance(document, dict):
        raise ConfigError("config file must contain a JSON object")
    known_sections = ("train", "synthetic", "paths")
    for key in document:
        if key not in known_sections:
            raise ConfigError(f"unknown section {key!r} in config")
    return AppConfig(
        train=_build_train(document.get("train", {})),
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
