"""Application config: one JSON document covering training, synthesis, paths.

Every field is optional and defaults to the trained-model values, so a bare
``train --data-dir ...`` runs the standard configuration.  Unknown keys are
rejected by name rather than silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .synthetic import SyntheticSpec
from .train import TrainConfig

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


def _build_section(cls, raw: dict, section: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key!r} in config")
    return cls(**raw)


def parse_app_config(document: dict) -> AppConfig:
    if not isinstance(document, dict):
        raise ConfigError("config file must contain a JSON object")
    known_sections = ("train", "synthetic", "paths")
    for key in document:
        if key not in known_sections:
            raise ConfigError(f"unknown section {key!r} in config")
    return AppConfig(
        train=_build_section(TrainConfig, document.get("train", {}), "train"),
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
    """The full default configuration as pretty JSON."""
    return json.dumps(asdict(AppConfig.defaults()), indent=2, sort_keys=True)
