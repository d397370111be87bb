"""Binary checkpoint format.

Layout: magic ``HGRC``, one version byte, an 8-byte little-endian unsigned
manifest length, the JSON manifest (config with the architecture nested
under ``model``, schema, code vocabulary, normalization stats, parameter
name/shape/offset table, training log), then
the model's flat parameter buffer as raw little-endian float64, whose arrays
lie in layout order (``model.param_layout``), each in C order.  The table's
offsets count bytes.  A load requires the stored config's model widths to
equal the schema's and code vocabulary's lengths, the normalization mean
(and std, unless null) to hold one finite value per schema variable (a std
of at least 0), the table to equal the layout that config implies (same
names, shapes and contiguous offsets, in order) and the blob to be exactly
the buffer's size, then reads the blob in one piece.  Round trips are
bit-exact: a saved checkpoint loads and evaluates as before, to the last bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from . import model as model_mod
from .config import _build_section
from .data import NormStats
from .errors import CheckpointError, CheckpointVersionError, ConfigError
from .train import Checkpoint, TrainConfig

MAGIC = b"HGRC"
# 7: the model config names no use_similarity, temperature or zeta_init;
# 6: one FFN head, no attention arrays and no n_members; 5: the FFN ensemble
# stacked in six ffn.* arrays, member axis first, plus attn.*; 4: the config
# names no activation (tanh throughout); 3: GRU gates stacked in four arrays;
# 2: the architecture nested as ``model``
VERSION = 7
_HEADER = struct.Struct("<4sBQ")


def _param_table(layout) -> list[dict]:
    return [{"name": name, "shape": list(shape), "offset": 8 * offset}
            for name, shape, offset in layout]


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    stats = ckpt.norm_stats
    manifest = {
        "config": asdict(ckpt.config),
        "schema": list(ckpt.schema),
        "code_vocab": list(ckpt.code_vocab),
        "norm_stats": {
            "mean": [float(x) for x in stats.mean],
            "std": None if stats.std is None else [float(x) for x in stats.std],
            "warnings": list(stats.warnings),
        },
        "params": _param_table(ckpt.params.layout),
        "training_log": ckpt.training_log,
        "best_epoch": ckpt.best_epoch,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(ckpt.params.flat.astype("<f8").tobytes())
    return str(path)


def _table_mismatch(entries, expected: list[dict], blob_bytes: int) -> str:
    """Why a manifest's parameter table differs from the layout's table."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        return "malformed parameter table"
    names = [want["name"] for want in expected]
    for i, (entry, want) in enumerate(zip(entries, expected)):
        if entry == want:
            continue
        name = entry.get("name")
        if name not in names:
            return f"unexpected parameter {name!r}"
        if name != want["name"]:
            return f"parameter {i} is {name!r}, expected {want['name']!r}"
        if entry.get("shape") != want["shape"]:
            return f"parameter {name!r} has shape {entry.get('shape')}, expected {want['shape']}"
        start = entry.get("offset")
        if isinstance(start, int) and (start < 0 or
                                       start + 8 * math.prod(want["shape"]) > blob_bytes):
            return f"parameter {name!r} extends past end of file"
        if start != want["offset"]:
            return f"parameter {name!r} starts at byte {start!r}, expected {want['offset']}"
        return f"parameter {name!r} has entry {entry}, expected {want}"
    if len(entries) < len(expected):
        return f"missing parameters {names[len(entries):]}"
    return f"unexpected parameter {entries[len(expected)].get('name')!r}"


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, manifest_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {VERSION}")
    body_start = _HEADER.size + manifest_len
    if len(data) < body_start:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[_HEADER.size:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest: {exc}")

    try:
        config = _build_section(TrainConfig, manifest["config"], "config")
        schema = tuple(manifest["schema"])
        code_vocab = tuple(manifest["code_vocab"])
        stats_raw = manifest["norm_stats"]
        norm_stats = NormStats(
            schema=schema,
            mean=np.asarray(stats_raw["mean"], dtype=np.float64),
            std=None if stats_raw["std"] is None
            else np.asarray(stats_raw["std"], dtype=np.float64),
            warnings=tuple(stats_raw.get("warnings", ())),
        )
        entries = manifest["params"]
        training_log = manifest["training_log"]
        best_epoch = int(manifest["best_epoch"])
        widths = (config.model.n_variables, config.model.n_codes)
        if widths != (len(schema), len(code_vocab)):
            raise ConfigError(f"config.model widths {widths} differ from the "
                              f"{len(schema)} schema variables and {len(code_vocab)} codes")
        if any(stat is not None and stat.shape != (len(schema),)
               for stat in (norm_stats.mean, norm_stats.std)):
            raise ValueError(f"norm_stats mean and std need {len(schema)} values, "
                             "one per schema variable")
        std = np.zeros(0) if norm_stats.std is None else norm_stats.std
        if not (np.isfinite(norm_stats.mean).all() and ((std >= 0.0) & (std < np.inf)).all()):
            raise ValueError("norm_stats need a finite mean and a finite std >= 0")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: checkpoint config does not match TrainConfig: {exc}")
    except KeyError as exc:
        raise CheckpointError(f"{path}: manifest missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed manifest: {exc}")

    expected = _param_table(model_mod.param_layout(config.model))
    blob_bytes = len(data) - body_start
    if entries != expected:
        raise CheckpointError(f"{path}: {_table_mismatch(entries, expected, blob_bytes)}")
    expected_bytes = 8 * sum(math.prod(e["shape"]) for e in expected)
    if blob_bytes != expected_bytes:
        raise CheckpointError(
            f"{path}: parameter blob is {blob_bytes} bytes, manifest expects {expected_bytes}")
    blob = np.frombuffer(data, dtype="<f8", offset=body_start)
    params = model_mod.ModelParams(config.model, blob.astype(np.float64))

    return Checkpoint(
        config=config,
        schema=schema,
        code_vocab=code_vocab,
        norm_stats=norm_stats,
        params=params,
        training_log=training_log,
        best_epoch=best_epoch,
    )
