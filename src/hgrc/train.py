"""Mini-batch training loop, evaluation, and embedding export.

Determinism contract: everything random flows from the run seed through a
fixed tree of child streams (data split, parameter init, then one stream per
epoch that splits into shuffle and per-batch dropout).  Two runs with the
same seed and config produce bit-identical training logs, parameters, and
metrics.  Logs deliberately contain no wall-clock times.

Each epoch shuffles the training patients, cuts contiguous batches (a
trailing batch of size 1 is merged into its predecessor, because the
patient graphs degenerate at one node), and applies one Adam step to the
flat parameter buffer after the hand-derived backward pass.  After each epoch the model is
scored on the validation split in evaluation mode; the best validation
AUROC snapshot is kept and training stops early after `patience`
non-improving epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as model_mod
from .data import VALID_WINDOWS, Cohort, NormStats, _check_split_ratios
from .errors import ConfigError, TrainingError, UndefinedMetricError, check_finite_fields
from .metrics import MetricsReport, compute_report
from .model import ModelConfig, ModelParams
from .numeric import AdamState, Array, Rng, adam_step

EMBED_STAGES = ("gru", "hconv", "aggregated")


@dataclass(frozen=True)
class TrainConfig:
    """Run hyperparameters plus the architecture, nested as ``model``."""

    window_hours: int = 48
    batch_size: int = 256
    learning_rate: float = 0.00039
    epochs: int = 50
    patience: int = 10
    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    decision_threshold: float = 0.5
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        check_finite_fields(self)
        if not isinstance(self.model, ModelConfig):
            raise ConfigError(f"model must be a ModelConfig, got {type(self.model).__name__}")
        if self.window_hours not in VALID_WINDOWS:
            raise ConfigError(f"window_hours must be one of {VALID_WINDOWS}, got {self.window_hours}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _check_split_ratios(self.split_ratios)
        if not 0.0 < self.decision_threshold < 1.0:
            raise ConfigError(
                f"decision_threshold must be in (0, 1), got {self.decision_threshold}")

    def model_config(self, n_variables: int, n_codes: int) -> ModelConfig:
        """The architecture with the input widths taken from the data."""
        return replace(self.model, n_variables=n_variables, n_codes=n_codes)


@dataclass
class Checkpoint:
    """Best-validation model state plus everything needed to reuse it."""

    config: TrainConfig
    schema: tuple[str, ...]
    code_vocab: tuple[str, ...]
    norm_stats: NormStats
    params: ModelParams
    training_log: list[dict] = field(default_factory=list)
    best_epoch: int = 0


def derive_rng_streams(seed: int) -> tuple[Rng, Rng, Rng]:
    """(split, init, loop) streams; re-derivable from the seed at any time."""
    return tuple(Rng(seed).split(3))


# ------------------------------------------------------------------ helpers


def _batch_slices(n: int, batch_size: int) -> list[slice]:
    """Contiguous batch windows; a trailing singleton joins its predecessor."""
    slices = [slice(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if len(slices) > 1 and slices[-1].stop - slices[-1].start == 1:
        tail = slices.pop()
        prev = slices.pop()
        slices.append(slice(prev.start, tail.stop))
    return slices


def _require_prepared(cohort: Cohort) -> None:
    if np.isnan(cohort.series).any():
        raise ConfigError("cohort has absent cells; impute and standardize first")


def _score_cohort(params: ModelParams, cohort: Cohort):
    """One eval-mode forward over the whole cohort, so every patient is
    scored on the same hypergraph and similarity graph; (scores, stages)."""
    return model_mod.forward_eval(params, cohort.series, cohort.icd)


# ------------------------------------------------------------------- train


def train(config: TrainConfig, train_cohort: Cohort, val_cohort: Cohort,
          progress=None) -> Checkpoint:
    """Fit the model; returns the best-validation-AUROC checkpoint.

    Both cohorts must already be imputed and standardized with the training
    split's statistics, and the validation cohort must hold both classes.
    ``progress``, when given, receives each epoch's log entry as it is
    produced.
    """
    if train_cohort.norm_stats is None or train_cohort.norm_stats.std is None:
        raise ConfigError("train cohort lacks normalization stats; run impute/standardize first")
    if train_cohort.schema != val_cohort.schema or train_cohort.code_vocab != val_cohort.code_vocab:
        raise ConfigError("train and validation cohorts disagree on schema or code vocabulary")
    n = len(train_cohort)
    if n < 2:
        raise ConfigError(f"training needs at least 2 patients, got {n}")
    if len(val_cohort) < 1:
        raise ConfigError("validation cohort is empty")
    val_positive = int(val_cohort.y.sum())
    if val_positive in (0, len(val_cohort)):
        # each epoch's model selection reads the validation AUROC
        raise UndefinedMetricError(
            f"validation cohort needs both classes, got {val_positive} positives "
            f"and {len(val_cohort) - val_positive} negatives")

    cfg = config.model_config(len(train_cohort.schema), len(train_cohort.code_vocab))
    _, init_rng, loop_rng = derive_rng_streams(config.seed)
    params = model_mod.init_params(cfg, init_rng)
    adam_state = AdamState.zeros(params.flat.shape, params.flat.dtype,
                                 learning_rate=config.learning_rate)

    _require_prepared(train_cohort)
    _require_prepared(val_cohort)
    series, icd, labels = train_cohort.series, train_cohort.icd, train_cohort.y

    epoch_streams = loop_rng.split(config.epochs)
    log: list[dict] = []
    best_auroc = -math.inf
    best_params = None
    best_epoch = 0
    since_best = 0

    for epoch_ix in range(config.epochs):
        epoch = epoch_ix + 1
        shuffle_rng, dropout_rng = epoch_streams[epoch_ix].split(2)
        order = shuffle_rng.permutation(n)
        slices = _batch_slices(n, config.batch_size)
        mask_streams = dropout_rng.split(len(slices)) if cfg.dropout > 0.0 else None

        batch_losses = []
        for b, sl in enumerate(slices):
            idx = order[sl]
            masks = None
            if mask_streams is not None:
                masks = model_mod.make_dropout_masks(params, len(idx), mask_streams[b])
            loss, cache = model_mod.forward_train(params, series[idx], icd[idx], labels[idx], masks)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {b + 1}")
            grads = model_mod.backward(params, cache)
            new_flat, adam_state = adam_step(params.flat, grads.flat, adam_state)
            params.flat[...] = new_flat  # in place, so every named view stays valid
            batch_losses.append(loss)

        val_scores, _ = _score_cohort(params, val_cohort)
        val_report = compute_report(val_scores, val_cohort.y, config.decision_threshold)
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "n_batches": len(slices),
            "val": val_report.to_dict(),
        }
        log.append(entry)
        if progress is not None:
            progress(entry)

        if val_report.auroc > best_auroc:
            best_auroc = val_report.auroc
            best_params = params.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    return Checkpoint(
        config=replace(config, model=cfg),
        schema=train_cohort.schema,
        code_vocab=train_cohort.code_vocab,
        norm_stats=train_cohort.norm_stats,
        params=best_params,
        training_log=log,
        best_epoch=best_epoch,
    )


# ---------------------------------------------------------------- evaluate


def _check_cohort_matches(ckpt: Checkpoint, cohort: Cohort) -> None:
    if cohort.schema != ckpt.schema:
        raise ConfigError("cohort schema does not match checkpoint schema")
    if cohort.code_vocab != ckpt.code_vocab:
        raise ConfigError("cohort code vocabulary does not match checkpoint vocabulary")
    _require_prepared(cohort)


def evaluate(ckpt: Checkpoint, cohort: Cohort) -> MetricsReport:
    """Eval-mode metrics on a standardized cohort at the checkpoint's decision threshold."""
    if len(cohort) == 0:
        raise UndefinedMetricError("cannot evaluate an empty cohort")
    _check_cohort_matches(ckpt, cohort)
    scores, _ = _score_cohort(ckpt.params, cohort)
    return compute_report(scores, cohort.y, ckpt.config.decision_threshold)


def predict_scores(ckpt: Checkpoint, cohort: Cohort) -> Array:
    """Per-patient death probabilities in cohort order, as float64; (0,) for
    no patients."""
    _check_cohort_matches(ckpt, cohort)
    if len(cohort) == 0:
        return np.empty(0)
    return _score_cohort(ckpt.params, cohort)[0].astype(np.float64)


def export_embeddings(ckpt: Checkpoint, cohort: Cohort, stage: str, out_path) -> str:
    """Write `patient_id,label,e0..` CSV of an intermediate representation.

    Each value is written as the shortest decimal that reads back as the
    same value of the stage's dtype (at most 9 significant digits in
    float32)."""
    if stage not in EMBED_STAGES:
        raise ConfigError(f"stage must be one of {EMBED_STAGES}, got {stage!r}")
    if len(cohort) == 0:
        raise ConfigError("cannot export embeddings for an empty cohort")
    _check_cohort_matches(ckpt, cohort)
    matrix = _score_cohort(ckpt.params, cohort)[1][stage]
    width = matrix.shape[1]
    with open(out_path, "w", newline="") as fh:
        fh.write("patient_id,label," + ",".join(f"e{k}" for k in range(width)) + "\n")
        for pid, label, row in zip(cohort.patient_ids, cohort.y, matrix):
            fh.write(f"{pid},{label}," + ",".join(map(str, row)) + "\n")
    return str(out_path)
