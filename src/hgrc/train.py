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
from .data import VALID_WINDOWS, Cohort, NormStats
from .errors import ConfigError, TrainingError, UndefinedMetricError
from .metrics import MetricsReport, compute_report
from .model import Batch, ModelConfig, ModelParams
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
        # JSON config files and checkpoint manifests carry these as a list
        # and an object
        if isinstance(self.split_ratios, list):
            object.__setattr__(self, "split_ratios", tuple(self.split_ratios))
        if isinstance(self.model, dict):
            object.__setattr__(self, "model", ModelConfig(**self.model))
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

    def model_config(self) -> ModelConfig:
        return self.config.model_config(len(self.schema), len(self.code_vocab))


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


def _cohort_arrays(cohort: Cohort) -> tuple[Array, Array, Array]:
    series = cohort.series_stack()
    if np.isnan(series).any():
        raise ConfigError("cohort has absent cells; impute and standardize first")
    return series, cohort.codes_matrix(), cohort.labels()


def _predict(params: ModelParams, cfg: ModelConfig, series: Array, icd: Array,
             labels: Array, eval_batch_size: int | None = None,
             stage: str | None = None):
    """Eval-mode scores over the whole set, optionally batched.

    Returns (scores, stage_matrix or None).  Aggregation happens within each
    evaluation batch only.
    """
    n = series.shape[0]
    if eval_batch_size is None or eval_batch_size >= n:
        pieces = [slice(0, n)]
    else:
        if eval_batch_size < 1:
            raise ConfigError(f"eval batch size must be >= 1, got {eval_batch_size}")
        pieces = [slice(s, min(s + eval_batch_size, n)) for s in range(0, n, eval_batch_size)]
    scores = np.empty(n)
    stage_rows = [] if stage is not None else None
    for sl in pieces:
        out = model_mod.forward_eval(params, Batch(series[sl], icd[sl], labels[sl]), cfg)
        scores[sl] = out.scores
        if stage is not None:
            stage_rows.append(out.stages[stage])
    stage_matrix = np.concatenate(stage_rows, axis=0) if stage is not None else None
    return scores, stage_matrix


# ------------------------------------------------------------------- train


def train(config: TrainConfig, train_cohort: Cohort, val_cohort: Cohort,
          progress=None) -> Checkpoint:
    """Fit the model; returns the best-validation-AUROC checkpoint.

    Both cohorts must already be imputed and standardized with the training
    split's statistics.  ``progress``, when given, receives each epoch's log
    entry as it is produced.
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

    cfg = config.model_config(len(train_cohort.schema), len(train_cohort.code_vocab))
    _, init_rng, loop_rng = derive_rng_streams(config.seed)
    params = model_mod.init_params(cfg, init_rng)
    adam_state = AdamState.zeros(params.flat.shape, learning_rate=config.learning_rate)

    series, icd, labels = _cohort_arrays(train_cohort)
    val_series, val_icd, val_labels = _cohort_arrays(val_cohort)

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
            batch = Batch(series[idx], icd[idx], labels[idx])
            masks = None
            if mask_streams is not None:
                masks = model_mod.make_dropout_masks(cfg, params, len(idx), mask_streams[b])
            loss, cache = model_mod.forward_train(params, batch, cfg, masks)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {b + 1}")
            grads = model_mod.backward(params, batch, cfg, cache)
            new_flat, adam_state = adam_step(params.flat, grads.flat, adam_state)
            params.flat[...] = new_flat  # in place, so every named view stays valid
            batch_losses.append(loss)

        val_scores, _ = _predict(params, cfg, val_series, val_icd, val_labels)
        val_report = compute_report(val_scores, val_labels, config.decision_threshold)
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


def evaluate(ckpt: Checkpoint, cohort: Cohort, decision_threshold: float = 0.5,
             eval_batch_size: int | None = None) -> MetricsReport:
    """Eval-mode metrics on a standardized cohort."""
    if len(cohort) == 0:
        raise UndefinedMetricError("cannot evaluate an empty cohort")
    _check_cohort_matches(ckpt, cohort)
    series, icd, labels = _cohort_arrays(cohort)
    scores, _ = _predict(ckpt.params, ckpt.model_config(), series, icd, labels,
                         eval_batch_size)
    return compute_report(scores, labels, decision_threshold)


def predict_scores(ckpt: Checkpoint, cohort: Cohort,
                   eval_batch_size: int | None = None) -> Array:
    """Per-patient death probabilities in cohort order."""
    _check_cohort_matches(ckpt, cohort)
    series, icd, labels = _cohort_arrays(cohort)
    scores, _ = _predict(ckpt.params, ckpt.model_config(), series, icd, labels,
                         eval_batch_size)
    return scores


def export_embeddings(ckpt: Checkpoint, cohort: Cohort, stage: str, out_path,
                      eval_batch_size: int | None = None) -> str:
    """Write `patient_id,label,e0..` CSV of an intermediate representation."""
    if stage not in EMBED_STAGES:
        raise ConfigError(f"stage must be one of {EMBED_STAGES}, got {stage!r}")
    if len(cohort) == 0:
        raise ConfigError("cannot export embeddings for an empty cohort")
    _check_cohort_matches(ckpt, cohort)
    series, icd, labels = _cohort_arrays(cohort)
    _, matrix = _predict(ckpt.params, ckpt.model_config(), series, icd, labels,
                         eval_batch_size, stage=stage)
    width = matrix.shape[1]
    with open(out_path, "w", newline="") as fh:
        fh.write("patient_id,label," + ",".join(f"e{k}" for k in range(width)) + "\n")
        for p, row in zip(cohort.patients, matrix):
            fh.write(f"{p.patient_id},{p.label}," + ",".join(repr(float(v)) for v in row) + "\n")
    return str(out_path)
