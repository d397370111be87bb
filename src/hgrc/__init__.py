"""Hypergraph-convolution patient-similarity model for ICU mortality risk.

Patients' hourly vitals run through a GRU; the final hidden state is fused
with binary diagnosis codes.  Diagnosis codes define per-batch hyperedges,
and a stacked residual hypergraph convolution mixes the representations of
co-diagnosed patients.  A learnable-threshold similarity graph feeds a GCN
aggregation step, but it has no edge at any trained zeta: every similarity is
capped at (1 + L)^2 / w, 0.20 at the defaults, below zeta's start of 0.4 and
every zeta training has reached, so the aggregation sees self-loops only.  A
two-hidden-layer FFN predicts in-hospital mortality (the paper's
attention-gated FFN ensemble measured no better than one FFN, so the head is
one).  All gradients are hand-derived and verified against finite
differences; training is fully deterministic given a seed.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DEFAULT_SCHEMA, Cohort, NormStats, PatientRecord, impute_mean,
                   load_cohort, split, standardize)
from .errors import (CheckpointError, CheckpointVersionError, ConfigError,
                     GradientCheckError, ParseError, ShapeError, TrainingError,
                     UndefinedMetricError)
from .metrics import MetricsReport, auprc, auroc, compute_report, confusion_metrics
from .model import ModelConfig, ModelParams, forward_eval, forward_train, init_params
from .numeric import AdamState, Rng, adam_step, finite_diff_check
from .synthetic import SyntheticSpec, gen_synthetic, write_cohort_files
from .train import (Checkpoint, TrainConfig, derive_rng_streams, evaluate,
                    export_embeddings, predict_scores, train)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Checkpoint", "CheckpointError", "CheckpointVersionError",
    "Cohort", "ConfigError", "DEFAULT_SCHEMA", "GradientCheckError", "MetricsReport",
    "ModelConfig", "ModelParams", "NormStats", "ParseError", "PatientRecord", "Rng",
    "ShapeError", "SyntheticSpec", "TrainConfig", "TrainingError",
    "UndefinedMetricError", "adam_step", "auprc", "auroc", "compute_report",
    "confusion_metrics", "derive_rng_streams", "evaluate", "export_embeddings",
    "finite_diff_check", "forward_eval", "forward_train",
    "gen_synthetic", "impute_mean", "init_params", "load_checkpoint", "load_cohort",
    "predict_scores", "save_checkpoint", "split", "standardize", "train",
    "write_cohort_files",
]
