"""Synthetic ICU cohort generator.

Stands in for restricted clinical data: vitals are smooth random walks with a
class-dependent mean offset, and diagnosis codes are drawn from
class-conditioned prevalences whose logits are shifted per code.  Both signal
knobs can be set to zero to produce a label-free null cohort.

Generation is fully determined by the Rng passed in; the file writer emits
byte-identical CSVs for a fixed cohort.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import DEFAULT_SCHEMA, Cohort
from .errors import ConfigError, check_finite_fields
from .numeric import Rng, sigmoid

# ICD-9-like vocabulary for synthetic cohorts (lexicographically sorted).
# Includes congestive heart failure (428.0) and diabetes (250.00) so the
# case-study workflow has its real-world targets.
CURATED_CODES = (
    "038.9",   # septicemia
    "244.9",   # hypothyroidism
    "250.00",  # diabetes mellitus
    "272.4",   # hyperlipidemia
    "276.2",   # acidosis
    "285.9",   # anemia
    "401.9",   # essential hypertension
    "403.90",  # hypertensive chronic kidney disease
    "410.71",  # subendocardial infarction
    "414.01",  # coronary atherosclerosis
    "424.0",   # mitral valve disorder
    "427.31",  # atrial fibrillation
    "428.0",   # congestive heart failure
    "486",     # pneumonia
    "491.21",  # obstructive chronic bronchitis
    "518.81",  # acute respiratory failure
    "584.9",   # acute kidney failure
    "585.9",   # chronic kidney disease
    "599.0",   # urinary tract infection
    "995.92",  # severe sepsis
)

_WALK_STEP_SCALE = 0.15
_PREVALENCE_LOW = 0.08
_PREVALENCE_HIGH = 0.35


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for one synthetic cohort."""

    n_patients: int = 2000
    positive_fraction: float = 0.25
    n_variables: int = 16
    window_hours: int = 48
    n_codes: int = 20
    class_separation: float = 1.0
    missing_rate: float = 0.3
    code_signal_strength: float = 3.0

    def __post_init__(self):
        check_finite_fields(self)
        if self.n_patients < 1:
            raise ConfigError(f"n_patients must be >= 1, got {self.n_patients}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError(f"positive_fraction must be in (0, 1), got {self.positive_fraction}")
        if self.n_variables < 1:
            raise ConfigError(f"n_variables must be >= 1, got {self.n_variables}")
        if self.window_hours < 1:
            raise ConfigError(f"window_hours must be >= 1, got {self.window_hours}")
        if self.n_codes < 0:
            raise ConfigError(f"n_codes must be >= 0, got {self.n_codes}")
        if self.class_separation < 0.0:
            raise ConfigError(f"class_separation must be >= 0, got {self.class_separation}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if self.code_signal_strength < 0.0:
            raise ConfigError(f"code_signal_strength must be >= 0, got {self.code_signal_strength}")


def synthetic_schema(n_variables: int) -> tuple[str, ...]:
    if n_variables == len(DEFAULT_SCHEMA):
        return DEFAULT_SCHEMA
    return tuple(f"var_{i:03d}" for i in range(n_variables))


def synthetic_vocab(n_codes: int) -> tuple[str, ...]:
    if n_codes <= len(CURATED_CODES):
        return CURATED_CODES[:n_codes]
    extra = [f"{600 + k:03d}.{k % 10}" for k in range(n_codes - len(CURATED_CODES))]
    return tuple(sorted(CURATED_CODES + tuple(extra)))


def gen_synthetic(spec: SyntheticSpec, rng: Rng) -> Cohort:
    """Draw one cohort from ``spec``.

    Labels: Bernoulli(positive_fraction).  Series: per-variable random walk
    (unit-normal start, step scale 0.15) plus class_separation * direction *
    label, direction a random sign per variable.  Codes: per-code base
    prevalence U(0.08, 0.35), logit shifted by +-code_signal_strength for the
    positive class (sign random per code).  Cells then go absent
    independently at missing_rate.
    """
    labels_rng, series_rng, codes_rng, missing_rng = rng.split(4)
    n, m, t, g = spec.n_patients, spec.n_variables, spec.window_hours, spec.n_codes

    y = (labels_rng.random(n) < spec.positive_fraction).astype(np.int64)

    directions = np.where(series_rng.random(m) < 0.5, -1.0, 1.0)
    starts = series_rng.normal(size=(n, m, 1))
    steps = series_rng.normal(scale=_WALK_STEP_SCALE, size=(n, m, t))
    series = starts + np.cumsum(steps, axis=2)
    series += spec.class_separation * directions[None, :, None] * y[:, None, None]

    vocab = synthetic_vocab(g)
    if g > 0:
        prevalence = codes_rng.uniform(_PREVALENCE_LOW, _PREVALENCE_HIGH, g)
        signs = np.where(codes_rng.random(g) < 0.5, -1.0, 1.0)
        logits = np.log(prevalence / (1.0 - prevalence))
        p_pos = sigmoid(logits + spec.code_signal_strength * signs)
        p_neg = sigmoid(logits - spec.code_signal_strength * signs)
        p = p_neg[None, :] + (p_pos - p_neg)[None, :] * y[:, None]
        icd = (codes_rng.random((n, g)) < p).astype(np.float64)
    else:
        icd = np.zeros((n, 0))

    if spec.missing_rate > 0.0:
        absent = missing_rng.random((n, m, t)) < spec.missing_rate
        series = np.where(absent, np.nan, series)

    return Cohort([f"p{i:05d}" for i in range(n)], series, icd, y, synthetic_schema(m), vocab)


# ------------------------------------------------------------ file output


def write_cohort_files(cohort: Cohort, out_dir, spec: SyntheticSpec, seed: int) -> dict[str, str]:
    """Write patients.csv, vitals.csv, and meta.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    patients_path = out / "patients.csv"
    vitals_path = out / "vitals.csv"
    meta_path = out / "meta.json"

    with open(patients_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("patient_id,label,icd_codes\n")
        for pid, label, icd in zip(cohort.patient_ids, cohort.y, cohort.icd):
            codes = ";".join(c for c, flag in zip(cohort.code_vocab, icd) if flag == 1.0)
            fh.write(f"{pid},{label},{codes}\n")

    # repr gives the shortest digits that round-trip, so files are byte-stable
    with open(vitals_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("patient_id,hour,variable,value\n")
        for pid, series in zip(cohort.patient_ids, cohort.series):
            for name, row in zip(cohort.schema, series.tolist()):
                for hour, v in enumerate(row):
                    if not math.isnan(v):
                        fh.write(f"{pid},{hour},{name},{v!r}\n")

    meta = {"seed": int(seed), "spec": asdict(spec)}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"patients": str(patients_path), "vitals": str(vitals_path), "meta": str(meta_path)}
