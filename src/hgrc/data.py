"""Cohort data model: loading, validation, imputation, standardization, splits.

A cohort is an ordered list of patient records.  Each record holds an hourly
vital-sign matrix (variables x hours, NaN marks an absent measurement), a
binary diagnosis-code vector over the cohort's code vocabulary, and a binary
in-hospital mortality label.

All transforms return new cohorts; nothing mutates in place.  Imputation and
standardization statistics are computed on the training split only and reused
verbatim on validation and test data.
"""

from __future__ import annotations

import csv
import difflib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParseError
from .numeric import Array, Rng

VALID_WINDOWS = (24, 48)

# Hourly physiological variables, lexicographic order = row order of series.
DEFAULT_SCHEMA = (
    "diastolic_bp",
    "fio2",
    "gcs_eye",
    "gcs_motor",
    "gcs_total",
    "gcs_verbal",
    "glucose",
    "heart_rate",
    "height",
    "mean_bp",
    "o2_saturation",
    "ph",
    "respiratory_rate",
    "systolic_bp",
    "temperature",
    "weight",
)

# Relative tolerance below which a variable counts as constant.
_ZERO_VAR_TOL = 1e-12


@dataclass(eq=False)
class PatientRecord:
    """One ICU stay: vitals series (M, T), binary code vector (g,), label."""

    patient_id: str
    series: Array
    icd: Array
    label: int


@dataclass(frozen=True)
class NormStats:
    """Per-variable mean/std plus any degenerate-variable warnings.

    ``std`` stays None until standardization statistics exist.  A stored std
    of exactly 0.0 marks a zero-variance variable whose z-scores are defined
    as 0.
    """

    schema: tuple[str, ...]
    mean: Array
    std: Array | None = None
    warnings: tuple[str, ...] = ()


@dataclass(eq=False)
class Cohort:
    """Ordered patients sharing one variable schema and one code vocabulary."""

    patients: list[PatientRecord]
    schema: tuple[str, ...]
    code_vocab: tuple[str, ...]
    norm_stats: NormStats | None = None

    def __post_init__(self):
        ids = [p.patient_id for p in self.patients]
        if len(set(ids)) != len(ids):
            raise ConfigError("cohort has duplicate patient_ids")
        m, g = len(self.schema), len(self.code_vocab)
        for p in self.patients:
            if p.series.shape[0] != m:
                raise ConfigError(
                    f"patient {p.patient_id}: series has {p.series.shape[0]} variables, schema has {m}")
            if p.icd.shape != (g,):
                raise ConfigError(
                    f"patient {p.patient_id}: icd vector shape {p.icd.shape}, vocabulary size {g}")

    def __len__(self) -> int:
        return len(self.patients)

    def labels(self) -> Array:
        return np.array([p.label for p in self.patients], dtype=np.int64)

    def codes_matrix(self) -> Array:
        """Stack per-patient code vectors into an (N, g) float matrix."""
        g = len(self.code_vocab)
        if not self.patients:
            return np.zeros((0, g))
        return np.stack([p.icd.astype(np.float64) for p in self.patients])

    def series_stack(self) -> Array:
        """Stack series into (N, M, T); all patients share T by construction."""
        if not self.patients:
            return np.zeros((0, len(self.schema), 0))
        return np.stack([p.series for p in self.patients])


# ----------------------------------------------------------------- loading


def _read_rows(path, expected_header: list[str]):
    """Yield (line_number, row) for a CSV file, validating the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, expected header "
                             + ",".join(expected_header), path=path, line=1)
        if header != expected_header:
            raise ParseError(f"bad header {header!r}, expected {expected_header!r}",
                             path=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"expected {len(expected_header)} columns, got {len(row)}",
                                 path=path, line=lineno)
            yield lineno, row


def load_cohort(patients_path, vitals_path, window_hours: int,
                schema: tuple[str, ...] = DEFAULT_SCHEMA) -> Cohort:
    """Load a cohort from the two-file CSV format.

    patients csv: ``patient_id,label,icd_codes`` with semicolon-separated
    codes (possibly empty).  vitals csv: ``patient_id,hour,variable,value``
    with hour in [0, window) and variable drawn from ``schema``.  When an
    hour bin receives several measurements the last row in file order wins.
    Malformed content raises ParseError naming the file and line.
    """
    if window_hours not in VALID_WINDOWS:
        raise ConfigError(f"window_hours must be one of {VALID_WINDOWS}, got {window_hours}")
    schema = tuple(schema)
    var_index = {name: i for i, name in enumerate(schema)}

    ids: list[str] = []
    labels: list[int] = []
    code_sets: list[set[str]] = []
    seen: dict[str, int] = {}
    for lineno, row in _read_rows(patients_path, ["patient_id", "label", "icd_codes"]):
        pid, label_s, codes_s = row
        if not pid:
            raise ParseError("empty patient_id", path=patients_path, line=lineno)
        if pid in seen:
            raise ParseError(f"duplicate patient_id {pid!r} (first at line {seen[pid]})",
                             path=patients_path, line=lineno)
        if label_s not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {label_s!r}",
                             path=patients_path, line=lineno)
        seen[pid] = lineno
        ids.append(pid)
        labels.append(int(label_s))
        code_sets.append({c.strip() for c in codes_s.split(";") if c.strip()})

    code_vocab = tuple(sorted(set().union(*code_sets))) if code_sets else ()
    code_pos = {c: j for j, c in enumerate(code_vocab)}
    row_of = {pid: i for i, pid in enumerate(ids)}

    n, m, t = len(ids), len(schema), window_hours
    series = np.full((n, m, t), np.nan)
    for lineno, row in _read_rows(vitals_path, ["patient_id", "hour", "variable", "value"]):
        pid, hour_s, variable, value_s = row
        if pid not in row_of:
            raise ParseError(f"unknown patient_id {pid!r}", path=vitals_path, line=lineno)
        try:
            hour = int(hour_s)
        except ValueError:
            raise ParseError(f"hour must be an integer, got {hour_s!r}",
                             path=vitals_path, line=lineno)
        if not 0 <= hour < t:
            raise ParseError(f"hour {hour} outside window [0, {t})",
                             path=vitals_path, line=lineno)
        if variable not in var_index:
            raise ParseError(f"unknown variable {variable!r}", path=vitals_path, line=lineno)
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(f"value must be a decimal, got {value_s!r}",
                             path=vitals_path, line=lineno)
        if not math.isfinite(value):
            raise ParseError(f"value must be finite, got {value_s!r}",
                             path=vitals_path, line=lineno)
        series[row_of[pid], var_index[variable], hour] = value

    patients = []
    for i, pid in enumerate(ids):
        icd = np.zeros(len(code_vocab))
        for c in code_sets[i]:
            icd[code_pos[c]] = 1.0
        patients.append(PatientRecord(pid, series[i], icd, labels[i]))
    return Cohort(patients, schema, code_vocab)


# ------------------------------------------- imputation and standardization


def _observed_means(cohort: Cohort) -> tuple[Array, tuple[str, ...]]:
    """Per-variable mean over observed cells; all-absent variables mean 0."""
    stack = cohort.series_stack()
    observed = ~np.isnan(stack)
    counts = observed.sum(axis=(0, 2))
    sums = np.where(observed, stack, 0.0).sum(axis=(0, 2))
    warnings = tuple(
        f"variable {name!r} has no observed values; imputing 0"
        for name, c in zip(cohort.schema, counts) if c == 0)
    mean = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return mean, warnings


def impute_mean(cohort: Cohort, stats: NormStats | None = None) -> Cohort:
    """Replace absent cells by per-variable means.

    Without ``stats`` the means come from this cohort's observed cells (the
    training split) and are recorded in the result's norm_stats; a variable
    with no observations imputes to 0 and records a warning.  With ``stats``
    (validation/test) the stored means are applied verbatim.
    """
    if stats is None:
        mean, warnings = _observed_means(cohort)
        stats = NormStats(cohort.schema, mean, std=None, warnings=warnings)
    elif stats.schema != cohort.schema:
        raise ConfigError(f"norm stats schema {stats.schema} does not match cohort {cohort.schema}")
    fill = stats.mean[:, None]
    patients = [replace(p, series=np.where(np.isnan(p.series), fill, p.series))
                for p in cohort.patients]
    return Cohort(patients, cohort.schema, cohort.code_vocab, norm_stats=stats)


def standardize(cohort: Cohort, stats: NormStats | None = None) -> Cohort:
    """Per-variable z-score; zero-variance variables map to 0.

    Requires imputation first (no absent cells).  Without ``stats`` the
    standard deviation is computed on this cohort around its recorded
    imputation means (or fresh means when none are recorded) and stored in
    the result's norm_stats for reuse on other splits.
    """
    stack = cohort.series_stack()
    if np.isnan(stack).any():
        raise ConfigError("standardize requires imputation first (absent cells remain)")
    if stats is None:
        base = cohort.norm_stats
        mean = base.mean if base is not None else stack.mean(axis=(0, 2))
        centered = stack - mean[None, :, None]
        std = np.sqrt((centered * centered).mean(axis=(0, 2)))
        std = np.where(std <= _ZERO_VAR_TOL * np.maximum(1.0, np.abs(mean)), 0.0, std)
        stats = NormStats(cohort.schema, mean, std,
                          base.warnings if base is not None else ())
    else:
        if stats.schema != cohort.schema:
            raise ConfigError(f"norm stats schema {stats.schema} does not match cohort {cohort.schema}")
        if stats.std is None:
            raise ConfigError("supplied norm stats lack standard deviations")
    safe = np.where(stats.std > 0.0, stats.std, 1.0)[:, None]
    mean = stats.mean[:, None]
    zero = (stats.std == 0.0)[:, None]
    patients = [replace(p, series=np.where(zero, 0.0, (p.series - mean) / safe))
                for p in cohort.patients]
    return Cohort(patients, cohort.schema, cohort.code_vocab, norm_stats=stats)


# ------------------------------------------------------- split and filter


def split(cohort: Cohort, ratios: tuple[float, float, float], rng: Rng) -> tuple[Cohort, Cohort, Cohort]:
    """Permute patients with ``rng`` and cut into train/val/test.

    Cut points are floor(cumulative_ratio * N) with a 1e-9 nudge so exact
    decimal ratios are not lost to float dust (N=10 at 0.7 gives 7, not 6).
    """
    if len(ratios) != 3:
        raise ConfigError(f"expected 3 split ratios, got {len(ratios)}")
    if any(r <= 0.0 for r in ratios):
        raise ConfigError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    n = len(cohort)
    order = rng.permutation(n)
    c1 = int(math.floor(ratios[0] * n + 1e-9))
    c2 = int(math.floor((ratios[0] + ratios[1]) * n + 1e-9))
    pieces = (order[:c1], order[c1:c2], order[c2:])
    if any(len(ix) == 0 for ix in pieces):
        raise ConfigError(f"split of {n} patients at ratios {ratios} leaves an empty piece")
    return tuple(
        Cohort([cohort.patients[i] for i in ix], cohort.schema, cohort.code_vocab,
               cohort.norm_stats)
        for ix in pieces)


def code_carriers(cohort: Cohort, code: str) -> Array:
    """Boolean mask over the cohort's patients, true where they carry ``code``."""
    if code not in cohort.code_vocab:
        near = difflib.get_close_matches(code, cohort.code_vocab, n=3)
        hint = f"; nearest matches: {', '.join(near)}" if near else ""
        raise ConfigError(f"code {code!r} not in vocabulary{hint}")
    return cohort.codes_matrix()[:, cohort.code_vocab.index(code)] == 1.0
