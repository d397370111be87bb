"""Synthetic cohort generator: determinism, signal knobs, file round trip."""

import json
from dataclasses import replace

import numpy as np
import pytest

from hgrc.data import DEFAULT_SCHEMA, load_cohort
from hgrc.errors import ConfigError
from hgrc.numeric import Rng
from hgrc.synthetic import (CURATED_CODES, SyntheticSpec, gen_synthetic, synthetic_schema,
                            synthetic_vocab, write_cohort_files)

SMALL = SyntheticSpec(n_patients=60, n_variables=3, window_hours=24, n_codes=5)


def test_generation_is_deterministic():
    a = gen_synthetic(SMALL, Rng(5))
    b = gen_synthetic(SMALL, Rng(5))
    assert np.array_equal(a.patient_ids, b.patient_ids)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.series, b.series, equal_nan=True)
    assert np.array_equal(a.icd, b.icd)


def test_shapes_vocab_and_schema():
    cohort = gen_synthetic(SMALL, Rng(1))
    assert len(cohort) == 60
    assert cohort.schema == ("var_000", "var_001", "var_002")
    assert cohort.code_vocab == CURATED_CODES[:5]
    assert cohort.patient_ids[0] == "p00000" and cohort.patient_ids.shape == (60,)
    assert cohort.series.shape == (60, 3, 24)
    assert cohort.icd.shape == (60, 5)
    assert cohort.y.shape == (60,)
    assert set(np.unique(cohort.icd)) <= {0.0, 1.0}


def test_default_spec_uses_clinical_schema():
    spec = SyntheticSpec(n_patients=3)
    cohort = gen_synthetic(spec, Rng(0))
    assert cohort.schema == DEFAULT_SCHEMA
    assert len(cohort.code_vocab) == 20


def test_vocab_extension_and_sorting():
    vocab = synthetic_vocab(24)
    assert len(vocab) == 24
    assert list(vocab) == sorted(vocab)
    assert set(CURATED_CODES) <= set(vocab)
    assert synthetic_schema(16) == DEFAULT_SCHEMA


def test_positive_fraction_and_missing_rate_are_respected():
    spec = SyntheticSpec(n_patients=4000, n_variables=4, window_hours=24,
                         n_codes=0, positive_fraction=0.25, missing_rate=0.3)
    cohort = gen_synthetic(spec, Rng(3))
    frac = cohort.labels().mean()
    assert abs(frac - 0.25) < 0.03
    assert abs(np.isnan(cohort.series).mean() - 0.3) < 0.01


def test_class_separation_shifts_series_means():
    spec = SyntheticSpec(n_patients=800, n_variables=4, window_hours=12,
                         n_codes=0, missing_rate=0.0, class_separation=2.0)
    cohort = gen_synthetic(spec, Rng(2))
    stack = cohort.series
    y = cohort.labels().astype(bool)
    gap = np.abs(stack[y].mean(axis=(0, 2)) - stack[~y].mean(axis=(0, 2)))
    assert np.all(gap > 1.0)


def test_code_signal_separates_classes():
    spec = SyntheticSpec(n_patients=1500, n_variables=2, window_hours=6,
                         missing_rate=0.0, code_signal_strength=3.0)
    cohort = gen_synthetic(spec, Rng(8))
    codes = cohort.icd
    y = cohort.labels().astype(bool)
    gap = np.abs(codes[y].mean(axis=0) - codes[~y].mean(axis=0))
    # logit shift of 3 moves every prevalence by a wide margin
    assert gap.max() > 0.4
    assert gap.mean() > 0.2


def test_null_spec_removes_both_signals():
    base = SyntheticSpec(n_patients=1500, n_variables=3, window_hours=8,
                         missing_rate=0.0)
    nullled = replace(base, class_separation=0.0, code_signal_strength=0.0)
    cohort = gen_synthetic(nullled, Rng(4))
    y = cohort.labels().astype(bool)
    stack = cohort.series
    gap = np.abs(stack[y].mean(axis=(0, 2)) - stack[~y].mean(axis=(0, 2)))
    assert np.all(gap < 0.2)
    codes_gap = np.abs(cohort.icd[y].mean(axis=0) - cohort.icd[~y].mean(axis=0))
    assert np.all(codes_gap < 0.1)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_patients=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(positive_fraction=1.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(missing_rate=1.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(class_separation=-0.1)


def test_written_files_load_back_identically(tmp_path):
    spec = SyntheticSpec(n_patients=25, n_variables=3, window_hours=24, n_codes=6,
                         missing_rate=0.4)
    cohort = gen_synthetic(spec, Rng(6))
    paths = write_cohort_files(cohort, tmp_path, spec, seed=6)
    loaded = load_cohort(paths["patients"], paths["vitals"], window_hours=24,
                         schema=cohort.schema)
    assert loaded.code_vocab == cohort.code_vocab
    assert np.array_equal(cohort.patient_ids, loaded.patient_ids)
    assert np.array_equal(cohort.y, loaded.y)
    # repr round trip keeps every float bit-exact
    assert np.array_equal(cohort.series.view(np.int64), loaded.series.view(np.int64))
    assert np.array_equal(cohort.icd, loaded.icd)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["seed"] == 6
    assert meta["spec"]["n_patients"] == 25


def test_written_files_are_byte_deterministic(tmp_path):
    spec = SyntheticSpec(n_patients=10, n_variables=2, window_hours=24, n_codes=3)
    for sub in ("a", "b"):
        write_cohort_files(gen_synthetic(spec, Rng(9)), tmp_path / sub, spec, seed=9)
    for name in ("patients.csv", "vitals.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
