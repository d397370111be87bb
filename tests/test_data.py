"""Cohort loading, imputation, standardization, splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc.data import (DEFAULT_SCHEMA, Cohort, NormStats, PatientRecord, code_carriers,
                       impute_mean, load_cohort, split, standardize)
from hgrc.errors import ConfigError, ParseError
from hgrc.numeric import Rng

SCHEMA2 = ("heart_rate", "temperature")


def write_files(tmp_path, patients: str, vitals: str):
    p = tmp_path / "patients.csv"
    v = tmp_path / "vitals.csv"
    p.write_text(patients)
    v.write_text(vitals)
    return p, v


def make_cohort(series_list, icd_list, labels, schema=SCHEMA2, vocab=("428.0",)):
    patients = [
        PatientRecord(f"p{i}", np.array(s, dtype=float), np.array(c, dtype=float), y)
        for i, (s, c, y) in enumerate(zip(series_list, icd_list, labels))
    ]
    return Cohort(patients, schema, vocab)


# ---------------------------------------------------------------- loading


def test_default_schema_is_sorted_and_sized():
    assert len(DEFAULT_SCHEMA) == 16
    assert list(DEFAULT_SCHEMA) == sorted(DEFAULT_SCHEMA)


def test_load_cohort_roundtrip_values(tmp_path):
    p, v = write_files(
        tmp_path,
        "patient_id,label,icd_codes\na,1,428.0;250.00\nb,0,\n",
        "patient_id,hour,variable,value\n"
        "a,0,heart_rate,88.5\n"
        "a,23,temperature,37.2\n"
        "b,5,heart_rate,60.0\n",
    )
    cohort = load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert len(cohort) == 2
    assert cohort.code_vocab == ("250.00", "428.0")
    a, b = cohort.patients
    assert a.series.shape == (2, 24)
    assert a.series[0, 0] == 88.5
    assert a.series[1, 23] == 37.2
    assert np.isnan(a.series[0, 1])
    assert np.array_equal(a.icd, [1.0, 1.0])
    assert np.array_equal(b.icd, [0.0, 0.0])
    assert a.label == 1 and b.label == 0


def test_load_cohort_last_measurement_in_an_hour_wins(tmp_path):
    p, v = write_files(
        tmp_path,
        "patient_id,label,icd_codes\na,0,\n",
        "patient_id,hour,variable,value\n"
        "a,3,heart_rate,70\n"
        "a,3,heart_rate,75\n",
    )
    cohort = load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert cohort.patients[0].series[0, 3] == 75.0


def test_load_cohort_window_validation(tmp_path):
    p, v = write_files(tmp_path, "patient_id,label,icd_codes\na,0,\n",
                       "patient_id,hour,variable,value\n")
    with pytest.raises(ConfigError):
        load_cohort(p, v, window_hours=36, schema=SCHEMA2)
    # hour 24 is outside a 24h window
    v.write_text("patient_id,hour,variable,value\na,24,heart_rate,70\n")
    with pytest.raises(ParseError, match="hour 24"):
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)


@pytest.mark.parametrize("patients,vitals,fragment", [
    ("patient_id,label,icd_codes\na,2,\n", None, "label"),
    ("patient_id,label,icd_codes\na,0,\na,1,\n", None, "duplicate"),
    ("patient_id,label,icd_codes\n,0,\n", None, "empty patient_id"),
    ("wrong,header,here\n", None, "header"),
    ("", None, "empty file"),
    (None, "patient_id,hour,variable,value\nzz,0,heart_rate,70\n", "unknown patient_id"),
    (None, "patient_id,hour,variable,value\na,x,heart_rate,70\n", "integer"),
    (None, "patient_id,hour,variable,value\na,0,blood_type,1\n", "unknown variable"),
    (None, "patient_id,hour,variable,value\na,0,heart_rate,abc\n", "decimal"),
    (None, "patient_id,hour,variable,value\na,0,heart_rate,inf\n", "finite"),
    (None, "patient_id,hour,variable,value\na,0,heart_rate\n", "columns"),
])
def test_load_cohort_malformed_content(tmp_path, patients, vitals, fragment):
    p, v = write_files(
        tmp_path,
        patients if patients is not None else "patient_id,label,icd_codes\na,0,\n",
        vitals if vitals is not None else "patient_id,hour,variable,value\n",
    )
    with pytest.raises(ParseError, match=fragment):
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)


def test_parse_error_names_file_and_line(tmp_path):
    p, v = write_files(
        tmp_path,
        "patient_id,label,icd_codes\na,0,\n",
        "patient_id,hour,variable,value\na,0,heart_rate,70\na,0,blood_type,1\n",
    )
    with pytest.raises(ParseError) as exc:
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert str(v) in str(exc.value)
    assert ":3:" in str(exc.value)


def test_load_cohort_blank_lines_skipped(tmp_path):
    p, v = write_files(
        tmp_path,
        "patient_id,label,icd_codes\na,0,\n\n",
        "patient_id,hour,variable,value\n\na,0,heart_rate,70\n",
    )
    cohort = load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert cohort.patients[0].series[0, 0] == 70.0


# --------------------------------------------------------------- imputation


def test_impute_mean_uses_observed_cells_only():
    series = [
        [[1.0, np.nan], [10.0, 10.0]],
        [[3.0, np.nan], [np.nan, 30.0]],
    ]
    cohort = make_cohort(series, [[0], [0]], [0, 0])
    filled = impute_mean(cohort)
    # heart_rate observed cells: 1, 3 -> mean 2
    assert filled.patients[0].series[0, 1] == 2.0
    assert filled.patients[1].series[0, 1] == 2.0
    # temperature observed: 10, 10, 30
    assert np.isclose(filled.patients[1].series[1, 0], 50.0 / 3.0)
    assert filled.norm_stats.mean[0] == 2.0
    assert not np.isnan(filled.series_stack()).any()


def test_impute_mean_all_absent_variable_warns_and_zeros():
    series = [[[np.nan, np.nan], [1.0, 2.0]]]
    cohort = make_cohort(series, [[0]], [0])
    filled = impute_mean(cohort)
    assert filled.patients[0].series[0, 0] == 0.0
    assert any("heart_rate" in w for w in filled.norm_stats.warnings)


def test_impute_mean_reuses_supplied_stats():
    stats = NormStats(SCHEMA2, np.array([100.0, 37.0]))
    cohort = make_cohort([[[np.nan, 2.0], [np.nan, np.nan]]], [[1]], [1])
    filled = impute_mean(cohort, stats)
    assert filled.patients[0].series[0, 0] == 100.0
    assert filled.patients[0].series[1, 1] == 37.0
    # original cohort untouched
    assert np.isnan(cohort.patients[0].series[0, 0])


def test_impute_mean_schema_mismatch():
    stats = NormStats(("other",), np.array([1.0]))
    cohort = make_cohort([[[1.0], [2.0]]], [[0]], [0])
    with pytest.raises(ConfigError):
        impute_mean(cohort, stats)


# ----------------------------------------------------------- standardization


def test_standardize_zero_mean_unit_std():
    rng = Rng(0)
    series = [rng.normal(loc=5.0, scale=3.0, size=(2, 40)) for _ in range(8)]
    cohort = make_cohort(series, [[0]] * 8, [0] * 8)
    z = standardize(impute_mean(cohort))
    stack = z.series_stack()
    assert np.allclose(stack.mean(axis=(0, 2)), 0.0, atol=1e-12)
    assert np.allclose(stack.std(axis=(0, 2)), 1.0, atol=1e-12)


def test_standardize_requires_imputation():
    cohort = make_cohort([[[np.nan, 1.0], [2.0, 3.0]]], [[0]], [0])
    with pytest.raises(ConfigError, match="imputation"):
        standardize(cohort)


def test_standardize_constant_variable_maps_to_zero():
    series = [[[7.0, 7.0], [1.0, 2.0]], [[7.0, 7.0], [3.0, 4.0]]]
    cohort = make_cohort(series, [[0], [0]], [0, 1])
    z = standardize(impute_mean(cohort))
    assert np.all(z.series_stack()[:, 0, :] == 0.0)
    assert z.norm_stats.std[0] == 0.0
    assert z.norm_stats.std[1] > 0.0


def test_standardize_applies_train_stats_to_other_split():
    train = make_cohort([[[0.0, 2.0], [5.0, 5.0]]], [[0]], [0])
    train_z = standardize(impute_mean(train))
    stats = train_z.norm_stats
    other = make_cohort([[[4.0, 4.0], [9.0, 9.0]]], [[1]], [1])
    other_z = standardize(impute_mean(other, stats), stats)
    # (4 - 1) / 1 for heart_rate; temperature is constant in train -> 0
    assert np.allclose(other_z.patients[0].series[0], 3.0)
    assert np.all(other_z.patients[0].series[1] == 0.0)


def test_standardize_round_trip_stats_reuse_requires_std():
    stats = NormStats(SCHEMA2, np.zeros(2), std=None)
    cohort = make_cohort([[[1.0], [2.0]]], [[0]], [0])
    with pytest.raises(ConfigError, match="standard deviations"):
        standardize(cohort, stats)


# -------------------------------------------------------------------- split


def test_split_sizes_use_floor_of_cumulative_ratios():
    cohort = make_cohort([np.zeros((2, 1))] * 10, [[0]] * 10, [0] * 10)
    tr, va, te = split(cohort, (0.7, 0.15, 0.15), Rng(0))
    assert (len(tr), len(va), len(te)) == (7, 1, 2)


def test_split_is_a_partition():
    n = 23
    cohort = make_cohort([np.full((2, 1), i) for i in range(n)], [[0]] * n, [0] * n)
    tr, va, te = split(cohort, (0.5, 0.25, 0.25), Rng(9))
    ids = [p.patient_id for c in (tr, va, te) for p in c.patients]
    assert sorted(ids) == sorted(p.patient_id for p in cohort.patients)


def test_split_deterministic_given_stream():
    cohort = make_cohort([np.zeros((2, 1))] * 12, [[0]] * 12, [0] * 12)
    a = split(cohort, (0.7, 0.15, 0.15), Rng(4))
    b = split(cohort, (0.7, 0.15, 0.15), Rng(4))
    for ca, cb in zip(a, b):
        assert [p.patient_id for p in ca.patients] == [p.patient_id for p in cb.patients]


def test_split_validation():
    cohort = make_cohort([np.zeros((2, 1))] * 4, [[0]] * 4, [0] * 4)
    with pytest.raises(ConfigError):
        split(cohort, (0.5, 0.5, 0.5), Rng(0))
    with pytest.raises(ConfigError):
        split(cohort, (1.0, -0.5, 0.5), Rng(0))
    with pytest.raises(ConfigError, match="empty"):
        split(cohort, (0.9, 0.05, 0.05), Rng(0))


@given(st.integers(10, 200), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_partition_property(n, seed):
    cohort = make_cohort([np.zeros((2, 1))] * n, [[0]] * n, [0] * n)
    tr, va, te = split(cohort, (0.7, 0.15, 0.15), Rng(seed))
    assert len(tr) + len(va) + len(te) == n
    ids = {p.patient_id for c in (tr, va, te) for p in c.patients}
    assert len(ids) == n


# ------------------------------------------------------------------- filter


def test_code_carriers_partitions():
    cohort = make_cohort([np.zeros((2, 1))] * 3, [[1], [0], [1]], [1, 0, 0])
    carriers = code_carriers(cohort, "428.0")
    assert carriers.dtype == bool and carriers.shape == (3,)
    ids = np.array([p.patient_id for p in cohort.patients])
    assert list(ids[carriers]) == ["p0", "p2"]
    assert list(ids[~carriers]) == ["p1"]


def test_code_carriers_unknown_code_suggests():
    cohort = make_cohort([np.zeros((2, 1))], [[1]], [1])
    with pytest.raises(ConfigError, match="428.0"):
        code_carriers(cohort, "428.00")


# ------------------------------------------------------------------- cohort


def test_cohort_rejects_duplicate_ids():
    p = PatientRecord("a", np.zeros((2, 1)), np.zeros(1), 0)
    q = PatientRecord("a", np.zeros((2, 1)), np.zeros(1), 1)
    with pytest.raises(ConfigError, match="duplicate"):
        Cohort([p, q], SCHEMA2, ("428.0",))


def test_cohort_rejects_shape_mismatches():
    p = PatientRecord("a", np.zeros((3, 1)), np.zeros(1), 0)
    with pytest.raises(ConfigError):
        Cohort([p], SCHEMA2, ("428.0",))
    q = PatientRecord("b", np.zeros((2, 1)), np.zeros(2), 0)
    with pytest.raises(ConfigError):
        Cohort([q], SCHEMA2, ("428.0",))


def test_cohort_stacks():
    cohort = make_cohort([[[1.0], [2.0]], [[3.0], [4.0]]], [[1], [0]], [1, 0])
    assert cohort.series_stack().shape == (2, 2, 1)
    assert np.array_equal(cohort.codes_matrix(), [[1.0], [0.0]])
    assert np.array_equal(cohort.labels(), [1, 0])
