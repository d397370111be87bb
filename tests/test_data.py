"""Cohort loading, imputation, standardization, splitting."""

import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrc import data
from hgrc.data import (DEFAULT_SCHEMA, VALID_WINDOWS, Cohort, NormStats, code_carriers,
                       impute_mean, load_cohort, split, standardize)
from hgrc.errors import ConfigError, ParseError
from hgrc.numeric import Rng
from hgrc.synthetic import SyntheticSpec, gen_synthetic, write_cohort_files

SCHEMA2 = ("heart_rate", "temperature")


def write_files(tmp_path, patients: str, vitals: str):
    p = tmp_path / "patients.csv"
    v = tmp_path / "vitals.csv"
    p.write_text(patients)
    v.write_text(vitals)
    return p, v


def make_cohort(series_list, icd_list, labels, schema=SCHEMA2, vocab=("428.0",)):
    ids = [f"p{i}" for i in range(len(labels))]
    return Cohort(ids, np.array(series_list, dtype=float), np.array(icd_list, dtype=float),
                  labels, schema, vocab)


# ------------------------------------------------- row-by-row loader (oracle)


def _read_rows(path, expected_header: list[str]):
    """Yield (line_number, row) for a CSV file, validating the header."""
    with open(path, newline="", encoding="utf-8") as fh:
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


def load_cohort_rows(patients_path, vitals_path, window_hours: int,
                     schema: tuple[str, ...] = DEFAULT_SCHEMA) -> Cohort:
    """The row-by-row loader that load_cohort replaced: the bit-for-bit oracle.

    It agrees with load_cohort on files without quotes, NUL bytes or a lone
    carriage return, which load_cohort rejects and csv.reader accepts.
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
        if hour < 0:
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
        if hour < t:  # a row past the window is checked, then dropped
            series[row_of[pid], var_index[variable], hour] = value

    icd = np.zeros((n, len(code_vocab)))
    for i in range(n):
        for c in code_sets[i]:
            icd[i, code_pos[c]] = 1.0
    return Cohort(ids, series, icd, labels, schema, code_vocab)


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
    assert list(cohort.patient_ids) == ["a", "b"]
    assert cohort.series.shape == (2, 2, 24)
    assert cohort.series[0, 0, 0] == 88.5
    assert cohort.series[0, 1, 23] == 37.2
    assert np.isnan(cohort.series[0, 0, 1])
    assert np.array_equal(cohort.icd, [[1.0, 1.0], [0.0, 0.0]])
    assert cohort.y.dtype == np.int64 and list(cohort.y) == [1, 0]


def test_load_cohort_last_measurement_in_an_hour_wins(tmp_path):
    p, v = write_files(
        tmp_path,
        "patient_id,label,icd_codes\na,0,\n",
        "patient_id,hour,variable,value\n"
        "a,3,heart_rate,70\n"
        "a,3,heart_rate,75\n",
    )
    cohort = load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert cohort.series[0, 0, 3] == 75.0


def test_load_cohort_window_validation(tmp_path):
    p, v = write_files(tmp_path, "patient_id,label,icd_codes\na,0,\n",
                       "patient_id,hour,variable,value\n")
    with pytest.raises(ConfigError):
        load_cohort(p, v, window_hours=36, schema=SCHEMA2)
    # hour 24 is past a 24h window: checked, then dropped
    v.write_text("patient_id,hour,variable,value\na,24,heart_rate,70\na,23,heart_rate,71\n")
    cohort = load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert cohort.series.shape == (1, 2, 24)
    assert cohort.series[0, 0, 23] == 71.0 and np.isnan(cohort.series[0, 0, :23]).all()
    v.write_text("patient_id,hour,variable,value\na,24,blood_type,70\n")
    with pytest.raises(ParseError, match="unknown variable"):
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    # a negative hour is before every window
    v.write_text("patient_id,hour,variable,value\na,0,heart_rate,70\na,-1,heart_rate,70\n")
    with pytest.raises(ParseError, match=r"vitals\.csv:3: hour -1 outside window \[0, 24\)"):
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)


@pytest.mark.parametrize("block_bytes", [512, 1 << 12, 1 << 20])
def test_a_24_hour_load_reads_the_first_24_hours_of_a_48_hour_file(tmp_path, monkeypatch,
                                                                   block_bytes):
    # at 512 bytes some blocks hold past-window rows only
    spec = SyntheticSpec(n_patients=30)
    write_cohort_files(gen_synthetic(spec, Rng(3)), tmp_path, spec, 3)
    p, v = tmp_path / "patients.csv", tmp_path / "vitals.csv"
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    full = load_cohort(p, v, window_hours=48)
    day = load_cohort(p, v, window_hours=24)
    assert day.series.shape == (30, len(DEFAULT_SCHEMA), 24)
    assert_same_cohort(day, replace(full, series=full.series[:, :, :24]))


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
    assert cohort.series[0, 0, 0] == 70.0


def test_load_cohort_rejects_a_repeated_schema_name(tmp_path):
    p, v = write_files(tmp_path, "patient_id,label,icd_codes\na,0,\n",
                       "patient_id,hour,variable,value\n")
    with pytest.raises(ConfigError, match="heart_rate"):
        load_cohort(p, v, window_hours=24, schema=("heart_rate", "heart_rate"))


@pytest.mark.parametrize("which", ["patients", "vitals"])
@pytest.mark.parametrize("line,fragment", [
    (b"a,0,heart_rate,7\xff0\n", "UTF-8"),
    (b"a,0,heart_rate,\xc3\n", "UTF-8"),
    (b"a,0,heart_rate,7\x000\n", "NUL"),
    (b'"a",0,heart_rate,70\n', "quoted"),
    (b"a,0,heart_rate,70\ra,1,heart_rate,71\n", "carriage return"),
])
def test_load_cohort_rejects_what_is_not_plain_utf8_lines(tmp_path, which, line, fragment):
    patients = b"patient_id,label,icd_codes\na,0,\n"
    vitals = b"patient_id,hour,variable,value\na,0,heart_rate,70\n"
    if which == "patients":
        patients += line.replace(b"a,0,heart_rate,", b"b,0,")
    else:
        vitals += line
    p, v = tmp_path / "patients.csv", tmp_path / "vitals.csv"
    p.write_bytes(patients)
    v.write_bytes(vitals)
    with pytest.raises(ParseError, match=fragment) as exc:
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    path = p if which == "patients" else v
    assert str(exc.value).startswith(f"{path}:3:")


def test_load_cohort_rejects_a_non_utf8_header(tmp_path):
    p, v = write_files(tmp_path, "patient_id,label,icd_codes\na,0,\n", "")
    v.write_bytes(b"patient_id,hour,variable,valu\xe9\n")
    with pytest.raises(ParseError, match="UTF-8") as exc:
        load_cohort(p, v, window_hours=24, schema=SCHEMA2)
    assert str(exc.value).startswith(f"{v}:1:")


# Text forms that int() and float() accept for the same number.
HOUR_FORMS = ("{}", " {}", "+{}", "0{}", "{} ")
VALUE_FORMS = ("{!r}", " {!r}", "{!r}\t", "+{!r}")


@st.composite
def cohort_files(draw):
    """Valid patients.csv and vitals.csv bytes, in the forms a loader must accept."""
    ids = draw(st.lists(st.text("abcxyz_0159é", min_size=1, max_size=4),
                        min_size=1, max_size=4, unique=True))
    codes = st.lists(st.sampled_from(["428.0", " 250.00", "V45.81 ", "E11"]), max_size=3)
    patients = [f"{pid},{draw(st.sampled_from('01'))},{';'.join(draw(codes))}" for pid in ids]
    cells = st.tuples(st.sampled_from(ids), st.sampled_from([0, 1, 7, 23, 24, 47, 10 ** 12]),
                      st.sampled_from(SCHEMA2),
                      st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-300, 300))
    vitals = []
    for pid, hour, name, value in draw(st.lists(cells, max_size=30)):
        hour_s = draw(st.sampled_from(HOUR_FORMS)).format(hour)
        value_s = draw(st.sampled_from(VALUE_FORMS)).format(value)
        vitals.append(f"{pid},{hour_s},{name},{value_s.replace('+-', '-')}")

    def text(header, lines):
        out = [header]
        for line in lines:
            out += [""] * draw(st.integers(0, 1)) + [line]
        body = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out)
        if out[-1] and draw(st.booleans()):  # no final newline
            body = body.rstrip("\r\n")
        return body.encode("utf-8")

    return (text("patient_id,label,icd_codes", patients),
            text("patient_id,hour,variable,value", vitals))


def assert_same_cohort(got, want):
    assert list(got.patient_ids) == list(want.patient_ids)
    assert np.array_equal(got.y, want.y)
    assert got.code_vocab == want.code_vocab and got.schema == want.schema
    assert np.array_equal(got.icd, want.icd)
    # int64 views compare NaN cells and signed zeros bit for bit
    assert np.array_equal(got.series.view(np.int64), want.series.view(np.int64))


def load_both(root, patients: bytes, vitals: bytes, block_bytes: int, schema=SCHEMA2):
    """(load_cohort result or error text, oracle result or error text)."""
    p, v = root / "patients.csv", root / "vitals.csv"
    p.write_bytes(patients)
    v.write_bytes(vitals)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK_BYTES", block_bytes)
        for loader in (load_cohort, load_cohort_rows):
            try:
                results.append(loader(p, v, window_hours=24, schema=schema))
            except ParseError as exc:
                results.append(str(exc))
    return results


@given(cohort_files(), st.integers(16, 90) | st.just(1 << 20))
@settings(max_examples=150, deadline=None)
def test_load_cohort_equals_the_row_loader(tmp_path_factory, files, block_bytes):
    got, want = load_both(tmp_path_factory.mktemp("csv"), *files, block_bytes)
    assert not isinstance(want, str), want
    assert_same_cohort(got, want)


VALID_VITALS = ["a,0,heart_rate,70", "b,1,temperature,37.5", "a,2,heart_rate,71",
                "b,3,heart_rate,60", "a,4,temperature,36.9", "b,5,temperature,37.1"]
# Defects in the row loader's order of checks, and two lines that it accepts.
DEFECTS = [
    "a,0,heart_rate",                  # columns
    "a,0,heart_rate,70,1",             # columns
    "zz,0,heart_rate,70",              # unknown patient_id
    "a ,0,heart_rate,70",              # unknown patient_id
    "a,x,heart_rate,70",               # hour must be an integer
    "a,,heart_rate,70",                # hour must be an integer
    "a,1_0,heart_rate,70",             # valid: int() reads 10
    "a,24,heart_rate,70",              # valid: past the window, dropped
    "a,-1,heart_rate,70",              # hour outside window
    "a,-123456789012345678901234567890,heart_rate,70",  # outside, printed in full
    "a,123456789012345678901234567890,heart_rate,70",   # valid: past the window
    "a,0,blood_type,70",               # unknown variable
    "a,0,heart_rate,abc",              # value must be a decimal
    "a,0,heart_rate,",                 # value must be a decimal
    "a,0,heart_rate,1_0.5",            # valid: float() reads 10.5
    "a,0,heart_rate,٧٠",               # valid: float() reads Arabic-Indic digits
    "a,0,heart_rate,inf",              # value must be finite
    "a,0,heart_rate,-nan",             # value must be finite
    "a,0,heart_rate,1e999",            # value must be finite
    "zz,x,blood_type,abc",             # fails every check; the first one names it
    "a,x,blood_type,abc",
    "a,99,blood_type,inf",
    "a,0,blood_type,inf",
]


def vitals_with(defects: dict[int, str]) -> bytes:
    lines = list(VALID_VITALS)
    for at, line in defects.items():
        lines[at] = line
    return ("patient_id,hour,variable,value\n" + "\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("block_bytes", [40, 1 << 20])
@pytest.mark.parametrize("defect", DEFECTS)
def test_a_defect_raises_the_row_loaders_error(tmp_path, defect, block_bytes):
    patients = b"patient_id,label,icd_codes\na,0,\nb,1,\n"
    got, want = load_both(tmp_path, patients, vitals_with({2: defect}), block_bytes)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_cohort(got, want)


@given(st.sampled_from(DEFECTS), st.sampled_from(DEFECTS),
       st.lists(st.integers(0, len(VALID_VITALS) - 1), min_size=2, max_size=2, unique=True),
       st.sampled_from([40, 100, 1 << 20]))
@settings(max_examples=60, deadline=None)
def test_two_defects_raise_the_first_in_file_order(tmp_path_factory, first, second, at,
                                                   block_bytes):
    # with one block for the whole file the later line may fail a check that
    # the row loader makes before the earlier line's failing one
    patients = b"patient_id,label,icd_codes\na,0,\nb,1,\n"
    got, want = load_both(tmp_path_factory.mktemp("csv"), patients,
                          vitals_with({at[0]: first, at[1]: second}), block_bytes)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_cohort(got, want)


def test_patient_file_defects_raise_the_row_loaders_error(tmp_path):
    vitals = b"patient_id,hour,variable,value\na,0,heart_rate,70\n"
    for patients in (b"", b"\n", b"patient_id,label\n", b"patient_id,label,icd_codes,x\n",
                     b"patient_id,label,icd_codes\na,0,\nb,2,\n",
                     b"patient_id,label,icd_codes\na,0,\n,1,\n",
                     b"patient_id,label,icd_codes\na,0,\n\na,1,\n",
                     b"patient_id,label,icd_codes\na,0\n"):
        got, want = load_both(tmp_path, patients, vitals, 1 << 20)
        assert isinstance(want, str) and got == want


def test_load_cohort_memory_is_bounded_by_its_blocks(tmp_path, monkeypatch):
    n, t = 120, 48
    rng = np.random.default_rng(0)
    ids = [f"p{i:04d}" for i in range(n)]
    rows = [f"{pid},{h},{name},{rng.normal()!r}\n" for pid in ids for name in DEFAULT_SCHEMA
            for h in range(t)]
    p, v = write_files(tmp_path, "patient_id,label,icd_codes\n"
                       + "".join(f"{pid},0,\n" for pid in ids),
                       "patient_id,hour,variable,value\n" + "".join(rows))
    block = 1 << 16
    monkeypatch.setattr(data, "_BLOCK_BYTES", block)
    series_bytes = n * len(DEFAULT_SCHEMA) * t * 8
    assert v.stat().st_size > 40 * block
    tracemalloc.start()
    try:
        cohort = load_cohort(p, v, window_hours=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cohort.series.shape == (n, len(DEFAULT_SCHEMA), t)
    # about 9 blocks at the time of writing; the 3.5 MB file is 54 blocks
    assert peak < series_bytes + 16 * block, (peak, series_bytes)


# --------------------------------------------------------------- imputation


def test_impute_mean_uses_observed_cells_only():
    series = [
        [[1.0, np.nan], [10.0, 10.0]],
        [[3.0, np.nan], [np.nan, 30.0]],
    ]
    cohort = make_cohort(series, [[0], [0]], [0, 0])
    filled = impute_mean(cohort)
    # heart_rate observed cells: 1, 3 -> mean 2
    assert filled.series[0, 0, 1] == 2.0
    assert filled.series[1, 0, 1] == 2.0
    # temperature observed: 10, 10, 30
    assert np.isclose(filled.series[1, 1, 0], 50.0 / 3.0)
    assert filled.norm_stats.mean[0] == 2.0
    assert not np.isnan(filled.series).any()


def test_impute_mean_all_absent_variable_warns_and_zeros():
    series = [[[np.nan, np.nan], [1.0, 2.0]]]
    cohort = make_cohort(series, [[0]], [0])
    filled = impute_mean(cohort)
    assert filled.series[0, 0, 0] == 0.0
    assert any("heart_rate" in w for w in filled.norm_stats.warnings)


def test_impute_mean_reuses_supplied_stats():
    stats = NormStats(SCHEMA2, np.array([100.0, 37.0]))
    cohort = make_cohort([[[np.nan, 2.0], [np.nan, np.nan]]], [[1]], [1])
    filled = impute_mean(cohort, stats)
    assert filled.series[0, 0, 0] == 100.0
    assert filled.series[0, 1, 1] == 37.0
    # original cohort untouched
    assert np.isnan(cohort.series[0, 0, 0])


def test_impute_mean_schema_mismatch():
    stats = NormStats(("other",), np.array([1.0]))
    cohort = make_cohort([[[1.0], [2.0]]], [[0]], [0])
    with pytest.raises(ConfigError):
        impute_mean(cohort, stats)


def test_impute_and_standardize_equal_the_per_patient_transforms():
    rng = Rng(3)
    series = []
    for _ in range(7):
        s = rng.normal(loc=4.0, scale=2.0, size=(2, 5))
        s[rng.normal(size=(2, 5)) > 0.5] = np.nan
        series.append(s)
    series[0][1, :] = 9.0
    cohort = make_cohort(series, [[0]] * 7, [0] * 7)
    stats = standardize(impute_mean(cohort)).norm_stats
    stats = NormStats(SCHEMA2, stats.mean, np.array([stats.std[0], 0.0]))
    got = standardize(impute_mean(cohort, stats), stats)
    safe = np.where(stats.std > 0.0, stats.std, 1.0)[:, None]
    for before, after in zip(cohort.series, got.series):
        filled = np.where(np.isnan(before), stats.mean[:, None], before)
        want = np.where((stats.std == 0.0)[:, None], 0.0,
                        (filled - stats.mean[:, None]) / safe)
        assert np.array_equal(after.view(np.int64), want.view(np.int64))
    assert np.isnan(cohort.series[0]).any()  # input untouched


# ----------------------------------------------------------- standardization


def test_standardize_zero_mean_unit_std():
    rng = Rng(0)
    series = [rng.normal(loc=5.0, scale=3.0, size=(2, 40)) for _ in range(8)]
    cohort = make_cohort(series, [[0]] * 8, [0] * 8)
    z = standardize(impute_mean(cohort))
    assert np.allclose(z.series.mean(axis=(0, 2)), 0.0, atol=1e-12)
    assert np.allclose(z.series.std(axis=(0, 2)), 1.0, atol=1e-12)


def test_standardize_requires_imputation():
    cohort = make_cohort([[[np.nan, 1.0], [2.0, 3.0]]], [[0]], [0])
    with pytest.raises(ConfigError, match="imputation"):
        standardize(cohort)


def test_standardize_constant_variable_maps_to_zero():
    series = [[[7.0, 7.0], [1.0, 2.0]], [[7.0, 7.0], [3.0, 4.0]]]
    cohort = make_cohort(series, [[0], [0]], [0, 1])
    z = standardize(impute_mean(cohort))
    assert np.all(z.series[:, 0, :] == 0.0)
    assert z.norm_stats.std[0] == 0.0
    assert z.norm_stats.std[1] > 0.0


def test_standardize_applies_train_stats_to_other_split():
    train = make_cohort([[[0.0, 2.0], [5.0, 5.0]]], [[0]], [0])
    train_z = standardize(impute_mean(train))
    stats = train_z.norm_stats
    other = make_cohort([[[4.0, 4.0], [9.0, 9.0]]], [[1]], [1])
    other_z = standardize(impute_mean(other, stats), stats)
    # (4 - 1) / 1 for heart_rate; temperature is constant in train -> 0
    assert np.allclose(other_z.series[0, 0], 3.0)
    assert np.all(other_z.series[0, 1] == 0.0)


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
    cohort = make_cohort([np.full((2, 1), i) for i in range(n)], [[i % 2] for i in range(n)],
                         [i % 3 == 0 for i in range(n)])
    pieces = split(cohort, (0.5, 0.25, 0.25), Rng(9))
    ids = [pid for c in pieces for pid in c.patient_ids]
    assert sorted(ids) == sorted(cohort.patient_ids)
    # every column of a piece keeps its rows together
    for piece in pieces:
        rows = [int(pid[1:]) for pid in piece.patient_ids]
        assert np.array_equal(piece.series, cohort.series[rows])
        assert np.array_equal(piece.icd, cohort.icd[rows])
        assert np.array_equal(piece.y, cohort.y[rows])


def test_split_deterministic_given_stream():
    cohort = make_cohort([np.zeros((2, 1))] * 12, [[0]] * 12, [0] * 12)
    a = split(cohort, (0.7, 0.15, 0.15), Rng(4))
    b = split(cohort, (0.7, 0.15, 0.15), Rng(4))
    for ca, cb in zip(a, b):
        assert list(ca.patient_ids) == list(cb.patient_ids)


def test_split_validation():
    cohort = make_cohort([np.zeros((2, 1))] * 4, [[0]] * 4, [0] * 4)
    with pytest.raises(ConfigError):
        split(cohort, (0.5, 0.5, 0.5), Rng(0))
    with pytest.raises(ConfigError):
        split(cohort, (1.0, -0.5, 0.5), Rng(0))
    # NaN fails every comparison, so neither the sign nor the sum check sees it
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            split(cohort, (0.7, 0.15, bad), Rng(0))
    with pytest.raises(ConfigError, match="empty"):
        split(cohort, (0.9, 0.05, 0.05), Rng(0))


@given(st.integers(10, 200), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_partition_property(n, seed):
    cohort = make_cohort([np.zeros((2, 1))] * n, [[0]] * n, [0] * n)
    tr, va, te = split(cohort, (0.7, 0.15, 0.15), Rng(seed))
    assert len(tr) + len(va) + len(te) == n
    ids = {pid for c in (tr, va, te) for pid in c.patient_ids}
    assert len(ids) == n


# ------------------------------------------------------------------- filter


def test_code_carriers_partitions():
    cohort = make_cohort([np.zeros((2, 1))] * 3, [[1], [0], [1]], [1, 0, 0])
    carriers = code_carriers(cohort, "428.0")
    assert carriers.dtype == bool and carriers.shape == (3,)
    assert list(cohort.patient_ids[carriers]) == ["p0", "p2"]
    assert list(cohort.patient_ids[~carriers]) == ["p1"]


def test_code_carriers_unknown_code_suggests():
    cohort = make_cohort([np.zeros((2, 1))], [[1]], [1])
    with pytest.raises(ConfigError, match="428.0"):
        code_carriers(cohort, "428.00")


# ------------------------------------------------------------------- cohort


def cohort_columns(n=2, labels=None):
    """Keyword arguments for a valid Cohort of n patients over 2 variables and 1 code."""
    return dict(patient_ids=[f"p{i}" for i in range(n)], series=np.zeros((n, 2, 3)),
                icd=np.zeros((n, 1)), y=[0] * n if labels is None else labels,
                schema=SCHEMA2, code_vocab=("428.0",))


def test_cohort_rejects_duplicate_ids():
    with pytest.raises(ConfigError, match="duplicate"):
        Cohort(**{**cohort_columns(), "patient_ids": ["a", "a"]})


def test_cohort_rejects_shape_mismatches():
    cases = [
        # the columns disagree on N
        ("patient_ids", ["p0", "p1", "p2"], "number of patients"),
        ("series", np.zeros((3, 2, 3)), "number of patients"),
        ("icd", np.zeros((1, 1)), "number of patients"),
        ("y", [0, 1, 1], "number of patients"),
        # widths that disagree with the schema and the vocabulary
        ("series", np.zeros((2, 3, 3)), "schema has 2"),
        ("icd", np.zeros((2, 2)), "vocabulary has 1"),
        # patients with a 48- and a 24-hour series make no (N, M, T) array
        ("series", [np.zeros((2, 48)), np.zeros((2, 24))], "rectangular"),
        ("series", np.zeros((2, 2)), "3 axes"),
        ("icd", np.zeros(2), "2 axes"),
        ("y", [[0], [1]], "1 axes"),
    ]
    for column, value, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            Cohort(**{**cohort_columns(), column: value})


@pytest.mark.parametrize("labels", [[0, 7], [0, -1], [0.5, 1], [True, 2], ["0", "1"]])
def test_cohort_rejects_labels_that_are_not_0_or_1(labels):
    with pytest.raises(ConfigError, match="0 or 1"):
        Cohort(**cohort_columns(labels=labels))


def test_cohort_columns_are_c_contiguous_arrays_of_their_dtype():
    fortran = np.asfortranarray(np.arange(12.0).reshape(2, 2, 3))
    cohort = Cohort(**{**cohort_columns(labels=[True, False]), "series": fortran,
                       "icd": [[1], [0]], "patient_ids": ("a", "b")})
    assert cohort.series.flags.c_contiguous and np.array_equal(cohort.series, fortran)
    assert cohort.icd.dtype == np.float64 and cohort.y.dtype == np.int64
    assert list(cohort.y) == [1, 0] and list(cohort.patient_ids) == ["a", "b"]
    empty = Cohort(**cohort_columns(n=0))
    assert len(empty) == 0 and empty.series.shape == (0, 2, 3) and empty.patients == []


def test_cohort_patients_are_row_views_of_its_columns():
    cohort = make_cohort([[[1.0], [2.0]], [[3.0], [4.0]]], [[1], [0]], [1, 0])
    assert cohort.series.shape == (2, 2, 1)
    assert np.array_equal(cohort.icd, [[1.0], [0.0]])
    assert np.array_equal(cohort.labels(), [1, 0])
    records = cohort.patients
    assert [(p.patient_id, p.label) for p in records] == [("p0", 1), ("p1", 0)]
    assert all(type(p.patient_id) is str and type(p.label) is int for p in records)
    for i, p in enumerate(records):
        assert np.shares_memory(p.series, cohort.series) and p.series.shape == (2, 1)
        assert np.array_equal(p.series, cohort.series[i])
        assert np.array_equal(p.icd, cohort.icd[i])
