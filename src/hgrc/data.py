"""Cohort data model: loading, validation, imputation, standardization, splits.

A cohort holds its patients as columns: patient ids, one (N, M, T) array of
hourly vital signs (variables x hours, NaN marks an absent measurement), one
(N, g) binary diagnosis-code matrix over the cohort's code vocabulary, and
an (N,) binary in-hospital mortality label vector.  Row i of each column is
patient i.

Every column is C-contiguous, so reductions over it sum in one fixed order.
Transforms return new cohorts with new arrays and never write into their
input's.  Imputation and standardization statistics are computed on the
training split only and reused verbatim on validation and test data.
"""

from __future__ import annotations

import codecs
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


def _column(name: str, value, dtype, ndim: int) -> Array:
    """``value`` as a C-contiguous ``dtype`` array of ``ndim`` axes."""
    try:
        array = np.ascontiguousarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cohort {name} is not a rectangular array: {exc}") from None
    if array.ndim != ndim:
        raise ConfigError(f"cohort {name} must have {ndim} axes, got shape {array.shape}")
    return array


@dataclass(eq=False)
class Cohort:
    """Patients as columns sharing one variable schema and one code vocabulary.

    ``patient_ids`` (N,) str, ``series`` (N, M, T) float64, ``icd`` (N, g)
    float64 and ``y`` (N,) int64 labels; M = len(schema), g =
    len(code_vocab).  Construction makes each column a C-contiguous array of
    its dtype, copying only an input that is not one already.
    """

    patient_ids: Array
    series: Array
    icd: Array
    y: Array
    schema: tuple[str, ...]
    code_vocab: tuple[str, ...]
    norm_stats: NormStats | None = None

    def __post_init__(self):
        self.patient_ids = _column("patient_ids", self.patient_ids, str, 1)
        self.series = _column("series", self.series, np.float64, 3)
        self.icd = _column("icd", self.icd, np.float64, 2)
        labels = _column("labels", self.y, None, 1)
        binary = np.isin(labels, (0, 1))
        if not binary.all():
            raise ConfigError(f"cohort labels must be 0 or 1, got {labels[~binary][0].item()!r}")
        self.y = labels.astype(np.int64, copy=False)
        n, m, g = len(self.patient_ids), len(self.schema), len(self.code_vocab)
        if (len(self.series), len(self.icd), len(self.y)) != (n, n, n):
            raise ConfigError(f"cohort columns disagree on the number of patients: {n} ids, "
                              f"series {self.series.shape}, icd {self.icd.shape}, labels {self.y.shape}")
        if self.series.shape[1] != m:
            raise ConfigError(f"series has {self.series.shape[1]} variables, schema has {m}")
        if self.icd.shape[1] != g:
            raise ConfigError(f"icd matrix has {self.icd.shape[1]} codes, vocabulary has {g}")
        if len(np.unique(self.patient_ids)) != n:
            raise ConfigError("cohort has duplicate patient_ids")

    def __len__(self) -> int:
        return len(self.patient_ids)

    def labels(self) -> Array:
        """The label column ``y``."""
        return self.y

    @property
    def patients(self) -> list[PatientRecord]:
        """Each patient as a PatientRecord of row views, in cohort order."""
        return [PatientRecord(str(pid), self.series[i], self.icd[i], int(self.y[i]))
                for i, pid in enumerate(self.patient_ids)]


# ----------------------------------------------------------------- loading

# Bytes read at a time.  A block ends at its last newline and the rest of the
# read starts the next one, so a line longer than a block grows the block.
# The loader's memory beyond the series is about nine blocks; 2 MiB loads
# 2.2M rows as fast as 4 or 8 MiB on a 2-core Xeon.
_BLOCK_BYTES = 1 << 21
# Hour fields up to this many bytes of plain digits are parsed by numpy;
# any other hour field goes through int().
_HOUR_DIGITS = 9
# Value fields up to this many bytes are parsed by numpy's bytes-to-float64
# cast, which calls float() on each one; a block with a wider value field, or
# one the cast rejects, goes through float() per field.
_VALUE_WIDTH = 32

_NL, _CR, _COMMA = ord("\n"), ord("\r"), ord(",")

_PATIENTS_HEADER = ("patient_id", "label", "icd_codes")
_VITALS_HEADER = ("patient_id", "hour", "variable", "value")


@dataclass(eq=False)
class _Rows:
    """One block's data rows: field j of row i is buf[start[j, i]:end[j, i]]."""

    buf: Array
    start: Array
    end: Array
    line: Array

    def text(self, i: int, j: int) -> str:
        return self.buf[self.start[j, i]:self.end[j, i]].tobytes().decode("utf-8")


def _blocks(fh, pad: int):
    """Yield (buf, size): buf[:size] holds whole lines, the last ending in a
    newline (supplied when the file lacks one), and at least ``pad`` bytes
    follow them.  buf is reused, so a block is spent once the next is asked for.
    """
    buf = bytearray(_BLOCK_BYTES + pad)
    held = 0
    while True:
        if held == len(buf) - pad:
            buf = buf[:held] + bytearray(held + pad)
        got = fh.readinto(memoryview(buf)[held:len(buf) - pad])
        if not got:
            if held:
                buf[held] = _NL
                yield buf, held + 1
            return
        size = held + got
        cut = buf.rfind(b"\n", held, size) + 1
        if not cut:
            held = size
            continue
        yield buf, cut
        held = size - cut
        buf[:held] = buf[cut:size]


def _first_malformed(buf: bytes | bytearray, data: Array, nl: Array) -> tuple[int, str | None]:
    """(index, message) of the block's first line that is not plain UTF-8
    text, or (number of lines, None).  Checks on one line rank in order."""
    found = []
    if data.max() >= 0x80:
        try:
            codecs.utf_8_decode(data, "strict", True)
        except UnicodeDecodeError as exc:
            found.append((exc.start, f"not UTF-8 text ({exc.reason})"))
    for byte, message in ((b"\0", "NUL byte"), (b'"', "quoted fields are not supported")):
        pos = buf.find(byte, 0, len(data))
        if pos >= 0:
            found.append((pos, message))
    if buf.find(b"\r", 0, len(data)) >= 0:
        cr = np.flatnonzero(data == _CR)
        lone = cr[data[cr + 1] != _NL]
        if len(lone):
            found.append((lone[0], "carriage return not followed by a newline"))
    if not found:
        return len(nl), None
    lines = [int(np.searchsorted(nl, pos)) for pos, _ in found]
    k = int(np.argmin(lines))
    return lines[k], found[k][1]


def _split_block(block: bytearray, size: int, columns: int) -> tuple[_Rows, int, int, str | None]:
    """Split block[:size] into rows of ``columns`` fields.

    Returns the rows before the first malformed line, numbered from 0 at the
    block's first line; the number of lines; and that line's index and
    message, or None for a block without one.
    """
    buf = np.frombuffer(block, np.uint8)
    data = buf[:size]
    sep = np.flatnonzero((data == _COMMA) | (data == _NL))
    at_nl = np.flatnonzero(data[sep] == _NL)
    nl = sep[at_nl]
    start = np.concatenate([[0], nl[:-1] + 1])
    end = nl
    if block.find(b"\r", 0, size) >= 0:
        end = nl - ((nl > start) & (data[nl - 1] == _CR))
    bad, message = _first_malformed(block, data, nl)
    rows = np.flatnonzero(end[:bad] > start[:bad])
    commas = np.diff(at_nl, prepend=-1)[rows] - 1
    wrong = np.flatnonzero(commas != columns - 1)
    if len(wrong):
        bad = int(rows[wrong[0]])
        message = f"expected {columns} columns, got {commas[wrong[0]] + 1}"
        rows = rows[:wrong[0]]
    field_start = np.empty((columns, len(rows)), np.int64)
    field_end = np.empty_like(field_start)
    field_start[0] = start[rows]
    field_end[-1] = end[rows]
    first_comma = at_nl[rows] - (columns - 1)
    for j in range(columns - 1):
        field_end[j] = sep[first_comma + j]
        field_start[j + 1] = field_end[j] + 1
    return _Rows(buf, field_start, field_end, rows), len(nl), bad, message


def _read_rows(path, header: tuple[str, ...], pad: int = 0):
    """Yield the data rows of a CSV file as one _Rows per block.

    Lines end in ``\\n`` or ``\\r\\n``; blank lines are skipped.  A malformed
    line raises ParseError, but only after the rows before it in its block
    are yielded, so checks the caller makes on those rows come first in file
    order.  ``pad`` is the widest field the caller gathers with _gather.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line:
            raise ParseError("empty file, expected header " + ",".join(header),
                             path=path, line=1)
        if not line.endswith(b"\n"):
            line += b"\n"
        bad, message = _first_malformed(line, np.frombuffer(line, np.uint8),
                                        np.array([len(line) - 1]))
        if message is not None:
            raise ParseError(message, path=path, line=1)
        text = line.rstrip(b"\r\n").decode("utf-8")
        found = text.split(",") if text else []
        if found != list(header):
            raise ParseError(f"bad header {found!r}, expected {list(header)!r}",
                             path=path, line=1)
        first = 2  # file line number of the block's first line
        for block, size in _blocks(fh, pad):
            rows, lines, bad, message = _split_block(block, size, len(header))
            rows.line += first
            yield rows
            if message is not None:
                raise ParseError(message, path=path, line=first + bad)
            first += lines


def _gather(buf: Array, start: Array, length: Array, width: int) -> Array:
    """Fields buf[start[i]:start[i] + length[i]] as zero-padded ``S{width}`` keys."""
    windows = np.ndarray((len(buf) - width + 1,), f"S{width}", buf, strides=(1,))
    out = windows[start]
    keep = np.tri(width + 1, width, -1, dtype=np.uint8) * np.uint8(0xFF)
    np.bitwise_and(out.view(np.uint8).reshape(-1, width), keep[length],
                   out=out.view(np.uint8).reshape(-1, width))
    return out


def _key_table(names) -> tuple[Array, Array]:
    """Sorted fixed-width byte keys for ``names`` and each key's index in it."""
    encoded = [name.encode("utf-8", "surrogatepass") for name in names]
    # a field holds no NUL byte, and a fixed-width key would drop a trailing one
    usable = [i for i, key in enumerate(encoded) if b"\0" not in key]
    width = max([1] + [len(key) for key in encoded])
    keys = np.array([encoded[i] for i in usable], dtype=f"S{width}")
    order = np.argsort(keys, kind="stable")
    return keys[order], np.array(usable, dtype=np.int64)[order]


def _lookup(rows: _Rows, j: int, table: tuple[Array, Array]) -> Array:
    """Index of field j's key in the table's names per row; -1 for no match.

    A key is looked up only where it differs from the previous row's.
    """
    keys, index = table
    width = keys.dtype.itemsize
    start = rows.start[j]
    length = rows.end[j] - start
    if not len(keys):
        return np.full(len(start), -1)
    field = _gather(rows.buf, start, np.minimum(length, width), width)
    new = np.ones(len(field), bool)
    np.not_equal(field[1:], field[:-1], out=new[1:])
    distinct = field[new]
    pos = np.minimum(np.searchsorted(keys, distinct), len(keys) - 1)
    found = np.where(keys[pos] == distinct, index[pos], -1)[np.cumsum(new) - 1]
    found[length > width] = -1
    return found


def _hours(rows: _Rows) -> tuple[Array, Array]:
    """(hour, parsed) per row, as int() reads the hour field.

    Plain digit fields are read from their bytes.  hour is -1 where int()
    gives a negative number, and 10**9 where it gives one that does not fit
    in 9 digits: past any window.
    """
    start = rows.start[1]
    length = rows.end[1] - start
    width = int(min(length.max(initial=1), _HOUR_DIGITS))
    digits = _gather(rows.buf, start, np.minimum(length, width), width)
    digits = digits.view(np.uint8).reshape(-1, width)
    is_digit = (digits >= ord("0")) & (digits <= ord("9"))
    parsed = (length > 0) & (is_digit.sum(axis=1) == length)
    hour = np.zeros(len(start), np.int64)
    for k in range(width):
        hour = np.where(k < length, hour * 10 + digits[:, k] - ord("0"), hour)
    for i in np.flatnonzero(~parsed):
        try:
            value = int(rows.text(i, 1))
        except ValueError:
            continue
        parsed[i] = True
        hour[i] = min(value, 10 ** _HOUR_DIGITS) if value >= 0 else -1
    return hour, parsed


def _values(rows: _Rows) -> tuple[Array, Array]:
    """(value, parsed) per row, as float() reads the value field."""
    start = rows.start[3]
    length = rows.end[3] - start
    width = int(length.max(initial=1))
    if width <= _VALUE_WIDTH:
        field = _gather(rows.buf, start, length, width)
        try:
            return field.astype(np.float64), np.ones(len(start), bool)
        except ValueError:
            pass
    value = np.full(len(start), np.nan)
    parsed = np.ones(len(start), bool)
    for i in range(len(start)):
        try:
            value[i] = float(rows.text(i, 3))
        except ValueError:
            parsed[i] = False
    return value, parsed


def _read_patients(path) -> tuple[list[str], list[int], list[set[str]]]:
    ids: list[str] = []
    labels: list[int] = []
    code_sets: list[set[str]] = []
    seen: dict[str, int] = {}
    for rows in _read_rows(path, _PATIENTS_HEADER):
        for i, lineno in enumerate(rows.line.tolist()):
            pid, label_s, codes_s = (rows.text(i, j) for j in range(3))
            if not pid:
                raise ParseError("empty patient_id", path=path, line=lineno)
            if pid in seen:
                raise ParseError(f"duplicate patient_id {pid!r} (first at line {seen[pid]})",
                                 path=path, line=lineno)
            if label_s not in ("0", "1"):
                raise ParseError(f"label must be 0 or 1, got {label_s!r}", path=path, line=lineno)
            seen[pid] = lineno
            ids.append(pid)
            labels.append(int(label_s))
            code_sets.append({c.strip() for c in codes_s.split(";") if c.strip()})
    return ids, labels, code_sets


def _read_series(path, ids: list[str], schema: tuple[str, ...], t: int) -> Array:
    """The (N, M, T) series of ``vitals.csv``; the last row of a cell wins."""
    patient_keys, variable_keys = _key_table(ids), _key_table(schema)
    pad = max(patient_keys[0].dtype.itemsize, variable_keys[0].dtype.itemsize,
              _HOUR_DIGITS, _VALUE_WIDTH)
    m = len(schema)
    series = np.full((len(ids), m, t), np.nan)
    cells = series.reshape(-1)
    for rows in _read_rows(path, _VITALS_HEADER, pad):
        if not len(rows.line):
            continue
        patient = _lookup(rows, 0, patient_keys)
        hour, hour_parsed = _hours(rows)
        variable = _lookup(rows, 2, variable_keys)
        value, value_parsed = _values(rows)
        finite = np.isfinite(value)
        bad = (patient < 0) | ~hour_parsed | (hour < 0) | (variable < 0) | ~finite
        if bad.any():
            i = int(np.argmax(bad))
            pid, hour_s, name, value_s = (rows.text(i, j) for j in range(4))
            if patient[i] < 0:
                message = f"unknown patient_id {pid!r}"
            elif not hour_parsed[i]:
                message = f"hour must be an integer, got {hour_s!r}"
            elif hour[i] < 0:
                message = f"hour {int(hour_s)} outside window [0, {t})"
            elif variable[i] < 0:
                message = f"unknown variable {name!r}"
            elif not value_parsed[i]:
                message = f"value must be a decimal, got {value_s!r}"
            else:
                message = f"value must be finite, got {value_s!r}"
            raise ParseError(message, path=path, line=int(rows.line[i]))
        past = hour >= t
        if past.any():
            keep = ~past
            patient, variable, hour, value = patient[keep], variable[keep], hour[keep], value[keep]
        flat = (patient * m + variable) * t + hour
        if np.any(flat[1:] <= flat[:-1]):
            # numpy leaves the winner among repeated indices undefined, so
            # keep each cell's last row in file order explicitly
            last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
            flat, value = flat[last], value[last]
        cells[flat] = value
    return series


def load_cohort(patients_path, vitals_path, window_hours: int,
                schema: tuple[str, ...] = DEFAULT_SCHEMA) -> Cohort:
    """Load a cohort from the two-file CSV format.

    patients csv: ``patient_id,label,icd_codes`` with semicolon-separated
    codes (possibly empty).  vitals csv: ``patient_id,hour,variable,value``
    with hour a non-negative integer and variable drawn from ``schema``.  A
    row at or past the window is checked like any other and then dropped, as
    it lies outside what the model observes, so a 24-hour load of a 48-hour
    file reads its first 24 hours.  When an hour bin receives several
    measurements the last row in file order wins.  Both files are UTF-8 with
    lines ending in ``\\n`` or ``\\r\\n``; blank lines are skipped, and
    fields are never quoted.

    vitals.csv is parsed in blocks of whole lines with numpy, so memory
    beyond the series stays near a few blocks; hours and values read exactly
    as int() and float() read them.  Malformed content raises ParseError
    naming the file and its first bad line in file order, with the message a
    row-by-row reader checking each line in turn would give.  A schema that
    repeats a name raises ConfigError.
    """
    if window_hours not in VALID_WINDOWS:
        raise ConfigError(f"window_hours must be one of {VALID_WINDOWS}, got {window_hours}")
    schema = tuple(schema)
    repeated = sorted({name for name in schema if schema.count(name) > 1})
    if repeated:
        raise ConfigError(f"schema repeats variable names {repeated}")

    ids, labels, code_sets = _read_patients(patients_path)
    code_vocab = tuple(sorted(set().union(*code_sets))) if code_sets else ()
    code_pos = {c: j for j, c in enumerate(code_vocab)}
    icd = np.zeros((len(ids), len(code_vocab)))
    rows = [i for i, codes in enumerate(code_sets) for _ in codes]
    icd[rows, [code_pos[c] for codes in code_sets for c in codes]] = 1.0
    series = _read_series(vitals_path, ids, schema, window_hours)
    return Cohort(ids, series, icd, labels, schema, code_vocab)


# ------------------------------------------- imputation and standardization


def _observed_means(stack: Array, schema: tuple[str, ...]) -> tuple[Array, tuple[str, ...]]:
    """Per-variable mean over observed cells; all-absent variables mean 0."""
    observed = ~np.isnan(stack)
    counts = observed.sum(axis=(0, 2))
    sums = np.where(observed, stack, 0.0).sum(axis=(0, 2))
    warnings = tuple(
        f"variable {name!r} has no observed values; imputing 0"
        for name, c in zip(schema, counts) if c == 0)
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
        mean, warnings = _observed_means(cohort.series, cohort.schema)
        stats = NormStats(cohort.schema, mean, std=None, warnings=warnings)
    elif stats.schema != cohort.schema:
        raise ConfigError(f"norm stats schema {stats.schema} does not match cohort {cohort.schema}")
    filled = cohort.series.copy()
    np.copyto(filled, stats.mean[:, None], where=np.isnan(filled))
    return replace(cohort, series=filled, norm_stats=stats)


def standardize(cohort: Cohort, stats: NormStats | None = None) -> Cohort:
    """Per-variable z-score; zero-variance variables map to 0.

    Requires imputation first (no absent cells).  Without ``stats`` the
    standard deviation is computed on this cohort around its recorded
    imputation means (or fresh means when none are recorded) and stored in
    the result's norm_stats for reuse on other splits.
    """
    series = cohort.series
    if np.isnan(series).any():
        raise ConfigError("standardize requires imputation first (absent cells remain)")
    if stats is None:
        base = cohort.norm_stats
        mean = base.mean if base is not None else series.mean(axis=(0, 2))
        centered = series - mean[None, :, None]
        std = np.sqrt((centered * centered).mean(axis=(0, 2)))
        std = np.where(std <= _ZERO_VAR_TOL * np.maximum(1.0, np.abs(mean)), 0.0, std)
        stats = NormStats(cohort.schema, mean, std,
                          base.warnings if base is not None else ())
    else:
        if stats.schema != cohort.schema:
            raise ConfigError(f"norm stats schema {stats.schema} does not match cohort {cohort.schema}")
        if stats.std is None:
            raise ConfigError("supplied norm stats lack standard deviations")
    z = series - stats.mean[:, None]
    z /= np.where(stats.std > 0.0, stats.std, 1.0)[:, None]
    z[:, stats.std == 0.0] = 0.0
    return replace(cohort, series=z, norm_stats=stats)


# ------------------------------------------------------- split and filter


def _check_split_ratios(ratios) -> None:
    """Three positive, finite train/val/test shares summing to 1; shared by
    ``split`` and TrainConfig, so a config is rejected before any data loads."""
    if len(ratios) != 3:
        raise ConfigError(f"split_ratios must hold 3 values, got {len(ratios)}")
    if any(not (math.isfinite(r) and r > 0.0) for r in ratios):
        raise ConfigError(f"split_ratios must be positive and finite, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split_ratios must sum to 1, got {ratios}")


def split(cohort: Cohort, ratios: tuple[float, float, float], rng: Rng) -> tuple[Cohort, Cohort, Cohort]:
    """Permute patients with ``rng`` and cut into train/val/test.

    Cut points are floor(cumulative_ratio * N) with a 1e-9 nudge so exact
    decimal ratios are not lost to float dust (N=10 at 0.7 gives 7, not 6).
    """
    _check_split_ratios(ratios)
    n = len(cohort)
    order = rng.permutation(n)
    c1 = int(math.floor(ratios[0] * n + 1e-9))
    c2 = int(math.floor((ratios[0] + ratios[1]) * n + 1e-9))
    pieces = (order[:c1], order[c1:c2], order[c2:])
    if any(len(ix) == 0 for ix in pieces):
        raise ConfigError(f"split of {n} patients at ratios {ratios} leaves an empty piece")
    return tuple(
        replace(cohort, patient_ids=cohort.patient_ids[ix], series=cohort.series[ix],
                icd=cohort.icd[ix], y=cohort.y[ix])
        for ix in pieces)


def code_carriers(cohort: Cohort, code: str) -> Array:
    """Boolean mask over the cohort's patients, true where they carry ``code``."""
    if code not in cohort.code_vocab:
        near = difflib.get_close_matches(code, cohort.code_vocab, n=3)
        hint = f"; nearest matches: {', '.join(near)}" if near else ""
        raise ConfigError(f"code {code!r} not in vocabulary{hint}")
    return cohort.icd[:, cohort.code_vocab.index(code)] == 1.0
