"""Benchmark inputs: synthetic cohorts in the CSV bytes hgrc writes itself.

All workloads use the hard synthetic regime, where test AUROC has headroom;
the generator's default cohort saturates AUROC at 1.0 and would hide a
quality loss.  The benchmark runs this file as a child process, so that
generating and writing the inputs counts toward neither the workload's
time nor its peak RSS:

    python3 bench/inputs.py --out DIR --seed 7 --train 2000 [--scored 4096]

writes DIR/train/{patients,vitals}.csv and, with --scored, a disjoint
DIR/scored/ cohort.

Both are samples, drawn by the seed, of one fixed synthetic population.
The generator draws its disease model (class directions, code prevalences)
from its own seed, so giving every workload seed its own generator seed
would vary how hard the task is, and test AUPRC spread 0.17-0.24 across
seeds; with one population it is a sampling effect only.

``hgrc.write_cohort_files`` writes the whole population once per checkout
and source version, into ``.bench_work/``.  A seed's cohort is then cut
from those files: its patients' rows, copied byte for byte in the seed's
order, which are the bytes ``write_cohort_files`` gives for that cohort.
Writing each run's 4000-6100 patients afresh took 7-11 s a run, about a
fifth of its wall time; the cut takes 0.1 s.
"""

from __future__ import annotations

import argparse
import hashlib
import mmap
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
HARD_REGIME = dict(class_separation=0.15, code_signal_strength=0.5,
                   n_variables=16, window_hours=48, n_codes=20)
POPULATION = 8192
POPULATION_SEED = 7


def load_hgrc():
    """Import hgrc from this checkout's src/, never from an installed copy."""
    package = ROOT / "src" / "hgrc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hgrc sources at {package}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import hgrc
    if Path(hgrc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported hgrc from {hgrc.__file__}, expected {package}")
    return hgrc


def population_dir(hgrc) -> Path:
    """The population's CSVs and row offsets, written on first use.

    The directory is named by a hash of hgrc's sources, so a change to the
    generator or the file format writes a new population.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hgrc").glob("*.py")):
        digest.update(path.read_bytes())
    out = WORK_DIR / f"population-{POPULATION_SEED}-{POPULATION}-{digest.hexdigest()[:12]}"
    if out.is_dir():
        return out
    import numpy as np

    spec = hgrc.SyntheticSpec(n_patients=POPULATION, **HARD_REGIME)
    population = hgrc.gen_synthetic(spec, hgrc.Rng(POPULATION_SEED))
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    hgrc.write_cohort_files(population, tmp, spec, POPULATION_SEED)
    # write_cohort_files writes one vitals row per measured value, patient
    # by patient; the offsets below rely on that, so check it
    rows = np.array([np.count_nonzero(~np.isnan(p.series)) for p in population.patients])
    data = np.fromfile(tmp / "vitals.csv", dtype=np.uint8)
    line_starts = np.concatenate(([0], np.flatnonzero(data == ord("\n")) + 1))
    first_row = np.concatenate(([1], 1 + np.cumsum(rows)))
    if first_row[-1] != len(line_starts) - 1:
        raise SystemExit("benchmark: vitals.csv does not hold one row per measured value")
    offsets = line_starts[first_row]
    for p, start, end in zip(population.patients, offsets[:-1], offsets[1:]):
        lead = (p.patient_id + ",").encode()
        last = line_starts[np.searchsorted(line_starts, end) - 1]
        for row in (start, last):
            if bytes(data[row:row + len(lead)]) != lead:
                raise SystemExit("benchmark: vitals.csv rows are not grouped by patient")
    np.save(tmp / "offsets.npy", offsets)
    try:
        tmp.rename(out)
    except OSError:  # another run wrote it first
        shutil.rmtree(tmp)
    return out


def write_subset(population: Path, rows, out: Path) -> None:
    """Write the population patients ``rows``, in that order, as a cohort."""
    import numpy as np

    offsets = np.load(population / "offsets.npy")
    out.mkdir(parents=True)
    lines = (population / "patients.csv").read_bytes().splitlines(keepends=True)
    (out / "patients.csv").write_bytes(b"".join([lines[0]] + [lines[1 + i] for i in rows]))
    with open(population / "vitals.csv", "rb") as src, open(out / "vitals.csv", "wb") as dst, \
            mmap.mmap(src.fileno(), 0, access=mmap.ACCESS_READ) as data:
        dst.write(data[:offsets[0]])
        for i in rows:
            dst.write(data[offsets[i]:offsets[i + 1]])


def write_inputs(hgrc, out: Path, seed: int, n_train: int, n_scored: int) -> None:
    if n_train + n_scored > POPULATION:
        raise SystemExit(f"benchmark: {n_train} + {n_scored} patients exceed the population")
    population = population_dir(hgrc)
    order = hgrc.Rng(seed).permutation(POPULATION)
    parts = {"train": order[:n_train], "scored": order[n_train:n_train + n_scored]}
    for name, rows in parts.items():
        if len(rows):
            write_subset(population, rows, out / name)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--train", type=int, required=True)
    parser.add_argument("--scored", type=int, default=0)
    args = parser.parse_args(argv)
    write_inputs(load_hgrc(), args.out, args.seed, args.train, args.scored)


if __name__ == "__main__":
    main()
