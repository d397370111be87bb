"""hgrc benchmark: run one workload on one seed and print one JSON result.

    python3 bench/run.py --workload train-b256 --seed 7 --seconds 12 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the workload runs twice in this process, untraced and then
traced, and the metrics are the per-layer ones from the traced pass.  The
line before it holds the run's details: machine, BLAS threads, versions,
seed, the work done and each metric's sample count.  A failed correctness
check prints ``"correct": false`` and exits with status 1.

The program is driven only through hgrc's public API: cohort CSVs through
``load_cohort``, then ``train``, ``save_checkpoint``/``load_checkpoint`` and
``predict_scores``.  bench/README.md explains the workloads and metrics.
"""

import os

# One BLAS thread, pinned before numpy loads: on a 2-core machine two threads
# were no faster at N=256, and the figures must not depend on the pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from speed import REFERENCE_S, SpeedSampler
from tracing import PER_LAYER_UNITS, SCORE_CALL, STEP, Tracer, instrument, layer_metrics, median

N_TRAIN = 2000
ROUNDS_PER_S = 0.3
# every workload's test AUROC was 0.80 to 0.89 over 20 seeds; an untrained
# model scores about 0.5
AUROC_FLOOR = 0.75
LN2 = math.log(2.0)

END_TO_END = (
    ("setup_s", "s"),
    ("train_step_ms.p50", "ms"),
    ("train_step_ms.p90", "ms"),
    ("train_patients_per_s", "1/s"),
    ("score_patients_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("test_auroc", "ratio"),
    ("test_auprc", "ratio"),
)

@dataclass(frozen=True)
class Workload:
    """One benchmark workload; its work is fixed by --seconds, not by the clock.

    Training runs ``round(epochs_per_s * seconds)`` epochs (at least one)
    with early stopping off, so a seed always does the same steps and its
    test AUROC is deterministic.  Then come ``round(ROUNDS_PER_S * seconds)``
    rounds (at least 3) of one set-up and one scoring call each.  Every
    workload trains on ``N_TRAIN`` patients and scores ``n_scored`` others.

    On a 2-core Xeon with one BLAS thread, --seconds 12 trains for about
    26 s on train-b256 and 17 s on train-b32.  At --seconds 12 every
    workload trains for at least 100 steps, so ten lie beyond the p90, and
    test AUROC clears AUROC_FLOOR on every seed tried.
    """

    focus: str
    batch_size: int
    epochs_per_s: float
    n_scored: int


WORKLOADS = {
    # hgrc train defaults: the GRU is ~80% of a step, each graph stage 1-4%
    "train-b256": Workload(STEP, 256, 3.0, 2000),
    # per-call overhead: the 48-step GRU loop and 40 Adam calls dominate
    "train-b32": Workload(STEP, 32, 1.5, 2000),
    # forward only over 4096 unseen patients: the dense N x N graph stages;
    # its checkpoint comes from a batch-32 training
    "score-4096": Workload(SCORE_CALL, 32, 1.0, 4096),
}

SMOKE = dict(n_train=800, n_scored=300, epochs=2, rounds=2)  # >= 2 steps an epoch at batch 256


class RunFailed(Exception):
    """A check failed in a way that stops the run; carries the counts so far."""


@dataclass
class Phase:
    tracer: Tracer
    n_train: int
    training_log: list
    n_scored: int
    scores: np.ndarray
    labels: np.ndarray
    attempted: int
    failed: int
    problems: list

    def durations(self, name: str) -> list:
        return [s.duration for s in self.tracer.spans if s.name == name]


# ----------------------------------------------------------------- helpers


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def load_cohort(hgrc, tracer, cohort_dir: Path, cfg, name: str = "data.load"):
    rows = count_rows(cohort_dir / "vitals.csv")
    with tracer.span(name) as span:
        cohort = hgrc.load_cohort(cohort_dir / "patients.csv", cohort_dir / "vitals.csv",
                                  window_hours=cfg.window_hours)
    span.counters = {"rows": float(rows)}
    return cohort


def standardized_splits(hgrc, tracer, cohort, cfg, name: str = "data.prep"):
    """Standardized train/val/test splits, cut as `hgrc train` cuts them."""
    with tracer.span(name):
        split_rng, _, _ = hgrc.derive_rng_streams(cfg.seed)
        train_c, val_c, test_c = hgrc.split(cohort, cfg.split_ratios, split_rng)
        train_c = hgrc.standardize(hgrc.impute_mean(train_c))
        stats = train_c.norm_stats
        val_c = hgrc.standardize(hgrc.impute_mean(val_c, stats), stats)
        test_c = hgrc.standardize(hgrc.impute_mean(test_c, stats), stats)
    return train_c, val_c, test_c


def train_once(hgrc, tracer, cfg, train_c, val_c, problems):
    """One hgrc.train call; returns (checkpoint, steps, failed steps)."""
    train_fn = importlib.import_module("hgrc.train").train
    first = len(tracer.losses)
    gc.collect()
    try:
        with tracer.span("train") as span:
            ckpt = train_fn(cfg, train_c, val_c)
    except Exception:
        traceback.print_exc()
        ckpt = None
    losses = tracer.losses[first:]
    steps = sum(1 for s in tracer.spans[span.sid:] if s.name == STEP)
    failed = sum(1 for x in losses if not math.isfinite(x))
    if ckpt is None:
        failed = max(failed, 1)
        problems.append("training raised")
    elif failed:
        problems.append(f"{failed} training steps gave a non-finite loss")
    if losses and abs(losses[0] - LN2) > 1e-6:
        problems.append(f"first training loss {losses[0]!r} is not ln 2 within 1e-6")
    if ckpt is None:
        raise RunFailed(steps, failed, problems)
    return ckpt, steps, failed


def score(hgrc, tracer, ckpt, cohort, reference, problems):
    """One predict_scores call on the whole cohort; returns (scores, failed).

    The call must return finite scores in [0, 1], bit-identical to
    ``reference`` (the run's first successful call) when there is one.
    """
    gc.collect()
    try:
        with tracer.span(SCORE_CALL):
            scores = hgrc.predict_scores(ckpt, cohort)
    except Exception:
        traceback.print_exc()
        return reference, 1
    if not (np.all(np.isfinite(scores)) and np.all((scores >= 0.0) & (scores <= 1.0))):
        problems.append("a score is non-finite or outside [0, 1]")
        return reference, 1
    if reference is not None and not np.array_equal(reference, scores):
        problems.append("repeated predict_scores calls disagree")
        return reference, 1
    return scores, 0


# ---------------------------------------------------------------- workloads


def run_phase(hgrc, w: Workload, seconds: float, smoke: bool, data_dir: Path,
              tracer: Tracer) -> Phase:
    """Train, save and reload, then alternate set-ups with scoring calls.

    Set-ups and scoring calls are spread over the run in rounds rather than
    made back to back, so that one slow stretch of a shared machine does
    not set all of their samples.  A train workload's first set-up is the
    one that feeds its training.
    """
    epochs = max(1, round(w.epochs_per_s * seconds))
    rounds = max(3, round(ROUNDS_PER_S * seconds))
    if smoke:
        epochs, rounds = SMOKE["epochs"], SMOKE["rounds"]
    cfg = hgrc.TrainConfig(batch_size=w.batch_size, epochs=epochs, patience=epochs)
    ckpt_path = data_dir / f"{tracer.run_id}.hgrc"
    sampler = tracer.sampler
    periodic = sampler.periodic if sampler is not None else contextlib.nullcontext
    problems: list[str] = []
    reference = None
    failed_calls = 0

    def setup_train():
        with tracer.span("setup"):
            cohort = load_cohort(hgrc, tracer, data_dir / "train", cfg)
            splits = standardized_splits(hgrc, tracer, cohort, cfg)
            model_cfg = cfg.model_config(len(cohort.schema), len(cohort.code_vocab))
            hgrc.init_params(model_cfg, hgrc.derive_rng_streams(cfg.seed)[1])
        return splits

    def setup_score():
        with tracer.span("setup"):
            with tracer.span("checkpoint.load"):
                loaded = hgrc.load_checkpoint(ckpt_path)
            cohort = load_cohort(hgrc, tracer, data_dir / "scored", cfg)
            with tracer.span("data.prep"):
                stats = loaded.norm_stats
                scored = hgrc.standardize(hgrc.impute_mean(cohort, stats), stats)
        return loaded, scored

    with instrument(tracer), tracer.span("run"):
        if w.focus == STEP:
            with periodic():
                train_c, val_c, _ = setup_train()
        else:
            with tracer.span("prep"):
                cohort = load_cohort(hgrc, tracer, data_dir / "train", cfg, name="prep.load")
                train_c, val_c, _ = standardized_splits(hgrc, tracer, cohort, cfg, "prep.split")
        ckpt, steps, failed_steps = train_once(hgrc, tracer, cfg, train_c, val_c, problems)
        if sampler is not None:  # closes the last stretch of training
            sampler.sample()
        with tracer.span("checkpoint.save") as span:
            hgrc.save_checkpoint(ckpt, ckpt_path)
        span.counters = {"bytes": float(ckpt_path.stat().st_size)}
        if w.focus == STEP:
            with tracer.span("prep"):
                with tracer.span("checkpoint.load"):
                    loaded = hgrc.load_checkpoint(ckpt_path)
                cohort = load_cohort(hgrc, tracer, data_dir / "scored", cfg, name="prep.load")
                stats = loaded.norm_stats
                scored = hgrc.standardize(hgrc.impute_mean(cohort, stats), stats)

        with periodic():
            for r in range(rounds):
                if w.focus != STEP:
                    loaded, scored = setup_score()
                elif r > 0:
                    setup_train()
                reference, failed = score(hgrc, tracer, loaded, scored, reference, problems)
                failed_calls += failed
    if reference is None:
        raise RunFailed(steps + rounds, failed_steps + failed_calls,
                        problems + ["no scoring call succeeded"])
    return Phase(tracer, len(train_c), ckpt.training_log, len(scored), reference,
                 scored.labels(), steps + rounds, failed_steps + failed_calls, problems)


def end_to_end(hgrc, phase: Phase) -> tuple[dict, dict, dict]:
    """End-to-end values, their sample counts, and the timings as wall-clock.

    Every timing is reported at reference speed (speed.py): a span's
    wall-clock time scaled by the machine speed sampled around it.
    """
    sampler = phase.tracer.sampler
    steps = [s for s in phase.tracer.spans if s.name == STEP]
    if len(steps) < 2:
        raise RunFailed(phase.attempted, phase.failed,
                        phase.problems + ["fewer than two training steps were observed"])
    setups = [s for s in phase.tracer.spans if s.name == "setup"]
    calls = [s for s in phase.tracer.spans if s.name == SCORE_CALL]
    # whole epochs: first step to the end of the train call, so validation
    # scoring and each epoch's metrics report count
    train_end = next(s for s in phase.tracer.spans if s.name == "train").end
    epochs = len(phase.training_log)

    def timings(seconds) -> dict:
        steps_ms = [seconds(s.start, s.end) * 1e3 for s in steps]
        return {
            "setup_s": median(seconds(s.start, s.end) for s in setups),
            "train_step_ms.p50": median(steps_ms),
            "train_step_ms.p90": statistics.quantiles(steps_ms, n=10, method="inclusive")[8],
            "train_patients_per_s": phase.n_train * epochs / seconds(steps[0].start, train_end),
            "score_patients_per_s": median(phase.n_scored / seconds(s.start, s.end)
                                           for s in calls),
        }

    values = timings(sampler.at_reference_speed)
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_auroc": hgrc.auroc(phase.scores, phase.labels),
        "test_auprc": hgrc.auprc(phase.scores, phase.labels),
    })
    samples = {
        "setup_s": len(setups),
        "train_step_ms.p50": len(steps),
        "train_step_ms.p90": len(steps),
        "train_patients_per_s": epochs,
        "score_patients_per_s": len(calls),
        "peak_rss_mb": 1,
        "test_auroc": phase.n_scored,
        "test_auprc": phase.n_scored,
    }
    wall = timings(lambda start, end: end - start)
    wall["speed_samples"] = len(sampler.samples)
    wall["speed_kernel_ms"] = sampler.kernel_median_s() * 1e3
    return values, samples, wall


# ------------------------------------------------------------------- report


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "process_threads": os_threads,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def emit(correct: bool, attempted: int, failed: int, values: dict, units, details: dict) -> None:
    print(json.dumps({"details": details}, sort_keys=True))
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units
               if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def make_inputs(out: Path, seed: int, n_train: int, n_scored: int) -> None:
    cmd = [sys.executable, str(Path(inputs.__file__)), "--out", str(out), "--seed", str(seed),
           "--train", str(n_train), "--scored", str(n_scored)]
    subprocess.run(cmd, check=True, timeout=120, stdout=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hgrc benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests; no AUROC floor")
    parser.add_argument("--spans-out", type=Path,
                        help="also write every recorded span to this JSON file")
    args = parser.parse_args(argv)
    # a terminated run still removes its inputs and stops the input writer
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    hgrc = inputs.load_hgrc()
    w = WORKLOADS[args.workload]
    n_train = SMOKE["n_train"] if args.smoke else N_TRAIN
    n_scored = SMOKE["n_scored"] if args.smoke else w.n_scored

    work = inputs.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "environment": environment()}
    try:
        make_inputs(work, args.seed, n_train, n_scored)
        phases = [run_phase(hgrc, w, args.seconds, args.smoke, work,
                             Tracer("untraced", full=False, sampler=SpeedSampler()))]
        if args.trace:
            phases.append(run_phase(hgrc, w, args.seconds, args.smoke, work,
                                    Tracer("traced", full=True)))
    except RunFailed as exc:
        attempted, failed, problems = exc.args
        details["problems"] = problems
        emit(False, max(attempted, 1), max(failed, 1), {}, (), details)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    base = phases[0]
    problems = [p for ph in phases for p in ph.problems]
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    values, samples, wall = end_to_end(hgrc, base)
    details["wall_clock"] = wall
    details["reference_kernel_ms"] = REFERENCE_S * 1e3
    details["work"] = {"batch_size": w.batch_size, "n_train": base.n_train,
                       "epochs": len(base.training_log), "n_scored": base.n_scored,
                       "score_calls": len(base.durations(SCORE_CALL)),
                       "setup_repeats": len(base.durations("setup"))}
    floor = None if args.smoke else AUROC_FLOOR
    if floor is not None and not values["test_auroc"] > floor:
        problems.append(f"test_auroc {values['test_auroc']:.4f} is not above the floor {floor}")
    details["auroc_floor"] = floor

    if args.trace:
        traced = phases[1]
        if traced.training_log != base.training_log:
            problems.append("traced and untraced training logs differ")
        if not np.array_equal(traced.scores, base.scores):
            problems.append("traced and untraced scores are not bit-identical")
        values, samples = layer_metrics(traced.tracer, w.focus)
        units = PER_LAYER_UNITS
        details["computed"] = sorted(n for n, u in units if u == "GFLOP")
        details["warnings"] = traced.tracer.warnings
    else:
        units = END_TO_END
        details["warnings"] = base.tracer.warnings
    details["samples"] = samples
    details["problems"] = problems
    for message in details["warnings"]:
        print(f"benchmark warning: {message}", file=sys.stderr)
    if args.spans_out is not None:
        args.spans_out.write_text(json.dumps([ph.tracer.dump() for ph in phases]))
    correct = not problems and failed == 0
    emit(correct, attempted, failed, values, units, details)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
