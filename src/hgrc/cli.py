"""Command-line interface.

Subcommands: gen-synthetic, train, evaluate, case-study, embed, config.
Standard output carries only the result JSON; all logs go to standard
error.  Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import checkpoint as ckpt_mod
from . import data as data_mod
from . import synthetic as synth_mod
# the package root re-exports the train() function, so the submodule has to
# be imported by name rather than as `from . import train`
from .train import (EMBED_STAGES, Checkpoint, TrainConfig, derive_rng_streams,
                    evaluate, export_embeddings, predict_scores, train)
from .config import AppConfig, dump_defaults, load_app_config
from .errors import (CheckpointError, ConfigError, ParseError, TrainingError,
                     UndefinedMetricError)
from .metrics import compute_report
from .numeric import Rng

SPLITS = ("train", "val", "test")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_config(args) -> AppConfig:
    if getattr(args, "config", None):
        return load_app_config(args.config)
    return AppConfig.defaults()


def _resolve_checkpoint(args, cfg: AppConfig) -> Checkpoint:
    raw = args.checkpoint or cfg.paths.checkpoint
    if raw is None:
        raise ConfigError("no checkpoint given (use --checkpoint or paths.checkpoint)")
    if not Path(raw).is_file():
        raise ConfigError(f"checkpoint not found: {raw}")
    return ckpt_mod.load_checkpoint(raw)


def _resolve_data_dir(args, cfg: AppConfig) -> Path:
    raw = args.data_dir or cfg.paths.data_dir
    if raw is None:
        raise ConfigError("no data directory given (use --data-dir or paths.data_dir)")
    path = Path(raw)
    if not path.is_dir():
        raise ConfigError(f"data directory not found: {path}")
    for name in ("patients.csv", "vitals.csv"):
        if not (path / name).is_file():
            raise ConfigError(f"data directory {path} lacks {name}")
    return path


def _load_raw_cohort(data_dir: Path, window_hours: int) -> data_mod.Cohort:
    return data_mod.load_cohort(data_dir / "patients.csv", data_dir / "vitals.csv",
                                window_hours)


def _split(cohort, config: TrainConfig):
    """The train/val/test pieces of the raw cohort, cut as training cuts them."""
    split_rng, _, _ = derive_rng_streams(config.seed)
    return data_mod.split(cohort, config.split_ratios, split_rng)


def _standardized(piece, stats: data_mod.NormStats):
    return data_mod.standardize(data_mod.impute_mean(piece, stats), stats)


def _with_threshold(ckpt: Checkpoint, threshold: float | None) -> Checkpoint:
    """The checkpoint, deciding at ``threshold`` in place of its trained one when given."""
    if threshold is None:
        return ckpt
    return replace(ckpt, config=replace(ckpt.config, decision_threshold=threshold))


def _checkpoint_split(args, ckpt: Checkpoint, data_dir: Path):
    """Recover one standardized split exactly as the training run saw it."""
    cohort = _load_raw_cohort(data_dir, ckpt.config.window_hours)
    if cohort.schema != ckpt.schema:
        raise ConfigError("data schema does not match checkpoint "
                          f"({list(cohort.schema)} vs {list(ckpt.schema)})")
    if cohort.code_vocab != ckpt.code_vocab:
        raise ConfigError("data code vocabulary does not match checkpoint vocabulary")
    piece = _split(cohort, ckpt.config)[SPLITS.index(args.split)]
    return _standardized(piece, ckpt.norm_stats)


# ---------------------------------------------------------------- commands


def cmd_gen_synthetic(args) -> int:
    cfg = _load_config(args)
    spec = cfg.synthetic
    overrides = {}
    for flag in ("n_patients", "positive_fraction", "window_hours", "n_codes",
                 "class_separation", "missing_rate", "code_signal_strength"):
        value = getattr(args, flag)
        if value is not None:
            overrides[flag] = value
    if overrides:
        spec = replace(spec, **overrides)
    if spec.n_variables != len(data_mod.DEFAULT_SCHEMA):
        raise ConfigError(f"synthetic.n_variables must be {len(data_mod.DEFAULT_SCHEMA)} "
                          f"for train to read the cohort, got {spec.n_variables}")
    out_dir = args.out_dir or cfg.paths.out_dir
    if out_dir is None:
        raise ConfigError("no output directory given (use --out-dir or paths.out_dir)")
    # replace() range-checks a seed given on the command line
    seed = cfg.train.seed if args.seed is None else replace(cfg.train, seed=args.seed).seed
    cohort = synth_mod.gen_synthetic(spec, Rng(seed))
    paths = synth_mod.write_cohort_files(cohort, out_dir, spec, seed)
    _log(f"wrote {len(cohort)} patients to {out_dir}")
    _emit({"files": paths, "n_patients": len(cohort),
           "n_positive": int(cohort.y.sum()), "seed": seed})
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    tc = cfg.train
    overrides = {}
    if args.window is not None:
        overrides["window_hours"] = args.window
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if overrides:
        tc = replace(tc, **overrides)

    data_dir = _resolve_data_dir(args, cfg)
    out_path = args.out or cfg.paths.checkpoint or str(data_dir / "model.hgrc")

    cohort = _load_raw_cohort(data_dir, tc.window_hours)
    train_raw, val_raw, _ = _split(cohort, tc)
    train_c = data_mod.standardize(data_mod.impute_mean(train_raw))
    val_c = _standardized(val_raw, train_c.norm_stats)
    for note in train_c.norm_stats.warnings:
        _log(f"warning: {note}")
    _log(f"training on {len(train_c)} patients, validating on {len(val_c)}")

    def progress(entry):
        _log(f"epoch {entry['epoch']:3d}  loss {entry['train_loss']:.6f}  "
             f"val auroc {entry['val']['auroc']:.4f}")

    ckpt = train(tc, train_c, val_c, progress=progress)
    ckpt_mod.save_checkpoint(ckpt, out_path)
    log_path = str(out_path) + ".log.json"
    with open(log_path, "w") as fh:
        json.dump({"best_epoch": ckpt.best_epoch, "log": ckpt.training_log},
                  fh, indent=2, sort_keys=True)
    best = ckpt.training_log[ckpt.best_epoch - 1]["val"]
    _emit({
        "checkpoint": str(out_path),
        "training_log": log_path,
        "epochs_run": len(ckpt.training_log),
        "best_epoch": ckpt.best_epoch,
        "best_val": best,
    })
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    ckpt = _with_threshold(_resolve_checkpoint(args, cfg), args.threshold)
    data_dir = _resolve_data_dir(args, cfg)
    cohort = _checkpoint_split(args, ckpt, data_dir)
    report = evaluate(ckpt, cohort)
    _emit({"split": args.split, **report.to_dict()})
    return 0


def _group_block(scores, labels, decision_threshold: float) -> dict:
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    return {
        "n_patients": len(labels),
        "n_positive": n_pos,
        "neg_pos_ratio": f"{n_neg / n_pos:.4f}:1" if n_pos else None,
        "metrics": compute_report(scores, labels, decision_threshold).to_dict(),
    }


def cmd_case_study(args) -> int:
    cfg = _load_config(args)
    ckpt = _with_threshold(_resolve_checkpoint(args, cfg), args.threshold)
    data_dir = _resolve_data_dir(args, cfg)
    cohort = _checkpoint_split(args, ckpt, data_dir)
    carriers = data_mod.code_carriers(cohort, args.code)
    if not carriers.any():
        code_counts = cohort.icd.sum(axis=0)
        counts = sorted(
            ((code, int(count)) for code, count in zip(cohort.code_vocab, code_counts)),
            key=lambda item: -item[1])
        available = ", ".join(f"{code} ({count})" for code, count in counts[:5])
        raise ConfigError(f"no patient in the {args.split} split carries code "
                          f"{args.code!r}; most common codes: {available}")
    # the split is scored once, as `evaluate` scores it; scoring each group
    # on its own would rebuild both graphs inside the group
    scores = predict_scores(ckpt, cohort)
    labels = cohort.y
    threshold = ckpt.config.decision_threshold
    _emit({
        "code": args.code,
        "split": args.split,
        "group_i": _group_block(scores[carriers], labels[carriers], threshold),
        "group_ii": _group_block(scores[~carriers], labels[~carriers], threshold),
    })
    return 0


def cmd_embed(args) -> int:
    cfg = _load_config(args)
    ckpt = _resolve_checkpoint(args, cfg)
    data_dir = _resolve_data_dir(args, cfg)
    cohort = _checkpoint_split(args, ckpt, data_dir)
    out = args.out or cfg.paths.out
    if out is None:
        raise ConfigError("no output path given (use --out or paths.out)")
    path = export_embeddings(ckpt, cohort, args.stage, out)
    _emit({"file": path, "stage": args.stage, "split": args.split,
           "n_patients": len(cohort)})
    return 0


def cmd_config(args) -> int:
    if args.dump_defaults:
        print(dump_defaults())
        return 0
    raise ConfigError("nothing to do (did you mean --dump-defaults?)")


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgrc",
        description="Hypergraph-convolution patient-similarity model for ICU "
                    "mortality risk prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (see `hgrc config --dump-defaults`)")

    p = sub.add_parser("gen-synthetic", help="write a synthetic cohort to CSV files")
    add_common(p)
    p.add_argument("--out-dir", help="directory for patients.csv / vitals.csv / meta.json")
    p.add_argument("--seed", type=int, help="generator seed (default: train.seed)")
    p.add_argument("--n-patients", type=int, dest="n_patients")
    p.add_argument("--positive-fraction", type=float, dest="positive_fraction")
    p.add_argument("--window-hours", type=int, dest="window_hours")
    p.add_argument("--n-codes", type=int, dest="n_codes")
    p.add_argument("--class-separation", type=float, dest="class_separation")
    p.add_argument("--missing-rate", type=float, dest="missing_rate")
    p.add_argument("--code-signal-strength", type=float, dest="code_signal_strength")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train from CSV data and write a checkpoint")
    add_common(p)
    p.add_argument("--data-dir", help="directory holding patients.csv and vitals.csv")
    p.add_argument("--window", type=int, choices=data_mod.VALID_WINDOWS,
                   help="observation window in hours; later hours are dropped "
                        "(default: train.window_hours)")
    p.add_argument("--seed", type=int, help="run seed (default: train.seed)")
    p.add_argument("--epochs", type=int, help="maximum epochs (default: train.epochs)")
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help="mini-batch size (default: train.batch_size)")
    p.add_argument("--out", help="checkpoint output path (default <data-dir>/model.hgrc)")
    p.set_defaults(func=cmd_train)

    def add_eval_common(p):
        add_common(p)
        p.add_argument("--checkpoint", help="trained checkpoint path")
        p.add_argument("--data-dir", help="directory holding patients.csv and vitals.csv")
        p.add_argument("--split", choices=SPLITS, default="test",
                       help="which split of the data to use (default test)")

    def add_threshold(p):
        p.add_argument("--threshold", type=float,
                       help="decision threshold for confusion metrics, in (0, 1) "
                            "(default: the checkpoint's train.decision_threshold)")

    p = sub.add_parser("evaluate", help="print metrics JSON for one split")
    add_eval_common(p)
    add_threshold(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("case-study", help="metrics for carriers of one code vs the rest")
    add_eval_common(p)
    add_threshold(p)
    p.add_argument("--code", required=True, help="ICD-9 code defining Group I")
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("embed", help="export intermediate representations to CSV")
    add_eval_common(p)
    p.add_argument("--stage", choices=EMBED_STAGES, required=True,
                   help="which representation to export")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("config", help="configuration helpers")
    p.add_argument("--dump-defaults", action="store_true",
                   help="print the full default configuration as JSON")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except (ParseError, CheckpointError, TrainingError, UndefinedMetricError) as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
