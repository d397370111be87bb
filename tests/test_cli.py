"""End-to-end command line workflow on a small synthetic cohort."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hgrc.cli import main
from hgrc.config import AppConfig, dump_defaults, parse_app_config
from hgrc.data import load_cohort
from hgrc.errors import ConfigError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out), err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic then train, shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("ws")
    data_dir = root / "cohort"
    gen, _ = run_json(["gen-synthetic", "--out-dir", str(data_dir),
                       "--seed", "3", "--n-patients", "40", "--n-codes", "5"])
    ckpt_path = root / "model.hgrc"
    trained, train_err = run_json(["train", "--data-dir", str(data_dir),
                                   "--seed", "1", "--epochs", "2",
                                   "--out", str(ckpt_path)])
    return {"root": root, "data_dir": data_dir, "ckpt": ckpt_path,
            "gen": gen, "trained": trained, "train_err": train_err}


def eval_args(ws, *extra):
    return ["evaluate", "--checkpoint", str(ws["ckpt"]),
            "--data-dir", str(ws["data_dir"]), *extra]


def test_gen_synthetic_writes_loadable_files(workspace):
    gen = workspace["gen"]
    assert gen["n_patients"] == 40
    assert gen["seed"] == 3
    assert 0 < gen["n_positive"] < 40
    for name in ("patients.csv", "vitals.csv", "meta.json"):
        assert (workspace["data_dir"] / name).is_file()
    cohort = load_cohort(workspace["data_dir"] / "patients.csv",
                         workspace["data_dir"] / "vitals.csv", window_hours=48)
    assert len(cohort) == 40
    assert len(cohort.code_vocab) == 5


def test_train_reports_run_and_writes_artifacts(workspace):
    trained = workspace["trained"]
    assert trained["epochs_run"] == 2
    assert trained["best_epoch"] in (1, 2)
    assert "auroc" in trained["best_val"]
    assert workspace["ckpt"].is_file()
    log_path = workspace["root"] / "model.hgrc.log.json"
    assert trained["training_log"] == str(log_path)
    log = json.loads(log_path.read_text())
    assert len(log["log"]) == 2
    assert "epoch" in workspace["train_err"]  # progress goes to stderr


def test_evaluate_emits_metrics_json(workspace):
    report, _ = run_json(eval_args(workspace))
    assert report["split"] == "test"
    assert report["n_patients"] == 6  # 40 patients at 0.7/0.15/0.15
    assert 0.0 <= report["auroc"] <= 1.0
    assert report["decision_threshold"] == 0.5


def test_evaluate_split_and_threshold_flags(workspace):
    train_rep, _ = run_json(eval_args(workspace, "--split", "train"))
    val_rep, _ = run_json(eval_args(workspace, "--split", "val"))
    assert train_rep["n_patients"] == 28
    assert val_rep["n_patients"] == 6
    low, _ = run_json(eval_args(workspace, "--threshold", "0.01"))
    assert low["decision_threshold"] == 0.01
    default, _ = run_json(eval_args(workspace))
    assert low["auroc"] == default["auroc"]  # ranking metrics ignore the threshold


def test_evaluate_supports_batched_scoring(workspace):
    report, _ = run_json(eval_args(workspace, "--eval-batch-size", "3"))
    assert report["n_patients"] == 6


def train_split(workspace):
    from hgrc.data import split
    from hgrc.train import derive_rng_streams
    cohort = load_cohort(workspace["data_dir"] / "patients.csv",
                         workspace["data_dir"] / "vitals.csv", window_hours=48)
    split_rng = derive_rng_streams(1)[0]  # the train command ran with seed 1
    return split(cohort, (0.7, 0.15, 0.15), split_rng)[0]


def test_case_study_splits_by_code(workspace):
    tr = train_split(workspace)
    codes = tr.codes_matrix()
    labels = tr.labels()
    mixed = next(code for j, code in enumerate(tr.code_vocab)
                 if len(set(labels[codes[:, j] == 1.0])) == 2)
    result, _ = run_json(["case-study", "--checkpoint", str(workspace["ckpt"]),
                          "--data-dir", str(workspace["data_dir"]),
                          "--split", "train", "--code", mixed])
    assert result["code"] == mixed
    gi, gii = result["group_i"], result["group_ii"]
    assert gi["n_patients"] + gii["n_patients"] == 28
    j = tr.code_vocab.index(mixed)
    assert gi["n_patients"] == int(codes[:, j].sum())
    assert gi["n_positive"] == int(labels[codes[:, j] == 1.0].sum())
    assert gi["neg_pos_ratio"].endswith(":1")
    assert "auroc" in gi["metrics"]


def test_case_study_single_class_group_fails_cleanly(workspace):
    tr = train_split(workspace)
    codes = tr.codes_matrix()
    labels = tr.labels()
    lonely = next((code for j, code in enumerate(tr.code_vocab)
                   if len(set(labels[codes[:, j] == 1.0])) == 1), None)
    if lonely is None:
        pytest.skip("every code group mixes classes in this draw")
    code, out, err = run_cli(["case-study", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--split", "train", "--code", lonely])
    assert code == 1
    assert "both classes" in err


def test_case_study_unknown_code_suggests(workspace):
    code, out, err = run_cli(["case-study", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--code", "999.99"])
    assert code == 2
    assert out == ""
    assert "999.99" in err


def test_embed_exports_csv(workspace, tmp_path):
    out_path = tmp_path / "agg.csv"
    result, _ = run_json(["embed", "--checkpoint", str(workspace["ckpt"]),
                          "--data-dir", str(workspace["data_dir"]),
                          "--stage", "aggregated", "--out", str(out_path)])
    assert result["stage"] == "aggregated"
    assert result["n_patients"] == 6
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("patient_id,label,e0,")
    assert lines[0].endswith(",e36")  # default aggregation width 37


def test_embed_passes_the_eval_batch_size_through(workspace, tmp_path):
    from hgrc.checkpoint import load_checkpoint
    from hgrc.cli import _checkpoint_split
    from hgrc.train import export_embeddings
    out_path = tmp_path / "hconv.csv"
    run_json(["embed", "--checkpoint", str(workspace["ckpt"]),
              "--data-dir", str(workspace["data_dir"]), "--stage", "hconv",
              "--eval-batch-size", "2", "--out", str(out_path)])
    ckpt = load_checkpoint(workspace["ckpt"])
    args = type("Args", (), {"split": "test"})()
    cohort = _checkpoint_split(args, ckpt, workspace["data_dir"])
    export_embeddings(ckpt, cohort, "hconv", tmp_path / "batched.csv", eval_batch_size=2)
    export_embeddings(ckpt, cohort, "hconv", tmp_path / "whole.csv")
    assert out_path.read_text() == (tmp_path / "batched.csv").read_text()
    # the hypergraph spans one evaluation batch, so the flag must matter here
    assert out_path.read_text() != (tmp_path / "whole.csv").read_text()


def test_embed_requires_out_path(workspace):
    code, out, err = run_cli(["embed", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--stage", "gru"])
    assert code == 2
    assert "out" in err


def test_config_dump_defaults():
    dumped, _ = run_json(["config", "--dump-defaults"])
    assert set(dumped) == {"train", "synthetic", "paths"}
    assert dumped["train"]["epochs"] == 50
    assert dumped["train"]["model"]["hidden_size"] == 59
    assert dumped["train"]["model"]["ffn_hidden"] == [27, 17]
    assert set(dumped["train"]) == {"window_hours", "batch_size", "learning_rate", "epochs",
                                    "patience", "seed", "split_ratios",
                                    "decision_threshold", "model"}
    assert len(dumped["train"]["model"]) == 10  # n_variables, n_codes come from the data
    assert dumped["synthetic"]["n_patients"] == 2000
    code, _, _ = run_cli(["config"])
    assert code == 2


def test_config_file_supplies_defaults(workspace, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "train": {"epochs": 1, "seed": 9},
        "paths": {"data_dir": str(workspace["data_dir"]),
                  "checkpoint": str(tmp_path / "cfg.hgrc")},
    }))
    trained, _ = run_json(["train", "--config", str(cfg_path)])
    assert trained["epochs_run"] == 1
    assert (tmp_path / "cfg.hgrc").is_file()
    report, _ = run_json(["evaluate", "--config", str(cfg_path)])
    assert report["n_patients"] == 6


def test_config_dump_parses_back_to_defaults():
    assert parse_app_config(json.loads(dump_defaults())) == AppConfig.defaults()


def test_config_architecture_is_nested_and_validated_at_parse_time():
    parsed = parse_app_config({"train": {"epochs": 3, "model": {"hidden_size": 30,
                                                                 "ffn_hidden": [8, 4]}}})
    assert parsed.train.epochs == 3
    assert parsed.train.model.hidden_size == 30
    assert parsed.train.model.ffn_hidden == (8, 4)
    with pytest.raises(ConfigError, match="hidden_size"):
        parse_app_config({"train": {"model": {"hidden_size": 0}}})
    with pytest.raises(ConfigError, match="ffn_hidden"):
        parse_app_config({"train": {"model": {"ffn_hidden": 5}}})
    with pytest.raises(ConfigError, match="train.model.n_variables"):
        parse_app_config({"train": {"model": {"n_variables": 4}}})
    with pytest.raises(ConfigError, match="train.model"):
        parse_app_config({"train": {"model": 59}})


def test_config_file_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(["gen-synthetic", "--out-dir", str(tmp_path),
                    "--config", str(missing)])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"mystery": 1}}))
    assert run_cli(["gen-synthetic", "--out-dir", str(tmp_path),
                    "--config", str(bad)])[0] == 2


@pytest.mark.parametrize("document", [
    {"train": {"model": {"mystery": 1}}},
    {"train": {"hidden_size": 30}},
    {"train": {"model": {"n_codes": 5}}},
], ids=["unknown_model_key", "flat_architecture_key", "data_width"])
def test_config_architecture_errors_exit_2(tmp_path, document):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code, out, err = run_cli(["train", "--config", str(bad)])
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_missing_inputs_exit_2(workspace, tmp_path):
    assert run_cli(["evaluate", "--data-dir", str(workspace["data_dir"])])[0] == 2
    assert run_cli(eval_args({"ckpt": tmp_path / "absent.hgrc",
                              "data_dir": workspace["data_dir"]}))[0] == 2
    assert run_cli(eval_args({"ckpt": workspace["ckpt"],
                              "data_dir": tmp_path / "absent"}))[0] == 2
    assert run_cli(["train", "--data-dir", str(tmp_path)])[0] == 2  # no csv files


def test_corrupt_inputs_exit_1(workspace, tmp_path):
    garbage = tmp_path / "junk.hgrc"
    garbage.write_bytes(b"HGRCnot really a checkpoint")
    assert run_cli(eval_args({"ckpt": garbage,
                              "data_dir": workspace["data_dir"]}))[0] == 1
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "patients.csv").write_text("patient_id,label\n")
    (bad_dir / "vitals.csv").write_text("wrong,header\n")
    assert run_cli(["train", "--data-dir", str(bad_dir)])[0] == 1


@pytest.mark.parametrize("edit", [
    lambda m: m["norm_stats"].pop("std"),
    lambda m: m.update(norm_stats="not an object"),
], ids=["missing_std", "stats_not_an_object"])
def test_malformed_checkpoint_norm_stats_exit_1(workspace, tmp_path, edit):
    from test_checkpoint import edit_manifest

    def apply(m):
        edit(m)
        return m
    bad = tmp_path / "bad.hgrc"
    bad.write_bytes(bytes(edit_manifest(bytearray(workspace["ckpt"].read_bytes()), apply)))
    code, out, err = run_cli(eval_args({"ckpt": bad, "data_dir": workspace["data_dir"]}))
    assert code == 1
    assert out == ""
    assert "malformed manifest" in err or "missing field" in err


def test_usage_errors_raise_system_exit():
    for argv in (["train", "--window", "12"],
                 ["embed", "--stage", "nonsense"],
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_stdout_carries_only_json(workspace):
    code, out, err = run_cli(eval_args(workspace))
    assert code == 0
    json.loads(out)  # a single document, nothing else
    assert out.lstrip().startswith("{")
